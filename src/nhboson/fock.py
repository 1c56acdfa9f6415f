"""Truncated Fock-space matrices and spectral diagnostics.

The two-boson Hamiltonian conserves the occupation difference d = m - n, so
its matrix in the number basis splits into tridiagonal blocks indexed by
d in [-N, N] after a permutation.  Everything expensive here (eigenvalues,
support energies, sigma_min grids) runs block-by-block; blocks with equal
|d| are identical matrices, so only d >= 0 is ever solved.  The dense form
is scattered from the blocks only when a caller asks for it.

sigma_min evaluation uses exact skip bounds so large-d blocks are only
touched when they can actually lower the minimum:

* Re W(B_d) >= d + 1 (the block's diagonal dominates its Hermitian part),
  hence sigma_min(zI - B_d) >= max(0, d + 1 - Re z);
* Johnson's Gershgorin-type bound
  sigma_min(M) >= min_k(|M_kk| - (row_k + col_k)/2).

A block's remaining points are solved together by inverse iteration on a
batched tridiagonal LU with partial pivoting (LAPACK ?gttrf/?gttrs, one
Python loop over rows vectorized over points), so a step costs O(size) per
point rather than the O(size^3) of a dense SVD.  The batched dense SVD is
the reference path: it takes batches too small to pay for the row loop and
every point the iteration does not settle (a zero pivot, a non-finite
estimate, or a convergence rate too slow for the step cap).  Results agree
with dense SVD to 1e-12; no unconverged value is returned.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
import numpy.random  # noqa: F401  (loaded here, not inside the first draw)

#: bytes of one batched-SVD stack of shifted blocks
_SVD_STACK_BYTES = 32 * 2**20
#: points per inverse-iteration batch, which keeps its rows in cache
_INVIT_CHUNK = 4096
#: points x block size below which a sigma_min batch goes to the SVD: the
#: inverse iteration's Python overhead per row then outweighs the dense solves
_INVIT_MIN_WORK = 2_000
#: inverse-iteration steps that cost as much as one point's SVD, per block
#: row; a point predicted to need more steps is re-solved by SVD
_INVIT_STEPS_PER_ROW = 2
#: relative change of successive sigma estimates at which a point has converged
_INVIT_RTOL = 1e-15
#: decimal digits the Newton iteration carries beyond the requested dps
_NEWTON_GUARD_DPS = 20
#: Newton steps allowed per root before the solve counts as failed
_NEWTON_MAX_STEPS = 60
#: support energies stop when a Newton step or bracket is this small,
#: relative to the block's Gershgorin scale (LAPACK ?stebz's default)
_SUPPORT_RTOL = 4 * np.finfo(float).eps
#: Newton or bisection steps allowed per support energy
_SUPPORT_MAX_STEPS = 100
#: normals drawn per chunk of Rayleigh-quotient vectors, which bounds memory
_RAYLEIGH_CHUNK_ENTRIES = 2**16


class SolverConvergenceError(RuntimeError):
    """An eigen/SVD solve failed to converge; carries the block index."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class FockMatrix:
    """Truncation of H, H* or Re(e^{-i theta} H) on modes m, n <= N.

    The d-blocks define it; the dense `mat` is scattered from them on first
    access."""

    n_max: int
    gamma: float
    kind: str
    theta: float | None

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def index(self, m: int, n: int) -> int:
        if not (0 <= m <= self.n_max and 0 <= n <= self.n_max):
            raise IndexError(f"mode ({m},{n}) outside truncation {self.n_max}")
        return m * (self.n_max + 1) + n

    def block_members(self, d: int) -> list[tuple[int, int]]:
        """(m, n) pairs with m - n = d, ordered by the pair minimum."""
        if not -self.n_max <= d <= self.n_max:
            raise IndexError(f"block {d} outside [-N, N]")
        return [(k + d, k) if d >= 0 else (k, k - d) for k in range(self.n_max + 1 - abs(d))]

    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(order, diag, sub, sup): the matrix permuted to its d-blocks in
        ascending d, which is tridiagonal; order[i] is the lexicographic
        index of row i, and the couplings across block boundaries are 0."""
        order, diag, sub, sup = [], [], [], []
        for d in range(-self.n_max, self.n_max + 1):
            order += [self.index(m, n) for m, n in self.block_members(d)]
            block_diag, block_sub, block_sup = _block_tridiag(self.kind, self.n_max, self.gamma, d, self.theta)
            diag.append(block_diag)
            sub += [block_sub, [0]]
            sup += [block_sup, [0]]
        return np.array(order), np.concatenate(diag), np.concatenate(sub)[:-1], np.concatenate(sup)[:-1]

    @cached_property
    def mat(self) -> np.ndarray:
        order, diag, sub, sup = self._tridiagonal()
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(diag, sub))
        out[order, order] = diag
        out[order[1:], order[:-1]] = sub
        out[order[:-1], order[1:]] = sup
        return out

    def block(self, d: int) -> np.ndarray:
        idx = [self.index(m, n) for m, n in self.block_members(d)]
        return self.mat[np.ix_(idx, idx)]


def _block_data(n_max: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer diagonal d + 2k + 1 and squared couplings (d + k + 1)(k + 1)
    of block d: the one definition of the Fock matrix.  Coupling k joins
    rows k and k + 1; blocks d and -d are equal."""
    d = abs(d)
    k = np.arange(n_max + 1 - d)
    return d + 2 * k + 1, (d + k[1:]) * k[1:]


def _block_tridiag(kind: str, n_max: int, gamma: float, d: int, theta: float | None = None):
    """(diag, sub, sup) of block d; sub couples k -> k+1 (row k+1)."""
    diag, coupling_sq = _block_data(n_max, d)
    diag = diag.astype(float)
    c = np.sqrt(coupling_sq)
    if kind == "H":
        return diag, -gamma * c, +gamma * c
    if kind == "Hstar":
        return diag, +gamma * c, -gamma * c
    if kind == "ReTheta":
        return diag * math.cos(theta), 1j * gamma * math.sin(theta) * c, -1j * gamma * math.sin(theta) * c
    raise ValueError(f"unknown matrix kind {kind!r}")


def _check_theta(theta):
    if not np.all(np.abs(theta) < math.pi / 2):
        raise ValueError("theta must satisfy |theta| < pi/2 (operator unbounded below)")


def build_matrix(kind: str, n_max: int, gamma: float, theta: float | None = None) -> FockMatrix:
    """Validated truncation; its dense form is built only when `.mat` is read."""
    if n_max < 0:
        raise ValueError("truncation must be >= 0")
    if kind not in ("H", "Hstar", "ReTheta"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if kind == "ReTheta":
        _check_theta(theta)
    return FockMatrix(n_max, gamma, kind, theta)


def _block_dense(kind: str, n_max: int, gamma: float, d: int, theta: float | None = None):
    diag, sub, sup = _block_tridiag(kind, n_max, gamma, d, theta)
    mat = np.diag(diag.astype(complex if kind == "ReTheta" else float))
    if len(diag) > 1:
        mat += np.diag(sub, -1) + np.diag(sup, 1)
    return mat


def eigenvalues(fm: FockMatrix, vectors: bool = False):
    """Spectrum of the truncation, solved block by block.

    Returns sorted eigenvalues (by real part, then imaginary); with
    vectors=True also a matrix of unit right eigenvectors embedded in the
    full lexicographic basis, satisfying ||A v - lambda v|| <= 1e-10 ||A||.
    """
    width = fm.n_max + 1
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    vals: list[complex] = []
    vecs: list[np.ndarray] = []
    for d in range(-fm.n_max, fm.n_max + 1):
        if abs(d) not in cache:
            block = _block_dense(fm.kind, fm.n_max, fm.gamma, abs(d), fm.theta)
            try:
                w, v = np.linalg.eig(block)
            except np.linalg.LinAlgError as exc:
                raise SolverConvergenceError(
                    f"eigensolve failed on block d={d}", block=d
                ) from exc
            cache[abs(d)] = (w, v)
        w, v = cache[abs(d)]
        vals.extend(w)
        if vectors:
            members = [m * width + n for m, n in fm.block_members(d)]
            for col in range(v.shape[1]):
                full = np.zeros(fm.dim, dtype=complex)
                full[members] = v[:, col]
                vecs.append(full)
    vals = np.asarray(vals)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if not vectors:
        return vals
    return vals, np.asarray(vecs)[order].T


def _newton_root(diag, pair_products, seed: complex, tol, d: int):
    """Root of det(B_d - lambda) reached by Newton's method from `seed`, in
    the current mpmath precision.

    det and its derivative come from the three-term recurrence
    p_{k+1} = (a_k - lambda) p_k - (sub * sup)_{k-1} p_{k-1}, which needs
    only the diagonal a and the products sub * sup of the coupled pairs."""
    from mpmath import mp

    lam = mp.mpc(seed)
    for _ in range(_NEWTON_MAX_STEPS):
        p_prev, p, dp_prev, dp = 1, diag[0] - lam, 0, -1
        for a, q in zip(diag[1:], pair_products):
            shifted = a - lam
            p_prev, p, dp_prev, dp = p, shifted * p - q * p_prev, dp, shifted * dp - p - q * dp_prev
        step = p / dp
        lam -= step
        if abs(step) < tol:
            return lam
    raise SolverConvergenceError(f"Newton iteration did not converge on block d={d}", block=d)


def lowest_eigenvalues_precise(n_max: int, gamma: float, count: int, dps: int = 40):
    """High-precision lowest eigenvalues for the truncation-convergence study.

    Float64 eigensolves bottom out near 1e-13; the truncation error of the
    low modes falls far below that already at N ~ 20, so measuring its decay
    needs extended precision.  Returns a list of mpmath mpf real parts,
    rounded to `dps` digits.

    Each block's `count` lowest float64 eigenvalues seed Newton's method on
    its characteristic polynomial, run with _NEWTON_GUARD_DPS digits beyond
    `dps` until a step is below 10^-(dps+5).  A root that does not converge
    within _NEWTON_MAX_STEPS steps, or two seeds that reach the same root,
    raise SolverConvergenceError.

    Blocks are included while they can still contribute: block d has
    Re W >= d + 1, so once the current count-th smallest value is below
    d + 2 the remaining blocks are irrelevant.
    """
    from mpmath import mp

    vals: list = []
    with mp.workdps(dps + _NEWTON_GUARD_DPS):
        tol = mp.mpf(10) ** -(dps + 5)
        coincident = mp.mpf(10) ** -dps
        g2 = mp.mpf(gamma) ** 2
        for d in range(n_max + 1):
            diag, coupling_sq = (a.tolist() for a in _block_data(n_max, d))
            pair_products = [-g2 * s for s in coupling_sq]  # sub * sup = -gamma^2 c^2
            try:
                seeds = np.linalg.eigvals(_block_dense("H", n_max, gamma, d))
            except np.linalg.LinAlgError as exc:
                raise SolverConvergenceError(f"eigensolve failed on block d={d}", block=d) from exc
            seeds = seeds[np.lexsort((seeds.imag, seeds.real))][:count]
            roots = [_newton_root(diag, pair_products, complex(z), tol, d) for z in seeds]
            if any(abs(a - b) < coincident for a, b in combinations(roots, 2)):
                raise SolverConvergenceError(f"Newton roots coincide on block d={d}", block=d)
            reals = sorted(mp.re(z) for z in roots)
            vals.extend(reals)
            if d:
                vals.extend(reals)
            vals.sort()
            if len(vals) >= count and vals[count - 1] < d + 2:
                break
    with mp.workdps(dps):
        return [+v for v in vals[:count]]


# -- numerical range -------------------------------------------------------


def support_energy_closed(gamma: float, theta: float) -> float | None:
    """Unit support energy sqrt(cos^2 - g^2 sin^2); None when the
    supporting line does not exist."""
    val = math.cos(theta) ** 2 - (gamma * math.sin(theta)) ** 2
    return math.sqrt(val) if val > 0 else None


def _pivots(diag: np.ndarray, off_sq: np.ndarray, lam: np.ndarray):
    """Sturm test and Newton step for det(T - lam), one Hermitian
    tridiagonal T per column of `diag` (its diagonal) and `off_sq` (its
    squared |off-diagonal|).

    The LDL^T pivots q_0 = a_0 - lam, q_k = a_k - lam - b_{k-1}^2 / q_{k-1}
    are all positive exactly when lam is left of the lowest eigenvalue, and
    det = prod q_k, so the Newton step -det/det' is -1 / sum q_k'/q_k, with
    q_k'/q_k = (b_{k-1}^2 / q_{k-1} * q_{k-1}'/q_{k-1} - 1) / q_k.
    Returns (left, step)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = diag - lam
        q = shifted[0]
        ratio_deriv = -1.0 / q
        log_deriv = ratio_deriv.copy()
        lowest = q.copy()
        for a, b_sq in zip(shifted[1:], off_sq):
            ratio = b_sq / q
            q = a - ratio
            ratio_deriv = (ratio * ratio_deriv - 1.0) / q
            log_deriv += ratio_deriv
            np.minimum(lowest, q, out=lowest)
        return lowest > 0, -1.0 / log_deriv


def _lowest_eigenvalues(diag: np.ndarray, off_sq: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each column's Hermitian tridiagonal matrix, by
    Newton's method on det(T - lam) from the Gershgorin lower bound.

    Left of the lowest eigenvalue every pivot is positive and Newton rises
    monotonically to it, so a pivot <= 0 means rounding carried a step onto
    or past it.  Each point keeps a bracket: the last lam with all pivots
    positive, and the last without (at first the smallest diagonal entry,
    a Rayleigh quotient).  Newton continues from wherever it landed; a step
    that would leave the bracket, or is not finite, is replaced by its
    midpoint.  A point stops when its step or its bracket is within
    _SUPPORT_RTOL of the block's Gershgorin scale; a bound that already has
    a pivot <= 0 is the eigenvalue (as when the couplings vanish).  Raises
    SolverConvergenceError on a non-finite bound or after
    _SUPPORT_MAX_STEPS steps, rather than return an unconverged value."""
    off = np.sqrt(off_sq)
    radius = np.zeros_like(diag)
    radius[:-1] += off
    radius[1:] += off
    lo = np.min(diag - radius, axis=0)
    hi = np.min(diag, axis=0)
    if not np.all(np.isfinite(lo)):
        raise SolverConvergenceError("support energy: non-finite Gershgorin bound")
    tol = _SUPPORT_RTOL * np.maximum(np.abs(lo), np.max(np.abs(diag) + radius, axis=0))
    out = np.empty_like(lo)
    active = np.arange(lo.size)
    lam = lo
    for _ in range(_SUPPORT_MAX_STEPS):
        left, step = _pivots(diag, off_sq, lam)
        lo, hi = np.where(left, lam, lo), np.where(left, hi, lam)
        newton = lam + step
        mid = 0.5 * (lo + hi)
        out[active] = np.where(np.isfinite(newton), np.clip(newton, lo, hi), mid)
        lam = np.where((lo < newton) & (newton < hi), newton, mid)
        keep = ~(np.abs(step) <= tol) & (hi - lo > tol)
        if not keep.all():
            active, diag, off_sq = active[keep], diag[:, keep], off_sq[:, keep]
            lo, hi, lam, tol = lo[keep], hi[keep], lam[keep], tol[keep]
            if not active.size:
                return out
    raise SolverConvergenceError(f"support energy not converged in {_SUPPORT_MAX_STEPS} steps")


def support_energies(n_max: int, gamma: float, thetas) -> np.ndarray:
    """Smallest eigenvalue of the truncated Re(e^{-i theta} H) at each theta.

    Per block the matrix is Hermitian tridiagonal with diagonal
    (d + 2k + 1) cos theta and |off-diagonal| |gamma sin theta| c_k, and
    its eigenvalues depend on nothing else; every theta is solved at once,
    block by block, by _lowest_eigenvalues.  A theta leaves after block d
    once (d + 2) cos theta exceeds its minimum so far."""
    thetas = np.asarray(thetas, dtype=float)
    _check_theta(thetas)
    cos = np.cos(thetas).ravel()
    with np.errstate(over="ignore"):
        coupling = (gamma * np.sin(thetas).ravel()) ** 2
    best = np.full(cos.size, np.inf)
    active = np.arange(cos.size)
    for d in range(n_max + 1):
        if not active.size:
            break
        diag, coupling_sq = _block_data(n_max, d)
        low = _lowest_eigenvalues(np.outer(diag, cos[active]), np.outer(coupling_sq, coupling[active]))
        best[active] = np.minimum(best[active], low)
        active = active[~((d + 2.0) * cos[active] > best[active])]
    return best.reshape(thetas.shape)


def support_energy_numeric(n_max: int, gamma: float, theta: float) -> float:
    """Smallest eigenvalue of the truncated Re(e^{-i theta} H): the one-theta
    case of support_energies."""
    return float(support_energies(n_max, gamma, [theta])[0])


@dataclass(frozen=True)
class NumericalRangePoint:
    theta: float
    e_numeric: float
    e_closed: float
    x: float
    y: float
    envelope_y: float


def numerical_range_boundary(n_max: int, gamma: float, thetas) -> list[NumericalRangePoint]:
    """Support energies and boundary points over a theta grid.

    Boundary points come from the analytic support-line envelope
    (x, y) = (E cos t - E' sin t, E sin t + E' cos t) with the closed-form
    E and its derivative; samples without a supporting line are skipped.
    """
    thetas = np.asarray(thetas, dtype=float).ravel()
    _check_theta(thetas)
    closed = [support_energy_closed(gamma, theta) for theta in thetas]
    kept = [i for i, value in enumerate(closed) if value is not None]
    numeric = support_energies(n_max, gamma, thetas[kept])
    rows = []
    for i, e_numeric in zip(kept, numeric):
        theta, e_closed = float(thetas[i]), closed[i]
        deriv = -math.sin(theta) * math.cos(theta) * (1.0 + gamma * gamma) / e_closed
        x = e_closed * math.cos(theta) - deriv * math.sin(theta)
        y = e_closed * math.sin(theta) + deriv * math.cos(theta)
        env = math.copysign(abs(gamma) * math.sqrt(max(x * x - 1.0, 0.0)), y)
        rows.append(NumericalRangePoint(theta, float(e_numeric), e_closed, x, y, env))
    return rows


def rayleigh_quotients(n_max: int, gamma: float, count: int, seed: int = 0) -> np.ndarray:
    """<A psi, psi> for `count` random complex unit vectors (fixed seed).

    Vector i is standard_normal(dim) + 1j * standard_normal(dim), drawn in
    turn from one generator; drawing a chunk of vectors at once gives the
    same stream.  A psi is one tridiagonal matvec on the vectors permuted
    to the d-blocks."""
    order, diag, sub, sup = build_matrix("H", n_max, gamma)._tridiagonal()
    rng = np.random.default_rng(seed)
    out = np.empty(count, dtype=complex)
    chunk = max(1, _RAYLEIGH_CHUNK_ENTRIES // (2 * diag.size))
    for lo in range(0, count, chunk):
        draws = rng.standard_normal((min(chunk, count - lo), 2, diag.size))
        v = (draws[:, 0] + 1j * draws[:, 1])[:, order]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        av = diag * v
        av[:, 1:] += sub * v[:, :-1]
        av[:, :-1] += sup * v[:, 1:]
        out[lo : lo + chunk] = np.einsum("ij,ij->i", v.conj(), av)
    return out


def hyperbola_excess(points, gamma: float) -> tuple[float, float]:
    """How far points stray outside {x >= 1, y^2 <= g^2 (x^2 - 1)}:
    (max of 1 - x, max of y^2 - g^2 (x^2 - 1)); both <= 0 means inside."""
    pts = np.asarray(points, dtype=complex)
    x, y = pts.real, pts.imag
    return float(np.max(1.0 - x)), float(np.max(y * y - gamma * gamma * (x * x - 1.0)))


# -- sigma_min machinery ----------------------------------------------------


def _gttrf(diag, sub, sup, zs: np.ndarray):
    """LU factors with partial pivoting of zI - B for every z in `zs` at once,
    following LAPACK ?gttrf; B has diagonal `diag`, subdiagonal `sub` (row
    k+1) and superdiagonal `sup`.

    Returns (inv_d, dl, du, du2, swap), each with one column per point: the
    reciprocals of U's diagonal, U's two superdiagonals, L's multipliers,
    and where rows i and i+1 were interchanged.  Pivots compare
    |Re| + |Im| as ?gttrf does.  A zero pivot gives an infinite inv_d, and
    non-finite entries give NaNs; solves carry either to that point's
    columns only."""
    d = zs[None, :] - diag[:, None]
    dl = np.repeat(-sub[:, None], zs.size, axis=1).astype(complex)
    du = np.repeat(-sup[:, None], zs.size, axis=1).astype(complex)
    du2 = np.zeros((max(d.shape[0] - 2, 0), zs.size), dtype=complex)
    swap = np.zeros(dl.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(dl.shape[0]):
            sw = np.abs(d[i].real) + np.abs(d[i].imag) < np.abs(dl[i].real) + np.abs(dl[i].imag)
            if not sw.any():
                dl[i] /= d[i]
                d[i + 1] -= dl[i] * du[i]
                continue
            swap[i] = sw
            piv = np.where(sw, dl[i], d[i])
            fact = np.where(sw, d[i], dl[i]) / piv
            upper = np.where(sw, d[i + 1], du[i])
            d[i + 1] = np.where(sw, du[i], d[i + 1]) - fact * upper
            d[i], dl[i], du[i] = piv, fact, upper
            if i + 1 < du.shape[0]:
                du2[i] = np.where(sw, du[i + 1], 0)
                du[i + 1] *= np.where(sw, -fact, 1)
        return 1.0 / d, dl, du, du2, swap


def _gttrs(factors, b: np.ndarray, transpose: bool) -> None:
    """Overwrite b with (zI - B)^-1 b, or with (zI - B)^-T b, column by
    column, from _gttrf's factors (LAPACK ?gttrs for N and T)."""
    inv_d, dl, du, du2, swap = factors
    n = inv_d.shape[0]
    pivoted = swap.any(axis=1).tolist()
    tmp = np.empty_like(b[0])

    def subtract(i, coef, j):  # b[i] -= coef * b[j], without a temporary
        np.multiply(coef, b[j], out=tmp)
        b[i] -= tmp

    if not transpose:
        for i in range(n - 1):
            if pivoted[i]:
                lo = np.where(swap[i], b[i + 1], b[i])
                b[i + 1] = np.where(swap[i], b[i], b[i + 1]) - dl[i] * lo
                b[i] = lo
            else:
                subtract(i + 1, dl[i], i)
        for i in range(n - 1, -1, -1):
            if i + 1 < n:
                subtract(i, du[i], i + 1)
            if i + 2 < n and pivoted[i]:
                subtract(i, du2[i], i + 2)
            b[i] *= inv_d[i]
        return
    for i in range(n):
        if i >= 1:
            subtract(i, du[i - 1], i - 1)
        if i >= 2 and pivoted[i - 2]:
            subtract(i, du2[i - 2], i - 2)
        b[i] *= inv_d[i]
    for i in range(n - 2, -1, -1):
        if pivoted[i]:
            rest = b[i] - dl[i] * b[i + 1]
            b[i] = np.where(swap[i], b[i + 1], rest)
            b[i + 1] = np.where(swap[i], rest, b[i + 1])
        else:
            subtract(i, dl[i], i + 1)


def _sigma_min_svd(block: np.ndarray, zs: np.ndarray, d: int) -> np.ndarray:
    """sigma_min(zI - B_d) per point by batched dense SVD: the reference
    path, taken for small batches and for points inverse iteration leaves."""
    out = np.empty(zs.size)
    eye = np.eye(block.shape[0])
    chunk = max(1, _SVD_STACK_BYTES // (16 * block.size))
    for lo in range(0, zs.size, chunk):
        shifted = zs[lo : lo + chunk, None, None] * eye - block
        try:
            out[lo : lo + chunk] = np.linalg.svd(shifted, compute_uv=False)[:, -1]
        except np.linalg.LinAlgError as exc:
            raise SolverConvergenceError(f"SVD failed on block d={d}", block=d) from exc
    return out


def _sigma_min_invit(diag, sub, sup, zs: np.ndarray) -> np.ndarray:
    """sigma_min(zI - B) at each z, as 1/||(zI - B)^-1|| by inverse iteration
    v <- (zI - B)^-1 (zI - B)^-H v on batched tridiagonal LU factors
    (Trefethen, "Computation of pseudospectra", Acta Numerica 8, 1999; B is
    already tridiagonal, so no Schur step is needed).  NaN marks the points
    left to the SVD.

    In exact arithmetic the sigma estimates fall monotonically.  A point has
    converged when its last step is within _INVIT_RTOL of sigma and so is
    the rest of the fall that the rate of its last two steps predicts;
    converged points leave the batch.  Left to the SVD are points with a
    non-finite or zero estimate (as a zero or non-finite pivot gives),
    points that would need more than _INVIT_STEPS_PER_ROW steps per row (as
    their rate predicts, or as they reach that cap), and the whole batch
    once it holds fewer than _INVIT_MIN_WORK / size points."""
    size = diag.size
    out = np.full(zs.size, np.nan)
    factors = _gttrf(diag, sub, sup, zs)
    active = np.arange(zs.size)
    v = np.full((size, zs.size), 1 / math.sqrt(size), dtype=complex)
    sigma = last_step = np.full(active.size, np.inf)
    max_steps = math.ceil(_INVIT_STEPS_PER_ROW * size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for steps in range(1, max_steps + 1):
            if active.size * size < _INVIT_MIN_WORK:
                break
            np.conjugate(v, out=v)
            _gttrs(factors, v, transpose=True)
            np.conjugate(v, out=v)  # v = (zI - B)^-H v
            v /= np.linalg.norm(v, axis=0)
            _gttrs(factors, v, transpose=False)
            growth = np.linalg.norm(v, axis=0)
            v /= growth
            prev, sigma = sigma, 1.0 / growth
            step = prev - sigma
            rate = step / last_step
            geometric = (rate > 0) & (rate < 1)
            # the fall still to come if the steps keep shrinking at `rate`
            tail = np.where(geometric, step * np.maximum(1.0, rate / (1.0 - rate)), step)
            tol = _INVIT_RTOL * sigma
            failed = ~(np.isfinite(sigma) & (sigma > 0))
            done = (np.abs(tail) <= tol) & ~failed
            needed = np.where(geometric & ~done, np.log(tol / tail) / np.log(rate), 0.0)
            out[active[done]] = sigma[done]
            keep = ~(done | failed | (steps + needed > max_steps))
            if not keep.all():
                active, v, sigma, step = active[keep], v[:, keep], sigma[keep], step[keep]
                factors = tuple(part[:, keep] for part in factors)
            last_step = step
    return out


def _sigma_min_block(n_max: int, gamma: float, d: int, zs: np.ndarray) -> np.ndarray:
    """sigma_min(zI - B_d) at each z: by inverse iteration where it pays,
    by batched SVD for small batches and for the points it leaves."""
    diag, sub, sup = _block_tridiag("H", n_max, gamma, d)
    out = np.full(zs.size, np.nan)
    if zs.size * diag.size >= _INVIT_MIN_WORK:
        for part in np.array_split(np.arange(zs.size), -(-zs.size // _INVIT_CHUNK)):
            out[part] = _sigma_min_invit(diag, sub, sup, zs[part])
    redo = np.flatnonzero(np.isnan(out))
    if redo.size:
        block = _block_dense("H", n_max, gamma, d).astype(complex)
        out[redo] = _sigma_min_svd(block, zs[redo], d)
    return out


def _sigma_min_blockwise(n_max: int, gamma: float, zs: np.ndarray) -> np.ndarray:
    """sigma_min(zI - A_N) per point, min over tridiagonal blocks.

    Blocks are visited in ascending d; each is applied only at points where
    the exact lower bounds cannot rule it out."""
    zs = np.asarray(zs, dtype=complex).ravel()
    smin = np.full(zs.size, np.inf)
    for d in range(0, n_max + 1):
        if np.all(np.maximum(d + 1.0 - zs.real, 0.0) >= smin):
            break  # every remaining block is bounded away from the minimum
        diag, sub, sup = _block_tridiag("H", n_max, gamma, d)
        size = len(diag)
        offs = np.abs(sup)
        radius = np.zeros(size)
        if size > 1:
            radius[:-1] += offs
            radius[1:] += offs
        johnson = np.min(
            np.abs(zs[:, None] - diag[None, :]) - radius[None, :], axis=1
        )
        bound = np.maximum(np.maximum(d + 1.0 - zs.real, johnson), 0.0)
        todo = np.flatnonzero(~(bound >= smin))  # a NaN bound rules nothing out
        if todo.size == 0:
            continue
        smin[todo] = np.minimum(smin[todo], _sigma_min_block(n_max, gamma, d, zs[todo]))
    return smin


def sigma_min_points(n_max: int, gamma: float, zs) -> np.ndarray:
    """sigma_min(zI - A_N) at arbitrary complex points.

    The matrix is real, so only Re z and |Im z| matter; points are deduped
    accordingly before the block sweep.  Raises SolverConvergenceError
    rather than return a NaN or infinite value."""
    zs = np.asarray(zs, dtype=complex)
    folded = zs.real.ravel() + 1j * np.abs(zs.imag.ravel())
    uniq, inverse = np.unique(folded, return_inverse=True)
    smin = _sigma_min_blockwise(n_max, gamma, uniq)
    bad = int(np.count_nonzero(~np.isfinite(smin)))
    if bad:
        raise SolverConvergenceError(f"sigma_min is not finite at {bad} of {smin.size} points")
    return smin[inverse].reshape(zs.shape)


@dataclass(frozen=True)
class SpectralGrid:
    """Rectangular complex grid with sigma_min(zI - A_N) per point."""

    re: np.ndarray
    im: np.ndarray
    sigma_min: np.ndarray  # shape (len(im), len(re))
    n_max: int
    gamma: float

    def points(self) -> np.ndarray:
        return self.re[None, :] + 1j * self.im[:, None]


def pseudospectrum(
    n_max: int,
    gamma: float,
    re_range=(-1.0, 8.0),
    im_range=(-4.0, 4.0),
    nx: int = 161,
    ny: int | None = None,
) -> SpectralGrid:
    """sigma_min grid for epsilon-pseudospectrum level sets."""
    ny = nx if ny is None else ny
    if not (1 <= nx <= 512 and 1 <= ny <= 512):
        raise ValueError("grid resolution limited to 512 per axis")
    re = np.linspace(float(re_range[0]), float(re_range[1]), nx)
    im = np.linspace(float(im_range[0]), float(im_range[1]), ny)
    if im.size > 1 and math.isclose(im[0], -im[-1], rel_tol=0, abs_tol=1e-15):
        im = 0.5 * (im - im[::-1])  # make the conjugate symmetry exact
    zs = re[None, :] + 1j * im[:, None]
    sig = sigma_min_points(n_max, gamma, zs)
    return SpectralGrid(re, im, sig, n_max, gamma)


@dataclass(frozen=True)
class AccretivityReport:
    rows: list[tuple[complex, float, float, bool]]
    rayleigh_min_x: float
    rayleigh_max_hyper_excess: float
    rayleigh_ok: bool

    @property
    def resolvent_ok(self) -> bool:
        return all(ok for *_, ok in self.rows)

    @property
    def passed(self) -> bool:
        return self.resolvent_ok and self.rayleigh_ok


def accretivity_check(
    n_max: int,
    gamma: float,
    points,
    n_vectors: int = 1000,
    seed: int = 0,
    x_tol: float = 1e-10,
    hyper_tol: float = 1e-8,
) -> AccretivityReport:
    """Resolvent bound sigma_min(zI - A) >= |Re z| at left-halfplane samples,
    plus containment of random Rayleigh quotients in the hyperbolic region."""
    pts = np.asarray(points, dtype=complex).ravel()
    if np.any(pts.real >= 0):
        raise ValueError("accretivity samples must have Re z < 0")
    sig = sigma_min_points(n_max, gamma, pts)
    rows = [
        (complex(z), float(s), abs(z.real), bool(s >= abs(z.real)))
        for z, s in zip(pts, sig)
    ]
    quotients = rayleigh_quotients(n_max, gamma, n_vectors, seed)
    x_excess, hyper_excess = hyperbola_excess(quotients, gamma)
    ok = x_excess <= x_tol and hyper_excess <= hyper_tol
    return AccretivityReport(rows, 1.0 - x_excess, hyper_excess, ok)


def spectrum_rows(n_max: int, gamma: float) -> list[tuple[int, complex, float, float]]:
    """Sorted eigenvalues paired index-wise with the exact levels
    (1+m+n) sqrt(1+g^2); returns (index, eigenvalue, closed_form, abs_err)."""
    fm = build_matrix("H", n_max, gamma)
    vals = eigenvalues(fm)
    omega = math.hypot(1.0, gamma)
    exact = np.sort(
        np.array([(1 + m + n) * omega for m in range(n_max + 1) for n in range(n_max + 1)])
    )
    return [
        (i, complex(v), float(e), float(abs(v - e)))
        for i, (v, e) in enumerate(zip(vals, exact))
    ]


def z_from_string(text: str) -> complex:
    """Parse a complex literal, accepting i or j for the imaginary unit;
    the i of inf/infinity is not the imaginary unit."""
    cleaned = re.sub(r"i(?![a-z])", "j", text.strip())
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def eigenvalue_residuals(fm: FockMatrix) -> np.ndarray:
    """||A v - lambda v|| per eigenpair (unit vectors); backward-stability
    diagnostic for the eigenvalues() contract."""
    vals, vecs = eigenvalues(fm, vectors=True)
    res = fm.mat @ vecs - vecs * vals[None, :]
    return np.linalg.norm(res, axis=0)
