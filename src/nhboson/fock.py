"""Truncated Fock-space matrices and spectral diagnostics.

The two-boson Hamiltonian conserves the occupation difference d = m - n, so
its matrix in the number basis splits into tridiagonal blocks indexed by
d in [-N, N] after a permutation.  Everything expensive here (eigenvalues,
support energies, sigma_min grids) runs block-by-block; blocks with equal
|d| are identical matrices, so only d >= 0 is ever solved.  Dense and CSR
forms are scattered from the blocks only when a caller asks for them.

sigma_min evaluation uses exact skip bounds so large-d blocks are only
touched when they can actually lower the minimum:

* Re W(B_d) >= d + 1 (the block's diagonal dominates its Hermitian part),
  hence sigma_min(zI - B_d) >= max(0, d + 1 - Re z);
* Johnson's Gershgorin-type bound
  sigma_min(M) >= min_k(|M_kk| - (row_k + col_k)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal

_SVD_CHUNK = 2048
#: decimal digits the Newton iteration carries beyond the requested dps
_NEWTON_GUARD_DPS = 20
#: Newton steps allowed per root before the solve counts as failed
_NEWTON_MAX_STEPS = 60


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

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, col, value) of every stored entry, scattered from the blocks."""
        rows, cols, vals = [], [], []
        for d in range(-self.n_max, self.n_max + 1):
            idx = np.array([self.index(m, n) for m, n in self.block_members(d)])
            diag, sub, sup = _block_tridiag(self.kind, self.n_max, self.gamma, d, self.theta)
            rows += [idx, idx[1:], idx[:-1]]
            cols += [idx, idx[:-1], idx[1:]]
            vals += [diag, sub, sup]
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    @cached_property
    def mat(self) -> np.ndarray:
        rows, cols, vals = self._entries()
        out = np.zeros((self.dim, self.dim), dtype=vals.dtype)
        out[rows, cols] = vals
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


def _check_theta(theta: float):
    if not abs(theta) < math.pi / 2:
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


def build_sparse(kind: str, n_max: int, gamma: float) -> sparse.csr_matrix:
    """CSR truncation of H or H* (for matvec-heavy paths)."""
    if kind not in ("H", "Hstar"):
        raise ValueError("sparse path supports H and Hstar")
    fm = build_matrix(kind, n_max, gamma)
    rows, cols, vals = fm._entries()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(fm.dim, fm.dim))


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


def support_energy_numeric(n_max: int, gamma: float, theta: float) -> float:
    """Smallest eigenvalue of the truncated Re(e^{-i theta} H).

    Per block the matrix is Hermitian tridiagonal; eigenvalues depend only
    on |off-diagonal|, so a real bisection solve applies."""
    _check_theta(theta)
    best = math.inf
    for d in range(0, n_max + 1):
        diag, sub, _ = _block_tridiag("ReTheta", n_max, gamma, d, theta)
        if len(diag) == 1:
            low = diag[0]
        else:
            low = eigvalsh_tridiagonal(diag, np.abs(sub), select="i", select_range=(0, 0))[0]
        best = min(best, float(low))
        if (d + 2.0) * math.cos(theta) > best:
            break
    return best


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
    rows = []
    for theta in np.asarray(thetas, dtype=float):
        _check_theta(theta)
        closed = support_energy_closed(gamma, theta)
        if closed is None:
            continue
        numeric = support_energy_numeric(n_max, gamma, theta)
        deriv = -math.sin(theta) * math.cos(theta) * (1.0 + gamma * gamma) / closed
        x = closed * math.cos(theta) - deriv * math.sin(theta)
        y = closed * math.sin(theta) + deriv * math.cos(theta)
        env = math.copysign(abs(gamma) * math.sqrt(max(x * x - 1.0, 0.0)), y)
        rows.append(NumericalRangePoint(float(theta), numeric, closed, x, y, env))
    return rows


def rayleigh_quotients(n_max: int, gamma: float, count: int, seed: int = 0) -> np.ndarray:
    """<A psi, psi> for `count` random complex unit vectors (fixed seed)."""
    mat = build_sparse("H", n_max, gamma)
    rng = np.random.default_rng(seed)
    dim = mat.shape[0]
    out = np.empty(count, dtype=complex)
    for i in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        out[i] = np.vdot(v, mat @ v)
    return out


def hyperbola_excess(points, gamma: float) -> tuple[float, float]:
    """How far points stray outside {x >= 1, y^2 <= g^2 (x^2 - 1)}:
    (max of 1 - x, max of y^2 - g^2 (x^2 - 1)); both <= 0 means inside."""
    pts = np.asarray(points, dtype=complex)
    x, y = pts.real, pts.imag
    return float(np.max(1.0 - x)), float(np.max(y * y - gamma * gamma * (x * x - 1.0)))


# -- sigma_min machinery ----------------------------------------------------


def _sigma_min_blockwise(n_max: int, gamma: float, zs: np.ndarray) -> np.ndarray:
    """Exact sigma_min(zI - A_N) per point, min over tridiagonal blocks.

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
        block = _block_dense("H", n_max, gamma, d).astype(complex)
        eye = np.eye(size)
        for lo in range(0, todo.size, _SVD_CHUNK):
            idx = todo[lo : lo + _SVD_CHUNK]
            shifted = zs[idx, None, None] * eye - block
            try:
                sv = np.linalg.svd(shifted, compute_uv=False)[:, -1]
            except np.linalg.LinAlgError as exc:
                raise SolverConvergenceError(f"SVD failed on block d={d}", block=d) from exc
            smin[idx] = np.minimum(smin[idx], sv)
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
    """Parse a complex literal, accepting i or j for the imaginary unit."""
    cleaned = text.strip().replace("i", "j").replace("J", "j")
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
