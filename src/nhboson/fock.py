"""Truncated Fock-space matrices and spectral diagnostics.

The two-boson Hamiltonian conserves the occupation difference d = m - n, so
its matrix in the number basis splits into tridiagonal blocks indexed by
d in [-N, N] after a permutation.  Every entry point is a function of
(N, gamma) over one block form (diag, off): the diagonal and the
superdiagonal, the subdiagonal being -off.  H is the only matrix built
here; H* is its transpose, and support_energies forms block 0 of
Re(e^{-i theta} H), the one it needs, from _block_data.  Everything
expensive (eigenvalues, sigma_min grids) runs block-by-block;
blocks with equal |d| are equal, so only d >= 0 is solved.  The numrange
and spectrum tables come out as columns: numerical_range_boundary and
spectrum_levels return arrays over the whole theta grid or level list,
with no Python loop over thetas or levels.

sigma_min is a sweep over the blocks in ascending d (_sigma_min_blockwise).
Weyl's bound for singular values puts sigma_min(zI - B_d) within rho_d,
the block's largest Gershgorin radius, of m_d = min_k |z - a_k| over its
diagonal; where rho_d <= 4e-15 m_d the sweep takes m_d by a sorted lookup.
That is exact where the couplings vanish (every block at gamma = 0, where
blocks 0 and 1 hold every level, and block d = N), and it settles the far
field, where no exact test can tell the blocks apart.  Two exact tests
drop the other pairs that cannot lower the minimum:

* Re W(B_d) >= d + 1 (the block's diagonal dominates its Hermitian part),
  hence sigma_min(zI - B_d) >= max(0, d + 1 - Re z);
* an inertia certificate, once a block has set a running minimum s: one
  banded LDL^H pass over the pentadiagonal M^H M - tI, with t = s^2 plus a
  rounding margin of 256 eps times a bound on max_i (M^H M)_ii; all pivots
  positive proves sigma_min(M) > s by Sylvester's law (_sigma_min_above).

The rest are solved in batches by inverse Lanczos on a batched
tridiagonal LU of S(zI - B), S = diag(1, -1, 1, ...), at O(size) per point
and step rather than the O(size^3) of a dense SVD (_sigma_min_invit).  It
is the only sigma_min solver: a point it does not settle takes the LU's
pivot bound where it is singular to working precision, and raises
SolverConvergenceError anywhere else, so no unconverged value is returned.
Batches are sized in bytes.  Results agree with dense SVD to 1e-12.
"""

import math
import re
from itertools import combinations
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  (loaded here, not inside the first draw)

#: bytes one sigma_min batch may hold: the LU factors and Lanczos vectors
#: of a batch or a chunk of inertia certificates; support_energies' theta
#: batches use the same budget
_SIGMA_MIN_BATCH_BYTES = 8 * 2**20
#: _sigma_min_above's margin over floor^2, relative to max_i A_ii: four
#: times the 64 eps its rounding argument needs, as that count is not tight
_INERTIA_MARGIN = 256 * np.finfo(float).eps
#: relative change of successive Ritz values 1/sigma^2 at which a point has
#: converged (about 2e-15 on sigma)
_INVIT_RTOL = 4e-15
#: decimal digits the Newton iteration carries beyond the requested dps
_NEWTON_GUARD_DPS = 20
#: Newton steps allowed per root before the solve counts as failed
_NEWTON_MAX_STEPS = 60
#: relative margin on float64 eigenvalues in lowest_eigenvalues_precise's
#: block and seed choice, far above their error
_PRECISE_SEED_MARGIN = 1e-8
#: a lowest eigenvalue (support energy or Ritz value) stops when a Newton
#: step or bracket is this small, relative to the matrix's Gershgorin scale
#: (LAPACK ?stebz's default)
_SUPPORT_RTOL = 4 * np.finfo(float).eps
#: Newton or bisection steps allowed per lowest eigenvalue
_SUPPORT_MAX_STEPS = 100
#: normals drawn per chunk of Rayleigh-quotient vectors, which bounds memory
_RAYLEIGH_CHUNK_ENTRIES = 2**16
#: largest 1 - Re q and y^2 - g^2 (x^2 - 1) a Rayleigh quotient q may show
#: and still count as inside the hyperbolic region, for rounding
_ACCRETIVE_X_TOL = 1e-10
_ACCRETIVE_HYPER_TOL = 1e-8


class SolverConvergenceError(RuntimeError):
    """An eigen or sigma_min solve failed to converge; carries the block index."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


def _block_data(n_max: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer diagonal d + 2k + 1 and squared couplings (d + k + 1)(k + 1)
    of block d: the one definition of the Fock matrix.  Coupling k joins
    rows k and k + 1; blocks d and -d are equal."""
    d = abs(d)
    k = np.arange(n_max + 1 - d)
    return d + 2 * k + 1, (d + k[1:]) * k[1:]


def _block_tridiag(n_max: int, gamma: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of block d: off = gamma sqrt(coupling_sq) is its
    superdiagonal, and -off its subdiagonal."""
    diag, coupling_sq = _block_data(n_max, d)
    return diag.astype(float), gamma * np.sqrt(coupling_sq)


def _block_dense(n_max: int, gamma: float, d: int) -> np.ndarray:
    diag, off = _block_tridiag(n_max, gamma, d)
    return np.diag(diag) + np.diag(off, 1) - np.diag(off, -1)


def _gershgorin_radii(off: np.ndarray) -> np.ndarray:
    """Gershgorin radii |off_{k-1}| + |off_k| of the rows of a tridiagonal
    matrix with off-diagonal moduli `off`, or of one per column of `off`."""
    radius = np.zeros((off.shape[0] + 1, *off.shape[1:]))
    radius[:-1] += off
    radius[1:] += off
    return radius


def _check_truncation(n_max: int) -> None:
    if n_max < 0:
        raise ValueError("truncation must be >= 0")


def _check_theta(theta):
    if not np.all(np.abs(theta) < math.pi / 2):
        raise ValueError("theta must satisfy |theta| < pi/2 (operator unbounded below)")


def _tridiagonal(n_max: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, diag, off): H permuted to its d-blocks in ascending d, one
    tridiagonal (diag, off) with off 0 across block boundaries; order[i] is
    the lexicographic index m (N + 1) + n of row i."""
    _check_truncation(n_max)
    order, diag, off = [], [], []
    for d in range(-n_max, n_max + 1):
        k = np.arange(n_max + 1 - abs(d))
        order.append((k + max(d, 0)) * (n_max + 1) + k + max(-d, 0))  # (m, n) with m - n = d
        block_diag, block_off = _block_tridiag(n_max, gamma, d)
        diag.append(block_diag)
        off += [block_off, [0.0]]
    return np.concatenate(order), np.concatenate(diag), np.concatenate(off)[:-1]


def _block_eigenvalues(n_max: int, gamma: float, d: int) -> np.ndarray:
    """Eigenvalues of block d, sorted by real part, then imaginary."""
    try:
        w = np.linalg.eigvals(_block_dense(n_max, gamma, d))
    except np.linalg.LinAlgError as exc:
        raise SolverConvergenceError(f"eigensolve failed on block d={d}", block=d) from exc
    return w[np.lexsort((w.imag, w.real))]


def eigenvalues(n_max: int, gamma: float) -> np.ndarray:
    """Spectrum of the truncation, sorted by real part, then imaginary; each
    block d > 0 is solved once and its values count for -d too."""
    _check_truncation(n_max)
    vals = []
    for d in range(n_max + 1):
        vals += [_block_eigenvalues(n_max, gamma, d)] * (2 if d else 1)
    vals = np.concatenate(vals)
    return vals[np.lexsort((vals.imag, vals.real))]


def _newton_root(diag, pair_products, seed: complex, tol, d: int):
    """Root of det(B_d - lambda) reached by Newton's method from `seed`, in
    the current mpmath precision.

    det and its derivative come from the three-term recurrence
    p_{k+1} = (a_k - lambda) p_k - q_{k-1} p_{k-1}, which needs only the
    diagonal a and the products q_k = -off_k^2 of the entries coupling rows
    k and k + 1.  Both are real, so from a real seed every iterate is real,
    and it is iterated in mpf rather than mpc."""
    from mpmath import mp

    lam = mp.mpf(seed.real) if seed.imag == 0 else mp.mpc(seed)
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


def _raised(value: float) -> float:
    """A float64 eigenvalue's real part moved up by _PRECISE_SEED_MARGIN,
    relative: an upper bound on the root Newton refines it to."""
    return value + _PRECISE_SEED_MARGIN * abs(value)


def lowest_eigenvalues_precise(n_max: int, gamma: float, count: int, dps: int = 40):
    """High-precision lowest eigenvalues for the truncation-convergence study.

    Float64 eigensolves bottom out near 1e-13; the truncation error of the
    low modes falls far below that already at N ~ 20, so measuring its decay
    needs extended precision.  Returns a list of mpmath mpf real parts,
    rounded to `dps` digits.

    Blocks are included while they can still contribute: block d has
    Re W >= d + 1, so once the count-th smallest value is below d + 2 the
    remaining blocks are irrelevant.  That rule is decided on each block's
    `count` lowest float64 eigenvalues (a value of block d > 0 counts twice,
    for -d), each raised by _PRECISE_SEED_MARGIN relative, so it admits
    every block the refined values would.

    Only the seeds whose real part is at most the raised count-th lowest
    value can reach the result, and only they are refined: by Newton's
    method on the block's characteristic polynomial, run with
    _NEWTON_GUARD_DPS digits beyond `dps` until a step is below
    10^-(dps+5).  The margin, far above the float64 error, keeps near-ties
    across blocks (level 3 of blocks 0 and 2) among the refined seeds, so
    the count lowest refined values are those of refining every seed.  A
    root that does not converge within _NEWTON_MAX_STEPS steps, or two
    seeds of one block that reach the same root, raise
    SolverConvergenceError.
    """
    from mpmath import mp

    _check_truncation(n_max)
    blocks, reals = [], []
    for d in range(n_max + 1):
        blocks.append(_block_eigenvalues(n_max, gamma, d)[:count])
        reals = sorted(reals + (2 if d else 1) * blocks[-1].real.tolist())
        if len(reals) >= count and _raised(reals[count - 1]) < d + 2:
            break
    cut = _raised(reals[count - 1]) if len(reals) >= count else math.inf
    vals: list = []
    with mp.workdps(dps + _NEWTON_GUARD_DPS):
        tol = mp.mpf(10) ** -(dps + 5)
        coincident = mp.mpf(10) ** -dps
        g2 = mp.mpf(gamma) ** 2
        for d, seeds in enumerate(blocks):
            seeds = seeds[seeds.real <= cut]  # a prefix: seeds are sorted by real part
            if not seeds.size:
                continue
            diag, coupling_sq = (a.tolist() for a in _block_data(n_max, d))
            pair_products = [-g2 * s for s in coupling_sq]  # -off^2 = -gamma^2 c^2
            roots = [_newton_root(diag, pair_products, z, tol, d) for z in seeds.tolist()]
            if any(abs(a - b) < coincident for a, b in combinations(roots, 2)):
                raise SolverConvergenceError(f"Newton roots coincide on block d={d}", block=d)
            vals += (2 if d else 1) * [mp.re(z) for z in roots]
        vals.sort()
    with mp.workdps(dps):
        return [+v for v in vals[:count]]


# -- numerical range -------------------------------------------------------


def _support_gap(gamma: float, theta: np.ndarray) -> np.ndarray:
    """cos^2 theta - (gamma sin theta)^2 per theta, the squared unit support
    energy.  It is >= 0 exactly where cos theta >= |gamma sin theta|, the
    region where support_energies solves block 0 alone.  The closed form and
    support_energies both decide with this one expression, so every theta
    that has a supporting line is a theta support_energies accepts.
    |gamma sin theta| is capped at 2, past 1 >= cos theta, so that its
    square cannot overflow."""
    return np.cos(theta) ** 2 - np.minimum(np.abs(gamma * np.sin(theta)), 2.0) ** 2


def _pivots(diag: np.ndarray, off_sq: np.ndarray, lam: np.ndarray):
    """Sturm test, Newton step and end weight for det(T - lam), one
    Hermitian tridiagonal T per column of `diag` (its diagonal) and
    `off_sq` (its squared |off-diagonal|).

    The LDL^T pivots q_0 = a_0 - lam, q_k = a_k - lam - b_{k-1}^2 / q_{k-1}
    are all positive exactly when lam is left of the lowest eigenvalue, and
    det = prod q_k, so the Newton step -det/det' is -1 / sum q_k'/q_k, with
    q_k'/q_k = (b_{k-1}^2 / q_{k-1} * q_{k-1}'/q_{k-1} - 1) / q_k.  The
    weight -1 / (q_last sum q_k'/q_k) = -det_{n-1} / det' is, at an
    eigenvalue, the squared last component of its unit eigenvector
    (Parlett, The Symmetric Eigenvalue Problem, ch. 7).  Near the lowest
    eigenvalue only q_last nears 0, and the denominator is formed as
    q_last (the other rows' sum) + q_last', with no division by q_last, so
    the weight is accurate there and exact at q_last = 0.
    Returns (left, step, weight)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = diag - lam
        q = shifted[0]
        ratio_deriv = -1.0 / q
        deriv = -1.0  # q_last': the numerator of q_last'/q_last
        log_deriv = np.full_like(q, -0.0)  # sum q_k'/q_k over all but the last row
        lowest = q.copy()
        for a, b_sq in zip(shifted[1:], off_sq):
            log_deriv += ratio_deriv
            ratio = b_sq / q
            q = a - ratio
            deriv = ratio * ratio_deriv - 1.0
            ratio_deriv = deriv / q
            np.minimum(lowest, q, out=lowest)
        return lowest > 0, -1.0 / (log_deriv + ratio_deriv), -1.0 / (q * log_deriv + deriv)


def _lowest_eigenvalues(diag: np.ndarray, off_sq: np.ndarray, lower=None):
    """Lowest eigenvalue of each column's Hermitian tridiagonal matrix by
    Newton's method on det(T - lam), from the Gershgorin or `lower` bound,
    with the squared last component of its unit eigenvector.

    Left of the lowest eigenvalue every pivot is positive and Newton rises
    monotonically to it, so a pivot <= 0 means rounding carried a step onto
    or past it.  Each point keeps a bracket: the last lam with all pivots
    positive, and the last without (at first the smallest diagonal entry,
    a Rayleigh quotient).  Newton continues from wherever it landed; a step
    that would leave the bracket, or is not finite, is replaced by its
    midpoint.  A point stops when its step or its bracket is within tol,
    _SUPPORT_RTOL of the block's Gershgorin scale (`lower` is moved down by
    tol against rounding); a bound with a pivot <= 0 is the eigenvalue (as
    when the couplings vanish).  The component is _pivots' weight at the
    last lam tried, within tol of the eigenvalue.  A non-finite bound, or
    no convergence in _SUPPORT_MAX_STEPS steps, gives non-finite values;
    callers handle them.  Returns (values, components)."""
    radius = _gershgorin_radii(np.sqrt(off_sq))
    lo = np.min(diag - radius, axis=0)
    hi = np.min(diag, axis=0)
    tol = _SUPPORT_RTOL * np.maximum(np.abs(lo), np.max(np.abs(diag) + radius, axis=0))
    lo = lo if lower is None else np.maximum(lo, lower - tol)
    out, end = np.empty_like(lo), np.empty_like(lo)
    active = np.arange(lo.size)
    lam = lo
    for _ in range(_SUPPORT_MAX_STEPS):
        left, step, weight = _pivots(diag, off_sq, lam)
        lo, hi = np.where(left, lam, lo), np.where(left, hi, lam)
        newton = lam + step
        mid = 0.5 * (lo + hi)
        out[active] = np.where(np.isfinite(newton), np.clip(newton, lo, hi), mid)
        end[active] = weight
        lam = np.where((lo < newton) & (newton < hi), newton, mid)
        keep = ~(np.abs(step) <= tol) & (hi - lo > tol)
        if not keep.all():
            # compress keeps the rows C-contiguous, as _pivots's row loop needs
            active, diag, off_sq = active[keep], diag.compress(keep, axis=1), off_sq.compress(keep, axis=1)
            lo, hi, lam, tol = lo[keep], hi[keep], lam[keep], tol[keep]
            if not active.size:
                return out, end
    out[active] = end[active] = np.nan
    return out, end


def support_energies(n_max: int, gamma: float, thetas) -> np.ndarray:
    """Smallest eigenvalue of the truncated Re(e^{-i theta} H) at each theta
    with cos theta >= |gamma sin theta|, the thetas with a supporting line
    and the only ones numerical_range_boundary asks for; any other theta
    raises ValueError.

    Per block the matrix is Hermitian tridiagonal with diagonal
    (d + 2k + 1) cos theta and |off-diagonal| |gamma sin theta| c_k, and
    its eigenvalues depend on nothing else.  In this region block 0 holds
    the minimum, so it alone is solved, by _lowest_eigenvalues over theta
    batches of at most _SIGMA_MIN_BATCH_BYTES.  Its lower bound is the
    closed form sqrt(gap), gap = _support_gap(gamma, theta), the untruncated
    block's lowest eigenvalue: up to a diagonal phase, that block is
    2 cos theta K_0 + 2 gamma sin theta K_1 in the su(1,1) discrete series
    of Bargmann index 1/2, SU(1,1)-conjugate to 2 sqrt(gap) K_0, whose
    lowest eigenvalue is sqrt(gap).  Truncation, a compression, can only
    raise it, so Newton starts within the truncation error.  Proof that
    block 0 holds the minimum: phase block d+1's off-diagonals to <= 0 and
    take its Perron ground vector u >= 0, |u| = 1.
    Padded with one 0 it is a trial vector for block d, and the two Rayleigh
    quotients differ by cos theta - 2 |gamma sin theta| sum_k delta_k u_k u_k+1
    with delta_k = sqrt(k+1) (sqrt(d+k+2) - sqrt(d+k+1)) <= 1/2.  As
    sum_k u_k u_k+1 <= 1 the difference is >= cos theta - |gamma sin theta|
    >= 0, so block d's lowest eigenvalue is at most block d+1's."""
    _check_truncation(n_max)
    thetas = np.asarray(thetas, dtype=float)
    _check_theta(thetas)
    gap = _support_gap(gamma, thetas).ravel()
    if not np.all(gap >= 0):
        raise ValueError("support energies need cos theta >= |gamma sin theta|")
    diag, coupling_sq = _block_data(n_max, 0)
    cos = np.cos(thetas).ravel()
    coupling = (gamma * np.sin(thetas).ravel()) ** 2
    out = np.empty(cos.size)
    # per theta: the two outer-product columns, _pivots's shifted copy and
    # the compacted copies, each a float per row
    for part in _batches(cos.size, 32 * diag.size):
        out[part], _ = _lowest_eigenvalues(
            np.outer(diag, cos[part]), np.outer(coupling_sq, coupling[part]), np.sqrt(gap[part])
        )
    if not np.all(np.isfinite(out)):
        raise SolverConvergenceError("support energy not converged")
    return out.reshape(thetas.shape)


class NumericalRangeBoundary(NamedTuple):
    """numerical_range_boundary's columns, one entry per theta kept."""

    theta: np.ndarray
    e_numeric: np.ndarray
    e_closed: np.ndarray
    x: np.ndarray
    y: np.ndarray
    envelope_y: np.ndarray


def numerical_range_boundary(n_max: int, gamma: float, thetas) -> NumericalRangeBoundary:
    """Support energies and boundary points over a theta grid.

    Only the thetas with a supporting line, where _support_gap is > 0, are
    kept; the closed-form support energy there is E = sqrt(gap).  Boundary
    points come from the analytic support-line envelope
    (x, y) = (E cos t - E' sin t, E sin t + E' cos t) with
    E' = -sin t cos t (1+g^2) / E.  1+g^2 overflows from |g| ~ 1.34e154, so it
    is formed as 4^k (4^-k + (g/2^k)^2) with 2^k >= |g|; scaling by a power
    of two is exact, so E' keeps every bit wherever 1+g^2 is finite, and on
    the kept t, where |g sin t| <= cos t, it stays finite (about |g| at most).
    """
    thetas = np.asarray(thetas, dtype=float).ravel()
    _check_theta(thetas)
    gap = _support_gap(gamma, thetas)
    theta, e_closed = thetas[gap > 0], np.sqrt(gap[gap > 0])
    e_numeric = support_energies(n_max, gamma, theta)
    k = max(math.frexp(gamma)[1], 0)
    scaled = math.ldexp(1.0, -2 * k) + math.ldexp(gamma, -k) ** 2
    sin, cos = np.sin(theta), np.cos(theta)
    deriv = np.ldexp(-sin * cos * scaled / e_closed, 2 * k)
    x = e_closed * cos - deriv * sin
    y = e_closed * sin + deriv * cos
    envelope_y = np.copysign(abs(gamma) * np.sqrt(np.maximum(x * x - 1.0, 0.0)), y)
    return NumericalRangeBoundary(theta, e_numeric, e_closed, x, y, envelope_y)


def rayleigh_quotients(n_max: int, gamma: float, count: int, seed: int = 0) -> np.ndarray:
    """<A psi, psi> for `count` random complex unit vectors (fixed seed).

    Vector i is standard_normal(dim) + 1j * standard_normal(dim), drawn in
    turn from one generator; drawing a chunk of vectors at once gives the
    same stream.  Each draw v = x + iy is taken as it comes, in the natural
    (m, n) order, where A couples index i only with i + s, s = N + 2, the
    (m + 1, n + 1) neighbour: _tridiagonal's (order, diag, off) scattered
    there give a_i on the diagonal, A[i, i + s] = c_i and A[i + s, i] = -c_i.
    So the quotient is a real quadratic form, with no complex array, no
    gather and no normalized copy:
    Re q = sum_i a_i (x_i^2 + y_i^2) / |v|^2 and
    Im q = 2 sum_i c_i (x_i y_{i+s} - y_i x_{i+s}) / |v|^2."""
    order, diag, off = _tridiagonal(n_max, gamma)
    dim, shift = diag.size, n_max + 2
    # columns: a for sum_i a_i |v_i|^2, ones for |v|^2
    weights = np.ones((dim, 2))
    weights[order, 0] = diag
    coupling = np.zeros(dim)
    coupling[order[:-1]] = off  # 0 at each block's last row, which has no (m + 1, n + 1)
    coupling = coupling[: max(dim - shift, 0)]
    rng = np.random.default_rng(seed)
    out = np.empty(count, dtype=complex)
    chunk = max(1, _RAYLEIGH_CHUNK_ENTRIES // (2 * dim))
    for lo in range(0, count, chunk):
        draws = rng.standard_normal((min(chunk, count - lo), 2, dim))
        x, y = draws[:, 0], draws[:, 1]
        sums = np.einsum("kij,kij->kj", draws, draws) @ weights
        cross = np.einsum("ij,ij->i", x[:, : coupling.size] * coupling, y[:, shift:])
        cross -= np.einsum("ij,ij->i", y[:, : coupling.size] * coupling, x[:, shift:])
        part = out[lo : lo + chunk]
        part.real = sums[:, 0] / sums[:, 1]
        part.imag = 2.0 * cross / sums[:, 1]
    return out


def hyperbola_excess(points, gamma: float) -> tuple[float, float]:
    """How far points stray outside {x >= 1, y^2 <= g^2 (x^2 - 1)}:
    (max of 1 - x, max of y^2 - g^2 (x^2 - 1)); both <= 0 means inside.

    y^2 and g^2 overflow from about 1.34e154, so, as in
    numerical_range_boundary, the excess is formed in units of 4^k with
    2^k >= |g| and scaled back: exact, so the same bits wherever the direct
    form is finite and nothing underflows, and +-inf instead of
    inf - inf = NaN beyond."""
    pts = np.asarray(points, dtype=complex)
    x, y = pts.real, pts.imag
    k = max(math.frexp(gamma)[1], 0)
    y_k, g_k = np.ldexp(y, -k), math.ldexp(gamma, -k)
    with np.errstate(over="ignore"):
        excess = np.ldexp(y_k * y_k - g_k * g_k * (x * x - 1.0), 2 * k)
    return float(np.max(1.0 - x)), float(np.max(excess))


# -- sigma_min machinery ----------------------------------------------------


def _real_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_i conj(a_ij) b_ij per column j of two C-contiguous complex
    arrays, summed over their real views."""
    pair = np.einsum("ij,ij->j", a.view(float), b.view(float))
    return pair[0::2] + pair[1::2]


def _count_below(diag: np.ndarray, off_sq: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Eigenvalues below lam of each column's Hermitian tridiagonal matrix
    (as in _pivots), by Sylvester's law of inertia: the negative LDL^T
    pivots of T - lam.  A zero pivot makes the next one -inf, so the
    count errs upward."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = diag[0] - lam
        count = (q < 0).astype(int)
        for a, b_sq in zip(diag[1:], off_sq):
            q = a - lam - b_sq / q
            count += q < 0
    return count


def _gttrf(diag, off, zs: np.ndarray):
    """LU factors with partial pivoting of S(zI - B) for every z in `zs` at
    once, following LAPACK ?gttrf; B has diagonal `diag`, superdiagonal
    `off` and subdiagonal -off, and the parity S = diag(1, -1, 1, ...)
    makes S(zI - B) complex symmetric, both off-diagonals (-1)^(i+1) off_i.
    S flips only signs, so the pivots are those of zI - B.

    Returns (inv_d, dl, du, du2, swap), each with one column per point: the
    reciprocals of U's diagonal, U's two superdiagonals divided by their
    row's diagonal entry, L's multipliers, and where rows i and i+1 were
    interchanged.  Pivots compare |Re| + |Im| as ?gttrf does.  A zero (or
    subnormal) pivot gives an infinite inv_d, and non-finite entries give
    NaNs, in every later row too; solves carry either to that point's
    columns only."""
    sign = np.where(np.arange(diag.size) % 2, -1.0, 1.0)
    d = sign[:, None] * (zs[None, :] - diag[:, None])
    dl = np.repeat((-sign[:-1] * off)[:, None], zs.size, axis=1).astype(complex)
    du = dl.copy()
    du2 = np.zeros((max(d.shape[0] - 2, 0), zs.size), dtype=complex)
    swap = np.zeros(dl.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        inv_d = np.divide(1.0, d, out=d)
        du *= inv_d[:-1]
        du2 *= inv_d[:-2]
        return inv_d, dl, du, du2, swap


def _gttrs(factors, b: np.ndarray) -> None:
    """Overwrite b with (S(zI - B))^-1 b, column by column, from _gttrf's
    factors (LAPACK ?gttrs; U's diagonal is applied to all rows at once)."""
    inv_d, dl, du, du2, swap = factors
    n = inv_d.shape[0]
    pivoted = swap.any(axis=1).tolist()
    # one view per row, made once: with a batch's few points per row, the
    # loops below cost mostly per-row overhead
    rows = list(b)
    tmp = np.empty_like(b[0])

    def subtract(i, coef, j):  # rows[i] -= coef * rows[j], without a temporary
        np.multiply(coef, rows[j], out=tmp)
        rows[i] -= tmp

    for i in range(n - 1):
        if pivoted[i]:
            lo = np.where(swap[i], rows[i + 1], rows[i])
            rows[i + 1][...] = np.where(swap[i], rows[i], rows[i + 1]) - dl[i] * lo
            rows[i][...] = lo
        else:
            subtract(i + 1, dl[i], i)
    b *= inv_d
    for i in range(n - 2, -1, -1):
        subtract(i, du[i], i + 1)
        if pivoted[i] and i + 2 < n:
            subtract(i, du2[i], i + 2)


def _batches(count: int, point_bytes: int) -> list[np.ndarray]:
    """range(count) in even batches of at most _SIGMA_MIN_BATCH_BYTES; no
    batch at all for a count of 0."""
    if count == 0:
        return []
    return np.array_split(np.arange(count), -(-count * point_bytes // _SIGMA_MIN_BATCH_BYTES))


def _sigma_min_invit(diag, off, zs: np.ndarray) -> np.ndarray:
    """sigma_min(zI - B) at each z by Lanczos on the batched LU: 1/sigma^2
    is lambda_max of C = (zI - B)^-1 (zI - B)^-H (inverse Lanczos:
    Trefethen, "Computation of pseudospectra", Acta Numerica 8, 1999; B is
    already tridiagonal, so no Schur step is needed).  NaN marks the points
    it does not settle.

    C = K^2 for the antilinear K v = (zI - B)^-1 S conj(v): B is real with
    superdiagonal off and subdiagonal -off, so B^T = S B S with the parity
    S = diag(1, -1, 1, ...), the block form of H* = P H P for P: x -> -x,
    and (zI - B)^-H = S conj((zI - B)^-1) S.  _gttrf factors S(zI - B),
    whose inverse is (zI - B)^-1 S, so K is one conjugation and one solve.

    Partial pivoting keeps every multiplier |l| <= 1, so the x with
    Ux = e_k has ||(zI - B)x|| = ||L e_k|| <= sqrt(2) and ||x|| >= 1 / |u_kk|:
    sigma_min <= sqrt(2) min_k |u_kk|.  inv_d is multiplied, per point, by
    the power of two `scale` that puts its largest real or imaginary part
    in [1/2, 1), so sigma_min <= 2 sqrt(2) scale: Lanczos runs on scale^2 C,
    whose lambda_max = (scale / sigma_min)^2 >= 1/8 however large |z| or
    gamma, and sigma = scale / sqrt(lambda).  A power of two changes no
    rounding: where nothing was subnormal, every bit is as for C itself.

    Each point starts from q_k proportional to (m / |z - a_k|)^4: C's
    diagonal is about |z - a_k|^-2, so this is roughly C's diagonal applied
    twice.  Every weight is in [0, 1] with one equal to 1, so none
    overflows, and a point exactly on a diagonal entry starts from that
    unit vector.  It keeps two Lanczos vectors and its recurrence alpha_k,
    beta_k^2, both taken as sums over real views.  lambda_k =
    lambda_max(T_k) and the last component s_k of its unit eigenvector come
    from _lowest_eigenvalues(-T_k), or at k <= 1, where T_k is the bordered
    2 x 2 matrix the step forms anyway, in closed form.  Lost orthogonality
    only adds copies of lambda_max after it has converged (Paige), so no
    basis is stored; it also delays convergence, so a point may take up to
    2 size steps.

    A point stops on either of two rules (Parlett, The Symmetric Eigenvalue
    Problem, SIAM 1998, ch. 13):

    * agreement: successive lambda agree to _INVIT_RTOL, or beta_k^2 is
      below the smallest normal float: with lambda >= 1/8 that is
      breakdown, the Krylov space invariant far below rounding (as where
      all singular values are equal to rounding), and lambda is final;
    * residual: Paige's r_k = beta_k |s_k| is the residual of the Ritz pair
      in C, and Kato-Temple gives lambda_max(C) - lambda_k <= r_k^2 / gap.
      With gap = lambda_k / 2 the rule is r_k^2 <= _INVIT_RTOL lambda_k
      (lambda_k / 2), the same relative accuracy.  That gap is assumed only
      while a Sturm count (_count_below) finds no other Ritz value of T_k
      above lambda_k / 2.  Ritz values only bound C's eigenvalues from
      below, so this is a guard, not a proof; the agreement rule waits for
      the points it turns away (sigma_2 near sigma_min).  T_0 has one Ritz
      value, so at k = 0 the count would pass vacuously; far from the
      diagonal the start's Rayleigh quotient meets the residual bound there
      though C's eigenvalues lie within a relative 2 ||B|| / |z| of each
      other.  At k = 0 the gap is instead proven for C itself, by Weyl's
      bound sigma_2(zI - B) >= m_2 - ||B - diag(a)||_2, with m_2 the second
      smallest |z - a_k| and 2 max |off| for the norm: a point stops there
      only if (m_2 - 2 max |off|)^-2 <= lambda_0 / 2.

    The residual rule saves the step that agreement needs after lambda has
    converged.  The batch stops once no point is left.  A point that leaves
    with a non-finite or zero estimate (a zero pivot, an overflow or a
    failed Ritz solve) takes the bound 2 / max |inv_d| where that is at most
    eps (|z| + max |a| + 2 max |off|) >= eps ||zI - B||_2: it is singular to
    working precision.  Any other, and one unsettled after 2 size steps, is
    NaN."""
    size = diag.size
    out = np.full(zs.size, np.nan)
    factors = _gttrf(diag, off, zs)
    active, lam = np.arange(zs.size), np.zeros(zs.size)
    off_norm = 2.0 * np.abs(off).max(initial=0.0)  # >= ||B - diag(a)||_2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # inv_d (after _gttrf divided du and du2 by it) as (re, im) pairs:
        # a complex product would turn a zero pivot's inf + nan j into NaN
        pairs = factors[0].view(float)
        scale = np.ldexp(1.0, -np.frexp(np.abs(pairs).max(axis=0).reshape(-1, 2).max(axis=1))[1])
        pairs *= np.repeat(scale, 2)
        q = np.abs(zs - diag[:, None])  # |z - a_k|
        q = np.where(q > 0, q.min(axis=0) / q, 1.0) ** 4  # in [0, 1]: nothing overflows
        q = (q / np.linalg.norm(q, axis=0)).astype(complex)
        q_prev, recurrence = np.zeros_like(q), np.zeros((2, 2 * size, q.shape[1]))
        alpha, beta_sq = recurrence
        for k in range(2 * size):
            if not active.size:
                break
            w = np.conjugate(q)  # w = K^2 q = C q
            _gttrs(factors, w)
            np.conjugate(w, out=w)
            _gttrs(factors, w)
            alpha[k] = _real_dots(q, w)
            w -= alpha[k] * q + np.sqrt(beta_sq[k - 1]) * q_prev  # beta_sq[-1] is 0 at k = 0
            beta_sq[k] = _real_dots(w, w)
            # T_k borders T_k-1 with alpha_k and beta_k-1, so lambda_max(T_k) is
            # at most that of [[lambda_k-1, beta_k-1], [beta_k-1, alpha_k]],
            # which is T_k itself at k <= 1
            half = 0.5 * (lam - alpha[k])
            root = np.sqrt(half * half + beta_sq[k - 1])
            prev, lam = lam, lam - half + root
            if k <= 1:
                # T_k's top eigenvector is ~ (beta, lam - prev) ~ (lam - alpha_k, beta),
                # and tip, the larger of lam - prev and lam - alpha_k, has no cancellation
                tip = root + np.abs(half)
                end_sq = np.where(half < 0, tip * tip, beta_sq[k - 1]) / (tip * tip + beta_sq[k - 1])
            else:
                low, end_sq = _lowest_eigenvalues(-alpha[: k + 1], beta_sq[:k], -lam)
                lam = -low  # lambda_max(T_k)
            ok = (lam > 0) & (lam < np.inf)
            # beta_k^2 below the smallest normal float, with lambda >= 1/8, is
            # breakdown: the Krylov space is invariant to far below rounding,
            # so lambda would never change again
            done = ok & ((np.abs(lam - prev) <= _INVIT_RTOL * lam) | (beta_sq[k] < np.finfo(float).tiny))
            # Kato-Temple: lambda_max(C) - lam <= r^2 / gap, r = beta_k |s_k|
            near = np.flatnonzero(ok & ~done & (beta_sq[k] * end_sq <= _INVIT_RTOL * lam * (0.5 * lam)))
            if k and near.size:
                # the gap lam / 2 holds for T_k if no other Ritz value passes lam / 2
                done[near] = _count_below(-alpha[: k + 1, near], beta_sq[:k, near], -0.5 * lam[near]) == 1
            elif near.size:
                # T_0 has one Ritz value: Weyl's bound proves the gap for C itself,
                # lambda_2(C) <= (m_2 - 2 max |off|)^-2 <= lam / 2, in units of scale
                dist = np.abs(zs[active[near]] - diag[:, None])
                m_2 = np.partition(dist, 1, axis=0)[1] if size > 1 else np.inf
                spread = (m_2 - off_norm) / scale[active[near]]
                done[near] = spread * np.sqrt(0.5 * lam[near]) >= 1.0
            out[active[done]] = scale[active[done]] / np.sqrt(lam[done])
            keep = ok & ~done & (beta_sq[k] < np.inf)
            failed = np.flatnonzero(~(keep | done))
            if failed.size:
                at = active[failed]
                # pivots past the first NaN are NaN; those before it are sound
                bound = 2.0 * scale[at] / np.fmax.reduce(np.abs(factors[0][:, failed]), axis=0)
                norm = np.abs(zs[at]) + diag.max() + off_norm
                out[at] = np.where((bound <= np.finfo(float).eps * norm) & (norm < np.inf), bound, np.nan)
            q_prev, q = q, w * (1.0 / np.sqrt(beta_sq[k]))
            if not keep.all():
                # compress keeps the rows C-contiguous, as _gttrs's row loop needs
                active, lam = active[keep], lam[keep]
                q, q_prev = q.compress(keep, axis=1), q_prev.compress(keep, axis=1)
                factors = tuple(part.compress(keep, axis=1) for part in factors)
                # of the recurrence only rows 0..k are written yet, and only they are copied
                kept = np.empty((2, 2 * size, active.size))
                np.compress(keep, recurrence[:, : k + 1], axis=2, out=kept[:, : k + 1])
                recurrence = kept
                alpha, beta_sq = recurrence
    return out


def _sigma_min_block(n_max: int, gamma: float, d: int, zs: np.ndarray) -> np.ndarray:
    """sigma_min(zI - B_d) at each z by Lanczos in batches, or raise."""
    diag, off = _block_tridiag(n_max, gamma, d)
    out = np.empty(zs.size)
    # LU factors, three Lanczos vectors and the recurrence: ~8 complex per
    # row; the start's float temporaries are freed before the recurrence
    # exists, and of the recurrence's 2 size rows only those written are
    # touched
    for part in _batches(zs.size, 128 * diag.size):
        out[part] = _sigma_min_invit(diag, off, zs[part])
    failed = np.count_nonzero(np.isnan(out))
    if failed:
        raise SolverConvergenceError(f"sigma_min unsettled at {failed} of {zs.size} points of block d={d}", block=d)
    return out


def _sigma_min_above(diag, off, zs: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """True where sigma_min(zI - B) > floor is proven, per point, by one
    banded LDL^H pass; B has diagonal `diag`, superdiagonal `off` and
    subdiagonal -off.

    M = zI - B has diagonal m_i = z - a_i, superdiagonal -off and
    subdiagonal off, so A = M^H M is Hermitian pentadiagonal:
    A_ii = |m_i|^2 + off_{i-1}^2 + off_i^2,
    A_{i,i+1} = conj(m_i)(-off_i) + off_i m_{i+1} = off_i (a_i - a_{i+1} + 2i Im z)
    and A_{i,i+2} = -off_i off_{i+1}.  The pivots of A - tI are all positive
    exactly when sigma_min^2 = lambda_min(A) > t (Sylvester's law of
    inertia), with t = floor^2 + _INERTIA_MARGIN m and
    m = max((Re z - min a)^2, (Re z - max a)^2) + (Im z)^2
    + max_i (off_{i-1}^2 + off_i^2) >= max_i A_ii.  The factorization runs
    row by row, each row a vector over the points; neither A nor L is
    stored.

    The margin bounds rounding (u = eps/2; Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., SIAM 2002, chs. 3 and 10).  Say every
    computed pivot is positive.  Then each computed H_ii = A_ii - t is
    positive, so t < A_ii (1 + O(u)) <= m (1 + O(u)); by Cauchy-Schwarz
    |A_ij| <= sqrt(A_ii A_jj) <= m; and an error with at most 5 entries per
    row, each below e, has 2-norm at most 5e.
    (i) Forming H: a diagonal entry sums nonnegative terms, takes away t
    and passes through 7 roundings, an error below gamma_7 (A_ii + t) <=
    14u m; an off-diagonal entry is one product of exact or once-rounded
    factors, below gamma_2 m.  In norm: (14 + 4 * 2) u m = 11 eps m.
    (ii) Factoring: each entry of L^ D^ L^H - H gathers at most 3 terms,
    and every complex product, modulus or reciprocal among them takes at
    most 8 real roundings, so the bandwidth-2 form of Theorem 10.3 holds
    with gamma_16 for its gamma_3: |Delta H| <= gamma_16 |L^| D^ |L^H|.  As
    D^ > 0, Cauchy-Schwarz bounds (|L^| D^ |L^H|)_ij by
    sqrt(H_ii H_jj) / (1 - gamma_16), so ||Delta H|| <= 40 eps m (1 + O(u)).
    (iii) t: floor^2 is rounded once and t twice, each below u t <= u m, and
    the margin's own O(u) is second order.
    L^ D^ L^H is positive definite, so lambda_min(A) >= t - (11 + 40 + 1)
    eps m - O(u^2 m) > floor^2 whenever _INERTIA_MARGIN >= 64 eps (barring
    underflow).  Where t is not finite (|z| or floor past about 1e154),
    D_0 is -inf or NaN and proves nothing; so does any later overflow, as
    a pivot only ever has nonnegative terms taken from a finite H_ii."""
    x, y = zs.real, zs.imag
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        off_sq = off * off
        edge = np.zeros(diag.size)  # off_{i-1}^2 + off_i^2
        edge[:-1] += off_sq
        edge[1:] += off_sq
        rises = off * (diag[:-1] - diag[1:])  # Re A_{i,i+1}
        # (Re z - a)^2 is convex in a: its largest value is at min a or max a
        reach = np.maximum(np.square(x - diag.min()), np.square(x - diag.max()))
        t = floor * floor + _INERTIA_MARGIN * (reach + y * y + edge.max())
        base = y * y - t  # H_ii = (Re z - a_i)^2 + edge_i + base
        twice_y = 2.0 * y
        lowest = np.square(x - diag[0]) + edge[0] + base  # D_0
        inv, inv_prev = 1.0 / lowest, np.zeros_like(lowest)  # 1/D_{i-1}, 1/D_{i-2}
        l_re, l_im = np.zeros_like(lowest), np.zeros_like(lowest)  # L_{i-1,i-2}
        for i in range(1, diag.size):
            # v2 = L_{i,i-2} D_{i-2} = H_{i,i-2}, real; v1 = L_{i,i-1} D_{i-1}
            # = H_{i,i-1} - v2 conj(L_{i-1,i-2})
            v2 = -off[i - 2] * off[i - 1] if i >= 2 else 0.0
            v_re = rises[i - 1] - v2 * l_re
            v_im = v2 * l_im - off[i - 1] * twice_y
            l_re, l_im = v_re * inv, v_im * inv
            pivot = np.square(x - diag[i]) + edge[i] + base
            pivot -= v_re * l_re + v_im * l_im  # |v1|^2 / D_{i-1}
            pivot -= (v2 * v2) * inv_prev  # v2^2 / D_{i-2}
            inv_prev, inv = inv, 1.0 / pivot
            np.minimum(lowest, pivot, out=lowest)  # NaN stays NaN
        return lowest > 0


def _sigma_min_blockwise(n_max: int, gamma: float, zs: np.ndarray) -> np.ndarray:
    """sigma_min(zI - A_N) per point, min over tridiagonal blocks.

    Blocks are visited in ascending d; each is applied only at points where
    the exact lower bounds cannot rule it out.  The first is
    max(0, d + 1 - Re z), one float per point; it never decreases as d
    grows, so once it rules out every point the sweep stops.  Then, at the
    points it leaves open that have a finite running minimum s,
    _sigma_min_above's LDL^H pass proves sigma_min(zI - B_d) > s, with a
    margin against rounding of 256 eps times a bound on the largest
    diagonal entry of (zI - B_d)^H (zI - B_d); it runs in batches, so its
    memory does not grow with the number of points.  A proven pair cannot
    lower the minimum and is dropped; Lanczos solves only the rest.  On
    the far grid right of the spectrum, where block 0 holds the minimum,
    Lanczos solves block 0 alone.

    Ahead of the certificate, Weyl: |sigma_min(zI - B_d) - m_d| <= rho_d,
    with m_d = min_k |z - a_k| and rho_d >= ||B_d - diag(a)||_2 the largest
    Gershgorin radius.  Where rho_d <= _INVIT_RTOL m_d, m_d is the value,
    by a sorted lookup in O(log rows) per point, taken only at blocks where
    some point's |z| + max a, a bound on m_d, lets the test pass."""
    zs = np.asarray(zs, dtype=complex).ravel()
    smin = np.full(zs.size, np.inf)
    reach = np.abs(zs).max(initial=0.0)
    # at gamma = 0 every block is diagonal, and block d's diagonal is a
    # subset of block d - 2's: blocks 0 and 1 hold every level
    for d in range(n_max + 1 if gamma else min(n_max, 1) + 1):
        todo = np.flatnonzero(~(np.maximum(d + 1.0 - zs.real, 0.0) >= smin))
        if todo.size == 0:
            break  # every remaining block is bounded away from the minimum
        diag, off = _block_tridiag(n_max, gamma, d)
        rho = _gershgorin_radii(np.abs(off)).max()
        if rho <= _INVIT_RTOL * (reach + diag[-1]):
            # diag increases, so the entry nearest z is one of the two that
            # bracket Re z
            at = zs[todo]
            right = np.minimum(np.searchsorted(diag, at.real), diag.size - 1)
            m_d = np.minimum(np.abs(at - diag[right]), np.abs(at - diag[np.maximum(right - 1, 0)]))
            weyl = _INVIT_RTOL * m_d >= rho
            smin[todo[weyl]] = np.minimum(smin[todo[weyl]], m_d[weyl])
            todo = todo[~weyl]
        held = todo[np.isfinite(smin[todo])]  # the points with a running minimum to beat
        proven = np.zeros(zs.size, dtype=bool)
        # per point: _sigma_min_above's float vectors, about 20
        for part in _batches(held.size, 8 * 20):
            at = held[part]
            proven[at] = _sigma_min_above(diag, off, zs[at], smin[at])
        todo = todo[~proven[todo]]
        if todo.size == 0:
            continue
        smin[todo] = np.minimum(smin[todo], _sigma_min_block(n_max, gamma, d, zs[todo]))
    return smin


def sigma_min_points(n_max: int, gamma: float, zs) -> np.ndarray:
    """sigma_min(zI - A_N) at arbitrary complex points.

    The matrix is real, so only Re z and |Im z| matter; points are deduped
    accordingly before the block sweep.  Raises SolverConvergenceError
    rather than return a NaN or infinite value."""
    _check_truncation(n_max)
    zs = np.asarray(zs, dtype=complex)
    folded = zs.real.ravel() + 1j * np.abs(zs.imag.ravel())
    uniq, inverse = np.unique(folded, return_inverse=True)
    smin = _sigma_min_blockwise(n_max, gamma, uniq)
    bad = int(np.count_nonzero(~np.isfinite(smin)))
    if bad:
        raise SolverConvergenceError(f"sigma_min is not finite at {bad} of {smin.size} points")
    return smin[inverse].reshape(zs.shape)


class SpectralGrid(NamedTuple):
    """Rectangular complex grid with sigma_min(zI - A_N) per point."""

    re: np.ndarray
    im: np.ndarray
    sigma_min: np.ndarray  # shape (len(im), len(re))

    def points(self) -> np.ndarray:
        return self.re[None, :] + 1j * self.im[:, None]


def pseudospectrum(
    n_max: int, gamma: float, re_range=(-1.0, 8.0), im_range=(-4.0, 4.0), resolution: int = 161
) -> SpectralGrid:
    """sigma_min grid for epsilon-pseudospectrum level sets, `resolution`
    points per axis."""
    if not 1 <= resolution <= 512:
        raise ValueError("grid resolution limited to 512 per axis")
    re = np.linspace(float(re_range[0]), float(re_range[1]), resolution)
    im = np.linspace(float(im_range[0]), float(im_range[1]), resolution)
    if im.size > 1 and math.isclose(im[0], -im[-1], rel_tol=0, abs_tol=1e-15):
        im = 0.5 * (im - im[::-1])  # make the conjugate symmetry exact
    zs = re[None, :] + 1j * im[:, None]
    sig = sigma_min_points(n_max, gamma, zs)
    return SpectralGrid(re, im, sig)


class AccretivityReport(NamedTuple):
    rows: list[tuple[complex, float, float, bool]]
    rayleigh_min_x: float
    rayleigh_max_hyper_excess: float
    rayleigh_ok: bool

    @property
    def resolvent_ok(self) -> bool:
        return all(ok for *_, ok in self.rows)


def accretivity_check(
    n_max: int,
    gamma: float,
    points,
    n_vectors: int = 1000,
    seed: int = 0,
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
    ok = x_excess <= _ACCRETIVE_X_TOL and hyper_excess <= _ACCRETIVE_HYPER_TOL
    return AccretivityReport(rows, 1.0 - x_excess, hyper_excess, ok)


def spectrum_levels(n_max: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, closed_form): the sorted eigenvalues and, index-wise,
    the sorted exact levels (1+m+n) sqrt(1+g^2) for m, n <= N."""
    k = np.arange(n_max + 1)
    return eigenvalues(n_max, gamma), np.sort(np.add.outer(k, k).ravel() + 1) * math.hypot(1.0, gamma)


def z_from_string(text: str) -> complex:
    """Parse a complex literal, accepting i or j for the imaginary unit;
    the i of inf/infinity is not the imaginary unit."""
    cleaned = re.sub(r"i(?![a-z])", "j", text.strip())
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc
