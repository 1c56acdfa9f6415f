"""Closed-form eigenfunctions and their inner products.

The base modes are products of orthonormal oscillator functions in
stretched coordinates (frequency w = sqrt(1+gamma^2)); the right and left
eigenfunction families multiply by e^(+2 gamma x y) and e^(-2 gamma x y).
All members are unit-normalized, so biorthogonality and physical
orthonormality both come out with constant 1.

Inner products fold every Gaussian and e^(c x y) factor into the weight of
a Gauss-Hermite rule; only scaled Hermite polynomials are evaluated at the
nodes, which keeps the integrands overflow-free.  `gram_matrix`,
`flat_norms` and `expand_amplitudes` tabulate every order at every node
once and contract for all pairs at a time; `expand_amplitudes` takes its
state as a coefficient array, so psi too comes from that one 1D table.
Each refuses a rule with too few nodes to be exact (`min_nodes`).
"""

import math
import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np

from .quadrature import gauss_hermite, hermite_function_jet, hermite_scaled

#: expand_amplitudes warns when the residual norm^2 of its reconstruction
#: exceeds this, as psi then lies outside the truncated span
_EXPAND_WARN_RESIDUAL = 1e-6
#: polynomial degree per axis of each tabulated product's integrands, per
#: unit of its top Hermite order: h_m h_p for gram_matrix and
#: expand_amplitudes, and h_m^2 h_n^2, of degree 4 m_max in u, for flat_norms
_DEGREE_PER_ORDER = {"gram": 2, "norms": 4, "expand": 2}


class ModeKind(Enum):
    """Mode families: base oscillator, right eigenfunctions, left
    (adjoint) eigenfunctions."""

    PHI = 0
    PSI = +1
    PSI_TILDE = -1


class Jet(NamedTuple):
    value: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dxx: np.ndarray
    dyy: np.ndarray
    dxy: np.ndarray


def eigenvalue(m: int, n: int, gamma: float) -> float:
    """(1 + m + n) sqrt(1 + gamma^2); shared by all three operators."""
    if m < 0 or n < 0:
        raise ValueError("mode indices must be >= 0")
    return (1 + m + n) * math.hypot(1.0, gamma)


class ModeFunction:
    """Evaluable eigenfunction pinned to a kind, index pair and coupling.

    Evaluation runs through the orthonormal-oscillator-function recurrence,
    whose values stay O(1) for any index, so no overflow guard or log
    scaling is needed even for very large m + n."""

    __slots__ = ("kind", "m", "n", "gamma")

    def __init__(self, kind: ModeKind, m: int, n: int, gamma: float):
        if m < 0 or n < 0:
            raise ValueError("mode indices must be >= 0")
        self.kind, self.m, self.n, self.gamma = kind, m, n, gamma

    def __repr__(self):
        return f"ModeFunction({self.kind}, {self.m}, {self.n}, {self.gamma})"

    @property
    def omega(self) -> float:
        return math.hypot(1.0, self.gamma)

    @property
    def coupling(self) -> float:
        """Coefficient c in the e^(c x y) factor."""
        return 2.0 * self.gamma * self.kind.value

    @property
    def energy(self) -> float:
        return eigenvalue(self.m, self.n, self.gamma)

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = math.sqrt(2.0 * self.omega)
        u, _, _ = hermite_function_jet(self.m, s * x)
        v, _, _ = hermite_function_jet(self.n, s * y)
        out = s * u * v * np.exp(self.coupling * x * y)
        return float(out) if out.ndim == 0 else out

    __call__ = eval

    def jet(self, x, y) -> Jet:
        """Value with first and second partial derivatives."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = math.sqrt(2.0 * self.omega)
        u, u1, u2 = (s * w for w in hermite_function_jet(self.m, s * x))
        u1, u2 = s * u1, s * s * u2
        v, v1, v2 = hermite_function_jet(self.n, s * y)
        v1, v2 = s * v1, s * s * v2
        c = self.coupling
        w = np.exp(c * x * y)
        wx, wy = c * y * w, c * x * w
        value = u * v * w
        return Jet(
            value=value,
            dx=u1 * v * w + u * v * wx,
            dy=u * v1 * w + u * v * wy,
            dxx=u2 * v * w + 2.0 * u1 * v * wx + u * v * (c * y) ** 2 * w,
            dyy=u * v2 * w + 2.0 * u * v1 * wy + u * v * (c * x) ** 2 * w,
            dxy=u1 * v1 * w + u1 * v * wy + u * v1 * wx + u * v * (c + c * c * x * y) * w,
        )

    def poly_part(self, x, y):
        """Mode value with the Gaussian and coupling factors stripped:
        value = poly_part * e^(-w (x^2+y^2)) * e^(c x y)."""
        s = math.sqrt(2.0 * self.omega)
        scale = math.sqrt(2.0 * self.omega / math.pi)
        return scale * hermite_scaled(self.m, s * np.asarray(x, float))[-1] * hermite_scaled(
            self.n, s * np.asarray(y, float)
        )[-1]


def apply_hamiltonian(f: ModeFunction, x, y, which: str = "H"):
    """Apply H, H* or the self-adjoint partner H0 analytically at (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jet = f.jet(x, y)
    kinetic = -0.25 * (jet.dxx + jet.dyy)
    if which == "H":
        out = kinetic + f.gamma * (y * jet.dx + x * jet.dy) + (x * x + y * y) * jet.value
    elif which == "Hstar":
        out = kinetic - f.gamma * (y * jet.dx + x * jet.dy) + (x * x + y * y) * jet.value
    elif which == "H0":
        out = kinetic + (1.0 + f.gamma**2) * (x * x + y * y) * jet.value
    else:
        raise ValueError(f"unknown operator {which!r}")
    return float(out) if out.ndim == 0 else out


#: which mode family each operator diagonalizes
OPERATOR_MODE = {"H": ModeKind.PSI, "Hstar": ModeKind.PSI_TILDE, "H0": ModeKind.PHI}


def eigen_residual(which: str, m: int, n: int, gamma: float) -> float:
    """max |op f - E f| / max |E f| over the 10x10 grid in [-2,2]^2 for the
    matching (operator, mode-family) pair."""
    ax = np.linspace(-2.0, 2.0, 10)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    f = ModeFunction(OPERATOR_MODE[which], m, n, gamma)
    applied = apply_hamiltonian(f, gx, gy, which)
    reference = f.energy * f.eval(gx, gy)
    return float(np.max(np.abs(applied - reference)) / np.max(np.abs(reference)))


def min_nodes(kind: str, top: int) -> int:
    """Fewest Gauss-Hermite nodes that integrate the `kind` product
    ("gram", "norms" or "expand") up to Hermite order `top` exactly.  Every
    integrand is a polynomial times the rule's own Gaussian, and an n-node
    rule is exact through degree 2n - 1 (Golub & Welsch, Math. Comp. 23,
    1969); below this count the result is wrong, not merely less accurate."""
    return _DEGREE_PER_ORDER[kind] * top // 2 + 1


def _check_nodes(kind: str, top: int, n_nodes: int) -> None:
    need = min_nodes(kind, top)
    if n_nodes < need:
        raise ValueError(f"{kind} up to order {top} needs at least {need} quadrature nodes, got {n_nodes}")


def _oscillator_table(omega: float, m_max: int, n_nodes: int):
    """Gauss-Hermite rule for e^(-a x^2), a = 2 omega, mapped to x = t/sqrt(a),
    and the scaled Hermite table h_k(sqrt(a) x) for k = 0..m_max at its nodes.
    The table is built from sqrt(a) x, so a non-finite a yields NaN."""
    root_a = math.sqrt(2.0 * omega)
    rule = gauss_hermite(n_nodes)
    x = rule.nodes / root_a
    return x, rule.weights / root_a, hermite_scaled(m_max, root_a * x)


def gram_matrix(gamma: float, m_max: int, n_nodes: int = 96) -> np.ndarray:
    """1D Gram matrix G[m, p] of the mode factors, m, p = 0..m_max.

    The biorthogonal product (Psi_mn, Psi~_pq) under the flat weight and the
    physical product (Psi_mn, Psi_pq) both fold the couplings to c = 0, so
    both equal G[m, p] G[n, q], the identity on exact quadrature, which
    needs m_max + 1 nodes (min_nodes); fewer raise ValueError."""
    _check_nodes("gram", m_max, n_nodes)
    omega = math.hypot(1.0, gamma)
    _, w, p = _oscillator_table(omega, m_max, n_nodes)
    return math.sqrt(2.0 * omega / math.pi) * (p * w) @ p.T


def flat_norms(gamma: float, m_max: int, n_nodes: int = 96) -> np.ndarray:
    """Flat squared norms ||Psi_mn||^2 for m, n = 0..m_max, as an array.

    They are even in gamma, so take gamma >= 0: the folded exponent is then
    -(2w - 2 gamma) u^2 - (2w + 2 gamma) v^2 in u, v = (x +- y) / sqrt(2).
    The two coefficients multiply to exactly 4, so the smaller is taken as 4
    over the larger: 2w - 2 gamma itself cancels to 0 from gamma ~ 1e8.
    The integrands have degree 4 m_max in u, so fewer than 2 m_max + 1
    nodes raise ValueError (min_nodes)."""
    _check_nodes("norms", m_max, n_nodes)
    omega = math.hypot(1.0, gamma)
    big = 2.0 * (omega + abs(gamma))
    cu, cv = 4.0 / big, big
    rule = gauss_hermite(n_nodes)
    u = rule.nodes[:, None] / math.sqrt(cu)
    v = rule.nodes[None, :] / math.sqrt(cv)
    # the tables take sqrt(2w) x = sqrt(w) (u + v) and sqrt(2w) y = sqrt(w) (u - v)
    hx, hy = (hermite_scaled(m_max, math.sqrt(omega) * z.ravel()) ** 2 for z in (u + v, u - v))
    w = np.outer(rule.weights, rule.weights).ravel() / math.sqrt(cu * cv)
    return (2.0 * omega / math.pi) * (hx * w) @ hy.T


def norm_growth(gamma: float, m_max: int, n_nodes: int = 96) -> np.ndarray:
    """Flat squared norms of the diagonal right eigenfunctions, m = 0..m_max.

    Strictly increasing for gamma != 0; identically 1 at gamma = 0."""
    return np.diag(flat_norms(gamma, m_max, n_nodes)).copy()


class ExpansionResult(NamedTuple):
    coeffs: np.ndarray
    norm_sq: float
    norm_defect: float
    residual_sq: float


def expand_amplitudes(coeffs: np.ndarray, gamma: float, cutoff: int, n_nodes: int = 96) -> ExpansionResult:
    """Probability amplitudes c_mn = <<psi, Psi_mn>>, m, n <= cutoff, of
    psi = sum_pq coeffs[p, q] Psi_pq; residual_sq (physical norm of psi minus
    its reconstruction) measures the part of psi beyond the cutoff.

    One 1D Hermite table T gives psi's de-Gaussianized part T^T coeffs T on
    the tensor nodes and projects it back, so no Gaussian is inverted there.
    Its top order, the larger of `cutoff` and psi's, needs top + 1 nodes
    (min_nodes); fewer raise ValueError."""
    coeffs = np.asarray(coeffs, dtype=float)
    omega = math.hypot(1.0, gamma)
    top = max(cutoff + 1, *coeffs.shape) - 1
    _check_nodes("expand", top, n_nodes)
    _, w, t = _oscillator_table(omega, top, n_nodes)
    weights = np.outer(w, w)
    scale = math.sqrt(2.0 * omega / math.pi)
    # psi = bare * e^(-w (x^2+y^2)) * e^(2 g x y) at the tensor nodes
    bare = scale * t[: coeffs.shape[0]].T @ coeffs @ t[: coeffs.shape[1]]
    p = t[: cutoff + 1]
    amplitudes = scale * p @ (weights * bare) @ p.T
    norm_sq = float(np.sum(weights * bare**2))
    residual_sq = float(np.sum(weights * (bare - scale * p.T @ amplitudes @ p) ** 2))
    defect = abs(float(np.sum(amplitudes**2)) - norm_sq)
    if residual_sq > _EXPAND_WARN_RESIDUAL:
        warnings.warn(
            f"expansion residual {residual_sq:.3e} exceeds {_EXPAND_WARN_RESIDUAL:.1e}; "
            "input may lie outside the truncated span",
            stacklevel=2,
        )
    return ExpansionResult(amplitudes, norm_sq, defect, residual_sq)
