"""Leading-order semiclassical phases for the decoupled quadratic summands.

At unit coupling the model separates in sum/difference coordinates into two
1D pieces of the form h = alpha p^2 + beta x^2 + i delta x p.  The phase
S(x) of the exp(i S / hbar) ansatz solves the eikonal (Jacobi) equation

    alpha S'^2 + i delta x S' + beta x^2 = E,

in closed form inside the classically allowed interval |x| < x_t.  The
left-adjoint branch (phase of the adjoint operator's eigenfunction) has the
same real part and opposite imaginary part, which is what drives the
squared-norm integrals apart as hbar -> 0: the right-eigenfunction norm
diverges, the left one vanishes, and the cross overlap stays finite.

The integrals are Gauss-Legendre sums with node doubling.  |Psi|^2 and
|Psi_tilde|^2 are e^(+-kappa x^2), kappa = delta / (2 alpha hbar), which
lives in a strip of width about 1 / (kappa x_t) at the two ends or
1 / sqrt(kappa) at 0; their rules cover only that span, where the integrand
is within e^-TAIL_EXPONENT of its peak, so every hbar and energy converges
at 128 nodes, and the limit hbar -> 0 stops only where log I1 itself
leaves the float range.  Each n-node rule
is built in O(n) memory by Newton's method on the three-term recurrence
(Hale & Townsend, SIAM J. Sci. Comput. 35, 2013), in place of the dense
n x n eigensolve of Golub & Welsch.  Only the nonnegative half is solved,
in theta with x = cos(theta), from Tricomi's start
x_k = (1 - (n - 1) / (8 n^3)) cos(theta_k), theta_k = pi (4k - 1) / (4n + 2).
Each of three passes runs the recurrence for P_n and P_(n-1) over all
nodes at once and steps theta by -P_n / P_n', with
P_n' = dP_n/dtheta = n (x P_n - P_(n-1)) / sin(theta).  The sine is taken
as sqrt((1 - x)(1 + x)) of the rounded node the recurrence saw (1 - x is
exact near 1), and the last P_n' is carried to the root by one Taylor term
of Legendre's equation; the weights are 2 / P_n'^2.  The half is mirrored,
and an odd n gets a middle node of exactly 0.
"""

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np


@lru_cache(maxsize=16)
def leggauss(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1]: ascending nodes, exactly
    antisymmetric, and weights that must sum to 2 to 1e-13 (see the module
    docstring for the method)."""
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs at least 1 node, got {n}")
    odd = n % 2
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(3):
        x = np.cos(theta)
        if odd:
            x[-1] = 0.0  # the middle node, where P_n vanishes exactly
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) / (j + 1)) * x * p - (j / (j + 1)) * p_prev
        sin = np.sqrt((1.0 - x) * (1.0 + x))
        dp = n * (x * p - p_prev) / sin
        step = p / dp
        theta = theta - step
    # P_n'' = -cot(theta) P_n' - n (n + 1) P_n carries P_n' to the root
    dp += (x / sin * dp + n * (n + 1) * p) * step
    x = np.cos(theta)
    if odd:
        x[-1] = 0.0
    w = 2.0 / (dp * dp)
    nodes = np.concatenate((-x[: n // 2], x[::-1]))
    weights = np.concatenate((w[: n // 2], w[::-1]))
    if abs(weights.sum() - 2.0) > 1e-13:
        raise RuntimeError("Gauss-Legendre weights failed to converge")
    nodes.setflags(write=False)  # cached and shared
    weights.setflags(write=False)
    return nodes, weights


class Branch(Enum):
    RIGHT = +1
    LEFT_ADJOINT = -1


class QuadraticSummand:
    """h = alpha p^2 + beta x^2 + i delta x p with alpha, beta > 0."""

    __slots__ = ("alpha", "beta", "delta")

    def __init__(self, alpha: float, beta: float, delta: float):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.alpha, self.beta, self.delta = alpha, beta, delta

    def __repr__(self):
        return f"QuadraticSummand({self.alpha}, {self.beta}, {self.delta})"

    def turning_point(self, energy: float) -> float:
        if energy <= 0:
            raise ValueError("energy must be positive")
        return math.sqrt(4.0 * self.alpha * energy / (4.0 * self.alpha * self.beta + self.delta**2))


def sum_coordinate_summand() -> QuadraticSummand:
    """Center-of-mass piece (1/8) p^2 + 2 x^2 + i x p."""
    return QuadraticSummand(0.125, 2.0, 1.0)


def difference_coordinate_summand() -> QuadraticSummand:
    """Relative piece (1/2) p^2 + (1/2) x^2 + i x p."""
    return QuadraticSummand(0.5, 0.5, 1.0)


class PhaseFunction(NamedTuple):
    """Closed-form S(x) on |x| < x_t for one summand, energy and branch."""

    summand: QuadraticSummand
    energy: float
    branch: Branch = Branch.RIGHT

    @property
    def turning_point(self) -> float:
        return self.summand.turning_point(self.energy)

    def _momentum_root(self, x):
        s = self.summand
        arg = 4.0 * s.alpha * self.energy - (4.0 * s.alpha * s.beta + s.delta**2) * x * x
        return np.sqrt(arg)

    def derivative(self, x):
        """S'(x) = (-i delta x + sqrt(4 a E - (4 a b + d^2) x^2)) / (2 a),
        with the imaginary part flipped on the left-adjoint branch."""
        x = self._check(x)
        s = self.summand
        im = -self.branch.value * s.delta * x / (2.0 * s.alpha)
        return self._momentum_root(x) / (2.0 * s.alpha) + 1j * im

    def real_part(self, x):
        x = self._check(x)
        s = self.summand
        k = 4.0 * s.alpha * s.beta + s.delta**2
        root = self._momentum_root(x)
        return x * root / (4.0 * s.alpha) + (self.energy / math.sqrt(k)) * np.arcsin(x / self.turning_point)

    def imag_part(self, x):
        x = self._check(x)
        return -self.branch.value * self.summand.delta * x * x / (4.0 * self.summand.alpha)

    def __call__(self, x):
        out = self.real_part(x) + 1j * self.imag_part(x)
        return complex(out) if np.ndim(out) == 0 else out

    def jacobi_residual(self, x):
        """alpha S'^2 +/- i delta x S' + beta x^2 - E (sign per branch);
        identically zero for the exact phase."""
        x = self._check(x)
        s = self.summand
        sp = self.derivative(x)
        return s.alpha * sp * sp + self.branch.value * 1j * s.delta * x * sp + s.beta * x * x - self.energy

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) >= self.turning_point):
            raise ValueError("x outside the classically allowed interval")
        return x


#: _log_gaussian_integral's rule covers only where the integrand is within
#: e^-TAIL_EXPONENT of its peak.  The part left out is below
#: e^-T / sqrt(pi T) of the integral for a peak at 0 (the Gaussian tail
#: bound), and below 25 e^-T for a peak at the ends (the exponent is concave
#: in the distance from the end); at T = 40, e^-T = 4.2e-18, that is under
#: 1.1e-16 relative, below rounding.
TAIL_EXPONENT = 40.0


def _doubling(value_at, n0: int, rtol: float, n_cap: int) -> float:
    """value_at(n) for n = n0, 2 n0, ... until two values agree to rtol.

    Raises FloatingPointError on the first non-finite value, and when the
    values have not agreed by n_cap nodes: neither is returned silently."""
    prev, n = None, n0
    while True:
        val = value_at(n)
        if not math.isfinite(val):
            raise FloatingPointError(f"non-finite quadrature value {val} at {n} nodes")
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-300):
            return val
        if n >= n_cap:
            raise FloatingPointError(f"quadrature not converged to rtol {rtol} by {n_cap} nodes")
        prev, n = val, 2 * n


def _converged_quadrature(f, half_width: float, n0: int = 64, rtol: float = 1e-9, n_cap: int = 8192):
    """Gauss-Legendre on [-half_width, half_width] with node doubling."""

    def value_at(n):
        t, w = leggauss(n)
        return float(np.dot(w, f(half_width * t)) * half_width)

    return _doubling(value_at, n0, rtol, n_cap)


def _log_gaussian_integral(c: float, half_width: float, n0: int = 64, rtol: float = 1e-9, n_cap: int = 8192):
    """log of integral of e^(c x^2) over [-half_width, half_width],
    overflow-safe; FloatingPointError where the log is not a finite float.

    The integrand is even, so the rule runs over [0, span] from its peak and
    log 2 is added; the span is where c (x^2 - p^2) >= -TAIL_EXPONENT, with p
    the peak.  For c <= 0 the peak is x = 0, u = x and the exponent is c u^2.
    For c > 0 it is at the ends, u = h - |x| and the exponent is
    c (x^2 - h^2) = -c u (2h - u), formed without cancellation, with c h^2
    added back in the log.  Both are c u (u - 2p)."""
    h = half_width
    peak = h if c > 0 else 0.0
    offset = math.log(2.0) + c * peak * peak
    if not math.isfinite(offset):
        raise FloatingPointError(f"non-finite log of the integral of e^({c} x^2)")
    span, tail = h, TAIL_EXPONENT
    if abs(c) * h * h > tail:  # the root of c u (u - 2p) = -T nearer 0, in a form with no cancellation
        span = tail / (c * (h + math.sqrt(h * h - tail / c))) if c > 0 else math.sqrt(tail / -c)

    def value_at(n):
        t, w = leggauss(n)
        u = 0.5 * span * (1.0 + t)
        terms = c * u * (u - 2.0 * peak) + np.log(w * (0.5 * span))
        top = float(np.max(terms))  # shifted out, so exp cannot overflow
        return offset + top + math.log(np.sum(np.exp(terms - top)))

    return _doubling(value_at, n0, rtol, n_cap)


class NormIntegralRow(NamedTuple):
    hbar: float
    right_norm: float     # I1: integral of |Psi|^2, diverges as hbar -> 0
    left_norm: float      # I2: integral of |Psi_tilde|^2, vanishes
    cross_overlap: float  # I3: integral of conj(Psi) Psi_tilde, stays finite
    log_right_norm: float
    log_left_norm: float


def wkb_integrals(summand: QuadraticSummand, energy: float, hbars) -> list[NormIntegralRow]:
    """The three hbar-scaling integrals over the classically allowed interval.

    |Psi|^2 = e^(-2 Im S / hbar) and |Psi_tilde|^2 = e^(+2 Im S / hbar) are
    pure Gaussians in x (Im S = -delta x^2 / (4 alpha)); the cross integrand
    conj(Psi) Psi_tilde is computed from the two phase functions and equals
    1 identically in leading order.  The diverging integral is evaluated
    through a log-sum so small hbar cannot overflow internally (the linear
    value is +inf past the float range).
    """
    x_t = summand.turning_point(energy)
    c = summand.delta / (2.0 * summand.alpha)
    right = PhaseFunction(summand, energy, Branch.RIGHT)
    left = PhaseFunction(summand, energy, Branch.LEFT_ADJOINT)
    rows = []
    for hbar in hbars:
        hbar = float(hbar)
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        log_i1 = _log_gaussian_integral(+c / hbar, x_t)
        log_i2 = _log_gaussian_integral(-c / hbar, x_t)

        def cross(x):
            phase = 1j * (left(x) - np.conj(right(x))) / hbar
            return np.exp(phase).real

        i3 = _converged_quadrature(cross, x_t)
        with np.errstate(over="ignore"):  # +inf past the float range is intended
            i1, i2 = float(np.exp(log_i1)), float(np.exp(log_i2))
        rows.append(NormIntegralRow(hbar, i1, i2, i3, log_i1, log_i2))
    return rows
