"""Normal-ordered differential-operator polynomials over the exact ring.

An operator is a finitely supported map from monomials x^i y^j dx^k dy^l
(multiplications to the left of derivatives, x before y) to RingElem
coefficients.  Composition rewrites with the Leibniz rule

    dx^k . x^i = sum_s C(k,s) C(i,s) s! x^(i-s) dx^(k-s)

until normal order, exactly.  Since x-type and y-type symbols commute, a
product factorizes into independent 1D rewrites.  As in ``ring``, one
constructor sums (monomial, coefficient) pairs and drops zero sums, so every
operator is canonical when built and equality is a plain comparison.

The module also builds the concrete operators of the coupled two-boson
model (ladder operators, the non-self-adjoint Hamiltonian and its
self-adjoint similarity partner, the Gaussian exponent) and runs the exact
identity suite over them.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import NamedTuple

from .ring import RingElem

Mono = tuple[int, int, int, int]

#: guard against runaway rewriting; every identity in scope needs degree <= 4
MAX_TOTAL_DEGREE = 16


class DegreeLimitError(ValueError):
    pass


def _check_mono(mono: Mono):
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in monomial {mono}")
    if sum(mono) > MAX_TOTAL_DEGREE:
        raise DegreeLimitError(f"monomial {mono} exceeds total degree {MAX_TOTAL_DEGREE}")


@cache
def _mul_1d(i1: int, k1: int, i2: int, k2: int) -> tuple:
    """Normal order x^i1 d^k1 . x^i2 d^k2 in one variable.

    Returns (int coefficient, power of x, power of d) triples.  Memoized:
    every exponent comes from a monomial within MAX_TOTAL_DEGREE, so the
    cache holds at most (MAX_TOTAL_DEGREE + 1)^4 entries."""
    return tuple(
        (comb(k1, s) * comb(i2, s) * factorial(s), i1 + i2 - s, k1 + k2 - s)
        for s in range(min(k1, i2) + 1)
    )


def _combined(groups: dict) -> dict:
    """{monomial: RingElem} from {monomial: [(RingElem, int multiplier), ...]},
    each coefficient built once and zero sums dropped."""
    out = {}
    for mono, pairs in groups.items():
        c = RingElem.linear_combination(pairs)
        if c:
            out[mono] = c
    return out


def _poly(terms: dict) -> "OperatorPoly":
    """OperatorPoly over an already canonical {monomial: nonzero RingElem}."""
    out = object.__new__(OperatorPoly)
    out._terms = terms
    return out


class OperatorPoly:
    """Immutable normal-ordered polynomial in x, y, dx, dy."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        """Sum (monomial, coefficient) pairs, or a mapping of them, by
        monomial; int and Fraction coefficients are coerced, zero sums dropped."""
        groups: dict[Mono, list] = {}
        for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
            if not isinstance(coeff, RingElem):
                coeff = RingElem.rational(coeff)
            if coeff:
                _check_mono(mono)
                groups.setdefault(mono, []).append((coeff, 1))
        self._terms = _combined(groups)

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, i=0, j=0, k=0, l=0, coeff=1) -> "OperatorPoly":
        return cls({(i, j, k, l): coeff})

    @classmethod
    def one(cls) -> "OperatorPoly":
        return cls.monomial()

    # -- linear structure -------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self._plus(other, 1)

    def __neg__(self) -> "OperatorPoly":
        return _poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self._plus(other, -1)

    def _plus(self, other: "OperatorPoly", sign: int) -> "OperatorPoly":
        """self + sign * other."""
        groups = {m: [(c, 1)] for m, c in self._terms.items()}
        for m, c in other._terms.items():
            groups.setdefault(m, []).append((c, sign))
        return _poly(_combined(groups))

    def scaled(self, factor) -> "OperatorPoly":
        return _poly({m: cf for m, c in self._terms.items() if (cf := c * factor)})

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        return compose(self, other)

    # -- structure queries ------------------------------------------------

    def derivative_order(self) -> int:
        return max((k + l for (_, _, k, l) in self._terms), default=0)

    def gamma_negated(self) -> "OperatorPoly":
        return _poly({m: c.gamma_negated() for m, c in self._terms.items()})

    def evaluate_coeffs(self, gamma0: float) -> dict[Mono, float]:
        """Numeric coefficient map at a concrete coupling value."""
        return {m: c.evaluate(gamma0) for m, c in self._terms.items()}

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for mono in sorted(self._terms):
            i, j, k, l = mono
            sym = "".join(
                f"{s}^{e}" if e > 1 else s
                for s, e in (("x", i), ("y", j), ("dx", k), ("dy", l))
                if e
            ) or "1"
            bits.append(f"[{self._terms[mono]!r}]*{sym}")
        return " + ".join(bits)


def compose(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    """Normal-ordered operator product p q: one ring product per pair of
    terms, and each output coefficient summed once from its int multiples."""
    groups: dict[Mono, list] = {}
    for (i1, j1, k1, l1), c1 in p._terms.items():
        for (i2, j2, k2, l2), c2 in q._terms.items():
            top = (i1 + i2, j1 + j2, k1 + k2, l1 + l2)  # the s = t = 0 term, of highest degree
            if sum(top) > MAX_TOTAL_DEGREE:
                raise DegreeLimitError(f"monomial {top} exceeds total degree {MAX_TOTAL_DEGREE}")
            c12 = c1 * c2
            ys = _mul_1d(j1, l1, j2, l2)
            for cx, i, k in _mul_1d(i1, k1, i2, k2):
                for cy, j, l in ys:
                    groups.setdefault((i, j, k, l), []).append((c12, cx * cy))
    return _poly(_combined(groups))


def commutator(p: OperatorPoly, q: OperatorPoly) -> OperatorPoly:
    return compose(p, q) - compose(q, p)


def formal_adjoint(p: OperatorPoly) -> OperatorPoly:
    """Formal L^2 adjoint: x* = x, dx* = -dx, factor order reversed, so
    (c x^i y^j dx^k dy^l)* = (-1)^(k+l) c dx^k dy^l x^i y^j, normal-ordered.

    Coefficients are real (rational in the coupling), so no conjugation."""
    groups: dict[Mono, list] = {}
    for (i, j, k, l), c in p._terms.items():
        sign = (-1) ** (k + l)
        for cx, i2, k2 in _mul_1d(0, k, i, 0):
            for cy, j2, l2 in _mul_1d(0, l, j, 0):
                groups.setdefault((i2, j2, k2, l2), []).append((c, sign * cx * cy))
    return _poly(_combined(groups))


def conjugate_by_gaussian(p: OperatorPoly, sign: int) -> OperatorPoly:
    """Exact e^(-sign*S) p e^(sign*S) with S = 2 g x y.

    The adjoint series terminates: each commutator with the multiplication
    operator S lowers the total derivative order by one."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    s_op = gaussian_exponent()
    total = term = p
    for k in range(1, p.derivative_order() + 2):
        bracket = commutator(s_op, term)
        if bracket.is_zero():
            return total
        term = bracket.scaled(Fraction(-sign, k))
        total = total + term
    raise RuntimeError("conjugation series failed to terminate")


# -- model operators -----------------------------------------------------


def _lowering(axis: int, rho_power: int) -> OperatorPoly:
    """r^p q + (1/(2 r^p)) dq for the coordinate q = x (axis 0) or y (axis 1)."""
    q = tuple(int(n == axis) for n in range(4))
    dq = tuple(int(n == axis + 2) for n in range(4))
    return OperatorPoly({q: RingElem.rho(rho_power), dq: RingElem.rho(-rho_power) * Fraction(1, 2)})


def lowering_x() -> OperatorPoly:
    """a = x + (1/2) dx."""
    return _lowering(0, 0)


def lowering_y() -> OperatorPoly:
    """b = y + (1/2) dy."""
    return _lowering(1, 0)


def raising_x() -> OperatorPoly:
    return formal_adjoint(lowering_x())


def raising_y() -> OperatorPoly:
    return formal_adjoint(lowering_y())


def dressed_lowering_x() -> OperatorPoly:
    """g = r x + (1/(2r)) dx, r = (1+g^2)^(1/4)."""
    return _lowering(0, 1)


def dressed_lowering_y() -> OperatorPoly:
    """h = r y + (1/(2r)) dy."""
    return _lowering(1, 1)


def dressed_raising_x() -> OperatorPoly:
    return formal_adjoint(dressed_lowering_x())


def dressed_raising_y() -> OperatorPoly:
    return formal_adjoint(dressed_lowering_y())


def hamiltonian() -> OperatorPoly:
    """Canonical differential form: -(1/4)(dx^2+dy^2) + g(y dx + x dy) + x^2 + y^2."""
    quarter = Fraction(-1, 4)
    g = RingElem.gamma()
    return (
        OperatorPoly.monomial(k=2, coeff=quarter)
        + OperatorPoly.monomial(l=2, coeff=quarter)
        + OperatorPoly.monomial(j=1, k=1).scaled(g)
        + OperatorPoly.monomial(i=1, l=1).scaled(g)
        + OperatorPoly.monomial(i=2)
        + OperatorPoly.monomial(j=2)
    )


def hamiltonian_ladder() -> OperatorPoly:
    """Ladder form a*a + b b* + g(a*b* - a b), built by composition."""
    a, b = lowering_x(), lowering_y()
    a_s, b_s = raising_x(), raising_y()
    g = RingElem.gamma()
    return (
        compose(a_s, a)
        + compose(b, b_s)
        + (compose(a_s, b_s) - compose(a, b)).scaled(g)
    )


def oscillator() -> OperatorPoly:
    """Self-adjoint partner: -(1/4)(dx^2+dy^2) + (1+g^2)(x^2+y^2)."""
    quarter = Fraction(-1, 4)
    base = RingElem.omega(2)  # 1 + g^2
    return (
        OperatorPoly.monomial(k=2, coeff=quarter)
        + OperatorPoly.monomial(l=2, coeff=quarter)
        + OperatorPoly.monomial(i=2).scaled(base)
        + OperatorPoly.monomial(j=2).scaled(base)
    )


def oscillator_number_form() -> OperatorPoly:
    """sqrt(1+g^2) (g*g + h*h + 1) in terms of the dressed ladder pairs."""
    g_lo, h_lo = dressed_lowering_x(), dressed_lowering_y()
    g_hi, h_hi = dressed_raising_x(), dressed_raising_y()
    number = compose(g_hi, g_lo) + compose(h_hi, h_lo) + OperatorPoly.one()
    return number.scaled(RingElem.omega(1))


def gaussian_exponent() -> OperatorPoly:
    """S = 2 g x y, the exponent of the similarity transform."""
    return OperatorPoly.monomial(i=1, j=1).scaled(RingElem.gamma() * 2)


def shear_term() -> OperatorPoly:
    """V = y dx + x dy, the non-self-adjoint perturbation."""
    return OperatorPoly.monomial(j=1, k=1) + OperatorPoly.monomial(i=1, l=1)


# -- identity suite -------------------------------------------------------


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    residual: OperatorPoly

    def as_dict(self, gamma: float | None = None) -> dict:
        """Report row; with a numeric gamma, the residual's coefficients are
        also evaluated and the largest magnitude reported."""
        row = {
            "identity_name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual_monomial_count": len(self.residual),
        }
        if gamma is not None:
            vals = self.residual.evaluate_coeffs(gamma).values()
            row["max_abs_residual_coeff"] = max(map(abs, vals), default=0.0)
        return row


def verify_identities() -> list[IdentityCheck]:
    """Run the exact identity suite; every residual must be the zero poly.

    The last entry compares the ladder and differential Hamiltonian forms:
    they agree only under g -> -g, with exact difference 2 g (y dx + x dy);
    the check asserts that relation, not equality.
    """
    one = OperatorPoly.one()
    a, b = lowering_x(), lowering_y()
    a_s, b_s = raising_x(), raising_y()
    g_lo, h_lo = dressed_lowering_x(), dressed_lowering_y()
    g_hi, h_hi = dressed_raising_x(), dressed_raising_y()
    h_diff = hamiltonian()
    h_ladd = hamiltonian_ladder()

    checks: list[IdentityCheck] = []

    def expect_zero(name: str, residual: OperatorPoly):
        checks.append(IdentityCheck(name, residual.is_zero(), residual))

    expect_zero("[a,a*]=1", commutator(a, a_s) - one)
    expect_zero("[b,b*]=1", commutator(b, b_s) - one)
    expect_zero("[a,b*]=0", commutator(a, b_s))
    expect_zero("[b,a*]=0", commutator(b, a_s))
    expect_zero("[a*,b*]=0", commutator(a_s, b_s))
    expect_zero("[a,b]=0", commutator(a, b))
    expect_zero("[g,g*]=1", commutator(g_lo, g_hi) - one)
    expect_zero("[h,h*]=1", commutator(h_lo, h_hi) - one)
    expect_zero("[g,h]=0", commutator(g_lo, h_lo))
    expect_zero("[g,h*]=0", commutator(g_lo, h_hi))
    expect_zero("[g*,h*]=0", commutator(g_hi, h_hi))
    expect_zero("[g*,h]=0", commutator(g_hi, h_lo))
    expect_zero("gaussian_conjugation", conjugate_by_gaussian(h_diff, +1) - oscillator())
    expect_zero("oscillator_number_form", oscillator() - oscillator_number_form())

    # ladder vs differential form: difference must be exactly 2 g V, i.e.
    # the two forms coincide only under the substitution g -> -g.
    shear_residual = (h_diff - h_ladd) - shear_term().scaled(RingElem.gamma() * 2)
    flip_residual = h_ladd - h_diff.gamma_negated()
    combined = shear_residual + flip_residual
    checks.append(
        IdentityCheck(
            "ladder_form_gamma_flip",
            shear_residual.is_zero() and flip_residual.is_zero(),
            combined,
        )
    )
    return checks

