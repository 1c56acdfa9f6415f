"""Exact coefficient arithmetic for the operator calculus.

Coefficients live in R = Q[g, r, r^(-1)] / (r^4 - 1 - g^2): ``g`` is the real
coupling constant and ``r`` plays the role of (1+g^2)^(1/4), so quarter-power
frequency factors and their inverses are exact.  As g^2 = r^4 - 1, every
element is uniquely a + b g with a, b Laurent polynomials in r, stored as a
map from (power of r, power of g in {0, 1}) to a nonzero Fraction.  The form
is canonical, so equality is a plain comparison, and products need the one
rewrite rule g * g -> r^4 - 1.
"""

import math
from fractions import Fraction


class RingElem:
    """Immutable element a + b g of Q[r, r^(-1)][g] / (g^2 - (r^4 - 1))."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        """Sum ((r power, g power), Fraction) pairs by key; drop zero sums."""
        out = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + c
        self._terms = {key: c for key, c in out.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls) -> "RingElem":
        return cls.rational(1)

    @classmethod
    def rational(cls, q) -> "RingElem":
        return cls([((0, 0), Fraction(q))])

    @classmethod
    def gamma(cls, power: int = 1) -> "RingElem":
        out = cls.one()
        for _ in range(power):
            out = out * cls([((0, 1), Fraction(1))])
        return out

    @classmethod
    def rho(cls, power: int = 1) -> "RingElem":
        """r^power for any integer power."""
        return cls([((power, 0), Fraction(1))])

    @classmethod
    def omega(cls, power: int = 1) -> "RingElem":
        """(1+g^2)^(power/2), i.e. r^(2*power)."""
        return cls.rho(2 * power)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "RingElem":
        return RingElem([*self._terms.items(), *_as_ring(other)._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "RingElem":
        return RingElem((key, -c) for key, c in self._terms.items())

    def __sub__(self, other) -> "RingElem":
        return self + (-_as_ring(other))

    def __rsub__(self, other) -> "RingElem":
        return _as_ring(other) + (-self)

    def __mul__(self, other) -> "RingElem":
        other = _as_ring(other)
        terms = []
        for (i, j), a in self._terms.items():
            for (k, l), b in other._terms.items():
                c = a * b
                if j and l:  # g * g -> r^4 - 1
                    terms += [((i + k + 4, 0), c), ((i + k, 0), -c)]
                else:
                    terms.append(((i + k, j + l), c))
        return RingElem(terms)

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RingElem.rational(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def gamma_negated(self) -> "RingElem":
        """Substitute g -> -g (r is untouched: 1+g^2 is even in g)."""
        return RingElem(((i, j), -c if j else c) for (i, j), c in self._terms.items())

    def evaluate(self, gamma0: float) -> float:
        """Numeric value with g = gamma0 and r = (1+gamma0^2)^(1/4).

        g^2 is stored as r^4 - 1, which cancels in floats for small gamma0, so
        the terms sharing an r power mod 4 are summed in Fractions, with gamma0
        exact; _sum_in_r then adds those four sums times r^m without losing
        digits to their cancellation.  A non-finite gamma0 is evaluated in
        floats throughout."""
        g = Fraction(float(gamma0)) if math.isfinite(gamma0) else gamma0
        sums = [0] * 4
        for (i, j), c in self._terms.items():
            q, m = divmod(i, 4)
            sums[m] += c * (1 + g * g) ** q * g**j
        if isinstance(g, Fraction):
            return _sum_in_r(sums, 1 + g * g)
        return float(sum(s * (1.0 + g * g) ** (m / 4) for m, s in enumerate(sums) if s))

    def __repr__(self):
        chunks = [f"{c}*r^{i}" + ("*g" if j else "") for (i, j), c in sorted(self._terms.items())]
        return " + ".join(chunks) if chunks else "0"


def _as_ring(v) -> RingElem:
    if isinstance(v, RingElem):
        return v
    if isinstance(v, (int, Fraction)):
        return RingElem.rational(v)
    raise TypeError(f"cannot coerce {type(v).__name__} into RingElem")


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) if it is rational, else None (q > 0 is in lowest terms)."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


def _sum_in_r(sums: list, base: Fraction) -> float:
    """sum_m sums[m] r^m as a float (+-inf past the float range), for
    Fractions sums[m] and r = base^(1/len(sums)).

    While base is a rational square, r^(L/2) is rational and the top half of
    the sums folds into the bottom half.  The powers of r left are linearly
    independent over Q (x^L - base is irreducible), so the total is 0 only if
    every sum is; otherwise it is summed in mpmath at a precision doubled
    until the total exceeds its largest part times 2^(70 - precision), about
    2^64 times the rounding error of the parts."""
    while len(sums) > 1 and (root := _rational_sqrt(base)) is not None:
        half = len(sums) // 2
        sums = [lo + root * hi for lo, hi in zip(sums[:half], sums[half:])]
        base = root
    if not any(sums):
        return 0.0
    import mpmath  # here only: importing nhboson.cli does not load mpmath

    prec = 128
    while True:
        with mpmath.workprec(prec):
            r = mpmath.root(mpmath.mpf(base.numerator) / base.denominator, len(sums))
            parts = [mpmath.mpf(s.numerator) / s.denominator * r**m for m, s in enumerate(sums) if s]
            total = mpmath.fsum(parts)
            if abs(total) > max(map(abs, parts)) * mpmath.ldexp(1, 70 - prec):
                return float(total)
        prec *= 2
