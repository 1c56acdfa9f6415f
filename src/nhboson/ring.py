"""Exact coefficient arithmetic for the operator calculus.

Coefficients live in R = Q[g, r, r^(-1)] / (r^4 - 1 - g^2): ``g`` is the real
coupling constant and ``r`` plays the role of (1+g^2)^(1/4), so quarter-power
frequency factors and their inverses are exact.  As g^2 = r^4 - 1, every
element is uniquely a + b g with a, b Laurent polynomials in r, stored as a
map from (power of r, power of g in {0, 1}) to a nonzero int numerator, over
one positive int denominator that shares no factor with all the numerators.
The form is canonical, so equality is a plain comparison, and products need
the one rewrite rule g * g -> r^4 - 1.  Arithmetic stays in ints: Fractions
appear only as inputs (the constructor, ``rational``, a Fraction operand) and
in ``repr`` and ``evaluate``, which sums irrational values in the standard
library's decimal.
"""

import contextlib
import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction


class RingElem:
    """Immutable element a + b g of Q[r, r^(-1)][g] / (g^2 - (r^4 - 1)),
    held as int numerators ``_terms`` over the int denominator ``_den``."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms=()):
        """Sum ((r power, g power), int or Fraction) pairs by key; drop zero
        sums.  Stored over the sums' least common denominator, which shares
        no factor with all the numerators, as each sum is in lowest terms."""
        out = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + Fraction(c)
        out = {key: c for key, c in out.items() if c}
        self._den = math.lcm(*(c.denominator for c in out.values()))
        self._terms = {key: c.numerator * (self._den // c.denominator) for key, c in out.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls) -> "RingElem":
        return cls.rational(1)

    @classmethod
    def rational(cls, q) -> "RingElem":
        return cls([((0, 0), q)])

    @classmethod
    def gamma(cls, power: int = 1) -> "RingElem":
        out = cls.one()
        for _ in range(power):
            out = out * _reduced({(0, 1): 1}, 1)
        return out

    @classmethod
    def rho(cls, power: int = 1) -> "RingElem":
        """r^power for any integer power."""
        return _reduced({(power, 0): 1}, 1)

    @classmethod
    def omega(cls, power: int = 1) -> "RingElem":
        """(1+g^2)^(power/2), i.e. r^(2*power)."""
        return cls.rho(2 * power)

    @staticmethod
    def linear_combination(pairs) -> "RingElem":
        """sum k e over a sequence of (RingElem e, int k) pairs, built once
        over the least common denominator of the e."""
        if len(pairs) == 1 and pairs[0][1] == 1:
            return pairs[0][0]
        den = 1
        for e, _ in pairs:
            if e._den != den:
                den = math.lcm(den, e._den)
        acc = {}
        for e, k in pairs:
            if e._den != den:
                k *= den // e._den
            for key, n in e._terms.items():
                acc[key] = acc.get(key, 0) + k * n
        return _reduced(acc, den)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "RingElem":
        return RingElem.linear_combination(((self, 1), (_as_ring(other), 1)))

    __radd__ = __add__

    def __neg__(self) -> "RingElem":
        return _reduced({key: -n for key, n in self._terms.items()}, self._den)

    def __sub__(self, other) -> "RingElem":
        return RingElem.linear_combination(((self, 1), (_as_ring(other), -1)))

    def __rsub__(self, other) -> "RingElem":
        return RingElem.linear_combination(((_as_ring(other), 1), (self, -1)))

    def __mul__(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            if isinstance(other, int):  # scale the numerators: no ring product
                return _reduced({key: n * other for key, n in self._terms.items()}, self._den)
            other = _as_ring(other)
        acc = {}
        for (i, j), a in self._terms.items():
            for (k, l), b in other._terms.items():
                c = a * b
                if j and l:  # g * g -> r^4 - 1
                    acc[i + k + 4, 0] = acc.get((i + k + 4, 0), 0) + c
                    acc[i + k, 0] = acc.get((i + k, 0), 0) - c
                else:
                    acc[i + k, j + l] = acc.get((i + k, j + l), 0) + c
        return _reduced(acc, self._den * other._den)

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
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def gamma_negated(self) -> "RingElem":
        """Substitute g -> -g (r is untouched: 1+g^2 is even in g)."""
        return _reduced({(i, j): -n if j else n for (i, j), n in self._terms.items()}, self._den)

    def evaluate(self, gamma0: float) -> float:
        """Numeric value with g = gamma0 and r = (1+gamma0^2)^(1/4).

        g^2 is stored as r^4 - 1, which cancels in floats for small gamma0, so
        the terms sharing an r power mod 4 are summed in Fractions, with gamma0
        exact; _sum_in_r then adds those four sums times r^m without losing
        digits to their cancellation.  A non-finite gamma0 is evaluated in
        floats throughout."""
        g = Fraction(float(gamma0)) if math.isfinite(gamma0) else gamma0
        sums = [0] * 4
        for (i, j), n in self._terms.items():
            q, m = divmod(i, 4)
            sums[m] += Fraction(n, self._den) * (1 + g * g) ** q * g**j
        if isinstance(g, Fraction):
            return _sum_in_r(sums, 1 + g * g)
        return float(sum(s * (1.0 + g * g) ** (m / 4) for m, s in enumerate(sums) if s))

    def __repr__(self):
        chunks = [
            f"{Fraction(n, self._den)}*r^{i}" + ("*g" if j else "")
            for (i, j), n in sorted(self._terms.items())
        ]
        return " + ".join(chunks) if chunks else "0"


def _reduced(nums: dict, den: int) -> RingElem:
    """The RingElem sum n r^i g^j / den over {(i, j): int n}: zero numerators
    are dropped, and the rest and den > 0 divided by their gcd."""
    nums = {key: n for key, n in nums.items() if n}
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: n // g for key, n in nums.items()}
    out = object.__new__(RingElem)
    out._terms, out._den = nums, den
    return out


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
    Fractions sums[m] and r = base^(1/len(sums)), len(sums) in {4, 2, 1}.

    While base is a rational square, r^(L/2) is rational and the top half of
    the sums folds into the bottom half.  The powers of r left are linearly
    independent over Q (x^L - base is irreducible), so the total is 0 only if
    every sum is.  A rational total is rounded once; any other is summed in
    decimal, r by square roots, at digits doubled until the total exceeds its
    largest part times 10^(21 - digits), about 2^64 times the parts' rounding
    error of about 10^(2 - digits) of the largest."""
    while len(sums) > 1 and (root := _rational_sqrt(base)) is not None:
        half = len(sums) // 2
        sums = [lo + root * hi for lo, hi in zip(sums[:half], sums[half:])]
        base = root
    if not any(sums):
        return 0.0
    if not any(sums[1:]):  # rounded once: 40 decimal digits could misround a binary tie
        with contextlib.suppress(OverflowError):  # past the float range: the loop gives +-inf
            return float(sums[0])
    digits = 40
    while True:
        with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            r = Decimal(base.numerator) / base.denominator
            for _ in range(len(sums).bit_length() - 1):  # r = base^(1/4), base^(1/2) or unused
                r = r.sqrt()
            parts = [Decimal(s.numerator) / s.denominator * r**m for m, s in enumerate(sums) if s]
            total = sum(parts)
            if abs(total) > max(map(abs, parts)).scaleb(21 - digits):
                return float(total)
        digits *= 2
