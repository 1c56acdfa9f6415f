"""Exact coefficient ring: canonical reduction and numeric evaluation."""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhboson.ring import RingElem


def test_rho_fourth_power_reduces_to_base():
    assert RingElem.rho(4) == RingElem.gamma(2) + RingElem.rational(1)


def test_rho_inverse():
    assert RingElem.rho(-1) * RingElem.rho(1) == RingElem.one()
    assert RingElem.rho(-2) * RingElem.rho(2) == RingElem.one()


def test_omega_squared_is_base():
    om = RingElem.omega()
    assert om * om == RingElem.rational(1) + RingElem.gamma(2)


def test_equality_is_canonical():
    # (1+g^2) * x / (1+g^2) must collapse back to x
    x = RingElem.gamma() * Fraction(3, 7) + RingElem.rho(1)
    base = RingElem.rational(1) + RingElem.gamma(2)
    assert x * base * RingElem.rho(-4) == x
    assert not (x - x)


def test_gamma_negation():
    e = RingElem.gamma() + RingElem.gamma(2) * 2 + RingElem.rho(1)
    f = e.gamma_negated()
    assert f == -RingElem.gamma() + RingElem.gamma(2) * 2 + RingElem.rho(1)
    assert f.gamma_negated() == e


@pytest.mark.parametrize("gamma0", [0.0, 0.25, 0.5, -0.75, 1.5])
def test_evaluate_matches_direct_float(gamma0):
    # rho evaluates to the quarter power, denominators to inverse powers
    base = 1 + gamma0**2
    e = RingElem.rho(3) * Fraction(1, 2) + RingElem.gamma() * RingElem.rho(-1)
    direct = 0.5 * base**0.75 + gamma0 * base**-0.25
    assert e.evaluate(gamma0) == pytest.approx(direct, rel=1e-14)


def test_evaluate_omega():
    assert RingElem.omega().evaluate(0.75) == pytest.approx(1.25, rel=1e-15)
    assert RingElem.omega().evaluate(0.5) == pytest.approx(math.sqrt(1.25), rel=1e-15)


_scalars = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


@st.composite
def ring_elems(draw):
    e = RingElem()
    for _ in range(draw(st.integers(0, 3))):
        part = RingElem.rational(draw(_scalars))
        part = part * RingElem.gamma(draw(st.integers(0, 2)))
        part = part * RingElem.rho(draw(st.integers(-2, 3)))
        e = e + part
    return e


@settings(max_examples=60, deadline=None)
@given(ring_elems(), ring_elems(), ring_elems())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + (-a) == RingElem()


@settings(max_examples=40, deadline=None)
@given(ring_elems(), ring_elems(), st.floats(-0.9, 0.9))
def test_evaluate_is_homomorphism(a, b, gamma0):
    prod = (a * b).evaluate(gamma0)
    direct = a.evaluate(gamma0) * b.evaluate(gamma0)
    assert prod == pytest.approx(direct, rel=1e-12, abs=1e-12)


_CANCELLING = {
    "g^2": (lambda: RingElem.gamma(2), lambda g: g * g),
    "g^2 r^-4": (lambda: RingElem.gamma(2) * RingElem.rho(-4), lambda g: g * g / (1 + g * g)),
    "g r^-1": (lambda: RingElem.gamma() * RingElem.rho(-1), lambda g: g * (1 + g * g) ** -0.25),
    "r^4": (lambda: RingElem.rho(4), lambda g: 1 + g * g),
}


@pytest.mark.parametrize("name", sorted(_CANCELLING))
@pytest.mark.parametrize("gamma0", [1e-8, 1e-3, 1e5])
def test_evaluate_does_not_cancel_g_squared(name, gamma0):
    # g^2 is stored as r^4 - 1; evaluating that naively returns 0 at 1e-8
    elem, direct = _CANCELLING[name]
    assert elem().evaluate(gamma0) == pytest.approx(direct(gamma0), rel=1e-14, abs=0)


@pytest.mark.parametrize("gamma0", [1e200, -1e200, math.inf, -math.inf, math.nan])
def test_evaluate_does_not_raise_out_of_float_range(gamma0):
    elems = [make() for make, _ in _CANCELLING.values()]
    elems += [RingElem.rho(9) * 3, RingElem.gamma(3) * RingElem.rho(-9) - 1]
    for e in elems:
        assert isinstance(e.evaluate(gamma0), float)


def test_hash_is_canonical():
    x = RingElem.gamma() * Fraction(3, 7) + RingElem.rho(1)
    base = RingElem.rational(1) + RingElem.gamma(2)
    assert hash(x * base * RingElem.rho(-4)) == hash(x)


def _mp_value(terms, gamma0):
    """80-digit value of sum c g^j r^i over ((i, j), c) terms."""
    with mpmath.workdps(80):
        g = mpmath.mpf(gamma0)
        r = mpmath.root(1 + g * g, 4)
        return sum(mpmath.mpf(c.numerator) / c.denominator * g**j * r**i for (i, j), c in terms)


_GROUPS_CANCEL = [((7, 4), Fraction(-2)), ((4, 4), Fraction(1, 2)), ((8, 4), Fraction(3, 2))]


@pytest.mark.parametrize("gamma0", [1e-3, 1e-5, 1e-8])
def test_evaluate_resolves_cancelling_rho_groups(gamma0):
    # g^4 (-2 r^7 + r^4/2 + 3/2 r^8): the r^0 and r^3 groups cancel to 1e-65 at 1e-8
    e = RingElem()
    for (i, j), c in _GROUPS_CANCEL:
        e = e + RingElem.gamma(j) * RingElem.rho(i) * c
    expected = float(_mp_value(_GROUPS_CANCEL, gamma0))
    assert e.evaluate(gamma0) == pytest.approx(expected, rel=1e-14, abs=0)


def test_evaluate_is_exactly_zero_where_rational_rho_powers_cancel():
    # at gamma0 = 3/4, 1 + g^2 = 25/16, so r^2 = 5/4 is rational and r is not
    for e in (
        RingElem.rho(2) - Fraction(5, 4),
        RingElem.rho(3) - RingElem.rho(1) * Fraction(5, 4),
        RingElem.rho(6) * 16 - RingElem.rho(2) * 25 + RingElem.gamma() - Fraction(3, 4),
    ):
        assert e and e.evaluate(0.75) == 0.0
    assert RingElem.rho(1).evaluate(0.75) == pytest.approx(math.sqrt(1.25), rel=1e-15)


def test_evaluate_folds_a_rational_rho():
    # at gamma0 = 0, r = 1: every power of r is rational, and the sum is exact
    assert (RingElem.rho(3) - RingElem.rho(-2) + RingElem.gamma(2)).evaluate(0.0) == 0.0
    assert (RingElem.rho(1) * Fraction(1, 3)).evaluate(0.0) == 1 / 3


def _ones():
    third = RingElem.rational(Fraction(1, 3))
    return [
        RingElem.one(),
        RingElem.rational(1),
        RingElem.rational(Fraction(2, 2)),
        RingElem([((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))]),
        RingElem.rational(Fraction(1, 2)) * 2,
        third * 3,
        third + third + third,
        RingElem.rho(1) * Fraction(1, 6) + 1 - RingElem.rho(1) * Fraction(1, 6),
    ]


def _zeros():
    half_r = RingElem.rho(1) * Fraction(1, 2)
    return [
        RingElem(),
        RingElem.rational(0),
        half_r - half_r,
        half_r + RingElem.rho(1) * Fraction(-1, 2),
        RingElem.rational(Fraction(1, 3)) * 3 - 1,
        RingElem.gamma() * Fraction(3, 4) * 0,
    ]


@pytest.mark.parametrize("group", [_ones, _zeros])
def test_equal_values_are_one_canonical_form(group):
    elems = group()
    for e in elems:
        assert e == elems[0] and hash(e) == hash(elems[0]) and repr(e) == repr(elems[0])
    assert bool(elems[0]) is (group is _ones)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RingElem.rho(1) * Fraction(1, 2) + RingElem.gamma() * Fraction(1, 4),
        lambda: RingElem.rho(-1) * Fraction(-2, 4) + RingElem.rho(1) * Fraction(5, -6),
        lambda: RingElem.rational(Fraction(1, -3)) * RingElem.rho(3) * 6 + RingElem.gamma() * Fraction(1, 9),
        lambda: (RingElem.rho(1) * Fraction(1, 6) + RingElem.rho(2) * Fraction(1, 3)) * 3,
        lambda: (RingElem.gamma() * Fraction(1, 2) + Fraction(1, 4)) * (RingElem.gamma() * 2 - Fraction(1, 3)),
    ],
)
def test_repr_denominators_are_positive_and_reduced(make):
    text = repr(make())
    fractions = re.findall(r"(-?\d+)/(-?\d+)", text)
    assert fractions, text
    for num, den in fractions:
        assert int(den) > 1 and math.gcd(int(num), int(den)) == 1, text
