"""Normal ordering, commutators, adjoints and the exact identity suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhboson import operators
from nhboson.modes import ModeFunction, ModeKind
from nhboson.operators import (
    DegreeLimitError,
    IdentityCheck,
    OperatorPoly,
    commutator,
    compose,
    conjugate_by_gaussian,
    dressed_lowering_x,
    dressed_lowering_y,
    dressed_raising_x,
    dressed_raising_y,
    formal_adjoint,
    gaussian_exponent,
    hamiltonian,
    hamiltonian_ladder,
    lowering_x,
    lowering_y,
    oscillator,
    oscillator_number_form,
    raising_x,
    raising_y,
    shear_term,
    verify_identities,
)
from nhboson.ring import RingElem

ONE = OperatorPoly.one()
X, Y, DX, DY = (OperatorPoly.monomial(**{index: 1}) for index in "ijkl")


def test_leibniz_rewrite():
    assert compose(DX, X) == X * DX + ONE


def test_disjoint_variables_commute():
    xy = compose(X, DY)
    assert xy == OperatorPoly.monomial(i=1, l=1)
    assert commutator(X, DY).is_zero()


def test_composition_with_identity():
    p = hamiltonian()
    assert compose(p, ONE) == p
    assert compose(ONE, p) == p


def test_composition_associative_spot():
    p, q, r = lowering_x(), raising_y(), hamiltonian()
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


WEYL_TABLE = {
    ("a", "a*"): 1, ("b", "b*"): 1,
    ("a", "b"): 0, ("a", "b*"): 0, ("a*", "b*"): 0, ("a*", "b"): 0,
    ("a", "a"): 0, ("b", "b"): 0, ("a*", "a*"): 0, ("b*", "b*"): 0,
    ("a*", "a"): -1, ("b*", "b"): -1, ("b", "a"): 0, ("b*", "a"): 0,
    ("b*", "a*"): 0, ("b", "a*"): 0,
}


def test_weyl_heisenberg_table():
    gens = {"a": lowering_x(), "b": lowering_y(), "a*": raising_x(), "b*": raising_y()}
    for (u, v), expected in WEYL_TABLE.items():
        got = commutator(gens[u], gens[v])
        assert got == ONE.scaled(expected), f"[{u},{v}]"


def test_dressed_pair_commutators_close_in_ring():
    assert commutator(dressed_lowering_x(), dressed_raising_x()) == ONE
    assert commutator(dressed_lowering_y(), dressed_raising_y()) == ONE
    assert commutator(dressed_lowering_x(), dressed_raising_y()).is_zero()


def test_adjoint_of_lowering():
    # a* = x - (1/2) dx
    expected = X + DX.scaled(Fraction(-1, 2))
    assert formal_adjoint(lowering_x()) == expected


def test_adjoint_of_hamiltonian_flips_gamma():
    h = hamiltonian()
    assert formal_adjoint(h) == h.gamma_negated()


def test_adjoint_fixes_multiplication_operators():
    p = OperatorPoly.monomial(i=2) + OperatorPoly.monomial(j=2)
    assert formal_adjoint(p) == p


def test_gaussian_conjugation_of_dx():
    # single commutator series: [dx, 2 g x y] = 2 g y
    expected = DX + Y.scaled(RingElem.gamma() * 2)
    assert conjugate_by_gaussian(DX, +1) == expected


def test_gaussian_conjugation_of_scalar():
    assert conjugate_by_gaussian(ONE, +1) == ONE
    assert conjugate_by_gaussian(ONE, -1) == ONE


def test_gaussian_conjugation_that_never_terminates_raises(monkeypatch):
    # a bracket that never vanishes: the series stops after derivative
    # order + 1 commutators and raises RuntimeError, which python -O keeps
    brackets = []
    monkeypatch.setattr(operators, "commutator", lambda s, t: brackets.append(t) or t)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        conjugate_by_gaussian(DX, +1)
    assert len(brackets) == DX.derivative_order() + 1


def test_similarity_identity():
    assert conjugate_by_gaussian(hamiltonian(), +1) == oscillator()


def test_oscillator_number_form():
    assert oscillator() == oscillator_number_form()


def test_ladder_form_differs_by_shear():
    diff = hamiltonian() - hamiltonian_ladder()
    assert diff == shear_term().scaled(RingElem.gamma() * 2)
    assert hamiltonian_ladder() == hamiltonian().gamma_negated()


def test_degree_guard():
    with pytest.raises(DegreeLimitError):
        OperatorPoly.monomial(i=9, j=8)
    big = OperatorPoly.monomial(i=8, k=1)
    with pytest.raises(DegreeLimitError):
        compose(big, OperatorPoly.monomial(i=9))


def test_verify_identities_all_pass():
    checks = verify_identities()
    assert len(checks) == 15
    assert all(c.passed for c in checks)
    assert all(c.residual.is_zero() or c.name == "ladder_form_gamma_flip" for c in checks)
    assert all(len(c.residual) == 0 for c in checks)


def test_identity_report_json_shape():
    checks = verify_identities()
    rows = [c.as_dict(0.5) for c in checks]
    assert {r["identity_name"] for r in rows} >= {"[a,a*]=1", "gaussian_conjugation"}
    for r in rows:
        assert r["status"] == "pass"
        assert r["residual_monomial_count"] == 0
        assert r["max_abs_residual_coeff"] == 0.0
    # the residual's coefficients are evaluated only at a numeric gamma
    assert all("max_abs_residual_coeff" not in c.as_dict() for c in checks)


def test_vacuum_annihilation_pointwise():
    # a = x + (1/2) dx kills the gamma=0 ground mode at sample points
    vac = ModeFunction(ModeKind.PHI, 0, 0, 0.0)
    pts = np.linspace(-1.5, 1.5, 7)
    gx, gy = np.meshgrid(pts, pts, indexing="ij")
    jet = vac.jet(gx, gy)
    assert np.max(np.abs(gx * jet.value + 0.5 * jet.dx)) < 1e-12
    assert np.max(np.abs(gy * jet.value + 0.5 * jet.dy)) < 1e-12


# -- randomized structural properties ---------------------------------------

_coeffs = st.sampled_from(
    [
        RingElem.one(),
        RingElem.rational(Fraction(-1, 2)),
        RingElem.gamma(),
        RingElem.rho(1),
        RingElem.rho(-1) * Fraction(1, 3),
        RingElem.gamma() * RingElem.rho(2),
    ]
)
_monos = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@st.composite
def operator_polys(draw):
    p = OperatorPoly()
    for _ in range(draw(st.integers(1, 3))):
        i, j, k, l = draw(_monos)
        p = p + OperatorPoly.monomial(i, j, k, l, coeff=draw(_coeffs))
    return p


@settings(max_examples=40, deadline=None)
@given(operator_polys(), operator_polys())
def test_adjoint_antimultiplicative(p, q):
    assert formal_adjoint(compose(p, q)) == compose(formal_adjoint(q), formal_adjoint(p))


@settings(max_examples=40, deadline=None)
@given(operator_polys())
def test_adjoint_involution(p):
    assert formal_adjoint(formal_adjoint(p)) == p


@settings(max_examples=25, deadline=None)
@given(operator_polys())
def test_gaussian_conjugation_round_trip(p):
    assert conjugate_by_gaussian(conjugate_by_gaussian(p, +1), -1) == p


@settings(max_examples=25, deadline=None)
@given(operator_polys(), operator_polys(), st.floats(-0.99, 0.99))
def test_evaluate_commutes_with_compose(p, q, gamma0):
    """Numeric coefficient evaluation before/after composition agrees."""
    composed = compose(p, q).evaluate_coeffs(gamma0)

    # numeric re-composition from evaluated coefficient maps
    from math import comb, factorial

    direct: dict = {}
    for (i1, j1, k1, l1), c1 in p.evaluate_coeffs(gamma0).items():
        for (i2, j2, k2, l2), c2 in q.evaluate_coeffs(gamma0).items():
            for s in range(min(k1, i2) + 1):
                cx = comb(k1, s) * comb(i2, s) * factorial(s)
                for t in range(min(l1, j2) + 1):
                    cy = comb(l1, t) * comb(j2, t) * factorial(t)
                    key = (i1 + i2 - s, j1 + j2 - t, k1 + k2 - s, l1 + l2 - t)
                    direct[key] = direct.get(key, 0.0) + c1 * c2 * cx * cy

    scale = max([abs(v) for v in direct.values()], default=1.0) or 1.0
    keys = set(composed) | set(direct)
    for key in keys:
        a = composed.get(key, 0.0)
        b = direct.get(key, 0.0)
        assert abs(a - b) <= 1e-13 * max(scale, 1.0)


def test_gaussian_exponent_is_multiplication_operator():
    s = gaussian_exponent()
    assert s.derivative_order() == 0
    assert formal_adjoint(s) == s


def test_constructor_sums_duplicates_and_drops_cancelled_terms():
    m = (1, 0, 2, 0)
    assert OperatorPoly([(m, 1), (m, -1)]).is_zero()
    assert OperatorPoly([(m, 1), (m, Fraction(1, 2))]) == OperatorPoly.monomial(1, 0, 2, 0, Fraction(3, 2))
    # a mapping is read as its (monomial, coefficient) pairs; zeros never reach the degree guard
    assert OperatorPoly({m: RingElem.gamma(), (9, 9, 0, 0): 0}) == OperatorPoly.monomial(1, 0, 2, 0, RingElem.gamma())
    with pytest.raises(DegreeLimitError):
        OperatorPoly([((9, 8, 0, 0), 1), ((9, 8, 0, 0), 2)])


@settings(max_examples=40, deadline=None)
@given(operator_polys())
def test_adjoint_matches_termwise_composition(p):
    # the definition: (c x^i y^j dx^k dy^l)* = (-1)^(k+l) c dx^k dy^l x^i y^j
    expected = OperatorPoly()
    for (i, j, k, l), c in p._terms.items():
        term = compose(OperatorPoly.monomial(k=k, l=l), OperatorPoly.monomial(i=i, j=j))
        expected = expected + term.scaled(c * (-1) ** (k + l))
    assert formal_adjoint(p) == expected


def test_failed_identity_row_reports_its_residual():
    residual = X.scaled(RingElem.gamma() * 2) + DY.scaled(-3)
    row = IdentityCheck("broken", False, residual).as_dict(0.25)
    assert row == {
        "identity_name": "broken",
        "status": "fail",
        "residual_monomial_count": 2,
        "max_abs_residual_coeff": 3.0,
    }
