"""Semiclassical phases: Jacobi residuals, closed-form values, the
Gauss-Legendre rules and the three hbar-scaling integrals."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss as eigensolve_leggauss
from scipy.integrate import quad
from scipy.special import erf, erfi

from nhboson.wkb import (
    Branch,
    PhaseFunction,
    QuadraticSummand,
    _converged_quadrature,
    _log_gaussian_integral,
    difference_coordinate_summand,
    leggauss,
    sum_coordinate_summand,
    wkb_integrals,
)

SUM = sum_coordinate_summand()
DIFF = difference_coordinate_summand()


def test_summand_validation():
    with pytest.raises(ValueError):
        QuadraticSummand(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        QuadraticSummand(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        SUM.turning_point(0.0)


def test_turning_points():
    # x_t = sqrt(4 a E / (4 a b + d^2))
    assert SUM.turning_point(1.0) == pytest.approx(0.5, rel=1e-15)
    assert DIFF.turning_point(1.0) == pytest.approx(math.sqrt(2.0 / 2.0), rel=1e-15)


def test_phase_vanishes_at_origin():
    assert PhaseFunction(SUM, 1.0)(0.0) == 0.0
    assert PhaseFunction(DIFF, 2.0)(0.0) == 0.0


def test_phase_closed_form_against_integration_oracle():
    """Re S from numerical integration of S'; Im S from the exact formula."""
    phase = PhaseFunction(SUM, 1.0)

    def sprime_re(t):
        return phase.derivative(t).real

    for x in (0.25, -0.4, 0.49):
        want_re, err = quad(sprime_re, 0.0, x, epsabs=1e-13, epsrel=1e-13)
        got = phase(x)
        assert got.real == pytest.approx(want_re, abs=5e-12)
        assert got.imag == pytest.approx(-2.0 * x * x, abs=1e-15)


def test_phase_value_spot():
    # frozen from the integration oracle above: S(0.25) at unit energy
    got = PhaseFunction(SUM, 1.0)(0.25)
    assert got.real == pytest.approx(0.6764264626944276, abs=1e-12)
    assert got.imag == pytest.approx(-0.125, abs=1e-15)


def test_phase_matches_textbook_form_for_sum_mode():
    # S_re = X sqrt(2E - 8X^2) + (E/sqrt(2)) arctan(2X / sqrt(E - 4X^2))
    e = 1.3
    phase = PhaseFunction(SUM, e)
    for x in np.linspace(-0.5, 0.5, 11) * SUM.turning_point(e) * 0.98:
        direct = x * math.sqrt(2 * e - 8 * x * x) + (e / math.sqrt(2)) * math.atan(
            2 * x / math.sqrt(e - 4 * x * x)
        )
        assert phase(x).real == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_jacobi_residual_random_points():
    rng = np.random.default_rng(42)
    for summand in (SUM, DIFF):
        for energy in (1.0, 2.5):
            x_t = summand.turning_point(energy)
            xs = rng.uniform(-x_t, x_t, size=20) * 0.999
            for branch in Branch:
                res = PhaseFunction(summand, energy, branch).jacobi_residual(xs)
                assert np.max(np.abs(res)) <= 1e-12


def test_imag_part_exact_quadratic():
    phase = PhaseFunction(SUM, 1.0)
    xs = np.linspace(-0.49, 0.49, 17)
    assert np.max(np.abs(phase.imag_part(xs) + 2.0 * xs * xs)) <= 1e-13


def test_branches_share_real_part_and_flip_imag():
    right = PhaseFunction(SUM, 1.0, Branch.RIGHT)
    left = PhaseFunction(SUM, 1.0, Branch.LEFT_ADJOINT)
    xs = np.linspace(-0.45, 0.45, 9)
    assert np.allclose(right.real_part(xs), left.real_part(xs), rtol=0, atol=0)
    assert np.allclose(right.imag_part(xs), -left.imag_part(xs), rtol=0, atol=0)


def test_phase_rejects_forbidden_region():
    with pytest.raises(ValueError):
        PhaseFunction(SUM, 1.0)(0.5)
    with pytest.raises(ValueError):
        PhaseFunction(SUM, 1.0)(-0.7)


def _closed_form_integrals(summand, energy, hbar):
    """Independent oracle: erf / erfi closed forms of the Gaussian integrals."""
    x_t = summand.turning_point(energy)
    c = summand.delta / (2.0 * summand.alpha) / hbar
    i1 = math.sqrt(math.pi / c) * erfi(x_t * math.sqrt(c))
    i2 = math.sqrt(math.pi / c) * erf(x_t * math.sqrt(c))
    return i1, i2


@pytest.mark.parametrize("hbar", [0.5, 0.2, 0.1, 0.05])
def test_integrals_match_closed_forms(hbar):
    rows = wkb_integrals(SUM, 1.0, [hbar])
    want1, want2 = _closed_form_integrals(SUM, 1.0, hbar)
    assert rows[0].right_norm == pytest.approx(want1, rel=1e-8)
    assert rows[0].left_norm == pytest.approx(want2, rel=1e-8)


def test_cross_overlap_is_interval_length_for_all_hbar():
    for summand, energy in [(SUM, 1.0), (SUM, 2.0), (DIFF, 1.0)]:
        rows = wkb_integrals(summand, energy, [0.3, 0.05, 0.007])
        want = 2.0 * summand.turning_point(energy)
        for row in rows:
            assert row.cross_overlap == pytest.approx(want, rel=1e-12)


def test_sum_mode_unit_energy_overlap_is_one():
    rows = wkb_integrals(SUM, 1.0, [0.1])
    assert rows[0].cross_overlap == pytest.approx(1.0, rel=1e-12)


def test_gaussian_limit_of_left_norm():
    rows = wkb_integrals(SUM, 1.0, [0.01])
    ratio = rows[0].left_norm / (math.sqrt(math.pi * 0.01) / 2.0)
    assert 0.98 <= ratio <= 1.02


def test_right_norm_growth_rate():
    rows = wkb_integrals(SUM, 1.0, [0.1, 0.2])
    assert rows[0].right_norm / rows[1].right_norm > 10.0


def test_monotone_scaling_along_decreasing_hbar():
    hbars = [0.4, 0.2, 0.1, 0.05, 0.025]
    rows = wkb_integrals(SUM, 1.0, hbars)
    i1 = [r.right_norm for r in rows]
    i2 = [r.left_norm for r in rows]
    i3 = [r.cross_overlap for r in rows]
    assert all(a < b for a, b in zip(i1, i1[1:]))
    assert all(a > b for a, b in zip(i2, i2[1:]))
    assert max(i3) - min(i3) < 1e-11


def test_overflow_safe_log_path():
    rows = wkb_integrals(SUM, 1.0, [1e-4, 1e-5])
    # linear values exceed the float range, logs must stay finite & ordered
    assert math.isinf(rows[0].right_norm) and math.isinf(rows[1].right_norm)
    assert math.isfinite(rows[0].log_right_norm)
    assert rows[1].log_right_norm > rows[0].log_right_norm > 0
    assert rows[0].left_norm > rows[1].left_norm > 0
    assert rows[0].cross_overlap == pytest.approx(1.0, rel=1e-10)


def test_doubling_loops_raise_rather_than_return_unconverged():
    # cos(1000 x) is not resolved by 64 or 128 Gauss-Legendre nodes
    with pytest.raises(FloatingPointError, match="not converged"):
        _converged_quadrature(lambda x: np.cos(1000.0 * x), 1.0, n_cap=128)
    with pytest.raises(FloatingPointError, match="non-finite"):
        _converged_quadrature(lambda x: np.full_like(x, np.nan), 1.0)
    with pytest.raises(FloatingPointError, match="non-finite"):
        _log_gaussian_integral(math.inf, 1.0)


def _reference_leggauss(n):
    """40-digit rule: Newton on the recurrence from numpy's eigensolve
    nodes, on the nonnegative half, mirrored."""
    start = eigensolve_leggauss(n)[0][n // 2:]
    with mpmath.workdps(40):

        def legendre_and_derivative(x):
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            return p, n * (x * p - p_prev) / (x * x - 1)

        half_nodes, half_weights = [], []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(2):  # from ~1e-16 to below 1e-40
                p, d = legendre_and_derivative(x)
                x -= p / d
            half_nodes.append(float(x))
            half_weights.append(float(2 / ((1 - x * x) * d * d)))
    half_nodes, half_weights = np.array(half_nodes), np.array(half_weights)
    return (
        np.concatenate((-half_nodes[::-1][: n // 2], half_nodes)),
        np.concatenate((half_weights[::-1][: n // 2], half_weights)),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 512])
def test_leggauss_matches_extended_precision_rule(n):
    nodes, weights = leggauss(n)
    want_nodes, want_weights = _reference_leggauss(n)
    assert np.max(np.abs(nodes - want_nodes)) <= 2 * np.finfo(float).eps
    assert np.max(np.abs(weights / want_weights - 1)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 511, 512, 8192])
def test_leggauss_symmetry_and_weight_sum(n):
    nodes, weights = leggauss(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    if n % 2:  # exactly +0.0, not a rounded cos(pi / 2) or -0.0
        assert math.copysign(1.0, nodes[n // 2]) == 1.0 and nodes[n // 2] == 0.0
    assert abs(weights.sum() - 2.0) <= 1e-13


def test_leggauss_rejects_empty_rule_and_is_read_only():
    with pytest.raises(ValueError):
        leggauss(0)
    nodes, weights = leggauss(4)
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_node_cap_is_reached_in_bounded_memory():
    # cos(1e5 x) on [-1, 1] is resolved by no rule up to the 8192-node cap;
    # the rules must cost O(n) memory on the way (an 8192^2 matrix is 512 MB)
    leggauss.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(FloatingPointError, match="8192"):
            _converged_quadrature(lambda x: np.cos(1e5 * x), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def _log_closed_forms(summand, energy, hbar):
    """40-digit log I1 and log I2 from erfi and erf (DLMF 7.2, 7.5)."""
    with mpmath.workdps(40):
        alpha = mpmath.mpf(summand.alpha)
        x_t = mpmath.sqrt(4 * alpha * energy / (4 * alpha * summand.beta + mpmath.mpf(summand.delta) ** 2))
        c = summand.delta / (2 * alpha) / mpmath.mpf(hbar)
        scale = mpmath.sqrt(mpmath.pi / c)
        return mpmath.log(scale * mpmath.erfi(x_t * mpmath.sqrt(c))), mpmath.log(scale * mpmath.erf(x_t * mpmath.sqrt(c)))


_SEMICLASSICAL_HBARS = [0.5, 0.2, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12]


@pytest.mark.parametrize("energy", [0.5, 1.0, 7.0, 1e300])
@pytest.mark.parametrize("summand", [SUM, DIFF], ids=["sum", "diff"])
def test_log_integrals_match_extended_precision_closed_forms(summand, energy):
    for hbar in _SEMICLASSICAL_HBARS:
        want1, want2 = _log_closed_forms(summand, energy, hbar)
        if abs(want1) > np.finfo(float).max:  # log I1 itself is past the float range
            with pytest.raises(FloatingPointError, match="non-finite"):
                wkb_integrals(summand, energy, [hbar])
            continue
        (row,) = wkb_integrals(summand, energy, [hbar])
        assert row.log_right_norm == pytest.approx(float(want1), rel=1e-13), hbar
        assert row.log_left_norm == pytest.approx(float(want2), rel=1e-13), hbar


def test_every_hbar_converges_at_the_first_two_rules():
    # the rules cover only the span where the integrand lives, whose width
    # scales with hbar, so the doubling stops at 128 nodes for every hbar
    leggauss.cache_clear()
    wkb_integrals(SUM, 1.0, [0.2, 0.1, 0.01, 0.001, 1e-6, 1e-12])
    assert leggauss.cache_info().misses == 2


def test_rejects_nonpositive_hbar():
    with pytest.raises(ValueError):
        wkb_integrals(SUM, 1.0, [0.1, 0.0])


def test_norm_divergence_cross_link():
    """The semiclassical diagnostic and the exact-mode norms must agree
    that right-eigenfunction norms grow (no Riesz basis)."""
    from nhboson.modes import norm_growth

    rows = wkb_integrals(SUM, 1.0, [0.2, 0.1, 0.05])
    semiclassical_grows = rows[0].right_norm < rows[1].right_norm < rows[2].right_norm
    exact = norm_growth(0.5, 6)
    exact_grows = bool(np.all(np.diff(exact) > 0))
    assert semiclassical_grows and exact_grows
