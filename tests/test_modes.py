"""Closed-form eigenfunctions: residuals, inner products, norms, amplitudes."""

import math
import tracemalloc

import numpy as np
import pytest

from pair_quadrature import DUAL, FLAT, PHYSICAL, inner_product, integrate_coupled

from nhboson.modes import (
    ModeFunction,
    ModeKind,
    apply_hamiltonian,
    eigen_residual,
    eigenvalue,
    expand_amplitudes,
    flat_norms,
    gram_matrix,
    min_nodes,
    norm_growth,
)
from nhboson.quadrature import gauss_hermite


def test_eigenvalue_formula():
    assert eigenvalue(0, 0, 0.0) == 1.0
    assert eigenvalue(1, 2, 0.75) == pytest.approx(5.0, rel=1e-15)
    assert eigenvalue(0, 0, 0.75) == pytest.approx(1.25, rel=1e-15)
    with pytest.raises(ValueError):
        eigenvalue(-1, 0, 0.5)
    with pytest.raises(ValueError, match="mode indices"):
        ModeFunction(ModeKind.PSI, 0, -1, 0.5)


def test_ground_mode_value_at_origin():
    f = ModeFunction(ModeKind.PHI, 0, 0, 0.0)
    assert f.eval(0.0, 0.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)


def test_unit_normalization_oracle():
    # direct quadrature of Phi^2 against the module's own evaluator
    for m, n, gamma in [(0, 0, 0.0), (2, 3, 0.5), (5, 1, 0.75)]:
        f = ModeFunction(ModeKind.PHI, m, n, gamma)
        om = f.omega
        val = integrate_coupled(
            lambda x, y: (f.eval(x, y) * np.exp(om * (x * x + y * y))) ** 2,
            (2 * om, 2 * om, 0.0),
            96,
        )
        assert val == pytest.approx(1.0, rel=1e-11)


def test_parity():
    pts = np.array([0.3, -1.2, 2.0])
    for kind in ModeKind:
        for m, n in [(0, 0), (1, 0), (2, 3), (5, 2)]:
            f = ModeFunction(kind, m, n, 0.6)
            direct = f.eval(pts, pts[::-1])
            flipped = f.eval(-pts, -pts[::-1])
            assert np.allclose(flipped, (-1.0) ** (m + n) * direct, rtol=0, atol=1e-13)


def test_right_mode_is_coupled_base_mode():
    base = ModeFunction(ModeKind.PHI, 0, 0, 0.5)
    right = ModeFunction(ModeKind.PSI, 0, 0, 0.5)
    assert right.eval(1.0, 1.0) == pytest.approx(math.e * base.eval(1.0, 1.0), rel=1e-14)


def test_jet_matches_finite_differences():
    f = ModeFunction(ModeKind.PSI, 3, 2, 0.5)
    x0, y0, h = 0.7, -0.4, 1e-5
    jet = f.jet(x0, y0)
    ev = f.eval
    assert jet.value == pytest.approx(ev(x0, y0), rel=1e-13)
    assert jet.dx == pytest.approx((ev(x0 + h, y0) - ev(x0 - h, y0)) / (2 * h), rel=1e-8)
    assert jet.dy == pytest.approx((ev(x0, y0 + h) - ev(x0, y0 - h)) / (2 * h), rel=1e-8)
    assert jet.dxx == pytest.approx(
        (ev(x0 + h, y0) - 2 * ev(x0, y0) + ev(x0 - h, y0)) / h**2, rel=1e-5
    )
    assert jet.dyy == pytest.approx(
        (ev(x0, y0 + h) - 2 * ev(x0, y0) + ev(x0, y0 - h)) / h**2, rel=1e-5
    )
    fd_xy = (
        ev(x0 + h, y0 + h) - ev(x0 + h, y0 - h) - ev(x0 - h, y0 + h) + ev(x0 - h, y0 - h)
    ) / (4 * h * h)
    assert jet.dxy == pytest.approx(fd_xy, rel=1e-5)


def test_harmonic_case_at_zero_coupling():
    f = ModeFunction(ModeKind.PHI, 0, 1, 0.0)
    pts = np.linspace(-1.5, 1.5, 5)
    gx, gy = np.meshgrid(pts, pts, indexing="ij")
    applied = apply_hamiltonian(f, gx, gy, "H0")
    assert np.allclose(applied, 2.0 * f.eval(gx, gy), rtol=1e-12)


def test_pointwise_adjoint_residual():
    f = ModeFunction(ModeKind.PSI_TILDE, 2, 1, 0.5)
    got = apply_hamiltonian(f, 0.3, -0.7, "Hstar")
    want = f.energy * f.eval(0.3, -0.7)
    assert got == pytest.approx(want, rel=1e-12)


def test_apply_hamiltonian_rejects_unknown():
    f = ModeFunction(ModeKind.PHI, 0, 0, 0.0)
    with pytest.raises(ValueError):
        apply_hamiltonian(f, 0.0, 0.0, "H2")


@pytest.mark.parametrize("which", ["H", "Hstar", "H0"])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_eigen_residual_grid(which, gamma):
    worst = max(eigen_residual(which, m, n, gamma) for m in range(6) for n in range(6))
    assert worst <= 1e-9


def test_flat_norm_closed_form():
    # ||Psi_00||^2 = (2w/pi) * pi / (2 sqrt(w^2 - g^2)) = w since w^2-g^2=1
    for gamma in (0.5, 0.75):
        f = ModeFunction(ModeKind.PSI, 0, 0, gamma)
        got = inner_product(f, f, FLAT)
        assert got == pytest.approx(math.hypot(1, gamma), rel=1e-12)
    f = ModeFunction(ModeKind.PSI, 0, 0, 0.75)
    assert inner_product(f, f) == pytest.approx(1.25, rel=1e-12)


def test_inner_product_requires_same_coupling():
    f = ModeFunction(ModeKind.PSI, 0, 0, 0.5)
    g = ModeFunction(ModeKind.PSI, 0, 0, 0.25)
    with pytest.raises(ValueError):
        inner_product(f, g)


@pytest.mark.parametrize("idx", range(4))
def test_biorthogonality_small(idx):
    gamma = 0.5
    rng = np.random.default_rng(idx)
    m, n, p, q = rng.integers(0, 7, size=4)
    f = ModeFunction(ModeKind.PSI, int(m), int(n), gamma)
    g = ModeFunction(ModeKind.PSI_TILDE, int(p), int(q), gamma)
    val = inner_product(f, g, FLAT, 96)
    want = 1.0 if (m, n) == (p, q) else 0.0
    assert abs(val - want) < 1e-10


def test_biorthogonality_via_independent_pointwise_route():
    """Same integral with the exponential factors evaluated and cancelled
    numerically at the nodes, not folded symbolically."""
    gamma = 0.5
    om = math.hypot(1, gamma)
    for (m, n), (p, q) in [((2, 1), (2, 1)), ((3, 0), (1, 0)), ((4, 4), (2, 2))]:
        f = ModeFunction(ModeKind.PSI, m, n, gamma)
        g = ModeFunction(ModeKind.PSI_TILDE, p, q, gamma)
        val = integrate_coupled(
            lambda x, y: f.eval(x, y) * g.eval(x, y) * np.exp(om * (x * x + y * y)),
            (om, om, 0.0),
            96,
        )
        want = 1.0 if (m, n) == (p, q) else 0.0
        assert abs(val - want) < 1e-9


def test_physical_orthonormality():
    gamma = 0.5
    for (m, n), (p, q) in [((0, 0), (0, 0)), ((3, 2), (3, 2)), ((3, 2), (2, 3)), ((5, 5), (1, 1))]:
        f = ModeFunction(ModeKind.PSI, m, n, gamma)
        g = ModeFunction(ModeKind.PSI, p, q, gamma)
        val = inner_product(f, g, PHYSICAL, 96)
        want = 1.0 if (m, n) == (p, q) else 0.0
        assert abs(val - want) < 1e-10


def test_dual_weight_pairs_left_modes():
    gamma = 0.5
    f = ModeFunction(ModeKind.PSI_TILDE, 2, 2, gamma)
    assert inner_product(f, f, DUAL, 96) == pytest.approx(1.0, rel=1e-11)


def test_physical_reduces_to_flat_at_zero_coupling():
    f = ModeFunction(ModeKind.PSI, 1, 2, 0.0)
    flat = inner_product(f, f, FLAT)
    phys = inner_product(f, f, PHYSICAL)
    assert flat == pytest.approx(phys, rel=1e-14)


def test_metric_consistency():
    """<<f,g>>_Physical equals <e^{-2gxy} f, e^{-2gxy} g>_Flat, with the
    right side evaluated pointwise (numerical cancellation)."""
    gamma = 0.5
    om = math.hypot(1, gamma)
    pairs = [((0, 0), (0, 0)), ((2, 1), (2, 1)), ((2, 1), (1, 2)), ((3, 3), (0, 0))]
    for (m, n), (p, q) in pairs:
        f = ModeFunction(ModeKind.PSI, m, n, gamma)
        g = ModeFunction(ModeKind.PSI, p, q, gamma)
        lhs = inner_product(f, g, PHYSICAL, 96)

        def damped_product(x, y):
            fx = f.eval(x, y) * np.exp(-2 * gamma * x * y)
            gx_ = g.eval(x, y) * np.exp(-2 * gamma * x * y)
            return fx * gx_ * np.exp(om * (x * x + y * y))

        rhs = integrate_coupled(damped_product, (om, om, 0.0), 96)
        assert abs(lhs - rhs) < 1e-10


def test_large_indices_evaluate_without_overflow():
    # normalized-function recurrence keeps high modes finite and unit-norm
    f = ModeFunction(ModeKind.PHI, 45, 40, 0.5)
    pts = np.linspace(-3, 3, 7)
    vals = f.eval(pts, pts)
    assert np.all(np.isfinite(vals))
    assert inner_product(f, f, FLAT, 128) == pytest.approx(1.0, rel=1e-9)


def test_norm_growth_zero_coupling():
    vals = norm_growth(0.0, 5)
    assert np.allclose(vals, 1.0, rtol=1e-12)


def test_norm_growth_monotone():
    vals = norm_growth(0.5, 9)
    assert vals[0] == pytest.approx(math.sqrt(1.25), rel=1e-10)
    assert np.all(np.diff(vals) > 0)
    ratios = vals[1:] / vals[:-1]
    assert np.all(ratios > 1.0)


def test_quadrature_node_doubling_stability():
    f = ModeFunction(ModeKind.PSI, 4, 3, 0.5)
    g = ModeFunction(ModeKind.PSI_TILDE, 4, 3, 0.5)
    a = inner_product(f, g, FLAT, 48)
    b = inner_product(f, g, FLAT, 96)
    assert abs(a - b) < 1e-10


def test_expand_amplitudes_identity():
    gamma = 0.5
    result = expand_amplitudes(np.ones((1, 1)), gamma, 2)
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert np.allclose(result.coeffs, want, atol=1e-10)
    assert result.norm_defect < 1e-10
    assert result.residual_sq < 1e-10


def test_expand_amplitudes_equal_mix():
    gamma = 0.5
    result = expand_amplitudes(np.eye(2) / math.sqrt(2), gamma, 2)
    assert result.coeffs[0, 0] ** 2 == pytest.approx(0.5, abs=1e-10)
    assert result.coeffs[1, 1] ** 2 == pytest.approx(0.5, abs=1e-10)


def test_expand_amplitudes_round_trip():
    gamma = 0.5
    rng = np.random.default_rng(7)
    true = rng.standard_normal((5, 5))
    true /= np.linalg.norm(true)
    result = expand_amplitudes(true, gamma, 4)
    assert np.max(np.abs(result.coeffs - true)) < 1e-8
    assert abs(float(np.sum(result.coeffs**2)) - result.norm_sq) < 1e-8


def test_expand_amplitudes_warns_outside_span():
    gamma = 0.5
    coeffs = np.zeros((4, 4))
    coeffs[3, 3] = 1.0  # outside cutoff 1
    with pytest.warns(UserWarning, match="residual"):
        expand_amplitudes(coeffs, gamma, 1)


def test_products_reject_a_rule_that_cannot_be_exact():
    # the fewest nodes are m_max + 1 (gram), 2 m_max + 1 (norms) and the
    # top order + 1 (expand, whose state may reach past the cutoff)
    assert [min_nodes(kind, 8) for kind in ("gram", "norms", "expand")] == [9, 17, 9]
    with pytest.raises(ValueError, match="at least 9 "):
        gram_matrix(0.5, 8, 8)
    with pytest.raises(ValueError, match="at least 17 "):
        flat_norms(0.5, 8, 16)
    with pytest.raises(ValueError, match="at least 4 "):
        expand_amplitudes(np.eye(2), 0.5, 3, 3)
    with pytest.raises(ValueError, match="at least 6 "):
        expand_amplitudes(np.eye(6), 0.5, 3, 5)
    # at the minimum each is exact to rounding
    assert np.allclose(gram_matrix(0.5, 8, 9), np.eye(9), rtol=0, atol=1e-13)
    assert np.allclose(flat_norms(0.5, 8, 17), flat_norms(0.5, 8, 96), rtol=1e-13, atol=0)
    state = np.eye(4) / 2.0
    assert np.allclose(expand_amplitudes(state, 0.5, 3, 4).coeffs, state, rtol=0, atol=1e-13)


def test_expand_amplitudes_memory_at_the_cap():
    # psi and its projection come from one (cutoff + 1) x nodes Hermite
    # table, so the peak is a few nodes x nodes arrays (2 MB each here)
    true = np.random.default_rng(0).standard_normal((33, 33))
    true /= np.linalg.norm(true)
    gauss_hermite(512)
    tracemalloc.start()
    try:
        result = expand_amplitudes(true, 0.5, 32, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(result.coeffs - true)) < 1e-8
    assert peak < 20e6, f"{peak / 1e6:.1f} MB"


# -- tabulated paths against the per-pair reference ----------------------------

_CROSS = [(g, nodes) for g in (0.5, -0.75, 1.5) for nodes in (48, 96)]


@pytest.mark.parametrize("gamma, nodes", _CROSS)
def test_gram_matches_per_pair_inner_products(gamma, nodes):
    g = gram_matrix(gamma, 4, nodes)
    for m, n, p, q in np.ndindex(5, 5, 5, 5):
        f = ModeFunction(ModeKind.PSI, m, n, gamma)
        dual = ModeFunction(ModeKind.PSI_TILDE, p, q, gamma)
        right = ModeFunction(ModeKind.PSI, p, q, gamma)
        want = g[m, p] * g[n, q]
        assert abs(inner_product(f, dual, FLAT, nodes) - want) <= 1e-13, (m, n, p, q)
        assert abs(inner_product(f, right, PHYSICAL, nodes) - want) <= 1e-13, (m, n, p, q)


@pytest.mark.parametrize("gamma, nodes", _CROSS)
def test_flat_norms_match_per_pair_inner_products(gamma, nodes):
    table = flat_norms(gamma, 4, nodes)
    want = np.empty((5, 5))
    for m, n in np.ndindex(want.shape):
        f = ModeFunction(ModeKind.PSI, m, n, gamma)
        want[m, n] = inner_product(f, f, FLAT, nodes)
    assert np.max(np.abs(table / want - 1.0)) <= 1e-13
    assert np.array_equal(norm_growth(gamma, 4, nodes), np.diag(table))


@pytest.mark.parametrize("gamma", [1e4, 1e8, -1e8])
def test_flat_norm_closed_form_at_large_coupling(gamma):
    # the per-pair rule loses 7e-9 relative at 1e4 and cannot be built at 1e8
    assert flat_norms(gamma, 2)[0, 0] == pytest.approx(math.hypot(1.0, gamma), rel=1e-13)


def _expand_amplitudes_per_pair(psi, gamma, cutoff, n_nodes):
    """The per-pair loop the tabulated expand_amplitudes replaced."""
    omega = math.hypot(1.0, gamma)
    a = 2.0 * omega
    mds = [
        [ModeFunction(ModeKind.PSI, m, n, gamma) for n in range(cutoff + 1)] for m in range(cutoff + 1)
    ]

    def bare(x, y):
        return psi(x, y) * np.exp(omega * (x * x + y * y) - 2.0 * gamma * x * y)

    coeffs = np.empty((cutoff + 1, cutoff + 1))
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            part = mds[m][n].poly_part
            coeffs[m, n] = integrate_coupled(lambda x, y: bare(x, y) * part(x, y), (a, a, 0.0), n_nodes)
    norm_sq = integrate_coupled(lambda x, y: bare(x, y) ** 2, (a, a, 0.0), n_nodes)

    def bare_residual(x, y):
        acc = bare(x, y)
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                acc = acc - coeffs[m, n] * mds[m][n].poly_part(x, y)
        return acc**2

    return coeffs, norm_sq, integrate_coupled(bare_residual, (a, a, 0.0), n_nodes)


@pytest.mark.parametrize("gamma, nodes", _CROSS)
def test_expand_amplitudes_matches_per_pair_loop(gamma, nodes):
    rng = np.random.default_rng(11)
    true = rng.standard_normal((5, 5))
    true /= np.linalg.norm(true)
    modes = [ModeFunction(ModeKind.PSI, m, n, gamma) for m, n in np.ndindex(true.shape)]

    def psi(x, y):
        return sum(true[f.m, f.n] * f.eval(x, y) for f in modes)

    got = expand_amplitudes(true, gamma, 4, nodes)
    coeffs, norm_sq, residual_sq = _expand_amplitudes_per_pair(psi, gamma, 4, nodes)
    assert np.max(np.abs(got.coeffs - coeffs)) <= 1e-13
    assert abs(got.norm_sq - norm_sq) <= 1e-13
    assert abs(got.residual_sq - residual_sq) <= 1e-13
