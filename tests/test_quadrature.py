"""Hermite evaluation, Gauss-Hermite rules and coupled 2D integration."""

import math

import numpy as np
import pytest

from pair_quadrature import integrate_coupled

from nhboson.quadrature import gauss_hermite, hermite_function_jet, hermite_scaled

SQRT_PI = math.sqrt(math.pi)


def _hermite_recurrence_oracle(n, t):
    """Independent direct recurrence for values and derivatives."""
    values = [1.0, 2.0 * t]
    for k in range(1, n + 1):
        values.append(2.0 * t * values[k] - 2.0 * k * values[k - 1])
    deriv = 2.0 * n * values[n - 1] if n else 0.0
    return values[n], deriv


def test_hermite_scaled_matches_raw():
    t = np.linspace(-3, 3, 11)
    for n in (0, 1, 5, 9):
        table = hermite_scaled(n, t)
        assert table.shape == (n + 1, t.size)
        for k, row in enumerate(table):
            raw, _ = _hermite_recurrence_oracle(k, t)
            scale = math.sqrt(2.0**k * math.factorial(k))
            assert np.allclose(row, raw / scale, rtol=1e-12)


def test_hermite_function_jet_orthonormal_and_ode():
    rule = gauss_hermite(96)
    t = rule.nodes
    for n in (0, 3, 8):
        psi, d1, d2 = hermite_function_jet(n, t)
        # weights carry e^{-t^2}; psi^2 includes it already, so divide out
        norm = np.dot(rule.weights, psi * psi * np.exp(t * t))
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(d2, (t * t - 2 * n - 1) * psi, atol=1e-12)
        # finite-difference check of the first derivative
        h = 1e-6
        fd = (hermite_function_jet(n, t + h)[0] - hermite_function_jet(n, t - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - d1)) < 1e-7


def test_rule_n1():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)


def test_rule_n2_closed_form():
    rule = gauss_hermite(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)


@pytest.mark.parametrize("n", [3, 16, 64, 257])
def test_rule_invariants(n):
    rule = gauss_hermite(n)
    assert abs(rule.weights.sum() / SQRT_PI - 1) < 1e-13
    assert np.all(rule.weights > 0)
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=0)  # exact symmetry


def _exact_weights(n, nodes):
    """w_i = 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x_i)^2) in mpmath at 60
    digits, at the exact zeros x_i of H_n (one Newton step from `nodes`)."""
    from mpmath import mp

    def hermite_pair(x):  # H_{n-1}(x), H_n(x)
        prev, cur = mp.mpf(1), 2 * x
        for k in range(1, n):
            prev, cur = cur, 2 * x * cur - 2 * k * prev
        return prev, cur

    with mp.workdps(60):
        scale = mp.mpf(2) ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / n**2
        out = []
        for node in nodes:
            x = mp.mpf(float(node))
            below, at = hermite_pair(x)
            x -= at / (2 * n * below)  # H_n' = 2n H_{n-1}
            out.append(scale / hermite_pair(x)[0] ** 2)
        return out


@pytest.mark.parametrize("n", [60, 94, 130, 200, 336, 512])
def test_weights_match_exact_christoffel_values(n):
    # the tail weights fall to 1e-300 and below; each must keep its
    # relative accuracy, which eigenvector-based weights lose from n ~ 90
    rule = gauss_hermite(n)
    half = slice(n // 2, None)  # the rule is exactly symmetric
    exact = _exact_weights(n, rule.nodes[half])
    worst = max(
        float(abs(w - e) / e) for w, e in zip(rule.weights[half].tolist(), exact) if e > 1e-300
    )
    assert worst <= 1e-12


def test_rule_matches_scipy_eigenvector_rule():
    from scipy.linalg import eigh_tridiagonal

    sizes = [*range(2, 129), *range(135, 513, 7), 512]
    for n in sizes:
        off = np.sqrt(np.arange(1, n) / 2.0)
        nodes, vecs = eigh_tridiagonal(np.zeros(n), off, lapack_driver="stebz")
        weights = SQRT_PI * vecs[0] ** 2
        rule = gauss_hermite(n)
        # the oracle's tail weights are wrong in relative terms, so the
        # weights are compared in absolute terms
        assert np.max(np.abs(rule.nodes - 0.5 * (nodes - nodes[::-1]))) <= 1e-13, n
        assert np.max(np.abs(rule.weights - 0.5 * (weights + weights[::-1]))) <= 1e-15 * SQRT_PI, n


def test_rule_bounds():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(513)


def _moment_oracle(k: int) -> float:
    """integral of t^k e^{-t^2}: (k-1)!! sqrt(pi) / 2^(k/2) for even k."""
    if k % 2:
        return 0.0
    acc = SQRT_PI
    for j in range(1, k // 2 + 1):
        acc *= (2 * j - 1) / 2.0
    return acc


@pytest.mark.parametrize("n", [8, 16])
def test_rule_exact_for_monomials(n):
    rule = gauss_hermite(n)
    for k in range(0, 2 * n):
        got = float(np.dot(rule.weights, rule.nodes**k))
        want = _moment_oracle(k)
        # odd moments vanish by cancellation of O(scale) terms, so measure
        # the error relative to the absolute-value moment
        scale = float(np.dot(rule.weights, np.abs(rule.nodes) ** k))
        assert abs(got - want) <= 1e-12 * max(scale, 1.0)


def test_quartic_moment_example():
    rule = gauss_hermite(16)
    got = float(np.dot(rule.weights, rule.nodes**4))
    assert got == pytest.approx(3 * SQRT_PI / 4, rel=1e-12)


def test_integrate_coupled_gaussian_mass():
    # area of a coupled Gaussian: pi / sqrt(AB - C^2)
    for gamma in (0.0, 0.3, 0.75):
        om = math.hypot(1.0, gamma)
        got = integrate_coupled(lambda x, y: np.ones_like(x), (2 * om, 2 * om, 2 * gamma), 16)
        assert got == pytest.approx(math.pi / 2, rel=1e-13)
    flat = integrate_coupled(lambda x, y: np.ones_like(x), (1.0, 1.0, 0.0), 8)
    assert flat == pytest.approx(math.pi, rel=1e-13)


def test_integrate_coupled_moment():
    got = integrate_coupled(lambda x, y: x * x, (1.0, 1.0, 0.0), 16)
    assert got == pytest.approx(math.pi / 2, rel=1e-13)


def test_integrate_coupled_symmetry_in_xy():
    exponent = (1.5, 1.5, 0.4)
    f_xy = integrate_coupled(lambda x, y: x * x * y**4 + x, exponent, 32)
    f_yx = integrate_coupled(lambda x, y: y * y * x**4 + y, exponent, 32)
    assert f_xy == pytest.approx(f_yx, rel=1e-12)


def test_integrate_coupled_rejects_nonintegrable():
    with pytest.raises(ValueError):
        integrate_coupled(lambda x, y: x, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        integrate_coupled(lambda x, y: x, (-1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        integrate_coupled(lambda x, y: x, (1.0, 2.0, 1.5))


def test_coupled_scheme_diagonalizes():
    # second moments of e^(-v.Mv), M = [[A, -C], [-C, B]], are
    # (pi / sqrt(det M)) M^-1 / 2; the mixed one is nonzero only if the rule
    # is rotated onto the principal axes with the right sign
    a, b, c = 2.0, 3.0, 0.6
    det = a * b - c * c
    mass = math.pi / math.sqrt(det)
    for f, want in [(lambda x, y: x * x, b), (lambda x, y: y * y, a), (lambda x, y: x * y, c)]:
        assert integrate_coupled(f, (a, b, c), 8) == pytest.approx(mass * want / (2 * det), rel=1e-13)


def test_doubling_convergence():
    # doubling the rule leaves a polynomial-weighted integral unchanged
    exponent = (2.2, 2.2, 1.0)
    f = lambda x, y: (x**3 - 2 * x * y + 0.5) * (y**2 + 1)  # noqa: E731
    a = integrate_coupled(f, exponent, 48)
    b = integrate_coupled(f, exponent, 96)
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))
