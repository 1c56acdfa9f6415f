"""Truncated matrices: structure, eigensolves, numerical range,
pseudospectra and accretivity."""

import math
import tracemalloc

import numpy as np
import pytest

from nhboson import fock


def _ladder_matrix(kind, n_max, gamma, theta=None):
    """Dense truncation filled entry by entry from the ladder action on
    |m,n>; the reference for the block-scattered FockMatrix.mat."""
    width = n_max + 1
    mat = np.zeros((width * width, width * width), dtype=complex if kind == "ReTheta" else float)
    sign = -1.0 if kind == "Hstar" else 1.0
    for m in range(width):
        for n in range(width):
            col = m * width + n
            diag = m + n + 1
            up = math.sqrt((m + 1) * (n + 1))
            down = math.sqrt(m * n)
            if kind == "ReTheta":
                mat[col, col] = diag * math.cos(theta)
                if m + 1 < width and n + 1 < width:
                    mat[(m + 1) * width + (n + 1), col] = 1j * gamma * math.sin(theta) * up
                if m and n:
                    mat[(m - 1) * width + (n - 1), col] = -1j * gamma * math.sin(theta) * down
            else:
                mat[col, col] = diag
                if m + 1 < width and n + 1 < width:
                    mat[(m + 1) * width + (n + 1), col] = -sign * gamma * up
                if m and n:
                    mat[(m - 1) * width + (n - 1), col] = sign * gamma * down
    return mat


def _mp_eig_lowest(n_max, gamma, count, dps):
    """Lowest eigenvalues by dense mpmath eig of each block: the reference
    for the Newton solve in lowest_eigenvalues_precise."""
    from mpmath import mp

    with mp.workdps(dps):
        g = mp.mpf(gamma)
        vals = []
        for d in range(n_max + 1):
            size = n_max + 1 - d
            block = mp.zeros(size, size)
            for k in range(size):
                block[k, k] = mp.mpf(d + 2 * k + 1)
            for k in range(size - 1):
                c = mp.sqrt(mp.mpf((d + k + 1) * (k + 1)))
                block[k + 1, k] = -g * c
                block[k, k + 1] = +g * c
            reals = sorted(mp.re(z) for z in mp.eig(block, left=False, right=False))
            vals.extend(reals if d == 0 else 2 * reals)
            vals.sort()
            if len(vals) >= count and vals[count - 1] < d + 2:
                break
        return vals[:count]


def _svd_sweep(n_max, gamma, zs):
    """sigma_min(zI - A_N) per point as the min over blocks of a batched
    dense SVD, skipping only blocks with d + 1 - Re z >= the running min:
    the reference for the inverse-iteration sweep."""
    zs = np.asarray(zs, dtype=complex).ravel()
    smin = np.full(zs.size, np.inf)
    for d in range(n_max + 1):
        todo = np.flatnonzero(d + 1.0 - zs.real < smin)
        if todo.size == 0:
            break
        block = fock._block_dense("H", n_max, gamma, d)
        shifted = zs[todo, None, None] * np.eye(block.shape[0]) - block
        smin[todo] = np.minimum(smin[todo], np.linalg.svd(shifted, compute_uv=False)[:, -1])
    return smin


def _hard_points(n_max, gamma):
    """Points where inverse iteration is hardest, folded to Im z >= 0:
    eigenvalues of low, middle and top blocks (sigma = 0 up to rounding),
    midpoints between adjacent real eigenvalues (sigma_1 ~ sigma_2, slowest
    convergence), the Re z = -1 and |Im z| = 4 edges of the default grid,
    points just right of a block's first diagonal entry d + 1 (a tiny
    leading pivot, which the LU must pivot away), and the size-1 block d = N
    at and next to its eigenvalue N + 1, where the pivot is exactly zero."""
    blocks = [fock._block_dense("H", n_max, gamma, d) for d in range(n_max + 1)]
    eigs = np.concatenate([np.linalg.eigvals(blocks[d]) for d in (0, 1, 2, n_max // 2, n_max - 1)])
    every = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    real = np.unique(every[np.abs(every.imag) < 1e-9].real)
    mids = 0.5 * (real[1:] + real[:-1])
    edges = np.concatenate([-1 + 1j * np.linspace(0, 4, 21), np.linspace(-1, 8, 46) + 4j])
    tiny_pivot = np.arange(1, 9) + 1e-13
    single = n_max + 1 + np.array([0, 1e-9, -0.5, 0.5j])
    zs = np.concatenate([eigs, mids[mids < 30], edges, tiny_pivot, single])
    return np.unique(zs.real + 1j * np.abs(zs.imag))


def test_smallest_truncation_is_scalar_one():
    fm = fock.build_matrix("H", 0, 0.7)
    assert fm.mat.shape == (1, 1)
    assert fm.mat[0, 0] == 1.0


def test_ladder_entry_example():
    # a*b* |0,0> = |1,1>, canonical sign carries -gamma
    fm = fock.build_matrix("H", 2, 0.5)
    assert fm.mat[fm.index(1, 1), fm.index(0, 0)] == pytest.approx(-0.5)
    assert fm.mat[fm.index(0, 0), fm.index(1, 1)] == pytest.approx(0.5)


def test_zero_coupling_is_diagonal():
    fm = fock.build_matrix("H", 4, 0.0)
    assert np.allclose(fm.mat, np.diag(fm.mat.diagonal()))
    want = sorted(m + n + 1 for m in range(5) for n in range(5))
    assert np.allclose(np.sort(fm.mat.diagonal()), want)


def test_diagonal_multiplicity_pattern():
    n_max = 5
    fm = fock.build_matrix("H", n_max, 0.0)
    vals = fock.eigenvalues(fm).real
    for k in range(n_max + 1):
        assert np.sum(np.isclose(vals, k + 1)) == k + 1


def test_trace_is_coupling_independent():
    n_max = 6
    want = sum(m + n + 1 for m in range(n_max + 1) for n in range(n_max + 1))
    for gamma in (0.0, 0.5, 0.9):
        fm = fock.build_matrix("H", n_max, gamma)
        assert np.trace(fm.mat) == pytest.approx(want, rel=1e-14)


def test_adjoint_matrix_is_transpose():
    a = fock.build_matrix("H", 5, 0.6).mat
    b = fock.build_matrix("Hstar", 5, 0.6).mat
    assert np.array_equal(b, a.T)


def test_block_permutation_is_exact_tridiagonal():
    fm = fock.build_matrix("H", 6, 0.5)
    total = 0
    for d in range(-6, 7):
        block = fm.block(d)
        total += block.shape[0]
        # tridiagonal: nothing beyond the first off-diagonals
        beyond = np.triu(block, 2) + np.tril(block, -2)
        assert not beyond.any()
        diag, sub, sup = fock._block_tridiag("H", 6, 0.5, d)
        assert np.allclose(block.diagonal(), diag)
        if block.shape[0] > 1:
            assert np.allclose(np.diag(block, -1), sub)
            assert np.allclose(np.diag(block, 1), sup)
    assert total == fm.dim


def test_block_diagonalization_is_permutation_similarity():
    """Reordering the basis by blocks turns the matrix exactly block
    diagonal: no couplings between different d sectors exist at all."""
    fm = fock.build_matrix("H", 5, 0.7)
    perm = []
    sizes = []
    for d in range(-5, 6):
        members = [fm.index(m, n) for m, n in fm.block_members(d)]
        perm.extend(members)
        sizes.append(len(members))
    permuted = fm.mat[np.ix_(perm, perm)]
    expected = np.zeros_like(permuted)
    lo = 0
    for d, size in zip(range(-5, 6), sizes):
        expected[lo : lo + size, lo : lo + size] = fm.block(d)
        lo += size
    assert np.array_equal(permuted, expected)


@pytest.mark.parametrize(
    "kind, theta", [("H", None), ("Hstar", None), ("ReTheta", 0.7), ("ReTheta", -1.2)]
)
def test_dense_matrix_matches_ladder_action(kind, theta):
    for n_max in range(8):
        for gamma in (0.0, 0.45, -0.7):
            got = fock.build_matrix(kind, n_max, gamma, theta).mat
            want = _ladder_matrix(kind, n_max, gamma, theta)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk_entries", [None, 2 * 64 * 3], ids=["default_chunks", "chunks_of_3"])
def test_rayleigh_quotients_match_per_vector_reference(monkeypatch, chunk_entries):
    # 700 vectors are one full chunk of 512 and a part, or 233 chunks of 3
    # and a part; either way the draws are the per-vector stream
    if chunk_entries:
        monkeypatch.setattr(fock, "_RAYLEIGH_CHUNK_ENTRIES", chunk_entries)
    mat = fock.build_matrix("H", 7, 0.45).mat
    rng = np.random.default_rng(11)
    want = []
    for _ in range(700):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v /= np.linalg.norm(v)
        want.append(np.vdot(v, mat @ v))
    got = fock.rayleigh_quotients(7, 0.45, 700, seed=11)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_block_eigenvalues_match_full_dense_solve():
    n_max, gamma = 8, 0.5
    fm = fock.build_matrix("H", n_max, gamma)
    by_blocks = fock.eigenvalues(fm)
    full = np.linalg.eigvals(fm.mat)
    assert by_blocks.shape == full.shape
    # multiset agreement: sorting ties of conjugate pairs may differ between
    # the two solvers, so compare via two-sided nearest-neighbour distance
    gap = np.abs(by_blocks[:, None] - full[None, :])
    assert gap.min(axis=0).max() < 1e-10
    assert gap.min(axis=1).max() < 1e-10


def test_eigenpair_backward_residuals():
    fm = fock.build_matrix("H", 12, 0.5)
    norm = np.linalg.norm(fm.mat, 2)
    res = fock.eigenvalue_residuals(fm)
    assert res.max() <= 1e-10 * norm


def test_lowest_eigenvalue_converges_to_ground_level():
    got = fock.eigenvalues(fock.build_matrix("H", 30, 0.5))[0]
    assert abs(got - math.sqrt(1.25)) < 1e-6
    assert abs(got.imag) < 1e-10


def test_lowest_eigenvalues_precise_monotone_truncation_error():
    targets = [1, 2, 2, 3, 3, 3]
    omega = math.sqrt(1.25)
    errs = []
    for n_max in (10, 20):
        vals = fock.lowest_eigenvalues_precise(n_max, 0.5, 6, dps=30)
        errs.append(max(abs(float(v) - t * omega) for v, t in zip(vals, targets)))
    assert errs[1] < errs[0]
    assert errs[0] < 1e-6


@pytest.mark.parametrize("n_max", [10, 20])
def test_precise_newton_roots_match_mp_eig(n_max):
    from mpmath import mp

    got = fock.lowest_eigenvalues_precise(n_max, 0.5, 6, dps=40)
    want = _mp_eig_lowest(n_max, 0.5, 6, dps=40)
    assert len(got) == len(want) == 6
    with mp.workdps(40):
        assert max(abs(a - b) for a, b in zip(got, want)) <= mp.mpf("1e-35")


def test_precise_raises_rather_than_return_unconverged(monkeypatch):
    # one Newton step from a float64 seed cannot reach the 1e-45 step size
    monkeypatch.setattr(fock, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(fock.SolverConvergenceError) as exc:
        fock.lowest_eigenvalues_precise(10, 0.5, 6)
    assert exc.value.block == 0
    monkeypatch.undo()
    # seeds that all lead to one root must not be reported as several roots
    monkeypatch.setattr(np.linalg, "eigvals", lambda block: np.full(len(block), 1.1 + 0j))
    with pytest.raises(fock.SolverConvergenceError, match="coincide"):
        fock.lowest_eigenvalues_precise(10, 0.5, 6)


def test_hermitian_part_is_hermitian():
    fm = fock.build_matrix("ReTheta", 5, 0.5, theta=0.7)
    assert np.array_equal(fm.mat, fm.mat.conj().T)


def test_hermitian_part_rejects_bad_theta():
    with pytest.raises(ValueError):
        fock.build_matrix("ReTheta", 3, 0.5, theta=math.pi / 2)
    with pytest.raises(ValueError):
        fock.support_energy_numeric(10, 0.5, -math.pi / 2)


def test_support_energy_closed_form_values():
    assert fock.support_energy_closed(0.5, 0.0) == pytest.approx(1.0)
    got = fock.support_energy_closed(0.75, math.pi / 4)
    assert got == pytest.approx(math.sqrt(0.21875), rel=1e-13)
    # no supporting line beyond arctan(1/gamma)
    assert fock.support_energy_closed(0.5, 1.2) is None


def test_support_energy_numeric_matches_min_eig_of_dense():
    n_max, gamma, theta = 8, 0.5, 0.6
    fm = fock.build_matrix("ReTheta", n_max, gamma, theta=theta)
    want = float(np.linalg.eigvalsh(fm.mat)[0])
    got = fock.support_energy_numeric(n_max, gamma, theta)
    assert got == pytest.approx(want, rel=1e-12)


def _min_block_eigenvalue(n_max, gamma, theta):
    fm = fock.build_matrix("ReTheta", n_max, gamma, theta=theta)
    return min(np.linalg.eigvalsh(fm.block(d))[0] for d in range(n_max + 1))


@pytest.mark.parametrize(
    "n_max, gamma, thetas",
    [
        (12, 0.5, np.linspace(-1.4, 1.4, 57)),
        (12, 0.5, [math.pi / 2 - 1e-6, -(math.pi / 2 - 1e-6), math.pi / 2 - 1e-3]),
        (9, 0.0, [-1.5, -0.3, 0.0, 0.7, 1.5]),  # diagonal blocks
        (0, 0.5, [-1.2, 0.0, 0.4]),  # one block, of size 1
        (1, 0.5, [-1.2, 0.0, 0.4]),  # blocks of size 2 and 1
        (10, 0.9, [0.85, 1.1, -1.4]),  # lowest eigenvalue near 0, and below it
        (20, 10.0, [-0.1, 0.05, 1.0]),
    ],
)
def test_support_energies_match_dense_eigvalsh(n_max, gamma, thetas):
    got = fock.support_energies(n_max, gamma, thetas)
    want = np.array([_min_block_eigenvalue(n_max, gamma, t) for t in thetas])
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert [fock.support_energy_numeric(n_max, gamma, t) for t in thetas] == got.tolist()


@pytest.mark.parametrize("n_max, gamma, theta", [(8, 0.5, 0.6), (8, 2.0, -1.3), (6, 0.0, 0.4), (15, 0.9, 1.5)])
def test_lowest_eigenvalues_match_eigvalsh_on_every_block(n_max, gamma, theta):
    # support energies only ever solve block 0: its lowest eigenvalue is at
    # most its first diagonal entry cos theta, so the (d + 2) cos theta exit
    # fires after it.  The solver itself must hold on every block
    fm = fock.build_matrix("ReTheta", n_max, gamma, theta=theta)
    for d in range(n_max + 1):
        diag, coupling_sq = fock._block_data(n_max, d)
        got = fock._lowest_eigenvalues(
            diag[:, None] * math.cos(theta), coupling_sq[:, None] * (gamma * math.sin(theta)) ** 2
        )
        assert got[0] == pytest.approx(np.linalg.eigvalsh(fm.block(d))[0], rel=1e-12)


def test_support_energies_bisect_where_newton_fails(monkeypatch):
    # a non-finite Newton step (as an exact zero pivot gives) is replaced by
    # the midpoint of the bracket, from which Newton still finds the lowest
    # eigenvalue
    pivots, calls = fock._pivots, []

    def faulty(*args):
        left, step = pivots(*args)
        calls.append(None)
        return left, (np.full_like(step, np.nan) if len(calls) == 2 else step)

    monkeypatch.setattr(fock, "_pivots", faulty)
    thetas = [-1.0, 0.0, 0.6]
    want = [_min_block_eigenvalue(12, 0.5, t) for t in thetas]
    assert np.allclose(fock.support_energies(12, 0.5, thetas), want, rtol=1e-12, atol=0)


def test_support_energies_raise_rather_than_return_unconverged(monkeypatch):
    with pytest.raises(fock.SolverConvergenceError):
        fock.support_energies(10, 1e200, [0.5])  # gamma^2 sin^2 overflows
    monkeypatch.setattr(fock, "_SUPPORT_MAX_STEPS", 2)
    with pytest.raises(fock.SolverConvergenceError):
        fock.support_energies(10, 0.5, [0.5])


def test_support_energy_truncation_monotone_from_above():
    # theta near the support-line cutoff keeps the truncation error above
    # the solver noise floor at these N (decay ratio ~0.585 per step)
    gamma, theta = 0.5, 1.05
    closed = fock.support_energy_closed(gamma, theta)
    vals = [fock.support_energy_numeric(n, gamma, theta) for n in (10, 20, 40)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] >= closed - 1e-12
    assert vals[2] - closed < 1e-6


def test_boundary_points_lie_on_hyperbola():
    gamma = 0.5
    thetas = np.linspace(-1.05, 1.05, 21)
    rows = fock.numerical_range_boundary(30, gamma, thetas)
    assert len(rows) == 21
    for p in rows:
        assert p.x >= 1.0 - 1e-12
        assert abs(p.y**2 - gamma**2 * (p.x**2 - 1.0)) < 1e-12
        assert abs(abs(p.envelope_y) - abs(p.y)) < 1e-10


def test_boundary_vertex_at_theta_zero():
    rows = fock.numerical_range_boundary(20, 0.5, [0.0])
    assert rows[0].e_numeric == pytest.approx(1.0, abs=1e-10)
    assert rows[0].e_closed == 1.0
    assert (rows[0].x, rows[0].y) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_boundary_degenerates_at_zero_coupling():
    rows = fock.numerical_range_boundary(10, 0.0, np.linspace(-1.2, 1.2, 9))
    for p in rows:
        assert p.x >= 1.0 - 1e-12
        assert abs(p.y) < 1e-12
        assert p.envelope_y == 0.0


def test_boundary_skips_missing_support_lines():
    rows = fock.numerical_range_boundary(10, 0.5, np.linspace(-1.4, 1.4, 57))
    kept = [p.theta for p in rows]
    theta_max = math.atan(1 / 0.5)
    assert all(abs(t) < theta_max for t in kept)
    assert len(kept) < 57


def test_rayleigh_quotients_inside_hyperbolic_region():
    gamma = 0.5
    pts = fock.rayleigh_quotients(20, gamma, 200, seed=3)
    x_excess, hyper_excess = fock.hyperbola_excess(pts, gamma)
    assert x_excess <= 1e-10
    assert hyper_excess <= 1e-8


def test_rayleigh_real_at_zero_coupling():
    pts = fock.rayleigh_quotients(10, 0.0, 50, seed=1)
    assert np.max(np.abs(pts.imag)) < 1e-12
    assert np.min(pts.real) >= 1.0 - 1e-12


def test_sigma_min_matches_brute_force():
    n_max, gamma = 7, 0.5
    fm = fock.build_matrix("H", n_max, gamma)
    rng = np.random.default_rng(11)
    zs = rng.standard_normal(10) * 4 + 2 + 1j * rng.standard_normal(10) * 3
    fast = fock.sigma_min_points(n_max, gamma, zs)
    eye = np.eye(fm.dim)
    brute = np.array(
        [np.linalg.svd(z * eye - fm.mat, compute_uv=False)[-1] for z in zs]
    )
    assert np.max(np.abs(fast - brute)) < 1e-12


def test_sigma_min_vanishes_at_eigenvalues():
    n_max, gamma = 10, 0.5
    fm = fock.build_matrix("H", n_max, gamma)
    vals = fock.eigenvalues(fm)
    norm = np.linalg.norm(fm.mat, 2)
    sig = fock.sigma_min_points(n_max, gamma, vals[:12])
    assert np.max(sig) <= 1e-8 * norm


def test_sigma_min_below_distance_to_spectrum():
    n_max, gamma = 10, 0.5
    vals = fock.eigenvalues(fock.build_matrix("H", n_max, gamma))
    rng = np.random.default_rng(5)
    zs = rng.standard_normal(40) * 5 + 3 + 1j * rng.standard_normal(40) * 3
    sig = fock.sigma_min_points(n_max, gamma, zs)
    dist = np.min(np.abs(zs[:, None] - vals[None, :]), axis=1)
    assert np.all(sig <= dist + 1e-8)


def test_sigma_min_conjugate_symmetry():
    zs = np.array([2 + 1.3j, 2 - 1.3j, 0.5 + 0.2j, 0.5 - 0.2j])
    sig = fock.sigma_min_points(12, 0.5, zs)
    assert sig[0] == sig[1]
    assert sig[2] == sig[3]


def test_sigma_min_invariant_under_evaluation_order():
    rng = np.random.default_rng(2)
    zs = rng.standard_normal(30) * 4 + 2 + 1j * rng.standard_normal(30)
    order = rng.permutation(30)
    direct = fock.sigma_min_points(10, 0.5, zs)
    shuffled = fock.sigma_min_points(10, 0.5, zs[order])
    assert np.array_equal(direct[order], shuffled)


def test_left_halfplane_resolvent_bound_point():
    sig = fock.sigma_min_points(40, 0.5, [-1.0 + 0j])[0]
    assert sig >= 1.0


def test_pseudospectrum_grid_properties():
    grid = fock.pseudospectrum(8, 0.5, (-1, 6), (-2, 2), 41, 31)
    assert grid.sigma_min.shape == (31, 41)
    assert np.all(grid.sigma_min >= 0)
    assert np.all(np.isfinite(grid.sigma_min))
    # conjugate symmetry of the grid values
    assert np.array_equal(grid.sigma_min, grid.sigma_min[::-1, :])
    vals = fock.eigenvalues(fock.build_matrix("H", 8, 0.5))
    pts = grid.points().ravel()
    dist = np.min(np.abs(pts[:, None] - vals[None, :]), axis=1)
    assert np.all(grid.sigma_min.ravel() <= dist + 1e-8)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_sigma_min_raises_instead_of_returning_non_finite(gamma):
    with pytest.raises(fock.SolverConvergenceError):
        fock.pseudospectrum(4, gamma, (-1, 1), (-1, 1), 5)


def test_pseudospectrum_rejects_huge_resolution():
    with pytest.raises(ValueError):
        fock.pseudospectrum(5, 0.5, (-1, 1), (-1, 1), 513)


def test_accretivity_report():
    report = fock.accretivity_check(20, 0.5, [-0.5, -2 + 3j], n_vectors=100, seed=0)
    assert report.passed
    for z, sig, bound, ok in report.rows:
        assert ok and sig >= bound
    with pytest.raises(ValueError):
        fock.accretivity_check(10, 0.5, [0.5])


def test_spectrum_rows_pairing():
    rows = fock.spectrum_rows(10, 0.5)
    assert rows[0][0] == 0
    assert rows[0][3] < 1e-8  # ground level reproduced
    omega = math.sqrt(1.25)
    assert rows[0][2] == pytest.approx(omega, rel=1e-14)


def test_spectrum_rows_never_builds_the_dense_matrix():
    # the dense (N+1)^2 x (N+1)^2 float64 matrix at N = 60 would take 111 MB
    tracemalloc.start()
    try:
        rows = fock.spectrum_rows(60, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 61 * 61
    assert peak < 20e6


@pytest.mark.parametrize("gamma", [0.5, 1.5])
def test_inverse_iteration_matches_svd_sweep_at_hard_points(monkeypatch, gamma):
    n_max = 40
    zs = _hard_points(n_max, gamma)
    reference = _svd_sweep(n_max, gamma, zs)
    factored = []
    original = fock._gttrf
    monkeypatch.setattr(fock, "_gttrf", lambda *a: factored.append(a[-1].size) or original(*a))
    fast = fock._sigma_min_blockwise(n_max, gamma, zs)
    assert sum(factored) > zs.size  # the inverse iteration did run
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - reference)) < 1e-12
    # every batch through the inverse iteration, down to the size-1 block
    # and its exactly zero pivot at z = N + 1
    monkeypatch.setattr(fock, "_INVIT_MIN_WORK", 0)
    forced = fock._sigma_min_blockwise(n_max, gamma, zs)
    assert np.all(np.isfinite(forced))
    assert np.max(np.abs(forced - reference)) < 1e-12
    assert forced[zs == n_max + 1] == 0.0


def test_inverse_iteration_cap_falls_back_to_svd(monkeypatch):
    n_max, gamma = 40, 0.5
    zs = _hard_points(n_max, gamma)
    reference = _svd_sweep(n_max, gamma, zs)
    solved = []
    original = fock._sigma_min_svd
    monkeypatch.setattr(fock, "_sigma_min_svd", lambda b, z, d: solved.append(z.size) or original(b, z, d))
    monkeypatch.setattr(fock, "_INVIT_MIN_WORK", 0)
    monkeypatch.setattr(fock, "_INVIT_STEPS_PER_ROW", 1e-9)  # a cap of one step
    capped = fock._sigma_min_blockwise(n_max, gamma, zs)
    assert sum(solved) > zs.size  # points reached the cap and went to the SVD
    assert np.max(np.abs(capped - reference)) < 1e-12


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_inverse_iteration_hands_non_finite_blocks_to_svd(monkeypatch, gamma):
    monkeypatch.setattr(fock, "_INVIT_MIN_WORK", 0)
    with pytest.raises(fock.SolverConvergenceError):
        fock.pseudospectrum(6, gamma, (-1, 8), (-4, 4), 21)


def test_pseudospectrum_peak_memory():
    # a 2048-point SVD stack of 81 x 81 complex blocks alone would take 215 MB
    tracemalloc.start()
    try:
        grid = fock.pseudospectrum(80, 0.5, (-1, 8), (-4, 4), 41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grid.sigma_min))
    assert peak < 60e6


def test_z_from_string():
    assert fock.z_from_string("-2+3i") == -2 + 3j
    assert fock.z_from_string("-0.5") == -0.5
    assert fock.z_from_string("-inf") == complex(-math.inf)
    assert fock.z_from_string("-infinity+2i") == complex(-math.inf, 2.0)
    with pytest.raises(ValueError):
        fock.z_from_string("nope+i*")


def test_block_members_bounds():
    fm = fock.build_matrix("H", 3, 0.1)
    with pytest.raises(IndexError):
        fm.block_members(4)
    with pytest.raises(IndexError):
        fm.index(4, 0)
