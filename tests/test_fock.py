"""Truncated matrices: structure, eigensolves, numerical range,
pseudospectra and accretivity."""

import cmath
import math
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhboson import fock


def _ladder_matrix(kind, n_max, gamma, theta=None):
    """Dense truncation of H, H* ("Hstar") or Re(e^{-i theta} H)
    ("ReTheta") filled entry by entry from the ladder action on |m,n>; the
    reference for the d-blocks and the support-energy blocks."""
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


def _block_index(n_max, d):
    """Lexicographic indices m (N + 1) + n of the pairs (m, n) with
    m - n = d, ordered by the pair minimum."""
    members = [(k + d, k) if d >= 0 else (k, k - d) for k in range(n_max + 1 - abs(d))]
    return [m * (n_max + 1) + n for m, n in members]


def _block(mat, n_max, d):
    """Block d of a dense lexicographic truncation."""
    idx = _block_index(n_max, d)
    return mat[np.ix_(idx, idx)]


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
    the reference for the Lanczos sweep.  Each point's zI - B_d is formed
    already multiplied by a power of two 2^-k, exactly, with k such that
    every entry is below 1, so that huge entries neither overflow nor make
    LAPACK print; sigma_min is then divided by 2^-k."""
    zs = np.asarray(zs, dtype=complex).ravel()
    smin = np.full(zs.size, np.inf)
    for d in range(n_max + 1):
        todo = np.flatnonzero(d + 1.0 - zs.real < smin)
        if todo.size == 0:
            break
        block = fock._block_dense(n_max, gamma, d)
        # every entry of zI - B_d is at most 2 max(|z|, max |B_ij|)
        scale = np.ldexp(1.0, -1 - np.frexp(np.maximum(np.abs(zs[todo]), np.abs(block).max()))[1])
        shifted = (scale * zs[todo])[:, None, None] * np.eye(block.shape[0]) - scale[:, None, None] * block
        smin[todo] = np.minimum(smin[todo], np.linalg.svd(shifted, compute_uv=False)[:, -1] / scale)
    return smin


def _hard_points(n_max, gamma):
    """Points where the Lanczos iteration is hardest, folded to Im z >= 0:
    eigenvalues of low, middle and top blocks (sigma = 0 up to rounding),
    midpoints between adjacent real eigenvalues (sigma_1 ~ sigma_2, slow
    convergence), the Re z = -1 and |Im z| = 4 edges of the default grid,
    points just right of a block's first diagonal entry d + 1 (a tiny
    leading pivot, which the LU must pivot away), and the size-1 block d = N
    at and next to its eigenvalue N + 1, which the sweep takes in closed
    form."""
    blocks = [fock._block_dense(n_max, gamma, d) for d in range(n_max + 1)]
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
    mat = _ladder_matrix("H", 0, 0.7)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == 1.0


def test_ladder_entry_example():
    # a*b* |0,0> = |1,1>, canonical sign carries -gamma; |m,n> is row 3m + n
    mat = _ladder_matrix("H", 2, 0.5)
    assert mat[4, 0] == pytest.approx(-0.5)
    assert mat[0, 4] == pytest.approx(0.5)


def test_zero_coupling_is_diagonal():
    mat = _ladder_matrix("H", 4, 0.0)
    assert np.allclose(mat, np.diag(mat.diagonal()))
    want = sorted(m + n + 1 for m in range(5) for n in range(5))
    assert np.allclose(np.sort(mat.diagonal()), want)


def test_diagonal_multiplicity_pattern():
    n_max = 5
    vals = fock.eigenvalues(n_max, 0.0).real
    for k in range(n_max + 1):
        assert np.sum(np.isclose(vals, k + 1)) == k + 1


def test_trace_is_coupling_independent():
    n_max = 6
    want = sum(m + n + 1 for m in range(n_max + 1) for n in range(n_max + 1))
    for gamma in (0.0, 0.5, 0.9):
        assert np.trace(_ladder_matrix("H", n_max, gamma)) == pytest.approx(want, rel=1e-14)


def test_adjoint_matrix_is_transpose():
    assert np.array_equal(_ladder_matrix("Hstar", 5, 0.6), _ladder_matrix("H", 5, 0.6).T)


def test_block_permutation_is_exact_tridiagonal():
    mat = _ladder_matrix("H", 6, 0.5)
    order, diag, off = fock._tridiagonal(6, 0.5)
    assert np.array_equal(np.sort(order), np.arange(49))
    permuted = mat[np.ix_(order, order)]
    # tridiagonal: nothing beyond the first off-diagonals, and off is 0
    # between blocks
    assert not (np.triu(permuted, 2) + np.tril(permuted, -2)).any()
    assert np.array_equal(permuted.diagonal(), diag)
    assert np.array_equal(np.diag(permuted, 1), off)
    assert np.array_equal(np.diag(permuted, -1), -off)


def test_block_diagonalization_is_permutation_similarity():
    """Reordering the basis by blocks turns the matrix exactly block
    diagonal: no couplings between different d sectors exist at all."""
    mat = _ladder_matrix("H", 5, 0.7)
    perm = [i for d in range(-5, 6) for i in _block_index(5, d)]
    assert np.array_equal(fock._tridiagonal(5, 0.7)[0], perm)
    permuted = mat[np.ix_(perm, perm)]
    expected = np.zeros_like(permuted)
    lo = 0
    for d in range(-5, 6):
        size = 6 - abs(d)
        expected[lo : lo + size, lo : lo + size] = _block(mat, 5, d)
        lo += size
    assert np.array_equal(permuted, expected)


def test_matrix_norm_is_the_largest_block_norm():
    # criterion 06's ||A_N||_2: the permuted matrix is block diagonal, and
    # blocks d and -d are equal; the last bit may differ from the dense SVD
    for n_max in range(9):
        for gamma in (0.0, 0.45, -0.7):
            by_blocks = max(np.linalg.norm(fock._block_dense(n_max, gamma, d), 2) for d in range(n_max + 1))
            dense = np.linalg.norm(_ladder_matrix("H", n_max, gamma), 2)
            assert by_blocks == pytest.approx(dense, rel=1e-14)


@pytest.mark.parametrize(
    "kind, theta", [("H", None), ("Hstar", None), ("ReTheta", 0.7), ("ReTheta", -1.2)]
)
def test_dense_matrix_matches_ladder_action(kind, theta):
    # permuted to its d-blocks, H is the tridiagonal T of _tridiagonal, H* is
    # T^T, and Re(e^{-i theta} H) is (e^{-i theta} T + e^{i theta} T^T) / 2
    for n_max in range(8):
        for gamma in (0.0, 0.45, -0.7):
            order, diag, off = fock._tridiagonal(n_max, gamma)
            t = np.diag(diag) + np.diag(off, 1) - np.diag(off, -1)
            if kind == "H":
                got = t
            elif kind == "Hstar":
                got = t.T
            else:
                got = (cmath.exp(-1j * theta) * t + cmath.exp(1j * theta) * t.T) / 2
            want = _ladder_matrix(kind, n_max, gamma, theta)[np.ix_(order, order)]
            assert got.dtype == want.dtype
            assert np.allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("chunk_entries", [None, 2 * 64 * 3], ids=["default_chunks", "chunks_of_3"])
def test_rayleigh_quotients_match_per_vector_reference(monkeypatch, chunk_entries):
    # 700 vectors are one full chunk of 512 and a part, or 233 chunks of 3
    # and a part; either way the draws are the per-vector stream
    if chunk_entries:
        monkeypatch.setattr(fock, "_RAYLEIGH_CHUNK_ENTRIES", chunk_entries)
    mat = _ladder_matrix("H", 7, 0.45)
    rng = np.random.default_rng(11)
    want = []
    for _ in range(700):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v /= np.linalg.norm(v)
        want.append(np.vdot(v, mat @ v))
    got = fock.rayleigh_quotients(7, 0.45, 700, seed=11)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_max", [0, 1])
def test_rayleigh_quotients_of_the_smallest_truncations(n_max):
    # N = 0: one row, no (m + 1, n + 1) pair, A = [1]; N = 1: one pair
    mat = _ladder_matrix("H", n_max, 0.45)
    rng = np.random.default_rng(5)
    want = []
    for _ in range(40):
        v = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
        want.append(np.vdot(v, mat @ v) / np.vdot(v, v).real)
    got = fock.rayleigh_quotients(n_max, 0.45, 40, seed=5)
    if n_max == 0:
        assert np.all(got == 1.0)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_block_eigenvalues_match_full_dense_solve():
    n_max, gamma = 8, 0.5
    by_blocks = fock.eigenvalues(n_max, gamma)
    full = np.linalg.eigvals(_ladder_matrix("H", n_max, gamma))
    assert by_blocks.shape == full.shape
    # multiset agreement: sorting ties of conjugate pairs may differ between
    # the two solvers, so compare via two-sided nearest-neighbour distance
    gap = np.abs(by_blocks[:, None] - full[None, :])
    assert gap.min(axis=0).max() < 1e-10
    assert gap.min(axis=1).max() < 1e-10


def test_lowest_eigenvalue_converges_to_ground_level():
    got = fock.eigenvalues(30, 0.5)[0]
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


@pytest.mark.parametrize("n_max", [10, 20])
def test_precise_counts_that_cut_through_degenerate_levels(n_max):
    # levels 1, 2, 2, 3, 3, 3, 4, 4 (times sqrt(1 + g^2)): counts 2, 4, 5
    # and 7 split a level between the refined and the dropped seeds, and
    # level 3 comes from blocks 0 and 2 at once
    from mpmath import mp

    want = _mp_eig_lowest(n_max, 0.5, 8, dps=40)  # the lowest 8 start every shorter list
    for count in range(1, 9):
        got = fock.lowest_eigenvalues_precise(n_max, 0.5, count, dps=40)
        assert len(got) == count
        with mp.workdps(40):
            assert max(abs(a - b) for a, b in zip(got, want)) <= mp.mpf("1e-35"), count


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_precise_margin_keeps_near_ties_across_blocks(monkeypatch, gamma):
    # at N = 30 level 4 of blocks 1 and 3 agree to far below float64
    # rounding, and count 7 splits it: without the margin the float64
    # order picks block 3's copy where the refined order wants block 1's,
    # 3e-30 off at gamma = 0.5.  An infinite margin refines every seed of
    # every block, the solve before any seed was dropped
    got = fock.lowest_eigenvalues_precise(30, gamma, 7, dps=40)
    monkeypatch.setattr(fock, "_PRECISE_SEED_MARGIN", math.inf)
    assert got == fock.lowest_eigenvalues_precise(30, gamma, 7, dps=40)


def test_precise_refines_only_the_seeds_that_reach_the_result(monkeypatch):
    # at N = 20 the six lowest are levels 1 and 3 of block 0, 2 of block 1
    # and 3 of block 2: four roots, where blocks 0..2 hold 18 seeds
    newton_root, seeds = fock._newton_root, []

    def recording(diag, pair_products, seed, tol, d):
        seeds.append((d, seed))
        return newton_root(diag, pair_products, seed, tol, d)

    monkeypatch.setattr(fock, "_newton_root", recording)
    fock.lowest_eigenvalues_precise(20, 0.5, 6, dps=40)
    assert [d for d, _ in seeds] == [0, 0, 1, 2]
    assert all(seed.imag == 0 for _, seed in seeds)


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


def test_hermitian_part_rejects_bad_theta():
    with pytest.raises(ValueError):
        fock.support_energies(3, 0.5, [0.2, math.pi / 2])
    with pytest.raises(ValueError):
        fock.support_energies(10, 0.5, -math.pi / 2)
    with pytest.raises(ValueError):
        fock.numerical_range_boundary(10, 0.5, [math.pi / 2])


def test_support_energy_closed_form_values():
    boundary = fock.numerical_range_boundary(4, 0.5, [0.0, 1.2])
    # no supporting line beyond arctan(1/gamma)
    assert boundary.theta.tolist() == [0.0]
    assert boundary.e_closed[0] == pytest.approx(1.0)
    got = fock.numerical_range_boundary(4, 0.75, [math.pi / 4]).e_closed[0]
    assert got == pytest.approx(math.sqrt(0.21875), rel=1e-13)


def test_support_energy_numeric_matches_min_eig_of_dense():
    n_max, gamma, theta = 8, 0.5, 0.6
    want = float(np.linalg.eigvalsh(_ladder_matrix("ReTheta", n_max, gamma, theta))[0])
    got = fock.support_energies(n_max, gamma, [theta])[0]
    assert got == pytest.approx(want, rel=1e-12)


def _min_block_eigenvalue(n_max, gamma, theta):
    mat = _ladder_matrix("ReTheta", n_max, gamma, theta)
    return min(np.linalg.eigvalsh(_block(mat, n_max, d))[0] for d in range(n_max + 1))


@pytest.mark.parametrize(
    "n_max, gamma, thetas",
    [
        # every theta lies in cos theta >= |gamma sin theta|, |theta| <= atan(1/|gamma|)
        (12, 0.5, np.linspace(-1.1, 1.1, 57)),
        (12, 0.5, [math.atan(2) - 1e-15, -(math.atan(2) - 1e-15), math.atan(2) - 1e-3]),  # at the edge
        (9, 0.0, [-1.5, -0.3, 0.0, 0.7, 1.5]),  # diagonal blocks
        (0, 0.5, [-1.1, 0.0, 0.4]),  # one block, of size 1
        (1, 0.5, [-1.1, 0.0, 0.4]),  # blocks of size 2 and 1
        (10, 0.9, [0.8379, 0.83, -0.8379]),  # lowest eigenvalue near 0
        (20, 10.0, [-0.0996, 0.05, 0.0]),
    ],
)
def test_support_energies_match_dense_eigvalsh(n_max, gamma, thetas):
    got = fock.support_energies(n_max, gamma, thetas)
    want = np.array([_min_block_eigenvalue(n_max, gamma, t) for t in thetas])
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert [fock.support_energies(n_max, gamma, [t])[0] for t in thetas] == got.tolist()


@pytest.mark.parametrize("n_max, gamma, theta", [(8, 0.5, 0.6), (8, 2.0, -1.3), (6, 0.0, 0.4), (15, 0.9, 1.5)])
def test_lowest_eigenvalues_match_eigvalsh_on_every_block(n_max, gamma, theta):
    # support energies solve block 0 alone; the solver itself must hold on
    # every block, and outside cos theta >= |gamma sin theta| too
    mat = _ladder_matrix("ReTheta", n_max, gamma, theta)
    for d in range(n_max + 1):
        diag, coupling_sq = fock._block_data(n_max, d)
        got, _ = fock._lowest_eigenvalues(
            diag[:, None] * math.cos(theta), coupling_sq[:, None] * (gamma * math.sin(theta)) ** 2
        )
        assert got[0] == pytest.approx(np.linalg.eigvalsh(_block(mat, n_max, d))[0], rel=1e-12)


@pytest.mark.parametrize(
    "gamma, theta, blocks",
    [(10.0, -0.1, []), (0.5, 0.6, [0])],  # cos < |g sin| is refused, cos >= |g sin| solves block 0
)
def test_support_energies_skip_blocks_only_where_block_0_is_proven_lowest(monkeypatch, gamma, theta, blocks):
    lowest, seen = fock._lowest_eigenvalues, []

    def recording(diag, off_sq, *bound):
        seen.append(40 + 1 - diag.shape[0])  # block d has 41 - d rows
        return lowest(diag, off_sq, *bound)

    monkeypatch.setattr(fock, "_lowest_eigenvalues", recording)
    if not blocks:
        with pytest.raises(ValueError, match="cos theta"):
            fock.support_energies(40, gamma, [theta])
        assert seen == []
        return
    got = fock.support_energies(40, gamma, [theta])
    assert seen == blocks
    assert got[0] == pytest.approx(_min_block_eigenvalue(40, gamma, theta), rel=1e-12)


@pytest.mark.parametrize("gamma", [0.5, -0.9, 3.0, 10.0, 1e-3, 1e200])
def test_numerical_range_boundary_never_asks_outside_the_block_0_region(monkeypatch, gamma):
    # at the edge theta = +-atan(1/|gamma|) the closed form and the region
    # check round differently unless they share one predicate
    edges = [sign * math.atan(1 / abs(gamma)) for sign in (1, -1)]
    thetas = [float(t) for e in edges for t in (e, np.nextafter(e, 0), np.nextafter(e, 2 * e))]
    asked = []
    support_energies = fock.support_energies
    monkeypatch.setattr(fock, "support_energies", lambda *a: asked.append(a[2]) or support_energies(*a))
    boundary = fock.numerical_range_boundary(6, gamma, thetas)
    assert boundary.theta.tolist() == [t for t in thetas if fock._support_gap(gamma, t) > 0]
    assert len(asked) == 1
    for theta in thetas:
        if fock._support_gap(gamma, theta) < 0:
            with pytest.raises(ValueError):
                support_energies(6, gamma, [theta])
        else:
            assert support_energies(6, gamma, [theta])[0] >= 0


def test_support_energy_batch_stays_c_contiguous(monkeypatch):
    # _pivots loops over rows, each a vector over the batch's points; once
    # converged points leave, the compacted batch must still be row-major
    pivots, calls = fock._pivots, []

    def recording(diag, off_sq, lam):
        calls.append((diag.shape, diag.flags.c_contiguous and off_sq.flags.c_contiguous))
        return pivots(diag, off_sq, lam)

    monkeypatch.setattr(fock, "_pivots", recording)
    fock.support_energies(40, 10.0, np.linspace(-0.999, 0.999, 300) * math.atan(0.1))
    shapes = [shape for shape, _ in calls]
    assert any(a[0] == b[0] and a[1] > b[1] > 1 for a, b in zip(shapes, shapes[1:]))  # a batch compacted
    assert all(contiguous for _, contiguous in calls)


def test_support_energies_start_at_the_closed_form(monkeypatch):
    # the untruncated support energy sqrt(gap) bounds the truncated one from
    # below, so Newton starts within the truncation error: at N = 60 two
    # pivot passes settle numrange's default 57-theta grid, which takes 8
    # from the Gershgorin bound
    pivots, calls = fock._pivots, []

    def recording(diag, off_sq, lam):
        calls.append(lam.size)
        return pivots(diag, off_sq, lam)

    monkeypatch.setattr(fock, "_pivots", recording)
    boundary = fock.numerical_range_boundary(60, 0.5, np.linspace(-1.4, 1.4, 57))
    assert len(calls) <= 3, calls
    assert sum(calls) <= 2 * boundary.theta.size, calls
    assert np.all(boundary.e_numeric >= boundary.e_closed - 1e-15)


def test_support_energies_bisect_where_newton_fails(monkeypatch):
    # a non-finite Newton step (as an exact zero pivot gives) is replaced by
    # the midpoint of the bracket, from which Newton still finds the lowest
    # eigenvalue
    pivots, calls = fock._pivots, []

    def faulty(*args):
        left, step, weight = pivots(*args)
        calls.append(None)
        return left, (np.full_like(step, np.nan) if len(calls) == 2 else step), weight

    monkeypatch.setattr(fock, "_pivots", faulty)
    thetas = [-1.0, 0.0, 0.6]
    want = [_min_block_eigenvalue(12, 0.5, t) for t in thetas]
    assert np.allclose(fock.support_energies(12, 0.5, thetas), want, rtol=1e-12, atol=0)


def test_support_energies_raise_rather_than_return_unconverged(monkeypatch):
    # gamma^2 sin^2 would overflow here, but the theta is outside the region
    with pytest.raises(ValueError, match="cos theta"):
        fock.support_energies(10, 1e200, [0.5])
    # inside it |gamma sin theta| <= cos theta, so nothing overflows
    closed = math.sqrt(fock._support_gap(1e200, 1e-201))
    assert closed - 1e-12 <= fock.support_energies(10, 1e200, [1e-201])[0] <= 1.0
    # from the closed form two steps settle this theta; one cannot
    monkeypatch.setattr(fock, "_SUPPORT_MAX_STEPS", 1)
    with pytest.raises(fock.SolverConvergenceError):
        fock.support_energies(10, 0.5, [0.5])


def test_support_energy_truncation_monotone_from_above():
    # theta near the support-line cutoff keeps the truncation error above
    # the solver noise floor at these N (decay ratio ~0.585 per step)
    gamma, theta = 0.5, 1.05
    closed = math.sqrt(fock._support_gap(gamma, theta))
    vals = [fock.support_energies(n, gamma, [theta])[0] for n in (10, 20, 40)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] >= closed - 1e-12
    assert vals[2] - closed < 1e-6


def test_boundary_points_lie_on_hyperbola():
    gamma = 0.5
    thetas = np.linspace(-1.05, 1.05, 21)
    b = fock.numerical_range_boundary(30, gamma, thetas)
    assert b.theta.size == 21
    assert np.all(b.x >= 1.0 - 1e-12)
    assert np.all(np.abs(b.y**2 - gamma**2 * (b.x**2 - 1.0)) < 1e-12)
    assert np.all(np.abs(np.abs(b.envelope_y) - np.abs(b.y)) < 1e-10)


def test_boundary_vertex_at_theta_zero():
    b = fock.numerical_range_boundary(20, 0.5, [0.0])
    assert b.e_numeric[0] == pytest.approx(1.0, abs=1e-10)
    assert b.e_closed[0] == 1.0
    assert (b.x[0], b.y[0]) == pytest.approx((1.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, -0.9, 3.0, -7.25, 1e150])
def test_boundary_keeps_the_plain_formula_where_it_is_finite(gamma):
    # the power-of-two scaling of 1 + gamma^2 changes no bit of E'
    thetas = np.linspace(-1.0, 1.0, 41) * math.atan(1 / abs(gamma))
    b = fock.numerical_range_boundary(6, gamma, thetas)
    for theta, e_closed, x, y in zip(*(col.tolist() for col in (b.theta, b.e_closed, b.x, b.y))):
        deriv = -math.sin(theta) * math.cos(theta) * (1.0 + gamma * gamma) / e_closed
        assert x == e_closed * math.cos(theta) - deriv * math.sin(theta)
        assert y == e_closed * math.sin(theta) + deriv * math.cos(theta)


@pytest.mark.parametrize("gamma", [1e200, 1e300, -1e300])
def test_boundary_at_huge_gamma_matches_extended_precision(gamma):
    # 1 + gamma^2 overflows here; on the kept theta |gamma sin theta| <= cos
    # theta, and E' is finite
    from mpmath import mp, mpf

    thetas = [0.0, 0.3 / gamma, -0.9 / gamma, 0.999 / gamma]
    b = fock.numerical_range_boundary(4, gamma, thetas)
    assert b.theta.tolist() == thetas
    assert np.all(np.isfinite(b.x) & np.isfinite(b.y) & np.isfinite(b.envelope_y))
    with mp.workdps(40):
        for theta, got_x, got_y in zip(thetas, b.x.tolist(), b.y.tolist()):
            t, g = mpf(theta), mpf(gamma)
            e = mp.sqrt(mp.cos(t) ** 2 - (g * mp.sin(t)) ** 2)
            deriv = -mp.sin(t) * mp.cos(t) * (1 + g * g) / e
            x, y = e * mp.cos(t) - deriv * mp.sin(t), e * mp.sin(t) + deriv * mp.cos(t)
            assert got_x == pytest.approx(float(x), rel=1e-13)
            assert got_y == pytest.approx(float(y), rel=1e-13)


def test_boundary_degenerates_at_zero_coupling():
    b = fock.numerical_range_boundary(10, 0.0, np.linspace(-1.2, 1.2, 9))
    assert b.theta.size == 9
    assert np.all(b.x >= 1.0 - 1e-12)
    assert np.all(np.abs(b.y) < 1e-12)
    assert np.all(b.envelope_y == 0.0)


def test_boundary_skips_missing_support_lines():
    kept = fock.numerical_range_boundary(10, 0.5, np.linspace(-1.4, 1.4, 57)).theta
    theta_max = math.atan(1 / 0.5)
    assert np.all(np.abs(kept) < theta_max)
    assert kept.size < 57


def _boundary_by_theta(gamma, thetas):
    """(theta, E_closed, x, y, envelope_y) per theta with a supporting line:
    the per-theta math loop the boundary columns replaced."""
    k = max(math.frexp(gamma)[1], 0)
    scaled = math.ldexp(1.0, -2 * k) + math.ldexp(gamma, -k) ** 2
    rows = []
    for theta in thetas:
        gap = math.cos(theta) ** 2 - min(abs(gamma * math.sin(theta)), 2.0) ** 2
        if gap > 0:
            e = math.sqrt(gap)
            deriv = math.ldexp(-math.sin(theta) * math.cos(theta) * scaled / e, 2 * k)
            x = e * math.cos(theta) - deriv * math.sin(theta)
            y = e * math.sin(theta) + deriv * math.cos(theta)
            rows.append((theta, e, x, y, math.copysign(abs(gamma) * math.sqrt(max(x * x - 1.0, 0.0)), y)))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("gamma", [0.5, -7.25])
def test_boundary_columns_follow_the_per_theta_loop(gamma):
    thetas = np.linspace(-1.4, 1.4, 100_000)
    b = fock.numerical_range_boundary(4, gamma, thetas)
    theta, e_closed, x, y, envelope_y = _boundary_by_theta(gamma, thetas.tolist())
    assert np.array_equal(b.theta, theta)
    assert np.array_equal(b.e_numeric, fock.support_energies(4, gamma, theta))
    for got, want in ((b.e_closed, e_closed), (b.x, x), (b.y, y)):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    # sqrt(x^2 - 1) magnifies x's last-bit changes near the vertex x = 1, so
    # envelope_y is held to the loop's formula at the column's own x and y
    assert b.envelope_y.tolist() == [
        math.copysign(abs(gamma) * math.sqrt(max(u * u - 1.0, 0.0)), v) for u, v in zip(b.x.tolist(), b.y.tolist())
    ]
    assert np.all(np.abs(b.envelope_y - envelope_y) <= 1e-14 * np.maximum(np.abs(envelope_y), 1.0))


def test_boundary_without_supporting_lines_is_six_empty_columns():
    b = fock.numerical_range_boundary(4, 100.0, np.linspace(0.5, 1.0, 5))
    assert len(b) == 6
    assert all(col.dtype == np.float64 and col.shape == (0,) for col in b)


def test_rayleigh_quotients_inside_hyperbolic_region():
    gamma = 0.5
    pts = fock.rayleigh_quotients(20, gamma, 200, seed=3)
    x_excess, hyper_excess = fock.hyperbola_excess(pts, gamma)
    assert x_excess <= 1e-10
    assert hyper_excess <= 1e-8


def _direct_excess(pts, gamma):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(pts.imag**2 - gamma * gamma * (pts.real**2 - 1.0))


@pytest.mark.parametrize("gamma", [0.5, -3.0, 1e-300, 1e100, -1e150])
def test_hyperbola_excess_keeps_the_direct_bits_where_finite(gamma):
    pts = fock.rayleigh_quotients(12, gamma, 200, seed=3)
    got = fock.hyperbola_excess(pts, gamma)[1]
    want = _direct_excess(pts, gamma)
    assert math.isfinite(want) and got == want


@pytest.mark.parametrize("gamma", [1e155, -1e200, 1e300])
def test_hyperbola_excess_is_minus_inf_where_the_direct_form_is_nan(gamma):
    # y^2 and g^2 (x^2 - 1) both overflow, and inf - inf is NaN; every
    # Rayleigh quotient is finite and inside the region
    pts = fock.rayleigh_quotients(12, gamma, 200, seed=3)
    assert np.all(np.isfinite(pts)) and math.isnan(_direct_excess(pts, gamma))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fock.hyperbola_excess(pts, gamma) == (fock.hyperbola_excess(pts, gamma)[0], -math.inf)


def test_rayleigh_real_at_zero_coupling():
    pts = fock.rayleigh_quotients(10, 0.0, 50, seed=1)
    assert np.max(np.abs(pts.imag)) < 1e-12
    assert np.min(pts.real) >= 1.0 - 1e-12


def test_sigma_min_matches_brute_force():
    n_max, gamma = 7, 0.5
    mat = _ladder_matrix("H", n_max, gamma)
    rng = np.random.default_rng(11)
    zs = rng.standard_normal(10) * 4 + 2 + 1j * rng.standard_normal(10) * 3
    fast = fock.sigma_min_points(n_max, gamma, zs)
    eye = np.eye(mat.shape[0])
    brute = np.array([np.linalg.svd(z * eye - mat, compute_uv=False)[-1] for z in zs])
    assert np.max(np.abs(fast - brute)) < 1e-12


def test_sigma_min_vanishes_at_eigenvalues():
    n_max, gamma = 10, 0.5
    vals = fock.eigenvalues(n_max, gamma)
    norm = np.linalg.norm(_ladder_matrix("H", n_max, gamma), 2)
    sig = fock.sigma_min_points(n_max, gamma, vals[:12])
    assert np.max(sig) <= 1e-8 * norm


def test_sigma_min_below_distance_to_spectrum():
    n_max, gamma = 10, 0.5
    vals = fock.eigenvalues(n_max, gamma)
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
    grid = fock.pseudospectrum(8, 0.5, (-1, 6), (-2, 2), 41)
    assert grid.sigma_min.shape == (41, 41)
    assert np.all(grid.sigma_min >= 0)
    assert np.all(np.isfinite(grid.sigma_min))
    # conjugate symmetry of the grid values
    assert np.array_equal(grid.sigma_min, grid.sigma_min[::-1, :])
    vals = fock.eigenvalues(8, 0.5)
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
    assert report.resolvent_ok and report.rayleigh_ok
    for z, sig, bound, ok in report.rows:
        assert ok and sig >= bound
    with pytest.raises(ValueError):
        fock.accretivity_check(10, 0.5, [0.5])


def test_spectrum_rows_pairing():
    vals, closed = fock.spectrum_levels(10, 0.5)
    assert vals.shape == closed.shape == (121,)
    assert abs(vals[0] - closed[0]) < 1e-8  # ground level reproduced
    omega = math.sqrt(1.25)
    assert closed[0] == pytest.approx(omega, rel=1e-14)


@pytest.mark.parametrize("n_max, gamma", [(0, 0.5), (6, 0.5), (30, -3.0), (40, 1e-8), (80, 0.5)])
def test_closed_levels_are_the_sorted_python_levels(n_max, gamma):
    omega = math.hypot(1.0, gamma)
    want = sorted((1 + m + n) * omega for m in range(n_max + 1) for n in range(n_max + 1))
    assert fock.spectrum_levels(n_max, gamma)[1].tolist() == want


@pytest.mark.parametrize(
    "call, check",
    [
        (lambda: fock.spectrum_levels(60, 0.5), lambda out: out[0].size == out[1].size == 61 * 61),
        (lambda: fock.rayleigh_quotients(60, 0.5, 20, seed=1), lambda out: out.shape == (20,)),
        (
            lambda: fock.accretivity_check(60, 0.5, [-1.0], n_vectors=20),
            lambda out: out.resolvent_ok and out.rayleigh_ok,
        ),
        (
            lambda: fock.pseudospectrum(60, 0.5, (-1, 8), (-4, 4), 9),
            lambda out: out.sigma_min.shape == (9, 9),
        ),
        (
            lambda: fock.numerical_range_boundary(60, 0.5, [-0.5, 0.0, 0.5]),
            lambda out: out.theta.size == 3,
        ),
    ],
    ids=["spectrum_levels", "rayleigh_quotients", "accretivity_check", "pseudospectrum", "numerical_range_boundary"],
)
def test_entry_points_never_build_the_dense_matrix(call, check):
    # every command's library path works on the d-blocks alone; the dense
    # (N+1)^2 x (N+1)^2 float64 matrix at N = 60 would take 111 MB
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check(out)
    assert peak < 20e6


def _assert_matches_svd_sweep(monkeypatch, n_max, gamma, zs):
    """sigma_min agrees with the dense SVD sweep at 1e-12; returns it with
    the blocks d that Lanczos factored, one per point and block."""
    reference = _svd_sweep(n_max, gamma, zs)
    factored = []
    original = fock._gttrf
    monkeypatch.setattr(
        fock, "_gttrf", lambda diag, off, z: factored.extend([n_max + 1 - diag.size] * z.size) or original(diag, off, z)
    )
    got = fock._sigma_min_blockwise(n_max, gamma, zs)
    assert len(factored) >= zs.size  # the Lanczos iteration did run, at every point
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - reference)) < 1e-12
    return got, factored


@pytest.mark.parametrize("gamma", [0.5, 1.5])
def test_inverse_iteration_matches_svd_sweep_at_hard_points(monkeypatch, gamma):
    n_max = 40
    zs = _hard_points(n_max, gamma)
    got, factored = _assert_matches_svd_sweep(monkeypatch, n_max, gamma, zs)
    assert max(factored) > 0  # Lanczos solved blocks past d = 0 too
    # down to the size-1 block, exactly 0 at its entry z = N + 1, which the
    # sweep takes in closed form; Lanczos there meets an exactly zero pivot
    # and takes the pivot bound 2 / max |inv_d| = 0
    assert got[zs == n_max + 1] == 0.0
    assert fock._sigma_min_block(n_max, gamma, n_max, np.array([n_max + 1 + 0j])).tolist() == [0.0]


def test_lanczos_matches_svd_sweep_in_the_far_field(monkeypatch):
    # far right of the spectrum sigma_1 / sigma_2 is near 1, where a power
    # iteration stalls and Lanczos needs the most steps.  Block 0 holds the
    # minimum there, and the inertia certificate proves it at every d >= 1
    # point d + 1 - Re z leaves open, so Lanczos solves block 0 alone
    proven, above = [], fock._sigma_min_above
    monkeypatch.setattr(fock, "_sigma_min_above", lambda *a: proven.append(above(*a)) or proven[-1])
    re, im = np.linspace(100, 150, 21), np.linspace(0, 20, 5)
    _, factored = _assert_matches_svd_sweep(monkeypatch, 40, 0.5, (re[None, :] + 1j * im[:, None]).ravel())
    assert set(factored) == {0}
    assert proven and all(np.all(p) for p in proven)


@pytest.mark.parametrize("ray", [1 + 0.5j, -(1 - 1j)])
@pytest.mark.parametrize("n_max, top", [(3, 307.75), (40, 68.75)])
def test_sigma_min_matches_svd_sweep_far_from_the_spectrum(n_max, top, ray):
    # z = 10^e ray, e = 0, 0.25, ..., top.  Far from the diagonal Lanczos's
    # start weights are nearly uniform and C's eigenvalues lie within a
    # relative 2 ||B|| / |z| of each other, so the start's Rayleigh quotient
    # meets the residual bound at k = 0, where T_0's one Ritz value passes
    # the gap guard vacuously; accepted there, it missed by up to 3.4e-3.
    # N = 40 goes on past e = 68.75 below
    e = np.arange(0.0, top + 0.125, 0.25)
    zs = 10.0**e * ray
    got = fock.sigma_min_points(n_max, 0.5, zs)
    reference = _svd_sweep(n_max, 0.5, zs)
    assert np.max(np.abs(got - reference) / reference) < 1e-12


@pytest.mark.parametrize("ray", [1 + 0.5j, -(1 - 1j)])
def test_sigma_min_matches_svd_sweep_to_the_end_of_the_float_range(ray):
    # N = 40, e = 69, 69.25, ..., 307.75, as above.  There beta^2 of the
    # unscaled Lanczos recurrence was subnormal and missed 1e-12 by up to
    # 5e-11 at e ~ 70, and past e ~ 81 it underflowed.  From e ~ 16 on,
    # Weyl's bound settles every block; the reference SVD is prescaled
    n_max = 40
    e = np.arange(69.0, 307.75 + 0.125, 0.25)
    zs = 10.0**e * ray
    got = fock.sigma_min_points(n_max, 0.5, zs)
    reference = _svd_sweep(n_max, 0.5, zs)
    assert np.max(np.abs(got - reference) / reference) < 1e-12


def test_first_lanczos_step_stops_only_with_a_proven_gap(monkeypatch):
    # at step 0 the residual rule needs lambda_2(C) <= lam / 2 proven by
    # Weyl from the diagonal.  Near an entry of a nearly diagonal block that
    # holds, and one step (two solves) settles the point; far from the
    # diagonal every |z - a_k| is about the same, nothing is proven, and
    # Lanczos goes on to the 2 x 2 guard
    solves, original = [], fock._gttrs
    monkeypatch.setattr(fock, "_gttrs", lambda factors, b: solves.append(b.shape[1]) or original(factors, b))
    for n_max, gamma, z, one_step in ((20, 1e-300, 1.025, True), (3, 0.5, 1e8 * (1 + 0.5j), False)):
        solves.clear()
        got = fock._sigma_min_block(n_max, gamma, 0, np.array([z], dtype=complex))
        assert (len(solves) == 2) == one_step
        assert abs(got[0] / _svd_sweep(n_max, gamma, [z])[0] - 1) < 1e-12


def test_far_field_grid_takes_weyls_bound(monkeypatch):
    # at |z| ~ 1e100 every block's Gershgorin radius is far below 4e-15
    # |z - a_k|, so the sweep takes min_k |z - a_k| for each of the 501
    # blocks, with no certificate and no Lanczos.  The nearest level is
    # 2N + 1 = 1001.  The dense SVD took 81 s on these 16 points
    def unused(*args):
        raise AssertionError("a far-field block reached the certificate or Lanczos")

    monkeypatch.setattr(fock, "_sigma_min_block", unused)
    monkeypatch.setattr(fock, "_sigma_min_above", unused)
    start = time.perf_counter()
    grid = fock.pseudospectrum(500, 0.5, (1e100, 2e100), (0, 1e100), 4)
    assert time.perf_counter() - start < 5.0
    exact = np.abs(grid.points() - 1001)
    assert np.max(np.abs(grid.sigma_min - exact) / exact) <= fock._INVIT_RTOL


@pytest.mark.parametrize(
    "n_max, gamma, zs",
    [
        (7, 1e100, [1 + 1j, -3 + 2j, 2.5]),
        (1, 1e148, [1.25, 1.2620985236397697, 5 + 1j]),
        (1, -9.362784894367247e147, [1.2620985236397697 + 2.4414298559608707e-08j]),
    ],
)
def test_lanczos_scale_and_breakdown_at_huge_gamma(n_max, gamma, zs):
    # block 0 at N = 7, gamma = 1e100 has sigma_min ~ 1e100 though z is
    # within 2 of its diagonal: a scale taken from min |z - a_k| would leave
    # 1 / sigma^2 at 1e-200, where beta^2 underflows; scaled by the LU's
    # pivots it is at least 1/8.  Block 0 at N = 1 is 2 x 2 with its two
    # singular values equal to rounding: the start is an eigenvector of C,
    # beta_0^2 is 0 or subnormal, and Lanczos on the normalized noise that
    # follows keeps successive Ritz values 1e-13 apart up to the step cap.
    # That is breakdown, and lambda is taken there
    zs = np.asarray(zs, dtype=complex)
    got = fock._sigma_min_block(n_max, gamma, 0, zs)
    block = fock._block_dense(n_max, gamma, 0)
    scale = np.ldexp(1.0, -np.frexp(np.abs(block).max())[1])  # exact: SVD entries below 1
    shifted = (scale * zs)[:, None, None] * np.eye(n_max + 1) - scale * block
    want = np.linalg.svd(shifted, compute_uv=False)[:, -1] / scale
    assert np.max(np.abs(got / want - 1)) < 1e-12


@pytest.mark.parametrize("gamma", [1e155, 1e200, 1e307, -1e307])
def test_sigma_min_points_do_not_warn_at_huge_gamma(gamma):
    zs = np.array([-1.0, -2 + 3j, 5j, -1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = fock.sigma_min_points(7, gamma, zs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fock.sigma_min_points(7, gamma, zs)
    assert np.array_equal(got, want) and np.all(np.isfinite(got))


@settings(max_examples=300, deadline=None)
@given(
    n_max=st.integers(0, 12),
    gamma=st.floats(allow_nan=False, allow_infinity=False),
    re=st.floats(min_value=-8e307, max_value=8e307),
    im=st.floats(min_value=-8e307, max_value=8e307),
)
def test_sigma_min_matches_prescaled_svd_sweep(n_max, gamma, re, im):
    # any N <= 12, any finite gamma and any z of finite modulus.  Every value
    # returned agrees with the prescaled dense SVD at 1e-12 relative wherever
    # eps ||M|| / sigma < 1e-13, with ||M|| <= |z| + 2N + 1 + 2 |gamma| N,
    # and to rounding, 1e-12 sigma + 1000 eps ||M||, everywhere.  It raises
    # only for |gamma| > 1e150, as where a block entry overflows
    z = complex(re, im)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # blocks overflow past |gamma| ~ 1e307
            got = fock.sigma_min_points(n_max, gamma, [z])[0]
    except fock.SolverConvergenceError:
        assert abs(gamma) > 1e150
        return
    with np.errstate(over="ignore"):
        if not all(np.all(np.isfinite(fock._block_tridiag(n_max, gamma, d)[1])) for d in range(n_max + 1)):
            return  # no reference; the value rests on d + 1 - Re z alone
    reference = _svd_sweep(n_max, gamma, [z])[0]
    # eps ||M||, its halves summed so that nothing overflows
    rounding = 2 * np.finfo(float).eps * (abs(z) / 2 + n_max + 0.5 + n_max * abs(gamma))
    assert abs(got - reference) <= 1e-12 * reference + 1000 * rounding
    if rounding < 1e-13 * reference:
        assert abs(got - reference) <= 1e-12 * reference


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.5, -1.5, 10.0])
@pytest.mark.parametrize("n_max", [5, 20])
def test_support_energy_newton_start_is_below_block_0(n_max, gamma):
    # support_energies starts Newton at sqrt(gap), the su(1,1) lowest
    # eigenvalue of the untruncated block 0; the truncated block's lowest
    # eigenvalue of Re(e^{-i theta} B_0) is at least that, at 16 theta
    # evenly spaced strictly inside cos theta > |gamma sin theta|
    block = fock._block_dense(n_max, gamma, 0)
    for theta in math.atan2(1.0, abs(gamma)) * (np.arange(16) - 7.5) / 8:
        hermitian = (cmath.exp(-1j * theta) * block + cmath.exp(1j * theta) * block.T) / 2
        start = math.sqrt(fock._support_gap(gamma, np.array(theta)))
        scale = 1 + np.max(np.abs(hermitian).sum(axis=1))
        assert np.linalg.eigvalsh(hermitian)[0] >= start - fock._SUPPORT_RTOL * scale


@pytest.mark.parametrize(
    "n_max, re_range, im_range, resolution, max_pairs, max_columns",
    [
        (40, (-1, 8), (-4, 4), 81, 3_800, 41_450),
        (40, (-50, 200), (-100, 100), 101, 5_600, 210_000),
        (160, (-20, 20), (-60, 60), 41, 895, 43_200),
    ],
    ids=["benchmark", "wide", "tall"],
)
def test_skip_bounds_and_start_vector_cut_lanczos_work(
    monkeypatch, n_max, re_range, im_range, resolution, max_pairs, max_columns
):
    # the skip tests (d + 1 - Re z and the inertia certificate) leave
    # Lanczos, at N = 40, 3 743 point-block pairs and 40 634 solved columns
    # on the benchmark's grid and 5 475 pairs and 204 406 columns on the
    # wide one; on the tall N = 160 grid, where the certificate alone rules
    # out the high blocks, 877 pairs and 42 294 columns.  The counts are
    # exact and deterministic; the bounds sit about 2% above them.  With
    # successive Ritz values' agreement as the only stop rule the benchmark
    # grid takes 46 942 columns: Paige's residual beta_k |s_k| stops a
    # converged point one step (two solves) earlier
    pairs, columns = [], []
    block, gttrs = fock._sigma_min_block, fock._gttrs
    monkeypatch.setattr(fock, "_sigma_min_block", lambda n, g, d, z: pairs.append(z.size) or block(n, g, d, z))
    monkeypatch.setattr(fock, "_gttrs", lambda f, b: columns.append(b.shape[1]) or gttrs(f, b))
    grid = fock.pseudospectrum(n_max, 0.5, re_range, im_range, resolution)
    assert np.all(np.isfinite(grid.sigma_min))
    assert sum(pairs) <= max_pairs
    assert sum(columns) <= max_columns


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.5, -1.5, 3.0, 10.0])
def test_inertia_certificate_never_claims_more_than_the_svd(gamma):
    # sigma_min(zI - B_d) > s is proven at no point where the dense SVD puts
    # sigma_min at or below s, even by 1e-12.  At s = sigma_min / 2 it is
    # proven at most points; at gamma = 0 it misses those within 1e-6 of a
    # diagonal entry, where sigma_min^2 is below the rounding margin
    rng = np.random.default_rng(17)
    proven = tried = 0
    for _ in range(80):
        n_max = int(rng.integers(0, 61))
        d = int(rng.integers(0, n_max + 1))
        diag, off = fock._block_tridiag(n_max, gamma, d)
        width = 3 * n_max + 10
        wide = rng.uniform(-width, width, 60) + 1j * rng.uniform(-width, width, 60)
        near = rng.choice(diag, 20) + rng.uniform(-1e-6, 1e-6, 20) + 1j * rng.uniform(-1e-6, 1e-6, 20)
        zs = np.concatenate([wide, near])
        block = fock._block_dense(n_max, gamma, d)
        sigma = np.linalg.svd(zs[:, None, None] * np.eye(diag.size) - block, compute_uv=False)[:, -1]
        for floor in (sigma * (1 + 1e-12), sigma * (1 + 1e-6), 2 * sigma):
            assert not np.any(fock._sigma_min_above(diag, off, zs, floor))
        proven += np.count_nonzero(fock._sigma_min_above(diag, off, zs, sigma / 2))
        tried += zs.size
    assert proven > 0.75 * tried


def test_inertia_certificate_cuts_lanczos_pairs(monkeypatch):
    # the benchmark's grids: d + 1 - Re z alone leaves Lanczos 18 603
    # point-block pairs, and 13 892 of the 14 421 at d >= 1 do not lower the
    # minimum.  On the far grid block 0 holds the minimum at every point,
    # and every d >= 1 pair is proven away
    pairs, block = [], fock._sigma_min_block
    monkeypatch.setattr(fock, "_sigma_min_block", lambda n, g, d, z: pairs.append((d, z.size)) or block(n, g, d, z))
    for n_max, resolution in ((40, 81), (80, 41)):
        fock.pseudospectrum(n_max, 0.5, (-1, 8), (-4, 4), resolution)
    assert sum(size for _, size in pairs) <= 5_000
    pairs.clear()
    fock.pseudospectrum(40, 0.5, (100, 150), (-20, 20), 41)
    assert pairs and all(d == 0 for d, _ in pairs)


def test_inertia_certificate_proves_nothing_non_finite(monkeypatch):
    # past |z| ~ 1e154 A = M^H M overflows, and a floor may be infinite or
    # its square overflow: no warning, and no certificate there
    tested, above = [], fock._sigma_min_above
    monkeypatch.setattr(fock, "_sigma_min_above", lambda diag, *a: tested.append(diag.size) or above(diag, *a))
    diag, off = fock._block_tridiag(10, 0.5, 1)
    zs = np.array([1e200, -1e300 + 1e300j, 1e160j, 3, 3, 3, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = fock.sigma_min_points(10, 0.5, [1e200, -1e300 + 1e300j, 3])
        proven = above(diag, off, zs, np.array([1.0, 1.0, 1.0, np.inf, np.nan, 1e300, 0.1]))
    assert np.all(np.isfinite(sig))
    assert tested and min(tested) < 11  # a block d >= 1 was tested
    assert proven.tolist() == [False] * 6 + [True]


def _last_component_sq(diag, off_sq):
    """Squared last component of the lowest unit eigenvector of each
    column's tridiagonal, by eigh."""
    out = []
    for col in range(diag.shape[1]):
        off = np.sqrt(off_sq[:, col])
        _, vecs = np.linalg.eigh(np.diag(diag[:, col]) + np.diag(off, 1) + np.diag(off, -1))
        out.append(vecs[-1, 0] ** 2)
    return np.array(out)


def test_pivot_weight_is_the_last_eigenvector_component(monkeypatch):
    # s_k^2 = -1 / (q_last sum q_j'/q_j) from the LDL^T pivots, as the
    # residual stop reads it, against eigh on random tridiagonals and on the
    # -T_k that Lanczos solves at a point of the N = 40 grid
    rng = np.random.default_rng(11)
    for size in range(1, 13):
        diag = rng.standard_normal((size, 50))
        off_sq = rng.standard_normal((size - 1, 50)) ** 2
        _, got = fock._lowest_eigenvalues(diag, off_sq)
        assert np.max(np.abs(got - _last_component_sq(diag, off_sq))) < 1e-12
    ritz, lowest = [], fock._lowest_eigenvalues

    def recording(diag, off_sq, lower):
        values, weights = lowest(diag, off_sq, lower)
        ritz.append((diag, off_sq, weights))
        return values, weights

    monkeypatch.setattr(fock, "_lowest_eigenvalues", recording)
    fock.sigma_min_points(40, 0.5, [3.5 + 1j])
    assert len(ritz) >= 3
    for diag, off_sq, got in ritz:
        assert np.max(np.abs(got - _last_component_sq(diag, off_sq))) < 1e-12


@pytest.mark.parametrize("gamma", [1e-3, 1e-300])
def test_lanczos_matches_svd_sweep_near_normal(gamma):
    # at gamma = 1e-3 the blocks are nearly normal and sigma_1 ~ sigma_2 over
    # much of the window; steeper start weights miss here by 1e-12.  At
    # gamma = 1e-300 off^2 underflows and levels tie across blocks, which
    # the certificate cannot separate; Weyl's bound settles those pairs
    n_max = 30
    grid = fock.pseudospectrum(n_max, gamma, (-5, 40), (-30, 30), 31)
    reference = _svd_sweep(n_max, gamma, grid.points()).reshape(grid.sigma_min.shape)
    assert np.max(np.abs(grid.sigma_min - reference)) < 1e-12


def test_start_weights_neither_overflow_nor_underflow():
    # every weight (m / |z - a_k|)^4 is in [0, 1]; |z - a_k|^-4 alone
    # divides by zero at z = 3, a diagonal entry, and underflows to a zero
    # vector at z = 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = fock.sigma_min_points(10, 0.5, [1e100, 3, 1e-200j])
    assert np.all(np.isfinite(sig))


def test_inverse_iteration_batch_stays_c_contiguous(monkeypatch):
    # _gttrs and _pivots loop over rows, each a vector over the batch's
    # points; once converged points leave, the compacted Lanczos vectors
    # and recurrence must still be row-major
    calls, ritz = [], []
    original, lowest = fock._gttrs, fock._lowest_eigenvalues

    def recording(factors, b):
        contiguous = b.flags.c_contiguous and all(part.flags.c_contiguous for part in factors)
        calls.append((b.shape, contiguous))
        return original(factors, b)

    def recording_ritz(diag, off_sq, lower=None):
        ritz.append(diag.flags.c_contiguous and off_sq.flags.c_contiguous)
        return lowest(diag, off_sq, lower)

    monkeypatch.setattr(fock, "_gttrs", recording)
    monkeypatch.setattr(fock, "_lowest_eigenvalues", recording_ritz)
    fock.sigma_min_points(40, 0.5, _hard_points(40, 0.5))
    shapes = [shape for shape, _ in calls]
    assert any(a[0] == b[0] and a[1] > b[1] for a, b in zip(shapes, shapes[1:]))  # a batch compacted
    assert all(contiguous for _, contiguous in calls)
    assert ritz and all(ritz)


def test_inverse_iteration_cap_raises(monkeypatch):
    # with no point ever converged, a batch runs Lanczos for 2 size steps
    # (two solves each) and then raises rather than return an unconverged
    # value; block 0 is the first block solved.  Past convergence, lost
    # orthogonality adds near-equal copies of lambda_max, on which Newton
    # converges only linearly, so the Ritz solves get more steps here: no
    # point leaves early by a failed Ritz solve
    n_max, gamma = 20, 0.5
    solves, gttrs = Counter(), fock._gttrs
    monkeypatch.setattr(fock, "_gttrs", lambda f, b: solves.update([len(b)]) or gttrs(f, b))  # solves per size
    monkeypatch.setattr(fock, "_INVIT_RTOL", -1.0)
    monkeypatch.setattr(fock, "_SUPPORT_MAX_STEPS", 1000)
    with pytest.raises(fock.SolverConvergenceError, match="block d=0") as raised:
        fock._sigma_min_blockwise(n_max, gamma, _hard_points(n_max, gamma))
    assert raised.value.block == 0
    assert dict(solves) == {n_max + 1: 4 * (n_max + 1)}  # one batch, 2 size steps


def test_singular_points_take_the_pivot_bound(monkeypatch):
    # Lanczos settles every point of the default-window grids.  A point
    # singular to working precision does not settle: at z = 5, the double
    # eigenvalue of block 3 = [[4, 1], [-1, 6]] at N = 4, the LU's second
    # pivot is exactly 0, and the bound sqrt(2) min |u_kk| <= 2 / max |inv_d|
    # is exactly 0.  At gamma = 1e-300, z = 8 is a diagonal entry of block 7,
    # whose pivots reach 1e-300: the Ritz estimate overflows, and the bound,
    # 5.7e-300, is the value
    for n_max, resolution in ((40, 81), (80, 41)):
        assert np.all(np.isfinite(fock.pseudospectrum(n_max, 0.5, (-1, 8), (-4, 4), resolution).sigma_min))
    assert fock._sigma_min_block(4, 0.5, 3, np.array([5 + 0j])).tolist() == [0.0]
    zs = fock.eigenvalues(4, 0.5)
    assert np.max(np.abs(fock.sigma_min_points(4, 0.5, zs) - _svd_sweep(4, 0.5, zs))) < 1e-12
    got = fock._sigma_min_block(20, 1e-300, 7, np.array([8 + 0j]))
    assert 0 < got[0] <= np.finfo(float).eps * (8 + 34 + 2 * np.abs(fock._block_tridiag(20, 1e-300, 7)[1]).max())
    assert abs(fock.sigma_min_points(20, 1e-300, [8])[0] - _svd_sweep(20, 1e-300, [8])[0]) < 1e-299


def test_lowest_eigenvalues_mark_failed_points_alone():
    # a column with a non-finite Gershgorin bound gets a non-finite value
    # and leaves the other columns as they are
    diag = np.array([[1.0, 2.0, 1.0, np.nan], [3.0, 5.0, 1.0, 1.0]])
    off_sq = np.array([[2.0, 0.5, np.inf, 1.0]])
    with np.errstate(all="ignore"):
        got, _ = fock._lowest_eigenvalues(diag, off_sq)
    for col in range(2):
        block = np.diag(diag[:, col]) + np.sqrt(off_sq[0, col]) * (np.eye(2, k=1) + np.eye(2, k=-1))
        assert got[col] == pytest.approx(np.linalg.eigvalsh(block)[0], rel=1e-14)
    assert not np.any(np.isfinite(got[2:]))


def test_starved_ritz_solves_raise(monkeypatch):
    # with too few Newton steps some Ritz solves fail: those points are not
    # singular, so the block raises rather than return a value for them
    n_max, gamma = 40, 0.5
    zs = _hard_points(n_max, gamma)
    monkeypatch.setattr(fock, "_SUPPORT_MAX_STEPS", 3)
    with pytest.raises(fock.SolverConvergenceError, match="unsettled"):
        fock._sigma_min_blockwise(n_max, gamma, zs)


@pytest.mark.parametrize("count", [0, 1, 7, 100_000])
def test_batches_cover_the_count_within_the_budget(monkeypatch, count):
    # in order, each index once, each batch within the byte budget; a count
    # of 0 gives no batch at all, so callers need no guard
    monkeypatch.setattr(fock, "_SIGMA_MIN_BATCH_BYTES", 2**16)
    parts = fock._batches(count, 128)
    assert len(parts) == -(-count * 128 // 2**16)
    assert all(part.size * 128 <= 2**16 for part in parts)
    np.testing.assert_array_equal(np.concatenate(parts or [np.arange(0)]), np.arange(count))


def test_support_energies_are_formed_in_batches(monkeypatch):
    # unbatched, block 0's diagonal and couplings are (rows x thetas)
    # matrices: 8 bytes x 101 rows per theta each, and _pivots copies one
    n_max = 100
    monkeypatch.setattr(fock, "_SIGMA_MIN_BATCH_BYTES", 2**18)
    peaks = []
    for count in (2_000, 8_000):
        thetas = np.linspace(-1.1, 1.1, count)
        tracemalloc.start()
        try:
            fock.support_energies(n_max, 0.5, thetas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * (n_max + 1) * 6_000 / 4


@pytest.mark.parametrize("gamma", [0.5, 0.0])
def test_skip_passes_are_formed_in_batches(monkeypatch, gamma):
    # at gamma = 0.5 every block visited takes the inertia certificate, a
    # row-by-row pass over per-point vectors, in batches; at gamma = 0 every
    # block visited is diagonal and takes the distance to its nearest entry
    # by a sorted lookup, a few per-point vectors with no (points x rows)
    # array.  Either way the heap grows only by the per-point vectors of the
    # sweep, far below 16 bytes x 101 rows per point
    n_max = 100
    monkeypatch.setattr(fock, "_SIGMA_MIN_BATCH_BYTES", 2**18)
    monkeypatch.setattr(fock, "_sigma_min_block", lambda n, g, d, z: np.full(z.size, 1e300))  # visit every block
    peaks = []
    for count in (2_000, 8_000):
        zs = np.linspace(-1, 8, count) + 1j
        tracemalloc.start()
        try:
            fock._sigma_min_blockwise(n_max, gamma, zs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * (n_max + 1) * 6_000 / 4


@pytest.mark.parametrize(
    "n_max, re_range, im_range, resolution",
    [
        (0, (-2, 3), (-1, 1), 11),
        (20, (-1, 8), (-4, 4), 41),
        (40, (100, 150), (-20, 20), 41),
        (160, (-1, 400), (-30, 30), 41),
        (3, (-1, 9), (-1, 1), 21),
    ],
)
def test_zero_coupling_sigma_min_is_the_distance_to_the_levels(
    monkeypatch, n_max, re_range, im_range, resolution
):
    # at gamma = 0 every block is diagonal and the levels of A_N are
    # 1 + m + n = 1, ..., 2N + 1: sigma_min is the distance to the nearest,
    # taken without the certificate or Lanczos.  At N = 3 the Re z step is
    # 0.5, so points tie exactly between levels, inside one block and across
    # blocks, and Re z lies past both ends.  Block d's diagonal d + 1, d + 3,
    # ..., 2N - d + 1 is a subset of block d - 2's, so the sweep visits
    # blocks 0 and 1 alone, though d + 1 - Re z rules out no block on the
    # grids right of the spectrum
    def unused(*args):
        raise AssertionError("a diagonal block reached the certificate or Lanczos")

    monkeypatch.setattr(fock, "_sigma_min_block", unused)
    monkeypatch.setattr(fock, "_sigma_min_above", unused)
    visited, original = [], fock._block_tridiag
    monkeypatch.setattr(fock, "_block_tridiag", lambda n, g, d: visited.append(d) or original(n, g, d))
    grid = fock.pseudospectrum(n_max, 0.0, re_range, im_range, resolution)
    levels = np.arange(1, 2 * n_max + 2)
    np.testing.assert_array_equal(grid.sigma_min, np.abs(grid.points()[..., None] - levels).min(axis=-1))
    assert visited == list(range(min(n_max, 1) + 1))


@pytest.mark.parametrize("gamma", [0.5, -3.0, 1e150])
def test_one_row_block_is_the_distance_to_its_entry(monkeypatch, gamma):
    # block d = N is the single entry N + 1 at any gamma; at N = 0 it is A_N
    monkeypatch.setattr(fock, "_sigma_min_block", lambda *a: pytest.fail("Lanczos on a one-row block"))
    zs = np.array([1, 1 + 1e-9, -0.5, 0.5j, -3 + 4j, 1e200])
    np.testing.assert_array_equal(fock.sigma_min_points(0, gamma, zs), np.abs(zs - 1))


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_inverse_iteration_stops_at_step_0_on_non_finite_blocks(monkeypatch, gamma):
    # every point leaves at step 0, and its batch stops there: one Lanczos
    # step, two solves, per factored batch, and then the block raises
    solves = []  # _gttrs calls per _gttrf batch
    gttrf, gttrs = fock._gttrf, fock._gttrs

    def counted(factors, b):
        solves[-1] += 1
        return gttrs(factors, b)

    monkeypatch.setattr(fock, "_gttrf", lambda *a: solves.append(0) or gttrf(*a))
    monkeypatch.setattr(fock, "_gttrs", counted)
    with pytest.raises(fock.SolverConvergenceError):
        fock.pseudospectrum(6, gamma, (-1, 8), (-4, 4), 21)
    assert solves and all(count <= 2 for count in solves)


def test_pseudospectrum_peak_memory():
    # a 2048-point stack of dense 81 x 81 complex blocks alone would take 215 MB
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


@pytest.mark.parametrize(
    "call",
    [
        lambda n: fock.eigenvalues(n, 0.5),
        lambda n: fock.rayleigh_quotients(n, 0.5, 3),
        lambda n: fock.spectrum_levels(n, 0.5),
        lambda n: fock.sigma_min_points(n, 0.5, [1.0]),
        lambda n: fock.pseudospectrum(n, 0.5),
        lambda n: fock.accretivity_check(n, 0.5, [-1.0]),
        lambda n: fock.support_energies(n, 0.5, [0.0]),
        lambda n: fock.numerical_range_boundary(n, 0.5, [0.0]),
        lambda n: fock.lowest_eigenvalues_precise(n, 0.5, 2),
    ],
    ids=[
        "eigenvalues", "rayleigh_quotients", "spectrum_levels", "sigma_min_points",
        "pseudospectrum", "accretivity_check", "support_energies", "numerical_range_boundary",
        "lowest_eigenvalues_precise",
    ],
)
def test_negative_truncation_is_rejected(call):
    with pytest.raises(ValueError, match="truncation"):
        call(-1)


@pytest.mark.parametrize("gamma", [0.5, 1.5])
def test_parity_maps_every_block_to_its_transpose(gamma):
    # the adjoint solve of each Lanczos step rests on B^T = S B S
    n_max = 6
    for d in range(n_max + 1):
        block = fock._block_dense(n_max, gamma, d)
        parity = np.diag(np.where(np.arange(block.shape[0]) % 2, -1.0, 1.0))
        assert np.array_equal(parity @ block @ parity, block.T)


@pytest.mark.parametrize("gamma", [0.5, 1.5])
def test_gttrs_matches_dense_solve_at_hard_points(gamma):
    n_max = 40
    zs = _hard_points(n_max, gamma)
    rng = np.random.default_rng(7)
    for d in (0, 1, n_max // 2, n_max - 1):
        diag, off = fock._block_tridiag(n_max, gamma, d)
        factors = fock._gttrf(diag, off, zs)
        if d == 0:
            assert factors[-1].any()  # the tiny leading pivots were swapped away
        rhs = rng.standard_normal((diag.size, zs.size)) + 1j * rng.standard_normal((diag.size, zs.size))
        got = rhs.copy()
        fock._gttrs(factors, got)
        block = fock._block_dense(n_max, gamma, d)
        parity = np.where(np.arange(diag.size) % 2, -1.0, 1.0)[:, None]  # _gttrf factors S(zI - B)
        for col, z in enumerate(zs):
            shifted = parity * (z * np.eye(diag.size) - block)
            cond = np.linalg.cond(shifted)
            if cond > 1e12:
                continue  # at an eigenvalue the solve is meaningless
            want = np.linalg.solve(shifted, rhs[:, col])
            err = np.linalg.norm(got[:, col] - want) / np.linalg.norm(want)
            assert err < 1e-14 * cond
