"""Acceptance suite: every quantitative claim at its pinned tolerance.

One test per criterion; each prints a single PASS/FAIL line (bypassing
pytest capture so the lines always appear in the run log).
"""

import math
import sys
import time

import numpy as np
import pytest

from pair_quadrature import FLAT, PHYSICAL, inner_product

from nhboson import fock, wkb
from nhboson.modes import (
    ModeFunction,
    ModeKind,
    eigen_residual,
    expand_amplitudes,
    norm_growth,
)
from nhboson.operators import verify_identities
from nhboson.ring import RingElem
from nhboson.operators import hamiltonian, hamiltonian_ladder, shear_term

OMEGA = math.sqrt(1.25)  # frequency at gamma = 0.5


def _report(num: int, name: str, ok: bool, extra: str = ""):
    """One line per criterion; run with `pytest -s` to see them live."""
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  [{extra}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_symbolic_identities():
    t0 = time.perf_counter()
    checks = {c.name: c for c in verify_identities()}
    elapsed = time.perf_counter() - t0

    core = [
        "[a,a*]=1", "[b,b*]=1", "[a,b*]=0", "[b,a*]=0", "[a*,b*]=0", "[a,b]=0",
        "gaussian_conjugation", "oscillator_number_form",
    ]
    zero_residuals = all(checks[name].passed and len(checks[name].residual) == 0 for name in core)
    # the two Hamiltonian forms must differ by exactly 2 gamma (y dx + x dy)
    flip = (hamiltonian() - hamiltonian_ladder()) == shear_term().scaled(RingElem.gamma() * 2)
    flip = flip and hamiltonian_ladder() == hamiltonian().gamma_negated()
    ok = zero_residuals and flip and checks["ladder_form_gamma_flip"].passed and elapsed < 1.0
    _report(1, "symbolic identity suite", ok, f"runtime {elapsed*1e3:.0f} ms")


def test_criterion_02_eigen_residuals():
    worst = 0.0
    for which in ("H", "Hstar", "H0"):
        for gamma in (0.25, 0.5, 0.75):
            for m in range(6):
                for n in range(6):
                    worst = max(worst, eigen_residual(which, m, n, gamma))
    _report(2, "eigen-residuals <= 1e-9", worst <= 1e-9, f"max residual {worst:.3e}")


def test_criterion_03_biorthogonality_and_physical_orthonormality():
    gamma, nodes, top = 0.5, 96, 6
    worst_bi = worst_ph = 0.0
    for m in range(top + 1):
        for n in range(top + 1):
            right = ModeFunction(ModeKind.PSI, m, n, gamma)
            for p in range(top + 1):
                for q in range(top + 1):
                    left = ModeFunction(ModeKind.PSI_TILDE, p, q, gamma)
                    other = ModeFunction(ModeKind.PSI, p, q, gamma)
                    want = 1.0 if (m, n) == (p, q) else 0.0
                    bi = inner_product(right, left, FLAT, nodes)
                    ph = inner_product(right, other, PHYSICAL, nodes)
                    worst_bi = max(worst_bi, abs(bi - want))
                    worst_ph = max(worst_ph, abs(ph - want))
    ok = worst_bi <= 1e-8 and worst_ph <= 1e-8
    _report(
        3,
        "biorthogonality + physical orthonormality <= 1e-8",
        ok,
        f"biorth {worst_bi:.3e}, physical {worst_ph:.3e}",
    )


def test_criterion_04_numerical_range():
    gamma, n_max = 0.5, 60
    thetas = np.linspace(-1.4, 1.4, 57)
    b = fock.numerical_range_boundary(n_max, gamma, thetas)
    assert b.theta.size, "no support lines sampled"
    worst_match = float(np.max(np.abs(b.e_numeric - b.e_closed)))
    worst_env = float(np.max(np.abs(b.y**2 - gamma**2 * (b.x**2 - 1.0))))
    quotients = fock.rayleigh_quotients(n_max, gamma, 1000, seed=0)
    x_excess, hyper_excess = fock.hyperbola_excess(quotients, gamma)
    ok = worst_match <= 1e-4 and worst_env <= 1e-3 and x_excess <= 1e-8 and hyper_excess <= 1e-8
    _report(
        4,
        "numerical range boundary",
        ok,
        f"E match {worst_match:.3e}, envelope {worst_env:.3e}, "
        f"rayleigh excess ({x_excess:.1e},{hyper_excess:.1e}), rows {b.theta.size}/57",
    )


def test_criterion_05_m_accretive_resolvent_bound():
    report = fock.accretivity_check(40, 0.5, [-0.5, -1 + 1j, -2 + 3j, -4], n_vectors=10, seed=0)
    margins = ", ".join(f"{sig:.3f}>={bound:.1f}" for _, sig, bound, _ in report.rows)
    _report(5, "m-accretivity resolvent bound", report.resolvent_ok, margins)


def test_criterion_06_pseudospectrum_sanity():
    n_max, gamma = 40, 0.5
    grid = fock.pseudospectrum(n_max, gamma)  # default [-1,8]x[-4,4], 161x161
    vals = fock.eigenvalues(n_max, gamma)
    # the permuted matrix is block diagonal, and blocks d and -d are equal
    norm = float(max(np.linalg.norm(fock._block_dense(n_max, gamma, d), 2) for d in range(n_max + 1)))

    pts = grid.points().ravel()
    sig = grid.sigma_min.ravel()
    worst_gap = -np.inf
    for lo in range(0, pts.size, 4096):
        chunk = pts[lo : lo + 4096]
        dist = np.min(np.abs(chunk[:, None] - vals[None, :]), axis=1)
        worst_gap = max(worst_gap, float(np.max(sig[lo : lo + 4096] - dist)))

    at_eigs = fock.sigma_min_points(n_max, gamma, vals)
    worst_eig = float(np.max(at_eigs))
    ok = worst_gap <= 1e-8 and worst_eig <= 1e-8 * norm
    _report(
        6,
        "pseudospectrum sanity",
        ok,
        f"max sigma-dist gap {worst_gap:.3e}, max sigma at eigs {worst_eig:.3e} "
        f"(bound {1e-8 * norm:.3e})",
    )


def test_criterion_07_truncation_convergence():
    # targets in extended precision too, so the measured error is pure
    # truncation error and not float64 rounding of (1+m+n) sqrt(1.25);
    # 60 digits resolve the N=40 error (about 1e-44), which 40 would round to 0
    from mpmath import mp

    with mp.workdps(60):
        omega = mp.sqrt(mp.mpf(5)) / 2
        targets = [t * omega for t in (1, 2, 2, 3, 3, 3)]
        errors = []
        for n_max in (10, 20, 40):
            vals = fock.lowest_eigenvalues_precise(n_max, 0.5, 6, dps=60)
            errors.append(max(abs(mp.mpmathify(v) - t) for v, t in zip(vals, targets)))
        strictly_decreasing = errors[0] > errors[1] > errors[2]
        ok = strictly_decreasing and errors[-1] <= 1e-4
        _report(
            7,
            "truncation convergence",
            ok,
            "errors " + ", ".join(f"N={n}: {mp.nstr(e, 4)}" for n, e in zip((10, 20, 40), errors)),
        )


def test_criterion_08_riesz_basis_failure_diagnostic():
    ok_norm = True
    details = []
    for gamma in (0.5, 0.75):
        f = ModeFunction(ModeKind.PSI, 0, 0, gamma)
        got = inner_product(f, f, FLAT, 96)
        want = math.hypot(1.0, gamma)
        details.append(f"||Psi00||^2({gamma}) err {abs(got - want):.2e}")
        ok_norm = ok_norm and abs(got - want) <= 1e-8
    seq = norm_growth(0.5, 8)
    increasing = bool(np.all(np.diff(seq) > 0))
    _report(
        8,
        "riesz-basis failure diagnostic",
        ok_norm and increasing,
        "; ".join(details) + f"; growth ratios min {float(np.min(seq[1:]/seq[:-1])):.3f}",
    )


def test_criterion_09_wkb():
    summand = wkb.sum_coordinate_summand()
    rows = wkb.wkb_integrals(summand, 1.0, [0.2, 0.1, 0.01])
    i3_ok = all(abs(r.cross_overlap - 1.0) <= 1e-10 for r in rows)
    by_hbar = {r.hbar: r for r in rows}
    ratio2 = by_hbar[0.01].left_norm / (math.sqrt(math.pi * 0.01) / 2.0)
    growth = by_hbar[0.1].right_norm / by_hbar[0.2].right_norm

    phase = wkb.PhaseFunction(summand, 1.0)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.5, 0.5, 20) * 0.999
    jac = float(np.max(np.abs(phase.jacobi_residual(xs))))
    xs_im = np.linspace(-0.49, 0.49, 33)
    im_err = float(np.max(np.abs(phase.imag_part(xs_im) + 2.0 * xs_im**2)))

    ok = i3_ok and 0.98 <= ratio2 <= 1.02 and growth > 10.0 and jac <= 1e-12 and im_err <= 1e-13
    _report(
        9,
        "wkb scaling integrals and phase",
        ok,
        f"I2 ratio {ratio2:.4f}, I1 growth {growth:.1f}, jacobi {jac:.1e}, imS err {im_err:.1e}",
    )


def test_criterion_10_probability_amplitudes():
    gamma, cutoff = 0.5, 4
    worst_coeff = worst_defect = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        true = rng.standard_normal((cutoff + 1, cutoff + 1))
        true /= np.linalg.norm(true)
        result = expand_amplitudes(true, gamma, cutoff, n_nodes=96)
        worst_coeff = max(worst_coeff, float(np.max(np.abs(result.coeffs - true))))
        worst_defect = max(worst_defect, result.norm_defect)
    ok = worst_coeff <= 1e-8 and worst_defect <= 1e-8
    _report(
        10,
        "probability-amplitude round trip",
        ok,
        f"coeff err {worst_coeff:.3e}, norm defect {worst_defect:.3e}",
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
