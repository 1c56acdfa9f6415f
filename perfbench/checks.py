"""Output checks, one per command, run outside the timed interval.

Each check reads the one artifact an operation wrote and applies the
tolerance of the test or acceptance criterion that covers the command
(criterion numbers as in tests/test_acceptance.py).  A check raises
CheckError; a NaN anywhere a number is expected is a failure even when the
command exited 0.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np


class CheckError(ValueError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _csv(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"header {rows[:1]} is not {header}")
    _require(len(rows) > 1, "no data rows")
    data = np.array(rows[1:], dtype=float)
    _require(not np.isnan(data).any(), "NaN in the artifact")
    return data


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def _options(args) -> dict:
    return dict(zip(args[::2], args[1::2]))


def _truncated_spectrum(n_max, gamma):
    """Eigenvalues of the truncated H from its tridiagonal d-blocks, with
    entries written out from the number-basis ladder action."""
    vals = []
    for d in range(n_max + 1):
        k = np.arange(n_max + 1 - d, dtype=float)
        block = np.diag(d + 2.0 * k + 1.0)
        c = gamma * np.sqrt((d + k[:-1] + 1.0) * (k[:-1] + 1.0))
        block += np.diag(-c, -1) + np.diag(c, 1)
        vals.append(np.linalg.eigvals(block))
    return np.concatenate(vals)


def check_pseudo(path, opts):
    """Criterion 06: sigma_min(z) <= dist(z, spec A_N) + 1e-8, finite
    everywhere, and the exact numerical-range bound sigma >= 1 - Re z."""
    n_max, gamma, res = int(opts["--truncation"]), float(opts["--gamma"]), int(opts["--res"])
    data = _csv(path, ["re", "im", "sigma_min"])
    _require(data.shape[0] == res * res, f"{data.shape[0]} grid points, expected {res * res}")
    z = data[:, 0] + 1j * data[:, 1]
    sigma = data[:, 2]
    _require(np.isfinite(sigma).all() and (sigma >= 0).all(), "sigma_min not finite and >= 0")
    eigs = _truncated_spectrum(n_max, gamma)
    gap = max(
        float(np.max(sigma[lo : lo + 256] - np.min(np.abs(z[lo : lo + 256, None] - eigs), axis=1)))
        for lo in range(0, z.size, 256)
    )
    _require(gap <= 1e-8, f"sigma_min exceeds the eigenvalue distance by {gap:.3e}")
    below = float(np.max(1.0 - z.real - sigma))
    _require(below <= 1e-8, f"sigma_min below the numerical-range bound by {below:.3e}")


def check_spectrum(path, opts):
    """test_spectrum_rows_pairing: index 0 first, ground level within 1e-8,
    closed form equal to sqrt(1 + g^2) to 1e-14 relative."""
    n_max, gamma = int(opts["--truncation"]), float(opts["--gamma"])
    data = _csv(path, ["index", "re", "im", "closed_form", "abs_err"])
    _require(data.shape[0] == (n_max + 1) ** 2, "row count is not (N+1)^2")
    _require(np.isfinite(data).all(), "non-finite eigenvalue")
    _require(data[0, 0] == 0 and data[0, 4] < 1e-8, f"ground level error {data[0, 4]:.3e}")
    omega = math.hypot(1.0, gamma)
    _require(abs(data[0, 3] - omega) <= 1e-14 * omega, "closed-form ground level is off")


def check_numrange(path, opts):
    """Criterion 04: support energies within 1e-4 of the closed form and the
    boundary on the hyperbola y^2 = g^2 (x^2 - 1) within 1e-3."""
    gamma = float(opts["--gamma"])
    data = _csv(path, ["theta", "E_numeric", "E_closed", "x", "y", "envelope_y"])
    match = float(np.max(np.abs(data[:, 1] - data[:, 2])))
    env = float(np.max(np.abs(data[:, 4] ** 2 - gamma**2 * (data[:, 3] ** 2 - 1.0))))
    _require(match <= 1e-4 and env <= 1e-3, f"E match {match:.3e}, envelope {env:.3e}")


def check_accretive(path, opts):
    """Criterion 05: sigma_min(zI - A) >= |Re z| at every sample, and every
    Rayleigh quotient inside the hyperbolic region."""
    rows = _rows(path)
    resolvent = [r for r in rows if r["kind"] == "resolvent"]
    rayleigh = [r for r in rows if r["kind"] == "rayleigh"]
    _require(len(resolvent) == 4 and len(rayleigh) == 1, "unexpected row kinds")
    for r in resolvent:
        sig, bound = r["sigma_min_or_min_x"], r["bound_or_excess"]
        _require(r["ok"] and math.isfinite(sig) and sig >= bound, f"resolvent bound fails: {r}")
    _require(rayleigh[0]["ok"] and math.isfinite(rayleigh[0]["b"]), f"Rayleigh check fails: {rayleigh[0]}")


def check_biorth(path, opts):
    """Criterion 03: every inner product within 1e-8 of delta_mp delta_nq."""
    top = int(opts["--max-index"])
    data = _csv(path, ["m", "n", "p", "q", "value"])
    _require(data.shape[0] == (top + 1) ** 4, "row count is not (M+1)^4")
    want = ((data[:, 0] == data[:, 2]) & (data[:, 1] == data[:, 3])).astype(float)
    worst = float(np.max(np.abs(data[:, 4] - want)))
    _require(worst <= 1e-8, f"worst deviation {worst:.3e}")


def check_norms(path, opts):
    """Criterion 08: ||Psi_00||^2 = sqrt(1 + g^2) within 1e-8, and the
    diagonal norms strictly increasing."""
    gamma, top = float(opts["--gamma"]), int(opts["--max-index"])
    data = _csv(path, ["m", "n", "norm_sq"])
    _require(data.shape[0] == (top + 1) ** 2, "row count is not (M+1)^2")
    err = abs(data[0, 2] - math.hypot(1.0, gamma))
    _require(data[0, 0] == 0 and data[0, 1] == 0 and err <= 1e-8, f"||Psi00||^2 error {err:.3e}")
    diag = data[data[:, 0] == data[:, 1], 2]
    _require(bool(np.all(np.diff(diag) > 0)), "diagonal norms not strictly increasing")


#: (alpha, beta, delta) of h = alpha p^2 + beta x^2 + i delta x p per summand
_SUMMANDS = {"sum": (0.125, 2.0, 1.0), "diff": (0.5, 0.5, 1.0)}


def check_wkb(path, opts):
    """Criterion 09: I3 equal to its leading-order value 2 x_t within 1e-10,
    I2 within 2% of sqrt(pi hbar / c) for hbar <= 0.01, and I1 growing more
    than 10x from the first hbar to the second."""
    alpha, beta, delta = _SUMMANDS[opts["--summand"]]
    energy = float(opts["--energy"])
    hbars = [float(h) for h in opts["--hbars"].split(",")]
    data = _csv(path, ["hbar", "I1", "I2", "I3"])
    _require(data[:, 0].tolist() == hbars, "hbar column does not match the request")
    x_t = math.sqrt(4.0 * alpha * energy / (4.0 * alpha * beta + delta**2))
    c = delta / (2.0 * alpha)
    i3 = float(np.max(np.abs(data[:, 3] - 2.0 * x_t)))
    _require(i3 <= 1e-10, f"I3 off by {i3:.3e}")
    for h, i2 in zip(data[:, 0], data[:, 2]):
        if h <= 0.01:
            ratio = i2 / math.sqrt(math.pi * h / c)
            _require(0.98 <= ratio <= 1.02, f"I2 ratio {ratio:.4f} at hbar {h}")
    _require(data[1, 1] / data[0, 1] > 10.0, "I1 does not grow as hbar shrinks")


def check_expand(path, opts):
    """Criterion 10: every amplitude within 1e-8 of the seeded truth, which
    must be the one the seed generates."""
    cutoff = int(opts["--cutoff"])
    data = _csv(path, ["m", "n", "c_true", "c_est", "abs_err"])
    rng = np.random.default_rng(int(opts["--seed"]))
    truth = rng.standard_normal((cutoff + 1, cutoff + 1))
    truth /= np.linalg.norm(truth)
    _require(np.array_equal(data[:, 2], truth.ravel()), "c_true is not the seeded state")
    worst = float(np.max(np.abs(data[:, 3] - data[:, 2])))
    _require(worst <= 1e-8, f"worst amplitude error {worst:.3e}")


_CORE_IDENTITIES = (
    "[a,a*]=1", "[b,b*]=1", "[a,b*]=0", "[b,a*]=0", "[a*,b*]=0", "[a,b]=0",
    "gaussian_conjugation", "oscillator_number_form", "ladder_form_gamma_flip",
)


def check_verify_algebra(path, opts):
    """Criterion 01: every identity passes with a zero residual."""
    rows = {r["identity_name"]: r for r in _rows(path)}
    _require(set(_CORE_IDENTITIES) <= set(rows), "identities missing from the report")
    bad = [n for n, r in rows.items() if r["status"] != "pass" or r["residual_monomial_count"]]
    _require(not bad, f"identities failing: {bad}")


def check_precise(path, params):
    """Criterion 07: the lowest six levels within 1e-4 of (1+m+n) sqrt(1+g^2),
    compared in extended precision."""
    from mpmath import mp

    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)["values"]
    _require(len(values) == params["count"], "wrong number of levels")
    with mp.workdps(params["dps"]):
        omega = mp.sqrt(1 + mp.mpf(params["gamma"]) ** 2)
        targets = [t * omega for t in (1, 2, 2, 3, 3, 3)]
        errors = [abs(mp.mpf(v) - t) for v, t in zip(values, targets)]
        _require(all(mp.isfinite(e) for e in errors), "non-finite level")
        worst = max(errors)
        _require(worst <= mp.mpf("1e-4"), f"truncation error {mp.nstr(worst, 4)}")


CHECKS = {
    "pseudo": check_pseudo,
    "spectrum": check_spectrum,
    "numrange": check_numrange,
    "accretive": check_accretive,
    "biorth": check_biorth,
    "norms": check_norms,
    "wkb": check_wkb,
    "expand": check_expand,
    "verify-algebra": check_verify_algebra,
    "precise": check_precise,
}


def check(op, path, seed):
    """Apply the command's check to the artifact at `path`."""
    opts = op.precise if op.precise is not None else _options(op.argv(seed)[1:])
    CHECKS[op.command](path, opts)
