"""The benchmark's workloads: which operations one pass runs, at what size.

Every workload is a closed loop with one client: the driver starts one
fresh interpreter per operation and the next only after the previous one
has exited, so each operation pays interpreter start, imports and rule-cache
fills, as a real invocation does.  The seed reaches only ``expand --seed``
and ``accretive --seed``; the amount of work is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

GAMMA = "0.5"


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command line, or (with `precise`) a call of
    ``fock.lowest_eigenvalues_precise`` with these keyword values."""

    name: str
    command: str
    args: tuple = ()
    precise: dict | None = None

    def argv(self, seed: int) -> list[str] | None:
        if self.precise is not None:
            return None
        return [self.command, *(a.format(seed=seed % 2**32) for a in self.args)]


def _precise(n_max: int) -> Op:
    return Op(f"precise_n{n_max}", "precise", precise={"n_max": n_max, "gamma": 0.5, "count": 6, "dps": 40})


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # dense per-point block SVD sweep; two truncations at similar point
    # counts show how the per-point cost grows with N
    "pseudo_grid": (
        Op("pseudo_n40_r81", "pseudo", ("--gamma", GAMMA, "--truncation", "40", "--res", "81")),
        Op("pseudo_n80_r41", "pseudo", ("--gamma", GAMMA, "--truncation", "80", "--res", "41")),
    ),
    # the fock layer without a large sigma_min grid: dense build, float64
    # block eig and mpmath eig, with only 4 sigma_min points
    "fock_spectra": (
        Op("spectrum_n80", "spectrum", ("--gamma", GAMMA, "--truncation", "80")),
        Op("numrange_n60", "numrange", ("--gamma", GAMMA, "--truncation", "60")),
        Op(
            "accretive_n40",
            "accretive",
            ("--gamma", GAMMA, "--truncation", "40", "--vectors", "1000", "--seed", "{seed}"),
        ),
        _precise(10),
        _precise(20),
    ),
    # quadrature, modes, wkb, operators and ring; fock does no numerical
    # work.  One `--product` and one `--summand` each: the other runs the
    # same code, and a sixth and seventh interpreter per pass would leave
    # room for fewer than five passes in a run
    "mode_integrals": (
        Op("biorth_m6", "biorth", ("--gamma", GAMMA, "--max-index", "6", "--product", "biorth")),
        Op("norms_m8", "norms", ("--gamma", GAMMA, "--max-index", "8")),
        Op("expand_c8", "expand", ("--gamma", GAMMA, "--cutoff", "8", "--seed", "{seed}")),
        Op("wkb_sum", "wkb", ("--energy", "1", "--hbars", "0.2,0.1,0.01,0.001", "--summand", "sum")),
        Op("verify_algebra", "verify-algebra"),
    ),
}
