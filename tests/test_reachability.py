"""The library holds only what the commands and the acceptance criteria run.

Every command runs at a tiny size, and every library call the ten criteria
make runs once, under sys.setprofile.  Each non-dunder function or method
defined in src/nhboson, nested ones included, must be entered at least once;
a function that only tests call is deleted rather than kept, unless ALLOWED
names it with the reason it stays.
"""

import inspect
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from pair_quadrature import FLAT, PHYSICAL, inner_product

import nhboson
from nhboson import cli, fock, modes, operators, ring, wkb
from nhboson.modes import ModeFunction, ModeKind
from nhboson.ring import RingElem

PACKAGE = Path(nhboson.__file__).parent

#: functions no command or criterion enters, with why each one stays
ALLOWED = {
    "ring.RingElem.evaluate": "reports a residual's size, so only an identity that fails reaches it",
    "ring._sum_in_r": "called by RingElem.evaluate alone",
    "ring._rational_sqrt": "called by _sum_in_r alone",
}


def _functions(code, prefix=""):
    """(qualified name, code object) of every function nested in `code`;
    class bodies lend their name to the qualified name and are not listed."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            dunder = const.co_name.startswith("__") and const.co_name.endswith("__")
            if const.co_flags & inspect.CO_OPTIMIZED and not dunder:
                yield name, const
            yield from _functions(const, name + ".")


def defined_functions() -> dict:
    """Key (file, first line, name) -> qualified name, for the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for name, code in _functions(module):
            out[(str(path), code.co_firstlineno, code.co_name)] = f"{path.stem}.{name}"
    return out


def _commands(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("gamma = 0.25  # a comment\n\nnodes = 8\n")
    runs = [
        ["verify-algebra"],
        ["verify-algebra", "--gamma", "0.5", "--format", "csv"],
        ["spectrum", "--truncation", "3"],
        ["numrange", "--truncation", "3", "--theta-steps", "5"],
        ["pseudo", "--truncation", "3", "--res", "5"],
        ["pseudo", "--truncation", "20", "--res", "21"],  # Lanczos
        ["biorth", "--max-index", "1", "--nodes", "8"],
        ["norms", "--max-index", "1", "--config", str(config)],
        ["accretive", "--truncation", "3", "--vectors", "5"],
        ["wkb", "--hbars", "0.2"],
        ["wkb", "--summand", "diff", "--hbars", "0.2"],
        ["expand", "--cutoff", "1", "--nodes", "8", "--format", "json"],
    ]
    for i, argv in enumerate(runs):
        assert cli.main([*argv, "--out", str(tmp_path / f"{i}.out")]) == 0, argv
    assert cli.main(["spectrum", "--truncation", "-1", "--out", str(tmp_path / "bad.csv")]) == 2


def _criteria():
    """The library calls of the ten acceptance criteria, at tiny sizes."""
    checks = operators.verify_identities()  # 01
    assert operators.hamiltonian() - operators.hamiltonian_ladder() == operators.shear_term().scaled(
        RingElem.gamma() * 2
    )
    assert operators.hamiltonian_ladder() == operators.hamiltonian().gamma_negated() and checks
    for which in ("H", "Hstar", "H0"):  # 02
        assert modes.eigen_residual(which, 1, 2, 0.5) <= 1e-9
    right = ModeFunction(ModeKind.PSI, 1, 0, 0.5)  # 03 and 08, through the test-side oracle
    assert abs(inner_product(right, ModeFunction(ModeKind.PSI_TILDE, 1, 0, 0.5), FLAT, 16) - 1) <= 1e-8
    assert abs(inner_product(right, right, PHYSICAL, 16) - 1) <= 1e-8
    boundary = fock.numerical_range_boundary(4, 0.5, np.linspace(-1.4, 1.4, 5))  # 04
    assert boundary.theta.size and fock.hyperbola_excess(fock.rayleigh_quotients(4, 0.5, 5), 0.5)[0] <= 1e-8
    assert fock.accretivity_check(4, 0.5, [-0.5, -1 + 1j], n_vectors=5).resolvent_ok  # 05
    grid = fock.pseudospectrum(4, 0.5, (-1, 8), (-4, 4), 5)  # 06
    assert grid.points().shape == grid.sigma_min.shape
    norm = max(np.linalg.norm(fock._block_dense(4, 0.5, d), 2) for d in range(5))
    assert np.max(fock.sigma_min_points(4, 0.5, fock.eigenvalues(4, 0.5))) <= 1e-8 * norm
    assert len(fock.lowest_eigenvalues_precise(4, 0.5, 3, dps=30)) == 3  # 07
    assert np.all(np.diff(modes.norm_growth(0.5, 3)) > 0)  # 08
    summand = wkb.sum_coordinate_summand()  # 09
    assert len(wkb.wkb_integrals(summand, 1.0, [0.2])) == 1
    phase = wkb.PhaseFunction(summand, 1.0)
    assert np.all(np.isfinite(phase.jacobi_residual(np.array([0.1])))) and phase.imag_part(0.1) < 0
    true = np.eye(2) / math.sqrt(2)  # 10
    result = modes.expand_amplitudes(true, 0.5, 1, n_nodes=16)
    assert np.max(np.abs(result.coeffs - true)) <= 1e-8


def _entered(run) -> set:
    """Keys of the package's functions that `run()` enters."""
    seen = set()
    package = str(PACKAGE)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    for mod in (vars(m).values() for m in (fock, modes, operators, ring, wkb, nhboson.quadrature)):
        for obj in mod:
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()  # a cached rule must be built, not looked up
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_every_library_function_is_reached(tmp_path):
    assert len(ALLOWED) <= 5
    defined = defined_functions()
    entered = _entered(lambda: (_commands(tmp_path), _criteria()))
    reached = {defined[key] for key in entered if key in defined}
    assert set(ALLOWED) <= set(defined.values()), "ALLOWED names a function that is gone"
    assert not reached & set(ALLOWED), "ALLOWED names a function that is reached"
    assert sorted(set(defined.values()) - reached - set(ALLOWED)) == []


@pytest.mark.parametrize("source, found", [("def only_tests():\n    pass\n", ["only_tests"]),
                                           ("class A:\n    def m(self):\n        def n():\n            pass\n"
                                            "    def __eq__(self, o):\n        pass\n", ["A.m", "A.m.n"])])
def test_functions_are_found_nested_and_without_dunders(source, found):
    assert [name for name, _ in _functions(compile(source, "x.py", "exec"))] == found
