"""Command-line surface: schemas, determinism, config precedence, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhboson import __version__
from nhboson.cli import COMMANDS, ENV_OUTDIR, SIZE_RANGES, SVD_GAMMA_MAX, RunConfig, _build_parser, main


def run(tmp_path, *argv):
    out = tmp_path / "artifact.out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_no_command_prints_usage():
    assert main([]) == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--bogus", "1"])
    assert exc.value.code == 2


def test_verify_algebra_json_envelope(tmp_path):
    code, out = run(tmp_path, "verify-algebra")
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"tool_version", "command", "params", "rows"}
    assert doc["tool_version"] == __version__
    assert doc["command"] == "verify-algebra"
    assert all(row["status"] == "pass" for row in doc["rows"])
    assert all(row["residual_monomial_count"] == 0 for row in doc["rows"])
    assert doc["params"]["gamma_symbolic"] is True


def test_verify_algebra_numeric_gamma(tmp_path):
    code, out = run(tmp_path, "verify-algebra", "--gamma", "0.5")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["gamma_symbolic"] is False
    assert all(row["max_abs_residual_coeff"] == 0.0 for row in doc["rows"])


def test_params_round_trip(tmp_path):
    code, out = run(
        tmp_path, "pseudo", "--gamma", "0.3", "--truncation", "6",
        "--grid", "-1,3,-2,2", "--res", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    cfg = RunConfig.from_params(doc["params"])
    assert cfg == RunConfig.from_params(cfg.as_params())
    assert cfg.gamma == 0.3
    assert cfg.re_max == 3.0
    assert cfg.resolution == 7


def test_spectrum_csv_schema(tmp_path):
    code, out = run(tmp_path, "spectrum", "--gamma", "0.5", "--truncation", "10")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "re", "im", "closed_form", "abs_err"]
    assert len(rows) == 121
    assert float(rows[0][1]) == pytest.approx(math.sqrt(1.25), abs=1e-9)


def test_numrange_csv_schema(tmp_path):
    code, out = run(
        tmp_path, "numrange", "--gamma", "0.5", "--truncation", "20", "--theta-steps", "15"
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["theta", "E_numeric", "E_closed", "x", "y", "envelope_y"]
    assert 0 < len(rows) < 15  # out-of-support-line samples are skipped
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) < 1e-4


def test_pseudo_csv_schema(tmp_path):
    code, out = run(
        tmp_path, "pseudo", "--gamma", "0.5", "--truncation", "5",
        "--grid", "-1,4,-2,2", "--res", "9",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["re", "im", "sigma_min"]
    assert len(rows) == 81
    sig = np.array([float(r[2]) for r in rows])
    assert np.all(sig >= 0)


def test_biorth_csv_schema(tmp_path):
    code, out = run(tmp_path, "biorth", "--gamma", "0.5", "--max-index", "1", "--nodes", "48")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "p", "q", "value"]
    assert len(rows) == 16
    for row in rows:
        m, n, p, q = (int(v) for v in row[:4])
        want = 1.0 if (m, n) == (p, q) else 0.0
        assert abs(float(row[4]) - want) < 1e-9


def test_biorth_physical_variant(tmp_path):
    code, out = run(
        tmp_path, "biorth", "--gamma", "0.5", "--max-index", "1",
        "--nodes", "48", "--product", "physical",
    )
    assert code == 0
    _, rows = read_csv(out)
    diag = [float(r[4]) for r in rows if r[0] == r[2] and r[1] == r[3]]
    assert all(abs(v - 1.0) < 1e-9 for v in diag)


def test_norms_csv_schema(tmp_path):
    code, out = run(tmp_path, "norms", "--gamma", "0.5", "--max-index", "3", "--nodes", "64")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "norm_sq"]
    assert len(rows) == 16
    first = float(rows[0][2])
    assert first == pytest.approx(math.sqrt(1.25), rel=1e-9)


def test_wkb_csv_schema(tmp_path):
    code, out = run(tmp_path, "wkb", "--hbars", "0.2,0.1")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["hbar", "I1", "I2", "I3"]
    assert [float(r[0]) for r in rows] == [0.2, 0.1]
    assert float(rows[0][3]) == pytest.approx(1.0, rel=1e-10)


def test_accretive_json_rows(tmp_path):
    code, out = run(
        tmp_path, "accretive", "--gamma", "0.5", "--truncation", "12",
        "--points=-0.5;-2+3i", "--vectors", "50",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    kinds = [row["kind"] for row in doc["rows"]]
    assert kinds == ["resolvent", "resolvent", "rayleigh"]
    assert all(row["ok"] for row in doc["rows"])


def test_accretive_rejects_right_halfplane_points(tmp_path):
    code, _ = run(tmp_path, "accretive", "--points=0.5", "--truncation", "5")
    assert code == 2


def test_expand_round_trip_rows(tmp_path):
    code, out = run(tmp_path, "expand", "--gamma", "0.5", "--cutoff", "2", "--seed", "3")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "c_true", "c_est", "abs_err"]
    assert len(rows) == 9
    assert max(float(r[4]) for r in rows) < 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["numrange", "--gamma", "0.5", "--truncation", "12", "--theta-steps", "9"],
        ["biorth", "--gamma", "0.5", "--max-index", "3", "--product", "physical"],
        ["norms", "--gamma", "-0.75", "--max-index", "4"],
        ["expand", "--gamma", "0.5", "--cutoff", "3", "--seed", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_byte_identical_reruns(tmp_path, argv):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gamma_warning_on_spectral_commands(tmp_path, capsys):
    code, _ = run(tmp_path, "spectrum", "--gamma", "1.5", "--truncation", "4")
    assert code == 0
    assert "warning" in capsys.readouterr().err


def test_validation_exit_codes(tmp_path):
    code, _ = run(tmp_path, "pseudo", "--res", "600")
    assert code == 2
    code, _ = run(tmp_path, "spectrum", "--truncation", "-2")
    assert code == 2
    code, _ = run(tmp_path, "wkb", "--hbars", "0.1,-0.2")
    assert code == 2
    code, _ = run(tmp_path, "numrange", "--theta-max", "2.0")
    assert code == 2
    code, _ = run(tmp_path, "spectrum", "--gamma", "symbolic")
    assert code == 2
    code, _ = run(tmp_path, "norms", "--gamma", "nan")
    assert code == 2
    code, _ = run(tmp_path, "wkb", "--energy", "inf")
    assert code == 2
    code, out = run(tmp_path, "pseudo", "--gamma", "inf", "--truncation", "4", "--res", "5")
    assert code == 2
    assert not out.exists()
    # 10**17 theta samples need 711 PiB, more than any address space, so the
    # allocation fails on every host whatever its overcommit policy
    for argv in (
        ("expand", "--cutoff", "1", "--seed", "-1"),
        ("accretive", "--truncation", "4", "--seed", "-5"),
        ("accretive", "--truncation", "4", "--vectors", "0"),
        ("accretive", "--truncation", "4", "--vectors", "-3"),
        ("numrange", "--theta-steps", str(10**17)),
    ):
        code, out = run(tmp_path, *argv)
        assert code == 2, argv
        assert not out.exists()
    regular = tmp_path / "regular"
    regular.write_text("")
    assert main(["wkb", "--hbars", "0.1", "--out", str(regular / "x.csv")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("pseudo", "--truncation", "2", "--res", "3"),
        ("accretive", "--truncation", "2", "--vectors", "2", "--points=-1"),
    ],
)
def test_huge_gamma_keeps_lapack_off_stdout(tmp_path, capfd, argv):
    # LAPACK's SVD scaling writes "** On entry to DLASCL ..." to file
    # descriptor 1 once a block entry overflows; redirect_stdout cannot see it
    for gamma, expected in (("1e308", 2), ("-1e200", 2), (repr(SVD_GAMMA_MAX), 0)):
        code, out = run(tmp_path, *argv, "--gamma", gamma)
        captured = capfd.readouterr().out
        assert code == expected, (gamma, captured)
        assert captured == (f"{out}\n" if code == 0 else ""), gamma


def test_size_caps_are_inclusive(tmp_path):
    for name, (low, high) in SIZE_RANGES.items():
        for value, valid in ((low, True), (high, True), (high + 1, False), (low - 1, False)):
            cfg = RunConfig(command="spectrum", **{name: value})
            if valid:
                cfg.validate()
            else:
                with pytest.raises(ValueError, match=name):
                    cfg.validate()
    code, out = run(tmp_path, "numrange", "--theta-steps", str(3 * 10**18))
    assert code == 2
    assert not out.exists()


def test_accretive_rejects_infinite_point(tmp_path, capsys):
    code, out = run(tmp_path, "accretive", "--points=-inf", "--truncation", "3")
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("numrange", "--truncation", "2", "--gamma", "1e300"),
        ("biorth", "--max-index", "1", "--gamma", "1e308"),
        ("norms", "--max-index", "1", "--gamma", "1e308"),
        ("expand", "--cutoff", "1", "--gamma", "1e308"),
        ("wkb", "--energy", "1e-320"),
    ],
)
def test_non_finite_results_exit_3_without_artifact(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 3
    assert "non-finite result" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["biorth", "norms", "expand"])
def test_huge_gamma_stderr_is_only_the_error(tmp_path, capfd, command):
    code, out = run(tmp_path, command, "--gamma", "1e308")
    assert code == 3
    assert capfd.readouterr().err == "nhboson: non-finite result: NaN in the output rows\n"
    assert not out.exists()


#: every command at a small size, for runs in a fresh interpreter
SMALL_RUNS = {
    "verify-algebra": (),
    "spectrum": ("--truncation", "3"),
    "numrange": ("--truncation", "3", "--theta-steps", "5"),
    "pseudo": ("--truncation", "3", "--res", "5"),
    "biorth": ("--max-index", "1", "--nodes", "8"),
    "norms": ("--max-index", "1", "--nodes", "8"),
    "accretive": ("--truncation", "3", "--vectors", "5"),
    "wkb": ("--hbars", "0.2"),
    "expand": ("--cutoff", "1", "--nodes", "8"),
}


def _fresh_interpreter(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_small_runs_cover_every_command():
    assert set(SMALL_RUNS) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_commands_run_without_scipy(tmp_path, command):
    argv = [command, *SMALL_RUNS[command], "--out", str(tmp_path / "artifact")]
    code = (
        "import sys\n"
        "from nhboson.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _fresh_interpreter(code).splitlines()[-1] == "False"


def test_package_imports_without_scipy():
    assert _fresh_interpreter("import sys, nhboson; print('scipy' in sys.modules)").strip() == "False"


def test_wkb_underflowing_hbar_exits_3_fast(tmp_path):
    start = time.perf_counter()
    code, out = run(tmp_path, "wkb", "--hbars", "1e-320")
    assert code == 3
    assert time.perf_counter() - start < 5.0
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.25\nmax_index = 2  # comment\nnodes = 48\n")
    out = tmp_path / "norms.csv"
    code = main(["norms", "--config", str(cfg), "--gamma", "0.75", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 9  # max_index from config
    assert float(rows[0][2]) == pytest.approx(1.25, rel=1e-9)  # gamma from flag wins


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(["norms", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_env_var_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "emitted"))
    code = main(["wkb", "--hbars", "0.5"])
    assert code == 0
    assert (tmp_path / "emitted" / "wkb.csv").exists()


def test_float_cells_round_trip(tmp_path):
    code, out = run(tmp_path, "wkb", "--hbars", "0.1")
    assert code == 0
    _, rows = read_csv(out)
    val = rows[0][1]
    assert repr(float(val)) == val


def _subparsers():
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_flag_surface():
    surface = {
        name: sorted(
            opt + (" {" + ",".join(action.choices) + "}" if action.choices else "")
            for action in sub._actions
            for opt in action.option_strings
        )
        for name, sub in _subparsers().items()
    }
    common = ["--config", "--format {csv,json}", "--help", "--out", "-h"]
    assert surface == {
        "verify-algebra": sorted(common + ["--gamma"]),
        "spectrum": sorted(common + ["--gamma", "--truncation"]),
        "numrange": sorted(
            common + ["--gamma", "--theta-max", "--theta-min", "--theta-steps", "--truncation"]
        ),
        "pseudo": sorted(common + ["--gamma", "--grid", "--res", "--truncation"]),
        "biorth": sorted(common + ["--gamma", "--max-index", "--nodes", "--product {biorth,physical}"]),
        "norms": sorted(common + ["--gamma", "--max-index", "--nodes"]),
        "accretive": sorted(common + ["--gamma", "--points", "--seed", "--truncation", "--vectors"]),
        "wkb": sorted(common + ["--energy", "--hbars", "--summand {sum,diff}"]),
        "expand": sorted(common + ["--cutoff", "--gamma", "--nodes", "--seed"]),
    }
    assert list(surface) == [
        "verify-algebra", "spectrum", "numrange", "pseudo", "biorth",
        "norms", "accretive", "wkb", "expand",
    ]


#: every command at tiny sizes, so that the one fuzzed option decides the run
_TINY = {
    "verify-algebra": (),
    "spectrum": ("--truncation", "2"),
    "numrange": ("--truncation", "2", "--theta-steps", "3"),
    "pseudo": ("--truncation", "2", "--res", "3"),
    "biorth": ("--max-index", "0", "--nodes", "8"),
    "norms": ("--max-index", "0", "--nodes", "8"),
    "accretive": ("--truncation", "2", "--vectors", "2", "--points=-1"),
    "wkb": ("--hbars", "0.5"),
    "expand": ("--cutoff", "0", "--nodes", "8"),
}
_FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "1e-320", "", "abc", "1,2")
#: every size option has an upper bound; 3 * 10**18 is also past numpy's
#: largest array
_CAPPED = {
    "--res": str(10**9),
    "--nodes": str(10**9),
    **{
        flag: str(3 * 10**18)
        for flag in ("--truncation", "--theta-steps", "--max-index", "--cutoff", "--vectors")
    },
}
_FUZZ_CASES = [
    (name, flag, value)
    for name, sub in _subparsers().items()
    for action in sub._actions
    for flag in action.option_strings[:1]
    if flag not in ("-h", "--config", "--out")
    for value in _FUZZ_VALUES + ((_CAPPED[flag],) if flag in _CAPPED else ())
]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(_FUZZ_CASES))
def test_fuzzed_option_exits_0_2_or_3_without_nan(case):
    name, flag, value = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "artifact.out"
        argv = [name, *_TINY[name], flag, value, "--out", str(out)]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (code == 0), argv
        if out.exists():
            assert not re.search(r"\bnan\b", out.read_text(), re.IGNORECASE), argv
