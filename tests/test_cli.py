"""Command-line surface: schemas, determinism, config precedence, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhboson import __version__, cli, fock, modes
from nhboson.cli import (
    ACCRETIVE_DRAWS_MAX,
    COMMANDS,
    ENV_OUTDIR,
    SIZE_RANGES,
    RunConfig,
    _build_parser,
    _fold_dash_values,
    _merge_config,
    main,
)


def run(tmp_path, *argv):
    out = tmp_path / "artifact.out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_csv(path):
    header, *rows = csv.reader(io.StringIO(path.read_text(), newline=""))
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
    argv = ["pseudo", "--gamma", "0.3", "--truncation", "6", "--grid", "-1,3,-2,2", "--res", "7", "--format", "json"]
    code, out = run(tmp_path, *argv)
    assert code == 0
    params = json.loads(out.read_text())["params"]
    args = _build_parser().parse_args(_fold_dash_values([*argv, "--out", str(out)]))
    assert params == _merge_config(args).as_params()
    assert (params["gamma"], params["re_max"], params["resolution"]) == (0.3, 3.0, 7)


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


def test_accretive_rayleigh_row_at_huge_and_unit_gamma(tmp_path):
    # past |gamma| ~ 1e155 the hyperbola excess is -inf, not NaN, as every
    # Rayleigh quotient is finite and inside; at 0.5 it is the direct form's
    # value to the last bit, so the artifact keeps its bytes
    for gamma in ("1e155", "1e200", "0.5"):
        code, out = run(tmp_path, "accretive", "--gamma", gamma, "--truncation", "2", "--vectors", "2",
                        "--points=-1", "--format", "json")
        assert code == 0, gamma
        rayleigh = json.loads(out.read_text())["rows"][-1]
        g = np.float64(gamma)
        pts = fock.rayleigh_quotients(2, g, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = float(np.max(pts.imag**2 - g * g * (pts.real**2 - 1.0)))
        assert rayleigh["ok"] and rayleigh["b"] == (direct if gamma == "0.5" else -math.inf), gamma


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


@pytest.mark.parametrize("nodes", ["200", "300", "512"])
@pytest.mark.parametrize("gamma", ["0.5", "3", "-3", "-100"])
@pytest.mark.parametrize("cutoff", ["1", "8"])
def test_expand_at_large_node_counts(tmp_path, cutoff, gamma, nodes):
    # psi underflows at the outer nodes while e^(w (x^2+y^2) - 2 g x y)
    # overflows; its polynomial part comes from the coefficients instead
    code, out = run(tmp_path, "expand", f"--gamma={gamma}", "--cutoff", cutoff, "--nodes", nodes)
    assert code == 0
    _, rows = read_csv(out)
    assert max(float(r[4]) for r in rows) < 1e-14


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


@pytest.mark.parametrize(
    "argv, need",
    [
        (("norms", "--max-index", "8", "--nodes", "16"), 17),
        (("biorth", "--max-index", "6", "--nodes", "2"), 7),
        (("expand", "--cutoff", "3", "--nodes", "1"), 4),
    ],
)
def test_quadrature_below_the_exact_node_count_exits_2(tmp_path, capsys, argv, need):
    # an n-node Gauss-Hermite rule is exact through degree 2n - 1; below the
    # minimum these runs wrote wrong values with exit 0
    code, out = run(tmp_path, *argv)
    assert code == 2 and not out.exists()
    assert f"needs nodes >= {need} " in capsys.readouterr().err
    code, out = run(tmp_path, *argv[:-1], str(need))
    assert code == 0 and out.exists()


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
        ("pseudo", "--grid=-1e308,1e308,-1,1", "--res", "3"),
        ("pseudo", "--grid=1e308,-1e308,-1,1"),
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
    # a LAPACK routine that rescales writes "** On entry to DLASCL ..." to
    # file descriptor 1 once an entry overflows, which redirect_stdout
    # cannot see.  No gamma is capped: at 1e308 block entries overflow and
    # sigma_min raises (exit 3), and both commands exit 0 at -1e200
    for gamma, expected in (("1e308", 3), ("-1e200", 0), ("1e151", 0)):
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


def test_accretive_draws_are_bounded_before_any_work(tmp_path, capsys):
    # 125 000 000 = 50 000 x 50^2 and 125 000 001 = 10 521 x 109^2
    assert ACCRETIVE_DRAWS_MAX == 125_000_000
    RunConfig(command="accretive", truncation=49, vectors=50_000).validate()
    with pytest.raises(ValueError, match="vectors"):
        RunConfig(command="accretive", truncation=108, vectors=10_521).validate()
    RunConfig(command="accretive").validate()  # the default, N = 40 and 1 000 vectors
    code, out = run(tmp_path, "accretive", "--truncation", "500", "--vectors", "100000")
    assert code == 2
    assert f"<= {ACCRETIVE_DRAWS_MAX}" in capsys.readouterr().err
    assert not out.exists()


def test_accretive_rejects_infinite_point(tmp_path, capsys):
    code, out = run(tmp_path, "accretive", "--points=-inf", "--truncation", "3")
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
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


@pytest.mark.parametrize("gamma", ["1e200", "1e300"])
def test_numrange_at_huge_gamma_is_finite(tmp_path, gamma):
    # 1 + gamma^2 overflows here, but every kept row's true value is finite
    code, out = run(tmp_path, "numrange", "--gamma", gamma, "--truncation", "2")
    assert code == 0
    header, rows = read_csv(out)
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    at_zero = dict(zip(header, next(row for row in rows if float(row[0]) == 0.0)))
    assert float(at_zero["E_numeric"]) == float(at_zero["E_closed"]) == 1.0


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
    # the CLI's start-up cost: mpmath is imported only by the calls that need
    # it, numpy.polynomial by none (wkb builds its own Legendre rules), and
    # dataclasses by none (records are NamedTuples or __slots__ classes, so
    # no methods are generated and compiled at import)
    code = (
        "import sys, nhboson.cli; print(*(name in sys.modules for name in "
        "('scipy', 'mpmath', 'numpy.polynomial', 'dataclasses')))"
    )
    assert _fresh_interpreter(code).strip() == "False False False False"


def test_library_warning_is_one_nhboson_line(tmp_path, monkeypatch, capsys):
    # |gamma| >= 1 on a truncation command warns, and the command still
    # writes its artifact; a fresh interpreter shows no Python warning text
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["spectrum", "--gamma", "2", "--truncation", "2", "--out", str(tmp_path / "spectrum.csv")]
    done = subprocess.run(
        [sys.executable, "-m", "nhboson.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr.startswith("nhboson: warning: |gamma| = 2.0 >= 1")
    assert len(done.stderr.splitlines()) == 1
    assert "UserWarning" not in done.stderr and ".py:" not in done.stderr
    # a warning raised inside the library is one nhboson: line too
    gram_matrix = modes.gram_matrix

    def warning_gram_matrix(*args):
        warnings.warn("a library warning", stacklevel=2)
        return gram_matrix(*args)

    monkeypatch.setattr(modes, "gram_matrix", warning_gram_matrix)
    code, out = run(tmp_path, "biorth", "--max-index", "1", "--nodes", "8")
    assert code == 0 and out.exists()
    assert capsys.readouterr().err == "nhboson: warning: a library warning\n"


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


def test_artifact_is_renamed_into_place_with_the_umask_mode(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    code, out = run(tmp_path, "wkb", "--hbars", "0.5")
    assert code == 0
    assert os.listdir(tmp_path) == [out.name]
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_leaves_no_artifact(tmp_path, monkeypatch, capsys):
    # the disk fills after the first chunk of the payload is written
    class FullDisk(io.StringIO):
        def write(self, text):
            with open(self.path, "a") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    def full_disk_open(path, mode="r", **kwargs):
        handle = FullDisk()
        handle.path = path
        return handle

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    code, out = run(tmp_path, "wkb", "--hbars", "0.5")
    assert code == 2
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_env_var_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "emitted"))
    code = main(["wkb", "--hbars", "0.5"])
    assert code == 0
    assert (tmp_path / "emitted" / "wkb.csv").exists()


#: the columns whose cells are not floats, by name
_INT_COLUMNS = {"index", "m", "n", "p", "q", "residual_monomial_count"}
_BOOL_COLUMNS = {"ok"}
_STR_COLUMNS = {"kind", "identity_name", "status"}
_FORMAT_RUNS = {**{name: (name, *argv) for name, argv in SMALL_RUNS.items()},
                "verify-algebra-numeric": ("verify-algebra", "--gamma", "0.5")}


@pytest.mark.parametrize("run_name", sorted(_FORMAT_RUNS))
def test_cell_formats_of_every_command(tmp_path, run_name):
    argv = _FORMAT_RUNS[run_name]
    assert main([*argv, "--format", "csv", "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "a.json")]) == 0
    header, rows = read_csv(tmp_path / "a.csv")
    assert all(len(row) == len(header) for row in rows)
    doc_rows = json.loads((tmp_path / "a.json").read_text())["rows"]
    assert rows and len(rows) == len(doc_rows)
    for name, cells, values in zip(header, zip(*rows), zip(*(r.values() for r in doc_rows))):
        for cell, value in zip(cells, values):
            if name in _BOOL_COLUMNS:
                assert cell in ("true", "false") and value is (cell == "true"), (name, cell)
            elif name in _INT_COLUMNS:
                assert str(int(cell)) == cell and type(value) is int and value == int(cell), (name, cell)
            elif name in _STR_COLUMNS:
                assert type(value) is str and value == cell, (name, cell)
            else:
                assert repr(float(cell)) == cell and type(value) is float and value == float(cell), (name, cell)


def test_columns_follow_the_per_row_loops(tmp_path):
    # the loops the columns replaced: pseudo's grid row by row, and the
    # index tables' np.ndenumerate (norms; biorth and expand share its path)
    code, out = run(tmp_path, "pseudo", "--truncation", "4", "--grid", "-1,4,-2,2", "--res", "5")
    assert code == 0
    grid = fock.pseudospectrum(4, 0.5, (-1.0, 4.0), (-2.0, 2.0), 5)
    assert read_csv(out)[1] == [
        [repr(float(re)), repr(float(im)), repr(float(grid.sigma_min[iy, ix]))]
        for iy, im in enumerate(grid.im)
        for ix, re in enumerate(grid.re)
    ]
    code, out = run(tmp_path, "norms", "--max-index", "2", "--nodes", "16")
    assert code == 0
    table = modes.flat_norms(0.5, 2, 16)
    assert read_csv(out)[1] == [[*map(str, idx), repr(float(v))] for idx, v in np.ndenumerate(table)]


def test_csv_quotes_the_str_cells_that_need_it():
    cells = ["[a,a*]=1", 'say "hi"', "two\nlines", "plain", ""]
    fh = io.StringIO()
    cli._write_csv(fh, ["name", "count"], [np.array(cells), np.arange(len(cells))])
    text = fh.getvalue()
    assert text.splitlines()[1:3] == ['"[a,a*]=1",0', '"say ""hi""",1']
    assert "plain,3\n,4\n" in text
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["name", "count"], *([c, str(i)] for i, c in enumerate(cells))
    ]


def test_spectrum_abs_err_is_python_abs_of_each_difference(tmp_path):
    code, out = run(tmp_path, "spectrum", "--gamma", "0.5", "--truncation", "40")
    assert code == 0
    _, rows = read_csv(out)
    diffs = [complex(float(re), float(im)) - float(closed) for _, re, im, closed, _ in rows]
    assert [err for *_, err in rows] == [repr(abs(d)) for d in diffs]
    # numpy's vectorized complex abs rounds some of these differently
    assert np.any(np.abs(np.array(diffs)) != np.array([abs(d) for d in diffs]))


def test_table_with_no_rows_writes_only_the_header(tmp_path):
    argv = ("numrange", "--gamma", "100", "--theta-min", "0.5", "--theta-max", "1.0")
    assert main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
    assert (tmp_path / "a.csv").read_text() == "theta,E_numeric,E_closed,x,y,envelope_y\n"
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "a.json")]) == 0
    assert '\n  "rows": []\n}\n' in (tmp_path / "a.json").read_text()


def test_csv_chunks_join_to_the_same_bytes(tmp_path, monkeypatch):
    argv = ["accretive", "--truncation", "3", "--vectors", "5", "--points=-1;-2;-3;-4", "--format", "csv"]
    assert main([*argv, "--out", str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 2)  # five rows: chunks of 2, 2 and 1
    assert main([*argv, "--out", str(tmp_path / "chunked.csv")]) == 0
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_float_cells_are_each_cells_repr(monkeypatch):
    # each distinct float is formatted once per chunk, keyed by its bits:
    # -0.0 and 0.0 keep their own text, and chunks of 3 cut the repeats apart
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
    values = [0.0, -0.0, 1.5, math.inf, -0.0, 1.5, -math.inf, 0.1 + 0.2, 0.0, 1.5, 5e-324]
    column = np.array(values, dtype=complex).real  # a strided view, as spectrum's re column is
    fh = io.StringIO()
    cli._write_csv(fh, ["i", "x", "flag"], [np.arange(11), column, np.arange(11) % 2 == 0])
    rows = [f"{i},{x!r},{'true' if i % 2 == 0 else 'false'}" for i, x in enumerate(values)]
    assert fh.getvalue() == "\n".join(["i,x,flag", *rows]) + "\n"


def test_csv_memory_is_bounded_by_the_columns(tmp_path):
    # 194 481 rows; the whole CSV text held at once peaked at 55 MB
    main(["biorth", "--max-index", "1", "--out", str(tmp_path / "warm.csv")])
    tracemalloc.start()
    try:
        code = main(["biorth", "--max-index", "20", "--out", str(tmp_path / "biorth.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 25e6


def _subparsers(parser=None):
    parser = parser or _build_parser()
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


#: argv whose parse must not depend on which subparsers exist: no command,
#: the top-level flags, an unknown command, each command's help, errors the
#: top level reports after a subparser ran, a subparser's own errors, and a
#: parse that succeeds
_DISPATCH_CASES = [
    [], ["-h"], ["--version"], ["frobnicate"],
    *([name, "-h"] for name in COMMANDS),
    ["pseudo", "--bogus", "1"], ["pseudo", "--version"], ["wkb", "--summand", "foo"],
    ["pseudo", "--truncation"], ["pseudo", "--gamma=-3", "--res", "5", "--grid=-1,8,-4,4"],
]


def _parse_outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", _DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_own_command_parser_matches_the_full_parser(argv):
    only = argv[0] if argv and argv[0] in COMMANDS else None
    assert _parse_outcome(_build_parser(only), argv) == _parse_outcome(_build_parser(), argv)


def test_a_call_builds_only_its_own_commands_parser(tmp_path, monkeypatch):
    built = []

    def spy(only=None):
        parser = _build_parser(only)
        built.append(list(_subparsers(parser)))
        return parser

    monkeypatch.setattr(cli, "_build_parser", spy)
    code, _ = run(tmp_path, "norms", "--max-index", "0", "--nodes", "8")
    assert code == 0
    assert built == [["norms"]]
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        main(["frobnicate"])
    assert built[1:] == [list(COMMANDS)]


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
