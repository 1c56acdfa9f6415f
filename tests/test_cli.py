"""Command-line surface: schemas, determinism, config precedence, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from nhboson import __version__
from nhboson.cli import ENV_OUTDIR, RunConfig, main


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


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["numrange", "--gamma", "0.5", "--truncation", "12", "--theta-steps", "9"]
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
