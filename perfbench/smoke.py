"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of the checkout:

    python3 -m pytest -q perfbench/smoke.py
"""

import json
import os

import pytest

import checks
import run
from workloads import Op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = (
    Op("pseudo", "pseudo", ("--gamma", "0.5", "--truncation", "4", "--res", "5")),
    Op("spectrum", "spectrum", ("--gamma", "0.5", "--truncation", "10")),
    Op("accretive", "accretive", ("--gamma", "0.5", "--truncation", "4", "--vectors", "10", "--seed", "{seed}")),
    Op("precise", "precise", precise={"n_max": 10, "gamma": 0.5, "count": 6, "dps": 40}),
    Op("biorth", "biorth", ("--gamma", "0.5", "--max-index", "1")),
    Op("expand", "expand", ("--gamma", "0.5", "--cutoff", "1", "--seed", "{seed}")),
    Op("wkb", "wkb", ("--energy", "1", "--hbars", "0.2,0.1,0.01", "--summand", "sum")),
    Op("verify", "verify-algebra"),
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)


def _run(capsys, trace):
    code = run.main(["--workload", "tiny", "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, section):
    lines, result = _run(capsys, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(TINY)
    declared = _declared(section)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if len(ln.split()) == 3}
    assert {k: printed.get(k) for k in declared} == declared
    assert any(ln.startswith("fail_ratio 0 ratio") for ln in lines)


def test_span_self_times_add_up_to_the_pass(tiny, capsys):
    _, result = _run(capsys, 1)
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    with open(os.path.join(ROOT, run.OUT, "tiny", "trace.json"), encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    assert passes
    for p in passes:
        self_total = 0.0
        for op in p["ops"]:
            spans = {s[0]: s for s in op["spans"]}
            for sid, parent, _layer, _name, t0, t1, self_s in op["spans"]:
                assert parent == 0 or spans[parent][4] <= t0 <= t1 <= spans[parent][5]
                assert self_s >= -1e-9
                self_total += self_s
        assert abs(p["pass_s"] - self_total) <= abs(overhead) + 1e-3


def test_corrupted_artifact_raises_fail_ratio(tiny):
    bench = run.Bench(ROOT, "tiny", TINY, seed=7)
    bench.warm_up()
    assert all(bench.settle(op, bench.run_op(op, False)) for op in TINY)
    assert bench.failed == 0

    pseudo, biorth = TINY[0], TINY[4]
    rec = bench.run_op(pseudo, False)  # a NaN sigma_min that exits 0
    path = os.path.join(rec["opdir"], os.listdir(rec["opdir"])[0])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.rsplit(",", 1)[0] + ",nan\n")
    assert not bench.settle(pseudo, rec)

    rec = bench.run_op(biorth, False)  # within tolerance, but not the same bytes
    path = os.path.join(rec["opdir"], os.listdir(rec["opdir"])[0])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    head, last = text.rstrip("\n").rsplit(",", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{head},{float(last) + 1e-12!r}\n")
    checks.check(biorth, path, 7)  # the check alone passes ...
    assert not bench.settle(biorth, rec)  # ... the digest does not
    assert bench.failed / bench.attempted == 2 / (len(TINY) + 2)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
