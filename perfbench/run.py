"""Benchmark driver for the nhboson command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pseudo_grid --seed 1 --seconds 42 --trace 0

One client runs the workload's operations in a closed loop, each in a fresh
interpreter (see workloads.py), and repeats the pass until the next one
would overrun ``--seconds``.  After every operation, outside the timed
interval, the driver checks its one artifact (checks.py) and compares its
SHA-256 with the first pass.  Set-up and call times are reported at a
fixed reference speed of the host (see CALIBRATION_S).
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (tracing.py), the tracing overhead
among them, and writes the spans to ``.perfbench_out/<workload>/trace.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import checks
from tracing import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench_out"
#: no child may run past this many seconds after the run started, so that a
#: hanging operation still lets the run end well within 180 s
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

#: the median time of child.calibrate() on the reference host, a shared
#: 2-vCPU Xeon VM.  The end-to-end times are reported at that host's speed:
#: each set-up and call time is multiplied by CALIBRATION_S over the
#: calibration time of its own child, so that the host's speed, which on a
#: shared VM drifts by up to 2x within minutes, cancels out
CALIBRATION_S = 0.075

#: per-layer metrics taken as the summed inclusive time of one span name
SPAN_TIME = {
    "fock.sigma_min_points": "fock.sigma_min_s",
    "fock.build_matrix": "fock.dense_build_s",
    "modes.inner_product": "modes.inner_product_s",
    "modes.expand_amplitudes": "modes.expand_s",
    "wkb.wkb_integrals": "wkb.integrals_s",
    "wkb.leggauss": "wkb.rule_build_s",
    "cli.emit": "cli.emit_s",
    "operators.verify_identities": "operators.verify_s",
}
#: per-layer metrics taken as the number of spans of some names
SPAN_COUNT = {
    "quadrature.integrate_coupled": "quadrature.integrals",
    "quadrature.coupled_scheme": "quadrature.schemes_built",
    "quadrature.hermite_eval": "quadrature.hermite_evals",
    "quadrature.hermite_scaled": "quadrature.hermite_evals",
    "quadrature.hermite_function_jet": "quadrature.hermite_evals",
    "modes.inner_product": "modes.inner_products",
    "modes.ModeFunction.poly_part": "modes.poly_part_calls",
    "operators.compose": "operators.compose_calls",
    "ring.RingElem.__mul__": "ring.mul_calls",
}
#: per-layer metrics summed from the tracer's counters
COUNTERS = {
    "fock.svd_matrices": "count",
    "fock.svd_s": "s",
    "fock.svd_gflop_computed": "GFLOP",
    "fock.grid_points": "count",
    "fock.eig_blocks": "count",
    "fock.eig_s": "s",
    "fock.mp_eig_blocks": "count",
    "fock.mp_eig_s": "s",
    "quadrature.nodes_evaluated": "count",
    "wkb.rule_nodes": "count",
    "wkb.cap_hits": "count",
    "cli.emit_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({name: "s" for name in SPAN_TIME.values()})
    units.update({name: "count" for name in SPAN_COUNT.values()})
    units.update(COUNTERS)
    units["fock.peak_alloc_mb"] = "MB"
    units["quadrature.rule_hit_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excepted)."""
    m = dict.fromkeys(per_layer_units(), 0.0)
    hits = lookups = 0.0
    for rec in records:
        for _sid, _parent, layer, name, t0, t1, self_s in rec["spans"]:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += self_s
            if name in SPAN_TIME:
                m[SPAN_TIME[name]] += t1 - t0
            if name in SPAN_COUNT:
                m[SPAN_COUNT[name]] += 1
        m["trace.spans"] += len(rec["spans"])
        counters = rec["counters"]
        for name in COUNTERS:
            m[name] += counters.get(name, 0.0)
        m["fock.peak_alloc_mb"] = max(m["fock.peak_alloc_mb"], counters.get("fock.peak_alloc_mb", 0.0))
        hits += counters.get("cache.gauss_hermite.hits", 0.0)
        lookups += counters.get("cache.gauss_hermite.hits", 0.0) + counters.get("cache.gauss_hermite.misses", 0.0)
    m["quadrature.rule_hit_ratio"] = hits / lookups if lookups else 0.0
    return m


def environment(blas_threads: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Bench:
    """One run of one workload: spawns the operations, checks their
    artifacts, and keeps every per-operation record."""

    def __init__(self, root: str, workload: str, ops, seed: int):
        self.root = root
        self.ops = ops
        self.seed = seed
        self.outdir = os.path.join(root, OUT, workload)
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)
        self.threads = str(len(os.sched_getaffinity(0)))
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = self.threads
        self.env["PYTHONHASHSEED"] = "0"
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + DEADLINE_S

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def warm_up(self):
        """Compile the package's bytecode once, so that every operation pays
        the import cost of an installed package, not a first compile."""
        code = f"import sys; sys.path.insert(0, {os.path.join(self.root, 'src')!r}); import nhboson.cli"
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=self._timeout())

    def run_op(self, op, traced: bool) -> dict:
        """Spawn one operation and return its record (unchecked)."""
        opdir = os.path.join(self.outdir, op.name)
        shutil.rmtree(opdir, ignore_errors=True)
        os.makedirs(opdir)
        result_path = os.path.join(self.outdir, f"{op.name}.result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {
            "src": os.path.join(self.root, "src"),
            "argv": op.argv(self.seed),
            "precise": op.precise,
            "outdir": opdir,
            "result": result_path,
            "trace": traced,
        }
        rec = {"op": op.name, "opdir": opdir, "error": None}
        timeout = self._timeout()
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            rec["error"] = f"timed out after {timeout:.0f} s"
            return rec
        if proc.returncode != 0 or not os.path.exists(result_path):
            rec["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
            return rec
        with open(result_path, encoding="utf-8") as fh:
            rec.update(json.load(fh))
        rec["setup_s"] = rec["ready"] - spawned
        rec["speed"] = CALIBRATION_S / rec["cal_s"]
        rec["stdout"] = proc.stdout
        return rec

    def settle(self, op, rec) -> bool:
        """Check one operation's outcome and artifact; count the attempt."""
        self.attempted += 1
        error = rec["error"]
        if error is None:
            error = self._artifact_error(op, rec)
        if error is not None:
            self.failed += 1
            rec["error"] = error
            print(f"perfbench: {op.name} failed: {error}", file=sys.stderr)
        return error is None

    def _artifact_error(self, op, rec):
        files = os.listdir(rec["opdir"])
        if len(files) != 1:
            return f"wrote {len(files)} artifacts, expected exactly one"
        path = os.path.join(rec["opdir"], files[0])
        if rec["stdout"].strip().splitlines()[-1:] != [path]:
            return f"printed {rec['stdout'].strip()!r}, not the artifact path"
        try:
            checks.check(op, path, self.seed)
        except Exception as exc:  # a malformed artifact fails the operation, not the run
            return f"output check: {type(exc).__name__}: {exc}"
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digests.setdefault(op.name, digest) != digest:
            return "artifact differs from the first pass"
        return None

    def run_pass(self, traced: bool) -> list[dict]:
        records = []
        for op in self.ops:
            rec = self.run_op(op, traced)
            if self.settle(op, rec):
                records.append(rec)
        return records

    def run(self, seconds: float, trace: bool):
        """Passes until the next would overrun `seconds`; with `trace`,
        untraced and traced passes alternate, at least one of each."""
        self.warm_up()
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            want_trace = trace and len(traced) < len(plain)
            (traced if want_trace else plain).append(self.run_pass(want_trace))
            now = time.perf_counter()
            done = plain and (traced or not trace)
            if done and now - start + (now - began) > seconds:
                return plain, traced


def op_medians(passes, scaled: bool = True) -> dict[str, float]:
    """Each operation's median call time over the passes, at the reference
    host's speed or, with `scaled` false, as measured."""
    calls: dict[str, list[float]] = {}
    for records in passes:
        for rec in records:
            calls.setdefault(rec["op"], []).append(rec["call_s"] * (rec["speed"] if scaled else 1.0))
    return {op: statistics.median(v) for op, v in calls.items()}


def _median_pass(passes, scaled: bool = True) -> float:
    return sum(op_medians(passes, scaled).values())


def end_to_end(plain) -> dict[str, float]:
    setups = [rec["setup_s"] * rec["speed"] for records in plain for rec in records]
    peaks = [max(rec["maxrss_mb"] for rec in records) for records in plain if records]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": _median_pass(plain),
        "peak_rss_mb": statistics.median(peaks),
    }


def per_layer(plain, traced) -> dict[str, float]:
    passes = [layer_metrics(records) for records in traced]
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    out["trace.overhead_s"] = _median_pass(traced) - _median_pass(plain)
    return out


def write_trace(path, workload, seed, traced):
    """All spans of the traced passes: pass -> operation -> span tree, the
    spans of one operation sharing its record as their identifier."""
    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["id", "parent_id", "layer", "name", "start", "end", "self_s"],
        "passes": [
            {
                "pass_s": sum(rec["call_s"] for rec in records),
                "ops": [{"op": rec["op"], "call_s": rec["call_s"], "spans": rec["spans"]} for rec in records],
            }
            for records in traced
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nhboson", "cli.py")):
        print("perfbench: run from the root of an nhboson checkout (no src/nhboson/cli.py)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, WORKLOADS[args.workload], args.seed)
    plain, traced = bench.run(args.seconds, bool(args.trace))
    if not any(plain) or (args.trace and not any(traced)):
        print("perfbench: every operation failed; no metrics", file=sys.stderr)
        return 1

    print(f"environment {json.dumps(environment(bench.threads))}")
    print(f"workload {args.workload}: {len(plain)} untraced and {len(traced)} traced passes, closed loop, 1 client")
    if args.trace:
        metrics = per_layer(plain, traced)
        units = per_layer_units()
        trace_path = os.path.join(bench.outdir, "trace.json")
        write_trace(trace_path, args.workload, args.seed, traced)
        print(f"spans written to {os.path.relpath(trace_path, root)}")
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    measured = op_medians(plain, scaled=False)
    for op, call_s in op_medians(plain).items():
        print(f"op {op} call_s {call_s:.4f} at reference speed, {measured[op]:.4f} as measured (median, untraced)")
    setups = [rec["setup_s"] for records in plain for rec in records]
    speeds = [rec["speed"] for records in plain for rec in records]
    print(
        f"as measured: setup_s {statistics.median(setups):.4f} s, pass_s {sum(measured.values()):.4f} s;"
        f" host speed {statistics.median(speeds):.3f} of the reference (median)"
    )
    fail_ratio = bench.failed / bench.attempted
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {fail_ratio:.6g} ratio ({bench.failed} of {bench.attempted} operations)")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
