"""One benchmark operation in a fresh interpreter, as a user would run it.

Usage: python3 child.py '<spec json>'

The spec names the checkout's ``src`` directory, the operation (a CLI argv,
or a call of ``fock.lowest_eigenvalues_precise``), the directory its one
artifact goes to, the file this process writes its result to, and whether
to trace.  The result holds the moment ``nhboson.cli`` was ready, the time
spent inside the call alone, the peak resident set at its end, the time a
fixed calibration took right after it, the exit code and, when tracing,
the tracer's counters and spans.
"""

import json
import os
import resource
import sys
import time


def _write_precise(params, values, outdir):
    """The library call writes nothing, so the artifact is written here,
    outside the timed call: the values to the precision they were computed."""
    from mpmath import mp

    path = os.path.join(outdir, "precise.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"params": params, "values": [mp.nstr(v, params["dps"]) for v in values]}, fh)
        fh.write("\n")
    print(path)


def calibrate() -> float:
    """Seconds taken by fixed work that does not touch nhboson: interpreted
    Python, small numpy products and passes over a 16 MB array, the kinds
    of work the benchmark's operations do.  Run right after the call, on
    the same CPU as a rule, it measures how fast the host was then.  The
    garbage collector is off, so the objects the call left alive do not
    count."""
    import gc

    import numpy as np

    gc.disable()
    t0 = time.perf_counter()
    d = {}
    for i in range(80000):
        d[i % 97, i % 89] = d.get((i % 97, i % 89), 0) + i * 3
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(3000):
        a = (a @ a.T) * 1e-3 + np.eye(8)
    x = np.ones(1 << 21)
    for _ in range(40):
        x *= 1.0000001
    cal_s = time.perf_counter() - t0
    gc.enable()
    return cal_s


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import nhboson.cli as cli

    ready = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != os.path.abspath(spec["src"]):
        sys.exit(f"nhboson imported from {cli.__file__}, not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    os.environ["NHBOSON_OUTDIR"] = spec["outdir"]
    precise = spec["precise"]
    t0 = time.perf_counter()
    if precise is None:
        code = cli.main(spec["argv"])
    else:
        values = cli.fock.lowest_eigenvalues_precise(
            precise["n_max"], precise["gamma"], precise["count"], dps=precise["dps"]
        )
        code = 0
    call_s = time.perf_counter() - t0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_s = calibrate()
    if precise is not None:
        _write_precise(precise, values, spec["outdir"])
    result = {
        "ready": ready,
        "call_s": call_s,
        "cal_s": cal_s,
        "code": code,
        "maxrss_mb": maxrss_mb,
    }
    if tracer is not None:
        result.update(tracer.report())
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
