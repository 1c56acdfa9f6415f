"""Outside-in tracer for one benchmark child process.

The tracer wraps the public functions of each nhboson module (plus a few
methods) by rebinding every module attribute that refers to them, so calls
made through ``from .x import f`` bindings are seen as well.  Each wrapped
call becomes a span ``(id, parent_id, layer, name, start, end, self_s)``
kept in memory; the child writes the spans out once its operation is done.

Kernel entry points (``np.linalg.svd``, ``np.linalg.eig``, ``mp.eig``) and
the WKB node-doubling loops are wrapped transparently: they feed counters
and timers but open no span, so their time stays in the self time of the
layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import time

import numpy as np

LAYERS = ("cli", "fock", "quadrature", "modes", "wkb", "operators", "ring")

#: methods traced as spans in addition to each module's public functions
METHODS = {
    "modes": (("ModeFunction", "eval"), ("ModeFunction", "poly_part")),
    "operators": (("OperatorPoly", "__mul__"),),
    "ring": (("RingElem", "__mul__"),),
}

#: Golub-Van Loan operation count for the singular values alone of an
#: n x n matrix (bidiagonalisation dominates): 8/3 n^3 real flops, and four
#: times that in complex arithmetic
SVD_REAL_FLOPS = 8.0 / 3.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _batch(shape) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


class Tracer:
    """Spans and counters for the wrapped calls of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, time covered by children, layer]
        self._next_id = 1
        self._legendre_max = 0
        self._modules = {name: importlib.import_module(f"nhboson.{name}") for name in LAYERS}
        self._caches = {}

    def add(self, key: str, value: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- spans ------------------------------------------------------------

    def _span(self, layer, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        # growth of the process's peak resident set over each outermost fock
        # call: cheap enough to leave the traced times undisturbed, unlike
        # tracemalloc, which hooks every allocation mpmath makes
        watch_peak = layer == "fock" and all(f[2] != "fock" for f in self._stack)
        frame = [sid, 0.0, layer]
        self._stack.append(frame)
        if watch_peak:
            peak_before = _peak_rss_mb()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if watch_peak:
                growth = _peak_rss_mb() - peak_before
                self.counters["fock.peak_alloc_mb"] = max(self.counters.get("fock.peak_alloc_mb", 0.0), growth)
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((sid, parent, layer, f"{layer}.{name}", t0, t1, duration - frame[1]))

    def _wrap(self, layer, name, fn, hook=None):
        tracer = self
        if hook is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer._span(layer, name, fn, args, kwargs)

            return traced

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = tracer._span(layer, name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)
            return result

        return counted

    def _timed(self, key, fn, args, kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(key, time.perf_counter() - t0)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function, the METHODS and the kernels."""
        hooks = {
            "integrate_coupled": lambda a, _: self.add("quadrature.nodes_evaluated", a["n"] ** 2),
            "sigma_min_points": lambda a, _: self.add("fock.grid_points", np.asarray(a["zs"]).size),
            "leggauss": self._legendre,
            "emit": lambda _, path: self.add("cli.emit_bytes", os.path.getsize(path)),
        }
        for layer, mod in self._modules.items():
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
                if not public or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if hasattr(obj, "cache_info"):
                    self._caches[name] = obj
                self._rebind(obj, self._wrap(layer, name, obj, hooks.get(name)))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", cls.__dict__[meth]))
        self._install_kernels()

    def _rebind(self, original, replacement):
        """Point every nhboson module attribute bound to `original` (the
        defining module, each ``from .x import`` binding and the package's
        re-exports) at `replacement`."""
        for mod in (*self._modules.values(), importlib.import_module("nhboson")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def _install_kernels(self):
        from mpmath import mp

        svd, eig, mp_eig = np.linalg.svd, np.linalg.eig, mp.eig

        def traced_svd(a, *args, **kwargs):
            a = np.asarray(a)
            batch, n = _batch(a.shape), min(a.shape[-2:])
            flops = SVD_REAL_FLOPS * n**3 * (4.0 if np.iscomplexobj(a) else 1.0)
            self.add("fock.svd_matrices", batch)
            self.add("fock.svd_gflop_computed", batch * flops / 1e9)
            return self._timed("fock.svd_s", svd, (a,) + args, kwargs)

        def traced_eig(a, *args, **kwargs):
            self.add("fock.eig_blocks", _batch(np.shape(a)))
            return self._timed("fock.eig_s", eig, (a,) + args, kwargs)

        def traced_mp_eig(a, *args, **kwargs):
            self.add("fock.mp_eig_blocks")
            return self._timed("fock.mp_eig_s", mp_eig, (a,) + args, kwargs)

        np.linalg.svd = traced_svd
        np.linalg.eig = traced_eig
        mp.eig = traced_mp_eig
        wkb = self._modules["wkb"]
        for name in ("_converged_quadrature", "_log_gaussian_integral"):
            setattr(wkb, name, self._cap_watch(getattr(wkb, name)))

    def _legendre(self, arguments, _):
        self.add("wkb.rule_nodes", arguments["n"])
        self._legendre_max = max(self._legendre_max, arguments["n"])

    def _cap_watch(self, loop):
        """Count node-doubling loops that ran up to their node cap."""
        sig = inspect.signature(loop)

        @functools.wraps(loop)
        def watched(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            outer, self._legendre_max = self._legendre_max, 0
            try:
                return loop(*args, **kwargs)
            finally:
                if self._legendre_max >= bound.arguments["n_cap"]:
                    self.add("wkb.cap_hits")
                self._legendre_max = max(outer, self._legendre_max)

        return watched

    def report(self) -> dict:
        """Counters, rule-cache statistics from cache_info(), and spans."""
        counters = dict(self.counters)
        for name, fn in self._caches.items():
            info = fn.cache_info()
            counters[f"cache.{name}.hits"] = float(info.hits)
            counters[f"cache.{name}.misses"] = float(info.misses)
        return {"counters": counters, "spans": [list(s) for s in self.spans]}
