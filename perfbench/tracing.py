"""Span tracer for the benchmark's traced run.

The tracer wraps fbmvar's functions in the module namespaces where they
are looked up, so a call from `acceptance` into `harness.replicate_map`,
from `harness` into `fbm.sample_fbm`, or from `fbm.sample_fbm` into
`fbm.sample_fgn_circulant` passes through a span.  Nothing under `src/`
is edited: patches are applied to the imported modules and removed again
when the `patched()` context exits.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all spans add up to the durations of the
root spans, which the benchmark opens around each timed operation.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: modules of the package, one layer each
LAYERS = ("acceptance", "harness", "fbm", "variations", "brownian_time", "gaussian", "weights")

#: module namespaces whose imported functions are wrapped
NAMESPACES = ("acceptance", "harness", "brownian_time", "fbm")

#: private helpers worth a span of their own: the cached circulant spectrum
PRIVATE = {"fbm": ("_circulant_spectrum",)}


def span_name(fn) -> str:
    """'<module>.<qualname>' of the function's defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _rows(result) -> int:
    """Paths in a sampler result: one FbmPath, or one per batch row."""
    return result.shape[0] if hasattr(result, "shape") else 1


class Tracer:
    """Per-span-name aggregates: calls, inclusive seconds, self seconds."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.root_s = 0.0
        self._stack = []  # child seconds accumulated by each open span
        self._active = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, seconds)."""
        self._stack.append(0.0)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            children = self._stack.pop()
            self._active[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += seconds - children
            if not self._active[name]:  # a re-entered span counts once
                self.total_s[name] += seconds
            if self._stack:
                self._stack[-1] += seconds
            else:
                self.root_s += seconds
        return result, seconds

    def wrap(self, fn, name: str | None = None):
        """fn with a span around every call, tallying the work it returns."""
        name = name or span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, _ = self.call(name, fn, *args, **kwargs)
            self.tally(name, result)
            return result

        return traced

    def _wrap_replicate_map(self, fn):
        def traced(stat, *args, **kwargs):
            inner = self.wrap(stat, f"{stat.__module__.rsplit('.', 1)[-1]}.replicate_fn")
            result, _ = self.call("harness.replicate_map", fn, inner, *args, **kwargs)
            self.counts["harness.replicate_map.rows"] += len(result)
            return result

        return functools.wraps(fn)(traced)

    def tally(self, name: str, result) -> None:
        """Work counters read off a span's result."""
        if name in ("fbm.sample_fbm", "fbm.sample_fbm_cholesky"):
            self.counts["paths"] += _rows(result)
        elif name == "brownian_time.sample_walk":
            self.counts["paths"] += 1
        elif name == "fbm.sample_fgn_circulant":
            self.counts["fbm.sample_fgn_circulant.points"] += result.size
            # the complex128 transform buffer is (rows, 2 * count)
            self.counts["fbm.fft_bytes_computed"] += 32 * result.size
        elif name == "gaussian.limit_sigma":
            self.counts["gaussian.limit_sigma.terms"] += result.terms_used

    def _targets(self, fbmvar):
        """(owner, attribute, replacement) for every patch."""
        out = []
        for mod_name in NAMESPACES:
            module = getattr(fbmvar, mod_name)
            for attr, obj in vars(module).items():
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith("fbmvar."):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(mod_name, ()):
                    continue
                if attr.startswith("check_") or attr == "run_check":
                    continue  # the benchmark opens the root span itself
                name = span_name(obj)
                if name == "harness.replicate_map":
                    out.append((module, attr, self._wrap_replicate_map(obj)))
                else:
                    out.append((module, attr, self.wrap(obj, name)))
        seed_spec, weight = fbmvar.fbm.SeedSpec, fbmvar.weights.WeightFunction
        out.append((seed_spec, "rng", self.wrap(seed_spec.rng)))
        # __call__ goes through eval, so one patch sees every weight evaluation
        out.append((weight, "eval", self.wrap(weight.eval, "weights.WeightFunction")))
        return out

    @contextmanager
    def patched(self, fbmvar):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, replacement in self._targets(fbmvar):
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_self_s(self) -> dict:
        """Self seconds summed over the spans of each layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out
