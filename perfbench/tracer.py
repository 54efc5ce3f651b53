"""Span recorder that traces treeqi's public functions from outside the package.

`install(tracer)` wraps each function in TARGETS and rebinds the wrapper in
every loaded `treeqi.*` namespace that holds the original, because `cli.py`
and `transforms.py` import these names directly.  Each call records one span
in memory: name, start and end (CLOCK_MONOTONIC ns, comparable across the
processes of one host), parent span, job id, work counts, and the rise of
`ru_maxrss` across the call.  `Tracer.write` dumps the spans as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import time


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _geodesic_pairs(fn, args, kwargs, result) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(bound.arguments["m"].domain)
    source = bound.arguments["pair_source"]
    total = n * (n - 1) // 2
    return {"pairs": total if source.mode == "exhaustive" else min(source.count or 0, total)}


def _build_counts(fn, args, kwargs, result) -> dict:
    classes = result[1].classes
    return {"classes": len(classes), "rng_draws": sum(c.rng_draws for c in classes)}


# (module, function) -> work counts taken from (function, args, kwargs, result)
TARGETS = {
    ("cli", "main"): None,
    ("mapfile", "parse_map_file"): lambda f, a, kw, r: {"lines": len(r.domain) + 1},
    ("mapfile", "write_map_file"): lambda f, a, kw, r: {"lines": len(a[0].domain) + 1},
    ("mapfile", "parse_trace_file"): None,
    ("mapfile", "write_trace_file"): None,
    ("tree_core", "ball"): None,
    ("qi_map", "measure_qi"): lambda f, a, kw, r: {"pairs": r.pairs_checked},
    ("qi_map", "check_geodesic_image"): _geodesic_pairs,
    ("qi_map", "check_same_depth"): None,
    ("qi_map", "coarse_surjectivity_radius"): None,
    ("qi_map", "is_order_preserving"): None,
    ("qi_map", "sup_distance"): None,
    ("qi_map", "compose"): None,
    ("transforms", "measure_promise"): None,
    ("transforms", "normalize_order_preserving"): None,
    ("transforms", "approximate_by_mixed"): lambda f, a, kw, r: {"classes": len(r[2].classes)},
    ("mixed_builder", "build_mixed"): _build_counts,
    ("mixed_builder", "verify_mixed_structure"): None,
}


class Tracer:
    """Keeps the spans of one process in memory."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def record(self, name: str, start: int, end: int) -> None:
        """A top-level span timed by the caller."""
        self.spans.append({
            "id": next(self._ids), "parent": None, "job": self.job, "name": name,
            "start": start, "end": end, "counts": {}, "rss_raise_kb": 0,
        })

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            rss0 = _maxrss_kb()
            start = now_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = now_ns()
                self._stack.pop()
                self.spans.append({
                    "id": span_id, "parent": parent, "job": self.job, "name": name,
                    "start": start, "end": end, "rss_raise_kb": _maxrss_kb() - rss0,
                    "counts": counter(fn, args, kwargs, result) if ok and counter else {},
                })
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function in every treeqi namespace that binds it."""
    modules = {m: importlib.import_module(f"treeqi.{m}") for m, _ in TARGETS}
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "treeqi" or name.startswith("treeqi.")]
    for (module, fname), counter in TARGETS.items():
        original = getattr(modules[module], fname)
        wrapped = tracer.wrap(f"{module}.{fname}", original, counter)
        for ns in namespaces:
            if getattr(ns, fname, None) is original:
                setattr(ns, fname, wrapped)
