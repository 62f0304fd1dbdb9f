"""Per-layer tracing of ``patfix`` from outside the package.

:class:`Tracer` replaces each traced public function with a wrapper at
every ``patfix`` module that holds it by name (modules import public
names directly, so patching only the defining module would miss calls).
A wrapper records a span -- name, start, end, parent span and busy
time -- in memory, and counts work from the call's arguments and return
value.  :meth:`Tracer.metrics` turns the spans into per-layer self times
and counts when the session ends.

A layer's self time is the busy time of its spans minus the busy time of
their child spans.  ``enumerate_avoiders`` is a generator: its span is
busy only while it is producing the next permutation, so the time its
consumer spends between items is not charged to the oracle.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from time import perf_counter

#: (module, function) -> span name.  Several audit functions share one
#: span name, the audit kind their reports carry.
TRACED = {
    ("oracle", "enumerate_avoiders"): "oracle.enumerate_avoiders",
    ("oracle", "refined_count"): "oracle.refined_count",
    ("oracle", "count_table"): "oracle.count_table",
    ("generators", "generate"): "generators.generate",
    ("generators", "generate_refined"): "generators.generate_refined",
    ("formulas", "evaluate"): "formulas.evaluate",
    ("formulas", "recurrence_check"): "formulas.recurrence_check",
    ("genfun", "series_coefficients"): "genfun.series_coefficients",
    ("genfun", "sum_over_k"): "genfun.sum_over_k",
    ("audit", "audit_formula"): "audit.formula",
    ("audit", "audit_generator"): "audit.generator",
    ("audit", "audit_recurrence"): "audit.recurrence",
    ("audit", "audit_gf_coefficients"): "audit.genfun",
    ("audit", "audit_gf_sum"): "audit.genfun",
    ("audit", "audit_sum_identity"): "audit.identity",
    ("audit", "audit_small_class_bound"): "audit.property",
    ("audit", "audit_vanishing"): "audit.property",
    ("equivalence", "super_wilf_classes"): "equivalence.super_wilf_classes",
    ("equivalence", "divergence_witness"): "equivalence.divergence_witness",
    ("cli", "main"): "cli.main",
}

_SELF_TIMES = tuple(dict.fromkeys(TRACED.values()))
_CALLS = (
    "oracle.enumerate_avoiders", "oracle.refined_count",
    "generators.generate", "generators.generate_refined",
    "formulas.evaluate", "genfun.series_coefficients",
    "equivalence.divergence_witness",
)

#: Every per-layer metric a traced session reports, with its unit.  The
#: session adds ``cli.stdout_bytes`` and the runner ``trace.overhead_s``.
METRIC_UNITS = {
    **{f"{name}.self_s": "s" for name in _SELF_TIMES},
    **{f"{name}.calls": "count" for name in _CALLS},
    "oracle.avoiders": "count",
    "oracle.sweep_perms": "count",
    "oracle.yield_ratio": "1",
    "generators.perms_built": "count",
    "genfun.series_terms": "count",
    "audit.cells": "count",
    "cli.commands": "count",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts for one session.  Single-threaded by design."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, busy seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sites: list[tuple[object, str, object]] = []
        self._stack: list[tuple[int, float]] = []
        self._swept_sizes: set[int] = set()

    # -- spans --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        now = perf_counter()
        self.spans.append([name, now, now, parent, 0.0])
        self._stack.append((len(self.spans) - 1, now))
        return len(self.spans) - 1

    def _pause(self, idx: int) -> None:
        top, resumed = self._stack.pop()
        if top != idx:
            raise RuntimeError("trace spans closed out of order")
        now = perf_counter()
        span = self.spans[idx]
        span[2] = now
        span[4] += now - resumed

    def _resume(self, idx: int) -> None:
        self._stack.append((idx, perf_counter()))

    # -- counts taken outside the layer -------------------------------

    def _sweep(self, sizes) -> None:
        """The exhaustive oracle sweeps S_n once per size per process."""
        for n in sizes:
            if n not in self._swept_sizes:
                self._swept_sizes.add(n)
                self.counts["oracle.sweep_perms"] += math.factorial(n)

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        if name == "oracle.refined_count":
            self._sweep([_arg(args, kwargs, 0, "n")])
        elif name == "oracle.count_table":
            self._sweep(range(_arg(args, kwargs, 0, "n_max") + 1))
        elif name == "generators.generate":
            c["generators.perms_built"] += len(result)
        elif name == "generators.generate_refined":
            c["generators.perms_built"] += sum(result)
        elif name == "genfun.series_coefficients":
            c["genfun.series_terms"] += _arg(args, kwargs, 1, "m") + 1
        elif name.startswith("audit."):
            c["audit.cells"] += result.cells_checked
        elif name == "cli.main":
            c["cli.commands"] += 1

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pause(idx)
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_avoiders(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            yielded = 0
            try:
                for perm in fn(*args, **kwargs):
                    yielded += 1
                    self._pause(idx)
                    try:
                        yield perm
                    finally:
                        self._resume(idx)
            finally:
                self._pause(idx)
                self.counts["oracle.avoiders"] += yielded
                n = _arg(args, kwargs, 0, "n")
                self.counts["oracle.sweep_perms"] += math.factorial(n)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every ``patfix`` module that
        holds it under any name."""
        if self.sites:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "patfix" or key.startswith("patfix.")]
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[f"patfix.{module}"], attr)
            if name == "oracle.enumerate_avoiders":
                wrapper = self._wrap_avoiders(name, original)
            else:
                wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.sites.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self.sites):
            setattr(mod, key, original)
        self.sites.clear()

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float | int]:
        """Per-layer self times, call counts and work counts."""
        if self._stack:
            raise RuntimeError("trace has open spans")
        child_busy = [0.0] * len(self.spans)
        for name, _, _, parent, busy in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, _, _, _, busy), inner in zip(self.spans, child_busy):
            self_s[name] += busy - inner
            calls[name] += 1
        out: dict[str, float | int] = {}
        for metric in METRIC_UNITS:
            layer, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = float(self_s[layer])
            elif kind == "calls":
                out[metric] = calls[layer]
            else:
                out[metric] = self.counts[metric]
        swept = self.counts["oracle.sweep_perms"]
        out["oracle.yield_ratio"] = self.counts["oracle.avoiders"] / swept if swept else 0.0
        return out
