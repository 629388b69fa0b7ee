"""Outside-in tracing of the wcpx layers, for the traced benchmark run only.

``Tracer.install`` wraps public functions of the wcpx modules at run time
and rebinds every module namespace that imported them, so a call made
through ``from .linmaps import tensor`` is traced as well as one made
through ``wcpx.linmaps.tensor``.  Patching ``wcpx.linmaps.compose`` also
covers ``LinMap.__matmul__``, which looks ``compose`` up at call time.
No file of wcpx changes.

Each wrapped call records a span in memory: name, start, end, parent span
and job id.  The ``Fp`` arithmetic methods are only counted, since a span
per field operation would cost more than the operation.  ``metrics``
turns the spans into per-layer numbers; ``write`` dumps the spans when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("fields", "linmaps", "structures", "weak_crossed", "partial_crossed",
           "unified_product", "_elements", "reporting", "parser")

# Every public function defined in the modules above is wrapped, except in
# _elements, where only these are: the vector helpers under them run once
# per structure constant and would drown the oracles in spans.
ELEMENTS_TRACED = ("apply_to_pair",)

# linmaps functions whose returned LinMap is measured: entries are
# target.total x source.total, nonzero entries are counted exactly.
MEASURED = ("linmaps.compose", "linmaps.tensor", "linmaps.identity", "linmaps.braiding")

FP_METHODS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "inverse")

# Inclusive-time categories: time of the outermost call of any listed
# function, so a check nested in a build counts once per category.
CATEGORIES = {
    "structures.checks_s": ("structures.check_algebra", "structures.check_coalgebra",
                            "structures.check_bialgebra", "structures.check_hopf"),
    "weak_crossed.build_s": ("weak_crossed.build_products", "weak_crossed.build_algebra"),
    "weak_crossed.checks_s": ("weak_crossed.product_checks", "weak_crossed.check_preunit",
                              "weak_crossed.algebra_checks", "weak_crossed.check_normalized"),
    "partial_crossed.pipeline_s": ("partial_crossed.partial_pipeline",),
    "partial_crossed.equivalence_s": ("partial_crossed.theorem_equivalence_suite",),
    "unified_product.pipeline_s": ("unified_product.unified_pipeline",),
    "unified_product.equivalence_s": ("unified_product.theorem_equivalence_suite_unified",),
    "elements.oracle_s": ("partial_crossed.sweedler_product", "partial_crossed.sweedler_nabla",
                          "unified_product.bullet_product"),
}

# Per-layer metric names in output order; ``_elements`` is reported under
# ``elements`` because metric names start with a letter.
METRICS = (
    "linmaps.tensor.calls", "linmaps.tensor.self_s", "linmaps.tensor.entries",
    "linmaps.tensor.nonzero_ratio", "linmaps.identity.entries", "linmaps.braiding.entries",
    "linmaps.compose.calls", "linmaps.compose.self_s", "linmaps.compose.entries",
    "linmaps.compose.nonzero_ratio", "fields.fp_ops",
    "linmaps.first_difference.calls", "linmaps.first_difference.self_s",
    "linmaps.equals.calls", "reporting.equality_record.calls", "reporting.records",
    "reporting.evals_per_record", "linmaps.split_idempotent.calls",
    "linmaps.split_idempotent.self_s",
    "weak_crossed.build_s", "weak_crossed.checks_s", "weak_crossed.self_s",
    "partial_crossed.pipeline_s", "partial_crossed.equivalence_s", "partial_crossed.self_s",
    "unified_product.pipeline_s", "unified_product.equivalence_s", "unified_product.self_s",
    "structures.checks_s", "structures.self_s",
    "elements.oracle_s", "elements.apply_to_pair.calls",
    "parser.parse.self_s", "parser.parse.bytes", "reporting.emit.self_s",
    "reporting.emit.bytes", "cli.self_s",
    "trace.jobs", "trace.spans", "trace.overhead_s",
)

UNITS = {"calls": "count", "entries": "count", "bytes": "B", "fp_ops": "count",
         "records": "count", "jobs": "count", "spans": "count",
         "nonzero_ratio": "ratio", "evals_per_record": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "s")


def _nonzero(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


class Tracer:
    """Span recorder; ``job`` is set by the caller before each job."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.job_ids: list[int] = []
        self.stack = [-1]
        self.job = 0
        self.counts: dict[str, list[int]] = {}  # name -> [entries, nonzero, bytes]
        self.fp_ops = [0]

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` and return its result."""
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.job_ids.append(self.job)
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self.starts[idx] = start
            self.stack.pop()

    def _count(self, name: str, entries: int = 0, nonzero: int = 0, nbytes: int = 0) -> None:
        c = self.counts.setdefault(name, [0, 0, 0])
        c[0] += entries
        c[1] += nonzero
        c[2] += nbytes

    def _wrapper(self, name: str, fn):
        if name in MEASURED:
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self._count(name, result.target.total * result.source.total, _nonzero(result))
                return result
        elif name == "parser.parse":
            def wrapper(*args, **kwargs):
                self._count(name, nbytes=len(args[0].encode("utf-8")))
                return self.span(name, fn, *args, **kwargs)
        elif name == "reporting.emit":
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self._count(name, nbytes=len(result))
                return result
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _counter(self, fn):
        ops = self.fp_ops

        def wrapper(*args):
            ops[0] += 1
            return fn(*args)
        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap the traced functions in every wcpx namespace that binds them."""
        modules = {m: importlib.import_module(f"wcpx.{m}") for m in MODULES}
        importlib.import_module("wcpx.cli")
        replace: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") or (short == "_elements" and attr not in ELEMENTS_TRACED):
                    continue
                layer = "elements" if short == "_elements" else short
                replace[id(obj)] = self._wrapper(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "wcpx" and not name.startswith("wcpx."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    setattr(module, attr, replace[id(obj)])
        fp = modules["fields"].Fp
        for method in FP_METHODS:
            setattr(fp, method, self._counter(getattr(fp, method)))

    # -- reporting -----------------------------------------------------------

    def metrics(self, jobs: int, records: int) -> dict[str, float]:
        """Per-job per-layer numbers over ``jobs`` traced jobs."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_ns: dict[str, int] = {}
        layer_self: dict[str, int] = {}
        calls: dict[str, int] = {}
        for i, name in enumerate(self.names):
            own = dur[i] - child[i]
            self_ns[name] = self_ns.get(name, 0) + own
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + own
            calls[name] = calls.get(name, 0) + 1
        inclusive = {}
        for metric, members in CATEGORIES.items():
            total = 0
            for i, name in enumerate(self.names):
                if name not in members:
                    continue
                p = self.parents[i]
                while p >= 0 and self.names[p] not in members:
                    p = self.parents[p]
                if p < 0:
                    total += dur[i]
            inclusive[metric] = total

        def per_job(x: float) -> float:
            return x / jobs

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def counted(name: str, k: int) -> int:
            return self.counts.get(name, [0, 0, 0])[k]

        out: dict[str, float] = {}
        for metric in METRICS:
            parts = metric.split(".")
            key = ".".join(parts[:-1])
            field = parts[-1]
            if metric in inclusive:
                value = per_job(inclusive[metric] / 1e9)
            elif field == "calls":
                value = per_job(calls.get(key, 0))
            elif field == "self_s" and len(parts) == 3:
                value = per_job(self_ns.get(key, 0) / 1e9)
            elif field == "self_s":
                value = per_job(layer_self.get(key, 0) / 1e9)
            elif field == "entries":
                value = per_job(counted(key, 0))
            elif field == "nonzero_ratio":
                value = ratio(counted(key, 1), counted(key, 0))
            elif field == "bytes":
                value = per_job(counted(key, 2))
            elif metric == "fields.fp_ops":
                value = per_job(self.fp_ops[0])
            elif metric == "reporting.records":
                value = per_job(records)
            elif metric == "reporting.evals_per_record":
                evals = calls.get("reporting.equality_record", 0) + calls.get("linmaps.equals", 0)
                value = ratio(evals, records)
            elif metric == "trace.jobs":
                value = jobs
            elif metric == "trace.spans":
                value = per_job(n)
            else:
                continue  # trace.overhead_s is filled in by the worker
            out[metric] = value
        return out

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines: name, start_ns, end_ns, parent, job."""
        with path.open("w", encoding="utf-8") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps([self.names[i], self.starts[i], self.ends[i],
                                     self.parents[i], self.job_ids[i]]) + "\n")
