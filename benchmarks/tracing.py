"""In-memory spans and counters around the public functions of walshriesz.

A `Tracer` swaps each traced function for a wrapper in every walshriesz
module namespace that holds it (`from .walsh import sign_vector` puts a
second reference in `riesz` and `martingale`, and the package re-exports
most names), so the wrapper runs wherever callers look the function up.
`installed()` puts every original back when its block ends, also on error.

Two kinds of wrapper:

- spans, for functions called a few dozen times per unit: name, start,
  end, parent span and unit id, kept in memory until the run ends;
- aggregate counters, for hot leaves called up to millions of times per
  unit (`sign_vector`, `butterfly`, `check_shifted_bound`): calls, work
  elements and, where timed, total seconds.

A span's self time is its duration minus the time of its child spans and
of the timed leaves called directly under it, so over one unit the self
times plus the timed leaves add up to the top-level spans' durations.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "walshriesz"

# (name, unit, better) of every per-layer metric the traced run reports.
# Spans and counters of a layer that a workload does not run read 0.
PER_LAYER = [
    ("walsh.series_from_csv.s", "s", "lower"),
    ("walsh.series_from_csv.bytes", "bytes", "lower"),
    ("walsh.sign_vector.calls", "count", "lower"),
    ("walsh.sign_vector.elems", "count", "lower"),
    ("walsh.butterfly.calls", "count", "lower"),
    ("walsh.butterfly.elems", "count", "lower"),
    ("walsh.butterfly.s", "s", "lower"),
    ("rudin_shapiro.build_flat.s", "s", "lower"),
    ("rudin_shapiro.build_flat.calls", "count", "lower"),
    ("rudin_shapiro.substitute_sparse.s", "s", "lower"),
    ("riesz.build_measure.s", "s", "lower"),
    ("riesz.choose_next_level.s", "s", "lower"),
    ("riesz.choose_next_level.calls", "count", "lower"),
    ("riesz.add_factor.s", "s", "lower"),
    ("riesz.add_factor.self_s", "s", "lower"),
    ("riesz.spectrum.terms", "count", "lower"),
    ("riesz.verify_all_partial_sums.s", "s", "lower"),
    ("riesz.verify_all_partial_sums.self_s", "s", "lower"),
    ("riesz.verify_all_partial_sums.atoms", "count", "higher"),
    ("riesz.verify_all_partial_sums.orders", "count", "higher"),
    ("riesz.psi_sum_report.s", "s", "lower"),
    ("riesz.psi_sum_report.terms", "count", "lower"),
    ("riesz.product_values.s", "s", "lower"),
    ("riesz.product_values.calls", "count", "lower"),
    ("riesz.factor_values.s", "s", "lower"),
    ("riesz.factor_values.calls", "count", "lower"),
    ("riesz.export_measure.s", "s", "lower"),
    ("riesz.export_measure.bytes", "bytes", "lower"),
    ("riesz.state_from_manifest.s", "s", "lower"),
    ("martingale.singularity_report.s", "s", "lower"),
    ("martingale.singularity_report.self_s", "s", "lower"),
    ("martingale.verify_product_orthogonality.s", "s", "lower"),
    ("martingale.verify_product_orthogonality.self_s", "s", "lower"),
    ("martingale.check_positivity_equivalence.s", "s", "lower"),
    ("martingale.check_positivity_equivalence.self_s", "s", "lower"),
    ("martingale.decompose.s", "s", "lower"),
    ("martingale.check_p3.s", "s", "lower"),
    ("martingale.check_shifted_bound.s", "s", "lower"),
    ("martingale.check_shifted_bound.calls", "count", "lower"),
    ("trig.build_trig_measure.s", "s", "lower"),
    ("trig.build_trig_flat.calls", "count", "lower"),
    ("trig.grid_points", "count", "lower"),
    *(
        (f"cli.{command}.{suffix}", "s", "lower")
        for command in (
            "build-walsh-measure",
            "theorem1-check",
            "singularity-report",
            "report",
            "build-trig-measure",
            "rs-pair",
        )
        for suffix in ("s", "self_s")
    ),
    ("cli.out.bytes", "bytes", "lower"),
    ("trace.unit_s", "s", "lower"),
    ("trace.untimed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    child_s: float = 0.0  # covered by child spans and directly called timed leaves

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans and per-unit counters, recorded while `installed()` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.unit = 0
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), math.nan, parent, self.unit)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.duration

    def count(self, name: str, value: float = 1) -> None:
        self.counters[self.unit][name] += value

    def spanned(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(args, kwargs, result) returns counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.count(key, value)
            return result

        return wrapper

    def counted(self, name: str, fn, elems=None, timed: bool = False):
        """Wrap a hot leaf: count calls, elems(args) work items, and time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters = self.counters[self.unit]
            counters[name + ".calls"] += 1
            if elems is not None:
                counters[name + ".elems"] += elems(args)
            if not timed:
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._leaf_depth -= 1
                counters[name + ".s"] += elapsed
                if self._leaf_depth == 0 and self._stack:
                    self.spans[self._stack[-1]].child_s += elapsed

        return wrapper

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install the library wrappers; restore every original on exit."""
        try:
            for module_name, attr, make in _plan(self):
                original = getattr(sys.modules[module_name], attr)
                self._replace(original, make(original))
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def _replace(self, original, wrapper) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- summaries ----------------------------------------------------------

    def unit_metrics(self, unit: int, wall: float) -> dict[str, float]:
        """Per-layer totals of one unit whose traced wall time was `wall`."""
        out: dict[str, float] = defaultdict(float)
        top = 0.0
        for span in self.spans:
            if span.unit != unit:
                continue
            out[span.name + ".s"] += span.duration
            out[span.name + ".self_s"] += span.self_s
            if span.parent is None:
                top += span.duration
        out.update(self.counters[unit])
        out["trace.unit_s"] = wall
        out["trace.untimed_s"] = wall - top
        return out

    def span_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "unit": s.unit,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# what is traced, and the counters read from arguments and results
# ---------------------------------------------------------------------------

def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _csv_bytes(args, kwargs, result):
    return {"walsh.series_from_csv.bytes": _file_bytes(_first(args, kwargs, "source"))}


def _new_terms(args, kwargs, result):
    before = _first(args, kwargs, "state")
    return {"riesz.spectrum.terms": len(result.spectrum) - len(before.spectrum)}


def _coverage(args, kwargs, result):
    orders = 1 << result.depth
    atoms = orders if result.exhaustive else result.sampling["atoms"]
    return {
        "riesz.verify_all_partial_sums.atoms": atoms,
        "riesz.verify_all_partial_sums.orders": orders,
    }


def _psi_terms(args, kwargs, result):
    return {"riesz.psi_sum_report.terms": len(_first(args, kwargs, "state").spectrum) - 1}


def _export_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"riesz.export_measure.bytes": _file_bytes(path)}


def _grid_points(args, kwargs, result):
    return {"trig.grid_points": result[1].grid_points}


def _calls(name):
    def observe(args, kwargs, result):
        return {name + ".calls": 1}

    return observe


def _cli_main(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(argv=None):
        command = argv[0] if argv else "main"
        with tracer.span(f"cli.{command}"):
            return fn(argv)

    return wrapper


def _out_bytes(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(path, text):
        tracer.count("cli.out.bytes", len(text.encode()))
        return fn(path, text)

    return wrapper


def _plan(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced function."""

    def span(module, attr, observe=None):
        name = f"{module}.{attr}"
        return (f"{PACKAGE}.{module}", attr, lambda fn: tracer.spanned(name, fn, observe))

    def leaf(module, attr, elems=None, timed=False):
        name = f"{module}.{attr}"
        return (
            f"{PACKAGE}.{module}",
            attr,
            lambda fn: tracer.counted(name, fn, elems, timed),
        )

    return [
        leaf("walsh", "sign_vector", elems=lambda args: args[1].size),
        leaf("walsh", "butterfly", elems=lambda args: len(args[0]), timed=True),
        span("walsh", "series_from_csv", _csv_bytes),
        span("rudin_shapiro", "build_flat", _calls("rudin_shapiro.build_flat")),
        span("rudin_shapiro", "substitute_sparse"),
        span("riesz", "build_measure"),
        span("riesz", "choose_next_level", _calls("riesz.choose_next_level")),
        span("riesz", "add_factor", _new_terms),
        span("riesz", "verify_all_partial_sums", _coverage),
        span("riesz", "psi_sum_report", _psi_terms),
        span("riesz", "product_values", _calls("riesz.product_values")),
        span("riesz", "factor_values", _calls("riesz.factor_values")),
        span("riesz", "export_measure", _export_bytes),
        span("riesz", "state_from_manifest"),
        span("martingale", "singularity_report"),
        span("martingale", "verify_product_orthogonality"),
        span("martingale", "check_positivity_equivalence"),
        span("martingale", "decompose"),
        span("martingale", "check_p3"),
        leaf("martingale", "check_shifted_bound", timed=True),
        span("trig", "build_trig_measure", _grid_points),
        leaf("trig", "build_trig_flat"),
        (f"{PACKAGE}.cli", "main", lambda fn: _cli_main(tracer, fn)),
        (f"{PACKAGE}.cli", "_atomic_write_text", lambda fn: _out_bytes(tracer, fn)),
    ]
