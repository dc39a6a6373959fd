"""Outside-in tracing of the program's layers for the traced run.

The tracer replaces each layer's public entry point *where its caller
looks it up* (a module global such as ``repro.experiments.runner.run_kernel``
or a class attribute such as ``EventSmSimulator.run``) with a wrapper that
records one span per call and counts the work at the boundary.  Spans are
kept in memory and written once, when the run ends.

A layer's self time is its spans' durations minus the time their direct
child spans cover.  The benchmark opens one root span per measured piece;
its self time is the residual orchestration (``runner.self_s``), so layer
self times plus the residual partition the traced host time.

The untimed path never installs these wrappers.  An entry point that no
longer exists (a later change renamed it) is skipped with a warning, and
a layer none of whose entry points exist is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from canon import STALL_CAUSES

ROOT_LAYER = "runner"

#: The one boundary count that is a high-water mark, not a sum.
PEAK_BYTES = "stream.peak_bytes_in_flight"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    root: int  # index of the root span this one runs under


def _count_execute(tracer, result, args, kwargs):
    tracer.pending["execute.events"] += result.total_instructions


def _count_classified(tracer, result, args, kwargs):
    tracer.pending["classify.events"] += sum(len(warp) for warp in result)


def _count_classified_pair(tracer, result, args, kwargs):
    _count_classified(tracer, result[1], args, kwargs)


def _count_interpret(tracer, result, args, kwargs):
    tracer.pending["interpret.calls"] += 1


def _count_lower(tracer, result, args, kwargs):
    tracer.pending["lower.ops"] += sum(len(ops) for ops in result)


def _count_sm_sim(tracer, result, args, kwargs):
    tracer.pending["sm_sim.sim_cycles"] += result.cycles
    tracer.pending["sm_sim.issued"] += result.instructions
    for cause in STALL_CAUSES:
        tracer.pending[f"sm_sim.stall.{cause}"] += getattr(result.stalls, cause)


def _count_entry_bytes(tracer, result, args, kwargs):
    arrays = kwargs.get("arrays") or {}
    tracer.pending["store.bytes_written"] += sum(a.nbytes for a in arrays.values())


def _count_sidecar_bytes(tracer, result, args, kwargs):
    tracer.pending["store.bytes_written"] += Path(args[1]).stat().st_size


def _count_feed(tracer, result, args, kwargs):
    tracer.pending["stream.chunks"] += 1
    peak = args[0].peak_bytes_in_flight
    if peak > tracer.pending[PEAK_BYTES]:
        tracer.pending[PEAK_BYTES] = peak


#: (layer, module, attribute, boundary counter).  ``Class.method``
#: attributes are patched on the class; plain names on the module whose
#: code calls them.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("execute", "repro.experiments.runner", "run_kernel", _count_execute),
    ("execute", "repro.simt.executor", "run_kernel", _count_execute),
    ("execute", "repro.simt.trace", "KernelTrace.to_columnar", None),
    ("classify", "repro.experiments.runner", "classify_columnar_batch", _count_classified_pair),
    ("classify", "repro.experiments.runner", "classify_trace_with", _count_classified),
    ("classify", "repro.experiments.runner", "classify_columnar_chunk", _count_classified),
    ("classify", "repro.experiments.streaming", "classify_columnar_chunk", _count_classified),
    ("columns", "repro.scalar.columns", "ClassifiedColumns.from_classified", None),
    ("interpret", "repro.experiments.runner", "process_columns", _count_interpret),
    ("interpret", "repro.experiments.runner", "process_columns_chunk", _count_interpret),
    ("interpret", "repro.experiments.streaming", "process_columns_chunk", _count_interpret),
    ("widths", "repro.experiments.runner", "analyze_widths", None),
    ("widths", "repro.analysis.static_.widths", "analyze_widths", None),
    ("lower", "repro.timing.gpu", "build_timing_ops_columns", _count_lower),
    ("lower", "repro.experiments.runner", "build_timing_ops_columns", _count_lower),
    ("lower", "repro.experiments.streaming", "build_timing_ops_columns", _count_lower),
    ("sm_sim", "repro.timing.sm_event", "EventSmSimulator.run", _count_sm_sim),
    ("sm_sim", "repro.timing.sm", "SmSimulator.run", _count_sm_sim),
    ("power", "repro.power.accounting", "PowerAccountant.account", None),
    ("power", "repro.power.accounting", "PowerAccountant.account_columns", None),
    ("power", "repro.power.accounting", "PowerAccountant.account_aggregates", None),
    ("power", "repro.power.accounting", "PowerAccountant.aggregates_from_columns", None),
    ("store.load", "repro.experiments.store", "load_entry", None),
    ("store.load", "repro.experiments.store", "peek_manifest", None),
    ("store.load", "repro.experiments.store", "sweep_orphans", None),
    ("store.load", "repro.experiments.runner", "ExperimentRunner._load_sidecar", None),
    ("store.store", "repro.experiments.store", "store_entry", _count_entry_bytes),
    ("store.store", "repro.experiments.runner", "ExperimentRunner._store_sidecar", _count_sidecar_bytes),
    ("stream", "repro.experiments.streaming", "StreamingPipeline.feed", _count_feed),
)

#: Layers whose spans the benchmark itself opens (no program hook).
BENCH_LAYERS = ("synth",)


class Tracer:
    """In-memory span recorder with per-piece calibration factors.

    Boundary counts of the attempt in progress collect in ``pending`` and
    join ``counts`` only when the attempt is kept, so a piece timed again
    is counted once.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.pending: defaultdict[str, int] = defaultdict(int)
        self.factors: dict[int, float] = {}  # root span index -> factor
        self.installed_layers: set[str] = set(BENCH_LAYERS)
        self.clock: Callable[[], float] = time.thread_time
        self._stack: list[int] = []
        self._piece = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else index
        self.spans.append(Span(name, self.clock(), 0.0, parent, root))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def span(self, name: str, call: Callable, *args, **kwargs):
        """Run ``call`` inside a span the benchmark itself records."""
        index = self.open(name)
        try:
            return call(*args, **kwargs)
        finally:
            self.close(index)

    def begin_piece(self, sampler) -> None:
        """Open a piece's root span on the sampler's work clock."""
        self.pending = defaultdict(int)
        self.clock = sampler.work_clock
        self._piece = self.open(ROOT_LAYER)

    def end_piece(self) -> None:
        self.close(self._piece)
        self.clock = time.thread_time

    def accept_piece(self, factor: float) -> None:
        """Keep the last piece's spans, scaled by its calibration.

        Roots of attempts that were timed again never get a factor, so
        their spans are left out of the self times.
        """
        self.factors[self._piece] = factor
        for name, value in self.pending.items():
            if name == PEAK_BYTES:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value

    # -- hooks -------------------------------------------------------
    def _wrap(self, layer: str, original: Callable, count: Callable | None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer, result, args, kwargs)
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        for layer, module_name, attribute, count in hooks:
            try:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                print(
                    f"warning: {module_name}.{attribute} not found; "
                    f"its {layer} spans are not recorded",
                    file=sys.stderr,
                )
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(layer, raw.__func__, count))
            else:
                patched = self._wrap(layer, raw, count)
            setattr(owner, name, patched)
            self._restore.append((owner, name, raw))
            self.installed_layers.add(layer)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    # -- results -----------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Calibrated self seconds per span name (roots as ``runner``)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        totals: defaultdict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            factor = self.factors.get(span.root)
            if factor is None:
                continue  # a discarded attempt, or a call outside any piece
            totals[span.name] += (span.end - span.start - covered[index]) * factor
        return dict(totals)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing).

        Timestamps are the process's CPU microseconds with calibration
        excluded, not wall time.
        """
        events = [
            {
                "name": span.name,
                "cat": "layer",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for span in self.spans
            if span.end >= span.start
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
