"""End-to-end experiment pipeline with caching.

One :class:`ExperimentRunner` owns a scale and a GPU/energy
configuration and lazily computes, per benchmark:

* the functional trace (executed once, shared by every architecture),
* the classified event stream (tracker output, architecture-independent),
* per-architecture timing results and power reports.

Every figure regenerator takes a runner, so a full ``python -m repro all``
executes each benchmark exactly once.

The batch engines have one driver: a grid of trace chunks, each
classified, interpreted, aggregated for power and lowered to engine
rows in turn, then one SM simulation over the assembled rows.  Without
``chunk_events`` the grid is a single chunk spanning the trace, whose
classified columns come from the shared classified stream and stay in
memory for every architecture's pass; ``--chunk-events N`` classifies
chunk by chunk with the carry threaded through.  The
``--arch-engine=event`` path (per-event interpretation and lowering) is
kept as the differential oracle.

With ``cache_dir`` set, every persisted stage lives on disk in one
format, the v5 manifest + page-aligned bank layout
(:mod:`repro.experiments.store`), so it can be shared *across*
processes: traces and each chunk's classified and processed columns as
banks a warm hit memory-maps read-only instead of deserializing (behind
a grid index written last), and per-architecture timing/power results
as one ``results`` entry per (benchmark, architecture, GPU/energy
configuration).  The per-event classified stream is not persisted:
reclassifying a mapped trace is faster than unpickling it.

Each entry embeds a content fingerprint
(:mod:`repro.experiments.cachekey`) covering the kernel, scale, warp
size, architecture, GPU configuration and energy parameters; a
mismatch, any damaged entry or a failed write only costs a
recomputation, and staleness is decided from the manifest without
opening a bank.  Files of older cache formats are never opened.
:meth:`ExperimentRunner.prefetch` fans the benchmark × architecture
matrix out over a process pool (:mod:`repro.experiments.parallel`)
whose workers share nothing with the parent but this cache, and
:attr:`ExperimentRunner.stats` counts cache hits, misses,
re-executions, per-stage wall time and the transport byte counters
(``bytes_mapped`` / ``bytes_deserialized``) for observability.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.analysis.static_.widths import WIDTH_ANALYSIS_VERSION, analyze_widths
from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments import cachekey, store
from repro.obs.instrument import record_columnar_warps
from repro.obs.memory import record_bytes_in_flight, record_peak_rss
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.experiments.streaming import _array_bytes, extend_warp_fragments
from repro.power.accounting import PowerAccountant, _PowerAggregates
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.power.report import PowerReport
from repro.scalar.arch_batch import (
    ARCH_ENGINE_CHOICES,
    DEFAULT_ARCH_ENGINE,
    ArchCarry,
    process_columns_chunk,
)
from repro.scalar.architectures import ProcessedEvent, process_classified
from repro.scalar.batch import (
    CLASSIFIER_CHOICES,
    DEFAULT_CLASSIFIER,
    ClassifierCarry,
    classify_columnar_batch,
    classify_columnar_chunk,
    classify_trace_with,
)
from repro.scalar.columns import ClassifiedColumns, ProcessedColumns
from repro.scalar.tracker import ClassifiedEvent
from repro.simt.executor import run_kernel
from repro.simt.serialize import columnar_entry, load_columnar_v5
from repro.simt.trace import (
    ColumnarTrace,
    KernelTrace,
    iter_chunks,
    opcode_labels,
)
from repro.timing.gpu import lower_to_timing_ops, simulate_warp_rows
from repro.timing.ops import build_timing_ops_columns, compile_ops
from repro.timing.sm import TimingResult
from repro.timing.sm_event import DEFAULT_SM_ENGINE, SM_ENGINE_CHOICES
from repro.workloads.registry import SCALES, BuiltWorkload, all_workloads, workload_by_name
from repro.workloads.synth import (
    iter_synthetic_chunks,
    materialize_synthetic,
    synthetic_replicas,
)

#: Version of the cached stage entries (classified/processed columns
#: and timing/power results).  Bump to invalidate all of them at once,
#: e.g. when a classifier or timing-model change alters their meaning.
#: Version 2: the batch classification engine became the default and
#: the classified-stream fingerprint gained the engine name.
#: Version 4: the columnar architecture/power engine became the default
#: and the results fingerprint gained the arch-engine name (so the
#: batch and event engines never replay each other's results).
#: Version 5: the event-driven SM timing engine became the default, the
#: results fingerprint gained the SM-engine name, and the memory model's
#: store path stopped allocating L1 lines (no-allocate stores change
#: load hit rates, hence latencies, hence every cached timing result).
#: Version 6: the two-bucket stall breakdown became the six-cause
#: per-scheduler taxonomy (:class:`~repro.timing.sm.StallBreakdown` was
#: reshaped and :class:`~repro.timing.sm.TimingResult` gained
#: ``stalls_per_scheduler``), changing the pickled timing-result shape.
STAGE_VERSION = 6

#: Chunk size that ``bench --streaming`` and the benchmark stream the
#: ``--scale=large`` tier in.  The runner never applies it on its own:
#: without ``--chunk-events`` its grid is one chunk spanning the trace.
DEFAULT_STREAM_CHUNK = 65536


class _ChunkBankMiss(Exception):
    """A per-chunk v5 bank verified present vanished before its load.

    Raised inside a warm streamed pass; carry state cannot restart
    mid-stream, so the handler recomputes the whole pass cold.
    """


def paper_architectures() -> tuple[ArchitectureConfig, ...]:
    """The four evaluated architectures, in Figure 11 order."""
    return (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.alu_scalar(),
        ArchitectureConfig.gscalar_no_divergent(),
        ArchitectureConfig.gscalar(),
    )


def matrix_architectures() -> tuple[ArchitectureConfig, ...]:
    """Every modeled architecture: the paper's four plus the
    statically-compressed RF design point (kept out of
    :func:`paper_architectures` so the figure series stay faithful)."""
    return paper_architectures() + (ArchitectureConfig.static_compress(),)


class RunnerStats:
    """Cache and stage observability counters for one runner.

    ``counters`` tracks cache outcomes (``trace_cache_hits``,
    ``trace_cache_misses``, ``trace_cache_invalid``,
    ``trace_executions``, ``classified_cache_hits``, ...);
    ``stage_seconds`` accumulates wall time per pipeline stage.  Stats
    merge across processes, so a parallel prefetch reports the totals
    over all workers.

    The storage is a :class:`~repro.obs.telemetry.Telemetry` registry
    (``runner_events`` / ``runner_stage_seconds`` counter families plus
    one ``cat="stage"`` span per :meth:`timer` scope, carrying the
    recording process's pid).  When the process-global telemetry is
    enabled — ``repro profile`` or ``--trace-out``/``--metrics-out`` —
    the runner binds its stats to that shared registry, so stage spans
    land on the same timeline as the pipeline's own spans and the
    Chrome trace shows the true per-worker concurrency; otherwise each
    stats object owns a private registry, exactly as independent as the
    old plain-dict implementation.
    """

    _EVENTS = "runner_events"
    _STAGES = "runner_stage_seconds"

    def __init__(self, telemetry: Telemetry | None = None):
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    @property
    def counters(self) -> dict[str, int]:
        """Cache-outcome counters as a plain name -> count dict."""
        return {
            dict(labels)["event"]: value
            for labels, value in sorted(
                self.telemetry.counters_named(self._EVENTS).items()
            )
        }

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Accumulated wall seconds per pipeline stage."""
        return {
            dict(labels)["stage"]: value
            for labels, value in sorted(
                self.telemetry.counters_named(self._STAGES).items()
            )
        }

    def bump(self, name: str, amount: int = 1) -> None:
        self.telemetry.count(self._EVENTS, amount, event=name)

    def add_time(self, stage: str, seconds: float) -> None:
        self.telemetry.count(self._STAGES, seconds, stage=stage)

    @contextmanager
    def timer(self, stage: str, **span_args) -> Iterator[None]:
        """Time a stage: accumulates seconds and records one span."""
        started = time.perf_counter()
        try:
            with self.telemetry.span(stage, cat="stage", **span_args):
                yield
        finally:
            self.add_time(stage, time.perf_counter() - started)

    def merge(self, other: "RunnerStats | dict") -> None:
        """Fold another stats object (or a worker payload) into this one.

        Accepts another :class:`RunnerStats`, a full :meth:`to_payload`
        dict (merged registry-to-registry, spans included), or the
        plain ``{"counters", "stage_seconds"}`` shape of
        :meth:`to_dict`.
        """
        if isinstance(other, RunnerStats):
            self.telemetry.merge(other.telemetry)
            return
        snapshot = other.get("telemetry")
        if snapshot is not None:
            # Full payload: counters/stage_seconds are already inside
            # the registry snapshot; folding both would double-count.
            self.telemetry.merge(snapshot)
            return
        for name, amount in other.get("counters", {}).items():
            self.bump(name, amount)
        for stage, value in other.get("stage_seconds", {}).items():
            self.add_time(stage, value)

    @property
    def trace_executions(self) -> int:
        """Functional executions actually performed (cache misses paid)."""
        return self.counters.get("trace_executions", 0)

    @property
    def gauges(self) -> dict[str, float]:
        """High-water-mark gauges (peak RSS, bytes in flight, ...)."""
        rendered = {}
        for (name, labels), value in sorted(self.telemetry.gauges.items()):
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in labels)
                name = f"{name}{{{inner}}}"
            rendered[name] = value
        return rendered

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (``--stats-json`` output shape).

        Stamps the process's peak RSS into the gauges first, so every
        stats snapshot reports it even for whole-trace runs that never
        touched the streaming gauges.
        """
        record_peak_rss(self.telemetry)
        return {
            "counters": dict(sorted(self.counters.items())),
            "stage_seconds": {
                stage: round(value, 6)
                for stage, value in sorted(self.stage_seconds.items())
            },
            "gauges": self.gauges,
        }

    def to_payload(self) -> dict:
        """Worker-return payload: :meth:`to_dict` plus the registry.

        The ``telemetry`` snapshot carries every counter, histogram and
        span the worker recorded (stage spans keep the worker's pid),
        so a parent merging payloads reassembles the full multi-process
        timeline; the :meth:`to_dict` keys stay for direct consumers.
        """
        payload = self.to_dict()
        payload["telemetry"] = self.telemetry.snapshot()
        return payload


class BenchmarkRun:
    """Cached functional-level artifacts of one benchmark.

    ``trace`` (the per-event form) and ``classified`` (the classified
    event stream) are **lazy**: a cache hit hands back memory-mapped
    columnar arrays, and no event object is built until something
    actually reads one.  A fully warm run that replays its results
    entries therefore never materializes a single event.
    """

    def __init__(
        self,
        abbr: str,
        built: BuiltWorkload,
        trace_fingerprint: str = "",
        trace: KernelTrace | None = None,
        columnar: ColumnarTrace | None = None,
        classified: list[list[ClassifiedEvent]] | None = None,
        classified_loader: "Callable[[BenchmarkRun], list[list[ClassifiedEvent]]] | None" = None,
        columnar_loader: "Callable[[BenchmarkRun], ColumnarTrace] | None" = None,
        warp_size: int | None = None,
    ):
        if trace is None and columnar is None and columnar_loader is None:
            raise ValueError("BenchmarkRun needs a trace or a columnar trace")
        self.abbr = abbr
        self.built = built
        #: Content fingerprint of the (kernel, scale, warp-size)
        #: combination that produced the trace; stage entries derive
        #: their keys from it.
        self.trace_fingerprint = trace_fingerprint
        self._columnar = columnar
        self._trace = trace
        self._classified = classified
        self._classified_loader = classified_loader
        #: Deferred materializer for the columnar form — the synthetic
        #: large tier installs one so a streamed run (which consumes the
        #: replica generator, never the whole trace) can carry a
        #: BenchmarkRun without paying the materialization.
        self._columnar_loader = columnar_loader
        self._warp_size = warp_size

    def __repr__(self) -> str:
        return (
            f"BenchmarkRun(abbr={self.abbr!r}, "
            f"trace_fingerprint={self.trace_fingerprint!r})"
        )

    @property
    def warp_size(self) -> int:
        """Warp size without forcing any materialization."""
        if self._warp_size is not None:
            return self._warp_size
        if self._trace is not None:
            return self._trace.warp_size
        return self.columnar.warp_size

    @property
    def columnar(self) -> ColumnarTrace | None:
        """The columnar form when the trace came from the cache (or a
        deferred synthetic materializer);
        the columnar pipeline reuses these arrays instead of
        re-extracting them from event objects."""
        if self._columnar is None and self._columnar_loader is not None:
            loader = self._columnar_loader
            self._columnar_loader = None
            self._columnar = loader(self)
        return self._columnar

    @property
    def trace(self) -> KernelTrace:
        """The event-form trace (materialized from columnar on demand)."""
        if self._trace is None:
            self._trace = self.columnar.to_trace()
        return self._trace

    @property
    def classified(self) -> list[list[ClassifiedEvent]]:
        """The classified stream (loaded or computed on first access)."""
        if self._classified is None:
            loader = self._classified_loader
            if loader is None:
                raise ValueError(f"{self.abbr}: no classified stream available")
            self._classified = loader(self)
            self._classified_loader = None
        return self._classified


class ExperimentRunner:
    """Caches traces and per-architecture results across experiments."""

    def __init__(
        self,
        scale: str = "default",
        config: GpuConfig | None = None,
        params: EnergyParams | None = None,
        verbose: bool = False,
        cache_dir: str | Path | None = None,
        classifier: str = DEFAULT_CLASSIFIER,
        arch_engine: str = DEFAULT_ARCH_ENGINE,
        sm_engine: str = DEFAULT_SM_ENGINE,
        chunk_events: int | None = None,
    ):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
        if chunk_events is not None:
            if chunk_events < 1:
                raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
            if classifier != "batch" or arch_engine != "batch":
                raise ValueError(
                    "chunked streaming requires the batch classifier and "
                    "batch arch engine (the per-event engines have no "
                    "chunk carry-state)"
                )
        if classifier not in CLASSIFIER_CHOICES:
            raise ValueError(
                f"unknown classifier {classifier!r}; known: "
                f"{', '.join(CLASSIFIER_CHOICES)}"
            )
        if arch_engine not in ARCH_ENGINE_CHOICES:
            raise ValueError(
                f"unknown arch engine {arch_engine!r}; known: "
                f"{', '.join(ARCH_ENGINE_CHOICES)}"
            )
        if sm_engine not in SM_ENGINE_CHOICES:
            raise ValueError(
                f"unknown SM engine {sm_engine!r}; known: "
                f"{', '.join(SM_ENGINE_CHOICES)}"
            )
        self.classifier = classifier
        self.arch_engine = arch_engine
        self.sm_engine = sm_engine
        self.chunk_events = chunk_events
        self.scale = SCALES[scale]
        self.config = config or GpuConfig()
        self.params = params or DEFAULT_ENERGY
        self.verbose = verbose
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        # With profiling on, stage spans and cache counters go straight
        # into the shared registry (one timeline with the pipeline's
        # own spans); otherwise the stats own a private registry.
        telemetry = get_telemetry()
        self.stats = RunnerStats(telemetry=telemetry if telemetry.enabled else None)
        if self.cache_dir is not None:
            # Reclaim crashed-writer debris and superseded v5 banks on
            # open (age-gated, so live writers are never swept).
            swept = store.sweep_orphans(self.cache_dir)
            if swept.tmp_files:
                self.stats.bump("cache_tmp_swept", swept.tmp_files)
            if swept.orphan_bank_dirs:
                self.stats.bump("cache_banks_swept", swept.orphan_bank_dirs)
            if swept.bytes_freed:
                self.stats.bump("cache_bytes_swept", swept.bytes_freed)
        self._runs: dict[str, BenchmarkRun] = {}
        self._seeds: dict[str, tuple[ColumnarTrace, int]] = {}
        #: v5 bank stems this runner has verified (stored or cleanly
        #: loaded) mapped to their fingerprints, so its own later
        #: presence probes skip the manifest re-read.
        self._bank_hints: dict[str, str] = {}
        self._warp_traces: dict[tuple[str, int], KernelTrace] = {}
        self._static_widths: dict[str, tuple[int, ...]] = {}
        self._processed: dict[tuple[str, str], list[list[ProcessedEvent]]] = {}
        #: Grid-size token of every chunk stem: a ``--chunk-events N``
        #: grid and the one-chunk grid never share an entry.
        self._grid = "all" if chunk_events is None else str(chunk_events)
        #: The one-chunk grid's ``(meta, ccols)`` fragment per benchmark,
        #: shared by every architecture's pass.
        self._whole_fragments: dict[str, tuple[dict, ClassifiedColumns]] = {}
        self._timing: dict[tuple[str, str], TimingResult] = {}
        self._power: dict[tuple[str, str], PowerReport] = {}

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[runner] {message}", flush=True)

    @staticmethod
    def _normalize(abbr: str) -> str:
        """One canonical spelling for benchmark keys, lookups and files."""
        return abbr.strip().upper()

    # ------------------------------------------------------------------
    # On-disk cache plumbing.
    # ------------------------------------------------------------------
    def _trace_stem(self, key: str, warp_size: int) -> str:
        suffix = "" if warp_size == 32 else f"_w{warp_size}"
        return f"{key}_{self.scale.name}{suffix}"

    def _stage_stem(self, key: str, stage: str) -> str:
        return f"{key}_{self.scale.name}_{stage}"

    def _load_banks(
        self, stem: str, fingerprint: str, kind: str, counter: str | None = None
    ) -> store.LoadedEntry | None:
        """Open one v5 entry of ``kind``; ``None`` unless a clean hit.

        Hits and misses count as ``{counter}_cache_hits``/``_misses``
        (``counter`` defaults to ``kind``); a stale, damaged or
        foreign-kind entry also counts as ``sidecar_invalid``.
        """
        if self.cache_dir is None:
            return None
        counter = counter or kind
        if self._bank_hints.get(stem) == fingerprint:
            self.stats.bump("bank_hint_hits")
        entry, status = store.load_entry(self.cache_dir, stem, fingerprint)
        if status == "hit" and entry.kind == kind:
            self.stats.bump(f"{counter}_cache_hits")
            self.stats.bump("bytes_mapped", entry.bytes_mapped)
            if entry.bytes_deserialized:
                self.stats.bump("bytes_deserialized", entry.bytes_deserialized)
            self._bank_hints[stem] = fingerprint
            return entry
        if status != "absent":
            self._log(f"discarding {status} {kind} entry {stem}")
            self.stats.bump("sidecar_invalid")
            if status == "corrupt":
                store.drop_banks(self.cache_dir, stem, fingerprint)
        self.stats.bump(f"{counter}_cache_misses")
        return None

    def _store_banks(
        self,
        stem: str,
        fingerprint: str,
        kind: str,
        meta: dict | None = None,
        arrays: dict | None = None,
        objects: dict | None = None,
    ) -> None:
        """Persist one v5 entry; every cache write goes through here.

        A failed write (``ENOSPC``, a read-only directory, ...) is
        logged and counted as ``cache_store_failed``, never raised: the
        value being stored is already computed, and the missing entry
        is only a later miss.
        """
        if self.cache_dir is None:
            return
        try:
            store.store_entry(
                self.cache_dir,
                stem,
                fingerprint=fingerprint,
                kind=kind,
                meta=meta,
                arrays=arrays,
                objects=objects,
            )
        except OSError as exc:
            self._log(f"cache write of {stem} failed: {exc}")
            self.stats.bump("cache_store_failed")
            return
        self._bank_hints[stem] = fingerprint

    # ------------------------------------------------------------------
    # Trace stage.
    # ------------------------------------------------------------------
    def _obtain_trace(
        self, key: str, built: BuiltWorkload, warp_size: int
    ) -> tuple[KernelTrace | ColumnarTrace, str]:
        """Load a fingerprint-matching cached trace or execute and cache.

        A cache hit returns the :class:`ColumnarTrace` exactly as it
        lies on disk — its arrays are read-only memory maps of the v5
        banks, so the hit copies nothing.  Callers that need the event
        form either hand it to the batch classifier (which materializes
        events once, during classification) or call ``.to_trace()``
        themselves.  A cache miss executes and returns the event-form
        :class:`KernelTrace` directly.
        """
        fingerprint = cachekey.trace_fingerprint(built.kernel, self.scale, warp_size)
        stem = self._trace_stem(key, warp_size)
        if self.cache_dir is not None:
            with self.stats.timer("trace_load", benchmark=key, warp_size=warp_size):
                columnar, status, entry = load_columnar_v5(
                    self.cache_dir, stem, fingerprint
                )
            if status == "hit":
                self.stats.bump("bytes_mapped", entry.bytes_mapped)
                self._log(f"mapped v5 trace for {key} (warp {warp_size})")
                self.stats.bump("trace_cache_hits")
                telemetry = get_telemetry()
                if telemetry.enabled:
                    # Cache hits skip the executor, so feed the
                    # instruction-mix counters from the columnar arrays
                    # instead — same numbers either way.
                    record_columnar_warps(telemetry, columnar, opcode_labels())
                return columnar, fingerprint
            if status != "absent":
                self._log(f"discarding {status} v5 trace entry for {key}")
                self.stats.bump("trace_cache_invalid")
                if status == "corrupt":
                    store.drop_banks(self.cache_dir, stem, fingerprint)
            self.stats.bump("trace_cache_misses")
        self._log(f"executing {key} at scale {self.scale.name!r} warp {warp_size}")
        self.stats.bump("trace_executions")
        with self.stats.timer("trace_execute", benchmark=key, warp_size=warp_size):
            trace = run_kernel(
                built.kernel, built.launch, built.memory, warp_size=warp_size
            )
        if self.cache_dir is not None:
            with self.stats.timer("trace_save", benchmark=key, warp_size=warp_size):
                self._store_banks(
                    stem, fingerprint, "trace", **columnar_entry(trace.to_columnar())
                )
        return trace, fingerprint

    def _obtain_classified(
        self, run: BenchmarkRun
    ) -> list[list[ClassifiedEvent]]:
        """Classify one run's trace (never cached on disk).

        This is :class:`BenchmarkRun`'s lazy ``classified`` loader —
        nothing here executes until a consumer actually reads the
        per-event stream.  When the trace is columnar (a mapped cache
        hit) and the batch engine is selected, classification runs
        straight off the columnar arrays and materializes the event
        form as a by-product — one object per event total, shared
        between ``run.trace`` and the classified stream.
        """
        with self.stats.timer("classify", benchmark=run.abbr):
            if run._trace is None and self.classifier == "batch":
                trace, classified = classify_columnar_batch(
                    run.columnar, run.built.kernel.num_registers
                )
                run._trace = trace
                return classified
            return classify_trace_with(
                run.trace, run.built.kernel.num_registers, self.classifier
            )

    # ------------------------------------------------------------------
    def benchmark_names(self) -> list[str]:
        """All benchmark abbreviations in Table 2 order."""
        return [spec.abbr for spec in all_workloads()]

    def run(self, abbr: str) -> BenchmarkRun:
        """Execute (or fetch) one benchmark's functional trace.

        With ``cache_dir`` set, traces persist across processes as v5
        entries validated against a content fingerprint before reuse.
        """
        key = self._normalize(abbr)
        if key not in self._runs:
            spec = workload_by_name(key)
            built = spec.builder(self.scale)
            trace, fingerprint = self._obtain_trace(key, built, 32)
            columnar = trace if isinstance(trace, ColumnarTrace) else None
            if self.scale.synthetic_events > 0:
                # Synthetic tier: what was executed (and cached) above is
                # the *seed* trace.  The run carries a deferred
                # materializer instead of the replicated whole trace, so
                # a streamed pass (which consumes the replica generator)
                # never pays for — or holds — the 10^6+-event form.
                seed = columnar if columnar is not None else trace.to_columnar()
                replicas = synthetic_replicas(seed, self.scale)
                self._seeds[key] = (seed, replicas)
                self._log(
                    f"{key}: synthetic tier, {replicas} replicas of "
                    f"{seed.num_events} seed events"
                )
                self._runs[key] = BenchmarkRun(
                    abbr=key,
                    built=built,
                    trace_fingerprint=fingerprint,
                    columnar_loader=self._materialize_synthetic,
                    warp_size=seed.warp_size,
                    classified_loader=self._obtain_classified,
                )
            else:
                self._runs[key] = BenchmarkRun(
                    abbr=key,
                    built=built,
                    trace=None if columnar is not None else trace,
                    trace_fingerprint=fingerprint,
                    columnar=columnar,
                    classified_loader=self._obtain_classified,
                )
        return self._runs[key]

    def _materialize_synthetic(self, run: BenchmarkRun) -> ColumnarTrace:
        """Build the whole replicated trace (the non-streaming arm)."""
        seed, replicas = self._seeds[run.abbr]
        self._log(
            f"materializing synthetic {run.abbr}: {replicas} replicas, "
            f"{seed.num_events * replicas} events"
        )
        self.stats.bump("synthetic_materializations")
        with self.stats.timer("synthetic_materialize", benchmark=run.abbr):
            return materialize_synthetic(seed, replicas)

    def trace_with_warp_size(self, abbr: str, warp_size: int) -> KernelTrace:
        """Re-execute a benchmark with a different warp size (Figure 10).

        Shares the same fingerprint-checked on-disk cache as :meth:`run`,
        with the warp size in the cache key, so warp-64 traces are
        executed once per cache directory rather than once per process.
        """
        key = self._normalize(abbr)
        if warp_size == 32:
            return self.run(key).trace
        token = (key, warp_size)
        if token not in self._warp_traces:
            spec = workload_by_name(key)
            built = spec.builder(self.scale)
            trace, _ = self._obtain_trace(key, built, warp_size)
            if isinstance(trace, ColumnarTrace):
                trace = trace.to_trace()
            self._warp_traces[token] = trace
        return self._warp_traces[token]

    # ------------------------------------------------------------------
    def static_widths(self, abbr: str) -> tuple[int, ...]:
        """Per-register guaranteed ``enc`` table from the width analysis.

        Architecture-independent (a pure function of the kernel), cached
        per benchmark and fed to the ``static_compress`` interpretation
        by both engines.  Cheap relative to tracing, so it is recomputed
        per process rather than persisted; the results entries it feeds
        are keyed on :data:`~repro.analysis.static_.widths.WIDTH_ANALYSIS_VERSION`.
        """
        key = self._normalize(abbr)
        if key not in self._static_widths:
            run = self.run(key)
            with self.stats.timer("width_analysis", benchmark=key):
                self._static_widths[key] = analyze_widths(
                    run.built.kernel, warp_size=run.warp_size
                ).register_enc
        return self._static_widths[key]

    def _widths_for(self, abbr: str, arch: ArchitectureConfig):
        return self.static_widths(abbr) if arch.static_compression else None

    def processed(
        self, abbr: str, arch: ArchitectureConfig
    ) -> list[list[ProcessedEvent]]:
        """Per-architecture processed events for one benchmark."""
        key = (self._normalize(abbr), arch.name)
        if key not in self._processed:
            run = self.run(key[0])
            widths = self._widths_for(key[0], arch)
            with self.stats.timer("process", benchmark=key[0], arch=arch.name):
                self._processed[key] = process_classified(
                    run.classified, arch, run.warp_size, static_widths=widths
                )
        return self._processed[key]

    def _results_fingerprint(self, run: BenchmarkRun, arch: ArchitectureConfig) -> str:
        return cachekey.stage_fingerprint(
            run.trace_fingerprint,
            arch,
            self.config,
            self.params,
            STAGE_VERSION,
            engine=self.arch_engine,
            sm_engine=self.sm_engine,
            classifier=self.classifier,
            analysis_version=(
                WIDTH_ANALYSIS_VERSION if arch.static_compression else None
            ),
        )

    def _results_stem(self, key: str, arch: ArchitectureConfig) -> str:
        """Results stem: one per (GPU configuration, energy parameters)
        point, so a sweep never overwrites another point's entry."""
        digest = cachekey.config_digest(self.config, self.params)
        return self._stage_stem(key, f"results_{arch.name}_{digest}")

    def _load_results(self, key: str, arch: ArchitectureConfig) -> bool:
        """Try the timing/power entry; ``True`` when both were restored."""
        if self.cache_dir is None:
            return False
        entry = self._load_banks(
            self._results_stem(key, arch),
            self._results_fingerprint(self.run(key), arch),
            "results",
            counter="result",
        )
        if entry is None:
            return False
        self._timing[(key, arch.name)] = entry.objects["timing"]
        self._power[(key, arch.name)] = entry.objects["power"]
        return True

    def _store_results(self, key: str, arch: ArchitectureConfig) -> None:
        """One v5 ``results`` entry per (benchmark, architecture)."""
        if self.cache_dir is None:
            return
        self._store_banks(
            self._results_stem(key, arch),
            self._results_fingerprint(self.run(key), arch),
            "results",
            objects={
                "timing": self._timing[(key, arch.name)],
                "power": self._power[(key, arch.name)],
            },
        )

    def warps_per_cta(self, abbr: str) -> int | None:
        """Warps per CTA of one benchmark's launch (barrier scope)."""
        run = self.run(self._normalize(abbr))
        return run.built.launch.warps_per_cta(run.warp_size)

    def _simulate_event_path(
        self, key: str, arch: ArchitectureConfig, recorder=None, sm_engine=None
    ) -> TimingResult:
        """The ``--arch-engine=event`` oracle: per-event interpretation,
        :class:`TimingOp` lowering, then the SM simulation.  The inputs
        are materialized first, so their own stages never nest inside
        ``lower``."""
        run = self.run(key)
        engine = sm_engine or self.sm_engine
        processed = self.processed(key, arch)
        with self.stats.timer("lower", benchmark=key, arch=arch.name):
            warp_rows = compile_ops(
                lower_to_timing_ops(processed, arch, self.config, run.warp_size),
                self.config,
                arch.extra_pipeline_cycles,
            )
        with self.stats.timer("sm_sim", benchmark=key, arch=arch.name, sm_engine=engine):
            return simulate_warp_rows(
                warp_rows,
                arch,
                self.config,
                warps_per_cta=run.built.launch.warps_per_cta(run.warp_size),
                sm_engine=engine,
                recorder=recorder,
            )

    # ------------------------------------------------------------------
    # The batch driver: a grid of chunks, one chunk without
    # ``chunk_events``.
    # ------------------------------------------------------------------
    def _chunk_stem(self, key: str, stage: str, index: int) -> str:
        """Stem of one per-chunk v5 bank entry (grid size in the name,
        so grids of different sizes never collide)."""
        return self._stage_stem(key, f"{stage}_ck{self._grid}_{index:05d}")

    def _chunk_index_stem(self, key: str) -> str:
        return self._stage_stem(key, f"ccols_ck{self._grid}_idx")

    def _chunk_stream(self, key: str) -> Iterator:
        """The chunk source: replica generator for synthetic tiers
        (nothing whole-trace is ever built), ``iter_chunks`` otherwise."""
        assert self.chunk_events is not None
        run = self.run(key)
        seeded = self._seeds.get(key)
        if seeded is not None:
            return iter_synthetic_chunks(seeded[0], seeded[1], self.chunk_events)
        columnar = run.columnar
        if columnar is None:
            columnar = run.trace.to_columnar()
            run._columnar = columnar
        return iter_chunks(columnar, self.chunk_events)

    def _columns_fingerprint(self, key: str) -> str:
        return cachekey.columns_fingerprint(
            self.run(key).trace_fingerprint, STAGE_VERSION, self.classifier
        )

    def _warm_chunk_index(self, key: str, fingerprint: str) -> dict | None:
        """The chunk-grid index entry's meta, on a clean hit only."""
        if self.cache_dir is None:
            return None
        entry, status = store.load_entry(
            self.cache_dir, self._chunk_index_stem(key), fingerprint
        )
        if entry is None or entry.kind != "ckidx":
            if status in ("stale", "corrupt"):
                self._log(f"discarding {status} chunk index for {key}")
                self.stats.bump("sidecar_invalid")
            return None
        if entry.meta.get("chunk_events") != self.chunk_events:
            return None
        return entry.meta

    def _chunks_all_present(self, stems: list[str], fingerprint: str) -> bool:
        """O(1)-per-chunk probe that every bank entry exists and matches.

        Checked *before* streaming so a warm pass never discovers a
        missing chunk halfway through (carry state cannot restart
        mid-stream; a miss would force a full recompute anyway).
        """
        if self.cache_dir is None:
            return False
        for stem in stems:
            if self._bank_hints.get(stem) == fingerprint:
                # Verified earlier by this runner: no manifest re-read.
                self.stats.bump("bank_probes_skipped")
                continue
            manifest = store.peek_manifest(self.cache_dir, stem)
            if manifest is None or manifest.get("fingerprint") != fingerprint:
                return False
            self._bank_hints[stem] = fingerprint
        return True

    def _classify_chunks(self, key: str) -> Iterator[tuple[dict, ClassifiedColumns]]:
        """Cold ``(chunk_meta, ccols)`` fragments of the runner's grid.

        The one-chunk grid reuses ``run.classified`` — the per-event
        stream the figures share — so a run classifies once.  A
        multi-chunk grid classifies chunk by chunk with the carry
        threaded through, never holding the whole classified stream.
        """
        run = self.run(key)
        if self.chunk_events is None:
            classified = run.classified
            with self.stats.timer("columns", benchmark=key):
                ccols = ClassifiedColumns.from_classified(
                    classified, run.warp_size, columnar=run.columnar
                )
            yield {
                "warp_size": int(ccols.warp_size),
                "index": 0,
                "start_event": 0,
                "warp_start": 0,
                "first_warp_continued": False,
                "last_warp_continues": False,
            }, ccols
            return
        carry = ClassifierCarry()
        for chunk in self._chunk_stream(key):
            with self.stats.timer("classify", benchmark=key):
                classified = classify_columnar_chunk(
                    chunk, run.built.kernel.num_registers, carry
                )
                ccols = ClassifiedColumns.from_classified(
                    classified, chunk.columnar.warp_size, columnar=chunk.columnar
                )
            del classified
            yield {
                "warp_size": int(ccols.warp_size),
                "index": int(chunk.index),
                "start_event": int(chunk.start_event),
                "warp_start": int(chunk.warp_start),
                "first_warp_continued": bool(chunk.first_warp_continued),
                "last_warp_continues": bool(chunk.last_warp_continues),
            }, ccols

    def _iter_ccols_fragments(
        self, key: str, force_cold: bool = False
    ) -> Iterator[tuple[dict, ClassifiedColumns]]:
        """Yield ``(chunk_meta, ccols)`` per chunk, warm or cold.

        Warm: every chunk's ``ccols`` banks verified present up front,
        then streamed one memory-mapped fragment at a time — the full
        classified columns never coexist.  Cold: classify, persist each
        chunk's banks, and write the grid index entry last (so a crashed
        writer never leaves a complete-looking index over missing
        chunks).  The one-chunk grid's fragment stays in memory, so
        every architecture's pass reuses it.
        """
        whole = self._whole_fragments.get(key)
        if whole is not None:
            yield whole
            return
        fingerprint = self._columns_fingerprint(key)
        if not force_cold:
            index = self._warm_chunk_index(key, fingerprint)
            if index is not None:
                stems = [
                    self._chunk_stem(key, "ccols", i)
                    for i in range(int(index["num_chunks"]))
                ]
                if self._chunks_all_present(stems, fingerprint):
                    for stem in stems:
                        entry = self._load_banks(stem, fingerprint, "ccols")
                        if entry is None:
                            raise _ChunkBankMiss(stem)
                        fragment = entry.meta, ClassifiedColumns.from_arrays(
                            int(entry.meta["warp_size"]), entry.arrays
                        )
                        if self.chunk_events is None:
                            self._whole_fragments[key] = fragment
                        yield fragment
                    return
        chunk_metas: list[dict] = []
        for meta, ccols in self._classify_chunks(key):
            if self.cache_dir is not None:
                self.stats.bump("ccols_cache_misses")
            self._store_banks(
                self._chunk_stem(key, "ccols", meta["index"]),
                fingerprint,
                "ccols",
                meta=meta,
                arrays=ccols.as_arrays(),
            )
            if self.chunk_events is None:
                self._whole_fragments[key] = meta, ccols
            chunk_metas.append(meta)
            yield meta, ccols
        self._store_banks(
            self._chunk_index_stem(key),
            fingerprint,
            "ckidx",
            meta={
                "chunk_events": self.chunk_events,
                "num_chunks": len(chunk_metas),
                "chunks": chunk_metas,
            },
        )

    def _stream_arch_pass(
        self,
        key: str,
        arch: ArchitectureConfig,
        force_cold: bool = False,
        recorder=None,
        sm_engine: str | None = None,
    ) -> tuple[TimingResult, PowerReport]:
        """One architecture's full pass over the grid: per chunk
        classify / process / aggregate / lower, then the SM simulation
        barrier and the power evaluation."""
        run = self.run(key)
        engine = sm_engine or self.sm_engine
        widths = self._widths_for(key, arch)
        accountant = PowerAccountant(arch, self.params, self.config)
        pfp = cachekey.processed_fingerprint(
            run.trace_fingerprint,
            arch,
            STAGE_VERSION,
            engine=self.arch_engine,
            classifier=self.classifier,
            analysis_version=(
                WIDTH_ANALYSIS_VERSION if arch.static_compression else None
            ),
        )
        pcols_warm = False
        if not force_cold:
            index = self._warm_chunk_index(key, self._columns_fingerprint(key))
            if index is not None:
                pcols_warm = self._chunks_all_present(
                    [
                        self._chunk_stem(key, f"pcols_{arch.name}", i)
                        for i in range(int(index["num_chunks"]))
                    ],
                    pfp,
                )
        carry = ArchCarry()
        agg = _PowerAggregates()
        warp_rows: list[list[tuple]] = []
        for meta, ccols in self._iter_ccols_fragments(key, force_cold=force_cold):
            warp_start = int(meta["warp_start"])
            stem = self._chunk_stem(key, f"pcols_{arch.name}", int(meta["index"]))
            if pcols_warm:
                entry = self._load_banks(stem, pfp, "pcols")
                if entry is None:
                    raise _ChunkBankMiss(stem)
                pcols = ProcessedColumns.from_arrays(
                    int(entry.meta["warp_size"]), entry.arrays
                )
            else:
                if self.cache_dir is not None:
                    self.stats.bump("pcols_cache_misses")
                with self.stats.timer("process", benchmark=key, arch=arch.name):
                    pcols = process_columns_chunk(
                        ccols,
                        arch,
                        carry,
                        warp_start=warp_start,
                        first_warp_continued=bool(meta["first_warp_continued"]),
                        last_warp_continues=bool(meta["last_warp_continues"]),
                        static_widths=widths,
                    )
                self._store_banks(
                    stem,
                    pfp,
                    "pcols",
                    meta={
                        "warp_size": int(pcols.warp_size),
                        "warp_start": warp_start,
                        "index": int(meta["index"]),
                    },
                    arrays=pcols.as_arrays(),
                )
            agg.merge(accountant.aggregates_from_columns(pcols, warp_base=warp_start))
            with self.stats.timer("lower", benchmark=key, arch=arch.name):
                fragments = build_timing_ops_columns(ccols, pcols, arch, self.config)
            extend_warp_fragments(warp_rows, warp_start, fragments)
            self.stats.bump("stream_chunks")
            # Gauges land in the stats registry: the shared one when
            # telemetry is on, else the runner's private registry — so
            # ``--stats-json`` reports them without a telemetry session.
            record_bytes_in_flight(
                _array_bytes(ccols) + _array_bytes(pcols), self.stats.telemetry
            )
            record_peak_rss(self.stats.telemetry)
        with self.stats.timer(
            "sm_sim", benchmark=key, arch=arch.name, sm_engine=engine
        ):
            timing = simulate_warp_rows(
                warp_rows,
                arch,
                self.config,
                warps_per_cta=run.built.launch.warps_per_cta(run.warp_size),
                sm_engine=engine,
                recorder=recorder,
            )
        with self.stats.timer("power", benchmark=key, arch=arch.name):
            power = accountant.account_aggregates(agg, timing)
        return timing, power

    def _compute_streamed(
        self, key: str, arch: ArchitectureConfig, recorder=None, sm_engine=None
    ) -> tuple[TimingResult, PowerReport]:
        """Timing + power for one pair from one pass over the grid.

        A chunk bank vanishing between the up-front presence probe and
        its load (concurrent sweep) aborts the pass; carry state cannot
        resume mid-stream, so the recovery is one full cold recompute.
        """
        self._log(f"streaming {key} on {arch.name} (chunk_events={self.chunk_events})")
        try:
            return self._stream_arch_pass(
                key, arch, recorder=recorder, sm_engine=sm_engine
            )
        except _ChunkBankMiss as exc:
            self._log(f"chunk bank vanished mid-stream ({exc}); recomputing cold")
            self.stats.bump("stream_cold_restarts")
            return self._stream_arch_pass(
                key, arch, force_cold=True, recorder=recorder, sm_engine=sm_engine
            )

    def _results(
        self, abbr: str, arch: ArchitectureConfig
    ) -> tuple[TimingResult, PowerReport]:
        """Timing and power for one pair: replayed, or computed together
        and stored as one ``results`` entry."""
        key = self._normalize(abbr)
        pair = (key, arch.name)
        if pair not in self._timing and not self._load_results(key, arch):
            if self.arch_engine == "batch":
                timing, power = self._compute_streamed(key, arch)
            else:
                self._log(f"timing {key} on {arch.name}")
                timing = self._simulate_event_path(key, arch)
                accountant = PowerAccountant(arch, self.params, self.config)
                with self.stats.timer("power", benchmark=key, arch=arch.name):
                    power = accountant.account(self.processed(key, arch), timing)
            self._timing[pair] = timing
            self._power[pair] = power
            self._store_results(key, arch)
        return self._timing[pair], self._power[pair]

    def timing(self, abbr: str, arch: ArchitectureConfig) -> TimingResult:
        """Cycle-level result for one (benchmark, architecture) pair."""
        return self._results(abbr, arch)[0]

    def power(self, abbr: str, arch: ArchitectureConfig) -> PowerReport:
        """Power report for one (benchmark, architecture) pair."""
        return self._results(abbr, arch)[1]

    def timeline(
        self,
        abbr: str,
        arch: ArchitectureConfig,
        recorder,
        sm_engine: str | None = None,
    ) -> TimingResult:
        """Re-run timing with a flight recorder threaded through.

        Always simulates (never replays a results entry — recorded events
        cannot come from a cache) and never stores the result, so the
        recorded run cannot pollute the recorder-free result cache.
        ``sm_engine`` overrides the runner's engine for one run (the
        ``repro timeline --compare-engines`` path drives both engines
        over the same streams).
        """
        key = self._normalize(abbr)
        engine = sm_engine or self.sm_engine
        self._log(f"timeline {key} on {arch.name} ({engine} engine)")
        with self.stats.timer(
            "timeline", benchmark=key, arch=arch.name, sm_engine=engine
        ):
            if self.arch_engine == "batch":
                return self._compute_streamed(
                    key, arch, recorder=recorder, sm_engine=engine
                )[0]
            return self._simulate_event_path(
                key, arch, recorder=recorder, sm_engine=engine
            )

    # ------------------------------------------------------------------
    # Matrix prefetch (the parallel experiment engine's front door).
    # ------------------------------------------------------------------
    def prefetch(
        self,
        names: Sequence[str] | None = None,
        jobs: int = 1,
        warp_sizes: Sequence[int] = (32,),
        arches: Sequence[ArchitectureConfig] | None = None,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> RunnerStats:
        """Warm every cacheable stage of the benchmark × arch matrix.

        With ``jobs > 1`` the matrix fans out over a process pool
        (:func:`repro.experiments.parallel.run_matrix`); workers share
        results exclusively through the on-disk cache, so ``cache_dir``
        is required.  Worker statistics merge into :attr:`stats` and the
        merged stats are returned.  Serial (``jobs == 1``) prefetch
        works with or without a cache directory.
        """
        wanted = [self._normalize(name) for name in (names or self.benchmark_names())]
        arch_list = tuple(arches) if arches is not None else paper_architectures()
        jobs = max(1, int(jobs))
        if progress is None and self.verbose:
            progress = lambda abbr, done, total: self._log(
                f"prefetch {done}/{total}: {abbr}"
            )
        with self.stats.timer("prefetch"):
            if jobs == 1 or len(wanted) <= 1:
                for index, abbr in enumerate(wanted):
                    self.run(abbr)
                    for warp_size in warp_sizes:
                        self.trace_with_warp_size(abbr, warp_size)
                    for arch in arch_list:
                        self.power(abbr, arch)
                    if progress is not None:
                        progress(abbr, index + 1, len(wanted))
            else:
                if self.cache_dir is None:
                    raise ValueError(
                        "parallel prefetch requires cache_dir: worker "
                        "processes communicate through the on-disk cache"
                    )
                from repro.experiments.parallel import run_matrix

                worker_stats = run_matrix(
                    names=wanted,
                    scale=self.scale.name,
                    cache_dir=self.cache_dir,
                    jobs=jobs,
                    warp_sizes=tuple(warp_sizes),
                    arches=arch_list,
                    config=self.config,
                    params=self.params,
                    progress=progress,
                    telemetry=get_telemetry().enabled,
                    classifier=self.classifier,
                    arch_engine=self.arch_engine,
                    sm_engine=self.sm_engine,
                    chunk_events=self.chunk_events,
                )
                self.stats.merge(worker_stats)
        return self.stats
