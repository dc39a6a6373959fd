"""The benchmark's workloads, driven through the program's public API.

Each workload has a set-up (timed separately, as ``setup_s``) and yields
*pieces*: self-contained units of work that start from the post-set-up
state, so any piece can be timed again.  A piece's ``run`` is the timed
region; its ``collect`` turns what ``run`` returned into per-operation
values, event counts and cache counters, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.analysis.static_ import widths as widths_module
from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments.runner import (
    DEFAULT_STREAM_CHUNK,
    ExperimentRunner,
    matrix_architectures,
)
from repro.experiments.streaming import StreamingPipeline
from repro.simt import executor
from repro.timing.memory import MemoryAccessCounts
from repro.timing.sm import TimingResult
from repro.workloads.registry import SCALES, workload_by_name
from repro.workloads.synth import iter_synthetic_chunks

import canon

#: The benchmark seed the canonical values were recorded with.
DEFAULT_SEED = 1


@dataclass
class Outcome:
    """What one piece computed, gathered after its timed region."""

    values: dict[str, dict]  # operation name -> canonical values
    events: int  # simulated trace events x architectures processed
    counters: dict[str, int] = field(default_factory=dict)  # runner.stats


@dataclass
class Piece:
    key: str  # the benchmark the piece runs
    ops: int  # operations the piece computes
    run: Callable[[], Any]
    collect: Callable[[Any], Outcome]
    prepare: Callable[[], None] | None = None


def _add_counters(total: dict[str, int], runner: ExperimentRunner) -> None:
    for name, value in runner.stats.counters.items():
        total[name] = total.get(name, 0) + value


def _runner_values(runner: ExperimentRunner, abbr: str, arch: ArchitectureConfig) -> dict:
    values = canon.result_values(runner.timing(abbr, arch), runner.power(abbr, arch))
    run = runner.run(abbr)
    # A cache hit carries the columnar form; an execution the event form.
    columnar = run.columnar
    values["events"] = (
        columnar.num_events if columnar is not None else run.trace.total_instructions
    )
    return values


class Workload:
    """Base: canonical values are seed-independent unless overridden."""

    name = ""
    SCALE = "default"

    def __init__(self, scratch: Path, seed: int, canonical: dict, scale: str | None = None):
        self.scratch = scratch
        self.seed = seed
        self.canonical = canonical.get(self.name, {})
        #: Tests run the workloads at ``tiny`` scale.
        self.scale = scale or self.SCALE
        #: Set by the traced run; the stream loop records ``synth`` spans.
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def pieces(self, rng: random.Random) -> list[Piece]:
        raise NotImplementedError

    def check(self, op: str, values: dict) -> list[str]:
        """Names of the values that differ from the recorded ones."""
        expected = self.canonical.get(op)
        if expected is None:
            return [f"no canonical values for {op}"]
        return canon.mismatches(expected, values)


class ColdMatrix(Workload):
    """A fresh runner without a cache: what ``repro all`` pays from scratch.

    BP is SFU-heavy, LC has low occupancy, MV is memory-intensive and HS
    is the stencil the large-stream workload replicates.  The full
    17 x 5 matrix takes about 28 CPU seconds here, longer than one run.
    """

    name = "cold-matrix"
    BENCHMARKS = ("BP", "LC", "MV", "HS")

    def setup(self) -> None:
        self.arches = matrix_architectures()

    def pieces(self, rng):
        return [
            Piece(abbr, len(self.arches), partial(self._run, abbr), partial(self._collect, abbr))
            for abbr in rng.sample(self.BENCHMARKS, len(self.BENCHMARKS))
        ]

    def _run(self, abbr: str) -> ExperimentRunner:
        runner = ExperimentRunner(scale=self.scale)
        for arch in self.arches:
            runner.power(abbr, arch)
        return runner

    def _collect(self, abbr: str, runner: ExperimentRunner) -> Outcome:
        values = {f"{abbr}/{arch.name}": _runner_values(runner, abbr, arch) for arch in self.arches}
        outcome = Outcome(values, sum(v["events"] for v in values.values()))
        _add_counters(outcome.counters, runner)
        return outcome


class WarmSweep(Workload):
    """A latency sweep over a filled v5 cache.

    Set-up fills the cache with a default-config pass.  Each piece copies
    that cache afresh, then opens one runner per sweep point on it:
    first the default config (every result replays from the cache), then
    non-default ALU latencies (traces and classified columns map from
    the cache; interpretation, lowering, SM simulation and power run and
    are stored).
    """

    name = "warm-sweep"
    BENCHMARKS = ("BP", "LC", "HS")
    ALU_LATENCIES = (12, 24)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pristine: Path | None = None
        self.work = self.scratch / "work"
        self._fills = 0

    def setup(self) -> None:
        self.arches = (
            ArchitectureConfig.baseline(),
            ArchitectureConfig.alu_scalar(),
            ArchitectureConfig.gscalar(),
        )
        fill = self.scratch / f"fill-{self._fills}"
        self._fills += 1
        runner = ExperimentRunner(scale=self.scale, cache_dir=fill)
        for abbr in self.BENCHMARKS:
            for arch in self.arches:
                runner.power(abbr, arch)
        if self.pristine is not None:
            shutil.rmtree(self.pristine)
        self.pristine = fill

    def pieces(self, rng):
        pieces = []
        for abbr in rng.sample(self.BENCHMARKS, len(self.BENCHMARKS)):
            # The default point comes first: a non-default point rewrites
            # the results entries the default replay reads.
            points = (None, *rng.sample(self.ALU_LATENCIES, len(self.ALU_LATENCIES)))
            pieces.append(
                Piece(
                    abbr,
                    len(self.arches) * len(points),
                    partial(self._run, abbr, points),
                    partial(self._collect, abbr),
                    prepare=self._restore_cache,
                )
            )
        return pieces

    def _restore_cache(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.pristine, self.work, copy_function=shutil.copy)

    def _run(self, abbr: str, points) -> list[tuple[int, ExperimentRunner]]:
        done = []
        for latency in points:
            config = GpuConfig()
            if latency is not None:
                config = dataclasses.replace(config, alu_latency=latency)
            runner = ExperimentRunner(scale=self.scale, config=config, cache_dir=self.work)
            for arch in self.arches:
                runner.power(abbr, arch)
            done.append((config.alu_latency, runner))
        return done

    def _collect(self, abbr: str, done) -> Outcome:
        outcome = Outcome({}, 0)
        for latency, runner in done:
            for arch in self.arches:
                values = _runner_values(runner, abbr, arch)
                outcome.values[f"{abbr}/{arch.name}@alu{latency}"] = values
                outcome.events += values["events"]
            _add_counters(outcome.counters, runner)
        return outcome


class LargeStream(Workload):
    """The bounded-memory chunk stream of the ``--scale=large`` tier.

    Set-up executes the HS seed kernel at large scale.  Each piece feeds
    seeded synthetic replicas of it, chunk by chunk, through a fresh
    :class:`StreamingPipeline` over every architecture, without the
    timing lowering (``collect_timing_ops=False``), so it measures the
    classify / interpret / power spine alone.  Chunks are the size the
    runner streams the tier in.  A replica is chunked on its own and one
    HS replica is shorter than a chunk, so every replica is one chunk, as
    in a user's ``--scale=large`` run.
    """

    name = "large-stream"
    SCALE = "large"
    BENCHMARK = "HS"
    REPLICAS = 4
    CHUNK_EVENTS = DEFAULT_STREAM_CHUNK

    def setup(self) -> None:
        self.arches = matrix_architectures()
        built = workload_by_name(self.BENCHMARK).builder(SCALES[self.scale])
        trace = executor.run_kernel(built.kernel, built.launch, built.memory)
        self.seed_trace = trace.to_columnar()
        widths = widths_module.analyze_widths(
            built.kernel, warp_size=self.seed_trace.warp_size
        ).register_enc
        self.static_widths = {a.name: widths for a in self.arches if a.static_compression}
        self.num_registers = built.kernel.num_registers

    def pieces(self, rng):
        return [Piece(self.BENCHMARK, len(self.arches), self._run, self._collect)]

    def _run(self) -> StreamingPipeline:
        pipeline = StreamingPipeline(
            self.arches,
            self.num_registers,
            static_widths=self.static_widths,
            collect_timing_ops=False,
        )
        chunks = iter_synthetic_chunks(
            self.seed_trace, self.REPLICAS, self.CHUNK_EVENTS, seed=self.seed
        )
        while True:
            if self.tracer is None:
                chunk = next(chunks, None)
            else:
                chunk = self.tracer.span("synth", next, chunks, None)
            if chunk is None:
                return pipeline
            pipeline.feed(chunk)

    def _collect(self, pipeline: StreamingPipeline) -> Outcome:
        no_cycles = TimingResult(cycles=0, instructions=0, memory_counts=MemoryAccessCounts())
        outcome = Outcome({}, 0)
        for arch in self.arches:
            agg = pipeline.aggregates[arch.name]
            report = pipeline.accountants[arch.name].account_aggregates(agg, no_cycles)
            values = {
                "events": pipeline.num_events,
                "instructions": agg.instructions,
                "extra_instructions": agg.extra_instructions,
                "extra_exec_lanes": agg.extra_exec_lanes,
                "compressor_ops": agg.compressor_ops,
                "decompressor_ops": agg.decompressor_ops,
                "exec_lanes": sum(agg.exec_lanes_by_opcode.values()),
                "rf_accesses": sum(agg.access_tally.values()),
            }
            for name, value in canon.energy_values(report.breakdown).items():
                values[f"energy.{name}"] = value
            outcome.values[f"{self.BENCHMARK}/{arch.name}"] = values
            outcome.events += pipeline.num_events
        return outcome

    def check(self, op: str, values: dict) -> list[str]:
        """Recorded values for the default seed; invariants otherwise.

        Another seed perturbs the replicas' values and addresses, so only
        the event count (replicas x seed events) and the sign of every
        energy component are known in advance.
        """
        if self.seed == DEFAULT_SEED:
            return super().check(op, values)
        expected_events = self.REPLICAS * self.seed_trace.num_events
        failed = [
            name
            for name in ("events", "instructions")
            if values.get(name) != expected_events
        ]
        failed += [
            name
            for name, value in values.items()
            if name.startswith("energy.") and not (math.isfinite(value) and value >= 0)
        ]
        return failed


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdMatrix, WarmSweep, LargeStream)
}
