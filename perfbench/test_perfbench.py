"""Tests of the benchmark itself (run: python3 -m pytest perfbench -q).

Everything runs at ``tiny`` scale against canonical values recorded in
the test, so the suite takes seconds and never touches canonical.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
from record_canonical import record_workload  # noqa: E402
from repro.config import GpuConfig  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402


def tiny(cls, scratch: Path, seed: int = suite.DEFAULT_SEED):
    """A set-up workload checked against values recorded at tiny scale."""
    canonical = {cls.name: record_workload(cls, scratch / "record", seed, scale="tiny")}
    workload = cls(scratch / "run", seed, canonical, scale="tiny")
    workload.scratch.mkdir(parents=True)
    workload.setup()
    return workload


def args_for(cls, seed=suite.DEFAULT_SEED, seconds=0.1):
    return argparse.Namespace(workload=cls.name, seed=seed, seconds=seconds, trace=0)


# -- calibration arithmetic -----------------------------------------------


def test_geomean_and_trimmed_mean():
    assert calib.geomean([1.0, 4.0]) == pytest.approx(2.0)
    # The slowest fifth is dropped before averaging.
    assert calib.trimmed_mean([1.0, 1.0, 1.0, 1.0, 9.0]) == pytest.approx(1.0)


def test_calibrated_seconds_scale_by_reference_over_measured():
    timed = calib.Timed(None, raw_s=3.0, sample_s=2 * calib.REFERENCE_SAMPLE_S)
    assert timed.factor == pytest.approx(0.5)
    assert timed.calibrated_s == pytest.approx(1.5)


def test_piece_calibration_is_geomean_of_halves(monkeypatch):
    monkeypatch.setattr(calib, "_halves", lambda samples: (0.001, 0.0009))
    timed = calib.Meter().time(lambda: sum(range(1000)))
    assert timed.sample_s == pytest.approx((0.001 * 0.0009) ** 0.5)


def test_disagreeing_halves_retime_the_piece(monkeypatch):
    halves = iter([(0.001, 0.002), (0.001, 0.001)])
    monkeypatch.setattr(calib, "_halves", lambda samples: next(halves))
    prepared = []
    meter = calib.Meter()
    timed = meter.time(lambda: "done", prepare=lambda: prepared.append(1))
    assert meter.retries == 1
    assert len(prepared) == 2  # each attempt starts from a fresh state
    assert timed.sample_s == pytest.approx(0.001)


def test_retry_releases_the_discarded_result(monkeypatch):
    halves = iter([(0.001, 0.002), (0.001, 0.001)])
    monkeypatch.setattr(calib, "_halves", lambda samples: next(halves))
    earlier = []

    def work():
        alive = [ref() for ref in earlier]
        result = Result()
        earlier.append(weakref.ref(result))
        return result, alive

    timed = calib.Meter().time(work)
    assert timed.result[1] == [None]  # the first attempt's result was freed


class Result:
    pass


def test_sampler_interleaves_reference_loops_with_work():
    meter = calib.Meter()
    timed = meter.time(lambda: sum(i * i for i in range(2_000_000)))
    assert timed.raw_s > 0
    assert meter.sample_s == [timed.sample_s]


# -- correctness gate -------------------------------------------------------


def test_perturbed_alu_latency_is_a_failed_op(tmp_path):
    workload = tiny(suite.ColdMatrix, tmp_path)
    arch = workload.arches[0]
    runner = ExperimentRunner(
        scale="tiny", config=dataclasses.replace(GpuConfig(), alu_latency=19)
    )
    perturbed = suite._runner_values(runner, "LC", arch)
    assert "cycles" in workload.check(f"LC/{arch.name}", perturbed)

    piece = next(p for p in workload.pieces(random.Random(1)) if p.key == "LC")
    outcome = piece.collect(runner)
    tally = run.Tally(workload)
    tally.check(piece, outcome)
    assert tally.attempted == len(workload.arches)
    assert tally.failed >= 1


def test_large_stream_checks_invariants_for_other_seeds(tmp_path):
    workload = tiny(suite.LargeStream, tmp_path, seed=7)
    piece = workload.pieces(random.Random(7))[0]
    outcome = piece.collect(piece.run())
    op, values = next(iter(outcome.values.items()))
    assert workload.check(op, values) == []
    assert workload.check(op, {**values, "events": values["events"] + 1}) == ["events"]
    assert "energy.rf_pj" in workload.check(op, {**values, "energy.rf_pj": -1.0})


# -- inputs -----------------------------------------------------------------


def _stream_values(workload) -> list[np.ndarray]:
    chunks = suite.iter_synthetic_chunks(
        workload.seed_trace, workload.REPLICAS, workload.CHUNK_EVENTS, seed=workload.seed
    )
    return [np.array(chunk.columnar.values) for chunk in chunks]


def test_large_stream_inputs_follow_the_seed(tmp_path):
    made = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workload = suite.LargeStream(tmp_path, seed, {}, scale="tiny")
        workload.setup()
        made[name] = _stream_values(workload)
    assert all(np.array_equal(x, y) for x, y in zip(made["a"], made["b"]))
    assert not all(np.array_equal(x, y) for x, y in zip(made["a"], made["c"]))


# -- runs -------------------------------------------------------------------


@pytest.mark.parametrize("cls", list(suite.WORKLOADS.values()), ids=list(suite.WORKLOADS))
def test_tiny_smoke_run(cls, tmp_path):
    workload = tiny(cls, tmp_path)
    meter = calib.Meter()
    tally = run.Tally(workload)
    measured = run.timed_run(args_for(cls), workload, meter, tally)
    assert tally.failed == 0 and tally.attempted > 0
    assert measured["events_per_s"] > 0 and measured["events_per_s_raw"] > 0


def test_every_hook_resolves():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer._restore) == len(spans.HOOKS)
    finally:
        tracer.uninstall()
    from repro.experiments import runner as runner_module

    assert not hasattr(runner_module.run_kernel, "__wrapped__")


def test_retimed_attempt_is_traced_once(monkeypatch):
    halves = iter([(0.001, 0.002), (0.001, 0.001)])
    monkeypatch.setattr(calib, "_halves", lambda samples: next(halves))
    tracer = spans.Tracer()
    tracer.install([("interpret", "calib", "trimmed_mean", spans._count_interpret)])
    try:
        calib.Meter().time(lambda: calib.trimmed_mean([1.0, 2.0]), tracer=tracer)
    finally:
        tracer.uninstall()
    assert sum(span.name == "interpret" for span in tracer.spans) == 2
    assert tracer.counts["interpret.calls"] == 1
    assert len(tracer.factors) == 1


@pytest.mark.parametrize("cls", list(suite.WORKLOADS.values()), ids=list(suite.WORKLOADS))
def test_layer_self_times_sum_to_traced_host_time(cls, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = tiny(cls, tmp_path)
    meter = calib.Meter()
    tally = run.Tally(workload)
    metrics = run.traced_run(args_for(cls), workload, meter, tally, untraced_setup_s=0.0)
    assert tally.failed == 0
    layers = sum(metrics[name][0] for name in run.LAYER_TIMES.values())
    traced = metrics["bench.traced_host_s"][0]
    assert layers == pytest.approx(traced, rel=0.03)
    assert all(metrics[name][0] >= 0 for name in run.LAYER_TIMES.values())
    assert "bench.trace_overhead_s" in metrics
    trace = json.loads((tmp_path / f"trace-{cls.name}-seed1.json").read_text())
    assert {event["name"] for event in trace["traceEvents"]} >= {"runner"}
