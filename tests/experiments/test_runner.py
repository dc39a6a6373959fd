"""Tests for the caching experiment runner."""

import errno
import pickle
import shutil
from unittest import mock

import pytest

from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments.runner import ExperimentRunner, RunnerStats


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


class TestRunner:
    def test_benchmark_names_in_table2_order(self, runner):
        names = runner.benchmark_names()
        assert names[0] == "BT"
        assert names[-1] == "ACF"
        assert len(names) == 17

    def test_run_caches_trace(self, runner):
        first = runner.run("BP")
        second = runner.run("bp")  # case-insensitive
        assert first is second

    def test_processed_cached_per_architecture(self, runner):
        arch = ArchitectureConfig.gscalar()
        first = runner.processed("BP", arch)
        second = runner.processed("BP", arch)
        assert first is second

    def test_timing_and_power(self, runner):
        arch = ArchitectureConfig.baseline()
        timing = runner.timing("HS", arch)
        power = runner.power("HS", arch)
        assert timing.cycles > 0
        assert power.cycles == timing.cycles
        assert power.ipc_per_watt > 0

    def test_warp64_traces(self, runner):
        trace32 = runner.trace_with_warp_size("HS", 32)
        trace64 = runner.trace_with_warp_size("HS", 64)
        assert trace32.warp_size == 32
        assert trace64.warp_size == 64

    def test_warp64_case_insensitive(self, runner):
        first = runner.trace_with_warp_size("HS", 64)
        second = runner.trace_with_warp_size("hs", 64)
        assert first is second

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="nope")

    def test_transport_option_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            ExperimentRunner(scale="tiny", cache_dir=tmp_path, transport="mmap")


class TestRunnerStats:
    def test_merge_accepts_stats_and_dicts(self):
        stats = RunnerStats()
        stats.bump("trace_executions", 2)
        stats.add_time("classify", 0.5)
        other = RunnerStats()
        other.bump("trace_executions")
        other.bump("trace_cache_hits", 3)
        stats.merge(other)
        stats.merge({"counters": {"trace_executions": 1}, "stage_seconds": {"classify": 0.25}})
        assert stats.trace_executions == 4
        assert stats.counters["trace_cache_hits"] == 3
        assert stats.stage_seconds["classify"] == pytest.approx(0.75)

    def test_to_dict_round_trips_through_merge(self):
        stats = RunnerStats()
        stats.bump("trace_executions", 5)
        rebuilt = RunnerStats()
        rebuilt.merge(stats.to_dict())
        assert rebuilt.trace_executions == 5


class TestTraceCache:
    def test_disk_cache_round_trip(self, tmp_path):
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run_a = first.run("HS")
        assert (tmp_path / "HS_tiny.v5.json").exists()
        assert first.stats.trace_executions == 1
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run_b = second.run("HS")
        assert second.stats.trace_executions == 0
        assert second.stats.counters["trace_cache_hits"] == 1
        assert run_a.trace.total_instructions == run_b.trace.total_instructions
        masks_a = [e.active_mask for e in run_a.trace.all_events()]
        masks_b = [e.active_mask for e in run_b.trace.all_events()]
        assert masks_a == masks_b

    def test_warp64_trace_cached_on_disk(self, tmp_path):
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        trace_a = first.trace_with_warp_size("hs", 64)
        assert (tmp_path / "HS_tiny_w64.v5.json").exists()
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        trace_b = second.trace_with_warp_size("HS", 64)
        assert second.stats.trace_executions == 0
        assert trace_b.warp_size == 64
        masks_a = [e.active_mask for e in trace_a.all_events()]
        masks_b = [e.active_mask for e in trace_b.all_events()]
        assert masks_a == masks_b

    def test_warp_sizes_do_not_collide_in_cache(self, tmp_path):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.run("HS")
        runner.trace_with_warp_size("HS", 64)
        assert (tmp_path / "HS_tiny.v5.json").exists()
        assert (tmp_path / "HS_tiny_w64.v5.json").exists()
        fresh = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert fresh.trace_with_warp_size("HS", 64).warp_size == 64
        assert fresh.run("HS").trace.warp_size == 32

    def test_fingerprint_mismatch_triggers_reexecution(self, tmp_path):
        import json

        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        good = seeded.run("HS").trace
        manifest = tmp_path / "HS_tiny.v5.json"
        # Rewrite the manifest under a wrong fingerprint, simulating a
        # kernel/scale edit since the trace was recorded.  The peek is
        # cheap — staleness is decided before any bank is mapped.
        doc = json.loads(manifest.read_text())
        doc["fingerprint"] = "0" * 16
        manifest.write_text(json.dumps(doc))
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run = runner.run("HS")
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["trace_cache_invalid"] == 1
        # The stale entry was overwritten with a valid one.
        verifier = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        verifier.run("HS")
        assert verifier.stats.trace_executions == 0
        assert run.trace.total_instructions == good.total_instructions

    def test_corrupt_cache_file_recovered(self, tmp_path):
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.run("HS").trace.total_instructions
        path = tmp_path / "HS_tiny.v5.json"
        path.write_bytes(b"not a manifest")
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run = runner.run("HS")
        assert run.trace.total_instructions == expected
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["trace_cache_invalid"] == 1
        # And the overwrite repaired the cache for the next process.
        repaired = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        repaired.run("HS")
        assert repaired.stats.trace_executions == 0

    def test_corrupt_sidecar_recovered(self, tmp_path):
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.power("HS", arch).ipc_per_watt
        stem = seeded._results_stem("HS", arch)
        for bank in tmp_path.glob(f"{stem}.*.v5/*.pkl"):
            bank.write_bytes(b"junk")
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.power("HS", arch).ipc_per_watt == expected
        assert runner.stats.counters["sidecar_invalid"] >= 1
        assert runner.stats.counters["result_cache_misses"] >= 1

    def test_result_sidecars_replay_timing_and_power(self, tmp_path):
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        timing = seeded.timing("HS", arch)
        power = seeded.power("HS", arch)
        assert (tmp_path / f"{seeded._results_stem('HS', arch)}.v5.json").exists()
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert warm.power("HS", arch).ipc_per_watt == power.ipc_per_watt
        assert warm.timing("HS", arch).cycles == timing.cycles
        assert warm.stats.counters["result_cache_hits"] == 1
        assert "lower" not in warm.stats.stage_seconds
        assert "sm_sim" not in warm.stats.stage_seconds

    @pytest.mark.parametrize("chunk_events", [None, 64])
    def test_cold_run_records_lower_and_sm_sim(self, chunk_events):
        """Timing is reported as its two layers, whole-trace and streamed."""
        runner = ExperimentRunner(scale="tiny", chunk_events=chunk_events)
        runner.timing("HS", ArchitectureConfig.gscalar())
        stages = runner.stats.stage_seconds
        assert stages["lower"] > 0
        assert stages["sm_sim"] > 0
        assert "timing" not in stages

    def test_energy_param_change_invalidates_results(self, tmp_path):
        from repro.power.energy import EnergyParams

        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        seeded.power("HS", arch)
        tweaked = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, params=EnergyParams(alu_lane_pj=99.0)
        )
        tweaked.power("HS", arch)
        assert tweaked.stats.counters.get("result_cache_hits", 0) == 0
        assert tweaked.stats.counters["result_cache_misses"] >= 1

    def test_stale_sidecar_skipped_without_unpickling(self, tmp_path):
        """A results entry left by a different SM engine (same entry
        name, other fingerprint) is rejected from its manifest's
        fingerprint alone: no pickled payload is read to find out."""
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        seeded.power("HS", arch)
        tweaked = ExperimentRunner(scale="tiny", cache_dir=tmp_path, sm_engine="cycle")
        tweaked.power("HS", arch)
        assert tweaked.stats.counters["sidecar_invalid"] >= 1
        assert tweaked.stats.counters.get("bytes_deserialized", 0) == 0


ARCH = ArchitectureConfig.gscalar()


@pytest.fixture(scope="module")
def reference():
    """HS on G-Scalar from a cache-less runner."""
    runner = ExperimentRunner(scale="tiny")
    return runner.timing("HS", ARCH), runner.power("HS", ARCH)


def _truncate_trace_bank(cache, runner):
    (bank,) = cache.glob("HS_tiny.*.v5/values.npy")
    bank.write_bytes(bank.read_bytes()[: bank.stat().st_size // 2])


def _delete_results_banks(cache, runner):
    (bank_dir,) = cache.glob(f"{runner._results_stem('HS', ARCH)}.*.v5")
    shutil.rmtree(bank_dir)


def _garbage_timing_object(cache, runner):
    (bank,) = cache.glob(f"{runner._results_stem('HS', ARCH)}.*.v5/timing.pkl")
    bank.write_bytes(b"garbage")


def _old_format_debris(cache, runner):
    """Files an older cache format left: a v3 trace archive and a
    results pickle that would replay a wrong result if it were read."""
    shutil.rmtree(cache)
    cache.mkdir()
    (cache / "HS_tiny.npz").write_bytes(b"old trace archive")
    timing, power = runner.timing("HS", ARCH), runner.power("HS", ARCH)
    payload = {
        "fingerprint": runner._results_fingerprint(runner.run("HS"), ARCH),
        "timing": timing,
        "power": power.__class__(**{**vars(power), "cycles": power.cycles + 1}),
    }
    (cache / f"HS_tiny_results_{ARCH.name}.pkl").write_bytes(pickle.dumps(payload))


class TestCacheDamage:
    """Every damaged or foreign cache file costs a recomputation, never
    a replay, and the result is bit-identical to a cache-less run."""

    @pytest.mark.parametrize(
        "damage",
        [
            _truncate_trace_bank,
            _delete_results_banks,
            _garbage_timing_object,
            _old_format_debris,
        ],
        ids=lambda damage: damage.__name__.strip("_"),
    )
    def test_damage_recomputes_bit_identical(self, tmp_path, reference, damage):
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        seeded.power("HS", ARCH)
        damage(tmp_path, seeded)
        debris = {
            p.name: p.read_bytes()
            for pattern in ("*.npz", "*.pkl")
            for p in tmp_path.glob(pattern)
        }

        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.timing("HS", ARCH) == reference[0]
        assert runner.power("HS", ARCH) == reference[1]
        counters = runner.stats.counters
        if damage in (_truncate_trace_bank, _old_format_debris):
            assert counters["trace_executions"] == 1
        if damage is not _truncate_trace_bank:
            assert counters.get("result_cache_hits", 0) == 0
        # Old-format files are neither read nor removed.
        assert {p: (tmp_path / p).read_bytes() for p in debris} == debris

        # The recomputation repaired the cache for the next process.
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert warm.power("HS", ARCH) == reference[1]
        assert warm.stats.counters["result_cache_hits"] == 1
        assert warm.stats.trace_executions == 0

    def test_failed_cache_write_does_not_fail_the_run(self, tmp_path, reference):
        from repro.experiments import store

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        with mock.patch.object(store, "write_aligned_npy", full_disk):
            assert runner.power("HS", ARCH) == reference[1]
        assert runner.stats.counters["cache_store_failed"] >= 1
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("HS_tiny.v5.json"))

        after = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert after.power("HS", ARCH) == reference[1]
        assert after.stats.trace_executions == 1
        assert after.stats.counters.get("trace_cache_hits", 0) == 0

    def test_failed_index_write_never_replays_a_partial_grid(self, tmp_path, reference):
        """The grid index is written last; when that write fails, the
        chunk banks already on disk are never replayed without it."""
        from repro.experiments import store

        real_store_entry = store.store_entry

        def index_write_fails(*args, **kwargs):
            if kwargs.get("kind") == "ckidx":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_store_entry(*args, **kwargs)

        def drop_results():
            for path in tmp_path.glob("*_results_*.v5.json"):
                path.unlink()

        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        with mock.patch.object(store, "store_entry", index_write_fails):
            assert first.timing("HS", ARCH) == reference[0]
            assert first.power("HS", ARCH) == reference[1]
        assert first.stats.counters["cache_store_failed"] == 1
        assert not list(tmp_path.glob("*_idx.v5.json"))

        drop_results()
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert cold.timing("HS", ARCH) == reference[0]
        assert cold.power("HS", ARCH) == reference[1]
        counters = cold.stats.counters
        assert counters.get("ccols_cache_hits", 0) == 0
        assert counters.get("pcols_cache_hits", 0) == 0
        assert counters["ccols_cache_misses"] == 1
        assert "classify" in cold.stats.stage_seconds

        drop_results()
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert warm.timing("HS", ARCH) == reference[0]
        assert warm.power("HS", ARCH) == reference[1]
        counters = warm.stats.counters
        assert counters["ccols_cache_hits"] == 1
        assert counters["pcols_cache_hits"] == 1
        assert "classify" not in warm.stats.stage_seconds
        assert "process" not in warm.stats.stage_seconds


class TestConfigSweep:
    """A GPU-configuration sweep over one cache: the interpretation is
    configuration-independent, and every point keeps its own results."""

    SLOW_ALU = GpuConfig(alu_latency=12)

    def test_sweep_point_replays_processed_banks(self, tmp_path):
        expected = ExperimentRunner(scale="tiny", config=self.SLOW_ALU)
        ExperimentRunner(scale="tiny", cache_dir=tmp_path).power("BP", ARCH)

        swept = ExperimentRunner(scale="tiny", config=self.SLOW_ALU, cache_dir=tmp_path)
        assert swept.timing("BP", ARCH) == expected.timing("BP", ARCH)
        assert swept.power("BP", ARCH) == expected.power("BP", ARCH)
        counters = swept.stats.counters
        assert counters["pcols_cache_hits"] == 1
        assert counters.get("pcols_cache_misses", 0) == 0
        assert "process" not in swept.stats.stage_seconds

    def test_sweep_point_keeps_default_results(self, tmp_path):
        arches = (ArchitectureConfig.baseline(), ARCH)
        for config in (None, self.SLOW_ALU):
            runner = ExperimentRunner(scale="tiny", config=config, cache_dir=tmp_path)
            for arch in arches:
                runner.power("BP", arch)

        default = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in arches:
            default.power("BP", arch)
        counters = default.stats.counters
        assert counters["result_cache_hits"] == len(arches)
        assert counters.get("result_cache_misses", 0) == 0
        assert counters.get("sidecar_invalid", 0) == 0

    def test_results_entries_label_as_results(self, tmp_path):
        from repro.experiments.store import scan_cache

        for config in (None, self.SLOW_ALU):
            ExperimentRunner(scale="tiny", config=config, cache_dir=tmp_path).power(
                "BP", ARCH
            )
        assert scan_cache(tmp_path)["stages"]["results"]["entries"] == 2
