"""Tests for the runner's architecture-interpretation engine switch."""

import pytest

from repro.config import ArchitectureConfig
from repro.experiments.runner import ExperimentRunner

ARCHES = (
    ArchitectureConfig.baseline(),
    ArchitectureConfig.alu_scalar(),
    ArchitectureConfig.gscalar(),
    ArchitectureConfig.static_compress(),
)


@pytest.fixture(scope="module")
def batch_runner():
    return ExperimentRunner(scale="tiny")


@pytest.fixture(scope="module")
def event_runner():
    return ExperimentRunner(scale="tiny", arch_engine="event")


class TestEngineParity:
    @pytest.mark.parametrize("abbr", ("BP", "HS"))
    def test_power_reports_identical(self, batch_runner, event_runner, abbr):
        for arch in ARCHES:
            assert batch_runner.power(abbr, arch) == event_runner.power(
                abbr, arch
            )

    def test_timing_identical(self, batch_runner, event_runner):
        for arch in ARCHES:
            batch = batch_runner.timing("BP", arch)
            event = event_runner.timing("BP", arch)
            assert batch.cycles == event.cycles
            assert batch.instructions == event.instructions


class TestEngineSelection:
    def test_default_engine_is_batch(self, batch_runner):
        assert batch_runner.arch_engine == "batch"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="tiny", arch_engine="turbo")


class TestStaticCompressRunner:
    """The runner feeds the width analysis into the fifth architecture."""

    ARCH = ArchitectureConfig.static_compress()

    def test_widths_cached_per_benchmark(self, batch_runner):
        first = batch_runner.static_widths("BP")
        second = batch_runner.static_widths("BP")
        assert first is second
        assert any(enc > 0 for enc in first)

    def test_static_power_differs_from_baseline(self, batch_runner):
        base = batch_runner.power("BP", ArchitectureConfig.baseline())
        static = batch_runner.power("BP", self.ARCH)
        assert static.breakdown.rf_pj < base.breakdown.rf_pj
        # No runtime detection: the only codec energy is decompression.
        assert static.breakdown.compression_pj > 0


class TestEngineKeyedSidecars:
    def test_engines_never_share_result_sidecars(self, tmp_path):
        arch = ArchitectureConfig.gscalar()
        batch = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        batch.power("HS", arch)

        event_cold = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, arch_engine="event"
        )
        event_cold.power("HS", arch)
        assert event_cold.stats.counters.get("result_cache_hits", 0) == 0

        event_warm = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, arch_engine="event"
        )
        event_warm.power("HS", arch)
        assert event_warm.stats.counters.get("result_cache_hits", 0) == 1
