"""Tests for cache-content fingerprints."""

import pytest

from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments import cachekey
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.workloads.registry import SCALES, workload_by_name


@pytest.fixture(scope="module")
def hs_kernel():
    return workload_by_name("HS").builder(SCALES["tiny"]).kernel


class TestKernelFingerprint:
    def test_stable_across_rebuilds(self, hs_kernel):
        rebuilt = workload_by_name("HS").builder(SCALES["tiny"]).kernel
        assert cachekey.kernel_fingerprint(hs_kernel) == cachekey.kernel_fingerprint(
            rebuilt
        )

    def test_different_kernels_differ(self, hs_kernel):
        other = workload_by_name("BP").builder(SCALES["tiny"]).kernel
        assert cachekey.kernel_fingerprint(hs_kernel) != cachekey.kernel_fingerprint(
            other
        )

    def test_kernel_edit_changes_fingerprint(self, hs_kernel):
        before = cachekey.kernel_fingerprint(hs_kernel)
        block = hs_kernel.blocks[0]
        removed = block.instructions.pop()
        try:
            after = cachekey.kernel_fingerprint(hs_kernel)
        finally:
            block.instructions.append(removed)
        assert before != after


class TestTraceFingerprint:
    def test_scale_and_warp_size_enter_the_key(self, hs_kernel):
        tiny32 = cachekey.trace_fingerprint(hs_kernel, SCALES["tiny"], 32)
        tiny64 = cachekey.trace_fingerprint(hs_kernel, SCALES["tiny"], 64)
        small32 = cachekey.trace_fingerprint(hs_kernel, SCALES["small"], 32)
        assert len({tiny32, tiny64, small32}) == 3

    def test_digest_shape(self, hs_kernel):
        digest = cachekey.trace_fingerprint(hs_kernel, SCALES["tiny"], 32)
        assert len(digest) == cachekey.DIGEST_CHARS
        int(digest, 16)  # hex


class TestStageFingerprint:
    def test_architecture_and_energy_enter_the_key(self):
        config = GpuConfig()
        base = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), config, DEFAULT_ENERGY, 1
        )
        other_arch = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.baseline(), config, DEFAULT_ENERGY, 1
        )
        other_energy = cachekey.stage_fingerprint(
            "abc",
            ArchitectureConfig.gscalar(),
            config,
            EnergyParams(alu_lane_pj=99.0),
            1,
        )
        other_version = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), config, DEFAULT_ENERGY, 2
        )
        other_classifier = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), config, DEFAULT_ENERGY, 1,
            classifier="event",
        )
        assert len(
            {base, other_arch, other_energy, other_version, other_classifier}
        ) == 5

    def test_stable_across_equal_inputs(self):
        first = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), GpuConfig(), EnergyParams(), 1
        )
        second = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), GpuConfig(), EnergyParams(), 1
        )
        assert first == second
