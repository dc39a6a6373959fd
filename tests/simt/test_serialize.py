"""Round-trip tests for trace serialization (v5 ``trace`` entries)."""

import json

import numpy as np

from repro.simt import MemoryImage
from repro.simt.serialize import load_columnar_v5, save_columnar_v5

from tests.conftest import run_one_warp

STEM = "trace"


def assert_traces_equal(a, b):
    assert a.kernel_name == b.kernel_name
    assert a.warp_size == b.warp_size
    assert len(a.warps) == len(b.warps)
    for warp_a, warp_b in zip(a.warps, b.warps):
        assert warp_a.warp_id == warp_b.warp_id
        assert len(warp_a) == len(warp_b)
        for ev_a, ev_b in zip(warp_a.events, warp_b.events):
            assert ev_a.opcode is ev_b.opcode
            assert ev_a.dst == ev_b.dst
            assert ev_a.src_regs == ev_b.src_regs
            assert ev_a.active_mask == ev_b.active_mask
            assert ev_a.block_id == ev_b.block_id
            assert ev_a.varying_special_src == ev_b.varying_special_src
            assert ev_a.scalar_nonreg_srcs == ev_b.scalar_nonreg_srcs
            if ev_a.dst_values is None:
                assert ev_b.dst_values is None
            else:
                assert np.array_equal(ev_a.dst_values, ev_b.dst_values)
            if ev_a.addresses is None:
                assert ev_b.addresses is None
            else:
                assert np.array_equal(ev_a.addresses, ev_b.addresses)


def save(trace, cache_dir, fingerprint="deadbeef00000000"):
    save_columnar_v5(trace.to_columnar(), cache_dir, STEM, fingerprint)


def load(cache_dir, expected_fingerprint=None):
    """Load the test entry; returns ``(trace or None, status)``."""
    columnar, status, _ = load_columnar_v5(cache_dir, STEM, expected_fingerprint)
    return (columnar.to_trace() if columnar is not None else None), status


def round_trip(trace, cache_dir):
    save(trace, cache_dir)
    loaded, status = load(cache_dir, "deadbeef00000000")
    assert status == "hit"
    return loaded


def rewrite_manifest(cache_dir, edit):
    path = cache_dir / f"{STEM}.v5.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestRoundTrip:
    def test_divergent_trace(self, divergent_kernel, tmp_path):
        trace = run_one_warp(divergent_kernel, MemoryImage(), cta=64)
        assert_traces_equal(trace, round_trip(trace, tmp_path))

    def test_memory_trace(self, saxpy_kernel, simple_memory, tmp_path):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        assert_traces_equal(trace, round_trip(trace, tmp_path))

    def test_empty_trace(self, tmp_path):
        from repro.simt.trace import KernelTrace

        trace = KernelTrace(kernel_name="empty", warp_size=32)
        assert round_trip(trace, tmp_path).total_instructions == 0

    def test_downstream_results_identical(self, divergent_kernel, tmp_path):
        """A reloaded trace must classify identically."""
        from repro.scalar import classify_trace, trace_statistics

        trace = run_one_warp(divergent_kernel, MemoryImage())
        reloaded = round_trip(trace, tmp_path)
        original = trace_statistics(
            classify_trace(trace, divergent_kernel.num_registers)
        )
        recovered = trace_statistics(
            classify_trace(reloaded, divergent_kernel.num_registers)
        )
        assert original.class_counts == recovered.class_counts

    def test_workload_trace_round_trip(self, tmp_path):
        from repro.simt.executor import run_kernel
        from repro.workloads.registry import build_workload

        built = build_workload("HS", scale="tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        assert_traces_equal(trace, round_trip(trace, tmp_path))
        banks = list(tmp_path.glob(f"{STEM}.*.v5/*.npy"))
        assert banks and all(bank.stat().st_size > 0 for bank in banks)


class TestFingerprint:
    def test_matching_fingerprint_round_trips(self, saxpy_kernel, tmp_path):
        from repro.simt.trace import KernelTrace

        trace = run_one_warp(saxpy_kernel, MemoryImage())
        loaded = round_trip(trace, tmp_path)
        assert isinstance(loaded, KernelTrace)
        assert_traces_equal(trace, loaded)

    def test_mismatched_fingerprint_is_stale(self, saxpy_kernel, tmp_path):
        save(run_one_warp(saxpy_kernel, MemoryImage()), tmp_path)
        assert load(tmp_path, "0123456789abcdef") == (None, "stale")

    def test_missing_fingerprint_rejected(self, saxpy_kernel, tmp_path):
        save(run_one_warp(saxpy_kernel, MemoryImage()), tmp_path)
        rewrite_manifest(tmp_path, lambda doc: doc.pop("fingerprint"))
        assert load(tmp_path, "deadbeef00000000") == (None, "corrupt")

    def test_no_expected_fingerprint_skips_check(self, saxpy_kernel, tmp_path):
        trace = run_one_warp(saxpy_kernel, MemoryImage())
        save(trace, tmp_path)
        loaded, status = load(tmp_path)
        assert status == "hit"
        assert_traces_equal(trace, loaded)


class TestCorruption:
    def test_garbage_manifest_rejected(self, tmp_path):
        (tmp_path / f"{STEM}.v5.json").write_bytes(b"this is not a manifest")
        assert load(tmp_path) == (None, "corrupt")

    def test_truncated_bank_rejected(self, saxpy_kernel, tmp_path):
        save(run_one_warp(saxpy_kernel, MemoryImage()), tmp_path)
        (bank,) = tmp_path.glob(f"{STEM}.*.v5/values.npy")
        data = bank.read_bytes()
        bank.write_bytes(data[: len(data) // 2])
        assert load(tmp_path) == (None, "corrupt")

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / f"{STEM}.v5.json").write_bytes(b"")
        assert load(tmp_path) == (None, "corrupt")

    def test_wrong_version_rejected(self, saxpy_kernel, tmp_path):
        from unittest import mock

        from repro.simt import serialize

        with mock.patch.object(serialize, "_FORMAT_VERSION", 999):
            save(run_one_warp(saxpy_kernel, MemoryImage()), tmp_path)
        assert load(tmp_path) == (None, "corrupt")
