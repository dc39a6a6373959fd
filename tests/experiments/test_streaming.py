"""Differential gate: chunk-streaming pipeline vs the whole-trace engines.

The streaming orchestrator (:mod:`repro.experiments.streaming`) must be
*bit-identical* to the whole-trace batch pipeline for any chunk size —
same classified columns, same per-architecture processed columns, same
timing result and the same power report.  These tests pin that contract
across every workload and architecture, at the chunk-grid edge cases
(size 1, one chunk, empty trace), and under hypothesis-drawn random
chunk sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import GpuConfig
from repro.experiments.runner import matrix_architectures
from repro.experiments.streaming import StreamingPipeline, stream_pipeline
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import (
    ClassifiedColumns,
    ProcessedColumns,
    processed_columns_equal,
)
from repro.simt import run_kernel
from repro.simt.trace import iter_chunks
from repro.timing.gpu import simulate_architecture_columns
from repro.workloads.registry import all_workloads, build_workload

ARCHES = matrix_architectures()
ARCH_IDS = [arch.name for arch in ARCHES]
WORKLOAD_ABBRS = [spec.abbr for spec in all_workloads()]

_CASE_CACHE: dict[str, dict] = {}


def _merge_warp_lengths(
    fragments: list[np.ndarray], continued: list[bool]
) -> np.ndarray:
    """Fold per-chunk warp-length tables back into whole-trace warps.

    ``continued[i]`` says fragment *i*'s first warp is the tail of
    fragment *i - 1*'s last warp (a chunk boundary cut it), so their
    lengths sum into one warp.
    """
    merged: list[int] = []
    for lengths, cont in zip(fragments, continued):
        items = lengths.tolist()
        if cont and merged and items:
            merged[-1] += items[0]
            items = items[1:]
        merged.extend(items)
    return np.array(merged, dtype=np.int64)


def _concat_offsets(tables: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-chunk offset tables into one running table."""
    parts = [np.zeros(1, dtype=np.int64)]
    base = 0
    for table in tables:
        parts.append(table[1:].astype(np.int64) + base)
        base += int(table[-1])
    return np.concatenate(parts)


def _concat_row_indexes(
    indexes: list[np.ndarray], row_counts: list[int]
) -> np.ndarray:
    """Concatenate per-chunk row-index columns, rebasing to the
    concatenated row matrix (``-1`` stays ``-1``)."""
    parts = []
    base = 0
    for index, rows in zip(indexes, row_counts):
        parts.append(np.where(index >= 0, index + base, -1).astype(np.int64))
        base += rows
    return (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    )


def concat_classified_columns(
    fragments: list[ClassifiedColumns], continued: list[bool]
) -> ClassifiedColumns:
    """Reassemble whole-trace classified columns from chunk fragments.

    ``fragments`` are per-chunk outputs in stream order; ``continued``
    flags each fragment whose first warp continues the previous
    fragment's last warp.  Per-event and flat per-source arrays simply
    concatenate; offset/row-index tables are rebased.  The differential
    suite uses this to compare a chunked run against the whole-trace
    engines array-for-array.
    """
    if not fragments:
        raise ValueError("concat_classified_columns needs >= 1 fragment")
    per_event = (
        "opcode_ids", "category_codes", "masks", "active_lanes",
        "divergent", "blocks", "dst", "scalar_class_ids", "lo_half_exec",
        "hi_half_exec", "has_dst_enc", "needs_move", "dst_enc",
        "dst_enc_lo", "dst_enc_hi", "dst_is_scalar", "before_enc",
        "before_enc_lo", "before_enc_hi",
    )
    per_source = (
        "src_registers", "src_enc", "src_enc_lo", "src_enc_hi",
        "src_divergent", "src_scalar_for_read",
    )
    merged = {
        name: np.concatenate([getattr(f, name) for f in fragments])
        for name in per_event + per_source
    }
    warp_size = fragments[0].warp_size
    address_rows = [
        f.addresses for f in fragments if f.addresses.shape[0]
    ]
    return ClassifiedColumns(
        warp_size=warp_size,
        warp_lengths=_merge_warp_lengths(
            [f.warp_lengths for f in fragments], continued
        ),
        src_offsets=_concat_offsets([f.src_offsets for f in fragments]),
        addr_index=_concat_row_indexes(
            [f.addr_index for f in fragments],
            [int(f.addresses.shape[0]) for f in fragments],
        ),
        addresses=(
            np.concatenate(address_rows)
            if address_rows
            else np.empty((0, warp_size), dtype=np.uint32)
        ),
        **merged,
    )


def concat_processed_columns(
    fragments: list[ProcessedColumns], continued: list[bool]
) -> ProcessedColumns:
    """Reassemble whole-trace processed columns from chunk fragments
    (same contract as :func:`concat_classified_columns`)."""
    if not fragments:
        raise ValueError("concat_processed_columns needs >= 1 fragment")
    per_event = (
        "opcode_ids", "category_codes", "active_lanes", "scalar_executed",
        "lo_half_scalar", "hi_half_scalar", "exec_lanes",
        "extra_instructions", "compressor_ops", "decompressor_ops",
    )
    per_access = (
        "acc_kind_ids", "acc_registers", "acc_enc", "acc_enc_lo",
        "acc_enc_hi", "acc_half", "acc_masks", "acc_sidecar",
    )
    merged = {
        name: np.concatenate([getattr(f, name) for f in fragments])
        for name in per_event + per_access
    }
    return ProcessedColumns(
        warp_size=fragments[0].warp_size,
        warp_lengths=_merge_warp_lengths(
            [f.warp_lengths for f in fragments], continued
        ),
        acc_offsets=_concat_offsets([f.acc_offsets for f in fragments]),
        **merged,
    )


def workload_case(abbr: str) -> dict:
    """Tiny-scale trace plus the whole-trace reference per architecture."""
    if abbr not in _CASE_CACHE:
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        columnar = trace.to_columnar()
        config = GpuConfig()
        warps_per_cta = built.launch.warps_per_cta(trace.warp_size)
        widths = analyze_widths(built.kernel, warp_size=trace.warp_size).register_enc
        static_widths = {
            arch.name: (widths if arch.static_compression else None)
            for arch in ARCHES
        }
        _, classified = classify_columnar_batch(columnar, built.kernel.num_registers)
        ccols = ClassifiedColumns.from_classified(
            classified, trace.warp_size, columnar=columnar
        )
        reference = {}
        for arch in ARCHES:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths[arch.name]
            )
            timing = simulate_architecture_columns(
                ccols,
                pcols,
                arch,
                config,
                warps_per_cta=warps_per_cta,
                sm_engine="event",
            )
            power = PowerAccountant(arch, config=config).account_columns(
                pcols, timing
            )
            reference[arch.name] = (pcols, timing, power)
        _CASE_CACHE[abbr] = {
            "built": built,
            "columnar": columnar,
            "config": config,
            "warps_per_cta": warps_per_cta,
            "static_widths": static_widths,
            "ccols": ccols,
            "reference": reference,
        }
    return _CASE_CACHE[abbr]


def assert_classified_identical(expected: ClassifiedColumns, actual: ClassifiedColumns):
    assert actual.warp_size == expected.warp_size
    want, got = expected.as_arrays(), actual.as_arrays()
    assert sorted(want) == sorted(got)
    for name, array in want.items():
        assert np.array_equal(array, got[name]), f"classified column {name} differs"


def stream_case(case: dict, chunk_events: int):
    """Run the chunked pipeline collecting every per-chunk fragment."""
    ccols_fragments: list[ClassifiedColumns] = []
    continued: list[bool] = []
    pcols_fragments: dict[str, list] = {arch.name: [] for arch in ARCHES}

    def on_classified(chunk, ccols):
        ccols_fragments.append(ccols)
        continued.append(chunk.first_warp_continued)

    def on_processed(chunk, arch, pcols):
        pcols_fragments[arch.name].append(pcols)

    outcome = stream_pipeline(
        iter_chunks(case["columnar"], chunk_events),
        ARCHES,
        case["built"].kernel.num_registers,
        config=case["config"],
        static_widths=case["static_widths"],
        warps_per_cta=case["warps_per_cta"],
        sm_engine="event",
        on_classified=on_classified,
        on_processed=on_processed,
    )
    return outcome, ccols_fragments, continued, pcols_fragments


def assert_stream_matches_whole(case: dict, chunk_events: int):
    outcome, ccols_fragments, continued, pcols_fragments = stream_case(
        case, chunk_events
    )
    assert outcome.num_events == case["columnar"].num_events
    assert_classified_identical(
        case["ccols"], concat_classified_columns(ccols_fragments, continued)
    )
    for arch in ARCHES:
        pcols, timing, power = case["reference"][arch.name]
        assert processed_columns_equal(
            pcols, concat_processed_columns(pcols_fragments[arch.name], continued)
        ), f"processed columns differ on {arch.name}"
        assert outcome.timing[arch.name] == timing, f"timing differs on {arch.name}"
        assert outcome.power[arch.name] == power, f"power differs on {arch.name}"
    return outcome


class TestWorkloadMatrix:
    """All 17 workloads x all 5 architectures, warp-splitting chunk size."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_chunked_identical(self, abbr):
        case = workload_case(abbr)
        # A prime chunk size guarantees warps get split mid-stream.
        assert_stream_matches_whole(case, 7)


class TestChunkEdgeCases:
    def test_chunk_size_one(self):
        case = workload_case("HS")
        outcome = assert_stream_matches_whole(case, 1)
        assert outcome.num_chunks == case["columnar"].num_events

    def test_chunk_covers_whole_trace(self):
        case = workload_case("HS")
        outcome = assert_stream_matches_whole(
            case, case["columnar"].num_events + 100
        )
        assert outcome.num_chunks == 1

    def test_chunk_exactly_trace_length(self):
        case = workload_case("BT")
        outcome = assert_stream_matches_whole(case, case["columnar"].num_events)
        assert outcome.num_chunks == 1

    def test_empty_trace(self):
        case = workload_case("HS")
        empty = case["columnar"].slice_events(0, 0)
        assert empty.num_events == 0
        chunks = list(iter_chunks(empty, 8))
        assert len(chunks) == 1  # one empty chunk, not zero chunks
        assert chunks[0].num_events == 0
        assert not chunks[0].first_warp_continued
        assert not chunks[0].last_warp_continues

        pipeline = StreamingPipeline(
            ARCHES,
            case["built"].kernel.num_registers,
            config=case["config"],
            static_widths=case["static_widths"],
        )
        for chunk in chunks:
            pipeline.feed(chunk)
        outcome = pipeline.finish(sm_engine="event")
        assert outcome.num_events == 0
        for arch in ARCHES:
            assert outcome.timing[arch.name].cycles == 0
            assert outcome.power[arch.name].instructions == 0

    def test_feed_after_finish_rejected(self):
        case = workload_case("HS")
        pipeline = StreamingPipeline(
            ARCHES[:1],
            case["built"].kernel.num_registers,
            config=case["config"],
        )
        chunks = list(iter_chunks(case["columnar"], 64))
        pipeline.feed(chunks[0])
        pipeline.finish(sm_engine="event")
        with pytest.raises(RuntimeError):
            pipeline.feed(chunks[0])

    def test_aggregates_only_mode_refuses_finish(self):
        case = workload_case("HS")
        pipeline = StreamingPipeline(
            ARCHES[:1],
            case["built"].kernel.num_registers,
            config=case["config"],
            collect_timing_ops=False,
        )
        for chunk in iter_chunks(case["columnar"], 64):
            pipeline.feed(chunk)
        assert pipeline.peak_bytes_in_flight > 0
        with pytest.raises(RuntimeError):
            pipeline.finish()


class TestRandomChunkGrids:
    """Any chunk size reproduces all four output types exactly."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_chunk_size_bit_identical(self, data):
        case = workload_case("HS")
        num_events = case["columnar"].num_events
        chunk_events = data.draw(
            st.integers(min_value=1, max_value=num_events + 3)
        )
        assert_stream_matches_whole(case, chunk_events)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_chunk_size_divergent_workload(self, data):
        case = workload_case("BP")
        num_events = case["columnar"].num_events
        chunk_events = data.draw(
            st.integers(min_value=1, max_value=num_events + 3)
        )
        assert_stream_matches_whole(case, chunk_events)
