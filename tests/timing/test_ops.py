"""Unit tests for trace-to-timing-op lowering."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa import KernelBuilder
from repro.isa.opcodes import OpCategory
from repro.scalar.architectures import process_trace
from repro.simt import MemoryImage
from repro.timing.ops import (
    SCALAR_RF_BANK,
    build_timing_ops,
    coalesce_addresses,
    coalesce_rows,
)

from tests.conftest import run_one_warp

CONFIG = GpuConfig()


def ops_for(kernel_builder_fn, arch):
    kernel = kernel_builder_fn()
    trace = run_one_warp(kernel, MemoryImage())
    processed = process_trace(trace, arch, kernel.num_registers)
    return build_timing_ops(processed[0], arch, CONFIG, 32)


def sfu_kernel():
    b = KernelBuilder("sfu")
    x = b.i2f(b.tid())
    b.sin(x)
    return b.finish()


def scalar_sfu_kernel():
    b = KernelBuilder("scalar_sfu")
    x = b.i2f(b.mov(3))
    b.sin(x)
    return b.finish()


class TestCoalescing:
    def test_unit_stride_coalesces_to_one_segment(self):
        addrs = (0x1000 + 4 * np.arange(32)).astype(np.uint32)
        assert len(coalesce_addresses(addrs, 0xFFFFFFFF, 32)) == 1

    def test_strided_access_spreads(self):
        addrs = (0x1000 + 128 * np.arange(32)).astype(np.uint32)
        assert len(coalesce_addresses(addrs, 0xFFFFFFFF, 32)) == 32

    def test_mask_restricts_lanes(self):
        addrs = (0x1000 + 128 * np.arange(32)).astype(np.uint32)
        assert len(coalesce_addresses(addrs, 0xF, 32)) == 4

    def test_empty_mask(self):
        addrs = np.zeros(32, dtype=np.uint32)
        assert coalesce_addresses(addrs, 0, 32) == ()


@st.composite
def access_rows(draw):
    """A batch of (addresses, mask) accesses at warp 32 or 64.

    Addresses come from a few segments so duplicates are common; masks
    lean on the edge cases: none, all lanes and the top lane alone.
    """
    warp_size = draw(st.sampled_from([32, 64]))
    full = (1 << warp_size) - 1
    count = draw(st.integers(min_value=0, max_value=6))
    mask = st.one_of(
        st.sampled_from([0, full, 1 << (warp_size - 1)]),
        st.integers(min_value=0, max_value=full),
    )
    masks = draw(st.lists(mask, min_size=count, max_size=count))
    lane = st.integers(min_value=0, max_value=6).map(lambda s: 0x4000 + 128 * s)
    offset = st.integers(min_value=0, max_value=127)
    rows = draw(
        st.lists(
            st.lists(
                st.tuples(lane, offset).map(sum),
                min_size=warp_size,
                max_size=warp_size,
            ),
            min_size=count,
            max_size=count,
        )
    )
    addresses = np.array(rows, dtype=np.uint32).reshape(count, warp_size)
    return addresses, masks, warp_size


class TestVectorisedCoalescing:
    """``coalesce_rows`` is ``coalesce_addresses`` over a whole batch."""

    @settings(max_examples=200, deadline=None)
    @given(batch=access_rows())
    def test_equals_per_access_reference(self, batch):
        addresses, masks, warp_size = batch
        counts, segments = coalesce_rows(
            addresses, np.array(masks, dtype=np.uint64)
        )
        expected = [
            coalesce_addresses(row, mask, warp_size)
            for row, mask in zip(addresses, masks)
        ]
        assert counts.tolist() == [len(segs) for segs in expected]
        assert segments.tolist() == [s for segs in expected for s in segs]

    def test_top_lane_of_a_64_wide_warp(self):
        addresses = np.zeros((1, 64), dtype=np.uint32)
        addresses[0, 63] = 0x8000
        counts, segments = coalesce_rows(addresses, np.array([1 << 63], dtype=np.uint64))
        assert counts.tolist() == [1]
        assert segments.tolist() == [0x8000 // 128]


class TestDispatchCycles:
    def test_sfu_full_warp_takes_eight_cycles(self):
        ops = ops_for(sfu_kernel, ArchitectureConfig.baseline())
        sfu_ops = [o for o in ops if o.category is OpCategory.SFU]
        assert sfu_ops[0].dispatch_cycles == 8

    def test_alu_full_warp_takes_two_cycles(self):
        ops = ops_for(sfu_kernel, ArchitectureConfig.baseline())
        alu_ops = [o for o in ops if o.category is OpCategory.ALU]
        assert all(o.dispatch_cycles == 2 for o in alu_ops)

    def test_paper_config_keeps_scalar_dispatch_width(self):
        ops = ops_for(scalar_sfu_kernel, ArchitectureConfig.gscalar())
        sfu_ops = [o for o in ops if o.category is OpCategory.SFU]
        assert sfu_ops[0].dispatch_cycles == 8

    def test_fast_dispatch_ablation_shortens_scalar_sfu(self):
        arch = ArchitectureConfig.gscalar().replace(scalar_fast_dispatch=True)
        ops = ops_for(scalar_sfu_kernel, arch)
        sfu_ops = [o for o in ops if o.category is OpCategory.SFU]
        assert sfu_ops[0].dispatch_cycles == 1


class TestBankAssignment:
    def test_scalar_rf_reads_use_pseudo_bank(self):
        def chain():
            b = KernelBuilder("chain")
            c = b.mov(5)
            d = b.iadd(c, 1)
            b.iadd(d, c)
            return b.finish()

        ops = ops_for(chain, ArchitectureConfig.alu_scalar())
        banks = [bank for o in ops for bank in o.src_banks]
        assert SCALAR_RF_BANK in banks

    def test_vector_banks_modulo_16(self):
        ops = ops_for(sfu_kernel, ArchitectureConfig.baseline())
        for op in ops:
            for reg, bank in zip(op.src_regs, op.src_banks):
                assert bank == reg % CONFIG.register_file_banks


class TestInsertedOps:
    def test_decompress_move_becomes_inserted_op(self):
        def kernel():
            b = KernelBuilder("move")
            tid = b.tid()
            value = b.mov(3)
            cond = b.seteq(b.and_(tid, 1), 0)
            with b.if_(cond):
                value = b.mov(9, dst=value)
            return b.finish()

        ops = ops_for(kernel, ArchitectureConfig.gscalar())
        inserted = [o for o in ops if o.inserted]
        assert len(inserted) == 1
        assert inserted[0].category is OpCategory.ALU
