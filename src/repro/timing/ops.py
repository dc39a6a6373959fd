"""Timing-level operations derived from processed trace events.

The SM timing models do not care about operand *values* — only about
categories, register numbers (for banks and the scoreboard), dispatch
occupancy and memory coalescing.  Lowering inserts the extra
decompress-move / scalar-RF-spill instructions the architecture view
requested (before their triggering instruction) and applies the
scalar-execution dispatch savings (a scalar SFU instruction dispatches
in 1 cycle instead of 8 — §6).  It comes in two forms:

* :func:`build_timing_ops_columns` — the default, columnar path — lowers
  a whole (classified, processed) column pair straight to the event
  engine's *rows*: one plain tuple per instruction in the
  :data:`ROW_FIELDS` layout, with the pipeline port and the resolved
  write-back latency already filled in.  Every per-instruction fact,
  memory coalescing included, is computed as a whole-trace array
  operation; only the final tuple assembly is Python.
* :func:`build_timing_ops` lowers one warp's
  :class:`~repro.scalar.architectures.ProcessedEvent` stream into
  :class:`TimingOp` records.  ``TimingOp`` is the event-path reference
  form (``--arch-engine=event``) and what the cycle-level
  :class:`~repro.timing.sm.SmSimulator` reads; :func:`compile_ops` and
  :func:`rows_to_ops` convert between the two forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa.opcodes import LONG_LATENCY_ALU, OpCategory, Opcode, is_store
from repro.scalar.architectures import ProcessedEvent
from repro.simt.grid import int_to_mask

#: Pseudo bank id for the prior-work single-bank scalar register file.
SCALAR_RF_BANK = -1


@dataclass(frozen=True)
class TimingOp:
    """One instruction as the timing model sees it (reference form).

    ``src_regs`` feeds the scoreboard; ``src_banks`` (same order, plus
    possibly :data:`SCALAR_RF_BANK`) feeds operand-collector bank
    arbitration.
    """

    category: OpCategory
    dst: int | None
    src_regs: tuple[int, ...]
    src_banks: tuple[int, ...]
    dispatch_cycles: int
    long_latency: bool
    is_store: bool
    mem_segments: tuple[int, ...] = field(default_factory=tuple)
    is_shared_mem: bool = False
    #: True for decompress-moves / scalar-RF spills the architecture
    #: inserted; they consume cycles and energy but are not counted as
    #: useful work when computing IPC.
    inserted: bool = False
    #: True for ``bar.sync``: the warp stalls at issue until every
    #: unfinished warp of its CTA arrives.
    is_barrier: bool = False


def _bank_of(register: int, config: GpuConfig) -> int:
    return register % config.register_file_banks


def coalesce_addresses(
    addresses: np.ndarray, active_mask: int, warp_size: int, segment_bytes: int = 128
) -> tuple[int, ...]:
    """Unique memory segments touched by the active lanes of one access."""
    mask = int_to_mask(active_mask, warp_size)
    active = addresses[mask]
    if active.size == 0:
        return ()
    segments = np.unique(active // segment_bytes)
    return tuple(int(s) for s in segments)


def _dispatch_cycles(
    item: ProcessedEvent, arch: ArchitectureConfig, config: GpuConfig
) -> int:
    """Cycles an instruction occupies its pipeline's dispatch port.

    With ``arch.scalar_fast_dispatch`` a scalar-executed instruction
    needs a single dispatch cycle (§6's "as low as only one cycle");
    the paper's evaluated configurations keep the normal occupancy and
    take only the energy benefit of clock-gated lanes.
    """
    category = item.classified.category
    if category is OpCategory.CTRL:
        return 1
    if arch.scalar_fast_dispatch:
        if item.scalar_executed:
            return 1
        if item.lo_half_scalar and item.hi_half_scalar:
            return 1  # two scalar halves co-issue on one SIMT pass
    if category is OpCategory.SFU:
        return config.sfu_dispatch_cycles
    return config.alu_dispatch_cycles


def build_timing_ops(
    warp_events: list[ProcessedEvent],
    arch: ArchitectureConfig,
    config: GpuConfig,
    warp_size: int,
) -> list[TimingOp]:
    """Lower one warp's processed events to timing ops, in order."""
    ops: list[TimingOp] = []
    for item in warp_events:
        event = item.classified.event
        category = event.category

        # Extra inserted instructions (decompress moves / scalar-RF
        # spills) execute as full-width ALU-pipe moves *before* the
        # triggering instruction.
        for _ in range(item.extra_instructions):
            move_regs = (event.dst,) if event.dst is not None else ()
            ops.append(
                TimingOp(
                    category=OpCategory.ALU,
                    dst=event.dst,
                    src_regs=move_regs,
                    src_banks=tuple(_bank_of(r, config) for r in move_regs),
                    dispatch_cycles=config.alu_dispatch_cycles,
                    long_latency=False,
                    is_store=False,
                    inserted=True,
                )
            )

        if event.opcode is Opcode.BAR:
            ops.append(
                TimingOp(
                    category=OpCategory.CTRL,
                    dst=None,
                    src_regs=(),
                    src_banks=(),
                    dispatch_cycles=1,
                    long_latency=False,
                    is_store=False,
                    is_barrier=True,
                )
            )
            continue

        src_regs = []
        src_banks = []
        for access in item.rf_accesses:
            if access.is_write:
                continue
            src_regs.append(access.register)
            if access.kind.value == "scalar_rf_read":
                src_banks.append(SCALAR_RF_BANK)
            else:
                src_banks.append(_bank_of(access.register, config))

        segments: tuple[int, ...] = ()
        shared = False
        if category is OpCategory.MEM and event.addresses is not None:
            shared = event.opcode.value.endswith(".shared")
            if item.scalar_executed:
                # All lanes hit one address; a single segment suffices.
                first = int(event.addresses[0]) // 128
                segments = (first,)
            else:
                segments = coalesce_addresses(
                    event.addresses, event.active_mask, warp_size
                )

        dispatch = _dispatch_cycles(item, arch, config)
        if category is OpCategory.MEM and not shared:
            dispatch = max(dispatch, len(segments))

        ops.append(
            TimingOp(
                category=category,
                dst=event.dst,
                src_regs=tuple(src_regs),
                src_banks=tuple(src_banks),
                dispatch_cycles=dispatch,
                long_latency=event.opcode in LONG_LATENCY_ALU,
                is_store=is_store(event.opcode),
                mem_segments=segments,
                is_shared_mem=shared,
            )
        )
    return ops


# ----------------------------------------------------------------------
# Engine rows.
# ----------------------------------------------------------------------
#: Row layout: one tuple per instruction, read by the event engine's hot
#: loop (plain tuples index faster than dataclass attributes).  ``delta``
#: is dispatch + write-back latency + the architecture's extra pipeline
#: latency, or -1 for MEM, whose latency comes from the memory model at
#: dispatch.
ROW_FIELDS = (
    "dst",
    "src_regs",
    "src_banks",
    "dispatch_cycles",
    "port",
    "delta",
    "is_ctrl",
    "is_barrier",
    "inserted",
    "mem_segments",
    "is_shared_mem",
    "is_store",
    "long_latency",
)
(
    ROW_DST,
    ROW_SRC_REGS,
    ROW_SRC_BANKS,
    ROW_DISPATCH,
    ROW_PORT,
    ROW_DELTA,
    ROW_IS_CTRL,
    ROW_IS_BARRIER,
    ROW_INSERTED,
    ROW_MEM_SEGMENTS,
    ROW_IS_SHARED,
    ROW_IS_STORE,
    ROW_LONG_LATENCY,
) = range(len(ROW_FIELDS))

#: Pipeline-port groups (CTRL ops dispatch on the ALU port).
PORT_ALU = 0
PORT_MEM = 1
PORT_SFU = 2
#: Category of each port's ops, CTRL aside (flagged by ``is_ctrl``).
PORT_CATEGORIES = (OpCategory.ALU, OpCategory.MEM, OpCategory.SFU)


def compile_ops(
    warp_ops: list[list[TimingOp]], config: GpuConfig, extra_latency: int = 0
) -> list[list[tuple]]:
    """Per-warp :class:`TimingOp` lists to engine rows.

    The adapter for op streams built in reference form (the event-path
    lowering and hand-built test streams); :func:`rows_to_ops` inverts
    it exactly.
    """
    compiled: list[list[tuple]] = []
    for ops in warp_ops:
        rows = []
        for op in ops:
            category = op.category
            if category is OpCategory.MEM:
                port = PORT_MEM
                delta = -1  # latency comes from the memory model
            elif category is OpCategory.SFU:
                port = PORT_SFU
                delta = op.dispatch_cycles + config.sfu_latency + extra_latency
            else:
                port = PORT_ALU
                if category is OpCategory.CTRL:
                    latency = config.ctrl_latency
                elif op.long_latency:
                    latency = config.long_alu_latency
                else:
                    latency = config.alu_latency
                delta = op.dispatch_cycles + latency + extra_latency
            rows.append(
                (
                    op.dst,
                    op.src_regs,
                    op.src_banks,
                    op.dispatch_cycles,
                    port,
                    delta,
                    category is OpCategory.CTRL,
                    op.is_barrier,
                    op.inserted,
                    op.mem_segments,
                    op.is_shared_mem,
                    op.is_store,
                    op.long_latency,
                )
            )
        compiled.append(rows)
    return compiled


def rows_to_ops(warp_rows: list[list[tuple]]) -> list[list[TimingOp]]:
    """Per-warp engine rows back to :class:`TimingOp` lists (the inverse
    of :func:`compile_ops`, for the cycle-level reference engine)."""
    return [
        [
            TimingOp(
                category=(
                    OpCategory.CTRL if row[ROW_IS_CTRL] else PORT_CATEGORIES[row[ROW_PORT]]
                ),
                dst=row[ROW_DST],
                src_regs=row[ROW_SRC_REGS],
                src_banks=row[ROW_SRC_BANKS],
                dispatch_cycles=row[ROW_DISPATCH],
                long_latency=row[ROW_LONG_LATENCY],
                is_store=row[ROW_IS_STORE],
                mem_segments=row[ROW_MEM_SEGMENTS],
                is_shared_mem=row[ROW_IS_SHARED],
                inserted=row[ROW_INSERTED],
                is_barrier=row[ROW_IS_BARRIER],
            )
            for row in rows
        ]
        for rows in warp_rows
    ]


# ----------------------------------------------------------------------
# Columnar lowering.
# ----------------------------------------------------------------------
@cache
def _opcode_luts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(long-latency, store, shared-mem) flags per opcode id (read-only)."""
    from repro.simt.trace import ID_TO_OPCODE

    size = len(ID_TO_OPCODE)
    long_lat = np.zeros(size, dtype=bool)
    stores = np.zeros(size, dtype=bool)
    shared = np.zeros(size, dtype=bool)
    for opcode_id, opcode in ID_TO_OPCODE.items():
        long_lat[opcode_id] = opcode in LONG_LATENCY_ALU
        stores[opcode_id] = is_store(opcode)
        shared[opcode_id] = opcode.value.endswith(".shared")
    return long_lat, stores, shared


#: Sorts after every real segment; marks a masked-off lane.
_NO_SEGMENT = np.iinfo(np.int64).max


def coalesce_rows(
    addresses: np.ndarray, masks: np.ndarray, segment_bytes: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`coalesce_addresses` over many accesses in one array pass.

    ``addresses`` is ``(n, warp_size)``, ``masks`` the ``n`` active-lane
    bitmasks.  Returns ``(counts, segments)``: access *i*'s unique
    segments, ascending, are the next ``counts[i]`` entries of the flat
    ``segments`` array — the order ``np.unique`` gives, so the memory
    model sees the same access sequence.
    """
    lanes = np.arange(addresses.shape[1], dtype=np.uint64)
    active = (masks.astype(np.uint64)[:, None] >> lanes) & np.uint64(1) == 1
    segments = (addresses // segment_bytes).astype(np.int64)
    segments[~active] = _NO_SEGMENT
    segments.sort(axis=1)
    first = segments != _NO_SEGMENT
    first[:, 1:] &= segments[:, 1:] != segments[:, :-1]
    return first.sum(axis=1), segments[first]


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """``(len(counts) + 1,)`` offsets of consecutive ragged segments."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _ragged_tuples(values: np.ndarray, offsets: np.ndarray) -> list[tuple]:
    """One tuple per segment ``values[offsets[i]:offsets[i + 1]]``.

    Segments are grouped by length, so each group's tuples come from
    one ``zip`` over its columns instead of a slice per segment.
    """
    lengths = np.diff(offsets)
    tuples = np.empty(len(lengths), dtype=object)
    tuples.fill(())
    for length in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == length)
        starts = offsets[rows]
        columns = [values[starts + lane].tolist() for lane in range(length)]
        tuples[rows] = np.fromiter(zip(*columns), dtype=object, count=len(rows))
    return tuples.tolist()


def build_timing_ops_columns(ccols, pcols, arch, config):
    """Lower a columnar processed trace straight to per-warp engine rows.

    The columnar counterpart of :func:`build_timing_ops` followed by
    :func:`compile_ops` (with ``arch.extra_pipeline_cycles``), over a
    (:class:`~repro.scalar.columns.ClassifiedColumns`,
    :class:`~repro.scalar.columns.ProcessedColumns`) pair.  Dispatch
    cycles, ports, latency deltas, read-operand slices, barrier rows,
    inserted moves and the coalescing of every memory access are
    whole-trace array operations; the result is one list of
    :data:`ROW_FIELDS` tuples per warp, equal to the event path's
    compiled streams (the differential suite pins this).
    """
    from repro.scalar.columns import (
        BAR_OPCODE_ID,
        CTRL_CODE,
        MEM_CODE,
        SCALAR_RF_READ_ID,
        SFU_CODE,
        WRITE_KIND_IDS,
    )

    long_lut, store_lut, shared_lut = _opcode_luts()
    extra = arch.extra_pipeline_cycles
    banks = config.register_file_banks
    count = pcols.num_events
    opcode_ids = pcols.opcode_ids
    codes = pcols.category_codes
    is_ctrl = codes == CTRL_CODE
    is_mem = codes == MEM_CODE
    is_sfu = codes == SFU_CODE
    is_bar = opcode_ids == BAR_OPCODE_ID
    dst = ccols.dst.astype(np.int64)

    # Dispatch cycles: ctrl beats fast-dispatch beats pipeline width.
    dispatch = np.where(
        is_sfu, config.sfu_dispatch_cycles, config.alu_dispatch_cycles
    ).astype(np.int64)
    if arch.scalar_fast_dispatch:
        dispatch[pcols.scalar_executed | (pcols.lo_half_scalar & pcols.hi_half_scalar)] = 1
    dispatch[is_ctrl] = 1

    # Coalescing, every addressed memory event at once.  A scalar-executed
    # access keeps its lane-0 segment; a global access occupies its port
    # for at least one cycle per segment.
    addressed = np.flatnonzero(is_mem & (ccols.addr_index >= 0))
    scalar_mem = pcols.scalar_executed[addressed]
    seg_counts, segments = coalesce_rows(
        ccols.addresses[ccols.addr_index[addressed]],
        np.where(scalar_mem, 1, ccols.masks[addressed]),
    )
    shared = np.zeros(count, dtype=bool)
    shared[addressed] = shared_lut[opcode_ids[addressed]]
    is_global = ~shared[addressed]
    dispatch[addressed[is_global]] = np.maximum(
        dispatch[addressed[is_global]], seg_counts[is_global]
    )
    event_segs = np.zeros(count, dtype=np.int64)
    event_segs[addressed] = seg_counts

    # Write-back latency delta (-1: the memory model decides at dispatch).
    long_latency = long_lut[opcode_ids]
    latency = np.where(
        is_ctrl,
        config.ctrl_latency,
        np.where(
            is_sfu,
            config.sfu_latency,
            np.where(long_latency, config.long_alu_latency, config.alu_latency),
        ),
    )
    delta = np.where(is_mem, -1, dispatch + latency + extra)
    port = np.where(is_mem, PORT_MEM, np.where(is_sfu, PORT_SFU, PORT_ALU))

    # Read operands from the flat access table (a barrier reads none).
    acc_event = np.repeat(np.arange(count), np.diff(pcols.acc_offsets))
    write_kind = np.zeros(256, dtype=bool)  # indexed by uint8 kind ids
    write_kind[list(WRITE_KIND_IDS)] = True
    reads = np.flatnonzero(~write_kind[pcols.acc_kind_ids] & ~is_bar[acc_event])
    read_event = acc_event[reads]
    read_regs = pcols.acc_registers[reads].astype(np.int64)
    read_banks = np.where(
        pcols.acc_kind_ids[reads] == SCALAR_RF_READ_ID,
        SCALAR_RF_BANK,
        read_regs % banks,
    )
    event_reads = np.bincount(read_event, minlength=count)

    # Row positions: each event's inserted moves, then the event itself.
    moves = pcols.extra_instructions.astype(np.int64)
    row_offsets = _exclusive_cumsum(moves + 1)
    num_rows = int(row_offsets[-1])
    main = row_offsets[:-1] + moves
    owner = np.repeat(np.arange(count), moves + 1)
    inserted = np.ones(num_rows, dtype=bool)
    inserted[main] = False

    def per_row(event_values, move_value):
        """Event column gathered onto rows, ``move_value`` on moves."""
        return np.where(inserted, move_value, event_values[owner])

    row_dst = dst[owner]
    row_dst[main[is_bar]] = -1
    main_flag = ~inserted
    # A move reads (and rewrites) its event's destination register.
    move_reads = inserted & (row_dst >= 0)
    read_offsets = _exclusive_cumsum(np.where(inserted, move_reads, event_reads[owner]))
    src_regs = np.empty(int(read_offsets[-1]), dtype=np.int64)
    src_banks = np.empty_like(src_regs)
    first_read = _exclusive_cumsum(event_reads)[read_event]
    slots = read_offsets[main[read_event]] + np.arange(len(reads)) - first_read
    src_regs[slots] = read_regs
    src_banks[slots] = read_banks
    move_slots = read_offsets[:-1][move_reads]
    src_regs[move_slots] = row_dst[move_reads]
    src_banks[move_slots] = row_dst[move_reads] % banks

    seg_offsets = _exclusive_cumsum(np.where(inserted, 0, event_segs[owner]))

    # Register -> itself, -1 -> None, via one object-array gather.
    dst_table = np.array([*range(int(row_dst.max(initial=-1)) + 1), None], dtype=object)
    rows = list(
        zip(
            dst_table[row_dst].tolist(),
            _ragged_tuples(src_regs, read_offsets),
            _ragged_tuples(src_banks, read_offsets),
            per_row(dispatch, config.alu_dispatch_cycles).tolist(),
            per_row(port, PORT_ALU).tolist(),
            per_row(delta, config.alu_dispatch_cycles + config.alu_latency + extra).tolist(),
            (main_flag & is_ctrl[owner]).tolist(),
            (main_flag & is_bar[owner]).tolist(),
            inserted.tolist(),
            _ragged_tuples(segments, seg_offsets),
            (main_flag & shared[owner]).tolist(),
            (main_flag & store_lut[opcode_ids][owner]).tolist(),
            (main_flag & long_latency[owner]).tolist(),
        )
    )
    bounds = row_offsets[ccols.warp_bounds()].tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
