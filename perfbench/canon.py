"""Canonical per-operation values and the checks against them.

An *operation* is one (benchmark, architecture[, sweep point]) result.
The simulator is deterministic, so every operation's simulated
statistics are recorded once (``canonical.json``, written by
``record_canonical.py``) and each run compares what it computed against
them.  These values check that a faster program still computes the same
thing; they say nothing about agreement with hardware (the model is
unvalidated against hardware; its agreement with the paper is reported
by ``repro scorecard``).
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

CANONICAL_PATH = Path(__file__).with_name("canonical.json")

#: Relative tolerance for float values (energies, IPC/W).  Integers
#: (cycles, issued, stalls, counts) must match exactly.
FLOAT_RTOL = 1e-9

STALL_CAUSES = (
    "scoreboard",
    "branch_shadow",
    "barrier",
    "stream_exhausted",
    "collectors_full",
    "bank_conflict",
)


def energy_values(breakdown) -> dict[str, float]:
    """Per-component dynamic energy of an ``EnergyBreakdown`` (pJ)."""
    return {spec.name: float(getattr(breakdown, spec.name)) for spec in fields(breakdown)}


def result_values(timing, power) -> dict:
    """Canonical values of one simulated (benchmark, architecture) pair."""
    values = {
        "cycles": int(timing.cycles),
        "issued": int(timing.instructions),
        "ipc_per_watt": float(power.ipc_per_watt),
    }
    for cause in STALL_CAUSES:
        values[f"stall.{cause}"] = int(getattr(timing.stalls, cause))
    for name, value in energy_values(power.breakdown).items():
        values[f"energy.{name}"] = value
    return values


def _equal(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    return expected == actual


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Names whose values differ (missing or extra names included)."""
    names = sorted(set(expected) | set(actual))
    return [
        name
        for name in names
        if name not in expected
        or name not in actual
        or not _equal(expected[name], actual[name])
    ]


def load() -> dict:
    with open(CANONICAL_PATH) as handle:
        return json.load(handle)
