"""Record the canonical per-operation values into ``canonical.json``.

Run from the repository root after a change that is *meant* to alter
simulated results (a model fix), never to make a failing check pass::

    python3 perfbench/record_canonical.py

Each workload's pieces run once, untimed, with the default seed.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import canon  # noqa: E402
import suite  # noqa: E402


def record_workload(cls, scratch: Path, seed: int, scale: str | None = None) -> dict:
    """Operation name -> canonical values, from one untimed pass."""
    workload = cls(scratch, seed, {}, scale=scale)
    workload.setup()
    values = {}
    for piece in workload.pieces(random.Random(seed)):
        if piece.prepare is not None:
            piece.prepare()
        values.update(piece.collect(piece.run()).values)
    return dict(sorted(values.items()))


def record() -> dict:
    recorded = {}
    for name, cls in suite.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as scratch:
            recorded[name] = record_workload(cls, Path(scratch), suite.DEFAULT_SEED)
        print(f"{name}: {len(recorded[name])} operations", file=sys.stderr)
    return recorded


if __name__ == "__main__":
    with open(canon.CANONICAL_PATH, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
