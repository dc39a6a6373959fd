"""Time one interpreter start plus the benchmark's imports of the program.

Run by ``run.py`` as a child process, several times per run, for the
import share of ``setup_s``.  Prints one JSON line with the raw and the
calibrated CPU seconds.
"""

import time

STARTUP_S = time.process_time()  # CPU spent starting the interpreter

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calib  # noqa: E402


def main() -> None:
    # An import cannot be repeated in-process, so no retiming here.
    timed = calib.Meter(max_retries=0).time(lambda: importlib.import_module("suite"))
    raw = STARTUP_S + timed.raw_s
    print(json.dumps({"raw_s": raw, "calibrated_s": raw * timed.factor}))


if __name__ == "__main__":
    main()
