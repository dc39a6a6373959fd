"""End-to-end benchmark of the G-Scalar reproduction's simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-matrix --seed 1 --seconds 25 --trace 0

Runs one workload (``cold-matrix``, ``warm-sweep`` or ``large-stream``) in
this process, checks every simulated result against the recorded
canonical values, and prints ``key: value`` result lines followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``events_per_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` a traced run reports
per-layer self times and counts and writes a Chrome trace under
``perfbench/out/``.  Host times are calibrated against an interleaved
reference loop (see ``calib.py``).  See ``perfbench/README.md``.

Exit codes: 0 success, 2 usage error, 111 set-up failed (no result line),
112 a check failed (result line printed with ``"correct": false``).
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one thread keeps CPU time
# equal to the work done and the host-speed calibration meaningful.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import canon  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

EXIT_SETUP_FAIL = 111
EXIT_CHECK_FAIL = 112

#: Set-ups per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("cold-matrix", "warm-sweep", "large-stream")

#: Layer span names and the per-layer self-time metric each feeds.
LAYER_TIMES = {
    "execute": "execute.self_s",
    "classify": "classify.self_s",
    "columns": "columns.self_s",
    "interpret": "interpret.self_s",
    "widths": "widths.self_s",
    "lower": "lower.self_s",
    "sm_sim": "sm_sim.self_s",
    "power": "power.self_s",
    "store.load": "store.load_s",
    "store.store": "store.store_s",
    "stream": "stream.self_s",
    "synth": "synth.self_s",
    "runner": "runner.self_s",
}


def log(key: str, value) -> None:
    print(f"{key}: {value}", flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def check(self, piece, outcome) -> None:
        self.attempted += max(piece.ops, len(outcome.values))
        if len(outcome.values) < piece.ops:
            self.failed += piece.ops - len(outcome.values)
            print(f"fail: {piece.key} returned {len(outcome.values)} of {piece.ops} ops", file=sys.stderr)
        for op, values in sorted(outcome.values.items()):
            differing = self.workload.check(op, values)
            if differing:
                self.failed += 1
                print(f"fail: {op}: {', '.join(differing)}", file=sys.stderr)

    def raised(self, piece) -> None:
        self.attempted += piece.ops
        self.failed += piece.ops
        print(f"fail: {piece.key} raised", file=sys.stderr)
        traceback.print_exc()


def run_piece(meter, tally, piece, tracer=None):
    """Time one piece and check its operations; ``None`` if it raised."""
    try:
        timed = meter.time(piece.run, piece.prepare, tracer=tracer)
        outcome = piece.collect(timed.result)
    except Exception:  # an operation that raises is a failed operation
        tally.raised(piece)
        return None, None
    timed.result = None  # drop the runner / pipeline before the next piece
    tally.check(piece, outcome)
    return timed, outcome


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds() -> list[float]:
    """Calibrated CPU seconds of interpreter start + imports, per child."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "import_probe.py")],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds.append(json.loads(done.stdout.strip().splitlines()[-1])["calibrated_s"])
    return seconds


def timed_run(args, workload, meter, tally) -> dict:
    """Repeat passes over the workload's pieces for ``--seconds``."""
    rng = random.Random(args.seed)
    passes = pieces = events = 0
    raw_s = calibrated_s = 0.0
    started = time.perf_counter()
    while True:
        for piece in workload.pieces(rng):
            timed, outcome = run_piece(meter, tally, piece)
            if timed is not None:
                pieces += 1
                events += outcome.events
                raw_s += timed.raw_s
                calibrated_s += timed.calibrated_s
        passes += 1
        elapsed = time.perf_counter() - started
        # Stop at the pass boundary nearest to the requested duration.
        if elapsed + 0.5 * elapsed / passes >= args.seconds:
            break
    return {
        "passes": passes,
        "pieces": pieces,
        "raw_host_s": raw_s,
        "events_per_s": events / calibrated_s if calibrated_s else 0.0,
        "events_per_s_raw": events / raw_s if raw_s else 0.0,
    }


def traced_run(args, workload, meter, tally, untraced_setup_s: float) -> dict:
    """One untraced pass, then set-up plus one pass under the tracer."""
    rng = random.Random(args.seed)
    untraced_raw = 0.0
    untraced_s = untraced_setup_s
    for piece in workload.pieces(rng):
        timed, _ = run_piece(meter, tally, piece)
        if timed is not None:
            untraced_raw += timed.raw_s
            untraced_s += timed.calibrated_s

    tracer = Tracer()
    counters = defaultdict(int)
    tracer.install()
    workload.tracer = tracer
    try:
        traced_s = meter.time(workload.setup, tracer=tracer).calibrated_s
        for piece in workload.pieces(random.Random(args.seed)):
            timed, outcome = run_piece(meter, tally, piece, tracer=tracer)
            if timed is not None:
                traced_s += timed.calibrated_s
                for name, value in outcome.counters.items():
                    counters[name] += value
    finally:
        workload.tracer = None
        tracer.uninstall()

    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(trace_path)
    log("trace_file", os.path.relpath(trace_path))

    selfs = tracer.self_seconds()
    metrics = {}
    for layer, name in LAYER_TIMES.items():
        if layer != "runner" and layer not in tracer.installed_layers:
            print(f"warning: layer {layer} absent: no entry point found", file=sys.stderr)
        metrics[name] = (selfs.get(layer, 0.0), "s")
    count = tracer.counts

    def rate(amount: float, layer: str) -> float:
        seconds = selfs.get(layer, 0.0)
        return amount / seconds if seconds > 0 else 0.0

    hits = sum(v for k, v in counters.items() if k.endswith("_cache_hits"))
    misses = sum(v for k, v in counters.items() if k.endswith("_cache_misses"))
    metrics.update(
        {
            "execute.events": (count["execute.events"], "count"),
            "execute.events_per_s": (rate(count["execute.events"], "execute"), "events/s"),
            "classify.events_per_s": (rate(count["classify.events"], "classify"), "events/s"),
            "interpret.calls": (count["interpret.calls"], "count"),
            "lower.ops": (count["lower.ops"], "count"),
            "sm_sim.sim_cycles": (count["sm_sim.sim_cycles"], "count"),
            "sm_sim.issued": (count["sm_sim.issued"], "count"),
            "sm_sim.cycles_per_s": (rate(count["sm_sim.sim_cycles"], "sm_sim"), "cycles/s"),
            "store.hits": (hits, "count"),
            "store.misses": (misses, "count"),
            "store.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "store.bytes_mapped": (counters["bytes_mapped"], "bytes"),
            "store.bytes_written": (count["store.bytes_written"], "bytes"),
            "stream.chunks": (count["stream.chunks"], "count"),
            "stream.peak_bytes_in_flight": (count["stream.peak_bytes_in_flight"], "bytes"),
            "bench.raw_host_s": (untraced_raw, "s"),
            "bench.calib_s": (statistics.median(meter.sample_s), "s"),
            "bench.traced_host_s": (traced_s, "s"),
            "bench.trace_overhead_s": (traced_s - untraced_s, "s"),
            "bench.retries": (meter.retries, "count"),
        }
    )
    for cause in canon.STALL_CAUSES:
        metrics[f"sm_sim.stall.{cause}"] = (count[f"sm_sim.stall.{cause}"], "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    # The benchmark's own footprint (interpreter, numpy, the calibration
    # table), measured before the program loads; peak_rss_mb excludes it.
    bench_rss_mb = peak_rss_mb()
    try:
        import suite  # imports the program

        meter = calib.Meter()
        workload = suite.WORKLOADS[args.workload](scratch, args.seed, canon.load())
        scratch.mkdir(parents=True, exist_ok=True)
        imports = import_seconds()
        setups = [meter.time(workload.setup) for _ in range(SETUP_REPEATS)]
    except Exception:  # set-up boundary: report and exit without a result
        traceback.print_exc()
        print("check: setup-fail", file=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)
        return EXIT_SETUP_FAIL

    tally = Tally(workload)
    try:
        setup_s = statistics.median(imports) + statistics.median(t.calibrated_s for t in setups)
        if args.trace:
            metrics = traced_run(args, workload, meter, tally, setups[-1].calibrated_s)
        else:
            measured = timed_run(args, workload, meter, tally)
            log("passes", measured["passes"])
            log("pieces", measured["pieces"])
            log("bench.raw_host_s", f"{measured['raw_host_s']:.6f}")
            log("events_per_s.raw", f"{measured['events_per_s_raw']:.3f}")
            log("setup_s.raw", f"{statistics.median(t.raw_s for t in setups):.6f}")
            log("bench.calib_s", f"{statistics.median(meter.sample_s):.9f}")
            log("bench.rss_mb", f"{bench_rss_mb:.3f}")
            metrics = {
                "events_per_s": (measured["events_per_s"], "events/s"),
                "peak_rss_mb": (peak_rss_mb() - bench_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = tally.failed == 0 and tally.attempted > 0
    log("workload", args.workload)
    log("seed", args.seed)
    log("retries", meter.retries)
    log("ops", tally.attempted)
    log("failed_ops", tally.failed)
    log("check", "pass" if correct else "fail")
    log("model", "unvalidated against hardware; see `repro scorecard` for agreement with the paper")
    for name, (value, unit) in metrics.items():
        log(name, f"{value} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else EXIT_CHECK_FAIL


if __name__ == "__main__":
    sys.exit(main())
