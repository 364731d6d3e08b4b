"""The repository benchmark: one workload per run, checked outputs, JSON last.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_serial --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs the same inputs untraced and traced, and prints the
per-layer metrics plus ``trace.overhead`` (traced wall time over untraced
wall time, minus 1).  Every workload prints the same metrics; what each
means on each workload, and the end-to-end metric each per-layer metric
should move, are listed in ``metrics.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed and no operation failed.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from calibration import Clock  # noqa: E402

#: Fresh interpreters timed importing the program; set-up time takes their
#: median because one import is too noisy to compare between runs.
IMPORT_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Median time of a fresh interpreter starting and importing ``repro``,
    at the reference host speed."""
    code = f"import sys; sys.path.insert(0, {str(SOURCES)!r}); import repro"
    clock = Clock()
    times = []
    for _ in range(IMPORT_REPEATS):
        before = clock.reference_s
        with clock.timed():
            subprocess.run([sys.executable, "-c", code], check=True)
        times.append(clock.reference_s - before)
    return statistics.median(times)


def run_workload(args) -> dict:
    """Time the program's import, run the workload, return its outcome."""
    import_s = import_seconds()
    sys.path.insert(0, str(SOURCES))
    if args.workload == "serve_policy":
        import serve_workload

        return serve_workload.run(args.seed, args.seconds, bool(args.trace), import_s)
    import train_workloads

    return train_workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), import_s)


def result_line(args, outcome: dict) -> dict:
    """The JSON result; raises if a metric is missing, extra or not finite."""
    wanted = metrics.expected(bool(args.trace))
    got = outcome["metrics"]
    if set(got) != set(wanted):
        raise RuntimeError(f"metrics {sorted(got)} != expected {sorted(wanted)}")
    for name, value in got.items():
        if not math.isfinite(value) or (not args.trace and value <= 0):
            raise RuntimeError(f"metric {name} = {value} is not a valid measurement")
    correct = all(ok for _, ok, _ in outcome["checks"])
    return {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": max(int(outcome["failed"]), 0 if correct else 1),
        "metrics": {name: {"value": float(got[name]), "unit": wanted[name].unit}
                    for name in wanted},
    }


def exit_code(result: dict) -> int:
    return 0 if result["correct"] and result["failed"] == 0 else 1


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` spawns start."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCES}", file=sys.stderr)
        return 2
    try:
        outcome = run_workload(args)
    finally:
        stop_resource_tracker()
    if outcome["report"]:
        print(outcome["report"], file=sys.stderr)
    print(outcome["summary"])
    for name, ok, detail in outcome["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    result = result_line(args, outcome)
    print(json.dumps(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
