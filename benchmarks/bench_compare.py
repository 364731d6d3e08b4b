"""Diff a fresh bench JSON against its committed ``BENCH_*.json`` snapshot.

Two document families are understood, auto-detected from the fresh
document's shape:

* **parallel** (``bench_parallel_throughput.py --smoke``, committed as
  ``BENCH_parallel.json``): per-backend ``steps_per_sec`` rates plus the
  Autoscale-v0 serial/lock-step curve-identity flag;
* **serving** (``bench_serving.py --smoke``, committed as
  ``BENCH_serving.json``, detected by its ``latency`` / ``pipelined``
  keys): per-(clients, max_batch) latency/throughput rows plus the
  served-equals-offline identity flag.

Each comparison pins two things:

* the **schema** — a fresh run must report the same backends (or client
  grid) and the same document shape, so a refactor cannot silently drop
  a measured configuration;
* a **collapse tripwire** — throughput must stay above ``--min-ratio``
  (default 0.2) of the committed rate, and serving p50 latency must not
  blow past the committed value by more than ``1 / min_ratio``.  CI
  machines are noisy and share cores, so this is deliberately generous:
  it catches a 10x regression (an accidentally serialized vectorized
  path, a busy-wait in the broker, a serving loop that stopped
  batching), not a 10% one.  Absolute rates are machine-dependent and
  are *not* asserted.

Run with::

    PYTHONPATH=src python benchmarks/bench_parallel_throughput.py --smoke \\
        --json /tmp/bench_fresh.json
    python benchmarks/bench_compare.py /tmp/bench_fresh.json

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke \\
        --json /tmp/bench_serving.json
    python benchmarks/bench_compare.py /tmp/bench_serving.json

Exit code 0 on pass, 1 with a per-row report on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

_HERE = Path(__file__).resolve().parent
BASELINE = _HERE / "BENCH_parallel.json"
BASELINE_SERVING = _HERE / "BENCH_serving.json"


def _is_serving(document: Dict[str, object]) -> bool:
    return "latency" in document or "pipelined" in document


def _compare_parallel(fresh: Dict[str, object], baseline: Dict[str, object],
                      min_ratio: float) -> List[str]:
    problems: List[str] = []
    base_rates = baseline.get("steps_per_sec", {})
    fresh_rates = fresh.get("steps_per_sec", {})
    missing = set(base_rates) - set(fresh_rates)
    if missing:
        problems.append(f"fresh run no longer measures: {sorted(missing)}")

    print(f"{'backend':<16} {'baseline':>12} {'fresh':>12} {'ratio':>8}")
    for name in sorted(set(base_rates) & set(fresh_rates)):
        base, now = float(base_rates[name]), float(fresh_rates[name])
        ratio = now / base if base else float("inf")
        flag = "" if ratio >= min_ratio else "  <-- COLLAPSED"
        print(f"{name:<16} {base:>12.1f} {now:>12.1f} {ratio:>8.2f}{flag}")
        if ratio < min_ratio:
            problems.append(
                f"{name}: {now:.0f} steps/s is below {min_ratio:.0%} of the "
                f"committed {base:.0f} steps/s")

    if fresh.get("autoscale_serial_vectorized_identical") is not True:
        problems.append("Autoscale-v0 serial/lock-step curve identity no "
                        "longer holds")
    return problems


def _row_key(row: Dict[str, object]) -> str:
    if "clients" in row:
        return f"c{row.get('clients')}/b{row.get('max_batch')}"
    return f"pipelined/b{row.get('max_batch')}"


def _compare_serving(fresh: Dict[str, object], baseline: Dict[str, object],
                     min_ratio: float) -> List[str]:
    problems: List[str] = []
    print(f"{'config':<16} {'metric':<16} {'baseline':>12} {'fresh':>12} "
          f"{'ratio':>8}")
    for section in ("latency", "pipelined"):
        base_rows = {_row_key(r): r for r in baseline.get(section, [])}
        fresh_rows = {_row_key(r): r for r in fresh.get(section, [])}
        missing = set(base_rows) - set(fresh_rows)
        if missing:
            problems.append(f"{section}: fresh run no longer measures "
                            f"{sorted(missing)}")
        for key in sorted(set(base_rows) & set(fresh_rows)):
            base_row, fresh_row = base_rows[key], fresh_rows[key]
            lost_fields = set(base_row) - set(fresh_row)
            if lost_fields:
                problems.append(f"{section} {key}: row lost fields "
                                f"{sorted(lost_fields)}")
            if int(fresh_row.get("mismatches", 0)) != 0:
                problems.append(f"{section} {key}: served replies diverged "
                                f"from the offline policy "
                                f"({fresh_row['mismatches']} mismatches)")
            base_rps = float(base_row.get("throughput_rps", 0.0))
            now_rps = float(fresh_row.get("throughput_rps", 0.0))
            ratio = now_rps / base_rps if base_rps else float("inf")
            flag = "" if ratio >= min_ratio else "  <-- COLLAPSED"
            print(f"{key:<16} {'throughput_rps':<16} {base_rps:>12.1f} "
                  f"{now_rps:>12.1f} {ratio:>8.2f}{flag}")
            if ratio < min_ratio:
                problems.append(
                    f"{section} {key}: {now_rps:.0f} req/s is below "
                    f"{min_ratio:.0%} of the committed {base_rps:.0f} req/s")
            base_p50 = float(base_row.get("p50_ms", 0.0))
            now_p50 = float(fresh_row.get("p50_ms", 0.0))
            if base_p50 > 0.0 and now_p50 > 0.0:
                lat_ratio = base_p50 / now_p50   # >= min_ratio when healthy
                flag = "" if lat_ratio >= min_ratio else "  <-- COLLAPSED"
                print(f"{key:<16} {'p50_ms':<16} {base_p50:>12.3f} "
                      f"{now_p50:>12.3f} {lat_ratio:>8.2f}{flag}")
                if lat_ratio < min_ratio:
                    problems.append(
                        f"{section} {key}: p50 latency {now_p50:.2f} ms is "
                        f"over {1 / min_ratio:.0f}x the committed "
                        f"{base_p50:.2f} ms")

    if fresh.get("served_equals_offline") is not True:
        problems.append("served-equals-offline policy identity no longer "
                        "holds")
    return problems


def compare(fresh_path: str, baseline_path: str, min_ratio: float) -> int:
    fresh = json.loads(Path(fresh_path).read_text(encoding="utf-8"))
    serving = _is_serving(fresh)
    if baseline_path is None:
        baseline_path = str(BASELINE_SERVING if serving else BASELINE)
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))

    problems = []
    missing_keys = set(baseline) - set(fresh)
    if missing_keys:
        problems.append(f"fresh document lost top-level keys: "
                        f"{sorted(missing_keys)}")
    if serving:
        problems += _compare_serving(fresh, baseline, min_ratio)
    else:
        problems += _compare_parallel(fresh, baseline, min_ratio)

    if problems:
        print("\nbench comparison FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nall rows within {min_ratio:.0%} tripwire of "
          f"{baseline_path}: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="bench JSON produced by this run")
    parser.add_argument("--baseline", default=None,
                        help="committed snapshot to diff against (default: "
                             "BENCH_serving.json for serving documents, "
                             "BENCH_parallel.json otherwise)")
    parser.add_argument("--min-ratio", type=float, default=0.2,
                        help="minimum fresh/baseline throughput ratio — and "
                             "maximum baseline/fresh p50 latency ratio "
                             "(default 0.2: a collapse tripwire, not a "
                             "noise-level gate)")
    args = parser.parse_args(argv)
    return compare(args.fresh, args.baseline, args.min_ratio)


if __name__ == "__main__":
    sys.exit(main())
