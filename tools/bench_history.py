#!/usr/bin/env python
"""Perf history: snapshot the gated benches, diff against prior snapshots.

The bench suite gates individual claims (kernel speedup, trace overhead,
failover error rate) but until now nothing *persisted* machine-readable
results, so a PR could quietly halve a number that still clears its gate.
This harness runs the same benches at smoke size, extracts the headline
metrics into a schema-versioned snapshot (``benchmarks/history/
BENCH_<n>.json``), and renders a tolerance-banded regression verdict
against earlier snapshots.

Tolerance model: every metric declares a direction (``better`` =
``lower`` | ``higher``) and a band ``max(abs_tol, rel_tol * |prev|)``.
Only movement in the *worse* direction beyond the band is a regression —
wall-clock metrics carry wide relative bands (machines differ), ratio
and count metrics carry tight absolute ones.  Snapshots contain no
timestamps or host info, so a re-run on the same tree is byte-stable
modulo the banded measurements themselves.

Usage (also ``make bench-history``)::

    python tools/bench_history.py                # snapshot + diff
    python tools/bench_history.py --update       # overwrite the baseline
    python tools/bench_history.py --list         # history across PRs
    python tools/bench_history.py --ingest F.json  # merge pytest-recorded
                                                   # metrics (conftest hook)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

SCHEMA = "bench-history/v1"
#: This PR's snapshot number; bump per PR so history accumulates.
SNAPSHOT_NUMBER = 10
HISTORY_DIR = os.path.join(ROOT, "benchmarks", "history")
_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


def metric(
    value: float,
    unit: str,
    better: str,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> dict:
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower|higher, got {better!r}")
    return {
        "value": round(float(value), 6),
        "unit": unit,
        "better": better,
        "rel_tol": rel_tol,
        "abs_tol": abs_tol,
    }


# ----------------------------------------------------------------------
# Collectors — one per gated bench, smoke-sized
# ----------------------------------------------------------------------


def collect_kernels() -> dict[str, dict]:
    import bench_kernels

    case = bench_kernels.run_case(
        bench_kernels.GATE_FIDS, bench_kernels.GATE_K, repeats=3
    )
    out = {
        "kernels.python_ms": metric(
            case["python_ms"], "ms", "lower", rel_tol=0.6
        ),
    }
    if "numpy_ms" in case:
        out["kernels.numpy_warm_ms"] = metric(
            case["numpy_ms"], "ms", "lower", rel_tol=0.6
        )
        out["kernels.speedup"] = metric(
            case["speedup"], "x", "higher", rel_tol=0.4
        )

    cold = bench_kernels.run_cold_case(repeats=3)
    out["kernels.cold_over_warm"] = metric(
        cold["ratio"], "x", "lower", rel_tol=0.4
    )
    multiget = bench_kernels.run_multiget_case(repeats=3)
    out["kernels.multiget_vs_reference"] = metric(
        multiget["speedup_vs_reference"], "x", "higher", rel_tol=0.4
    )
    if "numpy" in bench_kernels.available_backends():
        out["kernels.multiget_vs_singles"] = metric(
            multiget["speedup_vs_singles"], "x", "higher", rel_tol=0.4
        )
    return out


def collect_recovery() -> dict[str, dict]:
    import bench_recovery

    result = bench_recovery.run_bench(
        lengths=[800], interval_writes=800, overhead_writes=1500
    )
    longest = result["wal_length"][-1]
    group = result["ack_overhead"]["wal_group"]
    return {
        "recovery.replay_800_ms": metric(
            longest["recover_ms"], "ms", "lower", rel_tol=0.6
        ),
        "recovery.ack_overhead_group_x": metric(
            group["overhead_x"], "x", "lower", rel_tol=0.5, abs_tol=0.5
        ),
    }


def collect_trace() -> dict[str, dict]:
    import bench_trace_overhead

    # The kernel work in PR 10 made the base query path fast enough that
    # a 4-batch drive finishes in ~4 ms, where scheduler jitter swamps
    # the overhead fraction; 12 batches x 7 repeats keeps the denominator
    # above 10 ms and the fraction stable to a few points.
    result = bench_trace_overhead.run_bench(
        batch_size=64, num_batches=12, num_nodes=3, population=200, repeats=7
    )
    return {
        "trace.overhead_frac": metric(
            result["overhead"], "frac", "lower", abs_tol=0.10
        ),
        "trace.noop_span_ns": metric(
            result["noop_span_ns"], "ns", "lower", rel_tol=1.0
        ),
    }


def collect_availability() -> dict[str, dict]:
    import bench_fig17_real_availability as bench

    result = bench.run_bench(rounds=40, reads_per_round=60)

    def rate(arm):
        return arm["errors"] / arm["reads"] if arm["reads"] else 0.0

    # Both arms run the seeded incident mix, so these are deterministic:
    # zero tolerance on the resilient arm, a tight band on the naive one
    # (its exact value is the chaos schedule, not a perf property).
    return {
        "availability.resilient_error_rate": metric(
            rate(result["resilient"]), "ratio", "lower", abs_tol=0.005
        ),
        "availability.naive_error_rate": metric(
            rate(result["naive"]), "ratio", "lower", abs_tol=0.05
        ),
    }


def collect_cluster() -> dict[str, dict]:
    import bench_cluster_scaleout as bench

    scaling = bench.run_scaleout([1, 2], population=128, duration_ms=900.0)
    chaos = bench.run_chaos_failover(
        workers=2, population=128, duration_ms=1_500.0, kill_at_ms=500.0
    )
    # Real processes on whatever cores the host has: throughput bands are
    # very wide (rel_tol 0.8 ~= "still in the same order of magnitude");
    # the error rates are the real contract and carry tight bands.
    return {
        "cluster.qps_1_worker": metric(
            scaling[1]["qps"], "keys/s", "higher", rel_tol=0.8
        ),
        "cluster.qps_2_workers": metric(
            scaling[2]["qps"], "keys/s", "higher", rel_tol=0.8
        ),
        "cluster.scaleout_error_rate": metric(
            max(s["error_rate"] for s in scaling.values()),
            "ratio", "lower", abs_tol=0.005,
        ),
        "cluster.chaos_error_rate": metric(
            chaos["error_rate"], "ratio", "lower", abs_tol=0.01
        ),
    }


def collect_failover() -> dict[str, dict]:
    import bench_failover as bench

    result = bench.run_failover(
        population=96, duration_ms=4_000.0,
        kill_at_ms=600.0, revert_at_ms=2_800.0, ops_per_round=6,
    )
    # Error/empty rates are the availability contract: tight bands.
    # Bytes-per-delta is the proportionality claim — it is a codec
    # property, not a perf measurement, so its band is narrow too.
    return {
        "failover.error_rate": metric(
            result["error_rate"], "ratio", "lower", abs_tol=0.01
        ),
        "failover.range_empty_reads": metric(
            result["range_empty"], "reads", "lower", abs_tol=0.0
        ),
        "failover.bytes_per_delta": metric(
            result["bytes_per_delta"], "bytes", "lower",
            rel_tol=0.3, abs_tol=8.0,
        ),
        "failover.hints_drained": metric(
            result["hints_drained"], "deltas", "higher", rel_tol=0.9
        ),
    }


COLLECTORS = (
    ("kernels", collect_kernels),
    ("recovery", collect_recovery),
    ("trace", collect_trace),
    ("availability", collect_availability),
    ("cluster", collect_cluster),
    ("failover", collect_failover),
)


def collect(only: str | None = None) -> dict[str, dict]:
    metrics: dict[str, dict] = {}
    for name, collector in COLLECTORS:
        if only is not None and name != only:
            continue
        print(f"bench-history: running {name} ...", flush=True)
        metrics.update(collector())
    return metrics


# ----------------------------------------------------------------------
# Snapshot I/O and diffing
# ----------------------------------------------------------------------


def snapshot_path(number: int) -> str:
    return os.path.join(HISTORY_DIR, f"BENCH_{number}.json")


def write_snapshot(number: int, metrics: dict[str, dict]) -> str:
    os.makedirs(HISTORY_DIR, exist_ok=True)
    path = snapshot_path(number)
    payload = {
        "schema": SCHEMA,
        "snapshot": number,
        "metrics": dict(sorted(metrics.items())),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA:
        raise SystemExit(
            f"{path}: unknown schema {payload.get('schema')!r} "
            f"(expected {SCHEMA})"
        )
    return payload


def list_snapshots() -> list[tuple[int, str]]:
    if not os.path.isdir(HISTORY_DIR):
        return []
    out = []
    for name in os.listdir(HISTORY_DIR):
        match = _SNAPSHOT_RE.match(name)
        if match:
            out.append((int(match.group(1)), os.path.join(HISTORY_DIR, name)))
    return sorted(out)


def diff(previous: dict[str, dict], current: dict[str, dict]) -> list[str]:
    """Regression messages comparing current metrics to a prior snapshot.

    The *previous* snapshot's tolerances judge the comparison (they are
    the contract the baseline was recorded under).
    """
    regressions = []
    for name in sorted(previous):
        if name not in current:
            print(f"  [gone]   {name} (was {previous[name]['value']:g})")
            continue
        prev, cur = previous[name], current[name]
        band = max(
            prev.get("abs_tol", 0.0),
            prev.get("rel_tol", 0.0) * abs(prev["value"]),
        )
        delta = cur["value"] - prev["value"]
        worse = delta > band if prev["better"] == "lower" else -delta > band
        status = "REGRESS" if worse else "ok"
        print(
            f"  [{status:>7}] {name}: {prev['value']:g} -> {cur['value']:g} "
            f"{prev['unit']} (band +-{band:g})"
        )
        if worse:
            regressions.append(
                f"{name}: {prev['value']:g} -> {cur['value']:g} "
                f"{prev['unit']} exceeds band {band:g} "
                f"in the worse ({prev['better']}-is-better) direction"
            )
    for name in sorted(set(current) - set(previous)):
        print(f"  [new]    {name} = {current[name]['value']:g}")
    return regressions


def show_history() -> None:
    snapshots = list_snapshots()
    if not snapshots:
        print("no snapshots recorded yet")
        return
    names: list[str] = []
    seen = set()
    loaded = [(number, load_snapshot(path)) for number, path in snapshots]
    for _, payload in loaded:
        for name in payload["metrics"]:
            if name not in seen:
                seen.add(name)
                names.append(name)
    header = "metric".ljust(36) + "".join(
        f"PR{number:>2}".rjust(12) for number, _ in loaded
    )
    print(header)
    for name in names:
        row = name.ljust(36)
        for _, payload in loaded:
            entry = payload["metrics"].get(name)
            row += (f"{entry['value']:>12g}" if entry else f"{'-':>12}")
        print(row)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="overwrite this PR's baseline with freshly collected metrics",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the metric history table"
    )
    parser.add_argument(
        "--only", choices=[name for name, _ in COLLECTORS],
        help="run a single collector (debugging; never writes baselines)",
    )
    parser.add_argument(
        "--ingest", metavar="FILE",
        help="merge metrics recorded by the pytest hook "
             "(IPS_BENCH_RECORD) into the collected set",
    )
    args = parser.parse_args()

    if args.list:
        show_history()
        return 0

    current = collect(only=args.only)
    if args.ingest:
        with open(args.ingest, encoding="utf-8") as handle:
            current.update(json.load(handle))

    baseline = snapshot_path(SNAPSHOT_NUMBER)
    if args.only and not os.path.exists(baseline):
        # A partial run must never become the baseline.
        for name, entry in sorted(current.items()):
            print(f"  {name} = {entry['value']:g} {entry['unit']}")
        return 0
    if (args.update and not args.only) or not os.path.exists(baseline):
        path = write_snapshot(SNAPSHOT_NUMBER, current)
        print(f"bench-history: wrote baseline {os.path.relpath(path, ROOT)}")
        # Still diff against the previous PR's snapshot when one exists.
        prior = [
            (number, path) for number, path in list_snapshots()
            if number < SNAPSHOT_NUMBER
        ]
        if prior:
            number, path = prior[-1]
            print(f"bench-history: diff vs BENCH_{number}.json")
            regressions = diff(load_snapshot(path)["metrics"], current)
            if regressions:
                print("bench-history: REGRESSIONS vs prior PR:")
                for line in regressions:
                    print(f"  {line}")
                return 1
        return 0

    print(
        f"bench-history: diff vs baseline "
        f"{os.path.relpath(baseline, ROOT)}"
    )
    regressions = diff(load_snapshot(baseline)["metrics"], current)
    if args.only:
        # A partial run can't judge the whole baseline.
        return 0
    if regressions:
        print("bench-history: REGRESSIONS:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("bench-history: no regressions beyond tolerance bands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
