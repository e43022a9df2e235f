"""Command line of the end-to-end benchmark.

Three uses:

* the **contract** form the driver runs — one workload, one mode, last
  stdout line a JSON object with ``correct/attempted/failed/metrics``::

      run.py --workload NAME --seed N --seconds S --trace 0|1

* the **suite** form people run — every workload, untraced (gated
  metrics) and with ``--traced`` also traced (per-layer metrics), a table
  of every metric by name, and a results file for ``--compare``::

      run.py --seed N [--seconds S] [--traced] [--out results.json]

* ``--compare A.json B.json`` — B against A within the bounds stored in
  ``BENCHMARK.json``; exits 1 on any breach.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from repro.clock import SystemClock
from repro.core.kernels import default_backend_name

from . import compare, layers
from .dataset import FULL, HOUR_MS, SMOKE, WORKLOADS, Dataset, Scale
from .harness import BenchmarkError, Workspace, build_dataset, pin_to_one_cpu
from .metrics import accounting, end_to_end, load_spec
from .oracle import Oracle
from .stats import supports_p99
from .workloads import Context, Lane, run_workload

HERE = Path(__file__).resolve().parent
#: Data dirs of every cluster; inside the checkout, ignored by git.
WORK_DIR = HERE / ".work"
#: ``trace.jsonl`` of traced runs.
OUT_DIR = HERE / "out"
SMOKE_SECONDS = 1.0


def environment(seed: int) -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > 0.5 * nproc:
        print(
            f"warning: 1-min loadavg {load:.2f} > 0.5 x {nproc} cores; "
            "timings will be noisy", file=sys.stderr,
        )
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": default_backend_name(),
        "git_sha": sha,
        "seed": seed,
        "loadavg_1m": load,
    }


def run_one(
    workload: str, context: Context, seconds: float, scale: Scale, traced: bool
) -> dict:
    """One workload in one mode; the result both output forms are cut from."""
    started = perf_counter()
    if traced:
        result = layers.traced_run(workload, context, seconds, OUT_DIR)
    else:
        lane = Lane("plain", lambda served: served.client())
        run, _ = run_workload(workload, context, seconds, [lane], scale.epochs)
        result = accounting(run)
        result["metrics"] = end_to_end(run, context.build, lane)
    result["workload"] = workload
    result["traced"] = traced
    result["run_s"] = perf_counter() - started
    return result


def contract_line(result: dict, names: list[str]) -> str:
    """The driver's last line: exactly the metrics ``BENCHMARK.json`` names."""
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        raise BenchmarkError(f"{result['workload']}: not measured: {missing}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": result["metrics"][name]["value"],
                "unit": result["metrics"][name]["unit"],
            }
            for name in names
        },
    })


def print_table(results: list[dict], spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for result in results:
        mode = "traced" if result["traced"] else "untraced"
        print(
            f"\n== {result['workload']} ({mode}) — attempted "
            f"{result['attempted']}, failed {result['failed']}, "
            f"oracle-checked {result['oracle_checked']}, "
            f"error_rate {result['error_rate']:.6f}, {result['run_s']:.1f}s"
        )
        for name, entry in result["metrics"].items():
            value = f"{entry['value']:.4f}"
            note = f"  bound {bounds[name]:.2f}" if name in bounds else ""
            if name.endswith("p99_ms") and not supports_p99(entry["n"]):
                note += "  (indicative: < 1000 samples)"
            print(f"  {name:<44}{value:>14} {entry['unit']:<6} n={entry['n']}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true",
                        help="suite form: also run every workload traced")
    parser.add_argument("--out", type=Path, help="write results JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="60 profiles, 2 s windows: harness self-check")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], spec)

    scale = SMOKE if args.smoke else FULL
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    contract = args.workload is not None and args.trace is not None
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if contract else [False] + [True] * args.traced

    # SIGTERM unwinds like Ctrl-C, so the workspace reaps its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()
    anchor_ms = int(SystemClock().now_ms()) // HOUR_MS * HOUR_MS
    dataset = Dataset(args.seed, scale, anchor_ms)
    with Workspace(WORK_DIR) as workspace:
        atexit.register(workspace.close)
        oracle = Oracle(dataset)
        slices = oracle.slices_per_profile()
        if slices != scale.slices:
            raise BenchmarkError(
                f"dataset.slices_per_profile is {slices}, wanted {scale.slices}"
            )
        build = build_dataset(workspace, dataset)
        context = Context(workspace, build, dataset, oracle)
        results = [
            run_one(workload, context, seconds, scale, traced)
            for traced in modes
            for workload in workloads
        ]
    atexit.unregister(workspace.close)

    correct = all(result["correct"] for result in results)
    if contract:
        kind = "per_layer" if args.trace else "end_to_end"
        print(contract_line(results[0], [m["name"] for m in spec[kind]]))
        return 0 if correct else 1
    print_table(results, spec)
    layers.print_table2(results)
    document = {
        "environment": env,
        "seconds": seconds,
        "scale": scale.__dict__,
        "results": results,
        "correct": correct,
        "claim": None,
    }
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "error_rate": {r["workload"]: r["error_rate"] for r in results},
        "seed": args.seed,
        "claim": None,
    }))
    return 0 if correct else 1
