"""The whole harness, small: four workloads, untraced and traced."""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

E2E = Path(__file__).resolve().parents[1]
WORKLOADS = ["rank_wide_hot", "point_hot", "point_cold", "mixed_rw"]


def _worker_pids() -> set[str]:
    listing = subprocess.run(
        ["pgrep", "-f", "repro.net.worker"], capture_output=True, text=True
    )
    return set(listing.stdout.split())


def test_smoke_suite_runs_clean_and_fast(tmp_path):
    spec = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())
    before = _worker_pids()
    out = tmp_path / "results.json"
    started = perf_counter()
    finished = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--traced",
         "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - started
    assert finished.returncode == 0, finished.stderr[-2000:]
    assert elapsed < 30.0
    summary = json.loads(finished.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["claim"] is None
    assert list(summary)[-1] == "claim"

    document = json.loads(out.read_text())
    assert document["environment"]["seed"] == 5
    assert {"nproc", "python", "numpy", "kernel_backend", "git_sha",
            "loadavg_1m"} <= set(document["environment"])
    seen = {(r["workload"], r["traced"]): r for r in document["results"]}
    assert set(seen) == {(w, t) for w in WORKLOADS for t in (False, True)}
    gated = {m["name"] for m in spec["end_to_end"]}
    layered = {m["name"] for m in spec["per_layer"]}
    for (workload, traced), result in seen.items():
        assert result["failed"] == 0 and result["oracle_checked"] >= 60
        assert set(result["metrics"]) == (layered if traced else gated)
        if traced:
            assert (E2E / "out" / f"trace-{workload}.jsonl").stat().st_size > 0
    assert _worker_pids() <= before
    assert not list((E2E / ".work").glob("run-*"))
