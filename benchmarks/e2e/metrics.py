"""Turn what a run measured into the named metrics of ``BENCHMARK.json``.

Timings here are taken over *blocks* (about a second of requests, or one
``point_cold`` pass), not over the pooled samples: on a shared VM the host
slows everything down for seconds at a time, always in one direction, and
a pooled median moves with however much of the run such a stretch covered.
So a median latency is the **lower quartile over blocks of the block's
median**, and a rate the **upper quartile over blocks of the block's
rate** — the request cost in the quieter part of the run.  A p99 cannot be
split that way (a block is too small to have one) and stays pooled.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

from .harness import Build
from .stats import p50, percentile
from .workloads import Lane, Run

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Blocks with fewer samples (a window's cut-off tail) carry no median.
MIN_BLOCK_SAMPLES = 5


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as spec:
        return json.load(spec)


def metric(value: float, unit: str, n: int) -> dict:
    """One reported number and the sample count behind it."""
    return {"value": value, "unit": unit, "n": n}


def quiet_p50(samples: list[float], ranges: list[tuple[int, int]]) -> float:
    """Lower quartile over blocks of each block's median."""
    medians = [
        p50(samples[start:end]) for start, end in ranges
        if end - start >= MIN_BLOCK_SAMPLES
    ]
    return percentile(medians, 25.0)


def quiet_rate(counts_and_walls: list[tuple[int, float]]) -> float:
    """Upper quartile over blocks of each block's rate."""
    return percentile([count / wall for count, wall in counts_and_walls], 75.0)


def end_to_end(run: Run, build: Build, lane: Lane) -> dict[str, dict]:
    """The gated metrics, from the untraced lane.

    On ``mixed_rw`` reads and writes share every block.  On the read-only
    workloads the writes are the short burst that ends each epoch: the
    same call with nothing beside it.
    """
    blocks = lane.blocks
    reads, writes, epochs = len(lane.read_ms), len(lane.write_ms), len(run.epochs)
    return {
        "setup_s": metric(
            build.seconds + median(e.setup_s for e in run.epochs), "s", epochs
        ),
        "read_p50_ms": metric(
            quiet_p50(lane.read_ms, [b.reads for b in blocks]), "ms", reads),
        "read_keys_per_s": metric(
            quiet_rate([(b.keys_ok, b.wall_s) for b in blocks if b.keys_ok]),
            "1/s", reads),
        "write_p50_ms": metric(
            quiet_p50(lane.write_ms, [b.writes for b in blocks]), "ms", writes),
        "resident_kb_per_profile": metric(
            median(e.memory["resident_kb_per_profile"] for e in run.epochs),
            "KB", epochs,
        ),
        "rss_kb_per_profile": metric(
            median(e.memory["rss_kb_per_profile"] for e in run.epochs),
            "KB", epochs,
        ),
        "stored_kb_per_profile": metric(build.stored_kb_per_profile, "KB", 1),
    }


def ungated_tails(lanes: list[Lane]) -> dict[str, dict]:
    """Tail and write-rate numbers that would not repeat within any bound.

    Pooled over every lane of the run and printed with their sample
    count: a p99 from fewer than 1000 samples is indicative only.
    """
    read_ms = [ms for lane in lanes for ms in lane.read_ms]
    write_ms = [ms for lane in lanes for ms in lane.write_ms]
    write_wall_s = sum(
        b.wall_s for lane in lanes for b in lane.blocks if b.writes_ok
    )
    return {
        "read_p99_ms": metric(percentile(read_ms, 99.0), "ms", len(read_ms)),
        "write_p99_ms": metric(percentile(write_ms, 99.0), "ms", len(write_ms)),
        "writes_per_s": metric(
            sum(lane.writes_ok for lane in lanes) / write_wall_s, "1/s",
            len(write_ms),
        ),
    }


def accounting(run: Run) -> dict:
    """Keys and writes attempted and failed, over every lane.

    ``failed`` counts keys answered not-ok (a failed request fails all its
    keys), writes not acked and answers that differ from the oracle — the
    numerator of ``error_rate``.
    """
    lanes = run.lanes
    attempted = sum(lane.keys + len(lane.write_ms) for lane in lanes)
    failed = sum(
        lane.keys - lane.keys_ok + len(lane.write_ms) - lane.writes_ok
        for lane in lanes
    )
    mismatches = sum(lane.mismatches for lane in lanes) + run.swept_wrong
    checked = sum(lane.checked for lane in lanes) + run.swept
    failed += mismatches
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "oracle_checked": checked,
        "errors": [error for lane in lanes for error in lane.errors][:5],
        "correct": failed == 0 and checked > 0,
        "error_rate": failed / attempted if attempted else 1.0,
    }
