"""Durability costs: checkpoint vs dirty set, replay vs tail, the ack tax.

The durability layer (internals §12) buys zero acked-write loss with
three running costs, and this bench measures each against the real node:

* **checkpoint time** — a checkpoint flushes the profiles dirty at its
  barrier and nothing else, so it must be flat in the resident set and
  linear in the dirty set.  One grid: resident clean profiles x profiles
  dirtied since the last checkpoint; the profile count is asserted
  exactly, the times are reported.
* **recovery time** — a crashed node replays its WAL tail on restart onto
  the stored values; replay work scales with the number of records past
  the last barrier.  Two sweeps: tail length with checkpoints off, and a
  restart at the shipped checkpoint interval against never checkpointing.
* **ack overhead** — every ``add_profile`` ack now waits for a WAL
  append (and, in ``always`` mode, its fsync barrier); the fire-and-
  forget arm (no durability attached) is the baseline the overhead is
  measured against.

Every recovery arm also re-checks correctness: the recovered node must
serve exactly the pre-crash top-K, whatever the checkpoint cadence.

Run standalone (``python benchmarks/bench_recovery.py [--smoke]``, with
``src`` on ``PYTHONPATH``) or via pytest
(``pytest benchmarks/bench_recovery.py``).
"""

from __future__ import annotations

import argparse
import random

from repro.clock import MILLIS_PER_DAY, SimulatedClock, perf_ms
from repro.config import TableConfig
from repro.core.timerange import TimeRange
from repro.server.node import IPSNode
from repro.server.recovery import attach_memory_durability
from repro.storage import InMemoryKVStore

NOW_MS = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(2 * MILLIS_PER_DAY)
POPULATION = 48
PROBE_PROFILE = 7
#: ``build_durable_node``'s default ``checkpoint_interval``.
SHIPPED_INTERVAL = 256


def build_node(
    checkpoint_interval: int = 0, sync: str = "always", durable: bool = True
) -> IPSNode:
    config = TableConfig(name="bench", attributes=("click",))
    node = IPSNode(
        "n0", config, InMemoryKVStore(), clock=SimulatedClock(NOW_MS)
    )
    if durable:
        attach_memory_durability(
            node, sync=sync, checkpoint_interval_records=checkpoint_interval
        )
    return node


def write_workload(node: IPSNode, writes: int, cycle_every: int = 0) -> None:
    """``writes`` single-feature adds over a fixed population; optionally
    run the background cycle (flush + maybe_checkpoint) every N writes,
    the way a node's maintenance loop would."""
    rng = random.Random(11)
    for index in range(writes):
        node.add_profile(
            rng.randrange(POPULATION),
            NOW_MS,
            1,
            0,
            rng.randrange(40),
            {"click": 1},
        )
        if cycle_every and (index + 1) % cycle_every == 0:
            node.run_cache_cycle()


def _probe(node: IPSNode) -> list:
    return [
        (r.fid, tuple(r.counts))
        for r in node.get_profile_topk(PROBE_PROFILE, 1, 0, WINDOW, k=64)
    ]


def crash_and_recover(node: IPSNode) -> dict:
    """Crash the node, time ``recover()``, verify the served state."""
    node.merge_write_table()
    before = _probe(node)
    node.crash()
    start = perf_ms()
    report = node.recover()
    recover_ms = perf_ms() - start
    return {
        "records_replayed": report.records_replayed,
        "checkpoint_sequence": report.checkpoint_sequence,
        "recover_ms": recover_ms,
        "replay_ms": report.replay_ms,
        "state_matches": _probe(node) == before,
    }


def sweep_checkpoint_cost(residents, dirties) -> list[dict]:
    """Checkpoint time over (resident clean profiles) x (dirty profiles)."""
    out = []
    for resident in residents:
        node = build_node()
        for profile_id in range(resident):
            node.add_profile(profile_id, NOW_MS, 1, 0, 1, {"click": 1})
        node.checkpoint()  # Everything resident, nothing dirty.
        for dirty in dirties:
            for profile_id in range(dirty):
                node.add_profile(profile_id, NOW_MS, 1, 0, 2, {"click": 1})
            start = perf_ms()
            report = node.checkpoint()
            out.append({
                "resident": node.cache.resident_count(),
                "dirty": dirty,
                "profiles_flushed": report.profiles,
                "checkpoint_bytes": report.bytes_written,
                "checkpoint_ms": perf_ms() - start,
            })
    return out


def sweep_wal_length(lengths: list[int]) -> list[dict]:
    """Recovery cost with checkpoints off: the whole WAL replays."""
    out = []
    for writes in lengths:
        node = build_node(checkpoint_interval=0)
        write_workload(node, writes)
        result = crash_and_recover(node)
        result["writes"] = writes
        out.append(result)
    return out


def sweep_checkpoint_interval(writes: int, intervals: list[int]) -> list[dict]:
    """Recovery cost at a fixed write count, varying checkpoint cadence."""
    out = []
    for interval in intervals:
        node = build_node(checkpoint_interval=interval)
        write_workload(node, writes, cycle_every=32)
        result = crash_and_recover(node)
        result["interval"] = interval
        result["checkpoints"] = node.durability.stats.checkpoints
        out.append(result)
    return out


def measure_ack_overhead(writes: int) -> dict:
    """Wall time for the same write volume: no WAL vs group vs always."""
    arms = {}
    for name, durable, sync in (
        ("fire_and_forget", False, "always"),
        ("wal_group", True, "group"),
        ("wal_always", True, "always"),
    ):
        node = build_node(durable=durable, sync=sync)
        start = perf_ms()
        write_workload(node, writes)
        elapsed = perf_ms() - start
        arms[name] = {
            "elapsed_ms": elapsed,
            "us_per_write": 1000.0 * elapsed / writes,
            "writes_logged": (
                node.durability.stats.writes_logged if durable else 0
            ),
        }
    baseline = arms["fire_and_forget"]["elapsed_ms"]
    for name in ("wal_group", "wal_always"):
        arms[name]["overhead_x"] = (
            arms[name]["elapsed_ms"] / baseline if baseline else float("inf")
        )
    arms["writes"] = writes
    return arms


def run_bench(
    lengths: list[int],
    interval_writes: int,
    overhead_writes: int,
    residents: tuple[int, ...] = (200, 800),
    dirties: tuple[int, ...] = (4, 16, 64),
) -> dict:
    return {
        "checkpoint_cost": sweep_checkpoint_cost(residents, dirties),
        "wal_length": sweep_wal_length(lengths),
        "checkpoint_interval": sweep_checkpoint_interval(
            interval_writes, [0, SHIPPED_INTERVAL]
        ),
        "ack_overhead": measure_ack_overhead(overhead_writes),
    }


def report(result: dict) -> None:
    print("\n=== Durability cost ===")
    print("-- checkpoint time vs dirty set, at fixed resident sets --")
    for row in result["checkpoint_cost"]:
        print(
            f"  resident={row['resident']:>5} dirty={row['dirty']:>4}: "
            f"flushed={row['profiles_flushed']:>4} "
            f"checkpoint={row['checkpoint_ms']:.2f} ms "
            f"({row['checkpoint_bytes']} B barrier file)"
        )
    print("-- recovery time vs WAL length (checkpoints off) --")
    for row in result["wal_length"]:
        print(
            f"  {row['writes']:>6} writes: replayed={row['records_replayed']} "
            f"recover={row['recover_ms']:.2f} ms "
            f"(replay {row['replay_ms']:.2f} ms) "
            f"state_ok={row['state_matches']}"
        )
    print("-- restart at the shipped checkpoint interval "
          f"({result['checkpoint_interval'][0]['records_replayed']} "
          "records when never checkpointing) --")
    for row in result["checkpoint_interval"]:
        label = row["interval"] or "off"
        print(
            f"  interval={label:>4}: checkpoints={row['checkpoints']} "
            f"replayed={row['records_replayed']} "
            f"recover={row['recover_ms']:.2f} ms "
            f"state_ok={row['state_matches']}"
        )
    arms = result["ack_overhead"]
    print(f"-- WAL ack overhead ({arms['writes']} writes) --")
    for name in ("fire_and_forget", "wal_group", "wal_always"):
        arm = arms[name]
        extra = (
            f" ({arm['overhead_x']:.2f}x baseline)"
            if "overhead_x" in arm
            else ""
        )
        print(
            f"  {name:>15}: {arm['us_per_write']:.1f} us/write"
            f"{extra}"
        )


def check(result: dict) -> None:
    # A checkpoint flushes exactly what was dirtied, whatever is resident,
    # and writes a barrier, not an image.
    for row in result["checkpoint_cost"]:
        assert row["profiles_flushed"] == row["dirty"], row
        assert row["checkpoint_bytes"] < 100, row
    # With checkpoints off, recovery replays exactly the acked writes, and
    # replay work grows with WAL length.
    for row in result["wal_length"]:
        assert row["records_replayed"] == row["writes"], row
        assert row["state_matches"], row
    replayed = [row["records_replayed"] for row in result["wal_length"]]
    assert replayed == sorted(replayed) and replayed[0] < replayed[-1]
    # Checkpointing bounds the replay tail — with identical served state.
    never, shipped = result["checkpoint_interval"]
    assert never["state_matches"] and shipped["state_matches"]
    assert never["checkpoints"] == 0 < shipped["checkpoints"]
    assert shipped["records_replayed"] < never["records_replayed"]
    # Every durable arm really logged (and therefore acked) every write.
    arms = result["ack_overhead"]
    assert arms["wal_group"]["writes_logged"] == arms["writes"]
    assert arms["wal_always"]["writes_logged"] == arms["writes"]


def test_recovery_cost():
    result = run_bench(
        lengths=[200, 800], interval_writes=800, overhead_writes=1500
    )
    report(result)
    check(result)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller write volumes for CI (same assertions)",
    )
    args = parser.parse_args()
    if args.smoke:
        result = run_bench(
            lengths=[200, 800], interval_writes=800, overhead_writes=1500
        )
    else:
        result = run_bench(
            lengths=[500, 2000, 8000],
            interval_writes=4000,
            overhead_writes=20000,
        )
    report(result)
    check(result)
    print("OK")


if __name__ == "__main__":
    main()
