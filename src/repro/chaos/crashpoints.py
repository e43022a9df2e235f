"""Deterministic crash-point recovery harness.

Kills a node at seeded byte- and op-granular points — mid-WAL-append,
post-append/pre-fsync, between the per-profile barrier flushes of a
checkpoint, after its store sync, around its barrier write,
mid-fine-grained-flush — then restarts it through the real recovery path
and property-checks the durability contract:

    recovered state == every *acked* write, plus at most a prefix of the
    writes that were in flight (appended, never acked) when the machine
    died.

Each seed drives three phases:

1. **Counting pass** — run a seeded workload with a passive injector,
   recording every crash-point site visit (and every KV write op).  The
   workload mixes maintenance ticks with background flushes that persist
   post-barrier writes without a checkpoint (recovery must not apply
   those records twice), explicit checkpoints over an unmerged write
   table, and — every third seed — a write table a few writes deep, so
   the overflow path runs constantly.
2. **Armed pass** — re-run the identical workload with one crash point
   armed: a ``(site, hit, byte_offset)`` triple chosen from the counting
   pass, or a KV write-op index (which lands inside the fine-grained
   flush protocol, between slice writes and the meta fence).  The crash
   raises :class:`~repro.errors.SimulatedCrashError` — a ``BaseException``
   so it rips through ``except Exception`` resilience code exactly like
   a SIGKILL would.
3. **Machine death + recovery** — volatile state is discarded (the WAL's
   :class:`~repro.storage.wal.MemoryLogFile` truncates to its durable
   watermark, optionally after an OS-page-cache-style flush of the torn
   tail; the KV store, which buffers like ``FileKVStore(durability=
   "batch")``, independently keeps or loses what no ``sync`` covered),
   the node restarts with a fresh :class:`WriteAheadLog` /
   :class:`NodeDurability` over the surviving bytes, recovers, and the
   oracle compares canonical profile fingerprints against references
   rebuilt from the acked-write ledger.

Every schedule is rerun under the same seed and must produce a
byte-identical result digest.  The teeth proofs additionally run the same
workloads with durability detached, with a recovery that ignores the
applied-sequence stamps, and with a write-table overflow that overtakes
buffered writes, and require the oracle to *catch* each — the harness
demonstrably fails when an invariant is broken, so a green run means
something.

Usage::

    python -m repro.chaos.crashpoints --seeds 20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from functools import partial

from ..clock import MILLIS_PER_DAY, SimulatedClock
from ..config import TableConfig
from ..errors import SimulatedCrashError
from ..server.isolation import PendingWrite
from ..server.node import IPSNode
from ..server.recovery import NodeDurability, RecoveryReport
from ..storage.kvstore import InMemoryKVStore, KVStore, VersionedValue
from ..storage.serialization import RAW_COLUMN_MIN_ROWS
from ..storage.wal import NULL_SITE, MemoryLogFile, WriteAheadLog

NOW = 400 * MILLIS_PER_DAY

#: Salt so crash-point selection draws from a stream independent of the
#: workload generator's (same seed, different purpose).
_PLAN_SALT = 0x5EED_C0DE


# ----------------------------------------------------------------------
# Injection seams
# ----------------------------------------------------------------------


class CrashPointInjector:
    """Crash-point seam shared by the WAL and checkpoint writers.

    Passive by default: every ``write``/``reach`` call records a visit
    (site name, payload length — ``-1`` for pure reach points).  Once
    :meth:`arm`\\ ed, the matching visit writes only ``byte_offset`` bytes
    of its payload and raises :class:`SimulatedCrashError`.
    """

    def __init__(self) -> None:
        #: site -> payload length per visit (-1 for reach sites).
        self.visits: dict[str, list[int]] = {}
        self.fired = False
        self._armed_site: str | None = None
        self._armed_hit = -1
        self._offset = 0

    def arm(self, site: str, hit: int, byte_offset: int = 0) -> None:
        self._armed_site = site
        self._armed_hit = hit
        self._offset = byte_offset

    def _visit(self, site: str, length: int) -> int:
        hits = self.visits.setdefault(site, [])
        hits.append(length)
        return len(hits) - 1

    def write(self, site: str, data: bytes, sink) -> None:
        index = self._visit(site, len(data))
        if site == self._armed_site and index == self._armed_hit and not self.fired:
            self.fired = True
            cut = min(self._offset, len(data))
            if cut:
                sink(data[:cut])
            raise SimulatedCrashError(site, f"hit {index} after {cut} bytes")
        sink(data)

    def reach(self, site: str) -> None:
        index = self._visit(site, -1)
        if site == self._armed_site and index == self._armed_hit and not self.fired:
            self.fired = True
            raise SimulatedCrashError(site, f"hit {index}")


class BufferedKVStore(InMemoryKVStore):
    """In-memory store with ``FileKVStore(durability="batch")`` crash
    semantics: writes are readable at once, but only what a :meth:`sync`
    covered survives :meth:`crash` (a SIGKILL drops the userspace buffer).
    """

    def __init__(self) -> None:
        super().__init__()
        self._durable: dict[bytes, VersionedValue] = {}

    def sync(self) -> None:
        with self._lock:
            self._durable = dict(self._data)

    def crash(self) -> None:
        with self._lock:
            self._data = dict(self._durable)


class CrashingKVStore:
    """KV wrapper that dies immediately before a chosen write operation.

    Op-granular crash points inside multi-op storage protocols: arming op
    *k* of a fine-grained flush kills the process between a slice write
    and the meta ``xset`` fence, leaving orphan slices for the recovery
    sweep.  Reads never crash (a dying machine stops writing first);
    whether completed but unsynced writes persist is the inner store's
    business.
    """

    def __init__(self, inner: KVStore) -> None:
        self._inner = inner
        self.write_ops = 0
        self.fired = False
        self._crash_at = -1

    def arm(self, op_index: int) -> None:
        self._crash_at = op_index

    def _mutating(self, op: str) -> None:
        if self.write_ops == self._crash_at and not self.fired:
            self.fired = True
            raise SimulatedCrashError(f"kv.{op}", f"write op {self.write_ops}")
        self.write_ops += 1

    def get(self, key: bytes) -> bytes | None:
        return self._inner.get(key)

    def set(self, key: bytes, value: bytes) -> None:
        self._mutating("set")
        self._inner.set(key, value)

    def delete(self, key: bytes) -> None:
        self._mutating("delete")
        self._inner.delete(key)

    def xget(self, key: bytes) -> VersionedValue | None:
        return self._inner.xget(key)

    def xset(self, key: bytes, value: bytes, held_version: int | None) -> int:
        self._mutating("xset")
        return self._inner.xset(key, value, held_version)

    def keys(self):
        return self._inner.keys()

    def sync(self) -> None:
        self._inner.sync()

    def crash(self) -> None:
        self._inner.crash()


# ----------------------------------------------------------------------
# Seeded workload
# ----------------------------------------------------------------------

#: One logical write: (profile_id, timestamp_ms, slot, type_id, fid, counts).
Write = tuple[int, int, int, int, int, tuple[int, ...]]


@dataclass(frozen=True)
class WorkloadPlan:
    """A fully materialized, seed-deterministic op sequence."""

    seed: int
    fine_grained: bool
    sync: str
    checkpoint_interval: int
    #: Isolation write-table cap; a few writes deep on overflow schedules.
    write_table_limit: int
    #: ("write", Write) | ("batch", list[Write]) | ("maint", None) |
    #: ("flush", None) | ("checkpoint", None)
    ops: tuple[tuple[str, object], ...]


def plan_workload(seed: int) -> WorkloadPlan:
    rng = random.Random(seed)
    profile_ids = [100 + i for i in range(rng.randrange(5, 11))]
    timestamp = NOW
    ops: list[tuple[str, object]] = []
    for _ in range(rng.randrange(90, 150)):
        timestamp += rng.randrange(10, 4000)
        roll = rng.random()
        if roll < 0.10:
            ops.append(("maint", None))
        elif roll < 0.14:
            # A background flush with no checkpoint behind it: the store
            # then holds writes past the barrier, which the WAL tail also
            # holds — the stamp is what keeps replay from doubling them.
            ops.append(("flush", None))
        elif roll < 0.17:
            # A checkpoint over an unmerged write table: the barrier
            # flush has profiles to write, one crash point apiece.
            ops.append(("checkpoint", None))
        elif roll < 0.29:
            pid = rng.choice(profile_ids)
            slot, type_id = rng.randrange(1, 3), rng.randrange(0, 2)
            if rng.random() < 0.45:
                # Columnar burst: enough distinct fids that the (slot,
                # type) group crosses RAW_COLUMN_MIN_ROWS, so its v2
                # encoding is raw int64 column dumps — torn KV/WAL/
                # checkpoint writes then land mid-memoryview.
                fids = rng.sample(
                    range(1, 200),
                    rng.randrange(
                        RAW_COLUMN_MIN_ROWS + 4, 2 * RAW_COLUMN_MIN_ROWS + 8
                    ),
                )
            else:
                fids = [
                    rng.randrange(1, 40) for _ in range(rng.randrange(2, 6))
                ]
            batch = [
                (pid, timestamp, slot, type_id, fid, (rng.randrange(1, 6),))
                for fid in fids
            ]
            ops.append(("batch", batch))
        else:
            ops.append((
                "write",
                (rng.choice(profile_ids), timestamp, rng.randrange(1, 3),
                 rng.randrange(0, 2), rng.randrange(1, 40),
                 (rng.randrange(1, 6),)),
            ))
    ops.append(("maint", None))  # A final flush/checkpoint opportunity.
    return WorkloadPlan(
        seed=seed,
        fine_grained=seed % 2 == 0,
        sync="always" if rng.random() < 0.5 else "group",
        checkpoint_interval=rng.choice((8, 16, 32)),
        write_table_limit=(
            PendingWrite(0, 0, 0, 0, 0, (0,)).memory_bytes()
            * rng.randrange(2, 6)
            if seed % 3 == 0
            else 8 * 1024 * 1024
        ),
        ops=tuple(ops),
    )


def _batch_writes(payload) -> list[Write]:
    return list(payload)


@dataclass
class _Rig:
    """One node under test plus every seam the harness can reach."""

    node: IPSNode
    store: CrashingKVStore
    injector: CrashPointInjector
    wal_file: MemoryLogFile
    checkpoint_file: MemoryLogFile


class _OvertakingNode(IPSNode):
    """Teeth: the overflow path as it was before it merged first — a
    write that finds the table full is applied ahead of the buffered
    writes, including older ones to the same profile."""

    def _buffer_or_apply(self, *write) -> None:
        table = self.write_table
        if (
            table.memory_bytes + PendingWrite(*write).memory_bytes()
            > table.memory_limit_bytes
        ):
            self._apply_write(*write)
        else:
            super()._buffer_or_apply(*write)


def _recover_ignoring_stamps(node: IPSNode) -> RecoveryReport:
    """Teeth: replay the whole tail onto whatever the store holds."""
    load = node.persistence.load

    def unstamped(profile_id: int):
        profile = load(profile_id)
        if profile is not None:
            profile.applied_seq = 0
        return profile

    node.persistence.load = unstamped
    try:
        return node.recover()
    finally:
        del node.persistence.load


def _build_rig(
    plan: WorkloadPlan, durable: bool, node_cls: type[IPSNode] = IPSNode
) -> _Rig:
    injector = CrashPointInjector()
    store = CrashingKVStore(BufferedKVStore())
    config = TableConfig(
        name="t",
        attributes=("click",),
        fine_grained_persistence=plan.fine_grained,
    )
    node = node_cls(
        "crash-node",
        config,
        store,
        clock=SimulatedClock(NOW),
        cache_capacity_bytes=4096,
        swap_threshold=0.6,
        swap_target=0.4,
        write_table_limit_bytes=plan.write_table_limit,
    )
    wal_file = MemoryLogFile()
    checkpoint_file = MemoryLogFile()
    if durable:
        node.durability = NodeDurability(
            WriteAheadLog(wal_file, sync=plan.sync, site=injector),
            checkpoint_file,
            checkpoint_interval_records=plan.checkpoint_interval,
            node_id=node.node_id,
            site=injector,
        )
    return _Rig(node, store, injector, wal_file, checkpoint_file)


def _execute(
    plan: WorkloadPlan, rig: _Rig, stop_after_ops: int | None = None
) -> tuple[list[Write], list[Write], SimulatedCrashError | None]:
    """Drive the plan; returns (acked, in-flight, crash or None).

    A write enters ``acked`` only when its node call returns — exactly
    the client-visible contract the oracle holds recovery to.
    """
    node = rig.node
    acked: list[Write] = []
    for index, (kind, payload) in enumerate(plan.ops):
        if stop_after_ops is not None and index >= stop_after_ops:
            break
        try:
            if kind == "maint":
                node.merge_write_table()
                node.run_cache_cycle()
            elif kind == "flush":
                node.merge_write_table()
                node.cache.run_flush_once()
            elif kind == "checkpoint":
                node.checkpoint()
            elif kind == "write":
                pid, ts, slot, type_id, fid, counts = payload
                node.add_profile(pid, ts, slot, type_id, fid, counts)
                acked.append(payload)
            else:
                writes = _batch_writes(payload)
                pid, ts, slot, type_id = writes[0][:4]
                node.add_profiles(
                    pid, ts, slot, type_id,
                    [w[4] for w in writes],
                    [w[5] for w in writes],
                )
                acked.extend(writes)
        except SimulatedCrashError as crash:
            if kind == "write":
                inflight = [payload]
            else:
                inflight = _batch_writes(payload) if kind == "batch" else []
            return acked, inflight, crash
    return acked, [], None


# ----------------------------------------------------------------------
# Crash-point selection (from the counting pass)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrashPlan:
    """The single death this schedule injects."""

    kind: str  # "site" or "kv"
    site: str = ""
    hit: int = 0
    byte_offset: int = -1  # -1: reach site (no bytes involved)
    kv_op: int = -1
    #: Model the OS having flushed the torn tail to disk before dying.
    flush_tail: bool = False
    #: Model the KV store's unsynced writes having reached disk anyway.
    kv_tail_survives: bool = False

    def describe(self) -> str:
        if self.kind == "kv":
            return f"kv write op {self.kv_op}"
        where = self.site if self.byte_offset < 0 else (
            f"{self.site}+{self.byte_offset}B"
        )
        return f"{where} hit {self.hit}"


def choose_crash_plan(
    seed: int, visits: dict[str, list[int]], kv_write_ops: int
) -> CrashPlan:
    rng = random.Random(seed ^ _PLAN_SALT)
    candidates = sorted(site for site, hits in visits.items() if hits)
    if kv_write_ops > 0:
        candidates.append("kv")
    if not candidates:
        raise RuntimeError(f"seed {seed}: counting pass visited no crash sites")
    site = rng.choice(candidates)
    flush_tail = rng.random() < 0.5
    kv_tail_survives = rng.random() < 0.5
    if site == "kv":
        return CrashPlan(
            kind="kv", kv_op=rng.randrange(kv_write_ops),
            flush_tail=flush_tail, kv_tail_survives=kv_tail_survives,
        )
    hits = visits[site]
    hit = rng.randrange(len(hits))
    length = hits[hit]
    if length < 0:
        offset = -1
    elif length >= 48 and rng.random() < 0.5:
        # Large payloads carry raw int64 column sections (the zero-copy
        # v2 encoding); tearing in the interior lands mid-column rather
        # than in the varint header or the final bytes.
        offset = rng.randrange(16, length - 15)
    else:
        offset = rng.randrange(length + 1)
    return CrashPlan(
        kind="site", site=site, hit=hit, byte_offset=offset,
        flush_tail=flush_tail, kv_tail_survives=kv_tail_survives,
    )


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def profile_fingerprint(profile) -> tuple:
    """Canonical, order-independent digest of one profile's contents."""
    rows = []
    for data_slice in profile.slices:
        for slot, instance_set in data_slice.slots_items():
            for type_id, group in instance_set.groups_items():
                for stat in group.iter_stats():
                    rows.append((
                        data_slice.start_ms, data_slice.end_ms, slot,
                        type_id, stat.fid, tuple(stat.counts),
                        stat.last_timestamp_ms,
                    ))
    return tuple(sorted(rows))


def node_state(node: IPSNode, profile_ids) -> dict[int, tuple]:
    """Fingerprint every profile the node can serve (memory or KV)."""
    state = {}
    for profile_id in sorted(set(profile_ids)):
        profile = node.cache.get(profile_id)
        if profile is None:
            continue
        fingerprint = profile_fingerprint(profile)
        if fingerprint:
            state[profile_id] = fingerprint
    return state


def expected_states(
    plan: WorkloadPlan, acked: list[Write], inflight: list[Write]
) -> list[dict[int, tuple]]:
    """Legal post-recovery states: acked + each prefix of the in-flight op."""
    config = TableConfig(name="t", attributes=("click",))
    reference = IPSNode(
        "reference", config, InMemoryKVStore(),
        clock=SimulatedClock(NOW), isolation_enabled=False,
    )
    profile_ids = {w[0] for w in acked} | {w[0] for w in inflight}
    for pid, ts, slot, type_id, fid, counts in acked:
        reference.add_profile(pid, ts, slot, type_id, fid, counts)
    states = [node_state(reference, profile_ids)]
    for pid, ts, slot, type_id, fid, counts in inflight:
        reference.add_profile(pid, ts, slot, type_id, fid, counts)
        states.append(node_state(reference, profile_ids))
    return states


def _digest(state: dict[int, tuple]) -> str:
    return hashlib.sha256(repr(sorted(state.items())).encode()).hexdigest()[:16]


def count_surviving_raw_sections(persistence) -> int:
    """Raw (zero-copy) column sections across every persisted profile.

    Counted through the persistence manager, which alone knows how
    stored values are framed.
    """
    return sum(
        1
        for profile_id in sorted(persistence.stored_profile_ids())
        for profile_slice in persistence.load(profile_id).slices
        for _, instance_set in profile_slice.slots_items()
        for _, group in instance_set.groups_items()
        if len(group) >= RAW_COLUMN_MIN_ROWS
    )


# ----------------------------------------------------------------------
# One schedule
# ----------------------------------------------------------------------


@dataclass
class ScheduleResult:
    """Everything one seeded crash schedule produced."""

    seed: int
    crash: str = ""
    sync: str = ""
    fine_grained: bool = False
    acked: int = 0
    inflight: int = 0
    matched_prefix: int = -1  # -1: state matched nothing legal
    ok: bool = False
    failure: str = ""
    state_digest: str = ""
    #: Raw (zero-copy) v2 column sections in the surviving KV after
    #: recovery — the harness requires these to occur somewhere across a
    #: run, or the mid-memoryview tear coverage would be vacuous.
    raw_sections: int = 0
    report: RecoveryReport | None = field(default=None, repr=False)

    def line(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.failure})"
        replayed = self.report.records_replayed if self.report else 0
        return (
            f"seed {self.seed:3d}  {status:<28s} crash={self.crash:<28s} "
            f"sync={self.sync:<6s} fg={int(self.fine_grained)} "
            f"acked={self.acked:3d} inflight={self.inflight} "
            f"replayed={replayed:3d} prefix=+{max(self.matched_prefix, 0)} "
            f"raw={self.raw_sections} digest={self.state_digest}"
        )


def run_schedule(seed: int, sabotage: str = "") -> ScheduleResult:
    """Counting pass, armed pass, machine death, recovery, oracle.

    ``sabotage`` breaks one invariant for the teeth proofs: ``"overtake"``
    (overflow writes overtake buffered ones) or ``"ignore_stamp"``
    (recovery replays onto persisted values as if they carried no stamp).
    """
    plan = plan_workload(seed)
    node_cls = _OvertakingNode if sabotage == "overtake" else IPSNode
    result = ScheduleResult(
        seed=seed, sync=plan.sync, fine_grained=plan.fine_grained
    )

    counting = _build_rig(plan, durable=True, node_cls=node_cls)
    _, _, crash = _execute(plan, counting)
    if crash is not None:  # An unarmed rig must never die.
        result.failure = f"counting pass crashed: {crash}"
        return result
    crash_plan = choose_crash_plan(
        seed, counting.injector.visits, counting.store.write_ops
    )
    result.crash = crash_plan.describe()

    armed = _build_rig(plan, durable=True, node_cls=node_cls)
    if crash_plan.kind == "kv":
        armed.store.arm(crash_plan.kv_op)
    else:
        armed.injector.arm(
            crash_plan.site, crash_plan.hit, max(crash_plan.byte_offset, 0)
        )
    acked, inflight, crash = _execute(plan, armed)
    result.acked, result.inflight = len(acked), len(inflight)
    if crash is None:
        result.failure = "armed crash never fired"
        return result

    # Machine death: volatile bytes past the durable watermark are gone
    # (optionally the OS flushed the torn tail first), the process state
    # with them.  Of the KV store, what a sync covered survives.
    if crash_plan.flush_tail:
        armed.wal_file.fsync()
    armed.wal_file.crash()
    armed.checkpoint_file.crash()
    if crash_plan.kv_tail_survives:
        armed.store.sync()
    armed.store.crash()
    armed.node.crash()

    # Restart: a fresh process re-opens the surviving log bytes.
    armed.node.durability = NodeDurability(
        WriteAheadLog(armed.wal_file, sync=plan.sync, site=NULL_SITE),
        armed.checkpoint_file,
        checkpoint_interval_records=plan.checkpoint_interval,
        node_id=armed.node.node_id,
    )
    if sabotage == "ignore_stamp":
        result.report = _recover_ignoring_stamps(armed.node)
    else:
        result.report = armed.node.recover()

    legal = expected_states(plan, acked, inflight)
    recovered = node_state(armed.node, {w[0] for w in acked + inflight})
    result.state_digest = _digest(recovered)
    result.raw_sections = count_surviving_raw_sections(armed.node.persistence)
    for prefix, state in enumerate(legal):
        if recovered == state:
            result.matched_prefix = prefix
            result.ok = True
            break
    else:
        missing = sorted(set(legal[0]) - set(recovered))
        result.failure = (
            f"acked writes lost (profiles {missing})" if missing
            else "recovered state matches no acked-prefix"
        )
    return result


def run_teeth_proof(seed: int) -> ScheduleResult:
    """Same workload and oracle, durability off: loss should be caught."""
    plan = plan_workload(seed)
    rig = _build_rig(plan, durable=False)
    rng = random.Random(seed ^ _PLAN_SALT)
    stop_after = rng.randrange(len(plan.ops) // 2, len(plan.ops))
    acked, _, _ = _execute(plan, rig, stop_after_ops=stop_after)
    rig.node.crash()

    result = ScheduleResult(
        seed=seed, sync="off", fine_grained=plan.fine_grained,
        acked=len(acked), crash=f"power cut after op {stop_after}",
    )
    legal = expected_states(plan, acked, [])
    recovered = node_state(rig.node, {w[0] for w in acked})
    result.state_digest = _digest(recovered)
    if recovered == legal[0]:
        result.matched_prefix, result.ok = 0, True
    else:
        result.failure = "acked writes lost (no WAL)"
    return result


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def run_harness(
    seeds: int = 20, base_seed: int = 0, prove_teeth: bool = True
) -> tuple[list[ScheduleResult], list[str]]:
    """All schedules plus the determinism and teeth checks.

    Returns (results, problems); an empty problem list means the
    durability contract held everywhere it was attacked.
    """
    problems: list[str] = []
    results: list[ScheduleResult] = []
    for seed in range(base_seed, base_seed + seeds):
        first = run_schedule(seed)
        results.append(first)
        if not first.ok:
            problems.append(f"seed {seed}: {first.failure}")
            continue
        rerun = run_schedule(seed)
        if rerun.line() != first.line():
            problems.append(
                f"seed {seed}: rerun diverged\n  a: {first.line()}\n"
                f"  b: {rerun.line()}"
            )
    if results and not any(result.raw_sections for result in results):
        problems.append(
            "no raw (zero-copy) v2 column sections reached the KV in any "
            "schedule — the mid-memoryview torn-write coverage is vacuous"
        )
    if prove_teeth:
        seed_range = range(base_seed, base_seed + seeds)
        proofs = {
            "durability off": run_teeth_proof,
            "recovery ignoring the stamps": partial(
                run_schedule, sabotage="ignore_stamp"
            ),
            "overflow overtaking buffered writes": partial(
                run_schedule, sabotage="overtake"
            ),
        }
        for what, run in proofs.items():
            if all(run(seed).ok for seed in seed_range):
                problems.append(
                    f"teeth proof failed: {what}, yet every seed recovered "
                    "a legal state — the oracle is not detecting it"
                )
    return results, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded crash-point recovery harness"
    )
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--skip-teeth", action="store_true",
        help="skip the durability-off loss-detection proof",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    results, problems = run_harness(
        seeds=args.seeds, base_seed=args.base_seed,
        prove_teeth=not args.skip_teeth,
    )
    if args.as_json:
        print(json.dumps(
            {
                "schedules": [result.line() for result in results],
                "problems": problems,
                "passed": sum(result.ok for result in results),
            },
            indent=2,
        ))
    else:
        for result in results:
            print(result.line())
        print(
            f"\n{sum(result.ok for result in results)}/{len(results)} "
            "schedules recovered exactly the acked writes"
        )
        if not args.skip_teeth:
            print(
                "teeth proofs: durability off, stamps ignored at recovery, "
                "overflow overtaking buffered writes"
                + (" (all caught)" if not problems else "")
            )
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
