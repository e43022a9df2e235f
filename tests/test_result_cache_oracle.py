"""Differential invalidation oracle for the node's result cache.

Every :class:`IPSNode` serves every read — point reads and multi-gets —
through its result cache; its :attr:`~IPSNode.engine` answers the same
query with no cache in front.  A seeded plan interleaves every write
path the node has — direct puts, batched puts, ingestion applies,
isolation merges, full and partial maintenance (compaction /
truncation), cache cycles, checkpoints, crash + recovery — and after
every step a battery of reads (top-K across sort types, decay, filter,
over CURRENT / RELATIVE / ABSOLUTE windows) must be
*byte-identical* between the node and its engine, as point reads and as
multi-gets (with a duplicate and a non-resident id) against the engine's
batch entries.  The node is read twice, so the second read is served
from the cache whenever the query is cacheable, and the two families
alternate which goes first, so each is served from the other's entries.

If any mutation path missed its invalidation hook, the node would keep
serving the pre-mutation result and the oracle trips.  The teeth tests
prove the oracle has teeth: deliberately unhooking an invalidation seam
makes it fail.  The node-level tests after them pin down what the cache
does on the served path: repeats execute once, failures and expired
deadlines are never cached, a multi-get re-executes only the keys a
write touched, a write or an eviction racing the miss batch installs
nothing stale, the batch runs the window its entries are keyed under
however the clock moves, and every way of building a node has one.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import MILLIS_PER_DAY, MILLIS_PER_HOUR, SimulatedClock
from repro.cluster.resilience import Deadline
from repro.config import TableConfig, TruncateConfig
from repro.core.query import Query, SortType, cacheable_filter, query_fingerprint
from repro.core.timerange import TimeRange
from repro.errors import DeadlineExceededError, IPSError
from repro.ingest import IngestionJob, InstanceRecord, Topic, default_extraction
from repro.server import IPSNode, IPSService, attach_memory_durability
from repro.storage import InMemoryKVStore

NOW_MS = 400 * MILLIS_PER_DAY

ATTRIBUTES = ("like", "comment", "share")
PROFILE_IDS = (1, 2, 3, 7)


@cacheable_filter(("likes_at_least", 2))
def _likes_at_least_two(stat):
    return stat.counts[0] >= 2


def _opaque_filter(stat):  # Deliberately unmarked: uncacheable.
    return sum(stat.counts) >= 3


def _table_config() -> TableConfig:
    # Truncation makes maintenance lossy, so a missed maintenance-path
    # invalidation changes real results (compaction alone preserves sums).
    return TableConfig(
        name="oracle",
        attributes=ATTRIBUTES,
        truncate=TruncateConfig(max_slices=200, max_age_ms=10 * MILLIS_PER_DAY),
    )


def _make_node(clock: SimulatedClock, durable: bool) -> IPSNode:
    node = IPSNode(
        "oracle",
        _table_config(),
        InMemoryKVStore(),
        clock=clock,
        cache_capacity_bytes=4 * 1024 * 1024,
    )
    if durable:
        attach_memory_durability(node, checkpoint_interval_records=64)
    return node


class _NodeIngestClient:
    """Adapter giving IngestionJob the client surface over one node."""

    def __init__(self, node: IPSNode) -> None:
        self._node = node

    def add_profile(self, profile_id, timestamp_ms, slot, type_id, fid, counts):
        self._node.add_profile(
            profile_id, timestamp_ms, slot, type_id, fid, counts,
            caller="ingest",
        )
        return 1


# ----------------------------------------------------------------------
# The seeded interleaving plan
# ----------------------------------------------------------------------


def _random_write(rng: random.Random, now_ms: int) -> tuple:
    return (
        rng.choice(PROFILE_IDS),
        now_ms - rng.randrange(12 * MILLIS_PER_DAY),
        rng.randrange(2),
        rng.randrange(2),
        rng.randrange(40),
        {attr: rng.randrange(1, 5) for attr in rng.sample(ATTRIBUTES, 2)},
    )


_REQUIRED_OPS = (
    "put", "put_many", "ingest", "merge", "maintain_full",
    "maintain_partial", "cache_cycle", "checkpoint", "crash_revert",
)


def _make_op(op: str, rng: random.Random, now_ms: int) -> tuple:
    if op == "put":
        return ("put", _random_write(rng, now_ms))
    if op == "put_many":
        profile_id = rng.choice(PROFILE_IDS)
        timestamp = now_ms - rng.randrange(8 * MILLIS_PER_DAY)
        fids = rng.sample(range(40), rng.randrange(2, 6))
        counts = [
            {attr: rng.randrange(1, 4) for attr in ATTRIBUTES} for _ in fids
        ]
        return (
            "put_many",
            (profile_id, timestamp, rng.randrange(2), rng.randrange(2),
             fids, counts),
        )
    if op == "ingest":
        records = [
            InstanceRecord(
                request_id=f"r{rng.randrange(10**6)}",
                user_id=rng.choice(PROFILE_IDS),
                item_id=rng.randrange(40),
                timestamp_ms=now_ms - rng.randrange(5 * MILLIS_PER_DAY),
                actions={
                    attr: rng.randrange(1, 3)
                    for attr in rng.sample(ATTRIBUTES, 1)
                },
                signals={"slot": rng.randrange(2), "type": rng.randrange(2)},
            )
            for _ in range(rng.randrange(1, 4))
        ]
        return ("ingest", tuple(records))
    return (op, None)


def _build_plan(rng: random.Random, steps: int) -> list[tuple]:
    """A concrete op list (no randomness left) applied to the node."""
    ops = [
        "put", "put", "put", "put_many", "put_many", "ingest", "merge",
        "merge", "maintain_full", "maintain_partial", "cache_cycle",
        "checkpoint", "crash_revert", "advance_clock",
    ]
    plan: list[tuple] = []
    now_ms = NOW_MS
    for _ in range(steps):
        op = rng.choice(ops)
        if op == "advance_clock":
            delta = rng.randrange(1, 18) * MILLIS_PER_HOUR
            now_ms += delta
            plan.append(("advance_clock", delta))
        else:
            plan.append(_make_op(op, rng, now_ms))
    # Every op class must appear, whatever the draw — otherwise the oracle
    # silently proves less than it claims.
    exercised = {op for op, _ in plan}
    for op in _REQUIRED_OPS:
        if op not in exercised:
            plan.insert(rng.randrange(len(plan) + 1), _make_op(op, rng, now_ms))
    return plan


def _apply(node: IPSNode, op: str, arg) -> None:
    if op == "put":
        node.add_profile(*arg)
    elif op == "put_many":
        node.add_profiles(*arg)
    elif op == "ingest":
        topic = Topic("instances", num_partitions=2)
        for record in arg:
            topic.produce(record.user_id, record, record.timestamp_ms)
        job = IngestionJob(
            topic, _NodeIngestClient(node), default_extraction(ATTRIBUTES)
        )
        job.run_until_drained()
    elif op == "merge":
        node.merge_write_table()
    elif op in ("maintain_full", "maintain_partial"):
        # The write path queues only profiles past the slice threshold,
        # which this plan's profiles never reach: queue them all, as a
        # periodic sweep would, so maintenance really rewrites them.
        node.engine._maintenance_pending.update(PROFILE_IDS)
        node.run_maintenance(full=op == "maintain_full")
    elif op == "cache_cycle":
        node.run_cache_cycle()
    elif op == "checkpoint":
        node.checkpoint()
    elif op == "crash_revert":
        # The chaos engine's node_crash fault followed by its revert:
        # RPCNodeProxy.crash() -> node.crash(), restart() -> node.recover().
        node.crash()
        node.recover()
    elif op != "advance_clock":  # pragma: no cover - plan/apply drift guard
        raise AssertionError(f"unknown op {op}")


# ----------------------------------------------------------------------
# The read battery
# ----------------------------------------------------------------------


def _query_battery():
    """(name, kind, args, kwargs) covering the read APIs.

    ``kind`` names the method — ``get_profile_<kind>`` on a node or its
    engine, ``multi_get_<kind>`` on a node for the batch form, and the
    :class:`Query` constructor of that name for the engine's
    ``multi_get`` — and ``args`` / ``kwargs`` follow the profile id(s).
    """
    current_2d = TimeRange.current(2 * MILLIS_PER_DAY)
    current_7d = TimeRange.current(7 * MILLIS_PER_DAY)
    relative_3d = TimeRange.relative(3 * MILLIS_PER_DAY)
    full_window = TimeRange.absolute(0, NOW_MS + 400 * MILLIS_PER_DAY)
    return [
        ("topk_total_full", "topk", (1, 0, full_window, SortType.TOTAL, 10), {}),
        (
            "topk_attr_current", "topk",
            (1, 0, current_2d, SortType.ATTRIBUTE, 5),
            {"sort_attribute": "like"},
        ),
        (
            "topk_weighted_current", "topk",
            (0, None, current_7d, SortType.WEIGHTED, 8),
            {"sort_weights": {"share": 3, "like": 1}},
        ),
        (
            "topk_explicit_default_aggregate", "topk",
            (1, 0, full_window, SortType.FEATURE_ID, 6), {"aggregate": "sum"},
        ),
        (
            "decay_exponential_relative", "decay",
            (1, 0, relative_3d, "exponential", MILLIS_PER_DAY / 2.0), {},
        ),
        (
            "decay_linear_attr", "decay",
            (0, None, current_7d, "linear", 5 * MILLIS_PER_DAY),
            {"k": 5, "sort_attribute": "comment"},
        ),
        (
            "filter_cacheable", "filter",
            (1, 0, current_7d, _likes_at_least_two), {},
        ),
        ("filter_opaque", "filter", (0, None, full_window, _opaque_filter), {}),
    ]


#: The multi-get key list: every profile, one duplicate, one id that no
#: write ever touches (non-resident: ``[]``).
MULTI_GET_IDS = PROFILE_IDS + (PROFILE_IDS[0], 999)


def _assert_point_reads_identical(node: IPSNode, step: str) -> None:
    """Every battery read, node byte-identical to engine, node read twice."""
    for name, kind, args, kwargs in _query_battery():
        node_read = getattr(node, f"get_profile_{kind}")
        engine_read = getattr(node.engine, f"get_profile_{kind}")
        for profile_id in PROFILE_IDS:
            # The node read comes first: it makes the profile resident in
            # the engine's table, which the engine-direct read needs.
            first = node_read(profile_id, *args, **kwargs)
            expected = engine_read(profile_id, *args, **kwargs)
            second = node_read(profile_id, *args, **kwargs)  # Cache hit.
            assert repr(first) == repr(expected), (
                f"{step}: {name}(profile={profile_id}) diverged on first "
                f"read:\n  node  ={first!r}\n  engine={expected!r}"
            )
            assert repr(second) == repr(expected), (
                f"{step}: {name}(profile={profile_id}) diverged on cached "
                f"re-read:\n  node  ={second!r}\n  engine={expected!r}"
            )


def _assert_multi_gets_identical(node: IPSNode, step: str) -> None:
    """Every battery read as a node multi-get, read twice, byte-identical
    key by key to the engine's batch entry over the same ids."""
    for name, kind, args, kwargs in _query_battery():
        multi_get = getattr(node, f"multi_get_{kind}")
        first = multi_get(MULTI_GET_IDS, *args, **kwargs)
        expected = node.engine.multi_get(
            MULTI_GET_IDS, getattr(Query, kind)(*args, **kwargs)
        )
        second = multi_get(MULTI_GET_IDS, *args, **kwargs)
        assert list(first) == list(second) == list(expected)
        for read, label in ((first, "first"), (second, "cached")):
            for profile_id, result in read.items():
                assert result.ok, f"{step}: {name}({profile_id}) failed"
                assert repr(result.value) == repr(expected[profile_id]), (
                    f"{step}: multi-get {name}(profile={profile_id}) "
                    f"diverged on {label} read:\n  node  ={result.value!r}"
                    f"\n  engine={expected[profile_id]!r}"
                )


def _assert_reads_identical(
    node: IPSNode, step: str, multi_first: bool = False
) -> None:
    """Point reads and multi-gets against the engine, in either order: the
    second family then finds the first family's entries (cross-path)."""
    checks = [_assert_point_reads_identical, _assert_multi_gets_identical]
    for check in reversed(checks) if multi_first else checks:
        check(node, step)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("durable", [True, False], ids=["wal", "no-wal"])
def test_oracle_all_mutation_paths(rng, durable):
    """Seeded interleavings of every write path stay byte-identical."""
    clock = SimulatedClock(start_ms=NOW_MS)
    node = _make_node(clock, durable=durable)
    plan = _build_plan(rng, steps=50)
    exercised = {op for op, _ in plan}
    assert set(_REQUIRED_OPS) <= exercised

    for index, (op, arg) in enumerate(plan):
        if op == "advance_clock":
            clock.advance(arg)
        else:
            _apply(node, op, arg)
        _assert_reads_identical(
            node, step=f"step {index} ({op})", multi_first=index % 2 == 1
        )

    # The run must have exercised the cache for the comparison to mean
    # anything: hits come from the double reads, invalidations from writes.
    stats = node.result_cache.stats
    assert stats.hits > 0
    assert stats.installs > 0
    assert stats.invalidations > 0
    assert stats.uncacheable > 0  # The opaque filter bypassed the cache.


def test_oracle_many_seeds():
    """Shorter interleavings across independent seeds."""
    for seed in range(5):
        clock = SimulatedClock(start_ms=NOW_MS)
        node = _make_node(clock, durable=True)
        for index, (op, arg) in enumerate(
            _build_plan(random.Random(seed), steps=20)
        ):
            if op == "advance_clock":
                clock.advance(arg)
            else:
                _apply(node, op, arg)
            _assert_reads_identical(
                node, step=f"seed {seed} step {index} ({op})",
                multi_first=index % 2 == 1,
            )


# ----------------------------------------------------------------------
# Teeth: a deliberately skipped hook must be caught
# ----------------------------------------------------------------------


def test_oracle_teeth_write_hook_removed():
    """Unhooking GCache's invalidation seam makes the oracle trip."""
    clock = SimulatedClock(start_ms=NOW_MS)
    node = _make_node(clock, durable=False)
    _apply(node, "put", (1, NOW_MS - MILLIS_PER_HOUR, 1, 0, 5, {"like": 3}))
    _apply(node, "merge", None)
    _assert_reads_identical(node, step="warmup")

    node.cache._invalidation_hook = None  # The deliberate bug.
    _apply(node, "put", (1, NOW_MS, 1, 0, 5, {"like": 40, "share": 7}))
    _apply(node, "merge", None)
    with pytest.raises(AssertionError, match="diverged"):
        _assert_reads_identical(node, step="unhooked write")


def test_oracle_teeth_multi_get_after_unhooked_write():
    """The multi-get half of the oracle trips on its own."""
    clock = SimulatedClock(start_ms=NOW_MS)
    node = _make_node(clock, durable=False)
    _apply(node, "put", (1, NOW_MS - MILLIS_PER_HOUR, 1, 0, 5, {"like": 3}))
    _apply(node, "merge", None)
    _assert_multi_gets_identical(node, step="warmup")

    node.cache._invalidation_hook = None  # The deliberate bug.
    _apply(node, "put", (1, NOW_MS, 1, 0, 5, {"like": 40, "share": 7}))
    _apply(node, "merge", None)
    with pytest.raises(AssertionError, match="diverged"):
        _assert_multi_gets_identical(node, step="unhooked write")


def test_oracle_teeth_maintenance_hook_removed():
    """Unhooking the engine's maintenance listener makes the oracle trip.

    Truncation during maintenance drops out-of-retention slices, so a
    cached wide-window read that survives maintenance is provably stale.
    """
    clock = SimulatedClock(start_ms=NOW_MS)
    node = _make_node(clock, durable=False)
    _apply(node, "put", (2, NOW_MS - 9 * MILLIS_PER_DAY, 1, 0, 7, {"comment": 9}))
    _apply(node, "put", (2, NOW_MS - MILLIS_PER_HOUR, 1, 0, 8, {"like": 1}))
    _apply(node, "merge", None)
    _assert_reads_identical(node, step="warmup")

    node.engine._mutation_listeners.clear()  # The deliberate bug.
    clock.advance(2 * MILLIS_PER_DAY)  # The old write leaves retention.
    node.engine._maintenance_pending.add(2)
    _apply(node, "maintain_full", None)
    with pytest.raises(AssertionError, match="diverged"):
        _assert_reads_identical(node, step="unhooked maintenance")


# ----------------------------------------------------------------------
# The served path: what the cache does for a caller
# ----------------------------------------------------------------------

WINDOW = TimeRange.absolute(0, NOW_MS + 1)


def _seeded_node(profile_ids=(1,)) -> IPSNode:
    node = _make_node(SimulatedClock(start_ms=NOW_MS), durable=False)
    for profile_id in profile_ids:
        for fid in range(10):
            node.add_profile(
                profile_id, NOW_MS - fid * 1000, 1, 0, fid,
                {"like": fid + profile_id},
            )
    node.merge_write_table()
    return node


def _counting(node: IPSNode, fail: bool = False) -> list:
    """Route the node's top-K executions through a counter.

    Every node read runs its misses through the engine's ``multi_get``;
    the counter records each profile id that batch executed.
    """
    calls = []
    real_multi_get = node.engine.multi_get

    def multi_get(*args, **kwargs):
        calls.extend(args[0])
        if fail:
            raise IPSError("storage fault mid-read")
        return real_multi_get(*args, **kwargs)

    node.engine.multi_get = multi_get
    return calls


def test_repeated_point_read_executes_once():
    node = _seeded_node()
    calls = _counting(node)
    reads = [
        node.get_profile_topk(1, 1, 0, WINDOW, SortType.TOTAL, 5)
        for _ in range(4)
    ]
    assert calls == [1]
    assert node.result_cache.stats.hits == 3
    assert all(repr(read) == repr(reads[0]) for read in reads)
    # Every caller gets its own list: mutating one corrupts no other.
    assert len({id(read) for read in reads}) == 4
    reads[1].clear()
    assert node.get_profile_topk(1, 1, 0, WINDOW, SortType.TOTAL, 5) == reads[0]


def test_failed_read_is_not_cached():
    node = _seeded_node()
    calls = _counting(node, fail=True)
    for _ in range(2):
        with pytest.raises(IPSError, match="storage fault"):
            node.get_profile_topk(1, 1, 0, WINDOW, SortType.TOTAL, 5)
    # Each caller's read executed and saw its own failure.
    assert calls == [1, 1]
    assert node.result_cache.stats.installs == 0
    assert len(node.result_cache) == 0


def test_expired_deadline_fails_a_miss_before_executing():
    node = _seeded_node()
    calls = _counting(node)
    clock = node.clock
    deadline = Deadline(clock, 1.0)
    clock.advance(2)
    with pytest.raises(DeadlineExceededError):
        node.get_profile_topk(
            1, 1, 0, WINDOW, SortType.TOTAL, 5, deadline=deadline
        )
    assert calls == []
    assert len(node.result_cache) == 0


def test_every_node_has_a_result_cache(tmp_path):
    from repro.cluster.cluster import IPSCluster
    from repro.net.worker import build_durable_node

    clock = SimulatedClock(start_ms=NOW_MS)
    service = IPSService(InMemoryKVStore(), clock=clock)
    service.create_table(_table_config())
    cluster = IPSCluster(_table_config(), num_nodes=2, clock=clock)
    worker_node = build_durable_node("w0", tmp_path)
    nodes = [
        _make_node(clock, durable=False),
        service.table_node("oracle"),
        *cluster.region.nodes.values(),
        worker_node,
    ]
    try:
        for node in nodes:
            assert node.result_cache is not None
            assert "result_cache_hits" in node.node_stats()
        # Private per node: entries key on that node's profile state.
        assert len({id(node.result_cache) for node in nodes}) == len(nodes)
    finally:
        worker_node.shutdown()


# ----------------------------------------------------------------------
# Multi-gets: per-key probes, one miss batch
# ----------------------------------------------------------------------


def test_point_and_multi_get_entries_serve_each_other():
    node = _seeded_node((1, 2, 3))
    calls = _counting(node)
    point = node.get_profile_topk(1, 1, 0, WINDOW, SortType.TOTAL, 5)
    batch = node.multi_get_topk([1, 2], 1, 0, WINDOW, SortType.TOTAL, 5)
    assert calls == [1, 2]  # Key 1 came from the point read's entry.
    assert batch[1].value == point
    again = node.get_profile_topk(2, 1, 0, WINDOW, SortType.TOTAL, 5)
    assert calls == [1, 2]  # The point read came from the multi-get's.
    assert again == batch[2].value
    assert node.result_cache.stats.hits == 2


def test_write_to_one_key_re_executes_only_that_key():
    ids = [1, 2, 3, 4]
    node = _seeded_node(ids)
    node.multi_get_topk(ids, 1, 0, WINDOW, SortType.TOTAL, 5)
    calls = _counting(node)
    hits = node.result_cache.stats.hits

    node.add_profile(3, NOW_MS, 1, 0, 99, {"like": 500})
    node.merge_write_table()
    again = node.multi_get_topk(ids, 1, 0, WINDOW, SortType.TOTAL, 5)
    assert calls == [3]
    assert node.result_cache.stats.hits == hits + len(ids) - 1
    assert again[3].value[0].fid == 99
    assert repr(again[3].value) == repr(
        node.engine.get_profile_topk(3, 1, 0, WINDOW, SortType.TOTAL, 5)
    )


def test_write_landing_mid_batch_is_not_installed():
    """A write + merge to one miss key while the batch executes: that
    key's result predates the write and must not be cached."""
    ids = [1, 2, 3]
    node = _seeded_node(ids)
    real_topk = node.engine.get_profiles_topk
    real_multi_get = node.engine.multi_get

    def racing(*args, **kwargs):
        values = real_multi_get(*args, **kwargs)
        node.add_profile(2, NOW_MS, 1, 0, 99, {"like": 500})
        node.merge_write_table()
        return values

    node.engine.multi_get = racing
    stale = node.multi_get_topk(ids, 1, 0, WINDOW, SortType.TOTAL, 5)
    node.engine.multi_get = real_multi_get
    stats = node.result_cache.stats
    assert stats.install_races == 1
    assert stats.installs == len(ids) - 1
    assert node.node_stats()["result_cache_install_races"] == 1

    fresh = node.multi_get_topk(ids, 1, 0, WINDOW, SortType.TOTAL, 5)
    assert stale[2].value[0].fid != 99
    assert fresh[2].value[0].fid == 99
    expected = real_topk(ids, 1, 0, WINDOW, SortType.TOTAL, 5)
    assert {pid: repr(r.value) for pid, r in fresh.items()} == {
        pid: repr(value) for pid, value in expected.items()
    }


def test_eviction_mid_batch_is_not_installed():
    """A swap-out between residency and execution answers ``[]`` for the
    evicted key; that answer must not outlive the read."""
    node = _seeded_node((1, 2))
    real_multi_get = node.engine.multi_get

    def evicting(*args, **kwargs):
        assert node.cache._evict(2)
        return real_multi_get(*args, **kwargs)

    node.engine.multi_get = evicting
    node.multi_get_topk([1, 2], 1, 0, WINDOW, SortType.TOTAL, 5)
    node.engine.multi_get = real_multi_get
    assert node.result_cache.stats.install_races == 1

    again = node.multi_get_topk([1, 2], 1, 0, WINDOW, SortType.TOTAL, 5)
    assert again[2].value
    assert repr(again[2].value) == repr(
        node.engine.get_profile_topk(2, 1, 0, WINDOW, SortType.TOTAL, 5)
    )


def test_clock_moving_mid_batch_keys_the_window_that_ran():
    """The miss batch runs at the ``now_ms`` its keys were resolved at.

    The clock advances while the batch executes; an engine reading its
    own clock would compute a later CURRENT window than the one the
    entries are keyed under.
    """
    span = 2 * MILLIS_PER_HOUR
    current = TimeRange.current(span)
    node = _make_node(SimulatedClock(start_ms=NOW_MS), durable=False)
    for profile_id in (1, 2):
        # Inside the window at NOW_MS, outside it an hour later.
        node.add_profile(profile_id, NOW_MS - span + 60_000, 1, 0, 7, {"like": 9})
        node.add_profile(profile_id, NOW_MS - 1000, 1, 0, 8, {"like": 1})
    node.merge_write_table()
    clock = node.clock
    real_topk = node.engine.get_profiles_topk
    real_multi_get = node.engine.multi_get

    def late(*args, **kwargs):
        clock.advance(MILLIS_PER_HOUR)
        return real_multi_get(*args, **kwargs)

    node.engine.multi_get = late
    served = node.multi_get_topk([1, 2], 1, 0, current, SortType.TOTAL, 5)
    node.engine.multi_get = real_multi_get

    ran = current.resolve(NOW_MS, None)
    later = current.resolve(clock.now_ms(), None)
    expected = real_topk(
        [1, 2], 1, 0, TimeRange.absolute(ran.start_ms, ran.end_ms),
        SortType.TOTAL, 5,
    )
    moved = real_topk(
        [1, 2], 1, 0, TimeRange.absolute(later.start_ms, later.end_ms),
        SortType.TOTAL, 5,
    )
    assert repr(expected) != repr(moved)  # The move changes the answer.
    fingerprint = query_fingerprint(
        node.engine.config, "topk", 1, 0, ran, sort_type=SortType.TOTAL, k=5
    )
    for profile_id in (1, 2):
        assert repr(served[profile_id].value) == repr(expected[profile_id])
        cached = node.result_cache.get(profile_id, fingerprint)
        assert repr(cached) == repr(expected[profile_id])
