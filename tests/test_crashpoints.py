"""Tests for the seeded crash-point harness itself."""

from repro.chaos.crashpoints import (
    BufferedKVStore,
    CrashingKVStore,
    CrashPointInjector,
    _build_rig,
    _execute,
    choose_crash_plan,
    plan_workload,
    run_schedule,
    run_teeth_proof,
)
from repro.errors import SimulatedCrashError
from repro.storage import InMemoryKVStore

SEEDS = range(4)
#: Enough seeds that each sabotage meets a schedule that exposes it.
TEETH_SEEDS = range(10)


class TestInjector:
    def test_counting_mode_records_visits(self):
        injector = CrashPointInjector()
        sink = bytearray()
        injector.write("wal.append", b"abcdef", sink.extend)
        injector.reach("wal.pre_fsync")
        assert sink == b"abcdef"
        assert injector.visits == {
            "wal.append": [6], "wal.pre_fsync": [-1]
        }
        assert not injector.fired

    def test_armed_write_tears_at_offset(self):
        injector = CrashPointInjector()
        injector.arm("wal.append", hit=1, byte_offset=2)
        sink = bytearray()
        injector.write("wal.append", b"first", sink.extend)
        try:
            injector.write("wal.append", b"second", sink.extend)
        except SimulatedCrashError as crash:
            assert crash.site == "wal.append"
        else:  # pragma: no cover
            raise AssertionError("crash did not fire")
        assert sink == b"firstse"  # Record 2 torn after 2 bytes.
        assert injector.fired

    def test_armed_reach_fires_once(self):
        injector = CrashPointInjector()
        injector.arm("checkpoint.commit", hit=0)
        try:
            injector.reach("checkpoint.commit")
        except SimulatedCrashError:
            pass
        injector.reach("checkpoint.commit")  # Dead process stays dead.

    def test_kv_store_crashes_before_armed_op(self):
        store = CrashingKVStore(InMemoryKVStore())
        store.arm(1)
        store.set(b"a", b"1")  # Op 0 completes.
        try:
            store.set(b"b", b"2")  # Op 1 dies before touching the store.
        except SimulatedCrashError:
            pass
        assert store.get(b"a") == b"1"
        assert store.get(b"b") is None


    def test_buffered_store_keeps_only_what_a_sync_covered(self):
        store = BufferedKVStore()
        store.set(b"a", b"1")
        store.sync()
        store.set(b"a", b"2")
        store.set(b"b", b"3")
        assert store.get(b"a") == b"2"  # Readable before any sync.
        store.crash()
        assert store.get(b"a") == b"1"
        assert store.get(b"b") is None


class TestPlanning:
    def test_workload_plan_is_seed_deterministic(self):
        assert plan_workload(7) == plan_workload(7)
        assert plan_workload(7) != plan_workload(8)

    def test_crash_plan_is_seed_deterministic(self):
        visits = {"wal.append": [30, 30, 30], "wal.pre_fsync": [-1, -1, -1]}
        assert choose_crash_plan(3, visits, 50) == choose_crash_plan(
            3, visits, 50
        )


    def test_workloads_reach_the_checkpoint_crash_points(self):
        """Between barrier flushes, after the store sync, around the
        barrier write — and the overflow path, on overflow schedules."""
        visited: set[str] = set()
        overflows = 0
        for seed in SEEDS:
            plan = plan_workload(seed)
            rig = _build_rig(plan, durable=True)
            assert _execute(plan, rig)[2] is None
            visited.update(rig.injector.visits)
            if plan.write_table_limit < 1024:
                overflows += rig.node.write_table.stats.overflow_syncs
        assert {
            "checkpoint.begin", "checkpoint.flush", "checkpoint.synced",
            "checkpoint.write", "checkpoint.commit", "checkpoint.post_commit",
            "wal.append", "wal.pre_fsync", "wal.truncate",
        } <= visited
        assert overflows > 0


class TestSchedules:
    def test_schedules_recover_all_acked_writes(self):
        for seed in SEEDS:
            result = run_schedule(seed)
            assert result.ok, f"seed {seed}: {result.failure}"

    def test_same_seed_is_byte_identical(self):
        assert run_schedule(2).line() == run_schedule(2).line()

    def test_teeth_without_wal_loss_is_caught(self):
        """Durability off: at least one seed must show detected loss."""
        losses = sum(not run_teeth_proof(seed).ok for seed in range(6))
        assert losses > 0

    def test_teeth_recovery_ignoring_the_stamp_is_caught(self):
        """Replaying the whole tail onto a value a post-barrier flush
        already wrote doubles counts; the oracle must see it."""
        assert not all(
            run_schedule(seed, sabotage="ignore_stamp").ok
            for seed in TEETH_SEEDS
        )

    def test_teeth_overflow_that_overtakes_is_caught(self):
        """Applying an overflow write ahead of older buffered writes lets
        a stamp claim records the value lacks; the oracle must see it."""
        assert not all(
            run_schedule(seed, sabotage="overtake").ok for seed in TEETH_SEEDS
        )
