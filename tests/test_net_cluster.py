"""Real worker processes: durability, churn, election, and failover.

Everything here spawns actual ``repro.net.worker`` OS processes behind
real TCP sockets — the point of the exercise.  The suite covers the two
shutdown contracts (SIGTERM must lose **zero acked writes** via the
ordered graceful sequence; SIGKILL must lose zero acked writes via WAL
replay on restart), membership churn (join/leave rebalance, heartbeat-
timeout eviction, deterministic master re-election), and the chaos
engine's SIGKILL-mid-traffic failover with the resilient client.

Workers start with ``IPS_KERNEL_DISABLE_NUMPY=1`` purely to keep
subprocess cold-start cheap; nothing here exercises the columnar path.
Profile timestamps are real wall-clock because the workers run on
:class:`~repro.clock.SystemClock` — ancient timestamps would age out
under the maintenance loop's truncation bands.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.clock import SystemClock
from repro.chaos.engine import ChaosEvent
from repro.chaos.process import ProcessChaosEngine
from repro.cluster.resilience import ResilienceConfig
from repro.core.timerange import TimeRange
from repro.monitoring import ClusterMonitor
from repro.net.cluster import ProcessCluster

WORKER_ENV = {"IPS_KERNEL_DISABLE_NUMPY": "1"}
#: One maintenance interval (100ms) plus generous scheduling slack.
MERGE_WAIT_S = 0.4


@pytest.fixture
def make_cluster(tmp_path, process_tracker):
    clusters = []

    def _make(num_workers: int, **kwargs) -> ProcessCluster:
        kwargs.setdefault("worker_env", WORKER_ENV)
        cluster = ProcessCluster(
            num_workers, tmp_path / f"cluster{len(clusters)}", **kwargs
        )
        process_tracker.add(cluster)
        clusters.append(cluster)
        cluster.wait_for_members(num_workers)
        return cluster

    yield _make
    for cluster in clusters:
        cluster.shutdown()


def _now_ms() -> int:
    return int(SystemClock().now_ms())


def _window(now_ms: int) -> TimeRange:
    return TimeRange.absolute(now_ms - 60_000, now_ms + 60_000)


def _write(client, profile_id: int, now_ms: int, count: int = 1) -> None:
    client.add_profiles(
        profile_id, now_ms, 0, 1, [500 + profile_id % 7], [(count, 0, 0)]
    )


def _read_ok(client, profile_ids, window) -> dict[int, list]:
    """profile_id -> rows for every key that read back non-empty."""
    outcome = client.multi_get_topk(list(profile_ids), 0, 1, window, k=10)
    return {
        result.profile_id: result.value
        for result in outcome.results
        if result.ok and result.value
    }


def _poll(predicate, timeout_s: float, what: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise TimeoutError(f"timed out waiting for {what}")


class TestEndToEnd:
    def test_writes_read_back_across_real_processes(self, make_cluster):
        cluster = make_cluster(2)
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(40):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)
        served = _read_ok(client, range(40), _window(now))
        assert sorted(served) == list(range(40))
        stats = cluster.fleet_stats()
        assert sorted(stats) == ["w00", "w01"]
        # Distinct pids: these are real processes, not threads.
        assert stats["w00"]["pid"] != stats["w01"]["pid"]
        # The ring actually spread the writes across both processes.
        assert stats["w00"]["writes"] > 0 and stats["w01"]["writes"] > 0

        # The monitor that reads an in-process cluster reads this one too:
        # same dict, asked over each worker's node_stats admin RPC.
        monitor = ClusterMonitor(cluster.deployment())

        def idle_pair():
            before = cluster.fleet_stats()
            snapshot = monitor.snapshot()
            return (before, snapshot) if cluster.fleet_stats() == before else None

        stats, snapshot = _poll(idle_pair, 5.0, "the fleet to sit idle")
        assert [node.node_id for node in snapshot.nodes] == ["w00", "w01"]
        for node in snapshot.nodes:
            for key, value in stats[node.node_id].items():
                if key == "connections":
                    # A gauge that counts the asker's own socket: each
                    # fleet_stats poll dials one, the monitor reuses its own.
                    assert 1 <= getattr(node, key) <= value
                    continue
                assert getattr(node, key) == value, (node.node_id, key)
        assert snapshot.writes == 40
        report = monitor.report()
        assert "2 nodes" in report
        for node_id in ("w00", "w01"):
            assert f"{node_id}: pid={stats[node_id]['pid']} " in report

        cluster.kill_worker("w01")
        survivors = monitor.snapshot()
        assert [node.node_id for node in survivors.nodes] == ["w00"]


class TestShutdownDurability:
    def test_sigterm_loses_zero_acked_writes(self, make_cluster):
        """Satellite contract: graceful = checkpoint + WAL flush, then exit."""
        cluster = make_cluster(1)
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(30):
            _write(client, profile_id, now, count=profile_id + 1)
        # No merge wait on purpose: the acked writes may still be sitting
        # in the isolation write table when SIGTERM lands.
        assert cluster.terminate_worker("w00") == 0  # clean exit
        cluster.restart_worker("w00")
        cluster.wait_for_members(1)
        served = _read_ok(cluster.client(), range(30), _window(now))
        assert sorted(served) == list(range(30))
        # Counts too — the writes survived whole, not just the keys.
        assert all(
            rows[0].counts[0] == profile_id + 1
            for profile_id, rows in served.items()
        )

    def test_sigkill_recovers_acked_writes_from_wal(self, make_cluster):
        cluster = make_cluster(1)
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(20):
            _write(client, profile_id, now, count=7)
        registry = cluster.registry_server.registry
        old_port = registry.members()["members"][0]["port"]
        cluster.kill_worker("w00")  # no flush, no checkpoint
        cluster.restart_worker("w00")
        # SIGKILL leaves the stale registration in place until the TTL
        # fires; wait for the *new* process's registration (fresh port),
        # not merely for a member row to exist.
        _poll(
            lambda: any(
                m["port"] != old_port
                for m in registry.members()["members"]
            ),
            15.0, "the restarted worker to re-register",
        )
        served = _read_ok(cluster.client(), range(20), _window(now))
        assert sorted(served) == list(range(20))
        assert all(rows[0].counts[0] == 7 for rows in served.values())


    def test_repeated_sigterm_still_exits_zero_with_no_loss(
        self, make_cluster
    ):
        """A second SIGTERM 50 ms after the first — and then one every few
        milliseconds until the process is gone, so some land in interpreter
        finalization — must not turn the clean exit into -15."""
        cluster = make_cluster(1)
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(30):
            _write(client, profile_id, now, count=profile_id + 1)
        proc = cluster.processes()["w00"]
        proc.terminate()
        time.sleep(0.05)
        deadline = time.monotonic() + 15.0
        while proc.poll() is None and time.monotonic() < deadline:
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.0005)
        assert proc.wait(timeout=1.0) == 0
        cluster.restart_worker("w00")
        cluster.wait_for_members(1)
        served = _read_ok(cluster.client(), range(30), _window(now))
        assert {
            profile_id: rows[0].counts[0] for profile_id, rows in served.items()
        } == {profile_id: profile_id + 1 for profile_id in range(30)}

    def test_non_graceful_shutdown_kills_at_once(self, make_cluster):
        cluster = make_cluster(2)
        started = time.monotonic()
        codes = cluster.shutdown(graceful=False)
        assert time.monotonic() - started < 2.0
        assert codes == {"w00": -9, "w01": -9}


class TestMembershipChurn:
    def test_join_expands_the_ring(self, make_cluster):
        cluster = make_cluster(1)
        region = cluster.region(refresh_interval_ms=0.0)
        assert set(region.nodes) == {"w00"}
        cluster.spawn_worker("w01")
        cluster.wait_for_members(2)
        _poll(
            lambda: region.refresh() or set(region.nodes) == {"w00", "w01"},
            5.0, "region to see the joined worker",
        )
        owners = {region.node_for(pid).node_id for pid in range(300)}
        assert owners == {"w00", "w01"}
        # The grown topology serves writes and reads end to end.
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(20):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)
        assert sorted(_read_ok(client, range(20), _window(now))) == list(range(20))

    def test_graceful_leave_deregisters_immediately(self, make_cluster):
        cluster = make_cluster(2, ttl_ms=30_000.0)  # TTL can't save this test
        assert cluster.terminate_worker("w01") == 0
        # Deregistration is part of the graceful sequence — membership
        # shrinks right away, long before any heartbeat TTL could fire.
        members = cluster.registry_server.registry.members()
        assert [m["node_id"] for m in members["members"]] == ["w00"]

    def test_heartbeat_timeout_evicts_killed_worker(self, make_cluster):
        cluster = make_cluster(2)  # ttl 1.5s, heartbeat 200ms
        registry = cluster.registry_server.registry
        cluster.kill_worker("w01")  # SIGKILL: no deregistration happens
        _poll(
            lambda: [m["node_id"] for m in registry.members()["members"]]
            == ["w00"],
            10.0, "TTL eviction of the killed worker",
        )
        assert registry.evictions >= 1
        # Traffic keeps flowing on the survivor via rerouting.
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(10):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)
        assert sorted(_read_ok(client, range(10), _window(now))) == list(range(10))

    def test_master_reelection_after_master_kill(self, make_cluster):
        cluster = make_cluster(3)
        registry = cluster.registry_server.registry
        assert registry.members()["master"] == "w00"
        cluster.kill_worker("w00")  # the master dies ungracefully
        _poll(
            lambda: registry.members()["master"] == "w01",
            10.0, "master re-election after the master died",
        )
        # Deterministic: the next-lowest live node id, on every observer.
        assert registry.master() == "w01"
        region = cluster.region()
        assert region.master == "w01"


class TestChaosFailover:
    def test_sigkill_mid_traffic_stays_under_one_percent_errors(
        self, make_cluster
    ):
        cluster = make_cluster(2)
        client = cluster.client(
            resilience=ResilienceConfig(deadline_ms=4_000.0)
        )
        now = _now_ms()
        for profile_id in range(60):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)

        chaos = ProcessChaosEngine(cluster)
        chaos.schedule(
            ChaosEvent(
                start_ms=300, duration_ms=1_200,
                kind="node_crash", target="w01",
            )
        )
        chaos.start()
        keys = errors = 0
        window = _window(now)
        while chaos.elapsed_ms < 1_800:
            chaos.tick()
            outcome = client.multi_get_topk(
                [k % 60 for k in range(keys, keys + 16)], 0, 1, window, k=5
            )
            for result in outcome.results:
                keys += 1
                if not result.ok:
                    errors += 1
        chaos.finish()  # restarts the victim
        assert chaos.fault_counts()["node_crash"] == 1
        assert keys > 0
        assert errors / keys < 0.01, f"{errors}/{keys} errors"
        cluster.wait_for_members(2)  # the restarted worker re-registers

    def test_other_fault_kinds_are_rejected(self, make_cluster):
        cluster = make_cluster(1)
        chaos = ProcessChaosEngine(cluster)
        with pytest.raises(ValueError, match="node_crash"):
            chaos.schedule(
                ChaosEvent(
                    start_ms=0, duration_ms=10,
                    kind="rpc_latency", target="w00", magnitude=5.0,
                )
            )
        with pytest.raises(ValueError, match="target"):
            chaos.schedule(
                ChaosEvent(
                    start_ms=0, duration_ms=10,
                    kind="node_crash", target=None,
                )
            )


def _converge(cluster: ProcessCluster, max_sweeps: int = 20) -> int:
    """Drain delta queues, then repair until two peer sweeps ship zero.

    ``repair_round`` round-robins over live peers, so one zero-byte round
    only proves the peer *polled that round* was in sync.  A sweep of
    ``live - 1`` rounds covers every peer, and two clean sweeps in a row
    (the background repair loop can interleave and skew the rotation)
    mean the fleet is converged.
    """
    cluster.wait_for_replication_drain(20.0)
    total = 0
    clean = 0
    for _ in range(max_sweeps):
        live = len(cluster.replication_stats())
        shipped = sum(
            sweep_stats.get("bytes", 0)
            for sweep_stats in cluster.repair_now(max(1, live - 1)).values()
        )
        total += shipped
        clean = clean + 1 if shipped == 0 else 0
        if clean >= 2:
            return total
    raise AssertionError(
        f"repair did not converge in {max_sweeps} sweeps ({total} bytes)"
    )


class TestReplicatedFailover:
    """``replication_factor=2``: §III-G stale-but-available over real processes.

    The roster ring (live members plus tombstones) places one primary and
    one replica per key; the live ring routes clients, so the failover
    successor of a dead primary *is* its replica and promotion is pure
    registry bookkeeping.  These tests pin the layers the failover bench
    exercises end to end: stable per-node data dirs, replica reads while
    the primary corpse is still cold, hinted handoff on rejoin, and
    anti-entropy bootstrap of a fresh joiner.
    """

    def test_restart_reuses_stable_data_dir(self, make_cluster):
        """Satellite contract: data dirs are keyed by node id, not spawn order."""
        cluster = make_cluster(2, replication_factor=2)
        client = cluster.client()
        now = _now_ms()
        for profile_id in range(20):
            _write(client, profile_id, now, count=3)
        registry = cluster.registry_server.registry
        old_port = {
            m["node_id"]: m["port"] for m in registry.members()["members"]
        }["w01"]
        cluster.kill_worker("w01")
        before = set(p.name for p in (cluster.data_root / "w01").iterdir())
        cluster.restart_worker("w01")
        _poll(
            lambda: any(
                m["node_id"] == "w01" and m["port"] != old_port
                for m in registry.members()["members"]
            ),
            15.0, "the restarted worker to re-register",
        )
        # The restart reopened the same dir — no second dir was minted and
        # the WAL/state files written by the first incarnation are intact.
        worker_dirs = sorted(
            p.name for p in cluster.data_root.iterdir()
            if p.is_dir() and p.name.startswith("w")
        )
        assert worker_dirs == ["w00", "w01"]
        after = set(p.name for p in (cluster.data_root / "w01").iterdir())
        assert before <= after
        served = _read_ok(cluster.client(), range(20), _window(now))
        assert sorted(served) == list(range(20))

    def test_add_worker_never_reuses_a_dead_workers_id(self, make_cluster):
        cluster = make_cluster(2)
        registry = cluster.registry_server.registry
        cluster.kill_worker("w01")
        # The corpse might still rejoin over its own data dir, so the
        # joiner must be allocated *past* it, never in its place.
        assert cluster.add_worker() == "w02"
        _poll(
            lambda: "w02" in [
                m["node_id"] for m in registry.members()["members"]
            ],
            10.0, "the joiner to register",
        )
        assert (cluster.data_root / "w01").is_dir()
        assert (cluster.data_root / "w02").is_dir()

    def test_replica_serves_victims_range_while_primary_dead(
        self, make_cluster
    ):
        """No restart, no repair: the replica alone must keep every key lit."""
        cluster = make_cluster(3, replication_factor=2)
        client = cluster.client(
            resilience=ResilienceConfig(deadline_ms=4_000.0)
        )
        now = _now_ms()
        for profile_id in range(40):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)
        _converge(cluster)
        registry = cluster.registry_server.registry
        promotions_before = registry.promotions
        cluster.kill_worker(cluster.primary_for(0))
        _poll(
            lambda: len(registry.members()["members"]) == 2,
            10.0, "TTL eviction of the dead primary",
        )
        served = _read_ok(client, range(40), _window(now))
        assert sorted(served) == list(range(40))
        # Eviction with live replicas is a promotion, not an outage.
        assert registry.promotions > promotions_before

    def test_hinted_handoff_drains_into_the_rejoining_worker(
        self, make_cluster
    ):
        cluster = make_cluster(2, replication_factor=2)
        client = cluster.client(
            resilience=ResilienceConfig(deadline_ms=4_000.0)
        )
        registry = cluster.registry_server.registry
        cluster.kill_worker("w01")
        _poll(
            lambda: [m["node_id"] for m in registry.members()["members"]]
            == ["w00"],
            10.0, "TTL eviction of the killed worker",
        )
        time.sleep(MERGE_WAIT_S)  # survivor's roster view catches up
        now = _now_ms()
        for profile_id in range(10):
            _write(client, profile_id, now)
        # The dead peer still owns the keys on the roster ring, so its
        # deltas queue as hints instead of being dropped.
        _poll(
            lambda: cluster.replication_stats()["w00"]["handoff_depth"] >= 10,
            10.0, "writes to queue as hints for the dead peer",
        )
        cluster.restart_worker("w01")
        cluster.wait_for_members(2)
        cluster.wait_for_replication_drain(20.0)

        def drained():
            stats = cluster.replication_stats()
            return (
                stats["w00"]["handoff_depth"] == 0
                and stats["w00"]["hints_drained"] >= 10
                and stats.get("w01", {}).get("applies", 0) >= 10
            )

        _poll(drained, 15.0, "hinted handoff to drain into the rejoiner")

    def test_join_then_crash_keeps_every_key_lit(self, make_cluster):
        """Anti-entropy bootstraps the joiner, so a crash right after a
        rebalance still leaves every range with a live data holder."""
        cluster = make_cluster(2, replication_factor=2)
        client = cluster.client(
            resilience=ResilienceConfig(deadline_ms=4_000.0)
        )
        now = _now_ms()
        for profile_id in range(40):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)
        _converge(cluster)
        joiner = cluster.add_worker()
        cluster.wait_for_members(3)
        time.sleep(MERGE_WAIT_S)  # membership reaches every worker
        _converge(cluster)  # bootstrap the joiner's share of moved ranges
        installs = cluster.replication_stats()[joiner]["installs"]
        assert installs > 0, "repair never bootstrapped the joiner"
        # Mid-churn traffic keeps flowing and replicating.
        for profile_id in range(40, 50):
            _write(client, profile_id, now)
        time.sleep(MERGE_WAIT_S)
        _converge(cluster)
        registry = cluster.registry_server.registry
        cluster.kill_worker("w00")
        _poll(
            lambda: len(registry.members()["members"]) == 2,
            10.0, "TTL eviction of the crashed worker",
        )
        served = _read_ok(client, range(50), _window(now))
        assert sorted(served) == list(range(50))
