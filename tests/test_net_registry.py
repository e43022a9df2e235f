"""Membership: heartbeat liveness, epochs, election, and ring rebalance.

The :class:`~repro.net.registry.NodeRegistry` core is clock-injected, so
eviction timelines and master re-election run on a
:class:`~repro.clock.SimulatedClock` — deterministic, no sleeps.  The
:class:`~repro.net.cluster.NetRegion` tests drive the same registry
object directly (it duck-types the ``members()`` surface of the socket
client) with a stub transport factory, proving the hash ring rebalances
on join/leave/eviction without opening a single socket.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.net.cluster import NetRegion
from repro.net.registry import NodeRegistry


@pytest.fixture
def registry(clock: SimulatedClock) -> NodeRegistry:
    return NodeRegistry(clock=clock, ttl_ms=1_000.0)


class TestLiveness:
    def test_register_and_members(self, registry):
        registry.register("w1", "127.0.0.1", 5001)
        registry.register("w0", "127.0.0.1", 5000)
        snapshot = registry.members()
        assert [m["node_id"] for m in snapshot["members"]] == ["w0", "w1"]
        assert snapshot["members"][0]["port"] == 5000

    def test_heartbeat_keeps_member_alive(self, registry, clock):
        generation = registry.register("w0", "h", 1)["generation"]
        for _ in range(5):
            clock.advance(800)  # each step < ttl, total far > ttl
            assert registry.heartbeat("w0", generation)
        assert [m.node_id for m in registry.live_members()] == ["w0"]

    def test_stale_member_evicted_after_ttl(self, registry, clock):
        registry.register("w0", "h", 1)
        generation = registry.register("w1", "h", 2)["generation"]
        clock.advance(999)
        registry.heartbeat("w1", generation)
        clock.advance(2)  # w0 now 1001ms stale, w1 fresh
        assert [m.node_id for m in registry.live_members()] == ["w1"]
        assert registry.evictions == 1

    def test_heartbeat_with_stale_generation_rejected(self, registry, clock):
        old = registry.register("w0", "h", 1)["generation"]
        clock.advance(2_000)
        registry.sweep()  # w0 evicted
        new = registry.register("w0", "h", 1)["generation"]
        assert new != old
        # The zombie's heartbeat must not shadow the re-registration.
        assert not registry.heartbeat("w0", old)
        assert registry.heartbeat("w0", new)

    def test_heartbeat_for_unknown_node_requests_reregistration(self, registry):
        assert not registry.heartbeat("ghost", 1)

    def test_deregister(self, registry):
        registry.register("w0", "h", 1)
        assert registry.deregister("w0")
        assert not registry.deregister("w0")
        assert registry.live_members() == []


class TestEpoch:
    def test_epoch_moves_only_on_membership_change(self, registry, clock):
        epoch0 = registry.epoch
        generation = registry.register("w0", "h", 1)["generation"]
        epoch1 = registry.epoch
        assert epoch1 > epoch0
        clock.advance(100)
        registry.heartbeat("w0", generation)
        registry.members()
        assert registry.epoch == epoch1  # steady state: no bump
        registry.register("w1", "h", 2)
        epoch2 = registry.epoch
        assert epoch2 > epoch1
        registry.deregister("ghost")  # unknown node: not a change
        assert registry.epoch == epoch2
        registry.deregister("w1")
        assert registry.epoch > epoch2

    def test_eviction_bumps_epoch(self, registry, clock):
        registry.register("w0", "h", 1)
        before = registry.epoch
        clock.advance(5_000)
        assert registry.sweep() == ["w0"]
        assert registry.epoch > before


class TestMasterElection:
    def test_lowest_live_node_id_is_master(self, registry):
        for node_id in ("w2", "w0", "w1"):
            registry.register(node_id, "h", 1)
        assert registry.master() == "w0"
        assert registry.members()["master"] == "w0"

    def test_master_reelection_after_master_death(self, registry, clock):
        generations = {
            node_id: registry.register(node_id, "h", 1)["generation"]
            for node_id in ("w0", "w1", "w2")
        }
        clock.advance(800)
        # Everyone but the master heartbeats; the master died silently.
        registry.heartbeat("w1", generations["w1"])
        registry.heartbeat("w2", generations["w2"])
        clock.advance(300)  # w0 crosses the TTL
        assert registry.master() == "w1"  # next-lowest survivor wins

    def test_master_reelection_is_deterministic(self, registry, clock):
        # Two observers of the same membership name the same master.
        for node_id in ("w3", "w1", "w4"):
            registry.register(node_id, "h", 1)
        assert registry.master() == registry.members()["master"] == "w1"
        registry.deregister("w1")
        assert registry.master() == registry.members()["master"] == "w3"

    def test_no_members_no_master(self, registry):
        assert registry.master() is None
        assert registry.members()["master"] is None


class _StubTransport:
    """Transport stand-in: records identity, never opens a socket."""

    def __init__(self, node_id, host, port):
        self.node_id = node_id
        self.host = host
        self.port = port
        self.closed = False
        self.stats = None

    def call(self, method, *args, **kwargs):  # pragma: no cover - unused
        raise AssertionError("stub transport should never be called")

    def close(self):
        self.closed = True


def _make_region(registry):
    return NetRegion(
        registry,
        refresh_interval_ms=0.0,  # poll every node_for in tests
        transport_factory=_StubTransport,
    )


class TestNetRegionRebalance:
    def test_ring_covers_initial_membership(self, registry):
        for node_id in ("w0", "w1", "w2"):
            registry.register(node_id, "h", 9000)
        region = _make_region(registry)
        owners = {region.node_for(pid).node_id for pid in range(200)}
        assert owners == {"w0", "w1", "w2"}

    def test_join_rebalances_ring(self, registry):
        registry.register("w0", "h", 1)
        region = _make_region(registry)
        assert {region.node_for(pid).node_id for pid in range(50)} == {"w0"}
        registry.register("w1", "h", 2)
        owners = {region.node_for(pid).node_id for pid in range(200)}
        assert owners == {"w0", "w1"}

    def test_leave_rebalances_and_closes_transport(self, registry):
        for node_id in ("w0", "w1"):
            registry.register(node_id, "h", 1)
        region = _make_region(registry)
        region.refresh(force=True)
        dropped = region.nodes["w1"].transport
        registry.deregister("w1")
        owners = {region.node_for(pid).node_id for pid in range(200)}
        assert owners == {"w0"}
        assert dropped.closed

    def test_heartbeat_timeout_eviction_reroutes(self, registry, clock):
        generations = {
            node_id: registry.register(node_id, "h", 1)["generation"]
            for node_id in ("w0", "w1")
        }
        region = _make_region(registry)
        # Find a profile id currently owned by w1, then let w1 go stale.
        victim_pid = next(
            pid for pid in range(1_000)
            if region.node_for(pid).node_id == "w1"
        )
        clock.advance(800)
        registry.heartbeat("w0", generations["w0"])
        clock.advance(300)  # w1 stale, w0 alive
        assert region.node_for(victim_pid).node_id == "w0"

    def test_unchanged_member_keeps_its_transport(self, registry):
        registry.register("w0", "h", 1)
        region = _make_region(registry)
        original = region.nodes["w0"].transport
        registry.register("w1", "h", 2)  # membership change, w0 unchanged
        region.refresh(force=True)
        assert region.nodes["w0"].transport is original
        assert not original.closed

    def test_reregistered_member_gets_fresh_transport(self, registry):
        registry.register("w0", "h", 1)
        region = _make_region(registry)
        original = region.nodes["w0"].transport
        registry.deregister("w0")
        registry.register("w0", "h", 2)  # same id, new port
        region.refresh(force=True)
        replacement = region.nodes["w0"].transport
        assert replacement is not original
        assert original.closed and replacement.port == 2

    def test_steady_state_does_not_rebuild(self, registry):
        registry.register("w0", "h", 1)
        region = _make_region(registry)
        refreshes = region.refreshes
        for pid in range(100):
            region.node_for(pid)
        assert region.refreshes == refreshes  # epoch never moved
        registry.register("w1", "h", 2)
        for pid in range(100):
            region.node_for(pid)
        assert region.refreshes == refreshes + 1  # one rebuild per move


@pytest.fixture
def replicated(clock: SimulatedClock) -> NodeRegistry:
    return NodeRegistry(
        clock=clock, ttl_ms=1_000.0, replication_factor=2,
        tombstone_ttl_ms=10_000.0,
    )


class TestRosterAndPromotion:
    def test_factor_validated_and_published(self, clock):
        with pytest.raises(ValueError, match="replication_factor"):
            NodeRegistry(clock=clock, replication_factor=0)
        registry = NodeRegistry(clock=clock, replication_factor=2)
        reply = registry.register("w0", "h", 1)
        assert reply["replication_factor"] == 2
        assert registry.members()["replication_factor"] == 2

    def test_eviction_tombstones_keep_the_roster_stable(
        self, replicated, clock
    ):
        replicated.register("w0", "h", 1)
        generation = replicated.register("w1", "h", 2)["generation"]
        clock.advance(800)
        replicated.heartbeat("w1", generation)
        clock.advance(300)  # w0 stale
        snapshot = replicated.members()
        assert [m["node_id"] for m in snapshot["members"]] == ["w1"]
        roster = {e["node_id"]: e["live"] for e in snapshot["roster"]}
        assert roster == {"w0": False, "w1": True}

    def test_eviction_with_survivors_counts_a_promotion(
        self, replicated, clock
    ):
        replicated.register("w0", "h", 1)
        generation = replicated.register("w1", "h", 2)["generation"]
        clock.advance(800)
        replicated.heartbeat("w1", generation)
        clock.advance(300)
        replicated.sweep()
        assert replicated.promotions == 1
        assert replicated.promotion_log[-1][0] == "w0"
        assert replicated.members()["promotions"] == 1

    def test_last_member_dying_is_an_outage_not_a_promotion(
        self, replicated, clock
    ):
        replicated.register("w0", "h", 1)
        clock.advance(2_000)
        replicated.sweep()
        assert replicated.evictions == 1
        assert replicated.promotions == 0

    def test_reregistration_clears_the_tombstone(self, replicated, clock):
        replicated.register("w0", "h", 1)
        replicated.register("w1", "h", 2)
        clock.advance(2_000)
        replicated.sweep()  # both evicted
        replicated.register("w0", "h", 1)
        roster = {
            e["node_id"]: e["live"]
            for e in replicated.members()["roster"]
        }
        assert roster == {"w0": True, "w1": False}

    def test_tombstone_expires_after_ttl_and_bumps_epoch(
        self, replicated, clock
    ):
        replicated.register("w0", "h", 1)
        generation = replicated.register("w1", "h", 2)["generation"]
        clock.advance(1_100)
        replicated.heartbeat("w1", generation)  # sweeps: w0 tombstoned
        assert any(
            e["node_id"] == "w0" and not e["live"]
            for e in replicated.members()["roster"]
        )
        epoch_before = replicated.epoch
        # Keep w1 alive in sub-TTL steps until the tombstone TTL (10s)
        # elapses; placement then finally forgets w0.
        for _ in range(14):
            clock.advance(800)
            replicated.heartbeat("w1", generation)
        assert all(
            e["node_id"] != "w0" for e in replicated.members()["roster"]
        )
        assert replicated.epoch > epoch_before

    def test_heartbeat_reports_republished_and_gauged(self, replicated):
        from repro.obs.registry import MetricsRegistry

        generation = replicated.register("w0", "h", 1)["generation"]
        replicated.register("w1", "h", 2)
        report = {
            "lag": {"w1": 7}, "handoff_depth": 3, "last_seq": 40,
            "delta_bytes": 900, "repair_bytes": 120,
        }
        assert replicated.heartbeat("w0", generation, report=report)
        assert replicated.members()["reports"]["w0"] == report
        assert replicated.replica_lag() == {"w0": {"w1": 7}}
        metrics = MetricsRegistry()
        replicated.publish_metrics(metrics)
        lag = metrics.gauge(
            "replication_lag_ops", layer="net", node="w0", peer="w1"
        )
        assert lag.value == 7
        assert metrics.gauge(
            "replication_handoff_depth", node="w0"
        ).value == 3


class TestChurnKeepsRangesCovered:
    """Membership churn with R=2: every range keeps >= 1 live holder."""

    def _owner_sets(self, registry, factor=2, keys=200):
        from repro.cluster.hashring import ConsistentHashRing

        snapshot = registry.members()
        ring = ConsistentHashRing(64)
        for entry in snapshot["roster"]:
            ring.add_node(entry["node_id"])
        live = {m["node_id"] for m in snapshot["members"]}
        return {
            pid: set(ring.nodes_for(pid, factor))
            for pid in range(keys)
        }, live

    def test_join_leave_mid_churn_never_drops_a_range_dark(
        self, replicated, clock
    ):
        generations = {
            node_id: replicated.register(node_id, "h", 1)["generation"]
            for node_id in ("w0", "w1", "w2")
        }
        previous, live = self._owner_sets(replicated)
        # Churn: a join, a crash-eviction, and a graceful leave, with the
        # owner sets recomputed after every step.
        def beat(*node_ids):
            for node_id in node_ids:
                replicated.heartbeat(node_id, generations[node_id])

        generations["w3"] = replicated.register("w3", "h", 4)["generation"]

        def crash_w0():
            # Survivors beat in sub-TTL steps; w0 falls silent and is
            # evicted once its last beat is > ttl old.
            for _ in range(2):
                clock.advance(600)
                beat("w1", "w2", "w3")

        steps = [
            crash_w0,
            lambda: replicated.deregister("w2"),
            lambda: (clock.advance(500), beat("w1", "w3")),
        ]
        for step in steps:
            step()
            owners, live = self._owner_sets(replicated)
            for pid, owner_set in owners.items():
                assert owner_set & live, (
                    f"key {pid} lost every live holder: {owner_set}"
                )
                # Placement moves gradually: consecutive owner sets always
                # overlap, so at least one holder carries the data across
                # the transition (no epoch where all copies are new).
                assert owner_set & previous[pid], (
                    f"key {pid} owner set fully replaced in one epoch"
                )
            previous = owners
