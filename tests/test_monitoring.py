"""Tests for the cluster monitoring rollups."""

import pytest

from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.cluster import IPSCluster
from repro.config import TableConfig
from repro.core.timerange import TimeRange
from repro.monitoring import ClusterMonitor

NOW = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(MILLIS_PER_DAY)


@pytest.fixture
def cluster():
    config = TableConfig(name="t", attributes=("click",))
    return IPSCluster(config, num_nodes=3, clock=SimulatedClock(NOW))


class TestSnapshots:
    def test_snapshot_covers_every_node(self, cluster):
        monitor = ClusterMonitor(cluster)
        snapshot = monitor.snapshot()
        assert len(snapshot.nodes) == 3
        assert {node.region for node in snapshot.nodes} == {"local"}

    def test_counters_roll_up(self, cluster):
        client = cluster.client("app")
        for profile_id in range(30):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        cluster.run_background_cycle()
        for profile_id in range(30):
            client.get_profile_topk(profile_id, 1, 0, WINDOW, k=1)
        monitor = ClusterMonitor(cluster)
        snapshot = monitor.snapshot()
        assert snapshot.writes == 30
        assert snapshot.reads == 30
        assert snapshot.resident_profiles == 30
        assert 0.0 <= snapshot.memory_ratio < 1.0

    def test_hit_ratio_rollup(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        cluster.run_background_cycle()
        for _ in range(10):
            client.get_profile_topk(1, 1, 0, WINDOW, k=1)
        snapshot = ClusterMonitor(cluster).snapshot()
        assert snapshot.hit_ratio > 0.5

    def test_quota_rejections_surface(self, cluster):
        from repro.errors import QuotaExceededError

        node = next(iter(cluster.region.nodes.values()))
        node.quota.set_quota("greedy", qps=10, burst=1)
        client = cluster.client("greedy")
        client.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        rejections = 0
        for _ in range(20):
            try:
                client.get_profile_topk(1, 1, 0, WINDOW, k=1)
            except QuotaExceededError:
                rejections += 1
        snapshot = ClusterMonitor(cluster).snapshot()
        if rejections:
            assert snapshot.quota_rejections > 0

    def test_durability_counters_surface(self, cluster):
        from repro.server.recovery import attach_memory_durability

        for node in cluster.region.nodes.values():
            attach_memory_durability(node)
        client = cluster.client("app")
        for profile_id in range(12):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        for node in cluster.region.nodes.values():
            node.crash()
            node.recover()
        snapshot = ClusterMonitor(cluster).snapshot()
        assert sum(node.wal_appends for node in snapshot.nodes) == 12
        assert snapshot.wal_replay_lag == 12  # Nothing checkpointed yet.
        assert snapshot.recoveries == 3
        assert "durability:" in ClusterMonitor(cluster).report()

    def test_durability_counters_default_zero(self, cluster):
        snapshot = ClusterMonitor(cluster).snapshot()
        assert snapshot.wal_replay_lag == 0
        assert snapshot.recoveries == 0
        assert "durability:" not in ClusterMonitor(cluster).report()


class TestSeries:
    def test_sample_builds_rate_series(self, cluster):
        client = cluster.client("app")
        monitor = ClusterMonitor(cluster)
        monitor.sample()  # Baseline.
        for step in range(5):
            for profile_id in range(10):
                client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
            cluster.clock.advance(1000)
            monitor.sample()
        qps = monitor.series["write_qps"]
        assert len(qps) == 5
        assert all(value == pytest.approx(10.0) for value in qps.values())

    def test_gauge_series_always_appended(self, cluster):
        monitor = ClusterMonitor(cluster)
        monitor.sample()
        monitor.sample()
        assert len(monitor.series["memory_ratio"]) == 2
        assert len(monitor.series["hit_ratio"]) == 2

    def test_report_is_renderable(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        report = ClusterMonitor(cluster).report()
        assert "cluster @" in report
        assert "local-node-0" in report

    def test_rates_survive_membership_changes(self, cluster):
        """Removing a node (scale-down) must not produce negative rates."""
        from repro.cluster.autoscaler import AutoScaler, ScalingPolicy

        client = cluster.client("app")
        monitor = ClusterMonitor(cluster)
        for profile_id in range(30):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        cluster.run_background_cycle()
        for profile_id in range(30):
            client.get_profile_topk(profile_id, 1, 0, WINDOW, k=1)
        monitor.sample()  # Baseline with 3 nodes.
        scaler = AutoScaler(
            cluster.region,
            ScalingPolicy(node_capacity_qps=1000, min_nodes=1,
                          max_nodes=8, cooldown_ticks=0),
        )
        scaler.tick(observed_qps=1)  # Scale down: one node's counters vanish.
        cluster.clock.advance(1000)
        monitor.sample()
        assert all(value >= 0 for value in monitor.series["read_qps"].values())
        assert all(value >= 0 for value in monitor.series["write_qps"].values())

    def test_new_node_counts_from_zero(self, cluster):
        from repro.cluster.autoscaler import AutoScaler, ScalingPolicy

        client = cluster.client("app")
        monitor = ClusterMonitor(cluster)
        monitor.sample()
        scaler = AutoScaler(
            cluster.region,
            ScalingPolicy(node_capacity_qps=10, min_nodes=1,
                          max_nodes=8, cooldown_ticks=0),
        )
        scaler.tick(observed_qps=10_000)  # Scale up.
        for profile_id in range(20):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        cluster.clock.advance(1000)
        monitor.sample()
        # Exactly 20 writes per second counted, including any landing on
        # the new node.
        assert monitor.series["write_qps"].values()[-1] == 20.0

    def test_rates_survive_join_and_leave_in_one_interval(self, cluster):
        """A node joining while another leaves still yields sane rates."""
        from repro.cluster.autoscaler import AutoScaler, ScalingPolicy

        client = cluster.client("app")
        monitor = ClusterMonitor(cluster)
        for profile_id in range(12):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        monitor.sample()  # Baseline: 3 nodes with counters.
        scaler = AutoScaler(
            cluster.region,
            ScalingPolicy(node_capacity_qps=1000, min_nodes=1,
                          max_nodes=8, cooldown_ticks=0),
        )
        scaler.tick(observed_qps=1)        # One node leaves...
        scaler.tick(observed_qps=10_000)   # ...and new ones join.
        for profile_id in range(12):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        cluster.clock.advance(1000)
        monitor.sample()
        values = monitor.series["write_qps"].values()
        assert all(value >= 0 for value in values)
        # The 12 new writes are counted at most once each (a leave must
        # not double-count and a join must not inflate).
        assert values[-1] <= 12.0


class TestNodeSnapshotRatios:
    def test_memory_ratio_with_zero_capacity(self):
        """capacity == 0 (test doubles, pre-sizing nodes) must not divide."""
        from repro.monitoring import NodeSnapshot

        snapshot = NodeSnapshot(
            node_id="n0", region="local", memory_bytes=123,
            cache_capacity_bytes=0, resident=1,
        )
        assert snapshot.memory_ratio == 0.0

    def test_memory_ratio_normal(self):
        from repro.monitoring import NodeSnapshot

        snapshot = NodeSnapshot(
            node_id="n0", region="local", memory_bytes=50,
            cache_capacity_bytes=200, resident=1,
        )
        assert snapshot.memory_ratio == 0.25


class TestBatchQueryMetricsRegistry:
    def test_histograms_register_in_registry(self):
        from repro.monitoring import BatchQueryMetrics
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        metrics = BatchQueryMetrics(registry)
        metrics.observe_batch(64, 48)
        metrics.observe_fanout(3)
        # Same objects: the registry's view reflects the client's records.
        assert registry.get("batch_size").count == 1
        assert registry.get("batch_fanout").count == 1
        assert metrics.batch_size_hist == {"<=128": 1}
        assert metrics.fanout_hist == {"<=4": 1}

    def test_standalone_without_registry(self):
        from repro.monitoring import BatchQueryMetrics

        metrics = BatchQueryMetrics()
        metrics.observe_batch(10, 5)
        assert metrics.dedup_ratio == 0.5
        assert sum(metrics.batch_size_hist.values()) == 1


class TestResilienceRollup:
    def test_watched_client_summary_appears_in_report(self):
        from repro.clock import MILLIS_PER_DAY, SimulatedClock
        from repro.cluster import IPSCluster, ResilienceConfig
        from repro.config import TableConfig
        from repro.core.query import SortType
        from repro.core.timerange import TimeRange
        from repro.monitoring import ClusterMonitor
        from repro.server.proxy import wrap_region_with_proxies

        now = 400 * MILLIS_PER_DAY
        clock = SimulatedClock(now)
        config = TableConfig(name="t", attributes=("click",))
        cluster = IPSCluster(config, num_nodes=3, clock=clock)
        wrap_region_with_proxies(cluster)
        client = cluster.client("rec-app", resilience=ResilienceConfig(seed=1))
        monitor = ClusterMonitor(cluster)
        monitor.watch_client(client)

        client.add_profile(1, now, 1, 1, 5, {"click": 1})
        cluster.run_background_cycle()
        client.get_profile_topk(
            1, 1, 1, TimeRange.current(MILLIS_PER_DAY), SortType.TOTAL, k=3
        )
        rollup = monitor.resilience_rollup()
        assert "rec-app" in rollup
        assert "retries" in rollup["rec-app"]
        assert "resilience[rec-app]" in monitor.report()

    def test_clients_without_resilience_contribute_nothing(self):
        from repro.clock import SimulatedClock
        from repro.cluster import IPSCluster
        from repro.config import TableConfig
        from repro.monitoring import ClusterMonitor

        cluster = IPSCluster(
            TableConfig(name="t", attributes=("click",)),
            num_nodes=2,
            clock=SimulatedClock(0),
        )
        monitor = ClusterMonitor(cluster)
        monitor.watch_client(cluster.client("plain"))
        assert monitor.resilience_rollup() == {}
        assert "resilience[" not in monitor.report()
