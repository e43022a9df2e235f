"""Behavior sweep: small public behaviors not covered elsewhere.

These are deliberately tiny, one-behavior-per-test checks on corners of
the public surface (secondary parameters, accounting helpers, shutdown
paths) so regressions in them fail loudly rather than silently.
"""

import pytest

from repro.clock import MILLIS_PER_DAY, MILLIS_PER_HOUR, SimulatedClock
from repro.cluster import IPSCluster, MultiRegionDeployment
from repro.config import TableConfig
from repro.core.timerange import TimeRange
from repro.highlevel import FeatureClient

NOW = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(MILLIS_PER_DAY)


@pytest.fixture
def cluster():
    config = TableConfig(
        name="t", attributes=("impression", "click", "like")
    )
    return IPSCluster(config, num_nodes=2, clock=SimulatedClock(NOW))


class TestHighLevelSecondaryPaths:
    def test_trending_with_sort_attribute(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 0, 10, {"click": 3, "like": 9})
        client.add_profile(1, NOW, 1, 0, 20, {"click": 8, "like": 1})
        cluster.run_background_cycle()
        features = FeatureClient(client, cluster.config.attributes)
        by_click = features.trending(1, slot=1, by="click")
        assert by_click[0].fid == 20

    def test_top_interests_with_type_filter(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 1, 10, {"click": 1})
        client.add_profile(1, NOW, 1, 2, 20, {"click": 9})
        cluster.run_background_cycle()
        features = FeatureClient(client, cluster.config.attributes)
        only_type_1 = features.top_interests(1, slot=1, type_id=1, by="click")
        assert [r.fid for r in only_type_1] == [10]

    def test_ctr_with_type_none_merges_types(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 1, 10, {"impression": 4, "click": 1})
        client.add_profile(1, NOW, 1, 2, 20, {"impression": 2, "click": 2})
        cluster.run_background_cycle()
        features = FeatureClient(client, cluster.config.attributes)
        rows = features.ctr(1, slot=1, type_id=None)
        assert {row.fid for row in rows} == {10, 20}


class TestRegionAccounting:
    def test_memory_bytes_sums_nodes(self, cluster):
        client = cluster.client("app")
        for profile_id in range(20):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        cluster.run_background_cycle()
        region_total = cluster.region.memory_bytes()
        node_sum = sum(
            node.memory_bytes() for node in cluster.region.nodes.values()
        )
        assert region_total == node_sum > 0

    def test_repr_mentions_health(self, cluster):
        cluster.region.fail_node("local-node-0")
        text = repr(cluster.region)
        assert "healthy=1" in text
        assert "nodes=2" in text


class TestShutdownPaths:
    def test_cluster_shutdown_flushes_everything(self, cluster):
        client = cluster.client("app")
        for profile_id in range(10):
            client.add_profile(profile_id, NOW, 1, 0, 1, {"click": 1})
        cluster.shutdown()
        for node in cluster.region.nodes.values():
            assert node.cache.dirty.total_entries() == 0
            assert node.write_table.pending_count == 0
        assert len(cluster.store) > 0

    def test_deployment_shutdown_covers_every_region(self):
        config = TableConfig(name="t", attributes=("click",))
        deployment = MultiRegionDeployment(
            config, ["us", "eu"], nodes_per_region=1, clock=SimulatedClock(NOW)
        )
        client = deployment.client("us")
        client.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        deployment.shutdown()
        for region in deployment.regions.values():
            for node in region.nodes.values():
                assert node.write_table.pending_count == 0


class TestNodeRepr:
    def test_node_repr_shows_residency(self, cluster):
        node = next(iter(cluster.region.nodes.values()))
        assert "resident=0" in repr(node)

    def test_profile_and_table_reprs(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        cluster.run_background_cycle()
        node = cluster.region.node_for(1)
        profile = node.engine.table.get(1)
        assert "ProfileData" in repr(profile)
        assert "ProfileTable" in repr(node.engine.table)
        assert "Slice" in repr(profile.slices[0])


class TestClockEdgeCases:
    def test_relative_window_far_future_query(self, cluster):
        """Querying long after the last action via RELATIVE still works."""
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 0, 42, {"click": 1})
        cluster.run_background_cycle()
        cluster.clock.advance(500 * MILLIS_PER_DAY)
        results = client.get_profile_topk(
            1, 1, 0, TimeRange.relative(MILLIS_PER_DAY), k=1
        )
        assert results and results[0].fid == 42

    def test_absolute_window_in_far_past_is_empty(self, cluster):
        client = cluster.client("app")
        client.add_profile(1, NOW, 1, 0, 42, {"click": 1})
        cluster.run_background_cycle()
        results = client.get_profile_topk(
            1, 1, 0, TimeRange.absolute(1000, 2000), k=1
        )
        assert results == []
