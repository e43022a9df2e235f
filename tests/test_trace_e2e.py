"""End-to-end tracing: one traced request yields the full span tree.

The acceptance scenario from the observability issue: a traced
``multi_get_topk`` through the :class:`~repro.cluster.client.IPSClient`
over RPC-proxied nodes produces a span tree with at least client,
per-shard RPC, node, cache, and (on miss) storage spans, with durations
summing consistently.
"""

import pytest

from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.cluster import IPSCluster
from repro.config import TableConfig
from repro.core.query import SortType
from repro.core.timerange import TimeRange
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.server.proxy import RPCNodeProxy
from repro.server.rpc import LatencyModel

NOW = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(30 * MILLIS_PER_DAY)
NUM_NODES = 3
POPULATION = 24


@pytest.fixture
def traced_cluster():
    clock = SimulatedClock(NOW)
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, registry=registry)
    config = TableConfig(name="t", attributes=("click",))
    cluster = IPSCluster(
        config, num_nodes=NUM_NODES, clock=clock,
        tracer=tracer, registry=registry,
    )
    for node_id in list(cluster.region.nodes):
        cluster.region.nodes[node_id] = RPCNodeProxy(
            cluster.region.nodes[node_id],
            clock,
            LatencyModel(jitter_ms=0.0),
            tracer=tracer,
            registry=registry,
        )
    client = cluster.client("app")
    for profile_id in range(POPULATION):
        client.add_profile(profile_id, NOW - 1000, 1, 1, 7, {"click": 2})
    cluster.run_background_cycle()
    return cluster, client, tracer, registry


class TestTracedMultiGet:
    def test_span_tree_covers_every_layer(self, traced_cluster):
        cluster, client, tracer, _ = traced_cluster
        tracer.take_roots()
        outcome = client.multi_get_topk(
            list(range(POPULATION)), 1, 1, WINDOW, SortType.TOTAL, k=5
        )
        assert all(result.ok for result in outcome)

        roots = tracer.take_roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "client.multi_get_topk"
        assert root.tags["keys"] == POPULATION

        # One rpc.call child per shard the batch fanned out to.
        rpc_spans = root.find("rpc.call")
        assert len(rpc_spans) == root.tags["shard_calls"]
        assert 1 < len(rpc_spans) <= NUM_NODES
        assert {span.tags["node"] for span in rpc_spans} <= set(
            cluster.region.nodes
        )

        # Every hop carries a node-dispatch span with a cache probe inside.
        node_spans = root.find("node.multi_get")
        assert len(node_spans) == len(rpc_spans)
        assert sum(span.tags["keys"] for span in node_spans) == POPULATION
        cache_spans = root.find("cache.get_many")
        assert len(cache_spans) == len(rpc_spans)
        assert sum(span.tags["hits"] for span in cache_spans) == POPULATION

    def test_storage_span_on_cache_miss(self, traced_cluster):
        cluster, client, tracer, _ = traced_cluster
        # Replace every node with a cold-cache twin over the same store
        # (same node ids, so ring routing is unchanged): the batch read
        # must fetch everything from storage.
        from repro.server.node import IPSNode

        clock = cluster.clock
        for node_id in list(cluster.region.nodes):
            cold = IPSNode(
                node_id, cluster.config, cluster.store, clock=clock,
                tracer=tracer,
            )
            cluster.region.nodes[node_id] = RPCNodeProxy(
                cold, clock, LatencyModel(jitter_ms=0.0), tracer=tracer
            )
        tracer.take_roots()
        outcome = client.multi_get_topk(
            list(range(POPULATION)), 1, 1, WINDOW, SortType.TOTAL, k=5
        )
        assert all(result.ok for result in outcome)
        root = tracer.take_roots()[0]
        storage_spans = root.find("storage.load")
        assert len(storage_spans) == POPULATION
        # Misses are visible on the cache span and the loads hang below it.
        cache_spans = root.find("cache.get_many")
        assert sum(span.tags["misses"] for span in cache_spans) == POPULATION
        for span in cache_spans:
            assert len(span.find("storage.load")) == span.tags["misses"]

    def test_durations_sum_consistently(self, traced_cluster):
        _, client, tracer, _ = traced_cluster
        tracer.take_roots()
        client.multi_get_topk(
            list(range(POPULATION)), 1, 1, WINDOW, SortType.TOTAL, k=5
        )
        root = tracer.take_roots()[0]
        # Every parent's perf duration bounds the sum of its children's.
        for span in root.iter_spans():
            if span.children:
                assert span.duration_ms >= sum(
                    child.duration_ms for child in span.children
                ) * (1 - 1e-6)

    def test_rpc_spans_carry_modelled_latency_tags(self, traced_cluster):
        _, client, tracer, _ = traced_cluster
        tracer.take_roots()
        client.multi_get_topk(
            list(range(POPULATION)), 1, 1, WINDOW, SortType.TOTAL, k=5
        )
        root = tracer.take_roots()[0]
        for span in root.find("rpc.call"):
            # Modelled client latency = 3 ms network base + server time.
            assert span.tags["client_ms"] >= 3.0
            assert span.tags["client_ms"] >= span.tags["server_ms"]

    def test_registry_sees_read_and_write_paths(self, traced_cluster):
        _, client, _, registry = traced_cluster
        client.get_profile_topk(1, 1, 1, WINDOW, SortType.TOTAL, k=5)
        client.multi_get_topk([1, 2, 3], 1, 1, WINDOW, SortType.TOTAL, k=5)
        assert registry.get("client_write_ms", caller="app").count == POPULATION
        assert registry.get("client_read_ms", caller="app").count == 1
        assert registry.get("client_multi_get_ms", caller="app").count >= 1
        for node_id in ("local-node-0", "local-node-1", "local-node-2"):
            assert registry.get("rpc_client_ms", node=node_id) is not None

    def test_single_read_has_engine_span(self, traced_cluster):
        _, client, tracer, _ = traced_cluster
        tracer.take_roots()
        client.get_profile_topk(1, 1, 1, WINDOW, SortType.TOTAL, k=5)
        root = tracer.take_roots()[0]
        assert root.name == "client.get_profile_topk"
        assert root.find("node.multi_get")
        assert root.find("cache.get")
        assert root.find("engine.execute")
