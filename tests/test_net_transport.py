"""Socket transport against an in-thread worker server.

One durable :class:`~repro.server.node.IPSNode` runs behind a
:class:`~repro.net.worker.WorkerServer` on a daemon thread;
:class:`~repro.net.transport.SocketTransport` /
:class:`~repro.net.transport.RemoteNode` talk to it over a real loopback
TCP connection.  The load-bearing property is **equivalence**: a read
over the socket must return exactly what the same call on the node
object returns — the wire hop adds failure modes, never semantics.
"""

from __future__ import annotations

import time

import pytest

from repro.core.query import SortType
from repro.core.timerange import TimeRange
from repro.errors import NodeUnavailableError, QuotaExceededError
from repro.net.registry import RegistryServer
from repro.net.transport import RemoteNode, SocketTransport
from repro.net.wire import WireCodecError
from repro.net.worker import WorkerServer, build_durable_node

NOW = 1_000_000
WINDOW = TimeRange.absolute(NOW - 10_000, NOW + 10_000)


@pytest.fixture
def server(tmp_path):
    node = build_durable_node("t0", tmp_path, checkpoint_interval=64)
    worker = WorkerServer(node, maintenance_ms=10_000.0)  # merges by hand
    worker.start()
    yield worker
    worker.stop()


@pytest.fixture
def remote(server):
    node = RemoteNode(SocketTransport("t0", server.host, server.port))
    yield node
    node.close()


def _seed(node, profiles=8, fids=5):
    for profile_id in range(profiles):
        for fid in range(fids):
            node.add_profile(
                profile_id, NOW - fid, 0, 1, 100 + fid,
                (fid + 1, profile_id % 3, 0),
            )
    node.merge_write_table()


class TestEquivalence:
    def test_topk_identical_over_socket(self, server, remote):
        _seed(server.node)
        for profile_id in range(8):
            direct = server.node.get_profile_topk(
                profile_id, 0, 1, WINDOW, SortType.TOTAL, 3
            )
            via_socket = remote.get_profile_topk(
                profile_id, 0, 1, WINDOW, SortType.TOTAL, 3
            )
            assert via_socket == direct

    def test_multi_get_identical_over_socket(self, server, remote):
        _seed(server.node)
        ids = [0, 3, 7, 999]  # 999 is missing on purpose
        direct = server.node.multi_get_topk(ids, 0, 1, WINDOW, k=5)
        via_socket = remote.multi_get_topk(ids, 0, 1, WINDOW, k=5)
        assert via_socket == direct
        # A missing profile reads as empty on both paths, not as an error.
        assert via_socket[999].ok and via_socket[999].value == []

    def test_write_over_socket_lands_on_node(self, server, remote):
        remote.add_profiles(
            5, NOW, 0, 1, [201, 202], [(4, 0, 1), (2, 2, 2)]
        )
        server.node.merge_write_table()
        rows = server.node.get_profile_topk(5, 0, 1, WINDOW, k=10)
        assert {row.fid for row in rows} == {201, 202}

    def test_weighted_sort_kwargs_cross_the_wire(self, server, remote):
        _seed(server.node)
        direct = server.node.get_profile_topk(
            1, 0, 1, WINDOW, SortType.WEIGHTED, 5,
            sort_weights={"like": 0.1, "comment": 5.0, "share": 1.0},
        )
        via_socket = remote.get_profile_topk(
            1, 0, 1, WINDOW, SortType.WEIGHTED, 5,
            sort_weights={"like": 0.1, "comment": 5.0, "share": 1.0},
        )
        assert via_socket == direct


class TestErrorPropagation:
    def test_value_error_rebuilt_exactly(self, server, remote):
        with pytest.raises(ValueError, match="fids"):
            remote.add_profiles(1, NOW, 0, 1, [100, 101], [(1, 0, 0)])

    def test_quota_exceeded_crosses_the_wire(self, server, remote):
        # Zero burst: the very first admit for this caller is rejected.
        server.node.quota.set_quota("stingy", 0.001, burst=0.0)
        with pytest.raises(QuotaExceededError) as excinfo:
            remote.get_profile_topk(1, 0, 1, WINDOW, caller="stingy")
        assert excinfo.value.caller == "stingy"

    def test_filter_predicate_rejected_client_side(self, server, remote):
        _seed(server.node)
        with pytest.raises(WireCodecError, match="process boundary"):
            remote.get_profile_filter(
                1, 0, 1, WINDOW, lambda row: True
            )

    def test_unknown_method_rejected(self, server):
        transport = SocketTransport("t0", server.host, server.port)
        try:
            with pytest.raises(WireCodecError, match="unknown method"):
                transport.call("drop_all_tables")
        finally:
            transport.close()

    def test_dead_endpoint_is_node_unavailable(self, server):
        transport = SocketTransport("t0", server.host, 1)  # nothing there
        try:
            with pytest.raises(NodeUnavailableError):
                transport.call("ping")
        finally:
            transport.close()


class TestAdminSurface:
    def test_ping_names_the_node(self, server, remote):
        reply = remote.ping()
        assert reply["node_id"] == "t0"
        assert reply["pid"] > 0

    def test_node_stats_reflect_traffic(self, server, remote):
        _seed(server.node)
        remote.get_profile_topk(1, 0, 1, WINDOW)
        stats = remote.node_stats()
        assert stats["reads"] >= 1
        assert stats["writes"] >= 1
        assert stats["wal_last_sequence"] >= 1

    def test_node_stats_is_the_nodes_own_dict_plus_process_keys(
        self, server, remote
    ):
        """One snapshot, in process and over the wire: the admin RPC may
        add only the process-level keys, so the two cannot drift."""
        over_the_wire = set(remote.node_stats())
        assert "pid" in over_the_wire
        assert over_the_wire - {"pid", "replication"} == set(
            server.node.node_stats()
        )

    def test_checkpoint_now(self, server, remote):
        _seed(server.node)
        reply = remote.checkpoint_now()
        assert reply["wal_last_sequence"] >= 1

    def test_stats_observe_server_time(self, server, remote):
        _seed(server.node)
        remote.get_profile_topk(1, 0, 1, WINDOW)
        stats = remote.transport.stats
        assert stats.calls >= 1
        # Client-observed time includes the network; server time cannot
        # exceed it.  Hedging feeds on exactly this decomposition.
        assert stats.last_client_ms >= stats.last_server_ms >= 0.0


class TestConnectionPooling:
    def test_pool_reuses_connections(self, server):
        transport = SocketTransport(
            "t0", server.host, server.port, pool_size=2
        )
        try:
            for _ in range(10):
                transport.call("ping")
            assert transport.dials <= 2
        finally:
            transport.close()


class TestRegistryConnection:
    def test_heartbeats_share_one_registry_connection(self, tmp_path):
        """register / heartbeat / members ride one persistent connection —
        not two dials per beat."""
        registry_server = RegistryServer().start()
        registry = registry_server.registry
        beats = []
        real_heartbeat = registry.heartbeat

        def counting_heartbeat(*args, **kwargs):
            beats.append(1)
            return real_heartbeat(*args, **kwargs)

        registry.heartbeat = counting_heartbeat
        worker = WorkerServer(
            build_durable_node("t3", tmp_path),
            registry_host=registry_server.host,
            registry_port=registry_server.port,
            heartbeat_ms=10.0,
            maintenance_ms=10_000.0,
        ).start()
        try:
            deadline = time.monotonic() + 10.0
            while len(beats) < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(beats) >= 10
            assert registry_server.connections_accepted <= 2
        finally:
            worker.stop()
            registry_server.stop()
        assert worker.shut_down_cleanly
        assert registry.members()["members"] == []  # deregistered on the way out


class TestGracefulShutdown:
    def test_prepare_shutdown_acks_then_exits_cleanly(self, tmp_path):
        node = build_durable_node("t1", tmp_path)
        worker = WorkerServer(node, maintenance_ms=10_000.0).start()
        remote = RemoteNode(SocketTransport("t1", worker.host, worker.port))
        try:
            remote.add_profile(1, NOW, 0, 1, 100, (1, 0, 0))
            assert remote.prepare_shutdown() == {"shutting_down": True}
        finally:
            remote.close()
        assert worker._thread is not None
        worker._thread.join(timeout=15.0)
        assert worker.shut_down_cleanly

    def test_acked_write_survives_graceful_stop(self, tmp_path):
        node = build_durable_node("t2", tmp_path)
        worker = WorkerServer(node, maintenance_ms=10_000.0).start()
        remote = RemoteNode(SocketTransport("t2", worker.host, worker.port))
        try:
            remote.add_profile(9, NOW, 0, 1, 500, (7, 0, 0))
        finally:
            remote.close()
        worker.stop()  # graceful: merge + flush + checkpoint before exit
        assert worker.shut_down_cleanly
        revived = build_durable_node("t2", tmp_path)
        rows = revived.get_profile_topk(9, 0, 1, WINDOW)
        assert [(row.fid, row.counts[0]) for row in rows] == [(500, 7)]
