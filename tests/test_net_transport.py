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

import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.query import Query, SortType
from repro.core.timerange import TimeRange
from repro.errors import NodeUnavailableError, QuotaExceededError
from repro.net import transport as transport_module
from repro.net import wire
from repro.net.registry import RegistryClient, RegistryServer
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
        process_keys = {
            "pid", "connections", "connections_refused", "replication"
        }
        assert over_the_wire - process_keys == set(server.node.node_stats())

    def test_checkpoint_now(self, server, remote):
        _seed(server.node)
        reply = remote.checkpoint_now()
        assert reply["wal_last_sequence"] >= 1

    def test_result_cache_serves_repeats_and_drops_stale_after_write(
        self, server, remote
    ):
        """The served path caches point reads and never serves a stale one.

        A repeated read is a result-cache hit, visible over the admin
        RPC; an acked write made visible by a checkpoint (which drains
        the write table) replaces the cached answer with the engine's.
        """
        _seed(server.node)
        first = remote.get_profile_topk(2, 0, 1, WINDOW, SortType.TOTAL, 3)
        hits = remote.node_stats()["result_cache_hits"]
        again = remote.get_profile_topk(2, 0, 1, WINDOW, SortType.TOTAL, 3)
        assert again == first
        assert remote.node_stats()["result_cache_hits"] == hits + 1

        remote.add_profiles(2, NOW, 0, 1, [900], [(50, 0, 0)])
        assert remote.checkpoint_now()["checkpointed"]
        after = remote.get_profile_topk(2, 0, 1, WINDOW, SortType.TOTAL, 3)
        assert after[0].fid == 900
        assert after != first
        assert after == server.node.engine.get_profile_topk(
            2, 0, 1, WINDOW, SortType.TOTAL, 3
        )

    def test_repeated_multi_get_counts_hits_over_admin_rpc(
        self, server, remote
    ):
        """A multi-get probes the result cache per key: repeated, each
        unique key is a hit, and the counters that judge the cache are
        on the admin surface."""
        _seed(server.node)
        ids = [1, 2, 3, 3]
        first = remote.multi_get_topk(ids, 0, 1, WINDOW, SortType.TOTAL, 3)
        before = remote.node_stats()
        again = remote.multi_get_topk(ids, 0, 1, WINDOW, SortType.TOTAL, 3)
        after = remote.node_stats()
        assert again == first
        assert after["result_cache_hits"] == before["result_cache_hits"] + 3
        assert after["result_cache_misses"] == before["result_cache_misses"]
        for key in ("install_races", "evictions", "uncacheable"):
            assert after[f"result_cache_{key}"] == 0

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


    def test_mismatched_response_id_discards_the_connection(self):
        """A stream known to be out of step must not poison the next call."""
        listener = socket.create_server(("127.0.0.1", 0))

        def answer(conn):
            with conn:
                while data := conn.recv(65536):  # one small frame per recv
                    request = wire.decode_message(data[wire.HEADER_SIZE:])
                    reply = wire.Response(request.request_id + 1, True, "pong")
                    conn.sendall(wire.encode_response(reply))

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                threading.Thread(target=answer, args=(conn,), daemon=True).start()

        threading.Thread(target=serve, daemon=True).start()
        transport = SocketTransport("liar", *listener.getsockname())
        try:
            with pytest.raises(WireCodecError, match="does not match"):
                transport.call("ping")
            assert transport.stats.failures == 1
            with pytest.raises(WireCodecError, match="does not match"):
                transport.call("ping")
            assert transport.dials == 2  # the first socket was not re-pooled
        finally:
            transport.close()
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()


class TestReadFrame:
    FRAME = wire.encode_frame(b"twenty payload bytes")

    @pytest.fixture
    def pair(self):
        ours, theirs = socket.socketpair()
        ours.settimeout(5.0)
        yield ours, theirs
        ours.close()
        theirs.close()

    def test_every_split_offset(self, pair):
        ours, theirs = pair

        def write_in_two(split):
            theirs.sendall(self.FRAME[:split])
            time.sleep(0.002)  # let the reader block on the rest
            theirs.sendall(self.FRAME[split:])

        for split in range(1, len(self.FRAME)):
            writer = threading.Thread(target=write_in_two, args=(split,))
            writer.start()
            assert wire.read_frame(ours) == b"twenty payload bytes", split
            writer.join(5.0)
            assert not writer.is_alive()
        theirs.close()
        assert wire.read_frame(ours) is None  # clean EOF at a frame boundary

    @pytest.mark.parametrize(
        "sent, match",
        [
            (FRAME[:5], "mid-header"),
            (FRAME[: wire.HEADER_SIZE + 3], "mid-frame"),
            (b"XXXX" + FRAME[4:], "bad frame magic"),
            (
                struct.pack("<III", wire.FRAME_MAGIC, wire.MAX_FRAME_BYTES + 1, 0),
                "exceeds cap",
            ),
            (FRAME[:-1] + bytes([FRAME[-1] ^ 0xFF]), "CRC32"),
        ],
        ids=["eof-mid-header", "eof-mid-payload", "bad-magic", "over-cap", "crc"],
    )
    def test_torn_and_corrupt_frames(self, pair, sent, match):
        ours, theirs = pair
        theirs.sendall(sent)
        theirs.close()
        with pytest.raises(WireCodecError, match=match):
            wire.read_frame(ours)

    def test_eof_mid_frame_is_also_a_lost_connection(self, pair):
        """The client maps it to NodeUnavailableError — retryable — as the
        ConnectionError of the old ``_recv_exact`` was."""
        ours, theirs = pair
        theirs.sendall(self.FRAME[:-1])
        theirs.close()
        with pytest.raises(ConnectionError):
            wire.read_frame(ours)


def _ping_frame(request_id):
    return wire.encode_request(wire.Request(request_id, "ping"))


class TestThreadPerConnection:
    def test_slow_handlers_do_not_queue_behind_each_other(
        self, server, monkeypatch
    ):
        """Eight 0.2 s calls on eight connections overlap (a 4-thread pool
        needed two rounds), a ninth connection is served meanwhile, and
        each request runs on the thread that owns its connection."""
        ran_on = []

        def slow_read(*args, **kwargs):
            ran_on.append(threading.current_thread().name)
            time.sleep(0.2)
            return {}

        monkeypatch.setattr(server.node, "multi_get", slow_read)
        transports = [
            SocketTransport("t0", server.host, server.port) for _ in range(9)
        ]
        try:
            for transport in transports:
                transport.call("ping")  # dial before the clock starts
            callers = [
                threading.Thread(
                    target=transport.call,
                    args=("multi_get", [1], Query.topk(0, 1, WINDOW)),
                )
                for transport in transports[:8]
            ]
            start = time.monotonic()
            for caller in callers:
                caller.start()
            while len(ran_on) < 8 and time.monotonic() - start < 0.5:
                time.sleep(0.001)
            ping_start = time.monotonic()
            transports[8].call("ping")
            ping_s = time.monotonic() - ping_start
            for caller in callers:
                caller.join(10.0)
            elapsed = time.monotonic() - start
            assert not any(caller.is_alive() for caller in callers)
        finally:
            for transport in transports:
                transport.close()
        assert elapsed < 0.6
        assert ping_s < 0.05
        assert len(set(ran_on)) == 8
        assert all(name.startswith("ips-conn") for name in ran_on)

    def test_connection_accounting_survives_contention(self, server):
        """More clients than cores on a short switch interval: a lost
        update to the in-flight count or the connection table would leave
        either non-zero once every client has been answered and has left."""
        answered = []

        def hammer():
            transport = SocketTransport("t0", server.host, server.port)
            try:
                answered.append(
                    sum(transport.call("ping")["node_id"] == "t0" for _ in range(150))
                )
            finally:
                transport.close()

        clients = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for client in clients:
                client.start()
            for client in clients:
                client.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(client.is_alive() for client in clients)
        assert answered == [150] * 8
        deadline = time.monotonic() + 5.0
        frames = server._frames
        while frames._conns and time.monotonic() < deadline:
            time.sleep(0.01)  # the worker sees each close a moment later
        assert frames._inflight == 0 and not frames._conns
        assert frames.connections_refused == 0

    def test_back_to_back_frames_answered_in_order(self, server):
        with socket.create_connection((server.host, server.port), 5.0) as sock:
            sock.sendall(_ping_frame(7) + _ping_frame(8))
            replies = [
                wire.decode_message(wire.read_frame(sock)) for _ in range(2)
            ]
        assert [reply.request_id for reply in replies] == [7, 8]
        assert all(reply.ok for reply in replies)

    def test_corrupt_frame_drops_that_connection_only(self, server, remote):
        assert remote.ping()["node_id"] == "t0"
        frame = _ping_frame(1)
        with socket.create_connection((server.host, server.port), 5.0) as sock:
            sock.sendall(frame[:-1] + bytes([frame[-1] ^ 0xFF]))
            assert wire.read_frame(sock) is None  # dropped, nothing answered
        assert remote.ping()["node_id"] == "t0"
        assert remote.transport.dials == 1  # ... on its original connection

    def test_connection_cap_refuses_counts_and_recovers(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(transport_module, "MAX_CONNECTIONS", 2)
        first, second, third = (
            SocketTransport("t0", server.host, server.port) for _ in range(3)
        )
        try:
            first.call("ping")
            second.call("ping")
            with pytest.raises(NodeUnavailableError):
                third.call("ping")
            stats = first.call("node_stats")
            assert stats["connections"] == 2
            assert stats["connections_refused"] == 1
            second.close()
            deadline = time.monotonic() + 5.0
            while True:  # until the worker has seen the close
                try:
                    assert third.call("ping")["node_id"] == "t0"
                    break
                except NodeUnavailableError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
        finally:
            for transport in (first, second, third):
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

    @pytest.fixture
    def silent_registry(self):
        """A registry port that accepts connections and never answers."""
        listener = socket.create_server(("127.0.0.1", 0))
        held = []

        def accept():
            while True:
                try:
                    held.append(listener.accept()[0])
                except OSError:
                    return

        acceptor = threading.Thread(target=accept, daemon=True)
        acceptor.start()
        yield listener.getsockname()
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        acceptor.join(5.0)
        for conn in held:
            conn.close()

    def test_silent_registry_does_not_block_graceful_stop(
        self, tmp_path, silent_registry
    ):
        """Every registry call has a fixed budget, so heartbeat and
        deregister give up and the node is still flushed and closed."""
        host, port = silent_registry
        worker = WorkerServer(
            build_durable_node("t6", tmp_path),
            registry_host=host,
            registry_port=port,
            heartbeat_ms=10.0,
            maintenance_ms=10_000.0,
        ).start()
        remote = RemoteNode(SocketTransport("t6", worker.host, worker.port))
        try:
            remote.add_profile(12, NOW, 0, 1, 700, (3, 0, 0))
        finally:
            remote.close()
        start = time.monotonic()
        worker.stop()
        assert time.monotonic() - start < 6.0
        assert worker.shut_down_cleanly
        revived = build_durable_node("t6", tmp_path)
        rows = revived.get_profile_topk(12, 0, 1, WINDOW)
        assert [(row.fid, row.counts[0]) for row in rows] == [(700, 3)]

    def test_registry_stop_with_idle_clients_leaves_no_thread(
        self, serving_threads
    ):
        registry_server = RegistryServer().start()
        clients = [
            RegistryClient(registry_server.host, registry_server.port)
            for _ in range(2)
        ]

        def registry_threads():
            return {t for t in serving_threads() if "registry" in t.name}

        try:
            for client in clients:
                assert client.members()["members"] == []  # now idle, connected
            assert len(registry_threads()) == 3  # 2 connections + accept
            start = time.monotonic()
            registry_server.stop()
            assert time.monotonic() - start < 2.0
            assert registry_threads() == set()
        finally:
            for client in clients:
                client.close()

    def test_corrupt_frame_to_registry_drops_that_connection_only(self):
        registry_server = RegistryServer().start()
        client = RegistryClient(registry_server.host, registry_server.port)
        try:
            assert client.members()["members"] == []
            frame = wire.encode_request(wire.Request(1, "members"))
            with socket.create_connection(
                (registry_server.host, registry_server.port), 5.0
            ) as sock:
                sock.sendall(frame[:-1] + bytes([frame[-1] ^ 0xFF]))
                assert wire.read_frame(sock) is None  # dropped, unanswered
            assert client.register("t9", "127.0.0.1", 1)["generation"] == 1
            assert client._transport.dials == 1  # ... on its first connection
        finally:
            client.close()
            registry_server.stop()


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

    def test_stop_with_idle_connections_leaves_no_serving_thread(
        self, tmp_path, serving_threads
    ):
        worker = WorkerServer(
            build_durable_node("t4", tmp_path), maintenance_ms=10_000.0
        ).start()
        transports = [
            SocketTransport("t4", worker.host, worker.port) for _ in range(3)
        ]
        try:
            for transport in transports:
                transport.call("ping")  # each now holds one idle connection
            assert len(serving_threads()) == 4  # 3 connections + accept
            start = time.monotonic()
            worker.stop()
            assert time.monotonic() - start < 2.0
            assert worker.shut_down_cleanly
            assert serving_threads() == set()
        finally:
            for transport in transports:
                transport.close()

    def test_inflight_write_racing_shutdown_is_answered_and_durable(
        self, tmp_path, monkeypatch
    ):
        node = build_durable_node("t5", tmp_path)
        worker = WorkerServer(node, maintenance_ms=10_000.0).start()
        entered = threading.Event()
        real_add_profile = node.add_profile

        def slow_add_profile(*args, **kwargs):
            entered.set()
            time.sleep(0.3)
            return real_add_profile(*args, **kwargs)

        monkeypatch.setattr(node, "add_profile", slow_add_profile)
        remote = RemoteNode(SocketTransport("t5", worker.host, worker.port))
        outcome = []

        def write():
            try:
                outcome.append(remote.add_profile(11, NOW, 0, 1, 600, (5, 0, 0)))
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome.append(exc)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            assert entered.wait(5.0)
            worker.request_shutdown()  # the request is already in the handler
            writer.join(10.0)
            assert not writer.is_alive()
            assert outcome == [None]  # the ok response was not cut
        finally:
            remote.close()
            worker.stop()
        assert worker.shut_down_cleanly
        revived = build_durable_node("t5", tmp_path)
        rows = revived.get_profile_topk(11, 0, 1, WINDOW)
        assert [(row.fid, row.counts[0]) for row in rows] == [(600, 5)]

    def test_running_duty_ends_before_the_node_shuts_down(
        self, tmp_path, monkeypatch
    ):
        """A maintenance cycle caught mid-run by shutdown finishes before
        ``node.shutdown`` starts closing what the cycle is using."""
        node = build_durable_node("t7", tmp_path)
        events = []
        cycling = threading.Event()
        real_cycle, real_shutdown = node.run_cache_cycle, node.shutdown

        def slow_cycle():
            events.append("cycle-start")
            cycling.set()
            time.sleep(0.5)
            result = real_cycle()
            events.append("cycle-end")
            return result

        def spied_shutdown():
            events.append("node.shutdown")
            real_shutdown()

        monkeypatch.setattr(node, "run_cache_cycle", slow_cycle)
        monkeypatch.setattr(node, "shutdown", spied_shutdown)
        worker = WorkerServer(node, maintenance_ms=10.0).start()
        assert cycling.wait(5.0)
        worker.stop()
        assert worker.shut_down_cleanly
        assert events[-3:] == ["cycle-start", "cycle-end", "node.shutdown"]

    def test_graceful_sequence_runs_in_order(self, tmp_path, monkeypatch):
        registry_server = RegistryServer().start()
        node = build_durable_node("t8", tmp_path)
        worker = WorkerServer(
            node,
            registry_host=registry_server.host,
            registry_port=registry_server.port,
            heartbeat_ms=10.0,
            maintenance_ms=10.0,
            replication_factor=2,
        ).start()
        steps = []

        def spy(step, target, attribute):
            real = getattr(target, attribute)

            def wrapper(*args, **kwargs):
                if step == "final replication drain":
                    alive = any(duty.is_alive() for duty in worker._duties)
                    steps.append("duties running" if alive else "duties joined")
                steps.append(step)
                return real(*args, **kwargs)

            monkeypatch.setattr(target, attribute, wrapper)

        spy("stop accepting", worker._frames, "stop_accepting")
        spy("drain", worker._frames, "drain")
        spy("final replication drain", worker, "_final_replication_drain")
        spy("deregister", registry_server.registry, "deregister")
        spy("close connections", worker._frames, "close_connections")
        spy("node.shutdown", node, "shutdown")
        spy("WAL close", node.durability, "close")
        try:
            deadline = time.monotonic() + 10.0
            while not registry_server.registry.members()["members"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            worker.stop()
        finally:
            registry_server.stop()
        assert worker.shut_down_cleanly
        assert steps == [
            "stop accepting",
            "drain",
            "duties joined",
            "final replication drain",
            "deregister",
            "close connections",
            "node.shutdown",
            "WAL close",
        ]

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
