"""One read request: the ``Query`` value and the ``multi_get`` it travels in.

Every layer below the client takes a :class:`~repro.core.query.Query`
and answers ``multi_get(ids, query)``; the paper's six read names are
forwards to it.  What must not move with the refactor:

* the result-cache fingerprint of every read (a changed key would make
  every entry a miss, or worse, share entries between different reads);
* the node's RPC surface is exactly ``{multi_get, add_profile,
  add_profiles}``, the same list wherever a node is reached;
* a point read raises its key's error with the same type, message and
  retryability in process, behind the simulated RPC proxy and over a
  real socket; a multi-get carries it as strings;
* the write domain matches the write records (the WAL and replication
  deltas write timestamps, slots and type ids as unsigned varints).
"""

from __future__ import annotations

import pytest

from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.config import TableConfig
from repro.core.query import Query, SortType, query_spec
from repro.core.timerange import TimeRange
from repro.errors import InvalidQueryError, StorageError, is_retryable
from repro.net import wire
from repro.net.transport import ADMIN_METHODS, REPLICATION_METHODS, RemoteNode
from repro.net.worker import WorkerServer, build_durable_node
from repro.server import IPSNode, IPSService, attach_memory_durability
from repro.server.batch import NODE_RPC_METHODS, BatchKeyResult
from repro.server.proxy import RPCNodeProxy
from repro.storage import InMemoryKVStore
from repro.storage.kvstore import FailureInjector

from .test_result_cache_oracle import _query_battery, _table_config

NOW = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.absolute(0, NOW + 1)

#: ``query_spec`` of every result-cache oracle read, as the read entries
#: keyed it before reads became one ``Query`` (the cache's keys).
PARENT_SPECS = {
    "topk_total_full": ("topk", 1, 0, 10, "sum", ("total",)),
    "topk_attr_current": ("topk", 1, 0, 5, "sum", ("attr", 0)),
    "topk_weighted_current": (
        "topk", 0, None, 8, "sum", ("weights", ((0, 1), (2, 3)))
    ),
    "topk_explicit_default_aggregate": ("topk", 1, 0, 6, "sum", ("feature_id",)),
    "decay_exponential_relative": (
        "decay", 1, 0, "exponential", 43200000.0, None, None
    ),
    "decay_linear_attr": ("decay", 0, None, "linear", 432000000.0, 5, 1),
    "filter_cacheable": ("filter", 1, 0, ("filter_fn", ("likes_at_least", 2))),
    "filter_opaque": None,
}


def _node(store=None) -> IPSNode:
    node = IPSNode(
        "n", TableConfig(name="t", attributes=("like", "share")),
        store if store is not None else InMemoryKVStore(),
        clock=SimulatedClock(NOW),
    )
    for pid in (1, 2, 3):
        node.add_profile(pid, NOW - pid, 1, 0, 7, [3 * pid, 1])
        node.add_profile(pid, NOW - 9, 1, 0, 8, [pid, 5])
    node.merge_write_table()
    return node


class TestQuery:
    @pytest.mark.parametrize(
        "name,kind,args,kwargs", _query_battery(), ids=lambda v: str(v)[:30]
    )
    def test_spec_is_the_fingerprint_the_cache_keyed_before(
        self, name, kind, args, kwargs
    ):
        query = getattr(Query, kind)(*args, **kwargs)
        assert query_spec(_table_config(), query) == PARENT_SPECS[name]

    def test_constructors_carry_the_papers_defaults(self):
        topk = Query.topk(1, 0, WINDOW)
        assert (topk.kind, topk.sort_type, topk.k) == ("topk", SortType.TOTAL, 10)
        decay = Query.decay(1, 0, WINDOW)
        assert (decay.decay_function, decay.decay_factor, decay.k) == (
            "exponential", 1.0, None
        )
        assert Query.filter(1, 0, WINDOW, len).predicate is len

    def test_unknown_kind_is_refused_where_it_runs(self):
        node = _node()
        scan = Query("scan", 1, 0, WINDOW)
        assert query_spec(node.engine.config, scan) is None
        assert node.multi_get([1], scan)[1] == BatchKeyResult(
            1, False, None, "InvalidQueryError", "unknown query kind 'scan'"
        )
        with pytest.raises(InvalidQueryError, match="unknown query kind"):
            node.engine.multi_get([1], scan)
        with pytest.raises(ValueError):
            wire.encode_request(wire.Request(1, "multi_get", ([1], scan)))

    @pytest.mark.parametrize("query", [
        Query.topk(1, None, WINDOW, SortType.WEIGHTED, 4,
                   sort_weights={"like": 2.5}, aggregate="max"),
        Query.decay(2, 3, TimeRange.relative(5_000), "linear", 9.0, 2, "like"),
        Query.topk(0, 1, TimeRange.current(60_000), SortType.ATTRIBUTE,
                   sort_attribute="share"),
    ])
    def test_round_trips_the_wire_as_one_value(self, query):
        request = wire.Request(7, "multi_get", ([1, 2], query), {"caller": "c"})
        frame = wire.encode_request(request)
        assert wire.decode_message(frame[wire.HEADER_SIZE:]) == request

    def test_a_filter_predicate_is_refused_at_encode_time(self):
        query = Query.filter(1, 0, WINDOW, lambda stat: True)
        with pytest.raises(wire.WireCodecError, match="process boundary"):
            wire.encode_request(wire.Request(1, "multi_get", ([1], query)))


class _RecordingTransport:
    node_id = "r0"
    stats = None

    def __init__(self):
        self.calls = []

    def call(self, method, *args, timeout_ms=None, **kwargs):
        self.calls.append(method)
        return {pid: BatchKeyResult.success(pid, []) for pid in args[0]} if (
            method == "multi_get") else None


class TestOneMethodList:
    def test_the_list_is_the_three_calls(self):
        assert NODE_RPC_METHODS == {"multi_get", "add_profile", "add_profiles"}
        for name in NODE_RPC_METHODS:
            assert callable(getattr(IPSNode, name))

    def test_remote_node_forwards_exactly_the_list(self):
        transport = _RecordingTransport()
        remote = RemoteNode(transport)
        for name in NODE_RPC_METHODS:
            getattr(remote, name)([1], Query.topk(1, 0, WINDOW))
        assert sorted(transport.calls) == sorted(NODE_RPC_METHODS)
        # The paper's names are forwards to multi_get, not RPCs of their own.
        transport.calls.clear()
        assert remote.get_profile_topk(1, 1, 0, WINDOW) == []
        assert remote.multi_get_decay([1, 2], 1, 0, WINDOW)[2].ok
        assert transport.calls == ["multi_get", "multi_get"]
        forwarded = NODE_RPC_METHODS | ADMIN_METHODS | REPLICATION_METHODS
        for name in ("get_profile_topk", "multi_get_topk", "read", "crash"):
            assert name not in forwarded
            with pytest.raises(AttributeError):
                RemoteNode.__getattr__(remote, name)

    def test_rpc_proxy_forwards_exactly_the_list(self):
        node = _node()
        proxy = RPCNodeProxy(node, node.clock)
        methods = []
        proxy.rpc.fault_hook = lambda node_id, method: methods.append(method)
        proxy.get_profile_topk(1, 1, 0, WINDOW)
        proxy.multi_get_filter([1, 2], 1, 0, WINDOW, lambda stat: True)
        proxy.add_profile(4, NOW, 1, 0, 9, [1, 1])
        proxy.add_profiles(4, NOW, 1, 0, [9], [[1, 1]])
        assert methods == ["multi_get", "multi_get", "add_profile", "add_profiles"]
        # Anything else is the node's own attribute, not an RPC.
        assert proxy.engine is node.engine
        assert len(methods) == 4


def _failing_point_reads(target, injector):
    """Each (label, exception) a point read raises on ``target``."""
    cases = {
        "k": lambda: target.get_profile_topk(1, 1, 0, WINDOW, k=0),
        "attribute": lambda: target.get_profile_decay(
            1, 1, 0, WINDOW, k=2, sort_attribute="nope"
        ),
        "storage": lambda: target.get_profile_topk(3, 1, 0, WINDOW),
    }
    out = {}
    for label, read in cases.items():
        if label == "storage":
            injector.fail_next(1)
        with pytest.raises(Exception) as excinfo:
            read()
        out[label] = excinfo.value
    return out


class TestPointReadErrors:
    EXPECTED = {
        "k": ("InvalidQueryError", "k must be positive, got 0", False),
        "attribute": (
            "ConfigError",
            "unknown attribute 'nope'; table 't' defines ['like', 'share']",
            False,
        ),
        "storage": ("StorageError", "injected failure during get", True),
    }

    def _cold_node(self):
        injector = FailureInjector()
        node = _node(InMemoryKVStore(injector))
        node.run_cache_cycle()
        node.crash()  # profile 3 now loads from the store on its next read
        return node, injector

    @pytest.mark.parametrize("proxied", [False, True], ids=["node", "proxy"])
    def test_in_process_type_message_and_retryability(self, proxied):
        node, injector = self._cold_node()
        target = RPCNodeProxy(node, node.clock) if proxied else node
        raised = _failing_point_reads(target, injector)
        assert {
            label: (type(exc).__name__, str(exc), is_retryable(exc))
            for label, exc in raised.items()
        } == self.EXPECTED
        assert isinstance(raised["storage"], StorageError)

    def test_multi_get_carries_the_same_errors_as_strings(self):
        node, injector = self._cold_node()
        injector.fail_next(1)
        answer = node.multi_get_topk([3, 1], 1, 0, WINDOW, k=0)
        assert answer[3] == BatchKeyResult(
            3, False, None, "StorageError", "injected failure during get"
        )
        assert answer[1] == BatchKeyResult(
            1, False, None, "InvalidQueryError", "k must be positive, got 0"
        )

    def test_over_a_socket(self, tmp_path):
        node = build_durable_node("t0", tmp_path)
        node.add_profile(1, NOW, 1, 0, 7, [1, 2, 3])
        node.merge_write_table()  # the errors need a resident profile
        worker = WorkerServer(node, maintenance_ms=10_000.0).start()
        from repro.net.transport import SocketTransport

        remote = RemoteNode(SocketTransport("t0", worker.host, worker.port))
        try:
            with pytest.raises(InvalidQueryError, match="k must be positive"):
                remote.get_profile_topk(1, 1, 0, WINDOW, k=0)
            with pytest.raises(Exception) as excinfo:
                remote.get_profile_decay(1, 1, 0, WINDOW, sort_attribute="x")
            assert type(excinfo.value).__name__ == "ConfigError"
            assert not is_retryable(excinfo.value)
        finally:
            remote.close()
            worker.stop()


def test_service_top_k_carries_aggregate():
    service = IPSService(InMemoryKVStore(), clock=SimulatedClock(NOW))
    service.create_table(TableConfig(name="feed", attributes=("like",)))
    for pid in (1, 2):
        for count in (2, 7, 3):
            service.add_profile(
                "feed", pid, NOW - count * MILLIS_PER_DAY, 1, 0, 5, [count]
            )
    service.run_background_cycle()
    query = Query.topk(1, 0, WINDOW, aggregate="max")
    served = service.multi_get("feed", [1, 2, 9], query)
    node = service.table_node("feed")
    assert served == node.multi_get_topk([1, 2, 9], 1, 0, WINDOW, aggregate="max")
    assert served[1].value[0].counts == (7,)  # max, not the sum 12
    assert service.get_profile_topk(
        "feed", 1, 1, 0, WINDOW, aggregate="max"
    ) == served[1].value


@pytest.mark.parametrize("write", [
    (1, -5, 1, 1, 7, [1]),  # timestamp
    (1, 5, -1, 1, 7, [1]),  # slot
    (1, 5, 1, -1, 7, [1]),  # type id
])
def test_write_outside_the_record_domain_is_refused_before_the_wal(write):
    node = IPSNode(
        "d", TableConfig(name="t", attributes=("like",)), InMemoryKVStore(),
        clock=SimulatedClock(NOW),
    )
    attach_memory_durability(node)
    with pytest.raises(ValueError, match="non-negative|range"):
        node.add_profile(*write)
    profile_id, timestamp, slot, type_id, fid, counts = write
    with pytest.raises(ValueError):
        node.add_profiles(profile_id, timestamp, slot, type_id, [fid], [counts])
    assert node.node_stats()["writes"] == 0
    assert node.node_stats()["wal_appends"] == 0
    with pytest.raises(ValueError):
        node.engine.add_profile(*write)
