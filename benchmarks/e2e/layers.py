"""The traced run: where one request's time goes, layer by layer.

End-to-end metrics never come from here — tracing costs time — but the
per-layer metrics of ``BENCHMARK.json`` do.  Two instruments:

**On the real cluster.**  One client is built over a benchmark-owned
:class:`TracedTransport` (injected through ``cluster.region(
transport_factory=...)``), and each of its calls runs under a span; an
untraced client takes every fourth block of the same window, and the
difference between the two is the tracing overhead.  That gives client
self time, per-shard call time and the worker's own ``server_ms``;
captured requests and responses are then pushed through ``net.wire`` in
this process for codec cost.

**On an in-process replica.**  The worker's inside cannot be reached
from here, so one shard's data directory is copied and opened with the
worker's own ``build_durable_node``, and timing wrappers are put around
the public functions of each layer *where their caller looks them up* —
in this process only.  Two hooks have no public name: GCache keeps the
persistence ``load``/``flush`` callables it was built with in
``_load_fn``/``_flush_fn``, and ``BulkPersistence`` its store in
``_store``.  The same four passes run whatever the workload (so every
per-layer metric is measured on every workload): a cold sweep, a warm
sweep, the workload's own captured request stream, and a burst of writes
with the worker's maintenance tick between them.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from statistics import median
from time import perf_counter

from repro.core.profile import ProfileData
from repro.core.query import QueryStats
from repro.net import wire
from repro.net.transport import SocketTransport
from repro.net.worker import build_durable_node
from repro.server import recovery as recovery_module
from repro.server.node import IPSNode
from repro.storage import persistence as persistence_module
from repro.storage.serialization import ProfileCodec

from .dataset import ATTRIBUTES, SLOT, TABLE, TOPK, TYPE_ID, Write, write_stream
from .harness import BenchmarkError
from .metrics import accounting, metric, ungated_tails
from .stats import p50, percentile
from .trace import Span, Tracer, self_times_ms
from .workloads import Context, Lane, run_workload

#: The shard whose data directory the replica opens.
SHARD = "w00"
#: Full request/response captures kept per run (wire and replica replay).
CAPTURE_LIMIT = 400
#: Traced blocks per untraced block in the shared window.
TRACED_SHARE = 3
#: Not a multiple of the tick: the last writes stay in the WAL tail, so
#: the crash-and-reopen that follows has records to replay.
REPLICA_WRITES = 200
WRITES_PER_TICK = 16
STATS_PROBES = 32


# ----------------------------------------------------------------------
# Real cluster: traced transport
# ----------------------------------------------------------------------


@dataclass
class Call:
    node_id: str
    method: str
    args: tuple
    kwargs: dict
    value: object
    server_ms: float
    span_id: int


@dataclass
class Captures:
    server_ms: dict[int, float] = field(default_factory=dict)
    calls: list[Call] = field(default_factory=list)
    transports: list[SocketTransport] = field(default_factory=list)
    clients: list = field(default_factory=list)


class TracedTransport(SocketTransport):
    """``SocketTransport`` whose every call is a span carrying ``server_ms``."""

    def __init__(self, node_id, host, port, *, tracer: Tracer, sink: Captures):
        super().__init__(node_id, host, port)
        self._tracer = tracer
        self._sink = sink
        sink.transports.append(self)

    def call(self, method, *args, timeout_ms=None, **kwargs):
        with self._tracer.span("net.transport.call") as span:
            value = super().call(method, *args, timeout_ms=timeout_ms, **kwargs)
        if span.parent is None:
            return value  # connection warm-up: not part of a measured request
        server_ms = self.stats.last_server_ms
        self._sink.server_ms[span.span_id] = server_ms
        if len(self._sink.calls) < CAPTURE_LIMIT:
            self._sink.calls.append(Call(
                self.node_id, method, args, kwargs, value, server_ms, span.span_id
            ))
        return value


def _wire_costs(calls: list[Call]) -> dict[str, list[float]]:
    """Replay captured messages through the codec, in this process."""
    out: dict[str, list[float]] = {
        key: [] for key in (
            "encode_request_us", "decode_request_us", "encode_response_us",
            "decode_response_us", "request_bytes", "response_bytes",
        )
    }
    for index, call in enumerate(calls):
        request = wire.Request(index + 1, call.method, call.args, call.kwargs)
        response = wire.Response(
            index + 1, ok=True, value=call.value, server_ms=call.server_ms
        )
        for kind, message, encode in (
            ("request", request, wire.encode_request),
            ("response", response, wire.encode_response),
        ):
            before = perf_counter()
            frame = encode(message)
            middle = perf_counter()
            decoded = wire.decode_message(frame[wire.HEADER_SIZE:])
            after = perf_counter()
            if decoded != message:
                raise BenchmarkError(f"wire round trip changed a {kind}")
            out[f"encode_{kind}_us"].append((middle - before) * 1e6)
            out[f"decode_{kind}_us"].append((after - middle) * 1e6)
            out[f"{kind}_bytes"].append(float(len(frame)))
    return out


# ----------------------------------------------------------------------
# Replica: one shard opened in this process, wrapped layer by layer
# ----------------------------------------------------------------------


class Replica:
    def __init__(self, context: Context, tracer: Tracer, owned: list[int]) -> None:
        self.tracer = tracer
        self.dataset = context.dataset
        self.owned = owned
        self.data_dir = context.workspace.new_dir("replica")
        shutil.copytree(context.build.root / SHARD, self.data_dir)
        self._restores = [tracer.wrap(IPSNode, "recover", "server.recovery.recover")]
        try:
            self.node = build_durable_node(
                SHARD, self.data_dir, table=TABLE, attributes=ATTRIBUTES
            )
            self._wrap_layers()
        except BaseException:
            self.close()
            raise

    def _wrap_layers(self) -> None:
        node = self.node
        query_engine = node.engine.query_engine
        store = node.persistence._store
        wal = node.durability.wal
        targets = [
            (node.cache, "get", "cache.gcache.get"),
            (node.cache, "get_many", "cache.gcache.get"),
            (node.cache, "flush_ids", "cache.gcache.flush"),
            (node.cache, "run_flush_once", "cache.gcache.flush"),
            (node.cache, "_load_fn", "storage.persistence.load"),
            (node.cache, "_flush_fn", "storage.persistence.flush"),
            (store, "get", "storage.filestore.get"),
            (store, "set", "storage.filestore.set"),
            (ProfileCodec, "encode_profile", "storage.serialization.encode_profile"),
            (ProfileCodec, "decode_profile", "storage.serialization.decode_profile"),
            (node.engine, "get_profile_topk", "core.engine.read"),
            (node.engine, "get_profiles_topk", "core.engine.read"),
            (query_engine, "top_k", "core.query"),
            (query_engine, "top_k_batch", "core.query"),
            (query_engine.backend, "run_topk", "core.kernels.run"),
            (query_engine.backend, "run_topk_batch", "core.kernels.run"),
            (ProfileData, "add", "core.profile.add"),
            (wal, "append", "storage.wal.append"),
            (wal, "commit", "storage.wal.commit"),
            (node, "merge_write_table", "server.isolation.merge"),
            (node.durability, "checkpoint", "server.recovery.checkpoint"),
        ]
        for module in (persistence_module, recovery_module):
            targets.append((module, "compress", "storage.compression.compress"))
        targets.append(
            (persistence_module, "decompress", "storage.compression.decompress")
        )
        for owner, attribute, name in targets:
            self._restores.append(self.tracer.wrap(owner, attribute, name))

    def close(self) -> None:
        while self._restores:
            self._restores.pop()()
        node = getattr(self, "node", None)
        if node is not None:
            node.durability.close()
            node.persistence._store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- passes --------------------------------------------------------

    def _mark(self) -> int:
        return len(self.tracer.spans)

    def _since(self, mark: int) -> list[Span]:
        return self.tracer.spans[mark:]

    def sweep(self, expected: dict) -> list[Span]:
        """Read every owned profile once, one key per call."""
        mark = self._mark()
        for profile_id in self.owned:
            with self.tracer.span("server.node.read"):
                value = self.node.get_profile_topk(
                    profile_id, SLOT, TYPE_ID, self.dataset.window, k=TOPK
                )
            if value != expected[profile_id]:
                raise BenchmarkError(f"replica disagrees on profile {profile_id}")
        return self._since(mark)

    def replay_reads(self, calls: list[Call]) -> tuple[list[Span], int]:
        """The workload's own requests to this shard, in captured order.

        Returns the spans and the number of keys read.
        """
        mark = self._mark()
        keys = 0
        deadline = perf_counter() + self.dataset.scale.replay_s
        for call in calls:
            with self.tracer.span("server.node.read", request=call.span_id):
                getattr(self.node, call.method)(*call.args, **call.kwargs)
            keys += len(call.args[0]) if call.method.startswith("multi_") else 1
            if perf_counter() > deadline:
                break
        return self._since(mark), keys

    def write_burst(self, writes: list[Write]) -> list[Span]:
        """Writes with the worker's maintenance tick between them."""
        mark = self._mark()
        for index, write in enumerate(writes):
            with self.tracer.span("server.node.write"):
                self.node.add_profiles(*write.args)
            if (index + 1) % WRITES_PER_TICK == 0:
                with self.tracer.span("net.worker.maintenance"):
                    self.node.merge_write_table()
                    self.node.run_cache_cycle()
        return self._since(mark)

    def crash_and_reopen(self) -> Span:
        """Drop the node with no shutdown, open its directory again.

        Returns the span of the ``recover()`` that replays the WAL tail.
        """
        self.node.durability.close()
        self.node.persistence._store.close()
        self.node = build_durable_node(
            SHARD, self.data_dir, table=TABLE, attributes=ATTRIBUTES
        )
        return _named(self.tracer.spans, "server.recovery.recover")[-1]

    def rows_scanned_per_key(self) -> float:
        scanned = []
        for profile_id in self.owned[:STATS_PROBES]:
            stats = QueryStats()
            self.node.engine.get_profile_topk(
                profile_id, SLOT, TYPE_ID, self.dataset.window, k=TOPK, stats=stats
            )
            scanned.append(stats.features_merged)
        return sum(scanned) / len(scanned)


def _named(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]


def _p50_of(samples: list[float]) -> float:
    return p50(samples) if samples else 0.0


def replica_metrics(
    workload: str, context: Context, tracer: Tracer, owned: list[int],
    calls: list[Call],
) -> dict[str, tuple]:
    """``name -> (value, unit, n)`` for the layers inside a worker."""
    shard_calls = [call for call in calls if call.node_id == SHARD]
    owned_set = set(owned)
    writes = list(islice(
        (w for w in write_stream(context.dataset, 0) if w.profile_id in owned_set),
        REPLICA_WRITES,
    ))
    replica = Replica(context, tracer, owned)
    try:
        cache, durability = replica.node.cache.metrics, replica.node.durability
        cold = replica.sweep(context.oracle.base)
        warm = replica.sweep(context.oracle.base)
        rows = replica.rows_scanned_per_key()
        hits, misses = cache.hits, cache.misses
        replay, replay_keys = replica.replay_reads(shard_calls)
        hits, misses = cache.hits - hits, cache.misses - misses
        wal_bytes = durability.wal.stats.bytes_appended
        merge_passes = replica.node.stats.merge_passes
        burst = replica.write_burst(writes)
        wal_bytes = durability.wal.stats.bytes_appended - wal_bytes
        merge_passes = replica.node.stats.merge_passes - merge_passes
        checkpoints = durability.stats.checkpoints
        checkpoint_bytes = (replica.data_dir / "checkpoint.log").stat().st_size
        profile_blob = ProfileCodec.encode_profile(
            replica.node.cache.get_resident(owned[0])
        )
        stored_blob = persistence_module.compress(profile_blob)
        wal_tail = durability.replay_lag_records()
        recover = replica.crash_and_reopen()
    finally:
        replica.close()

    # The workload's own read pass: the cold sweep for point_cold, its
    # replayed request stream (everything resident) for the rest.
    if workload == "point_cold":
        own, own_keys, hit_ratio, loads = cold, len(owned), 0.0, len(owned)
    else:
        own, own_keys = replay, replay_keys
        hit_ratio, loads = hits / max(1, hits + misses), misses
    selfs = self_times_ms(tracer.spans)

    def self_p50(spans: list[Span], name: str) -> float:
        return _p50_of([selfs[s.span_id] for s in _named(spans, name)])

    def p50_ms(spans: list[Span], name: str) -> float:
        return _p50_of([s.duration_ms for s in _named(spans, name)])

    def p50_us(spans: list[Span], name: str) -> float:
        return p50_ms(spans, name) * 1000.0

    own_reads = _named(own, "server.node.read")
    flushes = len(_named(burst, "storage.persistence.flush"))
    n_own, n_cold, n_writes = len(own_reads), len(owned), len(writes)
    warm_kernel = p50_ms(warm, "core.kernels.run")
    shard_server_ms = [call.server_ms for call in shard_calls[:n_own]]
    return {
        "server.node.read_self_ms": (self_p50(own, "server.node.read"), "ms", n_own),
        "server.node.write_self_ms": (
            self_p50(burst, "server.node.write"), "ms", n_writes),
        "cache.gcache.probe_us_per_key": (
            sum(selfs[s.span_id] for s in _named(own, "cache.gcache.get"))
            * 1000.0 / own_keys, "us", own_keys),
        "cache.gcache.hit_ratio": (hit_ratio, "ratio", own_keys),
        "cache.gcache.loads": (float(loads), "count", own_keys),
        "cache.gcache.flush_ms_per_profile": (
            sum(s.duration_ms for s in _named(burst, "cache.gcache.flush"))
            / max(1, flushes), "ms", flushes),
        "storage.persistence.load_ms": (
            p50_ms(cold, "storage.persistence.load"), "ms", n_cold),
        "storage.persistence.flush_ms": (
            p50_ms(burst, "storage.persistence.flush"), "ms", flushes),
        "storage.filestore.get_us": (
            p50_us(cold, "storage.filestore.get"), "us", n_cold),
        "storage.filestore.set_us": (
            p50_us(burst, "storage.filestore.set"), "us", flushes),
        "storage.filestore.log_over_live": (
            context.build.log_over_live, "ratio", 1),
        "storage.compression.decompress_us": (
            p50_us(cold, "storage.compression.decompress"), "us", n_cold),
        "storage.compression.compress_us": (
            p50_us(burst, "storage.compression.compress"), "us", flushes),
        "storage.compression.ratio": (
            len(profile_blob) / len(stored_blob), "ratio", 1),
        "storage.serialization.decode_profile_us": (
            p50_us(cold, "storage.serialization.decode_profile"), "us", n_cold),
        "storage.serialization.encode_profile_us": (
            p50_us(burst, "storage.serialization.encode_profile"), "us", flushes),
        "storage.serialization.profile_bytes": (float(len(profile_blob)), "B", 1),
        "storage.wal.append_us": (p50_us(burst, "storage.wal.append"), "us", n_writes),
        "storage.wal.commit_us": (p50_us(burst, "storage.wal.commit"), "us", n_writes),
        "storage.wal.bytes_per_write": (wal_bytes / n_writes, "B", n_writes),
        "server.isolation.merge_ms": (
            p50_ms(burst, "server.isolation.merge"), "ms", merge_passes),
        "server.isolation.merged_profiles_per_pass": (
            n_writes / max(1, merge_passes), "count", merge_passes),
        "server.recovery.checkpoint_ms": (
            p50_ms(burst, "server.recovery.checkpoint"), "ms", checkpoints),
        "server.recovery.checkpoint_bytes": (float(checkpoint_bytes), "B", 1),
        "server.recovery.checkpoints": (float(checkpoints), "count", n_writes),
        "server.recovery.recover_ms": (recover.duration_ms, "ms", wal_tail),
        "core.engine.read_self_ms": (self_p50(own, "core.engine.read"), "ms", n_own),
        "core.engine.write_self_ms": (
            sum(s.duration_ms for s in _named(burst, "core.profile.add")) / n_writes,
            "ms", n_writes),
        "core.query.self_ms": (self_p50(own, "core.query"), "ms", n_own),
        "core.kernels.run_ms": (p50_ms(own, "core.kernels.run"), "ms", n_own),
        "core.kernels.rows_scanned_per_key": (rows, "count", STATS_PROBES),
        "core.kernels.cold_over_warm": (
            p50_ms(cold, "core.kernels.run") / warm_kernel if warm_kernel else 0.0,
            "ratio", n_cold),
        "trace.replica_over_worker": (
            p50_ms(own, "server.node.read") / _p50_of(shard_server_ms)
            if shard_server_ms else 0.0, "ratio", n_own),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def traced_run(
    workload: str, context: Context, seconds: float, out_dir: Path
) -> dict:
    tracer = Tracer()
    sink = Captures()

    def traced_client(served):
        client = served.client(
            lambda node_id, host, port: TracedTransport(
                node_id, host, port, tracer=tracer, sink=sink
            )
        )
        sink.clients.append(client)
        return client

    plain = Lane("plain", lambda served: served.client())
    traced = Lane("traced", traced_client, span=tracer.span)
    run, served = run_workload(
        workload, context, seconds, [plain, traced], epochs=1, keep_last=True,
        # Both lanes early, so that a short window still samples each.
        schedule=[traced, plain] + [traced] * (TRACED_SHARE - 1),
    )
    try:
        owned = [
            pid for pid in context.dataset.profile_ids
            if served.cluster.primary_for(pid) == SHARD
        ]
        if not served.restart_s:
            served.restart()
    finally:
        served.stop()
    epoch = run.epochs[0]

    # Per request: client self time, and over its per-shard calls the
    # worker's own server_ms and the rest of the call ("gap").
    selfs = self_times_ms(tracer.spans)
    requests = _named(tracer.spans, "cluster.client")
    shard_spans = [s for s in tracer.spans if s.span_id in sink.server_ms]
    server_ms = [sink.server_ms[s.span_id] for s in shard_spans]
    costs = _wire_costs(sink.calls)
    codec = {key: p50(values) for key, values in costs.items()}
    # encode_request and decode_response run in the client inside the call
    # span; decode_request is inside server_ms; encode_response runs on the
    # worker's event loop after server_ms has stopped.
    codec_outside_server_ms = (
        codec["encode_request_us"] + codec["decode_response_us"]
        + codec["encode_response_us"]
    ) / 1000.0
    server_of = {s.span_id: 0.0 for s in requests}
    gap_of = dict(server_of)
    calls_of = {s.span_id: 0 for s in requests}
    for span in shard_spans:
        server_of[span.parent] += sink.server_ms[span.span_id]
        gap_of[span.parent] += span.duration_ms - sink.server_ms[span.span_id]
        calls_of[span.parent] += 1
    client_ms = [s.duration_ms for s in requests]
    stages = {
        "client_self": [selfs[s.span_id] for s in requests],
        "transport_overhead": [
            gap_of[s.span_id] - codec_outside_server_ms * calls_of[s.span_id]
            for s in requests
        ],
        "wire_codec": [
            codec_outside_server_ms * calls_of[s.span_id] for s in requests
        ],
        "server": [server_of[s.span_id] for s in requests],
    }

    def coverage(q: float) -> float:
        staged = sum(percentile(samples, q) for samples in stages.values())
        return staged / percentile(client_ms, q)

    fleet = list(epoch.fleet.values())
    n_req, n_calls = len(requests), len(shard_spans)
    batch = [client.batch_metrics for client in sink.clients]
    keys_total = sum(b.keys_total for b in batch)

    def fleet_sum(key: str) -> float:
        return float(sum(node[key] for node in fleet))

    values = {
        "cluster.client.self_ms": (p50(stages["client_self"]), "ms", n_req),
        "cluster.client.shard_calls_per_req": (n_calls / n_req, "count", n_req),
        "cluster.client.dedup_ratio": (
            1.0 - sum(b.keys_unique for b in batch) / keys_total
            if keys_total else 0.0, "ratio", n_req),
        "cluster.client.retries": (
            float(sum(c.stats.retries for c in sink.clients)), "count", n_req),
        "cluster.client.key_errors": (
            float(traced.keys - traced.keys_ok), "count", n_req),
        "cluster.client.cpu_us_per_req": (
            traced.client_cpu_s * 1e6 / n_req, "us", n_req),
        "net.transport.call_ms": (
            p50([s.duration_ms for s in shard_spans]), "ms", n_calls),
        "net.transport.overhead_ms": (
            p50([s.duration_ms - sink.server_ms[s.span_id] for s in shard_spans])
            - codec_outside_server_ms, "ms", n_calls),
        "net.transport.dials": (
            float(sum(t.dials for t in sink.transports)), "count", n_calls),
        "net.transport.failures": (
            float(sum(t.stats.failures for t in sink.transports)), "count", n_calls),
        "net.worker.server_ms": (p50(server_ms), "ms", n_calls),
        "net.worker.server_p99_ms": (percentile(server_ms, 99.0), "ms", n_calls),
        "net.worker.busy_frac": (
            sum(server_ms) / (traced.wall_s * 1000.0 * len(fleet)), "ratio", n_calls),
        "net.worker.cpu_us_per_key": (
            traced.worker_cpu_s * 1e6 / traced.keys, "us", traced.keys),
        "net.worker.batch_keys": (fleet_sum("batch_keys"), "count", 1),
        "net.worker.merge_passes": (fleet_sum("merge_passes"), "count", 1),
        "net.worker.wal_appends": (fleet_sum("wal_appends"), "count", 1),
        "net.worker.memory_bytes": (fleet_sum("memory_bytes"), "B", 1),
        "net.worker.resident": (fleet_sum("resident"), "count", 1),
        "net.cluster.spawn_s": (epoch.spawn_s, "s", 1),
        "net.cluster.restart_s": (
            median(served.restart_s), "s", len(served.restart_s)),
        "trace.overhead_frac": (
            p50(traced.read_ms) / p50(plain.read_ms) - 1.0, "ratio", n_req),
        "trace.budget_coverage": (coverage(50.0), "ratio", n_req),
        "trace.budget_coverage_p99": (coverage(99.0), "ratio", n_req),
    }
    for key, samples in costs.items():
        unit = "B" if key.endswith("bytes") else "us"
        values[f"net.wire.{key}"] = (codec[key], unit, len(samples))
    values.update(replica_metrics(workload, context, tracer, owned, sink.calls))
    result = accounting(run)
    result["metrics"] = {name: metric(*triple) for name, triple in values.items()}
    result["metrics"].update(ungated_tails(run.lanes))
    result["table2"] = {
        "client_p50_ms": p50(client_ms),
        "server_p50_ms": p50(stages["server"]),
        "requests": n_req,
    }
    tracer.write_jsonl(out_dir / f"trace-{workload}.jsonl")
    return result


def print_table2(results: list[dict]) -> None:
    """Table II's four cells — client/server x hit/miss — from real code."""
    cells = {
        r["workload"]: r["table2"] for r in results
        if r["traced"] and r["workload"] in ("point_hot", "point_cold")
    }
    if len(cells) < 2:
        return
    print(
        "\n== Table II from real code (p50 ms; the paper's anchors: client - "
        "server ~ 3 ms of network, a hit saves 2-4 ms)"
    )
    print(f"  {'':<8}{'client':>10}{'server':>10}")
    for label, workload in (("hit", "point_hot"), ("miss", "point_cold")):
        cell = cells[workload]
        print(
            f"  {label:<8}{cell['client_p50_ms']:>10.3f}{cell['server_p50_ms']:>10.3f}"
        )
