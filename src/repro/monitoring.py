"""Cluster monitoring: the telemetry surface behind the §IV dashboards.

Production IPS is observed through per-node counters rolled up into
cluster dashboards (throughput, latency percentiles, error rate, memory,
hit ratio — Figs. 16-19).  :class:`ClusterMonitor` collects those rollups
from a live cluster or deployment — in-process nodes or the worker
processes of a :class:`~repro.net.cluster.ProcessCluster` alike:

* :meth:`snapshot` asks every node for its ``node_stats()`` dict and
  returns a :class:`ClusterSnapshot` (gauges and monotonic counters);
* :meth:`sample` appends deltas-per-interval to named
  :class:`~repro.sim.metrics.TimeSeries` so a driver loop produces the
  same series the paper plots, from the *real* implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RPCError
from .obs.registry import Histogram, MetricsRegistry
from .sim.metrics import TimeSeries


def _size_histogram() -> Histogram:
    """Power-of-two buckets (1, 2, 4, ... 1024) as a log-bucket histogram."""
    return Histogram(min_ms=1.0, max_ms=1024.0, growth=2.0)


def _bucket_labels(histogram: Histogram) -> dict[str, int]:
    """Populated buckets as the ``<=N`` label dict the dashboards show."""
    return {
        f"<={upper:g}": count for upper, count in histogram.nonzero_buckets()
    }


class BatchQueryMetrics:
    """Telemetry for the batched (multi-get) read path.

    Tracks the three quantities the batch architecture lives or dies by:
    how large batches actually are (``batch_size_hist``), how much
    in-batch deduplication saves (``dedup_ratio``), and how many per-shard
    RPCs a batch fans out into (``fanout_hist`` / ``shard_calls``).
    Distributions live in :class:`~repro.obs.registry.Histogram` instances;
    when a :class:`~repro.obs.registry.MetricsRegistry` is supplied, they
    are registered there (``batch_size`` / ``batch_fanout``) so the same
    objects show up in the process-wide exposition.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.batches = 0
        self.keys_total = 0
        self.keys_unique = 0
        self.key_errors = 0
        self.shard_calls = 0
        if registry is not None:
            self.size_hist = registry.histogram(
                "batch_size", min_ms=1.0, max_ms=1024.0, growth=2.0
            )
            self.fan_hist = registry.histogram(
                "batch_fanout", min_ms=1.0, max_ms=1024.0, growth=2.0
            )
        else:
            self.size_hist = _size_histogram()
            self.fan_hist = _size_histogram()

    @property
    def batch_size_hist(self) -> dict[str, int]:
        """Batch-size distribution as ``<=N`` labels (dashboard view)."""
        return _bucket_labels(self.size_hist)

    @property
    def fanout_hist(self) -> dict[str, int]:
        """Per-batch shard fan-out distribution as ``<=N`` labels."""
        return _bucket_labels(self.fan_hist)

    def observe_batch(self, size: int, unique: int) -> None:
        self.batches += 1
        self.keys_total += size
        self.keys_unique += unique
        self.size_hist.record(size)

    def observe_fanout(self, shard_calls: int) -> None:
        self.shard_calls += shard_calls
        self.fan_hist.record(shard_calls)

    def observe_key_errors(self, count: int) -> None:
        self.key_errors += count

    @property
    def dedup_ratio(self) -> float:
        """Fraction of requested keys removed by in-batch deduplication."""
        if self.keys_total == 0:
            return 0.0
        return 1.0 - self.keys_unique / self.keys_total

    @property
    def mean_fanout(self) -> float:
        """Average number of per-shard RPCs a batch fans out into."""
        return self.shard_calls / self.batches if self.batches else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "batches": float(self.batches),
            "keys_total": float(self.keys_total),
            "keys_unique": float(self.keys_unique),
            "key_errors": float(self.key_errors),
            "dedup_ratio": self.dedup_ratio,
            "mean_fanout": self.mean_fanout,
        }


@dataclass(frozen=True)
class NodeSnapshot:
    """One node's counters at an instant.

    The fields are the keys of :meth:`repro.server.node.IPSNode.node_stats`
    — the same dict in process and over a worker's ``node_stats`` admin
    RPC — plus the region the monitor found the node in.  Counters of a
    layer the node runs without (the WAL) are zero.
    """

    node_id: str
    region: str
    reads: int = 0
    writes: int = 0
    batch_reads: int = 0
    batch_keys: int = 0
    merge_passes: int = 0
    resident: int = 0
    memory_bytes: int = 0
    cache_capacity_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_swaps: int = 0
    flushes: int = 0
    flush_failures: int = 0
    write_table_pending: int = 0
    quota_rejections: int = 0
    wal_last_sequence: int = 0
    wal_appends: int = 0
    wal_replay_lag: int = 0
    checkpoints: int = 0
    recoveries: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    result_cache_entries: int = 0
    result_cache_invalidations: int = 0
    #: Installs dropped because a write raced the read that computed them.
    result_cache_install_races: int = 0
    result_cache_evictions: int = 0
    #: Reads with no cache key (opaque predicate, invalid arguments).
    result_cache_uncacheable: int = 0
    #: Only a worker process reports these: pid, open / refused client
    #: connections and, when replicated, :meth:`WorkerReplication.stats`.
    pid: int | None = None
    connections: int = 0
    connections_refused: int = 0
    replication: dict | None = None

    @property
    def memory_ratio(self) -> float:
        if self.cache_capacity_bytes == 0:
            return 0.0
        return self.memory_bytes / self.cache_capacity_bytes

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass(frozen=True)
class ClusterSnapshot:
    """Fleet-wide rollup."""

    time_ms: int
    nodes: tuple[NodeSnapshot, ...]

    def total(self, counter: str) -> int:
        """Fleet-wide sum of one :class:`NodeSnapshot` counter."""
        return sum(getattr(node, counter) for node in self.nodes)

    @property
    def reads(self) -> int:
        return self.total("reads")

    @property
    def writes(self) -> int:
        return self.total("writes")

    @property
    def memory_bytes(self) -> int:
        return self.total("memory_bytes")

    @property
    def memory_ratio(self) -> float:
        capacity = self.total("cache_capacity_bytes")
        return self.memory_bytes / capacity if capacity else 0.0

    @property
    def hit_ratio(self) -> float:
        hits = self.total("cache_hits")
        total = hits + self.total("cache_misses")
        return hits / total if total else 0.0

    @property
    def resident_profiles(self) -> int:
        return self.total("resident")

    @property
    def quota_rejections(self) -> int:
        return self.total("quota_rejections")

    @property
    def wal_replay_lag(self) -> int:
        """WAL records a fleet-wide crash right now would have to replay."""
        return self.total("wal_replay_lag")

    @property
    def recoveries(self) -> int:
        return self.total("recoveries")

    @property
    def result_cache_hit_ratio(self) -> float:
        hits = self.total("result_cache_hits")
        total = hits + self.total("result_cache_misses")
        return hits / total if total else 0.0

    @property
    def replication(self) -> dict[str, int]:
        """Replication rollup over the workers that report one (empty for
        an in-process cluster or an unreplicated fleet)."""
        reports = [node.replication for node in self.nodes if node.replication]
        if not reports:
            return {}
        return {
            # "pending" is a per-peer lag dict on each worker; the rollup
            # is total queued deltas fleet-wide.
            "pending": sum(sum(r.get("pending", {}).values()) for r in reports),
            "handoff_depth": sum(r.get("handoff_depth", 0) for r in reports),
            "applies": sum(r.get("applies", 0) for r in reports),
            "delta_bytes": sum(r.get("delta_bytes", 0) for r in reports),
            "repair_bytes": sum(
                r.get("repair_bytes_shipped", 0) for r in reports
            ),
        }


class ClusterMonitor:
    """Collects snapshots and rate series from a cluster or deployment."""

    def __init__(self, deployment) -> None:
        self._deployment = deployment
        self._watched_clients: list = []
        self._watched_slos: list = []
        self._previous: ClusterSnapshot | None = None
        #: node_id -> (reads, writes) at the previous sample, used for
        #: membership-change-safe rate computation (a scaled-down node's
        #: counters vanish; summing cluster cumulatives would go negative).
        self._previous_counts: dict[str, tuple[int, int]] = {}
        self.series: dict[str, TimeSeries] = {
            name: TimeSeries(name)
            for name in (
                "read_qps",
                "write_qps",
                "memory_ratio",
                "hit_ratio",
                "resident_profiles",
            )
        }

    # ------------------------------------------------------------------

    def watch_client(self, client) -> None:
        """Include a client's resilience rollup (breakers, retries, hedges)
        in :meth:`report`.  Clients without a resilience executor are
        accepted and simply contribute nothing."""
        self._watched_clients.append(client)

    def watch_slo(self, engine) -> None:
        """Include an :class:`~repro.obs.slo.SLOEngine`'s budgets and
        active alerts in :meth:`report`."""
        self._watched_slos.append(engine)

    def slo_rollup(self) -> list[dict]:
        """Summaries of every watched SLO engine, in watch order."""
        return [engine.summary() for engine in self._watched_slos]

    def resilience_rollup(self) -> dict[str, dict]:
        """Per-watched-client resilience summaries, keyed by caller."""
        rollup: dict[str, dict] = {}
        for client in self._watched_clients:
            summary = getattr(client, "resilience_summary", None)
            if summary is None:
                continue
            data = summary()
            if data:
                rollup[getattr(client, "caller", repr(client))] = data
        return rollup

    def snapshot(self) -> ClusterSnapshot:
        """Roll up every node's counters right now.

        A node is whatever ``region.nodes`` holds: an in-process
        :class:`~repro.server.node.IPSNode` (or its RPC proxy, which
        passes ``node_stats`` through uncharged) or a socket
        :class:`~repro.net.transport.RemoteNode`, asked over its admin
        RPC — an unreachable worker drops out of the snapshot.
        """
        nodes = []
        for region in self._deployment.regions.values():
            refresh = getattr(region, "refresh", None)
            if refresh is not None:
                refresh()  # a registry-driven region re-reads its roster
            for node in list(region.nodes.values()):
                try:
                    stats = node.node_stats()
                except RPCError:
                    continue
                nodes.append(NodeSnapshot(region=region.name, **stats))
        clock = self._deployment.clock
        return ClusterSnapshot(time_ms=clock.now_ms(), nodes=tuple(nodes))

    def sample(self) -> ClusterSnapshot:
        """Take a snapshot and append rate/gauge points to the series.

        QPS values are deltas against the previous sample divided by the
        elapsed simulated (or wall) time; the first sample only seeds the
        baseline.
        """
        current = self.snapshot()
        previous = self._previous
        self._previous = current
        if previous is not None:
            elapsed_s = max(1e-9, (current.time_ms - previous.time_ms) / 1000.0)
            # Per-node deltas survive membership changes: a node that left
            # contributes nothing, a node that joined contributes its full
            # counters (it started from zero).
            read_delta = 0
            write_delta = 0
            for node in current.nodes:
                prev_reads, prev_writes = self._previous_counts.get(
                    node.node_id, (0, 0)
                )
                read_delta += max(0, node.reads - prev_reads)
                write_delta += max(0, node.writes - prev_writes)
            self.series["read_qps"].append(
                current.time_ms, read_delta / elapsed_s
            )
            self.series["write_qps"].append(
                current.time_ms, write_delta / elapsed_s
            )
        self._previous_counts = {
            node.node_id: (node.reads, node.writes) for node in current.nodes
        }
        self.series["memory_ratio"].append(current.time_ms, current.memory_ratio)
        self.series["hit_ratio"].append(current.time_ms, current.hit_ratio)
        self.series["resident_profiles"].append(
            current.time_ms, float(current.resident_profiles)
        )
        return current

    # ------------------------------------------------------------------

    def report(self) -> str:
        """Human-readable one-screen dashboard of the latest snapshot."""
        snapshot = self.snapshot()
        lines = [
            f"cluster @ t={snapshot.time_ms}ms — "
            f"{len(snapshot.nodes)} nodes, "
            f"{snapshot.resident_profiles} resident profiles",
            f"  reads={snapshot.reads}  writes={snapshot.writes}  "
            f"hit_ratio={snapshot.hit_ratio:.3f}  "
            f"memory={snapshot.memory_ratio:.1%}  "
            f"quota_rejections={snapshot.quota_rejections}",
        ]
        if any(
            node.result_cache_hits or node.result_cache_misses
            for node in snapshot.nodes
        ):
            lines.append(
                "  hot reads: result_cache_hit_ratio="
                f"{snapshot.result_cache_hit_ratio:.3f}  "
                f"invalidations={snapshot.total('result_cache_invalidations')}  "
                f"install_races={snapshot.total('result_cache_install_races')}"
            )
        if any(node.wal_appends or node.recoveries for node in snapshot.nodes):
            lines.append(
                f"  durability: wal_appends={snapshot.total('wal_appends')}  "
                f"replay_lag={snapshot.wal_replay_lag}  "
                f"checkpoints={snapshot.total('checkpoints')}  "
                f"recoveries={snapshot.recoveries}"
            )
        repl = snapshot.replication
        if repl:
            lines.append(
                f"  replication: pending={repl['pending']}  "
                f"handoff={repl['handoff_depth']}  applies={repl['applies']}  "
                f"delta_bytes={repl['delta_bytes']}  "
                f"repair_bytes={repl['repair_bytes']}"
            )
        for node in snapshot.nodes:
            process = f"pid={node.pid} " if node.pid is not None else ""
            lines.append(
                f"  {node.node_id}: {process}"
                f"reads={node.reads} writes={node.writes} "
                f"hit={node.hit_ratio:.2f} mem={node.memory_ratio:.1%} "
                f"pending={node.write_table_pending}"
            )
        for caller, summary in self.resilience_rollup().items():
            breakers = summary.pop("breaker_states", {})
            counters = "  ".join(
                f"{key}={value:g}" for key, value in sorted(summary.items())
            )
            lines.append(f"  resilience[{caller}]: {counters}")
            open_or_probing = {
                node_id: state
                for node_id, state in sorted(breakers.items())
                if state != "closed"
            }
            if open_or_probing:
                states = "  ".join(
                    f"{node_id}={state}"
                    for node_id, state in open_or_probing.items()
                )
                lines.append(f"    breakers: {states}")
        for summary in self.slo_rollup():
            for key, series in sorted(summary["series"].items()):
                lines.append(
                    f"  slo[{key}]: target={series['target']:g}  "
                    f"good={series['good']}  bad={series['bad']}  "
                    f"budget_remaining={series['budget_remaining']:+.3f}"
                )
            for alert in summary["active_alerts"]:
                lines.append(
                    f"    ALERT {alert['severity'].upper()} "
                    f"{alert['slo']} rule={alert['rule']} "
                    f"since t={alert['fired_at_ms']}ms"
                )
        return "\n".join(lines)
