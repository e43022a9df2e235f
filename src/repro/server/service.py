"""Multi-table IPS service: the paper's table-first API surface.

One IPS cluster is shared by multiple applications in a multi-tenancy
manner (§IV): different products create their own *tables* (each with its
own attribute schema, aggregate and maintenance configs) on shared
serving capacity, and every API call names the table first — the
paper's signatures, each a forward to the table node's ``multi_get`` of
a :class:`~repro.core.query.Query`::

    add_profile(table, profile_id, timestamp, slot, type, fid, feature_counts)
    get_profile_topK(table, profile_id, slot, type, time_range, sort_type, k)
    get_profile_filter(table, profile_id, slot, type, time_range, filter_type)
    get_profile_decay(table, profile_id, slot, type, time_range,
                      decay_function, decay_factor)

:class:`IPSService` manages one engine + cache + persistence stack per
table over a shared KV store and a shared per-caller quota manager, so a
greedy tenant is throttled across all its tables at once.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..clock import Clock, SystemClock
from ..config import TableConfig
from ..core.query import Query
from ..errors import ConfigError, TableNotFoundError
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..storage.kvstore import KVStore
from .batch import BatchKeyResult
from .node import IPSNode
from .quota import QuotaManager


class IPSService:
    """Table-first facade over per-table node stacks."""

    def __init__(
        self,
        store: KVStore,
        clock: Clock | None = None,
        node_id: str = "service",
        cache_capacity_bytes_per_table: int = 64 * 1024 * 1024,
        isolation_enabled: bool = True,
        tracer=NULL_TRACER,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.node_id = node_id
        self._store = store
        self._cache_capacity = cache_capacity_bytes_per_table
        self._isolation_enabled = isolation_enabled
        self.tracer = tracer
        self.registry = registry
        #: One quota manager shared across tables: multi-tenancy quotas are
        #: per *caller*, not per (caller, table).
        self.quota = QuotaManager(self.clock)
        self._tables: dict[str, IPSNode] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------

    def create_table(self, config: TableConfig) -> None:
        """Create a table; name collisions are configuration errors."""
        with self._lock:
            if config.name in self._tables:
                raise ConfigError(f"table {config.name!r} already exists")
            self._tables[config.name] = IPSNode(
                f"{self.node_id}/{config.name}",
                config,
                self._store,
                clock=self.clock,
                cache_capacity_bytes=self._cache_capacity,
                isolation_enabled=self._isolation_enabled,
                quota=self.quota,
                tracer=self.tracer,
            )

    def drop_table(self, table: str) -> None:
        with self._lock:
            node = self._tables.pop(table, None)
        if node is None:
            raise TableNotFoundError(table)
        node.shutdown()

    def table_names(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    def _node(self, table: str) -> IPSNode:
        with self._lock:
            node = self._tables.get(table)
        if node is None:
            raise TableNotFoundError(table)
        return node

    def table_node(self, table: str) -> IPSNode:
        """Expose a table's node stack (maintenance, monitoring, reload)."""
        return self._node(table)

    def _span(self, method: str, table: str):
        """Root span for one table-first API call."""
        return self.tracer.span(f"service.{method}", table=table)

    # ------------------------------------------------------------------
    # Write APIs (paper §II-B signatures)
    # ------------------------------------------------------------------

    def add_profile(
        self,
        table: str,
        profile_id: int,
        timestamp: int,
        slot: int,
        type: int,
        fid: int,
        feature_counts: Sequence[int] | dict[str, int],
        caller: str = "default",
    ) -> None:
        with self._span("add_profile", table):
            self._node(table).add_profile(
                profile_id, timestamp, slot, type, fid, feature_counts,
                caller=caller,
            )

    def add_profiles(
        self,
        table: str,
        profile_id: int,
        timestamp: int,
        slot: int,
        type: int,
        fids: Sequence[int],
        feature_counts: Sequence[Sequence[int] | dict[str, int]],
        caller: str = "default",
    ) -> None:
        with self._span("add_profiles", table):
            self._node(table).add_profiles(
                profile_id, timestamp, slot, type, fids, feature_counts,
                caller=caller,
            )

    # ------------------------------------------------------------------
    # Reads: one multi-get; the paper's names forward to the table's node
    # ------------------------------------------------------------------

    def multi_get(
        self,
        table: str,
        profile_ids: Sequence[int],
        query: Query,
        caller: str = "default",
    ) -> dict[int, BatchKeyResult]:
        """``query`` over many profiles of one table (one quota admit)."""
        with self._span("multi_get", table):
            results = self._node(table).multi_get(profile_ids, query, caller)
        return {pid: result.listed() for pid, result in results.items()}

    # Each takes the node method's arguments after the table name.

    def get_profile_topk(self, table: str, *args, **kwargs):
        with self._span("get_profile_topk", table):
            return self._node(table).get_profile_topk(*args, **kwargs)

    def get_profile_filter(self, table: str, *args, **kwargs):
        with self._span("get_profile_filter", table):
            return self._node(table).get_profile_filter(*args, **kwargs)

    def get_profile_decay(self, table: str, *args, **kwargs):
        with self._span("get_profile_decay", table):
            return self._node(table).get_profile_decay(*args, **kwargs)

    def multi_get_topk(self, table: str, *args, **kwargs):
        with self._span("multi_get_topk", table):
            return self._node(table).multi_get_topk(*args, **kwargs)

    def multi_get_filter(self, table: str, *args, **kwargs):
        with self._span("multi_get_filter", table):
            return self._node(table).multi_get_filter(*args, **kwargs)

    def multi_get_decay(self, table: str, *args, **kwargs):
        with self._span("multi_get_decay", table):
            return self._node(table).multi_get_decay(*args, **kwargs)

    # ------------------------------------------------------------------
    # Background duties across tables
    # ------------------------------------------------------------------

    def run_background_cycle(self) -> None:
        """Merge write tables + one cache cycle for every table."""
        with self._lock:
            nodes = list(self._tables.values())
        for node in nodes:
            node.merge_write_table()
            node.run_cache_cycle()

    def run_maintenance(self) -> None:
        with self._lock:
            nodes = list(self._tables.values())
        for node in nodes:
            node.run_maintenance()

    def shutdown(self) -> None:
        with self._lock:
            nodes = list(self._tables.values())
        for node in nodes:
            node.shutdown()

    def memory_bytes(self) -> int:
        with self._lock:
            return sum(node.memory_bytes() for node in self._tables.values())
