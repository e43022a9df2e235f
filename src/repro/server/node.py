"""IPS instance node: the composed single-server stack.

One node owns a shard of the profile population and wires together:

* the :class:`~repro.core.engine.ProfileEngine` (data model + queries +
  maintenance);
* :class:`~repro.cache.GCache` for residency, swap-out and write-back;
* a persistence manager (bulk or fine-grained) over the KV store;
* the write-table read-write isolation with its hot switch (§III-F);
* per-caller QPS quotas (§V-b);
* a query-result cache in front of every read, invalidated on every
  mutation path (not a paper component; see docs/internals.md §14).

Writes go through the write table when isolation is on, else straight to
the engine.  Reads miss-through GCache: a non-resident profile is loaded
from the KV store, installed, and queried.  Maintenance (compaction /
truncate / shrink) runs off the serving path via :meth:`run_maintenance`.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

from ..clock import Clock, SystemClock
from ..config import TableConfig
from ..core.engine import ProfileEngine
from ..core.profile import ProfileData
from ..core.query import EMPTY_ROWS, PackedRows, Query, QueryStats, query_spec
from ..core.timerange import TimeRangeKind
from ..cache import GCache
from ..errors import IPSError
from ..obs.trace import NULL_TRACER
from ..storage.kvstore import KVStore
from ..storage.persistence import (
    BulkPersistence,
    FineGrainedPersistence,
    PersistenceManager,
)
from .batch import BatchKeyResult, PaperReads, dedup_preserving_order
from .isolation import PendingWrite, WriteTable
from .quota import QuotaManager
from .result_cache import QueryResultCache


@dataclass
class NodeStats:
    """Serving counters for one node."""

    reads: int = 0
    writes: int = 0
    writes_isolated: int = 0
    writes_direct: int = 0
    merge_passes: int = 0
    batch_reads: int = 0
    batch_keys: int = 0


class IPSNode(PaperReads):
    """One IPS instance serving a shard of profiles for one table."""

    def __init__(
        self,
        node_id: str,
        config: TableConfig,
        store: KVStore,
        clock: Clock | None = None,
        cache_capacity_bytes: int = 256 * 1024 * 1024,
        swap_threshold: float = 0.85,
        swap_target: float = 0.80,
        lru_shards: int = 16,
        dirty_shards: int = 4,
        isolation_enabled: bool = True,
        write_table_limit_bytes: int = 8 * 1024 * 1024,
        quota: QuotaManager | None = None,
        tracer=NULL_TRACER,
        durability=None,
    ) -> None:
        self.node_id = node_id
        self.clock = clock if clock is not None else SystemClock()
        self.tracer = tracer
        self.engine = ProfileEngine(config, self.clock)
        #: Query-result cache for every read.  Entries key on this
        #: node's profile state; the invalidation seams are GCache's hook
        #: (node writes, merges, ingest, recovery installs, crash drops)
        #: and the engine's mutation listener (maintenance, hot reload).
        self.result_cache = QueryResultCache()
        self.engine.add_mutation_listener(self._on_profile_mutation)
        self.persistence: PersistenceManager = (
            FineGrainedPersistence(store, config.name, tracer=tracer)
            if config.fine_grained_persistence
            else BulkPersistence(store, config.name, tracer=tracer)
        )
        self.cache = GCache(
            load_fn=self.persistence.load,
            flush_fn=self._flush_profile,
            capacity_bytes=cache_capacity_bytes,
            swap_threshold=swap_threshold,
            swap_target=swap_target,
            lru_shards=lru_shards,
            dirty_shards=dirty_shards,
            evict_callback=self._on_evict,
            invalidation_hook=self._on_profile_mutation,
            tracer=tracer,
        )
        self.write_table = WriteTable(write_table_limit_bytes)
        self.quota = quota if quota is not None else QuotaManager(self.clock)
        #: Optional :class:`~repro.server.recovery.NodeDurability`: when
        #: set, every write is WAL-logged before it is acked, and
        #: :meth:`recover` replays the log after a crash.
        self.durability = durability
        self.stats = NodeStats()
        self._isolation_enabled = isolation_enabled
        self._merge_lock = threading.Lock()

    def _on_profile_mutation(self, profile_id: int | None) -> None:
        """A mutation path touched ``profile_id`` (None = whole node)."""
        if profile_id is None:
            self.result_cache.invalidate_all()
        else:
            self.result_cache.invalidate(profile_id)

    # ------------------------------------------------------------------
    # Residency plumbing
    # ------------------------------------------------------------------

    def _on_evict(self, profile: ProfileData) -> None:
        """GCache evicted a profile: drop it from the engine's table too.

        A read that found it resident and runs after this would answer
        ``[]``; the invalidation makes that read's install a race.
        """
        self.engine.table.evict(profile.profile_id)
        self.result_cache.invalidate(profile.profile_id)

    def _resident_profile(self, profile_id: int) -> ProfileData | None:
        """Fetch through the cache, installing loads into the engine table."""
        profile = self.cache.get(profile_id)
        if profile is not None and self.engine.table.get(profile_id) is None:
            self.engine.table.put(profile)
        return profile

    def _resident_profiles(
        self, profile_ids: Sequence[int]
    ) -> tuple[dict[int, ProfileData | None], dict[int, Exception]]:
        """Batched cache fetch: one probe pass, loads installed in the table.

        A load failure comes back as that key's error.  One id takes
        ``GCache.get`` (and its ``cache.get`` span): no batch bookkeeping.
        """
        if len(profile_ids) == 1:
            profile_id = profile_ids[0]
            try:
                return {profile_id: self._resident_profile(profile_id)}, {}
            except Exception as exc:
                return {}, {profile_id: exc}
        profiles, errors = self.cache.get_many(profile_ids)
        for profile_id, profile in profiles.items():
            if profile is not None and self.engine.table.get(profile_id) is None:
                self.engine.table.put(profile)
        return profiles, errors

    def _flush_profile(self, profile: ProfileData) -> None:
        """GCache's flush function: persist, honouring the write-ahead rule.

        A value stamped ``s`` may only reach the store once the WAL is
        durable through ``s`` — otherwise a crash could restart the log
        below a persisted stamp and recovery would skip the new records
        numbered under it.  After the ack barrier this commits nothing.
        """
        if self.durability is not None:
            self.durability.commit_through(profile.applied_seq)
        self.persistence.flush(profile)

    def _writable_profile(self, profile_id: int) -> ProfileData:
        """Profile for a write: cache hit, storage load, or fresh create."""
        profile = self._resident_profile(profile_id)
        if profile is None:
            profile = self.engine.table.get_or_create(profile_id)
            self.cache.put(profile, dirty=False)
        return profile

    # ------------------------------------------------------------------
    # Write APIs
    # ------------------------------------------------------------------

    def add_profile(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts: Sequence[int] | dict[str, int],
        caller: str = "default",
    ) -> None:
        """``add_profile`` with quota admission and optional isolation.

        With durability attached, the logical write enters the WAL before
        it is buffered or applied, and this method returns (= acks) only
        once the record is committed under the WAL's sync mode.
        """
        with self.tracer.span("node.add_profile", profile=profile_id):
            vector = self.engine._check_write(
                profile_id, timestamp_ms, slot, type_id, fid, counts
            )
            self.quota.admit(caller)
            self.stats.writes += 1
            if self.durability is not None:
                self.durability.log_write(
                    profile_id, timestamp_ms, slot, type_id, fid, vector,
                    apply=self._buffer_or_apply,
                )
                self.durability.ack_barrier()
            else:
                self._buffer_or_apply(
                    profile_id, timestamp_ms, slot, type_id, fid, vector
                )

    def add_profiles(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fids: Sequence[int],
        counts_list: Sequence[Sequence[int] | dict[str, int]],
        caller: str = "default",
    ) -> None:
        """Batched write: one quota admission for the whole batch."""
        if len(fids) != len(counts_list):
            raise ValueError(
                f"fids and counts must align: {len(fids)} vs {len(counts_list)}"
            )
        with self.tracer.span(
            "node.add_profiles", profile=profile_id, fids=len(fids)
        ):
            writes = [
                (profile_id, timestamp_ms, slot, type_id, fid,
                 self.engine._check_write(
                     profile_id, timestamp_ms, slot, type_id, fid, counts))
                for fid, counts in zip(fids, counts_list)
            ]
            self.quota.admit(caller)
            self.stats.writes += len(writes)
            if self.durability is not None:
                # Appends buffer under group/manual sync; log_write_many
                # issues the single ack barrier for the whole batch.
                self.durability.log_write_many(
                    writes, apply=self._buffer_or_apply
                )
            else:
                for write in writes:
                    self._buffer_or_apply(*write)

    def _buffer_or_apply(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        vector: Sequence[int],
        sequence: int = 0,
    ) -> None:
        """Isolation buffer when enabled (and not full), else direct apply.

        ``sequence`` is the write's WAL sequence; with durability attached
        the caller holds the ack lock, so writes arrive here in WAL order.
        """
        if self._isolation_enabled:
            pending = PendingWrite(
                profile_id, timestamp_ms, slot, type_id, fid, vector, sequence
            )
            if self.write_table.append(pending):
                self.stats.writes_isolated += 1
                return
            # Write table full: a synchronous write — after the buffered
            # ones.  Applied first it would overtake older writes to the
            # same profile, and the profile's high-water stamp would then
            # claim a write the profile does not hold yet.
            self.merge_write_table()
        self.stats.writes_direct += 1
        self._apply_write(
            profile_id, timestamp_ms, slot, type_id, fid, vector, sequence
        )

    def _apply_write(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts: Sequence[int],
        sequence: int = 0,
    ) -> None:
        profile = self._writable_profile(profile_id)
        # Under the entry lock a flush sees the data and its stamp move
        # together: a persisted stamp never claims more than the value.
        with self.cache.entry_lock(profile_id) or nullcontext():
            profile.add(
                timestamp_ms, slot, type_id, fid, counts, self.engine.table.aggregate
            )
            if sequence:
                profile.applied_seq = sequence
        self.cache.mark_dirty(profile_id)
        self.engine._mark_for_maintenance(profile)

    # ------------------------------------------------------------------
    # Isolation merge (the "every few seconds" job of §III-F)
    # ------------------------------------------------------------------

    def merge_write_table(self) -> int:
        """Merge buffered writes into the main table; returns merge count."""
        with self._merge_lock:
            batch = self.write_table.drain()
            for write in batch:
                self._apply_write(
                    write.profile_id,
                    write.timestamp_ms,
                    write.slot,
                    write.type_id,
                    write.fid,
                    write.counts,
                    write.sequence,
                )
            if batch:
                self.stats.merge_passes += 1
            return len(batch)

    def set_isolation(self, enabled: bool) -> None:
        """The hot switch: toggle isolation live, draining on disable.

        Flag flip and drain happen under the ack lock, so no write can be
        applied directly while older writes still sit in the table.
        """
        durability = self.durability
        with durability.ack_lock if durability is not None else nullcontext():
            self._isolation_enabled = enabled
            if not enabled:
                self.merge_write_table()

    @property
    def isolation_enabled(self) -> bool:
        return self._isolation_enabled

    # ------------------------------------------------------------------
    # Reads: one multi-get (the paper's names are PaperReads forwards)
    # ------------------------------------------------------------------

    def multi_get(
        self,
        profile_ids: Sequence[int],
        query: Query,
        caller: str = "default",
        stats: QueryStats | None = None,
        deadline=None,
    ) -> dict[int, BatchKeyResult]:
        """The node's one read: ``query`` for every id, ``{id: BatchKeyResult}``.

        An ok key's value is its packed rows as the result cache holds
        them (:class:`~repro.core.query.PackedRows`), which the wire sends
        as they are; a failed key carries its error's type name and
        message.  A point read is the one-id call.

        One quota admit, one dedup, one GCache pass (a load error fails
        its key only; a non-resident id reads empty).  ``now_ms`` is read
        once; the window is resolved at it (once, unless RELATIVE, which
        resolves per key) and each live key is probed in the result cache
        under the query's spec plus the window bounds.  The misses run as
        **one** engine batch at that same ``now_ms``, so a CURRENT or
        RELATIVE window executes exactly the window it is keyed under;
        each is packed once and installed under the epoch captured before
        the batch (a write landing mid-execution drops that install).  A
        query error is batch-wide (one spec) and fails every miss.  A
        ``stats`` collector bypasses the cache; a ``deadline`` is checked
        once, before the misses run.
        """
        with self.tracer.span("node.multi_get", keys=len(profile_ids)) as span:
            self.quota.admit(caller)
            unique = dedup_preserving_order(profile_ids)
            self.stats.reads += len(unique)
            profiles, errors = self._resident_profiles(unique)
            now_ms = self.clock.now_ms()
            result_cache = self.result_cache
            time_range = query.time_range
            spec = None if stats is not None else query_spec(
                self.engine.config, query
            )
            # Only a RELATIVE window depends on the profile.
            fixed = None if time_range.kind is TimeRangeKind.RELATIVE else (
                time_range.resolve(now_ms, None)
            )
            out: dict[int, BatchKeyResult] = {}
            shared: dict[tuple[int, int], tuple] = {}  # One key per window.
            misses: list[tuple[int, tuple | None, tuple[int, int] | None]] = []
            hits = 0
            for profile_id in unique:
                profile = profiles.get(profile_id)
                if profile is None:
                    error = errors.get(profile_id)
                    out[profile_id] = (
                        BatchKeyResult(profile_id, True, EMPTY_ROWS)
                        if error is None
                        else BatchKeyResult.failure(profile_id, error)
                    )
                    continue
                fingerprint = epoch = None
                if spec is not None:
                    window = fixed or time_range.resolve(
                        now_ms, profile.newest_timestamp_ms()
                    )
                    # No window (RELATIVE over an empty profile): the
                    # engine resolves it to [] itself, uncached.
                    if window is not None:
                        bounds = (window.start_ms, window.end_ms)
                        fingerprint = shared.get(bounds)
                        if fingerprint is None:
                            fingerprint = shared[bounds] = spec + bounds
                        cached, epoch = result_cache.probe(profile_id, fingerprint)
                        if cached is not None:
                            out[profile_id] = BatchKeyResult(
                                profile_id, True, cached
                            )
                            hits += 1
                            continue
                elif stats is None:
                    result_cache.stats.uncacheable += 1
                out[profile_id] = None  # Holds the key's place in request order.
                misses.append((profile_id, fingerprint, epoch))
            if misses:
                if deadline is not None:
                    deadline.check("node.read")
                ids = [profile_id for profile_id, _, _ in misses]
                try:
                    with self.tracer.span("engine.execute", keys=len(ids)):
                        values = self.engine.multi_get(
                            ids, query,
                            stats_map=None if stats is None else {ids[0]: stats},
                            now_ms=now_ms,
                        )
                except IPSError as exc:
                    for profile_id in ids:
                        out[profile_id] = BatchKeyResult.failure(profile_id, exc)
                else:
                    for profile_id, fingerprint, epoch in misses:
                        packed = PackedRows.pack(values[profile_id])
                        out[profile_id] = BatchKeyResult(profile_id, True, packed)
                        if fingerprint is not None:
                            result_cache.put(profile_id, fingerprint, packed, epoch)
            span.tag(kind=query.kind, unique=len(out), hits=hits)
            if hits and hits == len(out):
                # Slow-log forensics: a "slow" cached read points at
                # whatever held the request *around* the probe.
                span.tag(served="result_cache")
            self.stats.batch_reads += 1
            self.stats.batch_keys += len(out)
            return out

    # ------------------------------------------------------------------
    # Hot reconfiguration (§V-b)
    # ------------------------------------------------------------------

    def reload_config(self, **kwargs) -> None:
        """Hot-reload maintenance configuration (see
        :meth:`repro.core.engine.ProfileEngine.reload_config`)."""
        self.engine.reload_config(**kwargs)

    def set_write_table_limit(self, limit_bytes: int) -> None:
        """Hot-update the isolation buffer's memory cap."""
        if limit_bytes <= 0:
            raise ValueError(f"limit must be positive, got {limit_bytes}")
        self.write_table.memory_limit_bytes = limit_bytes

    # ------------------------------------------------------------------
    # Background duties
    # ------------------------------------------------------------------

    def run_maintenance(self, max_profiles: int | None = None, full: bool = True):
        """Compact/truncate/shrink pending profiles off the serving path."""
        return self.engine.run_maintenance(max_profiles=max_profiles, full=full)

    def maintenance_pool(self, **kwargs):
        """Build a §III-D maintenance pool bound to this node's engine.

        By default the pool's load signal is the node's cache memory
        pressure, so maintenance backs off when serving needs the CPU.
        """
        from .maintenance import MaintenancePool

        kwargs.setdefault("load_fn", self.cache.memory_ratio)
        return MaintenancePool(self.engine, **kwargs)

    def run_cache_cycle(self) -> tuple[int, int]:
        """One deterministic swap + flush pass; returns (evicted, flushed).

        With durability attached, this is also the periodic checkpoint
        driver: once the WAL outgrows the configured interval, the cycle
        flushes what is dirty at a barrier and truncates the log.
        """
        evicted = self.cache.run_swap_once()
        flushed = self.cache.run_flush_once()
        if self.durability is not None:
            self.durability.maybe_checkpoint(self)
        return evicted, flushed

    def start_background(
        self,
        num_swap_threads: int = 1,
        num_flush_threads: int | None = None,
        interval_s: float = 0.05,
    ) -> None:
        self.cache.start_workers(num_swap_threads, num_flush_threads, interval_s)

    def stop_background(self) -> None:
        self.cache.stop_workers()

    def shutdown(self) -> None:
        """Drain isolation buffer and flush everything dirty.

        A clean shutdown also takes a final checkpoint so the WAL is empty
        and the next start needs no replay.
        """
        self.merge_write_table()
        self.cache.flush_all()
        if self.durability is not None:
            self.durability.checkpoint(self)

    def crash(self) -> int:
        """Simulate a process crash: volatile state is lost, not flushed.

        The isolation write table and all cache residency vanish (unflushed
        dirty profiles included — without durability, that is what a crash
        costs); persisted data survives in the KV store and reloads on the
        next miss.  With durability attached, :meth:`recover` rebuilds the
        lost acked writes from the persisted values + WAL tail on restart.  Returns the
        number of resident profiles dropped.
        """
        with self._merge_lock:
            self.write_table.drain()
            return self.cache.drop_all()

    # ------------------------------------------------------------------
    # Durability (checkpoint + crash recovery)
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Flush through a barrier and truncate the WAL; None without durability."""
        if self.durability is None:
            return None
        return self.durability.checkpoint(self)

    def recover(self):
        """Replay the WAL tail onto the persisted values (restart path).

        Returns the :class:`~repro.server.recovery.RecoveryReport`, or
        ``None`` when the node has no durability layer (nothing to replay
        — the pre-WAL behaviour of coming back cold).
        """
        if self.durability is None:
            return None
        return self.durability.recover(self)

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.cache.memory_bytes() + self.write_table.memory_bytes

    def node_stats(self) -> dict:
        """Every counter a dashboard reads, as one flat dict.

        The single node snapshot: :class:`~repro.monitoring.NodeSnapshot`
        takes these keys as its fields, and a worker's ``node_stats``
        admin RPC returns the same dict (plus ``pid`` and
        ``replication``).  A layer the node runs without (durability)
        contributes no keys; the snapshot reads those as zero.
        """
        metrics = self.cache.metrics
        result_cache = self.result_cache.stats
        stats = {
            "node_id": self.node_id,
            "reads": self.stats.reads,
            "writes": self.stats.writes,
            "batch_reads": self.stats.batch_reads,
            "batch_keys": self.stats.batch_keys,
            "merge_passes": self.stats.merge_passes,
            "resident": self.cache.resident_count(),
            "memory_bytes": self.memory_bytes(),
            "cache_capacity_bytes": self.cache.capacity_bytes,
            "cache_hits": metrics.hits,
            "cache_misses": metrics.misses,
            "cache_swaps": metrics.swaps,
            "flushes": metrics.flushes,
            "flush_failures": metrics.flush_failures,
            "write_table_pending": self.write_table.pending_count,
            "quota_rejections": self.quota.rejected,
            "result_cache_hits": result_cache.hits,
            "result_cache_misses": result_cache.misses,
            "result_cache_entries": len(self.result_cache),
            "result_cache_invalidations": result_cache.invalidations,
            "result_cache_install_races": result_cache.install_races,
            "result_cache_evictions": result_cache.evictions,
            "result_cache_uncacheable": result_cache.uncacheable,
        }
        durability = self.durability
        if durability is not None:
            stats["wal_last_sequence"] = durability.wal.last_sequence
            stats["wal_appends"] = durability.wal.stats.appends
            stats["wal_replay_lag"] = durability.replay_lag_records()
            stats["checkpoints"] = durability.stats.checkpoints
            stats["recoveries"] = durability.stats.recoveries
        return stats

    def __repr__(self) -> str:
        return (
            f"IPSNode(id={self.node_id!r}, table={self.engine.config.name!r}, "
            f"resident={self.cache.resident_count()})"
        )
