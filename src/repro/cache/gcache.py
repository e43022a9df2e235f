"""GCache: the write-back cache tying LRU, dirty list and persistence together.

GCache fronts the profile table: serving threads call :meth:`get` /
:meth:`put` / :meth:`mark_dirty`, swap workers evict cold profiles when
memory exceeds the configured threshold, and flush workers persist dirty
profiles through a pluggable ``flush_fn`` (the persistence manager).  On a
cache miss, :meth:`get` invokes ``load_fn`` to reload the profile from the
key-value store.

Two execution modes are supported:

* **deterministic** — tests and benchmarks call :meth:`run_swap_once` and
  :meth:`run_flush_once` directly;
* **background** — :meth:`start_workers` spawns real swap/flush threads
  with the paper's constraint that flush threads are a multiple of dirty
  shards.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..core.profile import ProfileData
from ..obs.trace import NULL_TRACER
from .dirty import ShardedDirtyList
from .lru import ShardedLRU

#: Loads a profile from persistent storage; returns None if absent there too.
LoadFn = Callable[[int], ProfileData | None]
#: Persists one profile; raising marks the flush failed (entry stays dirty).
FlushFn = Callable[[ProfileData], None]
#: Receives a profile that was evicted while still dirty (flush-before-swap).
EvictFn = Callable[[ProfileData], None]
#: Observer of profile mutations crossing the cache: called with the
#: profile id whenever resident state changes (dirty mark, dirty/replace
#: install, recovery install) and with ``None`` when every entry is
#: dropped at once (crash semantics).  Clean miss-loads and flush-before-
#: evict do not fire — they change residency, not data.  The server's
#: query-result cache hangs its invalidation off this hook.
InvalidationHook = Callable[[int | None], None]


@dataclass
class CacheMetrics:
    """Counters exposed for Fig. 18-style monitoring."""

    hits: int = 0
    misses: int = 0
    loads: int = 0
    swaps: int = 0
    swap_skips: int = 0
    flushes: int = 0
    flush_failures: int = 0
    flush_requeues: int = 0
    recovered_installs: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CacheEntry:
    """Residency record for one profile."""

    profile: ProfileData
    #: Per-entry lock honoured by the try_lock swap discipline.
    lock: threading.Lock = field(default_factory=threading.Lock)


class GCache:
    """Sharded write-back cache over a profile population."""

    def __init__(
        self,
        load_fn: LoadFn,
        flush_fn: FlushFn,
        capacity_bytes: int = 64 * 1024 * 1024,
        swap_threshold: float = 0.85,
        swap_target: float = 0.80,
        lru_shards: int = 16,
        dirty_shards: int = 4,
        evict_callback: EvictFn | None = None,
        invalidation_hook: InvalidationHook | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        if not 0.0 < swap_target <= swap_threshold <= 1.0:
            raise ValueError(
                "need 0 < swap_target <= swap_threshold <= 1, got "
                f"target={swap_target}, threshold={swap_threshold}"
            )
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self._load_fn = load_fn
        self._flush_fn = flush_fn
        self._evict_callback = evict_callback
        self._invalidation_hook = invalidation_hook
        self.tracer = tracer
        self.capacity_bytes = capacity_bytes
        self.swap_threshold = swap_threshold
        self.swap_target = swap_target
        self.lru = ShardedLRU(lru_shards)
        self.dirty = ShardedDirtyList(dirty_shards)
        self.metrics = CacheMetrics()
        self._entries: dict[int, CacheEntry] = {}
        self._entries_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._workers: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Serving-path API
    # ------------------------------------------------------------------

    def get(self, profile_id: int) -> ProfileData | None:
        """Look up a profile, loading it from persistence on a miss.

        Returns ``None`` only when the profile exists in neither the cache
        nor the persistent store.
        """
        with self.tracer.span("cache.get", profile=profile_id) as span:
            entry = self._entry(profile_id)
            if entry is not None:
                self.metrics.hits += 1
                self.lru.touch(profile_id, entry.profile.memory_bytes())
                span.tag(hit=True)
                return entry.profile
            self.metrics.misses += 1
            span.tag(hit=False)
            loaded = self._load_fn(profile_id)
            if loaded is None:
                return None
            self.metrics.loads += 1
            self._install(loaded, dirty=False)
            return loaded

    def get_resident(self, profile_id: int) -> ProfileData | None:
        """Look up a profile without triggering a load (peeking)."""
        entry = self._entry(profile_id)
        return entry.profile if entry is not None else None

    def get_many(
        self, profile_ids
    ) -> tuple[dict[int, ProfileData | None], dict[int, Exception]]:
        """Batched lookup: one probe pass, then a grouped miss-fill.

        The residency probe runs over the whole batch first (hits are
        counted and LRU-touched exactly as :meth:`get` would), and only
        then are the collected misses loaded from persistence in one
        grouped pass.  A load failure is captured per key instead of
        aborting the batch; the second mapping carries those exceptions.
        ``None`` in the first mapping means the profile exists in neither
        the cache nor the persistent store.
        """
        with self.tracer.span("cache.get_many") as span:
            profiles: dict[int, ProfileData | None] = {}
            errors: dict[int, Exception] = {}
            missing: list[int] = []
            with self._entries_lock:
                for profile_id in profile_ids:
                    if profile_id in profiles or profile_id in errors:
                        continue
                    entry = self._entries.get(profile_id)
                    if entry is not None:
                        profiles[profile_id] = entry.profile
                    else:
                        missing.append(profile_id)
            hits = len(profiles)
            for profile_id, profile in profiles.items():
                self.metrics.hits += 1
                self.lru.touch(profile_id, profile.memory_bytes())
            for profile_id in missing:
                self.metrics.misses += 1
                try:
                    loaded = self._load_fn(profile_id)
                except Exception as exc:  # Degrade the key, not the batch.
                    errors[profile_id] = exc
                    continue
                if loaded is None:
                    profiles[profile_id] = None
                    continue
                self.metrics.loads += 1
                self._install(loaded, dirty=False)
                profiles[profile_id] = loaded
            span.tag(hits=hits, misses=len(missing))
            return profiles, errors

    def put(self, profile: ProfileData, dirty: bool = True) -> None:
        """Install (or replace) a resident profile, marking it dirty."""
        self._install(profile, dirty=dirty)

    def _notify_invalidation(self, profile_id: int | None) -> None:
        if self._invalidation_hook is not None:
            self._invalidation_hook(profile_id)

    def mark_dirty(self, profile_id: int) -> None:
        """Record that a resident profile mutated and must be re-flushed."""
        entry = self._entry(profile_id)
        if entry is None:
            return
        self.dirty.mark(profile_id)
        self.lru.update_cost(profile_id, entry.profile.memory_bytes())
        self._notify_invalidation(profile_id)

    def install_recovered(self, profile: ProfileData) -> None:
        """Install a crash-recovered profile as resident *and dirty*.

        Recovery rebuilds profiles from their stored value plus the WAL
        tail past its stamp, so the freshly rebuilt state supersedes what
        the KV store holds and must be queued for re-flush — this is how
        the dirty list is rebuilt after a crash.
        """
        self._install(profile, dirty=True)
        self.metrics.recovered_installs += 1

    def entry_lock(self, profile_id: int) -> threading.Lock | None:
        """Expose the per-entry lock for serving-path critical sections."""
        entry = self._entry(profile_id)
        return entry.lock if entry is not None else None

    def _entry(self, profile_id: int) -> CacheEntry | None:
        with self._entries_lock:
            return self._entries.get(profile_id)

    def _install(self, profile: ProfileData, dirty: bool) -> None:
        with self._entries_lock:
            replaced = self._entries.get(profile.profile_id)
            self._entries[profile.profile_id] = CacheEntry(profile)
        self.lru.touch(profile.profile_id, profile.memory_bytes())
        if dirty:
            self.dirty.mark(profile.profile_id)
        # Dirty installs (writes, recovery) and replacements of a resident
        # entry with a different object change readable state; a clean
        # miss-load of an absent profile does not.
        if dirty or (replaced is not None and replaced.profile is not profile):
            self._notify_invalidation(profile.profile_id)

    # ------------------------------------------------------------------
    # Swap (eviction)
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.lru.total_bytes()

    def memory_ratio(self) -> float:
        return self.memory_bytes() / self.capacity_bytes

    def needs_swap(self) -> bool:
        return self.memory_ratio() > self.swap_threshold

    def run_swap_once(self, max_evictions: int = 1024) -> int:
        """One swap pass: evict LRU entries until usage reaches the target.

        Scans shards largest-first (§III-C).  Dirty entries are flushed
        before eviction so no data is lost.  Entries whose lock is held are
        skipped rather than waited on — the try_lock discipline of Fig. 8.
        Returns the number of evicted profiles.
        """
        if not self.needs_swap():
            return 0
        target_bytes = int(self.capacity_bytes * self.swap_target)
        evicted = 0
        # Entries whose eviction failed this pass (e.g. the flush-before-
        # evict hit a storage error) are skipped for the rest of the pass:
        # one attempt per entry bounds the work under a storage outage.
        failed: set[int] = set()
        for shard in self.lru.shards_by_size():
            while self.memory_bytes() > target_bytes and evicted < max_evictions:
                popped = shard.pop_lru(
                    skip=lambda pid: pid in failed or self._skip_locked(pid)
                )
                if popped is None:
                    break  # Shard drained, locked or all-failed; next shard.
                profile_id, _cost = popped
                if self._evict(profile_id):
                    evicted += 1
                else:
                    failed.add(profile_id)
            if self.memory_bytes() <= target_bytes or evicted >= max_evictions:
                break
        return evicted

    def _skip_locked(self, profile_id: int) -> bool:
        """try_lock probe: True means another thread owns the entry, skip it."""
        entry = self._entry(profile_id)
        if entry is None:
            return False  # Stale LRU record; pop it so it gets dropped.
        acquired = entry.lock.acquire(blocking=False)
        if not acquired:
            self.metrics.swap_skips += 1
            return True
        entry.lock.release()
        return False

    def _evict(self, profile_id: int) -> bool:
        entry = self._entry(profile_id)
        if entry is None:
            return False
        with entry.lock:
            if profile_id in self.dirty:
                try:
                    self._flush_fn(entry.profile)
                    self.metrics.flushes += 1
                except Exception:
                    self.metrics.flush_failures += 1
                    # Keep the profile resident rather than lose data.
                    self.lru.touch(profile_id, entry.profile.memory_bytes())
                    return False
                self.dirty.discard(profile_id)
            with self._entries_lock:
                self._entries.pop(profile_id, None)
        self.metrics.swaps += 1
        if self._evict_callback is not None:
            self._evict_callback(entry.profile)
        return True

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def run_flush_once(self, shard_index: int | None = None, batch: int = 256) -> int:
        """One flush pass over one dirty shard (or all shards).

        Flushing snapshots the dirty sequence before persisting; if the
        profile is re-dirtied mid-flush the entry stays on the list so the
        newer state is flushed on the next pass.  Returns flush count.
        """
        shard_indices = (
            range(self.dirty.num_shards) if shard_index is None else [shard_index]
        )
        flushed = 0
        for index in shard_indices:
            shard = self.dirty.shard_at(index)
            for profile_id, sequence in shard.peek_batch(batch):
                entry = self._entry(profile_id)
                if entry is None:
                    shard.discard(profile_id)
                    continue
                try:
                    with entry.lock:
                        self._flush_fn(entry.profile)
                except Exception:
                    self.metrics.flush_failures += 1
                    continue
                self.metrics.flushes += 1
                flushed += 1
                if not shard.clear_if_unchanged(profile_id, sequence):
                    self.metrics.flush_requeues += 1
        return flushed

    def flush_ids(self, profile_ids) -> list[int]:
        """Flush exactly these profiles now; returns the ids that failed.

        The checkpoint path uses this to drain the profiles that were
        dirty *at the barrier* without chasing entries re-dirtied by
        writes arriving mid-flush (which would starve the checkpoint
        under sustained load).  Same discipline as :meth:`run_flush_once`:
        a profile re-dirtied during its flush stays on the dirty list,
        but its flush still persisted all pre-flush state, so it does not
        count as a failure.
        """
        failed: list[int] = []
        for profile_id in profile_ids:
            shard = self.dirty.shard_for(profile_id)
            entry = self._entry(profile_id)
            if entry is None:
                shard.discard(profile_id)
                continue
            sequence = shard.sequence_of(profile_id)
            if sequence is None:
                continue  # Already flushed (e.g. by a concurrent pass).
            try:
                with entry.lock:
                    self._flush_fn(entry.profile)
            except Exception:
                self.metrics.flush_failures += 1
                failed.append(profile_id)
                continue
            self.metrics.flushes += 1
            if not shard.clear_if_unchanged(profile_id, sequence):
                self.metrics.flush_requeues += 1
        return failed

    def drop_all(self) -> int:
        """Drop every resident entry *without* flushing (crash semantics).

        Used by the chaos engine's node-crash fault: a crashed process
        loses its cache and any unflushed dirty state; profiles reload
        from the KV store on the next miss.  Returns the number dropped.
        """
        with self._entries_lock:
            entries = list(self._entries.items())
            self._entries.clear()
        for profile_id, entry in entries:
            self.dirty.discard(profile_id)
            self.lru.remove(profile_id)
            if self._evict_callback is not None:
                self._evict_callback(entry.profile)
        # A crash loses unflushed dirty state: the next miss reloads an
        # *older* profile, so everything cached about this node is suspect.
        self._notify_invalidation(None)
        return len(entries)

    def flush_all(self) -> int:
        """Drain every dirty entry (shutdown / test helper)."""
        total = 0
        while self.dirty.total_entries():
            flushed = self.run_flush_once()
            if flushed == 0 and self.metrics.flush_failures:
                break  # Persistent store is failing; avoid spinning.
            total += flushed
        return total

    # ------------------------------------------------------------------
    # Background workers
    # ------------------------------------------------------------------

    def start_workers(
        self,
        num_swap_threads: int = 2,
        num_flush_threads: int | None = None,
        interval_s: float = 0.05,
    ) -> None:
        """Spawn swap and flush threads.

        ``num_flush_threads`` defaults to one per dirty shard and must be a
        multiple of the dirty shard count (§III-C).
        """
        if self._workers:
            raise RuntimeError("workers already started")
        if num_flush_threads is None:
            num_flush_threads = self.dirty.num_shards
        self.dirty.validate_flush_threads(num_flush_threads)
        self._stop_event.clear()
        for index in range(num_swap_threads):
            worker = threading.Thread(
                target=self._swap_loop,
                args=(interval_s,),
                name=f"gcache-swap-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        for index in range(num_flush_threads):
            worker = threading.Thread(
                target=self._flush_loop,
                args=(index % self.dirty.num_shards, interval_s),
                name=f"gcache-flush-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def stop_workers(self, flush_remaining: bool = True) -> None:
        self._stop_event.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers.clear()
        if flush_remaining:
            self.flush_all()

    def _swap_loop(self, interval_s: float) -> None:
        while not self._stop_event.wait(interval_s):
            self.run_swap_once()

    def _flush_loop(self, shard_index: int, interval_s: float) -> None:
        while not self._stop_event.wait(interval_s):
            self.run_flush_once(shard_index)

    # ------------------------------------------------------------------

    def resident_count(self) -> int:
        with self._entries_lock:
            return len(self._entries)

    def __contains__(self, profile_id: int) -> bool:
        return self._entry(profile_id) is not None
