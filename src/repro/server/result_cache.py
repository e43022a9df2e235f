"""Write-invalidated query-result cache in front of every read of a node.

Under the Zipf-skewed traffic the paper assumes, a few thousand hot
profiles absorb most reads, and each read re-executes the full
merge/sort/cut pipeline on the node.  :class:`QueryResultCache` memoizes
finished results keyed by ``(profile_id, query fingerprint)`` — the
fingerprint (:func:`repro.core.query.query_fingerprint`) canonicalizes the
query and embeds the *resolved* time window, so a CURRENT window rotates
to a new key as the clock advances and never serves a stale horizon.
A node's entry is the key's answer in wire form, a
:class:`~repro.core.query.PackedRows`: a worker sends a hit as it is, and
an in-process read unpacks it into ``FeatureResult`` rows.

Correctness rests on *precise invalidation*: every mutation path — node
writes (direct or isolation-merged), ingest applies, maintenance
(compaction / truncation / shrink), WAL recovery installs, and chaos
crash reverts — must invalidate the touched profile's entries before the
mutated state becomes readable.  The hooks live next to the existing
dirty-tracking seams (``GCache.mark_dirty`` / install / ``drop_all`` and
the engine's maintenance entry point); the differential oracle in
``tests/test_result_cache_oracle.py`` proves the set is complete by
replaying every mutation path and requiring every node read to be
byte-identical to the same query run directly on the node's engine.

Installs are epoch-guarded against the read/write race: a reader captures
the profile's invalidation epoch *before* executing, and the install is
discarded if any invalidation landed in between — the freshly computed
result may predate the write that invalidated it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class ResultCacheStats:
    """Counters for the hit-ratio / invalidation dashboard panel."""

    hits: int = 0
    misses: int = 0
    installs: int = 0
    #: Installs discarded because an invalidation raced the execution.
    install_races: int = 0
    #: Invalidation events (one per mutated profile or drop-all).
    invalidations: int = 0
    #: Cached entries removed by those invalidations.
    entries_invalidated: int = 0
    #: Entries removed by LRU capacity pressure.
    evictions: int = 0
    #: Reads that had no fingerprint (opaque predicate, unregistered
    #: decay fn, invalid arguments) and bypassed the cache.
    uncacheable: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryResultCache:
    """LRU of finished query results with per-profile invalidation.

    Entries are immutable.  A list put in is stored as a tuple; any other
    value — a node stores each key's
    :class:`~repro.core.query.PackedRows` — is stored as given.
    :meth:`probe` hands back the entry itself, :meth:`get` a fresh list
    of it, so callers can mutate what they get back without corrupting
    the cache.  A per-profile fingerprint index makes invalidating one
    profile O(entries for that profile), not O(cache).  The index holds
    lists, not sets: under LRU churn a set keeps rebuilding its table,
    and that malloc/free traffic moved the heap top often enough to slow
    the query kernels' numpy allocations by ~20 % (an all-miss multi-get
    with the cache full); a list appended at the back and trimmed near
    the front reallocates only when it grows.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.stats = ResultCacheStats()
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._by_profile: dict[int, list] = {}
        self._profile_epochs: dict[int, int] = {}
        self._global_epoch = 0

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def epoch(self, profile_id: int) -> tuple[int, int]:
        """Invalidation epoch to capture before executing a cacheable read."""
        with self._lock:
            return (self._global_epoch, self._profile_epochs.get(profile_id, 0))

    def get(self, profile_id: int, fingerprint: tuple) -> list | None:
        """Cached result as a fresh list, or ``None`` on a miss."""
        value = self.probe(profile_id, fingerprint)[0]
        return None if value is None else list(value)

    def probe(
        self, profile_id: int, fingerprint: tuple
    ) -> tuple[object | None, tuple[int, int] | None]:
        """The entry and, on a miss, :meth:`epoch` under one lock:
        ``(entry, None)`` on a hit, ``(None, epoch)`` on a miss."""
        key = (profile_id, fingerprint)
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None, (
                    self._global_epoch,
                    self._profile_epochs.get(profile_id, 0),
                )
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value, None

    def put(
        self,
        profile_id: int,
        fingerprint: tuple,
        value,
        epoch: tuple[int, int],
    ) -> bool:
        """Install a result computed under ``epoch``; False if it raced.

        ``epoch`` must come from :meth:`epoch` *before* the execution
        read any profile state.  If an invalidation (= a mutation)
        arrived since, the computed result may be stale and is dropped.
        """
        with self._lock:
            current = (
                self._global_epoch,
                self._profile_epochs.get(profile_id, 0),
            )
            if epoch != current:
                self.stats.install_races += 1
                return False
            key = (profile_id, fingerprint)
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                self._by_profile.setdefault(profile_id, []).append(fingerprint)
            self._entries[key] = tuple(value) if isinstance(value, list) else value
            self.stats.installs += 1
            while len(self._entries) > self.max_entries:
                old_pid, old_fp = self._entries.popitem(last=False)[0]
                fps = self._by_profile[old_pid]
                fps.remove(old_fp)
                if not fps:
                    del self._by_profile[old_pid]
                self.stats.evictions += 1
            return True

    # ------------------------------------------------------------------
    # Invalidation side (wired to every mutation path by the node)
    # ------------------------------------------------------------------

    def invalidate(self, profile_id: int) -> int:
        """One profile mutated: drop its entries, bump its epoch."""
        with self._lock:
            self._profile_epochs[profile_id] = (
                self._profile_epochs.get(profile_id, 0) + 1
            )
            self.stats.invalidations += 1
            fingerprints = self._by_profile.pop(profile_id, None)
            if not fingerprints:
                return 0
            for fingerprint in fingerprints:
                self._entries.pop((profile_id, fingerprint), None)
            dropped = len(fingerprints)
            self.stats.entries_invalidated += dropped
            return dropped

    def invalidate_all(self) -> int:
        """Whole-node mutation (crash revert, recovery): drop everything."""
        with self._lock:
            self._global_epoch += 1
            dropped = len(self._entries)
            self._entries.clear()
            self._by_profile.clear()
            self.stats.invalidations += 1
            self.stats.entries_invalidated += dropped
            return dropped

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"QueryResultCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
