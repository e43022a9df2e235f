"""Single-node profile engine: writes, queries and maintenance in one place.

:class:`ProfileEngine` composes a :class:`~repro.core.table.ProfileTable`
with the query engine, compactor, truncation and shrinker, and implements
the write APIs of §II-B (``add_profile`` / ``add_profiles``) and the read
API (``multi_get`` of a :class:`~repro.core.query.Query`, which the
paper's ``get_profile_topK`` / ``get_profile_filter`` / ``get_profile_decay``
names forward to).

Maintenance scheduling follows §III-D's production strategy: writes mark a
profile *maintenance-pending*; the owner (the IPS server node) drains
pending profiles off the serving path, choosing full or partial compaction
based on load.  The engine also exposes synchronous maintenance entry
points so tests and benchmarks can drive it deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..clock import Clock, SystemClock
from ..config import TableConfig
from ..errors import InvalidQueryError
from .aggregate import get_aggregate
from .compaction import CompactionStats, Compactor
from .decay import get_decay
from .profile import ProfileData
from .query import FeatureResult, Query, QueryEngine, QueryStats
from .shrink import Shrinker, ShrinkStats
from .table import ProfileTable, check_write
from .truncate import TruncateStats, truncate_profile


@dataclass
class MaintenanceReport:
    """Combined result of one maintenance pass over a profile."""

    compaction: CompactionStats | None = None
    truncation: TruncateStats | None = None
    shrink: ShrinkStats | None = None


class ProfileEngine:
    """Write/read/maintain engine over one table."""

    def __init__(self, config: TableConfig, clock: Clock | None = None) -> None:
        from .kernels import get_backend

        self.table = ProfileTable(config)
        self.clock = clock if clock is not None else SystemClock()
        #: Kernel backend shared by the query engine and the compactor
        #: (``config.kernel_backend``, else env/auto — see repro.core.kernels).
        self.kernel_backend = get_backend(config.kernel_backend)
        self.query_engine = QueryEngine(
            config, self.table.aggregate, backend=self.kernel_backend
        )
        self.compactor = Compactor(
            config.time_dimension, self.table.aggregate,
            backend=self.kernel_backend,
        )
        self.shrinker = (
            Shrinker(config, config.shrink) if config.shrink is not None else None
        )
        self._maintenance_pending: set[int] = set()
        #: Profiles with at least this many slices trigger eager maintenance
        #: marking on the write path.
        self.maintenance_slice_threshold = 128
        #: Observers of profile mutations performed *by the engine itself*
        #: (maintenance rewrites, hot config reloads, direct engine
        #: writes).  Called with the profile id, or ``None`` for a
        #: whole-table change.  The node wires these to its query-result
        #: cache so maintenance invalidates precisely, whichever driver
        #: runs it (node, MaintenancePool, tests).
        self._mutation_listeners: list[Callable[[int | None], None]] = []

    def add_mutation_listener(
        self, listener: Callable[[int | None], None]
    ) -> None:
        """Register an observer of engine-driven profile mutations."""
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, profile_id: int | None) -> None:
        for listener in self._mutation_listeners:
            listener(profile_id)

    @property
    def config(self) -> TableConfig:
        return self.table.config

    # ------------------------------------------------------------------
    # Write APIs (§II-B)
    # ------------------------------------------------------------------

    def add_profile(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts: Sequence[int] | dict[str, int],
    ) -> None:
        """``add_profile``: append one feature observation."""
        vector = self._check_write(
            profile_id, timestamp_ms, slot, type_id, fid, counts
        )
        profile = self.table.get_or_create(profile_id)
        profile.add(timestamp_ms, slot, type_id, fid, vector, self.table.aggregate)
        self._mark_for_maintenance(profile)
        self._notify_mutation(profile_id)

    def add_profiles(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fids: Sequence[int],
        counts_list: Sequence[Sequence[int] | dict[str, int]],
    ) -> None:
        """``add_profiles``: the batched write interface."""
        if len(fids) != len(counts_list):
            raise ValueError(
                f"fids and counts must align: {len(fids)} vs {len(counts_list)}"
            )
        vectors = [
            self._check_write(profile_id, timestamp_ms, slot, type_id, fid, counts)
            for fid, counts in zip(fids, counts_list)
        ]
        profile = self.table.get_or_create(profile_id)
        for fid, vector in zip(fids, vectors):
            profile.add(
                timestamp_ms, slot, type_id, fid, vector, self.table.aggregate
            )
        self._mark_for_maintenance(profile)
        self._notify_mutation(profile_id)

    def _check_write(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts: Sequence[int] | dict[str, int],
    ) -> Sequence[int]:
        """The write path's one check (:func:`~repro.core.table.check_write`
        and the schema), run before anything records the write; returns
        the schema-aligned count vector."""
        check_write(profile_id, timestamp_ms, slot, type_id, fid)
        return self._normalize_counts(counts)

    def _normalize_counts(
        self, counts: Sequence[int] | dict[str, int]
    ) -> Sequence[int]:
        """Accept either a schema-aligned vector or an attribute mapping."""
        if isinstance(counts, dict):
            vector = [0] * self.config.num_attributes
            for attribute, value in counts.items():
                vector[self.config.attribute_index(attribute)] = int(value)
            return vector
        if len(counts) > self.config.num_attributes:
            raise ValueError(
                f"count vector of length {len(counts)} exceeds schema "
                f"({self.config.num_attributes} attributes)"
            )
        return counts

    # ------------------------------------------------------------------
    # Reads (§II-B): one multi-get, the paper's names forward to it
    # ------------------------------------------------------------------

    def multi_get(
        self,
        profile_ids: Sequence[int],
        query: Query,
        stats_map: "dict[int, QueryStats] | None" = None,
        now_ms: int | None = None,
    ) -> dict[int, list[FeatureResult]]:
        """Run ``query`` over ``profile_ids`` as **one** kernel batch.

        Returns ``{profile_id: rows}``; an id with no resident profile
        maps to ``[]``.  ``now_ms`` defaults to the engine clock; a caller
        that resolved windows itself (the node, for its cache keys) passes
        the instant it resolved them at, so CURRENT / RELATIVE windows run
        as keyed.
        """
        out: dict[int, list[FeatureResult]] = {}
        ids: list[int] = []
        profiles: list[ProfileData] = []
        for profile_id in profile_ids:
            if profile_id not in out:
                out[profile_id] = []
                profile = self.table.get(profile_id)
                if profile is not None:
                    ids.append(profile_id)
                    profiles.append(profile)
        if profiles:
            stats_list = (
                [stats_map.get(pid) for pid in ids] if stats_map else None
            )
            if now_ms is None:
                now_ms = self.clock.now_ms()
            rows = self._execute(profiles, query, now_ms, stats_list)
            out.update(zip(ids, rows))
        return out

    def _execute(self, profiles, query: Query, now_ms: int, stats_list):
        """The query engine's batch entry for ``query.kind``."""
        q, engine = query, self.query_engine
        if q.kind == "topk":
            aggregate = (
                get_aggregate(q.aggregate) if q.aggregate is not None else None
            )
            return engine.top_k_batch(
                profiles, q.slot, q.type_id, q.time_range, q.sort_type, q.k,
                now_ms, q.sort_attribute, q.sort_weights, aggregate=aggregate,
                stats_list=stats_list,
            )
        if q.kind == "filter":
            return engine.filter_batch(
                profiles, q.slot, q.type_id, q.time_range, q.predicate, now_ms,
                stats_list,
            )
        if q.kind != "decay":
            raise InvalidQueryError(f"unknown query kind {q.kind!r}")
        decay = q.decay_function
        return engine.decay_batch(
            profiles, q.slot, q.type_id, q.time_range,
            get_decay(decay) if isinstance(decay, str) else decay,
            q.decay_factor, now_ms, q.k, q.sort_attribute, stats_list,
        )

    def get_profile_topk(
        self, profile_id: int, *args, stats: QueryStats | None = None, **kwargs
    ) -> list[FeatureResult]:
        """``get_profile_topK``: the id, then :meth:`Query.topk`'s arguments."""
        return self.multi_get(
            [profile_id], Query.topk(*args, **kwargs), {profile_id: stats}
        )[profile_id]

    def get_profile_filter(
        self, profile_id: int, *args, stats: QueryStats | None = None, **kwargs
    ) -> list[FeatureResult]:
        """``get_profile_filter``: the id, then :meth:`Query.filter`'s arguments."""
        return self.multi_get(
            [profile_id], Query.filter(*args, **kwargs), {profile_id: stats}
        )[profile_id]

    def get_profile_decay(
        self, profile_id: int, *args, stats: QueryStats | None = None, **kwargs
    ) -> list[FeatureResult]:
        """``get_profile_decay``: the id, then :meth:`Query.decay`'s arguments."""
        return self.multi_get(
            [profile_id], Query.decay(*args, **kwargs), {profile_id: stats}
        )[profile_id]

    def get_profiles_topk(
        self, profile_ids: Sequence[int], *args, **kwargs
    ) -> dict[int, list[FeatureResult]]:
        """Batched ``get_profile_topK``: the ids, then :meth:`Query.topk`'s."""
        return self.multi_get(profile_ids, Query.topk(*args, **kwargs))

    # ------------------------------------------------------------------
    # Hot reconfiguration (§V-b)
    # ------------------------------------------------------------------

    def reload_config(
        self,
        time_dimension: "TimeDimensionConfig | None" = None,
        truncate: "TruncateConfig | None" = None,
        shrink: "ShrinkConfig | None" = None,
        clear_shrink: bool = False,
    ) -> None:
        """Apply new maintenance configuration live, without a restart.

        The paper's operational lesson (§V-b): feature teams iterate on
        compaction/truncation/shrink settings constantly, so all
        feature-dependent configuration is hot-reloadable.  Existing data
        is untouched; the next maintenance pass applies the new rules.
        Write granularity for *new* head slices follows the new finest
        band; existing slices keep their ranges until compaction.
        """
        from ..config import ShrinkConfig, TimeDimensionConfig, TruncateConfig

        config = self.table.config
        if time_dimension is not None:
            config.time_dimension = time_dimension
            self.compactor = Compactor(
                time_dimension, self.table.aggregate,
                backend=self.kernel_backend,
            )
            new_granularity = time_dimension.bands[0].granularity_ms
            self.table._write_granularity_ms = new_granularity
            for profile in self.table.profiles():
                profile.write_granularity_ms = new_granularity
        if truncate is not None:
            config.truncate = truncate
        if clear_shrink:
            config.shrink = None
            self.shrinker = None
        elif shrink is not None:
            config.shrink = shrink
            self.shrinker = Shrinker(config, shrink)
        # Everything resident is now maintenance-pending under new rules.
        for profile_id in self.table.profile_ids():
            self._maintenance_pending.add(profile_id)
        # New write granularity changes how the next writes slice, which a
        # cached result cannot anticipate — conservative table-wide drop.
        self._notify_mutation(None)

    # ------------------------------------------------------------------
    # Maintenance (§III-D)
    # ------------------------------------------------------------------

    def _mark_for_maintenance(self, profile: ProfileData) -> None:
        if profile.slice_count() >= self.maintenance_slice_threshold:
            self._maintenance_pending.add(profile.profile_id)

    def pending_maintenance(self) -> frozenset[int]:
        return frozenset(self._maintenance_pending)

    def maintain_profile(
        self,
        profile_id: int,
        full: bool = True,
        partial_budget: int = 32,
    ) -> MaintenanceReport:
        """Run compaction, truncation and shrink for one profile.

        ``full=False`` runs the cheap partial compaction (oldest
        ``partial_budget`` slices only) that production uses during peaks.
        """
        report = MaintenanceReport()
        profile = self.table.get(profile_id)
        if profile is None:
            self._maintenance_pending.discard(profile_id)
            return report
        now_ms = self.clock.now_ms()
        report.compaction = self.compactor.compact(
            profile, now_ms, partial_budget=None if full else partial_budget
        )
        report.truncation = truncate_profile(profile, self.config.truncate, now_ms)
        if self.shrinker is not None:
            report.shrink = self.shrinker.shrink(profile, now_ms)
        self._maintenance_pending.discard(profile_id)
        # Compaction re-buckets, truncation/shrink discard data: cached
        # window reads over this profile are stale either way.
        self._notify_mutation(profile_id)
        return report

    def run_maintenance(
        self,
        max_profiles: int | None = None,
        full: bool = True,
        should_stop: Callable[[], bool] | None = None,
    ) -> dict[int, MaintenanceReport]:
        """Drain the maintenance-pending set (the dedicated-pool analogue)."""
        reports: dict[int, MaintenanceReport] = {}
        pending = list(self._maintenance_pending)
        if max_profiles is not None:
            pending = pending[:max_profiles]
        for profile_id in pending:
            if should_stop is not None and should_stop():
                break
            reports[profile_id] = self.maintain_profile(profile_id, full=full)
        return reports

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def profile_count(self) -> int:
        return len(self.table)

    def memory_bytes(self) -> int:
        return self.table.memory_bytes()
