"""Kernel backend interface: the three hot loops behind one seam.

The query and compaction data planes reduce to three inner loops:

1. **fused multi-way merge** — fold the per-slice ``(slot, type)`` feature
   maps of a window into one accumulator keyed by fid;
2. **batch decay scaling** — multiply a slice's count vectors by a decay
   weight with C++-style truncation toward zero;
3. **sort / top-K cut** — order the merged accumulator by a sort spec and
   cut to K.

A :class:`KernelBackend` implements all three plus the compaction-time
slice fold.  The ``python`` backend is the reference semantics (always
available); the ``numpy`` backend reimplements the loops column-wise over
flat int64 arrays and must produce **byte-identical** results — the
differential oracle in ``tests/test_kernel_oracle.py`` enforces this.

Backends are selected via :func:`repro.core.kernels.get_backend`
(config field ``TableConfig.kernel_backend`` or the ``IPS_KERNEL_BACKEND``
environment variable; see the package ``__init__``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from ..aggregate import (
    AggregateFn,
    aggregate_last,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..decay import DecayFn
    from ..profile import ProfileData
    from ..query import FeatureResult, QueryStats, SortType
    from ..slice import Slice
    from ..timerange import ResolvedWindow

#: Names of the aggregate functions the columnar backend can vectorise.
#: Anything else (a registered UDAF) routes through the reference loops.
KNOWN_AGGREGATES: dict[int, str] = {
    id(aggregate_sum): "sum",
    id(aggregate_max): "max",
    id(aggregate_min): "min",
    id(aggregate_last): "last",
}


def aggregate_name(reduce_fn: AggregateFn) -> str | None:
    """Map a reduce function back to its built-in name, ``None`` for UDAFs."""
    return KNOWN_AGGREGATES.get(id(reduce_fn))


@dataclass(frozen=True)
class SortSpec:
    """A resolved sort order: type plus pre-resolved attribute indices.

    ``QueryEngine`` resolves attribute names against the table schema (and
    raises ``InvalidQueryError`` for unknown ones) before the spec reaches a
    backend, so backends never see the config.  ``weight_vector`` preserves
    the caller's mapping order — the weighted score is accumulated
    left-to-right in exactly that order so float results match the
    reference bit-for-bit.
    """

    sort_type: "SortType"
    attribute_index: int | None = None
    weight_vector: tuple[tuple[int, float], ...] | None = None


class KernelBackend(abc.ABC):
    """One implementation of the merge / decay-scale / top-K kernels."""

    #: Registry name ("python", "numpy").
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Query kernels
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def run_topk(
        self,
        profile: "ProfileData",
        slot: int,
        type_id: int | None,
        window: "ResolvedWindow",
        reduce_fn: AggregateFn,
        spec: SortSpec,
        k: int,
        descending: bool,
        stats: "QueryStats | None",
    ) -> "list[FeatureResult]":
        """Merge the window then sort by ``spec`` and cut to ``k``."""

    @abc.abstractmethod
    def run_filter(
        self,
        profile: "ProfileData",
        slot: int,
        type_id: int | None,
        window: "ResolvedWindow",
        reduce_fn: AggregateFn,
        predicate: Callable,
        stats: "QueryStats | None",
    ) -> "list[FeatureResult]":
        """Merge the window, keep stats passing ``predicate``, order by
        descending ``(total, fid)``."""

    @abc.abstractmethod
    def run_decay(
        self,
        profile: "ProfileData",
        slot: int,
        type_id: int | None,
        window: "ResolvedWindow",
        reduce_fn: AggregateFn,
        decay_fn: "DecayFn",
        decay_factor: float,
        spec: SortSpec,
        k: int | None,
        stats: "QueryStats | None",
    ) -> "list[FeatureResult]":
        """Merge with per-slice decay weights, rank by ``spec``, cut to
        ``k`` when given (otherwise return every merged feature ranked)."""

    # ------------------------------------------------------------------
    # Batch query kernels (multi-get)
    # ------------------------------------------------------------------
    #
    # One call covers every profile of a multi-get.  ``windows`` is
    # parallel to ``profiles``; ``None`` means the time range resolved to
    # nothing for that profile (empty result, ``results_returned = 0``,
    # no slices scanned).  The defaults run the single-profile kernels in
    # a loop — the reference semantics batch implementations must match
    # result-for-result and stat-for-stat (the batch differential oracle
    # enforces this).

    @staticmethod
    def _run_each(run_one, profiles, windows, stats_list):
        """``run_one(profile, window, stats)`` for every resolved window."""
        results = []
        for profile, window, stats in zip(profiles, windows, stats_list):
            if window is None:
                if stats is not None:
                    stats.results_returned = 0
                results.append([])
            else:
                results.append(run_one(profile, window, stats))
        return results

    def run_topk_batch(
        self,
        profiles: "list[ProfileData]",
        slot: int,
        type_id: int | None,
        windows: "list[ResolvedWindow | None]",
        reduce_fn: AggregateFn,
        spec: SortSpec,
        k: int,
        descending: bool,
        stats_list: "list[QueryStats | None]",
    ) -> "list[list[FeatureResult]]":
        return self._run_each(
            lambda profile, window, stats: self.run_topk(
                profile, slot, type_id, window, reduce_fn, spec, k,
                descending, stats,
            ),
            profiles, windows, stats_list,
        )

    def run_filter_batch(
        self,
        profiles: "list[ProfileData]",
        slot: int,
        type_id: int | None,
        windows: "list[ResolvedWindow | None]",
        reduce_fn: AggregateFn,
        predicate: Callable,
        stats_list: "list[QueryStats | None]",
    ) -> "list[list[FeatureResult]]":
        return self._run_each(
            lambda profile, window, stats: self.run_filter(
                profile, slot, type_id, window, reduce_fn, predicate, stats
            ),
            profiles, windows, stats_list,
        )

    def run_decay_batch(
        self,
        profiles: "list[ProfileData]",
        slot: int,
        type_id: int | None,
        windows: "list[ResolvedWindow | None]",
        reduce_fn: AggregateFn,
        decay_fn: "DecayFn",
        decay_factor: float,
        spec: SortSpec,
        k: int | None,
        stats_list: "list[QueryStats | None]",
    ) -> "list[list[FeatureResult]]":
        return self._run_each(
            lambda profile, window, stats: self.run_decay(
                profile, slot, type_id, window, reduce_fn, decay_fn,
                decay_factor, spec, k, stats,
            ),
            profiles, windows, stats_list,
        )

    # ------------------------------------------------------------------
    # Compaction kernel
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def fold_slice(
        self, target: "Slice", source: "Slice", reduce_fn: AggregateFn
    ) -> None:
        """Fold ``source`` into ``target`` in place (compaction's merge).

        Must match ``Slice.merge_from`` exactly: per-``(slot, type, fid)``
        aggregation, max timestamps, widened time range and invalidated
        memory accounting.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def iter_weighted_slices(
        profile: "ProfileData",
        window: "ResolvedWindow",
        decay: "tuple[DecayFn, float] | None",
    ) -> "Iterator[tuple[Slice, float]]":
        """Yield ``(slice, weight)`` for the window, newest first.

        Every overlapping slice is yielded (it feeds
        ``QueryStats.slices_scanned``), including those whose decay weight
        drops to zero — callers count the scan but must skip merging
        non-positive weights, mirroring the reference loop's bookkeeping.
        """
        for profile_slice in profile.slices_in_window(
            window.start_ms, window.end_ms
        ):
            weight = 1.0
            if decay is not None:
                decay_fn, factor = decay
                midpoint = (profile_slice.start_ms + profile_slice.end_ms) // 2
                age_ms = max(0, window.end_ms - midpoint)
                weight = decay_fn(age_ms, factor)
            yield profile_slice, weight

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<{type(self).__name__} name={self.name!r}>"
