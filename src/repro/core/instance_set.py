"""Instance Set: per-slot map of action types to feature statistics.

In the paper's in-memory layout (Fig. 6), a *Slice* maps slot ids to
*Instance Sets*, and each Instance Set maps an action-type id to the feature
stats recorded under that type.  Keeping types separate lets queries narrow
the search space with ``(slot, type)`` before any merging happens.

Since the columnar-native refactor each type's features live in a
:class:`~repro.core.columnar.ColumnGroup` — parallel int64 arrays as the
primary representation.  Per-feature ``FeatureStat`` objects are
materialised on demand (:meth:`features_for_type`, :meth:`get`): returned
stats are fresh snapshots, and all mutation flows through :meth:`add`,
:meth:`merge_from` and :meth:`replace_type`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .columnar import ColumnGroup
from .feature import FeatureStat


class InstanceSet:
    """Map of ``type_id -> ColumnGroup`` for one slot."""

    __slots__ = ("_types",)

    def __init__(self) -> None:
        self._types: dict[int, ColumnGroup] = {}

    def add(
        self,
        type_id: int,
        fid: int,
        counts,
        timestamp_ms: int,
        aggregate,
    ) -> FeatureStat:
        """Record counts for a feature, merging with any existing stat."""
        group = self._types.setdefault(type_id, ColumnGroup())
        return group.add(fid, counts, timestamp_ms, aggregate)

    def merge_from(self, other: "InstanceSet", aggregate) -> None:
        """Fold another instance set into this one (used by compaction)."""
        for type_id, group in other._types.items():
            mine = self._types.setdefault(type_id, ColumnGroup())
            mine.merge_from(group, aggregate)

    def features_for_type(self, type_id: int | None) -> Iterator[FeatureStat]:
        """Yield stats under one type, or under all types when ``None``.

        Stats are materialised from the columns — mutating one does not
        write back; use :meth:`replace_type` to persist edits.
        """
        if type_id is None:
            for group in self._types.values():
                yield from group.iter_stats()
        else:
            group = self._types.get(type_id)
            if group is not None:
                yield from group.iter_stats()

    def column_groups(self, type_id: int | None) -> list[ColumnGroup]:
        """The primary column groups for one type (all when ``None``).

        This is the kernel/serializer fast path: no per-feature Python
        objects are created.  Callers must not mutate the arrays.
        """
        if type_id is None:
            return list(self._types.values())
        group = self._types.get(type_id)
        return [group] if group is not None else []

    def column_group(self, type_id: int) -> ColumnGroup | None:
        return self._types.get(type_id)

    def get(self, type_id: int, fid: int) -> FeatureStat | None:
        group = self._types.get(type_id)
        if group is None:
            return None
        return group.get(fid)

    def replace_type(self, type_id: int, stats: Iterable[FeatureStat]) -> None:
        """Replace the feature columns of one type (used by shrink)."""
        group = ColumnGroup.from_stats(stats)
        if not group.is_empty():
            self._types[type_id] = group
        else:
            self._types.pop(type_id, None)

    def adopt_group(self, type_id: int, group: ColumnGroup) -> None:
        """Install a pre-built column group (deserialization fast path)."""
        if not group.is_empty():
            self._types[type_id] = group
        else:
            self._types.pop(type_id, None)

    @property
    def type_ids(self) -> tuple[int, ...]:
        return tuple(self._types.keys())

    def feature_count(self) -> int:
        return sum(len(group) for group in self._types.values())

    def is_empty(self) -> bool:
        return not self._types

    def memory_bytes(self) -> int:
        return 48 + sum(group.memory_bytes() for group in self._types.values())

    def copy(self) -> "InstanceSet":
        duplicate = InstanceSet()
        for type_id, group in self._types.items():
            duplicate._types[type_id] = group.copy()
        return duplicate

    def groups_items(self) -> Iterator[tuple[int, ColumnGroup]]:
        return iter(self._types.items())

    def __repr__(self) -> str:
        return f"InstanceSet(types={len(self._types)}, features={self.feature_count()})"
