"""Slice: a snapshot of one profile's behaviour over a time interval.

A profile is a time-serial list of slices with non-overlapping, adjacent
time ranges (newest first, as in the paper's figures).  Each slice maps
slot ids to :class:`~repro.core.instance_set.InstanceSet` structures.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import InvalidTimeRangeError
from .feature import FeatureStat
from .instance_set import InstanceSet


class Slice:
    """Feature behaviour within ``[start_ms, end_ms)``."""

    __slots__ = (
        "start_ms",
        "end_ms",
        "_slots",
        "_memory_dirty",
        "_memory_cache",
        "kernel_cache",
    )

    def __init__(self, start_ms: int, end_ms: int) -> None:
        if end_ms <= start_ms:
            raise InvalidTimeRangeError(
                f"slice range must be non-empty: [{start_ms}, {end_ms})"
            )
        self.start_ms = start_ms
        self.end_ms = end_ms
        self._slots: dict[int, InstanceSet] = {}
        self._memory_dirty = True
        self._memory_cache = 0
        #: Opaque per-slice scratch for kernel backends (columnar
        #: projections of the feature maps).  Derived data only — cleared
        #: on every mutation, never serialised, not counted in
        #: ``memory_bytes``.
        self.kernel_cache: dict = {}

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms

    def contains(self, timestamp_ms: int) -> bool:
        return self.start_ms <= timestamp_ms < self.end_ms

    def overlaps(self, start_ms: int, end_ms: int) -> bool:
        """Whether this slice intersects the half-open window [start, end)."""
        return self.start_ms < end_ms and start_ms < self.end_ms

    def add(
        self,
        slot: int,
        type_id: int,
        fid: int,
        counts: Sequence[int],
        timestamp_ms: int,
        aggregate,
    ) -> FeatureStat:
        """Record one write inside this slice."""
        if not self.contains(timestamp_ms):
            raise InvalidTimeRangeError(
                f"timestamp {timestamp_ms} outside slice "
                f"[{self.start_ms}, {self.end_ms})"
            )
        # Clear *before* mutating: a mutation that raises part-way then
        # cannot leave a projection of the old columns behind, and the
        # profile memo — validated against these entries by identity — goes
        # stale with them.  This is about staleness only: projections are
        # private copies, no kernel holds a buffer export over the column
        # arrays, so they stay resizable whatever is cached.
        self.mark_mutated()
        instance_set = self._slots.setdefault(slot, InstanceSet())
        return instance_set.add(type_id, fid, counts, timestamp_ms, aggregate)

    def instance_set(self, slot: int) -> InstanceSet | None:
        return self._slots.get(slot)

    def ensure_slot(self, slot: int) -> InstanceSet:
        """Get (or create) the instance set for a slot.

        Used by kernel backends that rebuild per-type feature maps during
        columnar compaction folds; callers must ``mark_mutated()`` after
        editing the returned set.
        """
        return self._slots.setdefault(slot, InstanceSet())

    def features(self, slot: int, type_id: int | None) -> Iterator[FeatureStat]:
        """Yield stats under (slot, type); empty if the slot is absent."""
        instance_set = self._slots.get(slot)
        if instance_set is not None:
            yield from instance_set.features_for_type(type_id)

    def column_groups(self, slot: int, type_id: int | None):
        """The primary column groups under (slot, type) — kernel and
        serializer fast path; callers must not mutate the arrays."""
        instance_set = self._slots.get(slot)
        if instance_set is None:
            return []
        return instance_set.column_groups(type_id)

    def merge_from(self, other: "Slice", aggregate) -> None:
        """Absorb another slice's data and widen the time range to cover it."""
        self.mark_mutated()
        for slot, instance_set in other._slots.items():
            mine = self._slots.setdefault(slot, InstanceSet())
            mine.merge_from(instance_set, aggregate)
        self.start_ms = min(self.start_ms, other.start_ms)
        self.end_ms = max(self.end_ms, other.end_ms)

    def mark_mutated(self) -> None:
        """Invalidate cached memory accounting and kernel projections
        after in-place edits."""
        self._memory_dirty = True
        if self.kernel_cache:
            self.kernel_cache.clear()

    @property
    def slot_ids(self) -> tuple[int, ...]:
        return tuple(self._slots.keys())

    def slots_items(self) -> Iterator[tuple[int, InstanceSet]]:
        return iter(self._slots.items())

    def drop_empty_slots(self) -> None:
        empty = [slot for slot, inst in self._slots.items() if inst.is_empty()]
        for slot in empty:
            del self._slots[slot]
        if empty:
            self.mark_mutated()

    def feature_count(self) -> int:
        return sum(inst.feature_count() for inst in self._slots.values())

    def is_empty(self) -> bool:
        return all(inst.is_empty() for inst in self._slots.values())

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint, cached between mutations."""
        if self._memory_dirty:
            total = 64
            for instance_set in self._slots.values():
                total += instance_set.memory_bytes()
            self._memory_cache = total
            self._memory_dirty = False
        return self._memory_cache

    def copy(self) -> "Slice":
        duplicate = Slice(self.start_ms, self.end_ms)
        for slot, instance_set in self._slots.items():
            duplicate._slots[slot] = instance_set.copy()
        return duplicate

    def __repr__(self) -> str:
        return (
            f"Slice([{self.start_ms}, {self.end_ms}), "
            f"slots={len(self._slots)}, features={self.feature_count()})"
        )
