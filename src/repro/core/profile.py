"""Profile Data: the time-serial slice list for one profile id.

Writes carry a timestamp that determines slice placement (§II-B): if the
timestamp is newer than all existing data a fresh slice is prepended at the
head; otherwise the write lands in the slice whose range contains it.  The
slice list is kept newest-first, non-overlapping and gap-free enough for
window queries — a write into a historical gap creates a slice covering one
granule around the timestamp.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator, Sequence

from ..errors import InvalidTimeRangeError
from .slice import Slice


class ProfileData:
    """One profile's entire history as a newest-first list of slices."""

    __slots__ = (
        "profile_id",
        "slices",
        "write_granularity_ms",
        "kernel_cache",
        "applied_seq",
    )

    def __init__(self, profile_id: int, write_granularity_ms: int = 1000) -> None:
        if write_granularity_ms <= 0:
            raise InvalidTimeRangeError(
                f"write granularity must be positive, got {write_granularity_ms}"
            )
        self.profile_id = profile_id
        #: Newest-first: ``slices[0]`` covers the most recent time range.
        self.slices: list[Slice] = []
        #: Granularity of freshly created head slices (the finest band of the
        #: table's time-dimension config).
        self.write_granularity_ms = write_granularity_ms
        #: Profile-level kernel memo (batch gathers).  Unlike the per-slice
        #: ``Slice.kernel_cache`` this is never cleared on mutation: entries
        #: embed the slice objects and per-slice cache values they were built
        #: from and are revalidated by identity on every use, so a mutated or
        #: replaced slice simply fails validation and the entry is rebuilt.
        self.kernel_cache: dict = {}
        #: Highest WAL sequence merged into this profile (0: never logged).
        #: Set by the node's write path, persisted beside the value and
        #: compared against at recovery; bookkeeping, not profile data, so
        #: neither ``memory_bytes`` nor ``ProfileCodec`` knows it.
        self.applied_seq = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def add(
        self,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts: Sequence[int],
        aggregate,
    ) -> None:
        """Place one write according to its timestamp."""
        target = self._slice_for_timestamp(timestamp_ms)
        target.add(slot, type_id, fid, counts, timestamp_ms, aggregate)

    def _slice_for_timestamp(self, timestamp_ms: int) -> Slice:
        if timestamp_ms < 0:
            raise InvalidTimeRangeError(
                f"timestamp must be >= 0, got {timestamp_ms}"
            )
        if not self.slices or timestamp_ms >= self.slices[0].end_ms:
            return self._new_head_slice(timestamp_ms)
        for existing in self.slices:
            if existing.contains(timestamp_ms):
                return existing
            if timestamp_ms >= existing.end_ms:
                break
        return self._insert_gap_slice(timestamp_ms)

    def _new_head_slice(self, timestamp_ms: int) -> Slice:
        """Prepend a new slice aligned to the write granularity."""
        start = self._align(timestamp_ms)
        end = start + self.write_granularity_ms
        if self.slices and start < self.slices[0].end_ms:
            # The aligned start would overlap the current head; begin exactly
            # where the head ends instead so ranges stay disjoint.
            start = self.slices[0].end_ms
            end = max(end, start + 1)
        head = Slice(start, end)
        self.slices.insert(0, head)
        return head

    def _insert_gap_slice(self, timestamp_ms: int) -> Slice:
        """Create a slice for a write that falls between existing slices."""
        start = self._align(timestamp_ms)
        end = start + self.write_granularity_ms
        # Clamp against the neighbours so ranges never overlap.
        for existing in self.slices:
            if existing.end_ms <= timestamp_ms:
                start = max(start, existing.end_ms)
            elif existing.start_ms > timestamp_ms:
                end = min(end, existing.start_ms)
        if end <= timestamp_ms:
            end = timestamp_ms + 1
        if start > timestamp_ms:
            start = timestamp_ms
        gap = Slice(start, end)
        position = self._insert_position(gap.start_ms)
        self.slices.insert(position, gap)
        return gap

    def _insert_position(self, start_ms: int) -> int:
        """Index at which a slice starting at ``start_ms`` keeps order."""
        for index, existing in enumerate(self.slices):
            if start_ms >= existing.start_ms:
                return index
        return len(self.slices)

    def _align(self, timestamp_ms: int) -> int:
        return timestamp_ms - (timestamp_ms % self.write_granularity_ms)

    # ------------------------------------------------------------------
    # Read path helpers
    # ------------------------------------------------------------------

    def slices_in_window(self, start_ms: int, end_ms: int) -> Iterator[Slice]:
        """Yield slices overlapping the half-open window, newest first."""
        if end_ms <= start_ms:
            return
        for existing in self.slices:
            if existing.end_ms <= start_ms:
                break  # Everything further is older than the window.
            if existing.overlaps(start_ms, end_ms):
                yield existing

    def newest_timestamp_ms(self) -> int | None:
        """End of the newest slice, or ``None`` for an empty profile.

        Used to anchor RELATIVE time ranges ("window starting from the most
        recent action").
        """
        if not self.slices:
            return None
        return self.slices[0].end_ms

    def oldest_timestamp_ms(self) -> int | None:
        if not self.slices:
            return None
        return self.slices[-1].start_ms

    # ------------------------------------------------------------------
    # Maintenance helpers
    # ------------------------------------------------------------------

    def replace_slices(self, new_slices: list[Slice]) -> None:
        """Swap in a rebuilt slice list (compaction / truncation output)."""
        self._check_ordering(new_slices)
        self.slices = new_slices

    @staticmethod
    def _check_ordering(slices: list[Slice]) -> None:
        for newer, older in zip(slices, slices[1:]):
            if older.end_ms > newer.start_ms:
                raise InvalidTimeRangeError(
                    "slice list must be newest-first and non-overlapping: "
                    f"{newer!r} then {older!r}"
                )

    def drop_empty_slices(self) -> int:
        before = len(self.slices)
        self.slices = [s for s in self.slices if not s.is_empty()]
        return before - len(self.slices)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def slice_count(self) -> int:
        return len(self.slices)

    def feature_count(self) -> int:
        return sum(s.feature_count() for s in self.slices)

    def memory_bytes(self) -> int:
        return 64 + sum(s.memory_bytes() for s in self.slices)

    def copy(self) -> "ProfileData":
        duplicate = ProfileData(self.profile_id, self.write_granularity_ms)
        duplicate.slices = [s.copy() for s in self.slices]
        duplicate.applied_seq = self.applied_seq
        return duplicate

    def invariant_check(self) -> None:
        """Raise if the slice list violates ordering invariants (for tests)."""
        self._check_ordering(self.slices)

    def __repr__(self) -> str:
        return (
            f"ProfileData(id={self.profile_id}, slices={len(self.slices)}, "
            f"features={self.feature_count()})"
        )
