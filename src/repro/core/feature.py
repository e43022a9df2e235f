"""Feature statistics: the leaves of the IPS data model.

The paper's *Indexed Feature Stat* associates a feature id with a vector of
int64 action counts (likes, comments, shares, ...) plus an ``fid_index``
that tracks the feature's position in the user's full feature list to speed
up multi-way merging.  :class:`FeatureStat` is the Python equivalent; count
vectors are plain lists aligned to the owning table's attribute schema.
"""

from __future__ import annotations

from typing import Iterable, Sequence

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def clamp_int64(value: int) -> int:
    """Clamp a count into the int64 range the paper's C++ structs use."""
    if value > INT64_MAX:
        return INT64_MAX
    if value < INT64_MIN:
        return INT64_MIN
    return value


class FeatureStat:
    """Count vector and bookkeeping for one feature id.

    Attributes:
        fid: the unsigned 64-bit feature id (hashed literal in production).
        counts: mutable list of int64 counters aligned to the table schema.
        last_timestamp_ms: timestamp of the most recent contributing action,
            used by RELATIVE time ranges, timestamp sorting and the shrink
            freshness boost.
        fid_index: index of this feature in the profile-wide feature list;
            maintained by the engine to accelerate multi-way merges.
    """

    __slots__ = ("fid", "counts", "last_timestamp_ms", "fid_index")

    def __init__(
        self,
        fid: int,
        counts: Sequence[int],
        last_timestamp_ms: int = 0,
        fid_index: int = -1,
    ) -> None:
        self.fid = fid
        self.counts = [clamp_int64(int(count)) for count in counts]
        self.last_timestamp_ms = last_timestamp_ms
        self.fid_index = fid_index

    def copy(self) -> "FeatureStat":
        return FeatureStat(
            self.fid, list(self.counts), self.last_timestamp_ms, self.fid_index
        )

    def merge_counts(
        self, other_counts: Sequence[int], aggregate, other_timestamp_ms: int
    ) -> None:
        """Fold another count vector into this one with an aggregate function.

        Vectors of different lengths (after a schema change) are implicitly
        zero-padded to the longer length and aggregated positionwise — the
        same "missing positions read as zero" rule that :meth:`count_at`
        applies on reads.  Under SUM this matches the historical
        keep-the-tail behaviour; under MIN/MAX/LAST the absent side now
        participates as an explicit zero instead of being silently skipped.
        The merged vector always has ``max(len(self), len(other))`` entries,
        and every aggregate result is taken through ``int()`` before it is
        clamped, as the count columns take it.
        """
        overlap = min(len(self.counts), len(other_counts))
        for index in range(overlap):
            self.counts[index] = clamp_int64(
                int(aggregate(self.counts[index], int(other_counts[index])))
            )
        if len(other_counts) > len(self.counts):
            self.counts.extend(
                clamp_int64(int(aggregate(0, int(count))))
                for count in other_counts[overlap:]
            )
        elif len(self.counts) > overlap:
            for index in range(overlap, len(self.counts)):
                self.counts[index] = clamp_int64(
                    int(aggregate(self.counts[index], 0))
                )
        if other_timestamp_ms > self.last_timestamp_ms:
            self.last_timestamp_ms = other_timestamp_ms

    def count_at(self, attribute_index: int) -> int:
        """Counter at a schema position; missing positions read as zero."""
        if 0 <= attribute_index < len(self.counts):
            return self.counts[attribute_index]
        return 0

    def scaled(self, factor: float) -> "FeatureStat":
        """Return a copy with every counter multiplied by ``factor``.

        Used by decay queries; results round toward zero like the C++
        implementation's integer truncation.
        """
        scaled_counts = [clamp_int64(int(count * factor)) for count in self.counts]
        return FeatureStat(
            self.fid, scaled_counts, self.last_timestamp_ms, self.fid_index
        )

    def total(self) -> int:
        return sum(self.counts)

    def memory_bytes(self) -> int:
        """Rough accounting cost used by the cache layer (8 B per counter)."""
        return 32 + 8 * len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureStat):
            return NotImplemented
        return (
            self.fid == other.fid
            and self.counts == other.counts
            and self.last_timestamp_ms == other.last_timestamp_ms
        )

    def __repr__(self) -> str:
        return (
            f"FeatureStat(fid={self.fid}, counts={self.counts}, "
            f"last_ts={self.last_timestamp_ms})"
        )


def merge_feature_stats(
    stats: Iterable[FeatureStat], aggregate
) -> dict[int, FeatureStat]:
    """Multi-way merge of feature stats keyed by fid.

    This is the inner loop of both query aggregation and slice compaction:
    stats for the same fid are folded together with the table's aggregate
    function, stats for distinct fids pass through as copies.
    """
    merged: dict[int, FeatureStat] = {}
    for stat in stats:
        existing = merged.get(stat.fid)
        if existing is None:
            merged[stat.fid] = stat.copy()
        else:
            existing.merge_counts(stat.counts, aggregate, stat.last_timestamp_ms)
    return merged
