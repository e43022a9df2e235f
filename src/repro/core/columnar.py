"""Columnar feature storage: flat 64-bit arrays as the primary representation.

ROADMAP item #2 inverts the PR 5 design: instead of per-stat Python
objects that kernel backends *gather* into numpy arrays on first touch,
each ``(slot, type)`` group stores its features directly as parallel
``array`` columns:

* ``fids``    — one feature id per row, insertion order, ``array('Q')``
  (uint64: the paper's fids are 64-bit hashed literals);
* ``ts``      — last contributing timestamp per row;
* ``counts``  — row-major count matrix, each row zero-padded to ``stride``
  (the widest native row);
* ``widths``  — native row widths, or ``None`` when every row is exactly
  ``stride`` wide (the overwhelmingly common case);
* ``fid_index`` — per-row profile-wide insertion index, or ``None`` when
  every row carries the default ``-1``.

Every column but ``fids`` is ``array('q')`` (int64).  The write path
(``repro.core.table.check_write``) and the decoder admit only fids in
[0, 2**64) and timestamps in int64, counts clamp to int64 per position,
and aggregate results are coerced with ``int()``, so every value a group
can meet has a column to live in.

Per-feature :class:`~repro.core.feature.FeatureStat` objects are not
stored: :meth:`iter_stats` / :meth:`stats` / :meth:`get` materialise
fresh ones on demand (the python oracle, filter predicates and shrink
read them), and all mutation flows through :meth:`add` / :meth:`merge_from`
/ :meth:`replace` which reproduce ``FeatureStat.merge_counts`` exactly
(positionwise aggregation over the *native* widths, implicit zero
padding, per-position int64 clamping, max timestamps).

Kernel backends wrap the arrays with zero gather work (one buffer view
per column), and the serializer dumps them through ``memoryview`` without
touching a single Python object per feature.

This module is imported by ``core`` proper, so it must stay numpy-free
(``tools/check_numpy_isolation.py`` enforces the isolation); everything
is stdlib ``array`` + buffer protocol.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from .feature import FeatureStat, clamp_int64

#: Typecode of every column but ``fids``: signed 64-bit (matches the
#: paper's C++ structs).
INT64_TYPECODE = "q"
#: Typecode of the fid column: unsigned 64-bit.
FID_TYPECODE = "Q"


def new_stat(fid, counts, last_timestamp_ms, fid_index) -> FeatureStat:
    """FeatureStat from already-clamped values, skipping re-clamping."""
    stat = FeatureStat.__new__(FeatureStat)
    stat.fid = fid
    stat.counts = counts
    stat.last_timestamp_ms = last_timestamp_ms
    stat.fid_index = fid_index
    return stat


class ColumnGroup:
    """One ``(slot, type)`` group of features as parallel 64-bit columns."""

    __slots__ = ("stride", "fids", "ts", "counts", "widths", "fid_index", "_index")

    def __init__(self) -> None:
        self.stride = 0
        self.fids = array(FID_TYPECODE)
        self.ts = array(INT64_TYPECODE)
        self.counts = array(INT64_TYPECODE)
        self.widths: array | None = None
        self.fid_index: array | None = None
        #: fid -> row position.
        self._index: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fids)

    def is_empty(self) -> bool:
        return len(self) == 0

    def row_width(self, row: int) -> int:
        """Native (unpadded) width of one row."""
        if self.widths is not None:
            return self.widths[row]
        return self.stride

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def add(self, fid: int, counts, timestamp_ms: int, aggregate) -> FeatureStat:
        """Record counts for a feature, merging with any existing row.

        Returns a freshly materialised stat reflecting the merged state
        (mutating it does not write back — the columns are primary).
        """
        # Mirror FeatureStat.__init__ / merge_counts int coercion so bad
        # inputs raise the same errors they always did.
        values = [int(count) for count in counts]
        row = self._index.get(fid)
        if row is None:
            clamped = [clamp_int64(value) for value in values]
            self._append_row(fid, clamped, timestamp_ms, -1)
            return new_stat(fid, list(clamped), timestamp_ms, -1)
        return self._merge_row(row, values, timestamp_ms, aggregate)

    def _merge_row(
        self, row: int, values: list, timestamp_ms: int, aggregate
    ) -> FeatureStat:
        """Positionwise aggregate into one row — ``merge_counts`` exactly.

        Every aggregate result is taken through ``int()`` and clamped
        before anything is written, so a failing aggregate leaves the row
        as it was.
        """
        width = self.row_width(row)
        incoming = len(values)
        overlap = min(width, incoming)
        base = row * self.stride
        counts = self.counts
        merged = [
            clamp_int64(int(aggregate(counts[base + i], values[i])))
            for i in range(overlap)
        ]
        if incoming > width:
            merged.extend(
                clamp_int64(int(aggregate(0, value)))
                for value in values[overlap:]
            )
        elif width > overlap:
            merged.extend(
                clamp_int64(int(aggregate(counts[base + i], 0)))
                for i in range(overlap, width)
            )
        new_width = max(width, incoming)
        if new_width > self.stride:
            self._grow_stride(new_width)
            base = row * self.stride
        if new_width != width:
            self._set_row_width(row, new_width)
        self.counts[base : base + new_width] = array(INT64_TYPECODE, merged)
        if timestamp_ms > self.ts[row]:
            self.ts[row] = timestamp_ms
        fid_index = self.fid_index[row] if self.fid_index is not None else -1
        return new_stat(self.fids[row], merged, self.ts[row], fid_index)

    def _append_row(
        self, fid: int, values: Sequence[int], timestamp_ms: int, fid_index: int
    ) -> None:
        """Append one row.  The caller guarantees the values fit their
        columns (``check_write`` on the write path, the decoder's checks)."""
        width = len(values)
        probe = array(INT64_TYPECODE, values)
        if width > self.stride:
            self._grow_stride(width)
        row = len(self.fids)
        self.fids.append(fid)
        self.ts.append(timestamp_ms)
        self.counts.extend(probe)
        if width < self.stride:
            self.counts.extend([0] * (self.stride - width))
            if self.widths is None:
                self.widths = array(INT64_TYPECODE, [self.stride] * row)
            self.widths.append(width)
        elif self.widths is not None:
            self.widths.append(width)
        if fid_index != -1:
            if self.fid_index is None:
                self.fid_index = array(INT64_TYPECODE, [-1] * row)
            self.fid_index.append(fid_index)
        elif self.fid_index is not None:
            self.fid_index.append(-1)
        self._index[fid] = row

    def _grow_stride(self, new_stride: int) -> None:
        """Re-layout the count matrix for a wider stride."""
        old_stride = self.stride
        n_rows = len(self.fids)
        if self.widths is None and n_rows:
            self.widths = array(INT64_TYPECODE, [old_stride] * n_rows)
        relaid = array(INT64_TYPECODE, bytes(8 * n_rows * new_stride))
        for row in range(n_rows):
            src = row * old_stride
            dst = row * new_stride
            relaid[dst : dst + old_stride] = self.counts[src : src + old_stride]
        self.counts = relaid
        self.stride = new_stride

    def _set_row_width(self, row: int, width: int) -> None:
        if self.widths is None:
            if width == self.stride:
                return
            self.widths = array(
                INT64_TYPECODE, [self.stride] * len(self.fids)
            )
        self.widths[row] = width

    # ------------------------------------------------------------------
    # Merging (compaction)
    # ------------------------------------------------------------------

    def merge_from(self, other: "ColumnGroup", aggregate) -> None:
        """Fold another group into this one, source order, old semantics."""
        for row, fid in enumerate(other.fids):
            base = row * other.stride
            values = other.counts[base : base + other.row_width(row)].tolist()
            mine = self._index.get(fid)
            if mine is not None:
                self._merge_row(mine, values, other.ts[row], aggregate)
            else:
                # New fid: a straight copy, exactly like ``stat.copy()``.
                fid_index = (
                    other.fid_index[row] if other.fid_index is not None else -1
                )
                self._append_row(fid, values, other.ts[row], fid_index)

    # ------------------------------------------------------------------
    # FeatureStat views (materialise on demand)
    # ------------------------------------------------------------------

    def iter_stats(self) -> Iterator[FeatureStat]:
        """Yield a fresh :class:`FeatureStat` per feature, insertion order."""
        stride = self.stride
        counts = self.counts
        widths = self.widths
        fid_index = self.fid_index
        ts = self.ts
        for row, fid in enumerate(self.fids):
            base = row * stride
            width = stride if widths is None else widths[row]
            yield new_stat(
                fid,
                counts[base : base + width].tolist(),
                ts[row],
                fid_index[row] if fid_index is not None else -1,
            )

    def stats(self) -> list[FeatureStat]:
        return list(self.iter_stats())

    def get(self, fid: int) -> FeatureStat | None:
        row = self._index.get(fid)
        if row is None:
            return None
        base = row * self.stride
        width = self.row_width(row)
        return new_stat(
            fid,
            self.counts[base : base + width].tolist(),
            self.ts[row],
            self.fid_index[row] if self.fid_index is not None else -1,
        )

    # ------------------------------------------------------------------
    # Bulk replacement (shrink / compaction write-back / decode)
    # ------------------------------------------------------------------

    def replace(self, stats: Iterable[FeatureStat]) -> None:
        """Rebuild the group from stats — ``{stat.fid: stat}`` semantics
        (first occurrence fixes the position, last occurrence the value)."""
        by_fid: dict[int, FeatureStat] = {}
        for stat in stats:
            by_fid[stat.fid] = stat
        self.__init__()  # reset to an empty group
        ordered = list(by_fid.values())
        if not ordered:
            return
        self.stride = max(len(stat.counts) for stat in ordered)
        for stat in ordered:
            self._append_row(
                stat.fid, stat.counts, stat.last_timestamp_ms, stat.fid_index
            )

    @classmethod
    def from_stats(cls, stats: Iterable[FeatureStat]) -> "ColumnGroup":
        group = cls()
        group.replace(stats)
        return group

    @classmethod
    def from_columns(
        cls,
        stride: int,
        fids: array,
        ts: array,
        counts: array,
        widths: array | None,
        fid_index: array | None = None,
    ) -> "ColumnGroup":
        """Adopt pre-built columns (the zero-copy decode path).

        Raises ``ValueError`` on inconsistent shapes or duplicate fids so
        the serializer can surface corruption cleanly.
        """
        n_rows = len(fids)
        if len(ts) != n_rows or len(counts) != n_rows * stride:
            raise ValueError("column length mismatch")
        if widths is not None:
            if len(widths) != n_rows:
                raise ValueError("widths length mismatch")
            if any(w < 0 or w > stride for w in widths):
                raise ValueError("row width outside [0, stride]")
        if fid_index is not None and len(fid_index) != n_rows:
            raise ValueError("fid_index length mismatch")
        group = cls()
        group.stride = stride if n_rows else 0
        group.fids = fids
        group.ts = ts
        group.counts = counts if n_rows else array(INT64_TYPECODE)
        group.widths = widths
        group.fid_index = fid_index
        group._index = {fid: row for row, fid in enumerate(fids)}
        if len(group._index) != n_rows:
            raise ValueError("duplicate fid in column group")
        return group

    # ------------------------------------------------------------------
    # Accounting / copying
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Accounting cost: 48 B group overhead + 8 B per 64-bit cell.

        Computed from the *logical* shape (a ``widths`` array that has
        become all-native no longer costs anything), so two groups with
        identical contents account identically regardless of the
        mutation order that produced them.
        """
        n_rows = len(self.fids)
        total = 48 + n_rows * 8 * (2 + self.stride)
        if self.widths is not None and any(
            width != self.stride for width in self.widths
        ):
            total += 8 * n_rows
        if self.fid_index is not None and any(
            index != -1 for index in self.fid_index
        ):
            total += 8 * n_rows
        return total

    def copy(self) -> "ColumnGroup":
        duplicate = ColumnGroup()
        duplicate.stride = self.stride
        duplicate.fids = array(FID_TYPECODE, self.fids)
        duplicate.ts = array(INT64_TYPECODE, self.ts)
        duplicate.counts = array(INT64_TYPECODE, self.counts)
        duplicate.widths = (
            array(INT64_TYPECODE, self.widths) if self.widths is not None else None
        )
        duplicate.fid_index = (
            array(INT64_TYPECODE, self.fid_index)
            if self.fid_index is not None
            else None
        )
        duplicate._index = dict(self._index)
        return duplicate

    def __repr__(self) -> str:
        return f"ColumnGroup(rows={len(self)}, stride={self.stride})"
