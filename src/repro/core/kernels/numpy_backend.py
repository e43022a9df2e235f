"""Columnar kernel backend: flat 64-bit arrays instead of per-stat folds.

The three hot loops become array programs:

* **fused multi-way merge** — gather every contributing ``FeatureStat``
  row (fid, counts, timestamp) across the window into flat arrays, group
  by fid with one sort, and reduce each group with a single
  ``np.{add,maximum,minimum}.reduceat`` (or a take-last gather for the
  LAST aggregate);
* **batch decay scaling** — scale whole slice segments of the count
  matrix by their decay weight in float64 and truncate toward zero with
  ``np.trunc``, exactly like ``FeatureStat.scaled``;
* **sort / top-K cut** — build the reference key columns and order them
  with one ``np.lexsort``; only the selected rows are materialised back
  into ``FeatureResult`` objects.

The gather step is the only part that touches Python objects, so its
output — the per-``(slot, type)`` columnar projection of a slice — is
memoised in ``Slice.kernel_cache``.  Slices are append-mostly and every
mutation path clears the cache, so warm queries skip straight to the
array program; this is the columnar layout the tentpole asks for, kept
as derived data (never serialised, not in ``memory_bytes``).

**Byte-identical results are a hard contract** (the differential oracle
enforces it), so the kernel refuses any input where vectorised arithmetic
could diverge from the reference's stepwise semantics and delegates the
whole query to :class:`PythonBackend` instead:

* SUM merges where an intermediate fold could saturate int64
  (``rows * max|count| >= 2**63`` — the reference clamps per fold);
* decay scaling where counts reach 2**53 (float64 rounding edges);
* total-based sort keys whose row sums could overflow int64;
* user-defined aggregate functions (only SUM/MAX/MIN/LAST vectorise).

Fids are uint64 from the column to the result (``~fids`` is the
descending tie-break key).  They are only sorted, compared and indexed,
never mixed into int64 arithmetic, which numpy would carry out in
float64.

Everything outside ``repro.core.kernels`` must stay numpy-free — a lint
(``tools/check_numpy_isolation.py``) enforces the isolation.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

import numpy as np

from ..aggregate import AggregateFn
from ..columnar import new_stat
from ..feature import FeatureStat
from .base import KernelBackend, SortSpec, aggregate_name
from .python_backend import PythonBackend

#: Above this magnitude int64 -> float64 round-trips stop being exact.
_FLOAT_EXACT_BOUND = 2**53
#: int64 overflow bound for summation guards.
_INT64_BOUND = 2**63

# C-speed field extractors for the compaction gather (map + list.extend).
_GET_FID = attrgetter("fid")
_GET_COUNTS = attrgetter("counts")
_GET_TS = attrgetter("last_timestamp_ms")
_GET_FID_INDEX = attrgetter("fid_index")


def _max_abs(matrix: np.ndarray) -> int:
    """Largest magnitude in an int64 array, exact (Python ints), 0 if empty."""
    if matrix.size == 0:
        return 0
    return max(int(matrix.max()), -int(matrix.min()))


class _Columns:
    """Columnar projection of one row block, in reference iteration order.

    ``widths`` and ``fid_index`` are materialised lazily: ``None``
    internally means "every row is natively ``W`` wide" and "every row
    carries the default ``-1``" respectively — the overwhelmingly common
    shapes — so the cold path skips two ``np.full`` allocations per
    (slice, slot, type) group.
    """

    __slots__ = ("fids", "matrix", "ts", "_widths", "_fid_index", "uniform")

    def __init__(self, fids, matrix, ts, widths, fid_index, uniform) -> None:
        self.fids = fids          # (n,) uint64
        self.matrix = matrix      # (n, W) int64, short rows zero-padded
        self.ts = ts              # (n,) int64
        self._widths = widths     # (n,) int64 native row widths, or None
        self._fid_index = fid_index  # (n,) int64 insertion indices, or None
        self.uniform = uniform    # every row natively W wide

    @property
    def widths(self) -> np.ndarray:
        if self._widths is None:
            self._widths = np.full(
                len(self.fids), self.matrix.shape[1], dtype=np.int64
            )
        return self._widths

    @property
    def fid_index(self) -> np.ndarray:
        if self._fid_index is None:
            self._fid_index = np.full(len(self.fids), -1, dtype=np.int64)
        return self._fid_index

    @property
    def n_rows(self) -> int:
        return len(self.fids)

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def _snapshot(column, dtype=np.int64) -> np.ndarray:
    """A private copy of one ``array`` column (``'q'``, or ``'Q'`` fids).

    ``array.tobytes()`` is one C call under the GIL and no buffer export
    outlives it, so a concurrent writer can always resize the column.
    (``np.array(column)`` holds an export while it copies and can release
    the GIL on larger columns: a concurrent ``ColumnGroup._append_row``
    died with ``BufferError`` half-way through growing its columns and
    left them ragged for good.)  The second copy moves the rows into a
    buffer numpy owns, as they were before: arrays left backed by the
    ``bytes`` objects measured +1.0–1.4 KB of RSS per 192-row profile on
    every e2e workload and, through the heap layout they leave, a
    256-profile batch 1 ms slower in ``bench_kernels``.
    """
    return np.frombuffer(column.tobytes(), dtype=dtype).copy()


def _columns_from_group(group):
    """Wrap a :class:`~repro.core.columnar.ColumnGroup` directly.

    The primary representation already is flat 64-bit columns — no
    per-stat gather happens here, just a :func:`_snapshot` of each
    column, which never blocks a concurrent writer.
    """
    n_rows = len(group)
    if not n_rows:
        return None
    stride = group.stride
    fid_arr = _snapshot(group.fids, np.uint64)
    matrix = (
        _snapshot(group.counts).reshape(n_rows, stride)
        if stride
        else np.zeros((n_rows, 0), dtype=np.int64)
    )
    ts_arr = _snapshot(group.ts)
    if group.widths is None:
        width_arr = None  # materialised lazily: every row is stride wide
        uniform = True
    else:
        width_arr = _snapshot(group.widths)
        uniform = bool((width_arr == stride).all())
    fid_index_arr = (
        None if group.fid_index is None else _snapshot(group.fid_index)
    )
    return _Columns(fid_arr, matrix, ts_arr, width_arr, fid_index_arr, uniform)


def _columns_from_lists(fids, rows, ts, fid_index):
    """Convert gathered (non-empty) Python lists into :class:`_Columns`."""
    n_rows = len(fids)
    fid_arr = np.fromiter(fids, dtype=np.uint64, count=n_rows)
    width_arr = np.fromiter(map(len, rows), dtype=np.int64, count=n_rows)
    max_width = int(width_arr.max())
    uniform = int(width_arr.min()) == max_width
    if uniform:
        # Uniform widths: one C pass over a chained iterator beats
        # np.array's list-of-lists walk by a wide margin.
        matrix = np.fromiter(
            chain.from_iterable(rows),
            dtype=np.int64,
            count=n_rows * max_width,
        ).reshape(n_rows, max_width)
    else:
        matrix = np.array(
            [
                list(row) + [0] * (max_width - len(row))
                if len(row) < max_width
                else row
                for row in rows
            ],
            dtype=np.int64,
        )
    ts_arr = np.fromiter(ts, dtype=np.int64, count=n_rows)
    fid_index_arr = np.fromiter(fid_index, dtype=np.int64, count=n_rows)
    return _Columns(fid_arr, matrix, ts_arr, width_arr, fid_index_arr, uniform)


class _Gathered:
    """One batch's rows: every profile's blocks concatenated."""

    __slots__ = ("columns", "segments", "pids", "scanned", "rows")

    def __init__(self, columns, segments, pids, scanned, rows) -> None:
        self.columns = columns    # _Columns | None (no rows in any window)
        #: (start_row, end_row, weight) for slices with weight != 1.0.
        self.segments = segments
        #: (n,) int64 row -> profile index; ``None`` for a one-profile
        #: batch, whose sorts then need no pid key.
        self.pids = pids
        self.scanned = scanned    # per profile, feeds QueryStats.slices_scanned
        self.rows = rows          # per profile, feeds QueryStats.features_merged


#: Distinguishes "slice cache holds None for this key" (an empty
#: projection) from "key absent" (cache cleared by a mutation) during
#: profile-memo validation.
_MISSING = object()


class _ProfileGather:
    """One profile's combined window gather, memoised on the profile.

    Stored in ``ProfileData.kernel_cache`` and never invalidated
    explicitly: ``slices`` and ``entries`` pin the exact slice objects
    and per-slice cache values the combine was built from, and every use
    revalidates them by identity.  Any slice mutation clears that
    slice's ``kernel_cache`` (the repo-wide clear-before-mutate rule),
    any structural change alters the window's slice list — either way
    validation fails and the memo is rebuilt.
    """

    __slots__ = ("slices", "entries", "columns")

    def __init__(self, slices, entries, columns) -> None:
        self.slices = slices      # tuple[Slice], window order (newest first)
        self.entries = entries    # parallel per-slice cache values
        self.columns = columns    # combined _Columns | None (no rows)


class _Merged:
    """Columnar accumulator: one row per distinct (profile, fid), ascending."""

    __slots__ = ("fids", "counts", "ts", "widths", "first_row", "pids")

    def __init__(self, fids, counts, ts, widths, first_row, pids) -> None:
        self.fids = fids          # (n,) uint64, ascending within a profile
        self.counts = counts      # (n, W) int64
        self.ts = ts              # (n,) int64 max contributor timestamp
        self.widths = widths      # (n,) int64 max width; None = all W wide
        self.first_row = first_row  # original row of first contribution
        self.pids = pids          # (n,) int64 profile index, ascending; or None


class NumpyBackend(KernelBackend):
    """numpy-accelerated kernels, reference-exact or delegating.

    Every read is a batch: rows of all profiles of a multi-get share one
    gather → reduce → order → materialise pass, and a point read is the
    one-profile batch.  With more than one profile the rows carry a
    profile-index (pid) column — grouping keys on (pid, fid) and the
    ordering lexsort puts pid outermost, so each profile's segment of the
    ordered output is contiguous and equals its one-profile ordering
    exactly (the keys are identical and the sorts stable); a one-profile
    batch elides the column and both sorts run without the extra key.
    Exactness guards are evaluated batch-wide — conservative, but a
    tripped batch re-runs profile by profile, and a tripped one-profile
    batch is the reference loop's.
    """

    name = "numpy"

    #: Compaction folds below this combined feature count stay on the
    #: reference path — tiny dict merges beat array setup costs.
    fold_min_features = 128

    #: Cap on distinct memo keys per profile (distinct resolved windows);
    #: beyond this the memo resets, bounding growth on write-heavy
    #: profiles whose anchored windows shift with every write.
    _PROFILE_MEMO_LIMIT = 8

    def __init__(self) -> None:
        self._reference = PythonBackend()

    # ------------------------------------------------------------------
    # Gather: per-slice columnar projections, memoised on the slice, and
    # their per-window combination, memoised on the profile
    # ------------------------------------------------------------------

    def _slice_columns(self, profile_slice, slot, type_id):
        """The (slot, type) projection of one slice, cached until mutation."""
        cache = profile_slice.kernel_cache
        key = (slot, type_id)
        try:
            return cache[key]
        except KeyError:
            pass
        blocks = [
            block
            for group in profile_slice.column_groups(slot, type_id)
            if (block := _columns_from_group(group)) is not None
        ]
        columns = cache[key] = self._combine(blocks)
        return columns

    def _profile_gather(self, profile, slot, type_id, window, keep):
        """The profile's combined (slot, type) projection for one window.

        Memoised in ``ProfileData.kernel_cache`` and revalidated by
        identity on every hit (see :class:`_ProfileGather`).  A miss is
        stored only when ``keep``: the memo is a second resident copy of
        the window's rows, which a multi-get earns back (its numpy-call
        count stays constant in the batch size) and a profile read alone
        does not — storing on point reads measured +10 KB of RSS per
        192-row profile.
        """
        key = (slot, type_id, window.start_ms, window.end_ms)
        cache = profile.kernel_cache
        memo = cache.get(key)
        entry_key = (slot, type_id)
        if memo is not None:
            cached_slices = memo.slices
            entries = memo.entries
            count = len(cached_slices)
            i = 0
            for profile_slice in profile.slices_in_window(
                window.start_ms, window.end_ms
            ):
                if (
                    i >= count
                    or cached_slices[i] is not profile_slice
                    or profile_slice.kernel_cache.get(entry_key, _MISSING)
                    is not entries[i]
                ):
                    i = -1
                    break
                i += 1
            if i == count:
                return memo
        slice_list: list = []
        entry_list: list = []
        profile_blocks: list[_Columns] = []
        for profile_slice in profile.slices_in_window(
            window.start_ms, window.end_ms
        ):
            columns = self._slice_columns(profile_slice, slot, type_id)
            slice_list.append(profile_slice)
            entry_list.append(columns)
            if columns is not None:
                profile_blocks.append(columns)
        memo = _ProfileGather(
            tuple(slice_list), entry_list, self._combine(profile_blocks)
        )
        if keep:
            if len(cache) >= self._PROFILE_MEMO_LIMIT:
                cache.clear()
            cache[key] = memo
        return memo

    def _gather(self, profiles, slot, type_id, windows, decay):
        """One flat gather: every profile's blocks feed a single combine.

        Blocks from all profiles go straight into one global block list
        (plus a pid per block, so the row→profile map is a single
        ``np.repeat``): a 256-profile multi-get runs the same ~constant
        number of numpy calls as a point read.  A weight-free read
        contributes one pre-combined block per profile, taken from the
        profile memo (which only a multi-get populates); a decay read
        walks the slices so that each block keeps its weight.
        ``windows[i] is None`` (the range resolved to nothing) scans no
        slice and contributes no row.
        """
        blocks: list[_Columns] = []
        block_pids: list[int] = []
        segments: list[tuple[int, int, float]] = []
        scanned = [0] * len(profiles)
        rows = [0] * len(profiles)
        total = 0
        for index, (profile, window) in enumerate(zip(profiles, windows)):
            if window is None:
                continue
            if decay is None:
                memo = self._profile_gather(
                    profile, slot, type_id, window, len(profiles) > 1
                )
                scanned[index] = len(memo.slices)
                weighted = ((memo.columns, 1.0),)
            else:
                weighted = []
                for profile_slice, weight in self.iter_weighted_slices(
                    profile, window, decay
                ):
                    scanned[index] += 1
                    if weight > 0.0:
                        columns = self._slice_columns(profile_slice, slot, type_id)
                        weighted.append((columns, weight))
            first = total
            for columns, weight in weighted:
                if columns is None:
                    continue
                blocks.append(columns)
                block_pids.append(index)
                end = total + columns.n_rows
                if weight != 1.0:
                    segments.append((total, end, weight))
                total = end
            rows[index] = total - first
        pids = None
        if len(profiles) > 1 and blocks:
            pids = np.repeat(
                np.asarray(block_pids, dtype=np.int64),
                np.asarray([block.n_rows for block in blocks], dtype=np.intp),
            )
        return _Gathered(self._combine(blocks), segments, pids, scanned, rows)

    @staticmethod
    def _combine(blocks: list[_Columns]):
        """Concatenate blocks, zero-padding narrower matrices."""
        if not blocks:
            return None
        if len(blocks) == 1:
            return blocks[0]  # Aliases the cache; merge never writes it.
        widths = [block.width for block in blocks]
        width = max(widths)
        if all(w == width for w in widths):
            matrix = np.concatenate([block.matrix for block in blocks])
            uniform = all(block.uniform for block in blocks)
        else:
            total = sum(block.n_rows for block in blocks)
            matrix = np.zeros((total, width), dtype=np.int64)
            offset = 0
            for block in blocks:
                matrix[offset : offset + block.n_rows, : block.width] = (
                    block.matrix
                )
                offset += block.n_rows
            uniform = False
        # A uniform result needs no widths column (every row is natively
        # `width` wide); likewise fid_index stays lazy while every input
        # block's is (all rows default to -1).
        widths_arr = (
            None
            if uniform
            else np.concatenate([block.widths for block in blocks])
        )
        fid_index_arr = (
            None
            if all(block._fid_index is None for block in blocks)
            else np.concatenate([block.fid_index for block in blocks])
        )
        return _Columns(
            np.concatenate([block.fids for block in blocks]),
            matrix,
            np.concatenate([block.ts for block in blocks]),
            widths_arr,
            fid_index_arr,
            uniform,
        )

    # ------------------------------------------------------------------
    # Reduce: group by (pid, fid) and aggregate column-wise
    # ------------------------------------------------------------------

    def _reduce(
        self, columns: _Columns, segments, pid_arr, agg: str, need_first_row: bool
    ) -> _Merged | None:
        """Columnar merge; ``None`` means an exactness guard tripped.

        ``need_first_row`` asks for each group's first contributing row
        (the surviving ``fid_index`` when stats are materialised); it
        forces a stable grouping sort, as does the LAST aggregate.
        """
        n_rows = columns.n_rows
        matrix = columns.matrix

        if segments and matrix.size:
            if _max_abs(matrix) >= _FLOAT_EXACT_BOUND:
                return None
            scaled = matrix.astype(np.float64)
            for start, end, weight in segments:
                np.trunc(scaled[start:end] * weight, out=scaled[start:end])
            matrix = scaled.astype(np.int64)

        fid_arr = columns.fids
        if pid_arr is not None:
            order = np.lexsort((fid_arr, pid_arr))  # stable; pid outermost
        elif need_first_row or agg == "last":
            order = np.argsort(fid_arr, kind="stable")
        else:
            order = np.argsort(fid_arr)  # SUM/MAX/MIN are order-free.
        sorted_fids = fid_arr[order]
        group_head = np.empty(n_rows, dtype=bool)
        group_head[0] = True
        group_head[1:] = sorted_fids[1:] != sorted_fids[:-1]
        sorted_pids = None
        if pid_arr is not None:
            sorted_pids = pid_arr[order]
            group_head[1:] |= sorted_pids[1:] != sorted_pids[:-1]
        starts = np.flatnonzero(group_head)

        matrix_sorted = matrix[order]
        if agg == "sum":
            # Conservative across a batch: any profile could saturate.
            if n_rows * _max_abs(matrix) >= _INT64_BOUND:
                return None  # Reference clamps per fold; delegate.
            counts = np.add.reduceat(matrix_sorted, starts, axis=0)
        elif agg == "max":
            counts = np.maximum.reduceat(matrix_sorted, starts, axis=0)
        elif agg == "min":
            counts = np.minimum.reduceat(matrix_sorted, starts, axis=0)
        else:  # "last": the final contribution in iteration order wins.
            group_last = np.append(starts[1:], n_rows) - 1
            counts = matrix_sorted[group_last]
        return _Merged(
            fids=sorted_fids[starts],
            counts=counts,
            ts=np.maximum.reduceat(columns.ts[order], starts),
            widths=(
                None  # Every contributor is full-width already.
                if columns.uniform
                else np.maximum.reduceat(columns.widths[order], starts)
            ),
            first_row=order[starts] if need_first_row else None,
            pids=None if sorted_pids is None else sorted_pids[starts],
        )

    # ------------------------------------------------------------------
    # Sort / top-K cut
    # ------------------------------------------------------------------

    def _totals(self, merged: _Merged) -> np.ndarray | None:
        if merged.counts.shape[1] * _max_abs(merged.counts) >= _INT64_BOUND:
            return None  # Row sums could overflow int64.
        return merged.counts.sum(axis=1)

    def _attribute_column(self, merged: _Merged, index: int) -> np.ndarray:
        if 0 <= index < merged.counts.shape[1]:
            return merged.counts[:, index]
        return np.zeros(len(merged.fids), dtype=np.int64)

    def _ascending_order(
        self, merged: _Merged, spec: SortSpec
    ) -> np.ndarray | None:
        """The reference key tuples as a lexsort, pid outermost when the
        batch has one; ``None`` = guard trip.

        Every key ends in a unique fid component, so the total order is
        unique and ascending-then-reverse equals the reference's
        descending sort exactly.
        """
        from ..query import SortType

        if spec.sort_type is SortType.FEATURE_ID:
            return np.arange(len(merged.fids))  # already (pid, fid) ascending
        if spec.sort_type is SortType.ATTRIBUTE:
            keys = (merged.ts, self._attribute_column(merged, spec.attribute_index))
        elif spec.sort_type is SortType.WEIGHTED:
            # Accumulate columns left-to-right in caller order so the
            # float result matches the reference's sum() bit-for-bit.
            score = np.zeros(len(merged.fids), dtype=np.float64)
            for index, weight in spec.weight_vector:
                score += self._attribute_column(merged, index).astype(np.float64) * weight
            keys = (merged.ts, score)
        else:
            totals = self._totals(merged)
            if totals is None:
                return None
            if spec.sort_type is SortType.TIMESTAMP:
                keys = (totals, merged.ts)
            else:  # TOTAL
                keys = (merged.ts, totals)
        if merged.pids is not None:
            keys += (merged.pids,)
        return np.lexsort((~merged.fids,) + keys)

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def _materialize_results(self, merged: _Merged, selection: np.ndarray):
        from ..query import FeatureResult

        rows = merged.counts[selection].tolist()
        fids = merged.fids[selection].tolist()
        timestamps = merged.ts[selection].tolist()
        if merged.widths is None:
            return [
                FeatureResult(fid, tuple(row), timestamp)
                for fid, row, timestamp in zip(fids, rows, timestamps)
            ]
        widths = merged.widths[selection].tolist()
        return [
            FeatureResult(fid, tuple(row[:width]), timestamp)
            for fid, row, width, timestamp in zip(fids, rows, widths, timestamps)
        ]

    def _materialize_stats(
        self, merged: _Merged, columns: _Columns
    ) -> list[FeatureStat]:
        rows = merged.counts.tolist()
        fids = merged.fids.tolist()
        timestamps = merged.ts.tolist()
        fid_index = columns.fid_index[merged.first_row].tolist()
        if merged.widths is None:
            return [
                new_stat(fid, row, timestamp, index)
                for fid, row, timestamp, index in zip(
                    fids, rows, timestamps, fid_index
                )
            ]
        widths = merged.widths.tolist()
        return [
            new_stat(fid, row[:width], timestamp, index)
            for fid, row, width, timestamp, index in zip(
                fids, rows, widths, timestamps, fid_index
            )
        ]

    @staticmethod
    def _commit_stats(stats, slices_scanned, n_rows, results) -> None:
        if stats is not None:
            stats.slices_scanned += slices_scanned
            stats.features_merged += n_rows
            stats.results_returned = len(results)

    def _finish(
        self, gathered: _Gathered, merged, ascending, k, descending, stats_list
    ):
        """Cut each profile's contiguous segment of the global order.

        All segments are materialised in a single pass (one fancy-index
        over the merged columns) and the resulting flat list split back
        per profile — identical output, ~constant numpy-call count.
        """
        lengths = [0] * len(gathered.rows)
        pieces: list[np.ndarray] = []
        if merged is not None:
            bounds = (
                (0, len(ascending))
                if merged.pids is None
                else np.searchsorted(
                    merged.pids[ascending], np.arange(len(lengths) + 1)
                )
            )
            for index, n_rows in enumerate(gathered.rows):
                if not n_rows:
                    continue
                segment = ascending[bounds[index] : bounds[index + 1]]
                if descending:
                    segment = segment[::-1]
                if k is not None:
                    segment = segment[:k]
                lengths[index] = len(segment)
                pieces.append(segment)
        flat = []
        if pieces:
            flat = self._materialize_results(
                merged, pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            )
        out = []
        cursor = 0
        for scanned, n_rows, stats, length in zip(
            gathered.scanned, gathered.rows, stats_list, lengths
        ):
            results = flat[cursor : cursor + length]
            cursor += length
            self._commit_stats(stats, scanned, n_rows, results)
            out.append(results)
        return out

    # ------------------------------------------------------------------
    # Query kernels
    # ------------------------------------------------------------------

    def _run_ranked(
        self, profiles, slot, type_id, windows, reduce_fn, decay, spec, k,
        descending, stats_list,
    ):
        """Top-K (``decay is None``) and decay reads of a whole batch."""
        agg = aggregate_name(reduce_fn)
        gathered = (
            None
            if agg is None
            else self._gather(profiles, slot, type_id, windows, decay)
        )
        if gathered is not None:
            merged = ascending = None
            if gathered.columns is not None:
                merged = self._reduce(
                    gathered.columns, gathered.segments, gathered.pids, agg, False
                )
                if merged is not None:
                    ascending = self._ascending_order(merged, spec)
            if gathered.columns is None or ascending is not None:
                return self._finish(
                    gathered, merged, ascending, k, descending, stats_list
                )
        # A UDAF or a tripped exactness guard.
        # Profile by profile, so that one overflow-prone profile does not
        # drag a whole multi-get onto the reference loop; a one-profile
        # batch that still cannot vectorise is the reference's.
        if len(profiles) > 1:
            return [
                self._run_ranked(
                    [profile], slot, type_id, [window], reduce_fn, decay,
                    spec, k, descending, [stats],
                )[0]
                for profile, window, stats in zip(profiles, windows, stats_list)
            ]
        if decay is None:
            return self._reference.run_topk_batch(
                profiles, slot, type_id, windows, reduce_fn, spec, k,
                descending, stats_list,
            )
        return self._reference.run_decay_batch(
            profiles, slot, type_id, windows, reduce_fn, *decay, spec, k,
            stats_list,
        )

    def run_topk(
        self, profile, slot, type_id, window, reduce_fn, spec, k, descending, stats
    ):
        return self._run_ranked(
            [profile], slot, type_id, [window], reduce_fn, None, spec, k,
            descending, [stats],
        )[0]

    def run_topk_batch(
        self,
        profiles,
        slot,
        type_id,
        windows,
        reduce_fn,
        spec,
        k,
        descending,
        stats_list,
    ):
        return self._run_ranked(
            profiles, slot, type_id, windows, reduce_fn, None, spec, k,
            descending, stats_list,
        )

    def run_decay(
        self,
        profile,
        slot,
        type_id,
        window,
        reduce_fn,
        decay_fn,
        decay_factor,
        spec,
        k,
        stats,
    ):
        return self._run_ranked(
            [profile], slot, type_id, [window], reduce_fn,
            (decay_fn, decay_factor), spec, k, True, [stats],
        )[0]

    def run_decay_batch(
        self,
        profiles,
        slot,
        type_id,
        windows,
        reduce_fn,
        decay_fn,
        decay_factor,
        spec,
        k,
        stats_list,
    ):
        return self._run_ranked(
            profiles, slot, type_id, windows, reduce_fn,
            (decay_fn, decay_factor), spec, k, True, stats_list,
        )

    def run_filter(
        self, profile, slot, type_id, window, reduce_fn, predicate, stats
    ):
        # run_filter_batch stays on the base loop: the predicate is an
        # opaque Python callable applied per stat, so there is nothing to
        # vectorise across profiles.
        agg = aggregate_name(reduce_fn)
        gathered = (
            None
            if agg is None
            else self._gather([profile], slot, type_id, [window], None)
        )
        merged = None
        vectorised = gathered is not None
        if vectorised and gathered.columns is not None:
            merged = self._reduce(gathered.columns, (), None, agg, True)
            vectorised = merged is not None
        if not vectorised:
            return self._reference.run_filter(
                profile, slot, type_id, window, reduce_fn, predicate, stats
            )
        results = []
        if merged is not None:
            kept = [
                stat
                for stat in self._materialize_stats(merged, gathered.columns)
                if predicate(stat)
            ]
            kept.sort(key=lambda stat: (stat.total(), stat.fid), reverse=True)
            results = self._reference.finalize(kept, None)
        self._commit_stats(stats, gathered.scanned[0], gathered.rows[0], results)
        return results

    # ------------------------------------------------------------------
    # Compaction kernel
    # ------------------------------------------------------------------

    def fold_slice(self, target, source, reduce_fn: AggregateFn) -> None:
        agg = aggregate_name(reduce_fn)
        if (
            agg is None
            or target.feature_count() + source.feature_count()
            < self.fold_min_features
        ):
            self._reference.fold_slice(target, source, reduce_fn)
            return
        for slot, source_set in source.slots_items():
            target_set = target.ensure_slot(slot)
            for type_id in source_set.type_ids:
                source_stats = list(source_set.features_for_type(type_id))
                if not source_stats:
                    continue
                target_stats = list(target_set.features_for_type(type_id))
                folded = self._fold_type(
                    target_stats, source_stats, agg, reduce_fn
                )
                target_set.replace_type(type_id, folded)
        target.start_ms = min(target.start_ms, source.start_ms)
        target.end_ms = max(target.end_ms, source.end_ms)
        target.mark_mutated()

    def _fold_type(
        self,
        target_stats: list[FeatureStat],
        source_stats: list[FeatureStat],
        agg: str,
        reduce_fn: AggregateFn,
    ) -> list[FeatureStat]:
        """Merge one ``(slot, type)`` group, target rows first.

        Target-first ordering reproduces the reference fold direction:
        LAST keeps the source value for shared fids, and the surviving
        ``fid_index`` is the target's (first contribution).
        """
        fids: list = []
        rows: list = []
        ts: list = []
        fid_index: list = []
        for stats_list in (target_stats, source_stats):
            fids.extend(map(_GET_FID, stats_list))
            rows.extend(map(_GET_COUNTS, stats_list))
            ts.extend(map(_GET_TS, stats_list))
            fid_index.extend(map(_GET_FID_INDEX, stats_list))
        columns = _columns_from_lists(fids, rows, ts, fid_index)
        merged = self._reduce(columns, (), None, agg, True)
        if merged is None:
            # Exactness guard: reference per-stat fold for this group only.
            by_fid = {stat.fid: stat for stat in target_stats}
            for stat in source_stats:
                existing = by_fid.get(stat.fid)
                if existing is None:
                    by_fid[stat.fid] = stat.copy()
                else:
                    existing.merge_counts(
                        stat.counts, reduce_fn, stat.last_timestamp_ms
                    )
            return list(by_fid.values())
        return self._materialize_stats(merged, columns)
