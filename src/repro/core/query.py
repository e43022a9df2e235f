"""Query processing: top-K, filter and decay reads over a profile.

Query execution follows the two steps described in §II-B:

1. locate the slices overlapping the resolved time window;
2. multi-way merge and aggregate all feature counts under the requested
   ``(slot, type)``, optionally applying a decay weight per slice, then sort
   (by an attribute count, timestamp or feature id) and cut to top K.

The merge, decay scaling and top-K cut are the hot path.  They live behind
the pluggable kernel layer in :mod:`repro.core.kernels`: the ``python``
reference backend folds per-slice hash maps one stat at a time and cuts
with ``heapq``; the ``numpy`` backend runs the same three loops column-wise
over flat 64-bit arrays.  Both produce byte-identical results (enforced by
the differential oracle in ``tests/test_kernel_oracle.py``); this module
owns validation, window resolution and sort-spec building only.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

from ..config import TableConfig
from ..errors import InvalidQueryError
from .aggregate import AggregateFn
from .columnar import FID_TYPECODE
from .decay import DECAYS, DecayFn
from .feature import FeatureStat
from .profile import ProfileData
from .timerange import ResolvedWindow, TimeRange


class SortType(enum.Enum):
    """How query results are ordered before the top-K cut."""

    ATTRIBUTE = "attribute"  # by one action counter, e.g. likes
    TIMESTAMP = "timestamp"  # by most recent contributing action
    FEATURE_ID = "feature_id"  # by fid (stable, for pagination/debugging)
    TOTAL = "total"  # by the sum of all counters
    WEIGHTED = "weighted"  # by a weighted sum over attributes (multi-dim)


class FeatureResult(NamedTuple):
    """One row of a query result.

    A ``NamedTuple`` rather than a frozen dataclass: result
    materialisation builds one of these per returned row on the hot
    read path, and tuple construction is several times cheaper than
    ``__init__`` + per-field ``object.__setattr__``.  Field order is
    part of the wire contract (:mod:`repro.net.wire` encodes/decodes
    positionally).
    """

    fid: int
    counts: tuple[int, ...]
    last_timestamp_ms: int

    def count(self, index: int) -> int:
        if 0 <= index < len(self.counts):
            return self.counts[index]
        return 0

    def total(self) -> int:
        return sum(self.counts)


#: ``FeatureResult`` from a ready ``(fid, counts, ts)`` triple, built in C
#: (what ``FeatureResult._make`` does, without the Python frame per row).
_new_result = partial(tuple.__new__, FeatureResult)


def rows_from_columns(
    fids: list, timestamps: list, flat: list, widths: int | Sequence[int]
) -> list[FeatureResult]:
    """Rows from their columns; ``widths`` is every row's width, or one per row."""
    if isinstance(widths, int):
        counts = list(zip(*[iter(flat)] * widths)) if widths else [()] * len(fids)
    else:
        counts, at = [], 0
        for width in widths:
            counts.append(tuple(flat[at : at + width]))
            at += width
    return list(map(_new_result, zip(fids, counts, timestamps)))


def pack_segment(values, typecode: str = "q") -> bytes:
    """``values`` as little-endian 64-bit bytes: int64, or ``'Q'`` (uint64)."""
    column = array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - exercised only on BE hardware
        column.byteswap()
    return column.tobytes()


def segment_values(segment: bytes | tuple, typecode: str = "q") -> list:
    """The values of a :func:`pack_segment`, or of a tuple of values."""
    if type(segment) is not bytes:
        return list(segment)
    column = array(typecode)
    column.frombytes(segment)
    if sys.byteorder == "big":  # pragma: no cover - exercised only on BE hardware
        column.byteswap()
    return column.tolist()


@dataclass(frozen=True, slots=True)
class PackedRows:
    """A query result in the form the wire sends it.

    The rows' fids (uint64), timestamps and flattened counts (int64) as
    three segments (:func:`pack_segment`), plus the row count and either
    the one width every row shares or a tuple of per-row widths.  A node
    caches this on a miss, so a hit costs no per-value work: the wire
    joins the segments of a whole batch as they are
    (:mod:`repro.net.wire`).  Iterating it unpacks the rows, so
    ``list(packed)`` is the ``list[FeatureResult]`` it was packed from.
    """

    n_rows: int
    widths: int | tuple[int, ...]
    fids: bytes | tuple
    timestamps: bytes | tuple
    counts: bytes | tuple

    @classmethod
    def pack(cls, rows: Sequence[FeatureResult], raw: bool = True) -> "PackedRows":
        """Pack ``rows``; ``raw=False`` keeps the columns as tuples of values."""
        if not rows:
            return EMPTY_ROWS
        fids, counts, timestamps = zip(*rows)
        widths = tuple(map(len, counts))
        if widths.count(widths[0]) == len(widths):
            widths = widths[0]
        flat = tuple(chain.from_iterable(counts))
        if raw:
            fids = pack_segment(fids, FID_TYPECODE)
            timestamps = pack_segment(timestamps)
            flat = pack_segment(flat)
        return cls(len(rows), widths, fids, timestamps, flat)

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self):
        return iter(rows_from_columns(
            segment_values(self.fids, FID_TYPECODE),
            segment_values(self.timestamps), segment_values(self.counts),
            self.widths,
        ))


EMPTY_ROWS = PackedRows(0, 0, b"", b"", b"")


@dataclass
class QueryStats:
    """Execution statistics used by benchmarks and the simulator calibration."""

    slices_scanned: int = 0
    features_merged: int = 0
    results_returned: int = 0


#: Predicate over a merged stat used by ``get_profile_filter``.
FilterFn = Callable[[FeatureStat], bool]

#: The three read kinds of §II-B.
QUERY_KINDS = ("topk", "filter", "decay")


class Query(NamedTuple):
    """One read request, whatever the layer: the paper's three reads as a value.

    ``kind`` picks the read; ``slot``, ``type_id`` and ``time_range`` say
    what it reads; the fields after them are the kind's parameters (the
    others stay ``None``) — exactly the fields :func:`query_spec`
    normalises into a result-cache key.  Build one with :meth:`topk`,
    :meth:`filter` or :meth:`decay`, whose signatures are the paper's;
    every layer below the client takes it as it is (``multi_get(ids,
    query)``), and the wire carries it as one value.  A ``NamedTuple``,
    as :class:`FeatureResult` is: every read builds one at the client
    and decodes one on the worker, and a tuple is several times cheaper
    to construct than a frozen dataclass.  A kind outside
    :data:`QUERY_KINDS` is refused where it would run
    (:class:`~repro.errors.InvalidQueryError`) and by the wire.
    """

    kind: str
    slot: int
    type_id: int | None
    time_range: TimeRange
    sort_type: SortType | None = None
    k: int | None = None
    sort_attribute: str | None = None
    sort_weights: dict[str, float] | None = None
    aggregate: str | None = None
    decay_function: "str | DecayFn | None" = None
    decay_factor: float | None = None
    predicate: FilterFn | None = None

    @classmethod
    def topk(
        cls,
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        sort_type: SortType = SortType.TOTAL,
        k: int = 10,
        sort_attribute: str | None = None,
        sort_weights: dict[str, float] | None = None,
        aggregate: str | None = None,
    ) -> "Query":
        """``get_profile_topK``: top features in a window, by a sort type.

        ``sort_weights`` + ``SortType.WEIGHTED`` give the paper's
        multi-dimensional top-K; ``aggregate`` names a query-time reduce
        function (built-in or a registered UDAF) overriding the table's
        pre-configured one.
        """
        return cls(
            "topk", slot, type_id, time_range, sort_type, k, sort_attribute,
            sort_weights, aggregate,
        )

    @classmethod
    def filter(
        cls,
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        predicate: FilterFn,
    ) -> "Query":
        """``get_profile_filter``: features passing a predicate in a window."""
        return cls("filter", slot, type_id, time_range, predicate=predicate)

    @classmethod
    def decay(
        cls,
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        decay_function: "str | DecayFn" = "exponential",
        decay_factor: float = 1.0,
        k: int | None = None,
        sort_attribute: str | None = None,
    ) -> "Query":
        """``get_profile_decay``: time-decayed feature counts in a window."""
        return cls(
            "decay", slot, type_id, time_range, k=k,
            sort_attribute=sort_attribute, decay_function=decay_function,
            decay_factor=decay_factor,
        )


# ----------------------------------------------------------------------
# Canonical query fingerprints (result-cache keys)
# ----------------------------------------------------------------------


def cacheable_filter(key):
    """Mark a filter predicate as cacheable under a stable ``key``.

    Filter predicates are opaque callables, so by default a filter query
    has no fingerprint and bypasses the server-side result cache.  A
    predicate whose identity *is* stable (e.g. "total >= 5") can opt in::

        @cacheable_filter(("total_at_least", 5))
        def popular(stat):
            return sum(stat.counts) >= 5

    ``key`` must be hashable and must uniquely determine the predicate's
    behaviour — two predicates sharing a key share cached results.
    """

    def mark(fn: FilterFn) -> FilterFn:
        fn.cache_key = ("filter_fn", key)  # type: ignore[attr-defined]
        return fn

    return mark


def canonical_sort_weights(
    config: TableConfig, sort_weights: dict[str, float]
) -> tuple[tuple[int, float], ...]:
    """Normalize a WEIGHTED sort's weight mapping to a canonical tuple.

    Attribute names resolve to schema indices, zero weights are dropped
    (they contribute exactly zero to every score) and the remaining
    pairs are sorted by index — so ``{"share": 3, "like": 1}`` and
    ``{"like": 1, "share": 3, "comment": 0}`` describe the same sort.
    Weight values keep their numeric type (int weights stay exact in the
    kernels; ``1 == 1.0`` already hashes identically for key sharing).
    An all-zero mapping keeps its (sorted) entries rather than becoming
    empty, which would look like a missing-weights validation error.
    """
    items = sorted(
        (config.attribute_index(name), weight)
        for name, weight in sort_weights.items()
    )
    nonzero = tuple(pair for pair in items if pair[1] != 0)
    return nonzero if nonzero else tuple(items)


def _decay_name(decay_function: "str | DecayFn") -> str | None:
    """Canonical registry name for a decay function, or None if opaque."""
    if isinstance(decay_function, str):
        name = decay_function.lower()
        return name if name in DECAYS else None
    for name, fn in DECAYS.items():
        if fn is decay_function:
            return name
    return None


def query_fingerprint(
    config: TableConfig,
    method: str,
    slot: int,
    type_id: int | None,
    window: ResolvedWindow,
    **spec,
) -> tuple | None:
    """Canonical cache key for one read, or ``None`` when uncacheable.

    The :func:`query_spec` of ``Query(method, slot, type_id, …, **spec)``
    followed by the resolved window's bounds.
    """
    key = query_spec(config, Query(method, slot, type_id, None, **spec))
    return None if key is None else key + (window.start_ms, window.end_ms)


def query_spec(config: TableConfig, query: Query) -> tuple | None:
    """Window-free part of a read's cache key, or ``None`` when uncacheable.

    A node builds it once per request and appends each key's resolved
    window (:func:`query_fingerprint`).  Semantically identical queries
    must share a fingerprint, and queries that can return different bytes
    must not.  The normalization rules:

    * the time range is keyed by its *resolved* half-open window, so a
      CURRENT range naturally changes key as the clock advances and an
      ABSOLUTE range spelling out the same instants matches it;
    * ``aggregate=None`` collapses to the table's configured aggregate
      name (an explicit ``"sum"`` on a sum table is the default spelled
      out), and names are case-insensitive like the registry;
    * ``sort_attribute`` only participates for ``SortType.ATTRIBUTE``
      (other sorts ignore it) and is resolved to its schema index;
      a decay query's empty-string attribute means "sort by total",
      exactly like ``None``;
    * ``sort_weights`` only participate for ``SortType.WEIGHTED`` and
      are canonicalized by :func:`canonical_sort_weights`;
    * a decay function is keyed by registry name whether passed as a
      string or as the registered callable; unregistered callables are
      opaque, hence uncacheable;
    * filter predicates are uncacheable unless marked with
      :func:`cacheable_filter`.

    Invalid queries (unknown attribute, bad k) return ``None`` so the
    caller executes them directly and raises the real validation error.
    """
    method, k, sort_type = query.kind, query.k, query.sort_type
    try:
        base = (method, query.slot, query.type_id)
        if method == "topk":
            if sort_type is None or k is None or int(k) < 1:
                return None
            agg = (
                query.aggregate if query.aggregate is not None
                else config.aggregate
            )
            sort_part: tuple
            if sort_type is SortType.ATTRIBUTE:
                if query.sort_attribute is None:
                    return None
                sort_part = ("attr", config.attribute_index(query.sort_attribute))
            elif sort_type is SortType.WEIGHTED:
                if not query.sort_weights:
                    return None
                sort_part = (
                    "weights", canonical_sort_weights(config, query.sort_weights)
                )
            else:
                sort_part = (sort_type.value,)
            return base + (int(k), agg.lower(), sort_part)
        if method == "decay":
            if query.decay_function is None or query.decay_factor is None:
                return None
            name = _decay_name(query.decay_function)
            if name is None:
                return None
            attr = (
                config.attribute_index(query.sort_attribute)
                if query.sort_attribute else None
            )
            cut = int(k) if k is not None else None
            if cut is not None and cut < 1:
                return None
            return base + (name, float(query.decay_factor), cut, attr)
        if method == "filter":
            key = getattr(query.predicate, "cache_key", None)
            if key is None:
                return None
            hash(key)  # Unhashable opt-in keys degrade to uncacheable.
            return base + (key,)
        return None
    except Exception:
        return None


class QueryEngine:
    """Stateless query executor bound to one table's configuration.

    ``backend`` picks the kernel implementation (a name, a
    :class:`~repro.core.kernels.KernelBackend` instance, or ``None`` to
    follow ``config.kernel_backend`` / the ``IPS_KERNEL_BACKEND``
    environment variable / auto-detection).
    """

    def __init__(
        self,
        config: TableConfig,
        aggregate: AggregateFn,
        backend=None,
    ) -> None:
        from .kernels import get_backend

        self._config = config
        self._aggregate = aggregate
        if backend is None:
            backend = getattr(config, "kernel_backend", None)
        self._backend = get_backend(backend)

    @property
    def backend(self):
        """The active kernel backend (shared with the compactor)."""
        return self._backend

    # ------------------------------------------------------------------
    # Public query entry points
    # ------------------------------------------------------------------
    #
    # Every read is a batch: a point read is the one-profile batch, and
    # each pair of entry points below shares one private implementation,
    # where validation, sort-spec, window and aggregate resolution are
    # written once per query kind.  Validation and sort-spec resolution
    # happen once per batch; window resolution is per profile (CURRENT
    # ranges anchor to each profile's newest timestamp).  Batch results
    # are parallel to ``profiles`` and each list is byte-identical to the
    # corresponding point read on the reference backend — the batch
    # differential oracle enforces this.

    def top_k(
        self,
        profile: ProfileData,
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        sort_type: SortType,
        k: int,
        now_ms: int,
        sort_attribute: str | None = None,
        sort_weights: dict[str, float] | None = None,
        descending: bool = True,
        aggregate: AggregateFn | None = None,
        stats: QueryStats | None = None,
    ) -> list[FeatureResult]:
        """``get_profile_topK``: merge, sort by ``sort_type`` and cut to K.

        ``sort_weights`` drives ``SortType.WEIGHTED`` — the paper's
        multi-dimensional top-K, ranking by a weighted sum of action
        counters (e.g. ``{"share": 3, "like": 1}``).  ``aggregate``
        overrides the table's pre-configured reduce function for this
        query only (a query-time UDAF).
        """
        return self._top_k(
            [profile], slot, type_id, time_range, sort_type, k, now_ms,
            sort_attribute, sort_weights, descending, aggregate, [stats],
        )[0]

    def top_k_batch(
        self,
        profiles: Sequence[ProfileData],
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        sort_type: SortType,
        k: int,
        now_ms: int,
        sort_attribute: str | None = None,
        sort_weights: dict[str, float] | None = None,
        descending: bool = True,
        aggregate: AggregateFn | None = None,
        stats_list: "Sequence[QueryStats | None] | None" = None,
    ) -> list[list[FeatureResult]]:
        return self._top_k(
            profiles, slot, type_id, time_range, sort_type, k, now_ms,
            sort_attribute, sort_weights, descending, aggregate, stats_list,
        )

    def _top_k(
        self, profiles, slot, type_id, time_range, sort_type, k, now_ms,
        sort_attribute, sort_weights, descending, aggregate, stats_list,
    ):
        if k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        spec = self._resolve_sort_spec(sort_type, sort_attribute, sort_weights)
        reduce_fn = aggregate if aggregate is not None else self._aggregate
        profiles, windows, stats_list = self._resolve_batch(
            profiles, time_range, now_ms, stats_list
        )
        return self._backend.run_topk_batch(
            profiles, slot, type_id, windows, reduce_fn, spec, k, descending,
            stats_list,
        )

    def filter(
        self,
        profile: ProfileData,
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        predicate: FilterFn,
        now_ms: int,
        stats: QueryStats | None = None,
    ) -> list[FeatureResult]:
        """``get_profile_filter``: merge then keep stats passing ``predicate``.

        Results are returned in descending total-count order so callers get a
        deterministic, relevance-flavoured ordering.
        """
        return self._filter(
            [profile], slot, type_id, time_range, predicate, now_ms, [stats]
        )[0]

    def filter_batch(
        self,
        profiles: Sequence[ProfileData],
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        predicate: FilterFn,
        now_ms: int,
        stats_list: "Sequence[QueryStats | None] | None" = None,
    ) -> list[list[FeatureResult]]:
        return self._filter(
            profiles, slot, type_id, time_range, predicate, now_ms, stats_list
        )

    def _filter(
        self, profiles, slot, type_id, time_range, predicate, now_ms, stats_list
    ):
        profiles, windows, stats_list = self._resolve_batch(
            profiles, time_range, now_ms, stats_list
        )
        return self._backend.run_filter_batch(
            profiles, slot, type_id, windows, self._aggregate, predicate,
            stats_list,
        )

    def decay(
        self,
        profile: ProfileData,
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        decay_fn: DecayFn,
        decay_factor: float,
        now_ms: int,
        k: int | None = None,
        sort_attribute: str | None = None,
        stats: QueryStats | None = None,
    ) -> list[FeatureResult]:
        """``get_profile_decay``: merge with per-slice decay weights.

        Each slice's counts are scaled by ``decay_fn(age, decay_factor)``
        where age is measured from the slice midpoint to the window end, then
        merged as usual.  An optional top-K cut applies afterwards.
        """
        return self._decay(
            [profile], slot, type_id, time_range, decay_fn, decay_factor,
            now_ms, k, sort_attribute, [stats],
        )[0]

    def decay_batch(
        self,
        profiles: Sequence[ProfileData],
        slot: int,
        type_id: int | None,
        time_range: TimeRange,
        decay_fn: DecayFn,
        decay_factor: float,
        now_ms: int,
        k: int | None = None,
        sort_attribute: str | None = None,
        stats_list: "Sequence[QueryStats | None] | None" = None,
    ) -> list[list[FeatureResult]]:
        return self._decay(
            profiles, slot, type_id, time_range, decay_fn, decay_factor,
            now_ms, k, sort_attribute, stats_list,
        )

    def _decay(
        self, profiles, slot, type_id, time_range, decay_fn, decay_factor,
        now_ms, k, sort_attribute, stats_list,
    ):
        if k is not None and k <= 0:
            raise InvalidQueryError(f"k must be positive, got {k}")
        spec = self._resolve_sort_spec(
            SortType.ATTRIBUTE if sort_attribute else SortType.TOTAL,
            sort_attribute,
            None,
        )
        profiles, windows, stats_list = self._resolve_batch(
            profiles, time_range, now_ms, stats_list
        )
        return self._backend.run_decay_batch(
            profiles, slot, type_id, windows, self._aggregate, decay_fn,
            decay_factor, spec, k, stats_list,
        )

    @staticmethod
    def _resolve_batch(profiles, time_range, now_ms, stats_list):
        """The kernels' parallel lists: profiles, windows, stats sinks."""
        windows = [
            time_range.resolve(now_ms, profile.newest_timestamp_ms())
            for profile in profiles
        ]
        if stats_list is None:
            stats_list = [None] * len(windows)
        return list(profiles), windows, list(stats_list)

    # ------------------------------------------------------------------
    # Sort-spec resolution
    # ------------------------------------------------------------------

    def _resolve_sort_spec(
        self,
        sort_type: SortType,
        sort_attribute: str | None,
        sort_weights: dict[str, float] | None = None,
    ):
        """Validate sort arguments and resolve attribute names to indices."""
        from .kernels import SortSpec

        if sort_type is SortType.ATTRIBUTE:
            if sort_attribute is None:
                raise InvalidQueryError(
                    "sort_type=ATTRIBUTE requires a sort_attribute"
                )
            return SortSpec(
                sort_type=sort_type,
                attribute_index=self._config.attribute_index(sort_attribute),
            )
        if sort_type in (SortType.TIMESTAMP, SortType.FEATURE_ID, SortType.TOTAL):
            return SortSpec(sort_type=sort_type)
        if sort_type is SortType.WEIGHTED:
            if not sort_weights:
                raise InvalidQueryError(
                    "sort_type=WEIGHTED requires non-empty sort_weights"
                )
            # Canonical order (and zero-weight dropping) makes reordered
            # weight mappings sum in the same float order, so semantically
            # identical queries are bit-identical — required for them to
            # share a result-cache entry.
            return SortSpec(
                sort_type=sort_type,
                weight_vector=canonical_sort_weights(self._config, sort_weights),
            )
        raise InvalidQueryError(f"unsupported sort type: {sort_type!r}")
