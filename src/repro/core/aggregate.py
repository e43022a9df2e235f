"""Pre-configured aggregate (reduce) functions.

Each IPS table is configured with a reduce function applied wherever two
counts for the same feature meet: the in-slice write path, slice compaction
and query-time multi-way merging (§III-D uses SUM and MAX as the examples).
An aggregate takes two int counters and returns the combined counter.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError

AggregateFn = Callable[[int, int], int]


def aggregate_sum(left: int, right: int) -> int:
    return left + right


def aggregate_max(left: int, right: int) -> int:
    return left if left >= right else right


def aggregate_min(left: int, right: int) -> int:
    return left if left <= right else right


def aggregate_last(left: int, right: int) -> int:
    """Keep the most recently merged value (right operand wins).

    Useful for volatile signals such as advertising bid prices (§I-d),
    where the newest observation should replace older ones.
    """
    return right


AGGREGATES: dict[str, AggregateFn] = {
    "sum": aggregate_sum,
    "max": aggregate_max,
    "min": aggregate_min,
    "last": aggregate_last,
}


def register_aggregate(name: str, fn: AggregateFn) -> None:
    """Register a user-defined aggregate function (UDAF).

    The paper's data model supports "user defined aggregate functions over
    arbitrary time windows" (§I contributions); a registered UDAF becomes
    available both as a table's pre-configured reduce function and as a
    query-time override.  Built-in names cannot be replaced.

    ``fn`` takes two int counters and returns an int (``AggregateFn``).
    Wherever counts are folded — the count columns and the reference
    merge alike — its result is taken through ``int()`` and clamped to
    int64, so a UDAF returning ``(a + b) / 2`` stores the truncated
    integer, and no stored count is ever a float.
    """
    key = name.lower()
    if key in ("sum", "max", "min", "last"):
        raise ConfigError(f"cannot override built-in aggregate {name!r}")
    if not callable(fn):
        raise ConfigError(f"aggregate {name!r} must be callable")
    AGGREGATES[key] = fn


def unregister_aggregate(name: str) -> None:
    """Remove a previously registered UDAF (no-op for unknown names)."""
    key = name.lower()
    if key in ("sum", "max", "min", "last"):
        raise ConfigError(f"cannot remove built-in aggregate {name!r}")
    AGGREGATES.pop(key, None)


def get_aggregate(name: str) -> AggregateFn:
    """Look up an aggregate by its config name (case-insensitive)."""
    try:
        return AGGREGATES[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown aggregate {name!r}; available: {sorted(AGGREGATES)}"
        ) from None
