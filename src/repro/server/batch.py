"""Per-key result envelopes for the batched (multi-get) read path.

Recommendation backends fetch profiles for *hundreds of candidate items
per ranking request*, so the batched read APIs return one envelope per
requested key rather than raising on the first problem: a bad shard or a
storage hiccup degrades the affected keys while the rest of the batch is
served normally.  Errors travel as strings (exception class name plus
message), mirroring what a real RPC response could carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.query import FeatureResult


class BatchKeyResult(NamedTuple):
    """Outcome of one key inside a batched read.

    Exactly one of the two shapes occurs:

    * ``ok=True`` — ``value`` holds the query result (possibly empty, for
      a profile with no stored data: the same contract as the single-key
      reads);
    * ``ok=False`` — ``error`` names the exception type and
      ``error_message`` carries its text; ``value`` is ``None``.

    A worker's answers hold the key's cached
    :class:`~repro.core.query.PackedRows` as ``value``; the wire sends it
    as rows, and every other caller gets a list.  A ``NamedTuple``, as
    :class:`~repro.core.query.FeatureResult` is: the client builds one per
    key of every shard call, and a tuple is several times cheaper to
    construct than a frozen dataclass.
    """

    profile_id: int
    ok: bool
    value: list[FeatureResult] | None = None
    error: str | None = None
    error_message: str = ""

    @classmethod
    def success(
        cls, profile_id: int, value: list[FeatureResult]
    ) -> "BatchKeyResult":
        return cls(profile_id, True, value)

    @classmethod
    def failure(cls, profile_id: int, exc: BaseException) -> "BatchKeyResult":
        return cls(profile_id, False, None, type(exc).__name__, str(exc))


@dataclass
class BatchReadOutcome:
    """A whole batch's answer: per-key envelopes aligned with the request.

    ``results[i]`` answers ``profile_ids[i]`` of the request, including
    duplicated keys (a deduplicated key's envelope is shared by every
    position that asked for it).
    """

    results: list[BatchKeyResult] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        return sum(1 for result in self.results if result.ok)

    @property
    def error_count(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    def values(self) -> list[list[FeatureResult] | None]:
        """Per-position values; ``None`` marks a failed key."""
        return [result.value if result.ok else None for result in self.results]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> BatchKeyResult:
        return self.results[index]


def dedup_preserving_order(profile_ids) -> list[int]:
    """Unique profile ids in first-seen order (the in-batch dedup pass)."""
    return list(dict.fromkeys(profile_ids))
