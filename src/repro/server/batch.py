"""Per-key result envelopes for the batched (multi-get) read path.

Recommendation backends fetch profiles for *hundreds of candidate items
per ranking request*, so the batched read APIs return one envelope per
requested key rather than raising on the first problem: a bad shard or a
storage hiccup degrades the affected keys while the rest of the batch is
served normally.  Errors travel as strings (exception class name plus
message), mirroring what a real RPC response could carry.

A point read is the one-id multi-get whose failed key is raised: the
paper's six read names are :class:`PaperReads` forwards to a host's
``multi_get(ids, query)``, and :data:`NODE_RPC_METHODS` is the whole read
and write surface a node serves to a client, in process or over a socket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.query import FeatureResult, Query
from ..errors import error_from_wire

#: What a node serves to clients, however it is reached: :class:`~repro.
#: server.proxy.RPCNodeProxy` and :class:`~repro.net.transport.RemoteNode`
#: forward these and no other, and a worker dispatches them to its node.
NODE_RPC_METHODS = frozenset({"multi_get", "add_profile", "add_profiles"})


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

    def listed(self) -> "BatchKeyResult":
        """This result with its rows as a list (a node's holds packed rows)."""
        if not self.ok or type(self.value) is list:
            return self
        return BatchKeyResult(self.profile_id, True, list(self.value))

    def rows(self) -> list[FeatureResult]:
        """The key's rows; a failed key raises its error, rebuilt by type name."""
        if not self.ok:
            raise error_from_wire(self.error or "", self.error_message)
        return self.listed().value


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


class PaperReads:
    """The paper's six read names (§II-B) as forwards over one read entry.

    ``get_profile_<kind>(profile_id, …)`` and ``multi_get_<kind>(ids, …)``
    take :meth:`Query.topk` / :meth:`Query.filter` / :meth:`Query.decay`'s
    arguments after the id(s), plus the host's own keywords (``caller``,
    ``stats``, ``deadline``), which go to the host's entries as they are:
    :meth:`_read_one` and :meth:`_read_many`.  By default those are the
    host's ``multi_get(ids, query, …)`` — a point read is its one-id
    answer, whose failure is raised — with each key's rows as a list.
    """

    _OPTIONS = ("caller", "stats", "deadline")

    def get_profile_topk(self, profile_id, *args, **kwargs):
        return self._read_one(profile_id, *self._query(Query.topk, args, kwargs))

    def get_profile_filter(self, profile_id, *args, **kwargs):
        return self._read_one(profile_id, *self._query(Query.filter, args, kwargs))

    def get_profile_decay(self, profile_id, *args, **kwargs):
        return self._read_one(profile_id, *self._query(Query.decay, args, kwargs))

    def multi_get_topk(self, profile_ids, *args, **kwargs):
        return self._read_many(profile_ids, *self._query(Query.topk, args, kwargs))

    def multi_get_filter(self, profile_ids, *args, **kwargs):
        return self._read_many(
            profile_ids, *self._query(Query.filter, args, kwargs)
        )

    def multi_get_decay(self, profile_ids, *args, **kwargs):
        return self._read_many(profile_ids, *self._query(Query.decay, args, kwargs))

    @classmethod
    def _query(cls, make, args: tuple, kwargs: dict) -> tuple[Query, dict]:
        options = {
            name: kwargs.pop(name) for name in cls._OPTIONS if name in kwargs
        }
        return make(*args, **kwargs), options

    def _read_one(self, profile_id, query: Query, options: dict):
        return self.multi_get([profile_id], query, **options)[profile_id].rows()

    def _read_many(self, profile_ids, query: Query, options: dict):
        results = self.multi_get(profile_ids, query, **options)
        return {pid: result.listed() for pid, result in results.items()}


def dedup_preserving_order(profile_ids) -> list[int]:
    """Unique profile ids in first-seen order (the in-batch dedup pass)."""
    return list(dict.fromkeys(profile_ids))
