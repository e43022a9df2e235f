"""Seeded dataset and request streams for the end-to-end benchmark.

Everything the cluster is fed derives from ``--seed`` and nothing else:
the profiles written at load time, the keys each workload reads and the
writes ``mixed_rw`` issues.  The program under test receives only these
generated inputs, never the seed or a workload name.

Timestamps hang off an *anchor* — the start of the current hour — so the
slice structure (one write-granularity slice per load call) is identical
from run to run; :func:`stream_digest` uses a fixed anchor so a digest
depends on the seed alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate, islice
from random import Random
from typing import Iterator

from repro.core.timerange import TimeRange

TABLE = "user_profile"
ATTRIBUTES = ("like", "comment", "share")
SLOT = 0
TYPE_ID = 1
VOCABULARY = 5000
TOPK = 10
HOUR_MS = 3_600_000
#: Profiles loaded like the rest but never measured: the first call on a
#: fresh worker connection (dial, first dispatch) lands on these.
RESERVED_PROFILES = 8
ZIPF_EXPONENT = 1.05

WORKLOADS = ("rank_wide_hot", "point_hot", "point_cold", "mixed_rw")
WIDE_KEYS = 64
MIXED_READ_KEYS = 8
MIXED_WRITE_FIDS = 8


@dataclass(frozen=True)
class Scale:
    """How much data and how many serving epochs one run uses."""

    profiles: int
    slices: int
    fids_per_slice: int
    #: Fresh serving clusters per run; each is one set-up sample and one
    #: share of the measured window, so process-state noise averages out.
    epochs: int
    warmup_s: float
    #: Read-only workloads end each epoch with this long a burst of
    #: writes, so that they report the unloaded write path too.
    write_probe_s: float
    #: Traced run: time allowed for replaying captured reads on the replica.
    replay_s: float


#: Sized so 92 driver runs (set-up included) fit the contract's cap.
FULL = Scale(
    profiles=320, slices=12, fids_per_slice=16, epochs=3, warmup_s=0.3,
    write_probe_s=1.0, replay_s=2.0,
)
SMOKE = Scale(
    profiles=60, slices=4, fids_per_slice=8, epochs=1, warmup_s=0.2,
    write_probe_s=0.2, replay_s=0.3,
)


@dataclass(frozen=True)
class Write:
    """One ``add_profiles`` call."""

    profile_id: int
    timestamp_ms: int
    fids: tuple[int, ...]
    counts: tuple[tuple[int, int, int], ...]

    @property
    def args(self) -> tuple:
        return (
            self.profile_id, self.timestamp_ms, SLOT, TYPE_ID,
            list(self.fids), [list(c) for c in self.counts],
        )


def _fids_and_counts(rng: Random, n: int):
    fids = tuple(rng.randrange(VOCABULARY) for _ in range(n))
    counts = tuple(
        (1 + rng.randrange(3), rng.randrange(3), rng.randrange(2)) for _ in fids
    )
    return fids, counts


class Zipf:
    """Zipf(:data:`ZIPF_EXPONENT`) over ``ids``, hottest first."""

    def __init__(self, ids: list[int]) -> None:
        self.ids = ids
        self._cum = list(
            accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ids)))
        )

    def key(self, rng: Random) -> int:
        return rng.choices(self.ids, cum_weights=self._cum)[0]

    def distinct(self, rng: Random, n: int) -> list[int]:
        keys: dict[int, None] = {}
        while len(keys) < n:
            keys[self.key(rng)] = None
        return list(keys)


class Dataset:
    """The profiles loaded before any workload runs, and how to query them."""

    def __init__(self, seed: int, scale: Scale, anchor_ms: int) -> None:
        self.seed = seed
        self.scale = scale
        self.anchor_ms = anchor_ms
        self.profile_ids = list(range(scale.profiles))
        self.reserved_ids = list(
            range(scale.profiles, scale.profiles + RESERVED_PROFILES)
        )
        #: One absolute window over load and ``mixed_rw`` timestamps alike,
        #: so results do not depend on when compaction last ran.
        self.window = TimeRange.absolute(
            anchor_ms - (scale.slices + 1) * HOUR_MS, anchor_ms + 2 * HOUR_MS
        )
        # Zipf ranks go to a seeded shuffle of the ids, so which profile is
        # hottest (and which worker owns it) changes with the seed.
        ranked = list(self.profile_ids)
        Random(f"{seed}/zipf").shuffle(ranked)
        self.zipf = Zipf(ranked)
        # ``mixed_rw`` reads one half of the profiles and writes the other,
        # interleaved by rank so both halves are equally hot and both live
        # on both workers.  Reads and writes still share each worker's WAL,
        # ack lock, write table, GIL and checkpoints; what they do not
        # share is a profile, because a batched read of a profile that a
        # merge is appending to can fail inside the numpy kernel at the
        # parent commit (README, finding 1) and a benchmark workload must
        # be one on which no operation fails.
        self.zipf_read_half = Zipf(ranked[0::2])
        self.zipf_write_half = Zipf(ranked[1::2])

    def load_writes(self) -> Iterator[Write]:
        """Every load-phase call, in the order it is issued and acked."""
        rng = Random(f"{self.seed}/load")
        for profile_id in self.profile_ids + self.reserved_ids:
            for age in reversed(range(self.scale.slices)):
                timestamp = (
                    self.anchor_ms - (age + 1) * HOUR_MS + rng.randrange(HOUR_MS)
                )
                fids, counts = _fids_and_counts(rng, self.scale.fids_per_slice)
                yield Write(profile_id, timestamp, fids, counts)


def read_stream(workload: str, dataset: Dataset) -> Iterator[list[int]]:
    """Endless seeded key lists, one per read request of ``workload``.

    ``point_cold`` yields whole passes: each a permutation of every
    profile, read one key per request.
    """
    rng = Random(f"{dataset.seed}/{workload}/read")
    ids = dataset.profile_ids
    if workload == "rank_wide_hot":
        width = min(WIDE_KEYS, len(ids))
        while True:
            yield rng.sample(ids, width)
    elif workload == "point_hot":
        while True:
            yield [dataset.zipf.key(rng)]
    elif workload == "point_cold":
        while True:
            yield rng.sample(ids, len(ids))
    elif workload == "mixed_rw":
        readable = dataset.zipf_read_half
        width = min(MIXED_READ_KEYS, len(readable.ids))
        while True:
            yield readable.distinct(rng, width)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def write_stream(dataset: Dataset, epoch: int) -> Iterator[Write]:
    """``mixed_rw`` writer: Zipf key from the written half, strictly
    increasing timestamps."""
    rng = Random(f"{dataset.seed}/mixed_rw/write/{epoch}")
    index = 0
    while True:
        index += 1
        fids, counts = _fids_and_counts(rng, MIXED_WRITE_FIDS)
        yield Write(
            dataset.zipf_write_half.key(rng), dataset.anchor_ms + index,
            fids, counts,
        )


def stream_digest(seed: int, scale: Scale = FULL, requests: int = 500) -> str:
    """Hash of the load writes and the head of every workload's streams."""
    dataset = Dataset(seed, scale, anchor_ms=1_000_000 * HOUR_MS)
    digest = hashlib.sha256()
    for write in dataset.load_writes():
        digest.update(repr(write).encode())
    for workload in WORKLOADS:
        for keys in islice(read_stream(workload, dataset), requests):
            digest.update(repr(keys).encode())
    for write in islice(write_stream(dataset, 0), requests):
        digest.update(repr(write).encode())
    return digest.hexdigest()
