"""Profile Table: the per-table map of profile id to profile data.

The basic structure is an unordered map keyed by the 64-bit profile id
(Fig. 6).  The table owns its configuration (attribute schema, aggregate,
time dimension, truncate/shrink policies) and hands out
:class:`~repro.core.profile.ProfileData` instances; the cache layer above
decides which profiles are resident.
"""

from __future__ import annotations

from typing import Iterator

from ..config import TableConfig
from ..errors import ProfileNotFoundError
from .aggregate import AggregateFn, get_aggregate
from .feature import INT64_MAX
from .profile import ProfileData

UINT64_MASK = 2**64 - 1


def check_profile_id(profile_id: int) -> int:
    """Validate a 64-bit unsigned profile id."""
    if not 0 <= profile_id <= UINT64_MASK:
        raise ValueError(f"profile id out of uint64 range: {profile_id}")
    return profile_id


def check_write(
    profile_id: int, timestamp_ms: int, slot: int, type_id: int, fid: int
) -> None:
    """Refuse a write whose ids have no column or record field to live in.

    Run by the engine and the node before anything — the WAL, the write
    table, a replica — sees the write: fids are uint64, timestamps int64,
    and timestamps, slots and type ids non-negative, since the WAL record
    and the replication delta write all three as unsigned varints.
    """
    check_profile_id(profile_id)
    if not 0 <= fid <= UINT64_MASK:
        raise ValueError(f"fid out of uint64 range: {fid}")
    if not 0 <= timestamp_ms <= INT64_MAX:
        raise ValueError(f"timestamp out of range [0, 2**63): {timestamp_ms}")
    if slot < 0 or type_id < 0:
        raise ValueError(
            f"slot and type id must be non-negative: {slot}, {type_id}"
        )


class ProfileTable:
    """Map of profile id -> :class:`ProfileData` plus the table config."""

    def __init__(self, config: TableConfig) -> None:
        self.config = config
        self.aggregate: AggregateFn = get_aggregate(config.aggregate)
        self._profiles: dict[int, ProfileData] = {}
        self._write_granularity_ms = config.time_dimension.bands[0].granularity_ms

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.config.name

    def get(self, profile_id: int) -> ProfileData | None:
        """Fetch a profile, or ``None`` if not resident in this table."""
        return self._profiles.get(check_profile_id(profile_id))

    def get_or_raise(self, profile_id: int) -> ProfileData:
        profile = self.get(profile_id)
        if profile is None:
            raise ProfileNotFoundError(profile_id)
        return profile

    def get_or_create(self, profile_id: int) -> ProfileData:
        profile_id = check_profile_id(profile_id)
        profile = self._profiles.get(profile_id)
        if profile is None:
            profile = ProfileData(profile_id, self._write_granularity_ms)
            self._profiles[profile_id] = profile
        return profile

    def put(self, profile: ProfileData) -> None:
        """Install a profile object wholesale (cache loads, merges)."""
        check_profile_id(profile.profile_id)
        self._profiles[profile.profile_id] = profile

    def evict(self, profile_id: int) -> ProfileData | None:
        """Remove a profile from residency and return it (cache swap-out)."""
        return self._profiles.pop(check_profile_id(profile_id), None)

    def __contains__(self, profile_id: int) -> bool:
        return check_profile_id(profile_id) in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def profile_ids(self) -> Iterator[int]:
        return iter(self._profiles.keys())

    def profiles(self) -> Iterator[ProfileData]:
        return iter(self._profiles.values())

    def memory_bytes(self) -> int:
        return sum(profile.memory_bytes() for profile in self._profiles.values())

    def __repr__(self) -> str:
        return f"ProfileTable(name={self.name!r}, profiles={len(self._profiles)})"
