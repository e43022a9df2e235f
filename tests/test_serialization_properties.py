"""Property-based suite for the zero-copy (columnar v2) serialization.

One contract, enforced with hypothesis over generated slices/profiles:
array-native slice → bytes → slice is lossless, and re-encoding the
decoded slice reproduces the exact same bytes (stability matters:
replica repair compares encoded block digests).

Plus structural checks that the raw int64 column sections actually
appear on the wire for large groups (the zero-copy path) and that
corrupt raw sections fail with ``SerializationError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import FID_TYPECODE, ColumnGroup
from repro.core.aggregate import aggregate_sum
from repro.core.feature import FeatureStat
from repro.core.profile import ProfileData
from repro.core.slice import Slice
from repro.errors import SerializationError
from repro.storage.serialization import (
    RAW_COLUMN_MIN_ROWS,
    SLICE_V2_MAGIC,
    ProfileCodec,
    deserialize_profile,
    read_varint,
    serialize_profile,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Counts beyond int64 are clamped by FeatureStat; include both.
count_values = st.integers(min_value=-(2**70), max_value=2**70)

#: fids are uint64, the whole range (the fid column is ``array('Q')``).
fid_values = st.integers(min_value=0, max_value=2**64 - 1)

timestamp_values = st.integers(min_value=0, max_value=2**48)

feature_stats = st.builds(
    FeatureStat,
    fid_values,
    st.lists(count_values, min_size=0, max_size=4),
    timestamp_values,
)


@st.composite
def slices(draw):
    start = draw(st.integers(0, 2**40))
    end = start + draw(st.integers(1, 2**40))
    profile_slice = Slice(start, end)
    for slot in draw(st.lists(st.integers(0, 5), max_size=3, unique=True)):
        instance_set = profile_slice.ensure_slot(slot)
        for type_id in draw(
            st.lists(st.integers(0, 5), max_size=3, unique=True)
        ):
            stats = draw(st.lists(feature_stats, min_size=1, max_size=30))
            instance_set.adopt_group(type_id, ColumnGroup.from_stats(stats))
    profile_slice.mark_mutated()
    return profile_slice


write_ops = st.tuples(
    st.integers(0, 10 * 86_400_000),            # timestamp offset
    st.integers(1, 2),                           # slot
    st.integers(1, 3),                           # type
    fid_values,                                  # fid
    st.lists(count_values, min_size=0, max_size=3),
)


def slice_snapshot(profile_slice):
    """Logical content of a slice, order-independent per (slot, type)."""
    slots = {}
    for slot, instance_set in profile_slice.slots_items():
        slots[slot] = {
            type_id: sorted(
                (stat.fid, tuple(stat.counts), stat.last_timestamp_ms)
                for stat in instance_set.features_for_type(type_id)
            )
            for type_id in instance_set.type_ids
        }
    return (profile_slice.start_ms, profile_slice.end_ms, slots)


# ----------------------------------------------------------------------
# v2 round-trip
# ----------------------------------------------------------------------


class TestV2RoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(slices())
    def test_slice_roundtrip_lossless_and_stable(self, profile_slice):
        blob = ProfileCodec.encode_slice(profile_slice)
        decoded = ProfileCodec.decode_slice(blob)
        assert slice_snapshot(decoded) == slice_snapshot(profile_slice)
        # Re-encoding the decoded slice must reproduce the same bytes.
        assert ProfileCodec.encode_slice(decoded) == blob

    @settings(max_examples=120, deadline=None)
    @given(slices())
    def test_decoded_slices_are_array_native(self, profile_slice):
        """Every group decodes into columnar form, uint64 fids included."""
        decoded = ProfileCodec.decode_slice(
            ProfileCodec.encode_slice(profile_slice)
        )
        for _, instance_set in decoded.slots_items():
            for _, group in instance_set.groups_items():
                assert group.fids.typecode == FID_TYPECODE

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 86_400_000),
        st.lists(write_ops, min_size=0, max_size=40),
    )
    def test_profile_roundtrip(self, profile_id, granularity, ops):
        profile = ProfileData(profile_id, write_granularity_ms=granularity)
        for offset, slot, type_id, fid, counts in ops:
            profile.add(offset, slot, type_id, fid, counts, aggregate_sum)
        blob = serialize_profile(profile)
        back = deserialize_profile(blob)
        assert back.profile_id == profile.profile_id
        assert back.write_granularity_ms == profile.write_granularity_ms
        assert [slice_snapshot(s) for s in back.slices] == [
            slice_snapshot(s) for s in profile.slices
        ]
        assert serialize_profile(back) == blob
        # Logical memory accounting is representation-stable.
        assert back.memory_bytes() == profile.memory_bytes()


# ----------------------------------------------------------------------
# The raw (zero-copy) sections
# ----------------------------------------------------------------------


def _first_group_encoding(blob: bytes) -> int:
    """Parse a v2 slice body down to its first type section's encoding."""
    pos = 0
    magic, pos = read_varint(blob, pos)
    assert magic == SLICE_V2_MAGIC
    _, pos = read_varint(blob, pos)  # start_ms
    _, pos = read_varint(blob, pos)  # end_ms
    n_slots, pos = read_varint(blob, pos)
    assert n_slots >= 1
    _, pos = read_varint(blob, pos)  # slot_id
    n_types, pos = read_varint(blob, pos)
    assert n_types >= 1
    _, pos = read_varint(blob, pos)  # type_id
    encoding, pos = read_varint(blob, pos)
    return encoding


def _uniform_slice(n_rows: int, width: int) -> Slice:
    profile_slice = Slice(0, 1000)
    stats = [
        FeatureStat(fid, [fid * 7 + j for j in range(width)], 500)
        for fid in range(n_rows)
    ]
    profile_slice.ensure_slot(1).adopt_group(2, ColumnGroup.from_stats(stats))
    profile_slice.mark_mutated()
    return profile_slice


class TestRawColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(RAW_COLUMN_MIN_ROWS, 3 * RAW_COLUMN_MIN_ROWS),
        st.integers(0, 4),
    )
    def test_large_groups_use_raw_sections(self, n_rows, width):
        blob = ProfileCodec.encode_slice(_uniform_slice(n_rows, width))
        assert _first_group_encoding(blob) == 1  # _ENC_RAW
        decoded = ProfileCodec.decode_slice(blob)
        assert slice_snapshot(decoded) == slice_snapshot(
            _uniform_slice(n_rows, width)
        )

    def test_small_groups_stay_on_varints(self):
        blob = ProfileCodec.encode_slice(
            _uniform_slice(RAW_COLUMN_MIN_ROWS - 1, 3)
        )
        assert _first_group_encoding(blob) == 0  # _ENC_VARINT

    def test_truncated_raw_column_rejected(self):
        blob = ProfileCodec.encode_slice(_uniform_slice(32, 3))
        for cut in (len(blob) - 1, len(blob) - 9, len(blob) // 2):
            with pytest.raises(SerializationError):
                ProfileCodec.decode_slice(blob[:cut])

    def test_duplicate_fid_in_raw_section_rejected(self):
        profile_slice = _uniform_slice(32, 1)
        group = profile_slice.instance_set(1).column_group(2)
        group.fids[1] = group.fids[0]  # corrupt in place, then re-encode
        blob = ProfileCodec.encode_slice(profile_slice)
        with pytest.raises(SerializationError):
            ProfileCodec.decode_slice(blob)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ragged_widths_roundtrip(self, data):
        """Non-uniform native widths survive the widths column."""
        n_rows = data.draw(st.integers(RAW_COLUMN_MIN_ROWS, 40))
        widths = data.draw(
            st.lists(
                st.integers(0, 4), min_size=n_rows, max_size=n_rows
            )
        )
        profile_slice = Slice(0, 1000)
        stats = [
            FeatureStat(fid, list(range(width)), 10 + fid)
            for fid, width in enumerate(widths)
        ]
        profile_slice.ensure_slot(1).adopt_group(
            3, ColumnGroup.from_stats(stats)
        )
        profile_slice.mark_mutated()
        blob = ProfileCodec.encode_slice(profile_slice)
        decoded = ProfileCodec.decode_slice(blob)
        assert slice_snapshot(decoded) == slice_snapshot(profile_slice)
        assert ProfileCodec.encode_slice(decoded) == blob
