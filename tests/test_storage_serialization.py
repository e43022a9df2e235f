"""Tests for the varint profile codec (the protobuf substitute)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregate import get_aggregate
from repro.core.profile import ProfileData
from repro.core.slice import Slice
from repro.errors import SerializationError
from repro.storage.serialization import (
    FORMAT_VERSION,
    MAGIC,
    RAW_COLUMN_MIN_ROWS,
    SLICE_V2_MAGIC,
    ProfileCodec,
    deserialize_profile,
    read_varint,
    serialize_profile,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)

SUM = get_aggregate("sum")


def profiles_equal(a: ProfileData, b: ProfileData) -> bool:
    if (a.profile_id, a.write_granularity_ms) != (
        b.profile_id,
        b.write_granularity_ms,
    ):
        return False
    if len(a.slices) != len(b.slices):
        return False
    for slice_a, slice_b in zip(a.slices, b.slices):
        if (slice_a.start_ms, slice_a.end_ms) != (slice_b.start_ms, slice_b.end_ms):
            return False
        if set(slice_a.slot_ids) != set(slice_b.slot_ids):
            return False
        for slot in slice_a.slot_ids:
            stats_a = {s.fid: s for s in slice_a.features(slot, None)}
            stats_b = {s.fid: s for s in slice_b.features(slot, None)}
            if stats_a != stats_b:
                return False
    return True


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, pos = read_varint(bytes(out), 0)
        assert decoded == value and pos == len(out)

    def test_rejects_negative(self):
        with pytest.raises(SerializationError):
            write_varint(bytearray(), -1)

    def test_truncated_raises(self):
        with pytest.raises(SerializationError):
            read_varint(b"\x80", 0)

    @given(st.integers(min_value=0, max_value=2**64))
    def test_roundtrip_property(self, value):
        out = bytearray()
        write_varint(out, value)
        assert read_varint(bytes(out), 0)[0] == value


class TestZigzag:
    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 2**62, -(2**62)])
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip_property(self, value):
        encoded = zigzag_encode(value)
        assert encoded >= 0
        assert zigzag_decode(encoded) == value


class TestSliceCodec:
    def test_roundtrip(self):
        original = Slice(1000, 5000)
        original.add(1, 2, 42, [3, -1, 7], 2000, SUM)
        original.add(3, 1, 99, [5], 4000, SUM)
        blob = ProfileCodec.encode_slice(original)
        decoded = ProfileCodec.decode_slice(blob)
        assert decoded.start_ms == 1000 and decoded.end_ms == 5000
        stat = list(decoded.features(1, 2))[0]
        assert stat.fid == 42 and stat.counts == [3, -1, 7]
        assert stat.last_timestamp_ms == 2000

    def test_trailing_garbage_detected(self):
        blob = ProfileCodec.encode_slice(Slice(0, 10))
        with pytest.raises(SerializationError):
            ProfileCodec.decode_slice(blob + b"\x00")

    def test_empty_range_detected(self):
        out = bytearray()
        write_varint(out, 10)  # start
        write_varint(out, 10)  # end == start: invalid
        write_varint(out, 0)
        with pytest.raises(SerializationError):
            ProfileCodec.decode_slice(bytes(out))


class TestProfileCodec:
    def _build_profile(self, writes=100):
        profile = ProfileData(777, 1000)
        for index in range(writes):
            profile.add(
                1_000_000 + index * 3571,
                index % 5,
                index % 3,
                index % 17,
                [index, -index, index * 2],
                SUM,
            )
        return profile

    def test_roundtrip(self):
        original = self._build_profile()
        blob = serialize_profile(original)
        assert profiles_equal(original, deserialize_profile(blob))

    def test_empty_profile_roundtrip(self):
        original = ProfileData(5, 250)
        assert profiles_equal(original, deserialize_profile(serialize_profile(original)))

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_profile(b"\x01\x02\x03\x04")

    def test_truncation_rejected(self):
        blob = serialize_profile(self._build_profile())
        with pytest.raises(SerializationError):
            deserialize_profile(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = serialize_profile(self._build_profile(5))
        with pytest.raises(SerializationError):
            deserialize_profile(blob + b"\x00")

    def test_encoding_is_compact(self):
        """Varint framing: blob much smaller than the in-memory footprint."""
        profile = self._build_profile(500)
        blob = serialize_profile(profile)
        assert len(blob) < profile.memory_bytes() / 2

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**7),  # timestamp
                st.integers(min_value=0, max_value=6),  # slot
                st.integers(min_value=0, max_value=3),  # type
                st.integers(min_value=0, max_value=50),  # fid
                st.integers(min_value=-1000, max_value=1000),  # count
            ),
            min_size=0,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, writes):
        profile = ProfileData(1, 1000)
        for timestamp, slot, type_id, fid, count in writes:
            profile.add(timestamp, slot, type_id, fid, [count], SUM)
        blob = serialize_profile(profile)
        assert profiles_equal(profile, deserialize_profile(blob))

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_decoding_raises_cleanly(self, junk):
        try:
            deserialize_profile(junk)
        except SerializationError:
            pass
        except Exception as error:  # pragma: no cover
            # Slice/profile construction errors surfaced through decode
            # indicate a missing validation — fail loudly.
            pytest.fail(f"unexpected exception type: {error!r}")


class TestDecodeFastPathEdges:
    """The decode trims (prefix-compared v2 magic, single-byte varint fast
    path, raw columns read off a memoryview) keep every check."""

    V2_MAGIC_BYTES = 9

    def _wide_slice(self, rows=RAW_COLUMN_MIN_ROWS):
        wide = Slice(1000, 5000)
        for fid in range(rows):
            wide.add(1, 2, 300 + fid, [fid, -fid, 1], 2000 + fid, SUM)
        return wide

    def test_truncation_inside_the_magic(self):
        blob = ProfileCodec.encode_slice(self._wide_slice())
        for cut in range(self.V2_MAGIC_BYTES):
            with pytest.raises(SerializationError):
                ProfileCodec.decode_slice(blob[:cut])

    def test_truncation_inside_a_multi_byte_varint(self):
        out = bytearray()
        write_varint(out, 300)
        assert len(out) == 2
        with pytest.raises(SerializationError, match="truncated varint"):
            read_varint(bytes(out[:1]), 0)
        # start_ms = 1000 is the two-byte varint right after the magic.
        blob = ProfileCodec.encode_slice(self._wide_slice())
        with pytest.raises(SerializationError, match="truncated varint"):
            ProfileCodec.decode_slice(blob[: self.V2_MAGIC_BYTES + 1])

    def test_truncation_exactly_at_a_single_byte_varint(self):
        assert read_varint(b"\x05", 0) == (5, 1)
        with pytest.raises(SerializationError, match="truncated varint"):
            read_varint(b"\x05", 1)
        # n_slots is the single byte after magic + start_ms + end_ms.
        blob = ProfileCodec.encode_slice(self._wide_slice())
        with pytest.raises(SerializationError, match="truncated varint"):
            ProfileCodec.decode_slice(blob[: self.V2_MAGIC_BYTES + 2 + 2])

    def test_overlong_varint_still_rejected(self):
        with pytest.raises(SerializationError, match="too long"):
            read_varint(b"\x80" * 11 + b"\x01", 0)

    def test_v1_body_is_refused_by_name(self):
        """A dict-era slice body (no magic, starts at ``start_ms``) raises
        an error naming the columnar codec — never a garbage ``Slice``.
        The second body's start_ms opens with the magic's own first byte:
        the prefix compare looks at all nine."""
        magic = bytearray()
        write_varint(magic, SLICE_V2_MAGIC)
        for start_ms in (1_000_000, (magic[0] & 0x7F) | (1 << 7)):
            body = bytearray()
            for value in (
                start_ms, start_ms + 4000,  # range
                1, 1,  # n_slots, slot_id
                1, 2,  # n_types, type_id
                1, 42, start_ms + 10,  # n_features, fid, last_ts
                2, zigzag_encode(3), zigzag_encode(-1),  # counts
            ):
                write_varint(body, value)
            with pytest.raises(SerializationError, match="columnar slice codec"):
                ProfileCodec.decode_slice(bytes(body))
            profile = bytearray()
            for value in (MAGIC, FORMAT_VERSION, 9, 4000, 1, len(body)):
                write_varint(profile, value)
            with pytest.raises(SerializationError, match="columnar slice codec"):
                ProfileCodec.decode_profile(bytes(profile + body))

    def test_mixed_raw_and_varint_groups_round_trip(self):
        profile = ProfileData(9, 4000)
        for row in range(RAW_COLUMN_MIN_ROWS + 4):  # raw column dump
            profile.add(1000 + row, 1, 2, 300 + row, [row, -row, 1], SUM)
        for row in range(RAW_COLUMN_MIN_ROWS - 1):  # zigzag varints
            profile.add(1000 + row, 1, 3, 700 + row, [row], SUM)
        profile.add(9000, 4, 0, 5, [2, 2], SUM)  # a second, small slice
        blob = serialize_profile(profile)
        decoded = deserialize_profile(blob)
        assert profiles_equal(profile, decoded)
        assert decoded.memory_bytes() == profile.memory_bytes()
        assert serialize_profile(decoded) == blob
