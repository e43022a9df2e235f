"""Binary serialization of profile data (the Protocol Buffers substitute).

IPS serializes the in-memory profile hierarchy into a Protocol Buffer
format before persisting it (§III-E, Fig. 12).  We implement the same idea
from scratch: a varint/length-delimited wire format that encodes the
nesting Profile → Slice → Slot → Type → FeatureStat compactly.

Every slice body is **columnar**: it opens with :data:`SLICE_V2_MAGIC`,
a varint far above any plausible ``start_ms`` (> 2**62).  Each
``(slot, type)`` section carries either zigzag-varint feature rows
(groups of fewer than :data:`RAW_COLUMN_MIN_ROWS` rows) or **raw
little-endian 64-bit column dumps** taken straight off the primary
arrays through ``memoryview`` — the
zero-copy path: encoding touches no per-feature Python objects, and
decoding rebuilds the arrays with one ``frombytes`` per column so cold
reads skip the gather entirely.  The dict-era per-feature body (no
magic, starting at ``start_ms``) is refused by name: no stored value
that old can reach the codec any more (the persistence layer refuses the
LZ-era records that held them).

Wire layout (all integers are unsigned LEB128 varints):

``profile``  := MAGIC version profile_id granularity n_slices slice*
``slice``    := V2MAGIC start_ms end_ms n_slots slot*
``slot``     := slot_id n_types type*
``type``     := type_id encoding body
  encoding 0 := n_features (zigzag(fid) zigzag(last_ts) n_counts
                zigzag(count)*)*
  encoding 1 := n_rows stride flags [widths_raw] fids_raw ts_raw counts_raw
                (raw = little-endian 64-bit dump: ``fids_raw`` uint64,
                the others int64; flags bit0 = has widths)

Counts use zigzag encoding since aggregate functions can in principle
produce negative values.  The codec is symmetric and bounded: decoding
validates lengths, and that every varint row's fid is uint64 and its
timestamp int64, so corrupt blobs fail with
:class:`~repro.errors.SerializationError` instead of producing garbage.
"""

from __future__ import annotations

import sys
from array import array

from ..core.columnar import FID_TYPECODE, INT64_TYPECODE, ColumnGroup
from ..core.feature import FeatureStat
from ..core.instance_set import InstanceSet
from ..core.profile import ProfileData
from ..core.slice import Slice
from ..errors import SerializationError

MAGIC = 0x49505331  # "IPS1"
FORMAT_VERSION = 1

#: First varint of every slice body.  The retired dict-era body started
#: with ``start_ms``; this constant is > 2**62, far beyond any real
#: timestamp, so such a body is recognised and refused, never misread.
SLICE_V2_MAGIC = 0x4950_5332_434F_4C31  # "IPS2COL1"

#: Column groups with at least this many rows use raw 64-bit column dumps
#: (one memcpy per column); smaller groups stay on zigzag varints, which
#: are more compact for short rows.
RAW_COLUMN_MIN_ROWS = 16

#: Per-type section encodings inside a v2 slice.
_ENC_VARINT = 0
_ENC_RAW = 1

#: Decode-time sanity caps (corrupt blobs must fail, not allocate wildly).
_MAX_COUNTS = 1024

_BIG_ENDIAN = sys.byteorder == "big"


# ----------------------------------------------------------------------
# Primitive encoders
# ----------------------------------------------------------------------


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError(f"varint cannot encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    try:
        result = data[pos]
        pos += 1
        if result < 0x80:  # the common case: counts, ids, small lengths
            return result, pos
        result &= 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                return result | (byte << shift), pos
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 70:
                raise SerializationError("varint too long")
    except IndexError:
        raise SerializationError("truncated varint") from None


def _varint_bytes(value: int) -> bytes:
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


#: The nine bytes :data:`SLICE_V2_MAGIC` encodes to; a slice body is
#: checked against this prefix, not by decoding the varint.
_SLICE_V2_PREFIX = _varint_bytes(SLICE_V2_MAGIC)


def zigzag_encode(value: int) -> int:
    # Arbitrary-precision form (fids/counts may exceed int64 pre-clamp).
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _extend_le_column(out: bytearray, column: array) -> None:
    """Append a column's raw bytes little-endian (zero-copy on LE hosts)."""
    if _BIG_ENDIAN:  # pragma: no cover - exercised only on BE hardware
        swapped = array(column.typecode, column)
        swapped.byteswap()
        out += memoryview(swapped).cast("B")
    else:
        out += memoryview(column).cast("B")


def _read_le_column(
    data: memoryview, pos: int, count: int, typecode: str = INT64_TYPECODE
) -> tuple[array, int]:
    """Read ``count`` little-endian 64-bit values (``'q'`` or ``'Q'``)
    into a fresh column.

    ``data`` is a view so the only copy is the one ``frombytes`` makes
    (slicing ``bytes`` first copies a large column twice).
    """
    nbytes = count * 8
    if pos + nbytes > len(data):
        raise SerializationError("truncated raw column")
    column = array(typecode)
    column.frombytes(data[pos : pos + nbytes])
    if _BIG_ENDIAN:  # pragma: no cover - exercised only on BE hardware
        column.byteswap()
    return column, pos + nbytes


# ----------------------------------------------------------------------
# Profile codec
# ----------------------------------------------------------------------


class ProfileCodec:
    """Encode/decode whole profiles or individual slices."""

    # -- slices ---------------------------------------------------------

    @staticmethod
    def encode_slice(profile_slice: Slice) -> bytes:
        out = bytearray()
        ProfileCodec._write_slice_v2(out, profile_slice)
        return bytes(out)

    @staticmethod
    def decode_slice(blob: bytes) -> Slice:
        profile_slice, pos = ProfileCodec._read_slice(blob, 0)
        if pos != len(blob):
            raise SerializationError(
                f"{len(blob) - pos} trailing bytes after slice"
            )
        return profile_slice

    @staticmethod
    def _write_slice_v2(out: bytearray, profile_slice: Slice) -> None:
        out += _SLICE_V2_PREFIX
        write_varint(out, profile_slice.start_ms)
        write_varint(out, profile_slice.end_ms)
        slots = list(profile_slice.slots_items())
        write_varint(out, len(slots))
        for slot_id, instance_set in slots:
            write_varint(out, slot_id)
            types = list(instance_set.groups_items())
            write_varint(out, len(types))
            for type_id, group in types:
                write_varint(out, type_id)
                ProfileCodec._write_group_v2(out, group)

    @staticmethod
    def _write_group_v2(out: bytearray, group: ColumnGroup) -> None:
        if len(group) >= RAW_COLUMN_MIN_ROWS:
            write_varint(out, _ENC_RAW)
            n_rows = len(group)
            write_varint(out, n_rows)
            write_varint(out, group.stride)
            widths = group.widths
            if widths is not None and all(w == group.stride for w in widths):
                widths = None  # canonical: uniform widths are implicit
            write_varint(out, 1 if widths is not None else 0)
            if widths is not None:
                _extend_le_column(out, widths)
            _extend_le_column(out, group.fids)
            _extend_le_column(out, group.ts)
            _extend_le_column(out, group.counts)
            return
        write_varint(out, _ENC_VARINT)
        stats = group.stats()
        write_varint(out, len(stats))
        for stat in stats:
            write_varint(out, zigzag_encode(stat.fid))
            write_varint(out, zigzag_encode(stat.last_timestamp_ms))
            write_varint(out, len(stat.counts))
            for count in stat.counts:
                write_varint(out, zigzag_encode(count))

    @staticmethod
    def _read_slice(data: bytes, pos: int) -> tuple[Slice, int]:
        if not data.startswith(_SLICE_V2_PREFIX, pos):
            raise SerializationError(
                "slice body does not open with the columnar slice codec's "
                "magic: cut short, or written by the dict-era codec this "
                "build no longer decodes"
            )
        start_ms, pos = read_varint(data, pos + len(_SLICE_V2_PREFIX))
        end_ms, pos = read_varint(data, pos)
        if end_ms <= start_ms:
            raise SerializationError(
                f"decoded slice has empty range [{start_ms}, {end_ms})"
            )
        profile_slice = Slice(start_ms, end_ms)
        n_slots, pos = read_varint(data, pos)
        for _ in range(n_slots):
            slot_id, pos = read_varint(data, pos)
            instance_set = profile_slice.ensure_slot(slot_id)
            n_types, pos = read_varint(data, pos)
            for _ in range(n_types):
                type_id, pos = read_varint(data, pos)
                group, pos = ProfileCodec._read_group_v2(data, pos)
                instance_set.adopt_group(type_id, group)
        profile_slice.mark_mutated()
        return profile_slice, pos

    @staticmethod
    def _read_group_v2(data: bytes, pos: int) -> tuple[ColumnGroup, int]:
        encoding, pos = read_varint(data, pos)
        if encoding == _ENC_RAW:
            n_rows, pos = read_varint(data, pos)
            stride, pos = read_varint(data, pos)
            if stride > _MAX_COUNTS:
                raise SerializationError(f"implausible stride {stride}")
            flags, pos = read_varint(data, pos)
            if flags not in (0, 1):
                raise SerializationError(f"unknown column flags {flags:#x}")
            raw = memoryview(data)
            widths = None
            if flags & 1:
                widths, pos = _read_le_column(raw, pos, n_rows)
            fids, pos = _read_le_column(raw, pos, n_rows, FID_TYPECODE)
            ts, pos = _read_le_column(raw, pos, n_rows)
            counts, pos = _read_le_column(raw, pos, n_rows * stride)
            try:
                group = ColumnGroup.from_columns(
                    stride, fids, ts, counts, widths
                )
            except ValueError as error:
                raise SerializationError(str(error)) from None
            return group, pos
        if encoding != _ENC_VARINT:
            raise SerializationError(f"unknown group encoding {encoding}")
        n_features, pos = read_varint(data, pos)
        features: list[FeatureStat] = []
        for _ in range(n_features):
            raw_fid, pos = read_varint(data, pos)
            raw_ts, pos = read_varint(data, pos)
            n_counts, pos = read_varint(data, pos)
            if n_counts > _MAX_COUNTS:
                raise SerializationError(
                    f"implausible count vector length {n_counts}"
                )
            counts_list = []
            for _ in range(n_counts):
                encoded, pos = read_varint(data, pos)
                counts_list.append(zigzag_decode(encoded))
            features.append(
                FeatureStat(
                    zigzag_decode(raw_fid), counts_list, zigzag_decode(raw_ts)
                )
            )
        try:
            return ColumnGroup.from_stats(features), pos
        except OverflowError:
            raise SerializationError(
                "a varint row's fid is not uint64 or its timestamp not int64"
            ) from None

    # -- whole profiles ---------------------------------------------------

    @staticmethod
    def encode_profile(profile: ProfileData) -> bytes:
        out = bytearray()
        write_varint(out, MAGIC)
        write_varint(out, FORMAT_VERSION)
        write_varint(out, profile.profile_id)
        write_varint(out, profile.write_granularity_ms)
        write_varint(out, len(profile.slices))
        for profile_slice in profile.slices:
            body = ProfileCodec.encode_slice(profile_slice)
            write_varint(out, len(body))
            out.extend(body)
        return bytes(out)

    @staticmethod
    def decode_profile(blob: bytes) -> ProfileData:
        pos = 0
        magic, pos = read_varint(blob, pos)
        if magic != MAGIC:
            raise SerializationError(f"bad magic {magic:#x}; not an IPS profile")
        version, pos = read_varint(blob, pos)
        if version != FORMAT_VERSION:
            raise SerializationError(f"unsupported format version {version}")
        profile_id, pos = read_varint(blob, pos)
        granularity, pos = read_varint(blob, pos)
        n_slices, pos = read_varint(blob, pos)
        profile = ProfileData(profile_id, granularity)
        slices = []
        for _ in range(n_slices):
            length, pos = read_varint(blob, pos)
            if pos + length > len(blob):
                raise SerializationError("slice body past end of profile blob")
            profile_slice, consumed = ProfileCodec._read_slice(blob, pos)
            if consumed != pos + length:
                raise SerializationError("slice body length mismatch")
            pos = consumed
            slices.append(profile_slice)
        if pos != len(blob):
            raise SerializationError(
                f"{len(blob) - pos} trailing bytes after profile"
            )
        profile.replace_slices(slices)
        return profile


def serialize_profile(profile: ProfileData) -> bytes:
    """Module-level convenience wrapper over :class:`ProfileCodec`."""
    return ProfileCodec.encode_profile(profile)


def deserialize_profile(blob: bytes) -> ProfileData:
    """Module-level convenience wrapper over :class:`ProfileCodec`."""
    return ProfileCodec.decode_profile(blob)
