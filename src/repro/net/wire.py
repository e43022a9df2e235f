"""Wire codec for the socket transport: framing + value encoding.

A message travels as one **frame**::

    frame := MAGIC(4) length(4) crc32(4) payload[length]

(little-endian fixed header; ``crc32`` covers the payload only).  A torn
or bit-flipped frame fails loudly with :class:`WireCodecError` instead of
desynchronizing the stream — the same CRC-framing discipline the WAL and
the file KV store use.

The payload is a **value-encoded** request or response.  The value codec
reuses the varint/zigzag primitives of
:mod:`repro.storage.serialization` and covers exactly the types the node
RPC surface needs: scalars, containers, and the IPS domain types
(:class:`~repro.core.timerange.TimeRange`,
:class:`~repro.core.query.SortType`,
:class:`~repro.core.query.Query` (its kind's index, then its fields),
:class:`~repro.core.query.FeatureResult`,
:class:`~repro.core.query.PackedRows` (encoded only; it decodes as the
``list[FeatureResult]`` it holds),
:class:`~repro.server.batch.BatchKeyResult`).  Anything else — notably
callables, so a filter ``Query``'s predicate and a custom decay
function cannot cross a process boundary — raises :class:`WireCodecError`
at encode time with a message saying so.

Read results and key lists travel as **columns**, not tagged rows::

    column  := code(1) zigzag(base) body         (length implied by context)
      code 0..3 := n × (value - base) as little-endian uint8/16/32/64
      code 4    := n × value as little-endian int64   (base 0)
    rows    := n_rows [shape [widths:column] fids:column ts:column
                       counts:column]            (shape 0 = widths follow,
                                                  w + 1 = every row is w wide)
    batch   := n_keys pids:column status:column rows_per_ok_key:column rows
               (error message)*                  (one pair per failed key)

Key, status and length columns, and every list of plain ints, are
frame-of-reference encoded: their minimum as the base, then every value
minus it in the narrowest of the ``array`` typecodes ``B``/``H``/``I``/``Q``
that holds the range.  A column whose range passes 64 bits cannot be
written: a rows block holding one fails with :class:`WireCodecError`,
and such a list of plain ints is sent as a generic list instead.  The
columns of a rows block built from a node's cached
:class:`~repro.core.query.PackedRows` go out raw, with base 0: the fids
as uint64 (code 3), the timestamps and counts as int64 (code 4).  A
batch of cache hits is encoded by one ``b"".join`` per column, with no
per-value work on the worker, for ≈ 4× the bytes (a 32-key top-10
answer: ≈ 3 KB → ≈ 13 KB, which loopback and CRC32 carry in
microseconds).  A materialised ``list[FeatureResult]`` pays per-value
work anyway, so its columns take FOR.  Decoding is one ``frombytes`` +
``tolist`` per column either way.  A ``list[FeatureResult]``
(every point read) is one ``rows`` block; a ``dict[int,
BatchKeyResult]`` keyed by each value's ``profile_id`` (every multi-get)
is one ``batch`` block; a list of plain ``int`` (every multi-get's keys)
is one column.  A lone ``FeatureResult`` / ``BatchKeyResult`` is a
one-row / one-key block.
Every length is checked against the bytes left before anything is
allocated for it, and containers nest at most :data:`MAX_NESTING` deep.

Errors travel as ``(type_name, message)`` pairs and are reconstructed on
the client from the :mod:`repro.errors` taxonomy, so retryability
survives the hop: a worker-side :class:`~repro.errors.QuotaExceededError`
is region-fatal on the client exactly as it would be in process.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any

from .. import errors as _errors
from ..core.columnar import FID_TYPECODE
from ..core.query import (
    QUERY_KINDS,
    FeatureResult,
    PackedRows,
    Query,
    SortType,
    rows_from_columns,
    segment_values,
)
from ..core.timerange import TimeRange, TimeRangeKind
from ..errors import (  # the error taxonomy the wire carries
    RemoteError,
    RetryableRemoteError,
    WireCodecError,
    error_from_wire,
    error_to_wire,
)
from ..server.batch import BatchKeyResult
from ..storage.serialization import (
    _BIG_ENDIAN,
    _MAX_COUNTS,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)

FRAME_MAGIC = 0x4950534E  # "IPSN"
_HEADER = struct.Struct("<III")  # magic, payload length, payload crc32
#: Upper bound on a single frame; a decoded length past this is treated
#: as stream corruption rather than an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024
_FLOAT = struct.Struct("<d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class TruncatedFrameError(WireCodecError, ConnectionError):
    """The peer closed mid-frame: torn to a reader, a lost connection to a caller."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Wrap a payload in the length-prefixed CRC32 frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireCodecError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_frame_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; returns ``(payload_length, crc32)``."""
    if len(header) != _HEADER.size:
        raise WireCodecError(
            f"truncated frame header: {len(header)} of {_HEADER.size} bytes"
        )
    magic, length, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise WireCodecError(f"bad frame magic {magic:#x}")
    if length > MAX_FRAME_BYTES:
        raise WireCodecError(f"frame length {length} exceeds cap")
    return length, crc


def check_frame_payload(payload: bytes, crc: int) -> bytes:
    if zlib.crc32(payload) != crc:
        raise WireCodecError("frame payload failed its CRC32 check")
    return payload


HEADER_SIZE = _HEADER.size


def _recv_upto(sock, n: int) -> bytes:
    """``n`` bytes off a blocking socket; fewer only if the peer closed."""
    data = sock.recv(n)
    if len(data) == n or not data:
        return data  # the usual case: one recv, no copy
    buffer = bytearray(data)
    while len(buffer) < n and (chunk := sock.recv(n - len(buffer))):
        buffer += chunk
    return bytes(buffer)


def read_frame(sock) -> bytes | None:
    """Read one frame payload from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`WireCodecError` on a torn or corrupt frame.  A socket timeout
    propagates as ``socket.timeout``.
    """
    header = _recv_upto(sock, HEADER_SIZE)
    if not header:
        return None  # clean EOF between frames
    if len(header) < HEADER_SIZE:
        raise TruncatedFrameError("connection closed mid-header")
    length, crc = decode_frame_header(header)
    payload = _recv_upto(sock, length)
    if len(payload) < length:
        raise TruncatedFrameError("connection closed mid-frame")
    return check_frame_payload(payload, crc)


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3  # zigzag varint, |v| < 2**63
_T_BIGUINT = 4  # plain varint, v >= 2**63 (uint64 profile ids)
_T_FLOAT = 5
_T_STR = 6
_T_BYTES = 7
_T_LIST = 8
_T_TUPLE = 9
_T_DICT = 10
_T_TIMERANGE = 11
_T_SORTTYPE = 12
_T_FEATURE_RESULT = 13
_T_BATCH_KEY_RESULT = 14
_T_WRITE_DELTA = 15
_T_INT_COLUMN = 16
_T_RESULT_ROWS = 17
_T_BATCH_RESULTS = 18
_T_QUERY = 19

@dataclass(frozen=True)
class WriteDelta:
    """One replicated write, sequence-numbered by its origin shard.

    This is the Monolith-style delta unit: the exact logical write the
    primary applied, not the profile image it produced, so replication
    bytes scale with the change rate rather than profile size.  ``seq``
    is monotonic per origin worker; replicas keep a per-origin cursor and
    drop anything at or below it, which makes retransmits idempotent.
    """

    seq: int
    profile_id: int
    timestamp_ms: int
    slot: int
    type_id: int
    fid: int
    counts: tuple[int, ...]


def _encode_write_delta(out: bytearray, delta: WriteDelta) -> None:
    write_varint(out, delta.seq)
    write_varint(out, delta.profile_id)
    write_varint(out, delta.timestamp_ms)
    write_varint(out, delta.slot)
    write_varint(out, delta.type_id)
    write_varint(out, delta.fid)
    write_varint(out, len(delta.counts))
    for count in delta.counts:
        write_varint(out, zigzag_encode(count))


def _decode_write_delta(data: bytes, pos: int) -> tuple[WriteDelta, int]:
    seq, pos = read_varint(data, pos)
    profile_id, pos = read_varint(data, pos)
    timestamp_ms, pos = read_varint(data, pos)
    slot, pos = read_varint(data, pos)
    type_id, pos = read_varint(data, pos)
    fid, pos = read_varint(data, pos)
    n_counts, pos = read_varint(data, pos)
    counts = []
    for _ in range(n_counts):
        encoded, pos = read_varint(data, pos)
        counts.append(zigzag_decode(encoded))
    return (
        WriteDelta(seq, profile_id, timestamp_ms, slot, type_id, fid,
                   tuple(counts)),
        pos,
    )


def write_delta_wire_bytes(delta: WriteDelta) -> int:
    """Encoded size of one delta — the replication-bytes accounting unit."""
    out = bytearray()
    _encode_write_delta(out, delta)
    return len(out) + 1  # + the type tag


_TIMERANGE_KINDS = (
    TimeRangeKind.CURRENT,
    TimeRangeKind.RELATIVE,
    TimeRangeKind.ABSOLUTE,
)
_SORT_TYPES = tuple(SortType)


def encode_value(out: bytearray, value: Any) -> None:
    """Append one value in tagged form."""
    if value is None:
        out.append(_T_NONE)
    elif value is False:
        out.append(_T_FALSE)
    elif value is True:
        out.append(_T_TRUE)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_T_INT)
            write_varint(out, zigzag_encode(value))
        elif value > 0:
            out.append(_T_BIGUINT)
            write_varint(out, value)
        else:
            raise WireCodecError(f"integer {value} out of the wire range")
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(_FLOAT.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        write_varint(out, len(data))
        out.extend(data)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, FeatureResult):
        out.append(_T_FEATURE_RESULT)
        _write_rows(out, [_packed([value])])
    elif isinstance(value, PackedRows):
        out.append(_T_RESULT_ROWS)
        _write_rows(out, [value])
    elif isinstance(value, BatchKeyResult):
        out.append(_T_BATCH_KEY_RESULT)
        _write_batch(out, [value.profile_id], [value])
    elif isinstance(value, Query):  # before tuple: a Query is one
        out.append(_T_QUERY)
        out.append(QUERY_KINDS.index(value.kind))
        for item in value[1:]:
            encode_value(out, item)
    elif isinstance(value, WriteDelta):
        out.append(_T_WRITE_DELTA)
        _encode_write_delta(out, value)
    elif isinstance(value, list):
        kinds = set(map(type, value))
        if kinds == {int}:
            start = len(out)
            out.append(_T_INT_COLUMN)
            write_varint(out, len(value))
            try:
                _write_column(out, value)
                return
            except WireCodecError:  # a range past 64 bits: a plain list
                del out[start:]
        if kinds == {FeatureResult}:
            out.append(_T_RESULT_ROWS)
            _write_rows(out, [_packed(value)])
            return
        out.append(_T_LIST)
        write_varint(out, len(value))
        for item in value:
            encode_value(out, item)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        write_varint(out, len(value))
        for item in value:
            encode_value(out, item)
    elif isinstance(value, dict):
        keys, results = list(value), list(value.values())
        if (
            keys
            and set(map(type, keys)) == {int}
            and set(map(type, results)) == {BatchKeyResult}
            and list(map(_profile_id, results)) == keys
        ):
            out.append(_T_BATCH_RESULTS)
            _write_batch(out, keys, results)
            return
        out.append(_T_DICT)
        write_varint(out, len(value))
        for key, item in value.items():
            encode_value(out, key)
            encode_value(out, item)
    elif isinstance(value, TimeRange):
        out.append(_T_TIMERANGE)
        out.append(_TIMERANGE_KINDS.index(value.kind))
        encode_value(out, value.span_ms)
        encode_value(out, value.start_ms)
        encode_value(out, value.end_ms)
    elif isinstance(value, SortType):
        out.append(_T_SORTTYPE)
        out.append(_SORT_TYPES.index(value))
    elif callable(value):
        raise WireCodecError(
            f"cannot serialize callable {value!r}: filter predicates and "
            "custom decay functions cannot cross a process boundary — use "
            "the named decay functions, or the in-process transport"
        )
    else:
        raise WireCodecError(
            f"cannot serialize {type(value).__name__} value {value!r}"
        )


# -- column blocks ----------------------------------------------------

#: Frame-of-reference body codes index these typecodes (``q`` is never
#: chosen for a range: it carries raw int64 segments, base 0).
_COLUMN_TYPECODES = "BHIQq"
#: Bytes needed for a column's ``max - min`` (0–8) → the narrowest code.
_CODE_FOR_BYTES = tuple(
    next(code for code, typecode in enumerate(_COLUMN_TYPECODES)
         if array(typecode).itemsize >= nbytes)
    for nbytes in range(9)
)
#: A raw column's header by typecode: its code, then ``zigzag(0)`` as its base.
_RAW_HEADERS = {
    typecode: bytes([code, 0]) for code, typecode in enumerate(_COLUMN_TYPECODES)
}
#: A rows block's columns, each with the typecode of its raw segments.
_ROW_COLUMNS = (("fids", FID_TYPECODE), ("timestamps", "q"), ("counts", "q"))
_n_rows = attrgetter("n_rows")
_profile_id, _ok = itemgetter(0), itemgetter(1)


def _write_column(out: bytearray, values) -> None:
    """Append one FOR-encoded int column; its length is the caller's to send."""
    if not values:
        return
    try:
        low = min(values)
        nbytes = ((max(values) - low).bit_length() + 7) >> 3
        if nbytes > 8:
            raise WireCodecError("a column's range passes 64 bits")
        code = _CODE_FOR_BYTES[nbytes]
        out.append(code)
        write_varint(out, zigzag_encode(low))
        column = array(
            _COLUMN_TYPECODES[code],
            [value - low for value in values] if low else values,
        )
    except (TypeError, AttributeError) as exc:  # a float has no bit_length
        raise WireCodecError(f"column holds a non-integer: {exc}") from None
    if _BIG_ENDIAN:  # pragma: no cover - exercised only on BE hardware
        column.byteswap()
    out += column


def _write_segments(out: bytearray, segments: list, typecode: str) -> None:
    """Append one column made of ``typecode`` segments: joined as they are
    when every segment is bytes, else through :func:`_write_column`."""
    if set(map(type, segments)) == {bytes}:
        body = b"".join(segments)
        if body:
            out += _RAW_HEADERS[typecode]
            out += body
        return
    if len(segments) == 1:  # a materialised list's values, as they are
        _write_column(out, segments[0])
    else:
        _write_column(out, list(chain.from_iterable(
            segment_values(segment, typecode) for segment in segments
        )))


def _read_column(data: bytes, pos: int, length: int) -> tuple[list[int], int]:
    if not length:
        return [], pos
    if length > len(data) - pos:  # every value takes at least one byte
        raise WireCodecError(
            f"column of {length} values is longer than the "
            f"{len(data) - pos} bytes left"
        )
    code = data[pos]
    low, pos = read_varint(data, pos + 1)
    low = zigzag_decode(low)
    if code >= len(_COLUMN_TYPECODES):
        raise WireCodecError(f"unknown column typecode index {code}")
    column = array(_COLUMN_TYPECODES[code])
    end = pos + length * column.itemsize
    if end > len(data):
        raise WireCodecError("truncated column")
    column.frombytes(memoryview(data)[pos:end])
    if _BIG_ENDIAN:  # pragma: no cover - exercised only on BE hardware
        column.byteswap()
    values = column.tolist()
    return ([value + low for value in values] if low else values), end


def _packed(rows) -> PackedRows:
    """A key's value as a rows block.

    A cached entry passes through, to be joined as it is.  A
    materialised list costs per-value work either way, so its columns
    stay values and take the frame-of-reference codec: 2–4× fewer bytes
    than raw int64 for the same decode.
    """
    if type(rows) is PackedRows:
        return rows
    if not set(map(type, rows or ())) <= {FeatureResult}:
        raise WireCodecError("a batch key result holds a non-FeatureResult row")
    return PackedRows.pack(rows or (), raw=False)


def _write_rows(out: bytearray, blocks: list[PackedRows]) -> None:
    """Append one rows block holding every row of ``blocks``, in order."""
    n_rows = sum(map(_n_rows, blocks))
    write_varint(out, n_rows)
    if not n_rows:
        return
    shapes = {block.widths for block in blocks if block.n_rows}
    width = shapes.pop() if len(shapes) == 1 else None
    widths = None
    if type(width) is not int:  # ragged: one width per row
        widths = list(chain.from_iterable(
            [block.widths] * block.n_rows if type(block.widths) is int
            else block.widths
            for block in blocks
        ))
        width = max(widths)
    if width > _MAX_COUNTS:
        raise WireCodecError(f"a result row has more than {_MAX_COUNTS} counts")
    if widths is None:
        write_varint(out, width + 1)  # uniform: the widths are implicit
    else:
        write_varint(out, 0)
        _write_column(out, widths)
    for column, typecode in _ROW_COLUMNS:
        _write_segments(out, list(map(attrgetter(column), blocks)), typecode)


def _read_rows(
    data: bytes, pos: int, expected: int | None = None
) -> tuple[list[FeatureResult], int]:
    n_rows, pos = read_varint(data, pos)
    if expected is not None and n_rows != expected:
        raise WireCodecError(
            f"rows block holds {n_rows} rows, its keys claim {expected}"
        )
    if not n_rows:
        return [], pos
    shape, pos = read_varint(data, pos)
    if shape:
        widths = shape - 1
        if widths > _MAX_COUNTS:
            raise WireCodecError(f"implausible result row width {widths}")
        n_counts = n_rows * widths
    else:
        widths, pos = _read_column(data, pos, n_rows)
        if min(widths) < 0 or max(widths) > _MAX_COUNTS:
            raise WireCodecError("result row width out of range")
        n_counts = sum(widths)
    fids, pos = _read_column(data, pos, n_rows)
    timestamps, pos = _read_column(data, pos, n_rows)
    flat, pos = _read_column(data, pos, n_counts)
    return rows_from_columns(fids, timestamps, flat, widths), pos


def _write_batch(
    out: bytearray, profile_ids: list[int], results: list[BatchKeyResult]
) -> None:
    write_varint(out, len(profile_ids))
    _write_column(out, profile_ids)
    _write_column(out, list(map(_ok, results)))
    values = [result.value for result in results if result.ok]
    kinds = set(map(type, values))
    if PackedRows in kinds:  # cached answers: one block per key, joined
        blocks = values if kinds == {PackedRows} else list(map(_packed, values))
        _write_column(out, list(map(_n_rows, blocks)))
    else:  # materialised lists: one block for all their rows
        values = [value or () for value in values]
        _write_column(out, list(map(len, values)))
        blocks = [_packed(list(chain.from_iterable(values)))]
    _write_rows(out, blocks)
    for result in results:
        if not result.ok:
            encode_value(out, result.error or "")
            encode_value(out, result.error_message)


#: ``BatchKeyResult`` from a ready 5-tuple, built in C.
_new_key_result = partial(tuple.__new__, BatchKeyResult)


def _read_batch(
    data: bytes, pos: int, depth: int
) -> tuple[dict[int, BatchKeyResult], int]:
    n_keys, pos = read_varint(data, pos)
    profile_ids, pos = _read_column(data, pos, n_keys)
    status, pos = _read_column(data, pos, n_keys)
    n_ok = status.count(1)
    if n_ok + status.count(0) != n_keys:
        raise WireCodecError("batch key status is neither ok nor failed")
    rows_per_key, pos = _read_column(data, pos, n_ok)
    if rows_per_key and min(rows_per_key) < 0:
        raise WireCodecError("negative row count for a batch key")
    rows, pos = _read_rows(data, pos, expected=sum(rows_per_key))
    out: dict[int, BatchKeyResult] = {}
    per_key = iter(rows_per_key)
    at = 0
    for profile_id, ok in zip(profile_ids, status):
        if ok:
            n_rows = next(per_key)
            out[profile_id] = _new_key_result(
                (profile_id, True, rows[at : at + n_rows], None, "")
            )
            at += n_rows
        else:
            error, pos = decode_value(data, pos, depth + 1)
            message, pos = decode_value(data, pos, depth + 1)
            out[profile_id] = BatchKeyResult(
                profile_id, False, None, error or None, message
            )
    if len(out) != n_keys:
        raise WireCodecError("batch block repeats a profile id")
    return out, pos


def _lone(values, what: str):
    if len(values) != 1:
        raise WireCodecError(f"a lone {what} block holds {len(values)} entries")
    return next(iter(values))


#: Deepest container nesting a decoded value may have.  The RPC surface
#: needs a few levels (a ``node_stats`` dict of dicts); a frame nesting
#: deeper is hostile, and would otherwise end in a ``RecursionError``.
MAX_NESTING = 32


def decode_value(data: bytes, pos: int, depth: int = 0) -> tuple[Any, int]:
    try:
        return _decode_value(data, pos, depth)
    except _errors.SerializationError as exc:
        # Varint primitives raise the storage-layer error; at this layer
        # a short varint is stream corruption like any other.
        raise WireCodecError(str(exc)) from exc


def _decode_value(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise WireCodecError("truncated value: missing type tag")
    if depth > MAX_NESTING:
        raise WireCodecError(f"value nested deeper than {MAX_NESTING} levels")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        encoded, pos = read_varint(data, pos)
        return zigzag_decode(encoded), pos
    if tag == _T_BIGUINT:
        value, pos = read_varint(data, pos)
        return value, pos
    if tag == _T_FLOAT:
        if pos + _FLOAT.size > len(data):
            raise WireCodecError("truncated float value")
        return _FLOAT.unpack_from(data, pos)[0], pos + _FLOAT.size
    if tag == _T_STR:
        length, pos = read_varint(data, pos)
        if pos + length > len(data):
            raise WireCodecError("truncated string value")
        try:
            return data[pos : pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise WireCodecError(f"string value is not UTF-8: {exc}") from None
    if tag == _T_BYTES:
        length, pos = read_varint(data, pos)
        if pos + length > len(data):
            raise WireCodecError("truncated bytes value")
        return bytes(data[pos : pos + length]), pos + length
    if tag in (_T_LIST, _T_TUPLE):
        length, pos = read_varint(data, pos)
        items = []
        for _ in range(length):
            item, pos = decode_value(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        length, pos = read_varint(data, pos)
        out: dict = {}
        for _ in range(length):
            key, pos = decode_value(data, pos, depth + 1)
            item, pos = decode_value(data, pos, depth + 1)
            out[key] = item
        return out, pos
    if tag == _T_TIMERANGE:
        if pos >= len(data):
            raise WireCodecError("truncated time range")
        kind_index = data[pos]
        pos += 1
        if kind_index >= len(_TIMERANGE_KINDS):
            raise WireCodecError(f"unknown time-range kind {kind_index}")
        span_ms, pos = decode_value(data, pos, depth + 1)
        start_ms, pos = decode_value(data, pos, depth + 1)
        end_ms, pos = decode_value(data, pos, depth + 1)
        return (
            TimeRange(
                _TIMERANGE_KINDS[kind_index],
                span_ms=span_ms,
                start_ms=start_ms,
                end_ms=end_ms,
            ),
            pos,
        )
    if tag == _T_SORTTYPE:
        if pos >= len(data):
            raise WireCodecError("truncated sort type")
        index = data[pos]
        if index >= len(_SORT_TYPES):
            raise WireCodecError(f"unknown sort type index {index}")
        return _SORT_TYPES[index], pos + 1
    if tag == _T_INT_COLUMN:
        length, pos = read_varint(data, pos)
        return _read_column(data, pos, length)
    if tag == _T_RESULT_ROWS:
        return _read_rows(data, pos)
    if tag == _T_BATCH_RESULTS:
        return _read_batch(data, pos, depth)
    if tag == _T_FEATURE_RESULT:
        rows, pos = _read_rows(data, pos)
        return _lone(rows, "feature result"), pos
    if tag == _T_BATCH_KEY_RESULT:
        results, pos = _read_batch(data, pos, depth)
        return _lone(results.values(), "batch key result"), pos
    if tag == _T_QUERY:
        if pos >= len(data):
            raise WireCodecError("truncated query")
        kind_index = data[pos]
        if kind_index >= len(QUERY_KINDS):
            raise WireCodecError(f"unknown query kind index {kind_index}")
        pos += 1
        values = []
        for _ in Query._fields[1:]:
            item, pos = decode_value(data, pos, depth + 1)
            values.append(item)
        if not isinstance(values[2], TimeRange):
            raise WireCodecError("a query's time range is not a TimeRange")
        return Query(QUERY_KINDS[kind_index], *values), pos
    if tag == _T_WRITE_DELTA:
        return _decode_write_delta(data, pos)
    raise WireCodecError(f"unknown value tag {tag}")


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------

_MSG_REQUEST = 1
_MSG_RESPONSE = 2


@dataclass(frozen=True)
class Request:
    """One method invocation travelling client → worker."""

    request_id: int
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """One answer travelling worker → client.

    ``server_ms`` is the worker-measured handler wall time, so the client
    can split its observed latency into network + server components (the
    Table II decomposition) and feed hedging decisions.  ``error_args``
    carries the structured constructor arguments for the rich exception
    types (see :data:`_RICH_ERRORS`) so e.g. a
    :class:`~repro.errors.ProfileNotFoundError` keeps its ``profile_id``
    across the hop.
    """

    request_id: int
    ok: bool
    value: Any = None
    error_type: str = ""
    error_message: str = ""
    error_args: tuple = ()
    server_ms: float = 0.0


def encode_request(request: Request) -> bytes:
    out = bytearray()
    out.append(_MSG_REQUEST)
    write_varint(out, request.request_id)
    encode_value(out, request.method)
    encode_value(out, tuple(request.args))
    encode_value(out, dict(request.kwargs))
    return encode_frame(bytes(out))


def encode_response(response: Response) -> bytes:
    out = bytearray()
    out.append(_MSG_RESPONSE)
    write_varint(out, response.request_id)
    out.append(1 if response.ok else 0)
    if response.ok:
        encode_value(out, response.value)
    else:
        encode_value(out, response.error_type)
        encode_value(out, response.error_message)
        encode_value(out, tuple(response.error_args))
    out.extend(_FLOAT.pack(response.server_ms))
    return encode_frame(bytes(out))


def decode_message(payload: bytes) -> Request | Response:
    """Decode one frame payload into a request or response."""
    try:
        return _decode_message(payload)
    except _errors.SerializationError as exc:
        raise WireCodecError(str(exc)) from exc


def _decode_message(payload: bytes) -> Request | Response:
    if not payload:
        raise WireCodecError("empty message payload")
    kind = payload[0]
    pos = 1
    if kind == _MSG_REQUEST:
        request_id, pos = read_varint(payload, pos)
        method, pos = decode_value(payload, pos)
        args, pos = decode_value(payload, pos)
        kwargs, pos = decode_value(payload, pos)
        if pos != len(payload):
            raise WireCodecError("trailing bytes after request")
        if not isinstance(method, str) or not isinstance(kwargs, dict):
            raise WireCodecError("malformed request envelope")
        return Request(request_id, method, tuple(args), kwargs)
    if kind == _MSG_RESPONSE:
        request_id, pos = read_varint(payload, pos)
        if pos >= len(payload):
            raise WireCodecError("truncated response")
        ok = bool(payload[pos])
        pos += 1
        value: Any = None
        error_type = ""
        error_message = ""
        error_args: tuple = ()
        if ok:
            value, pos = decode_value(payload, pos)
        else:
            error_type, pos = decode_value(payload, pos)
            error_message, pos = decode_value(payload, pos)
            error_args, pos = decode_value(payload, pos)
        if pos + _FLOAT.size != len(payload):
            raise WireCodecError("trailing bytes after response")
        server_ms = _FLOAT.unpack_from(payload, pos)[0]
        return Response(
            request_id,
            ok,
            value=value,
            error_type=error_type,
            error_message=error_message,
            error_args=tuple(error_args),
            server_ms=server_ms,
        )
    raise WireCodecError(f"unknown message kind {kind}")
