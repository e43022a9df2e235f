"""Column blocks on the wire: round-trip properties and hostile frames.

Read results cross the socket as frame-of-reference int columns (see the
:mod:`repro.net.wire` module docstring for the layout).  Three
guarantees, hypothesis-driven:

1. **Round trip** — any ``list[FeatureResult]``, ``dict[int,
   BatchKeyResult]`` or int key list decodes back ``==`` to what was
   encoded, including failed keys, empty row lists, ragged widths,
   uint64 pids and fids, and negative counts; a list of ints whose range
   passes 64 bits travels as a plain list.
2. **Hostile frames fail typed and small** — a CRC-valid payload whose
   block lies about its own shape (row counts, widths, typecodes,
   lengths past the bytes left, or is cut short anywhere) raises
   :class:`~repro.net.wire.WireCodecError`, and decoding it never
   allocates more than a small multiple of the payload.
3. **Over a real socket** a worker's multi-get answer equals the answer
   the same node gives in process.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SystemClock
from repro.core.query import QUERY_KINDS, FeatureResult, Query, SortType
from repro.core.timerange import TimeRange
from repro.net import wire
from repro.net.cluster import ProcessCluster
from repro.net.transport import respond
from repro.net.worker import build_durable_node
from repro.server.batch import BatchKeyResult
from repro.storage.serialization import (
    _MAX_COUNTS,
    write_varint,
    zigzag_encode,
)

INT64 = 1 << 63
UINT64 = 1 << 64

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

counts_st = st.lists(
    st.one_of(st.integers(-1000, 1000), st.integers(-INT64, INT64 - 1)),
    max_size=5,
).map(tuple)
feature_results = st.builds(
    FeatureResult,
    fid=st.one_of(st.integers(0, 1 << 40), st.integers(INT64, UINT64 - 1)),
    counts=counts_st,
    last_timestamp_ms=st.one_of(
        st.integers(0, 1 << 45), st.integers(-INT64, INT64 - 1)
    ),
)
row_lists = st.lists(feature_results, max_size=8)
profile_ids = st.one_of(st.integers(0, 1 << 32), st.integers(INT64, UINT64 - 1))
key_results = st.one_of(
    row_lists.map(lambda rows: (True, rows)),
    st.tuples(st.just(False), st.tuples(st.text(min_size=1), st.text())),
)


@st.composite
def batches(draw, min_size=1, max_size=6):
    outcomes = draw(
        st.dictionaries(profile_ids, key_results, min_size=min_size,
                        max_size=max_size)
    )
    return {
        pid: BatchKeyResult.success(pid, payload) if ok else BatchKeyResult(
            pid, False, error=payload[0], error_message=payload[1]
        )
        for pid, (ok, payload) in outcomes.items()
    }


def roundtrip(value):
    out = bytearray()
    wire.encode_value(out, value)
    decoded, pos = wire.decode_value(bytes(out), 0)
    assert pos == len(out)
    return decoded


def response_payload(value) -> bytes:
    frame = wire.encode_response(wire.Response(1, True, value=value))
    return frame[wire.HEADER_SIZE:]


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestRoundTrip:
    @given(row_lists)
    def test_result_rows(self, rows):
        decoded = roundtrip(rows)
        assert decoded == rows
        assert all(type(row) is FeatureResult for row in decoded)

    @given(batches())
    def test_batch_results(self, results):
        decoded = roundtrip(results)
        assert decoded == results
        assert list(decoded) == list(results)

    @given(st.lists(st.integers(-INT64, 1 << 70), min_size=1))
    def test_int_lists(self, values):
        assert roundtrip(values) == values

    @given(batches())
    def test_batch_response_message(self, results):
        response = wire.Response(5, True, value=results, server_ms=0.25)
        assert wire.decode_message(response_payload(results)).value == results
        assert wire.decode_message(
            wire.encode_response(response)[wire.HEADER_SIZE:]
        ) == response

    def test_uint64_fids_fit_and_wider_ranges_do_not(self):
        rows = [FeatureResult(0, (1,), 5), FeatureResult(UINT64 - 1, (2,), 6)]
        out = bytearray()
        wire.encode_value(out, rows)
        # tag, n_rows, shape, then the fid column's code byte.
        assert out[0] == wire._T_RESULT_ROWS
        assert out[3] == wire._COLUMN_TYPECODES.index("Q")
        assert roundtrip(rows) == rows
        wide = [-1, UINT64 - 1]  # a range of 2**64: no column holds it
        out = bytearray()
        wire.encode_value(out, wide)
        assert out[0] == wire._T_LIST
        assert roundtrip(wide) == wide
        with pytest.raises(wire.WireCodecError):
            roundtrip([FeatureResult(0, (1,), -1),
                       FeatureResult(1, (1,), UINT64 - 1)])

    def test_narrowest_typecode_is_chosen(self):
        for span, itemsize in ((255, 1), (256, 2), (1 << 16, 4), (1 << 40, 8)):
            out = bytearray()
            wire._write_column(out, [1000, 1000 + span])
            assert len(out) == 1 + 2 + 2 * itemsize  # code, zigzag(1000), body
            assert roundtrip([1000, 1000 + span]) == [1000, 1000 + span]

    def test_bools_and_mixed_lists_stay_generic(self):
        for value in ([True, False], [1, True], [1, "x"]):
            out = bytearray()
            wire.encode_value(out, value)
            assert out[0] == wire._T_LIST
            assert roundtrip(value) == value

    def test_dict_keyed_off_profile_id_stays_generic(self):
        value = {7: BatchKeyResult.success(8, [])}
        out = bytearray()
        wire.encode_value(out, value)
        assert out[0] == wire._T_DICT
        assert roundtrip(value) == value

    def test_non_integer_counts_fail_typed(self):
        with pytest.raises(wire.WireCodecError):
            roundtrip([FeatureResult(1, (0.5,), 2)])

    def test_width_past_the_cap_fails_at_encode(self):
        with pytest.raises(wire.WireCodecError):
            roundtrip([FeatureResult(1, (0,) * (_MAX_COUNTS + 1), 2)])


# ----------------------------------------------------------------------
# Hostile frames
# ----------------------------------------------------------------------

#: A decode may hold a few Python objects per payload byte, never more.
ALLOC_PER_BYTE = 64
ALLOC_SLACK = 64 * 1024


def _column(values, code: int | None = None) -> bytes:
    """One column as the codec writes it, optionally with a forged code."""
    out = bytearray()
    wire._write_column(out, values)
    if code is not None and out:
        out[0] = code
    return bytes(out)


def _batch_block(results, *, rows_per_key=None, bad_code_at=None, code=0):
    """A batch block assembled field by field, per the documented layout.

    ``rows_per_key`` overrides the real per-key row counts; ``bad_code_at``
    names the column whose typecode byte is replaced by ``code``.
    """
    pids = list(results)
    values = list(results.values())
    ok_rows = [r.value for r in values if r.ok]
    rows = [row for per_key in ok_rows for row in per_key]
    columns = {
        "pids": pids,
        "status": [1 if r.ok else 0 for r in values],
        "rows_per_key": rows_per_key
        if rows_per_key is not None else [len(v) for v in ok_rows],
    }
    out = bytearray([wire._T_BATCH_RESULTS])
    write_varint(out, len(pids))
    for name, column in columns.items():
        out += _column(column, code if bad_code_at == name else None)
    write_varint(out, len(rows))
    if rows:
        widths = [len(row.counts) for row in rows]
        write_varint(out, 0)  # ragged form: the widths column follows
        for name, column in (
            ("widths", widths),
            ("fids", [row.fid for row in rows]),
            ("ts", [row.last_timestamp_ms for row in rows]),
            ("counts", [c for row in rows for c in row.counts]),
        ):
            out += _column(column, code if bad_code_at == name else None)
    for r in values:
        if not r.ok:
            wire.encode_value(out, r.error)
            wire.encode_value(out, r.error_message)
    return bytes(out)


def _crc_checked(payload: bytes) -> bytes:
    """``payload`` as a reader gets it out of a CRC-valid frame."""
    frame = wire.encode_frame(payload)
    _, crc = wire.decode_frame_header(frame[: wire.HEADER_SIZE])
    return wire.check_frame_payload(frame[wire.HEADER_SIZE:], crc)


def _message(value_bytes: bytes) -> bytes:
    """A CRC-checked response payload around an already-encoded value."""
    out = bytearray([wire._MSG_RESPONSE])
    write_varint(out, 1)
    out.append(1)
    out += value_bytes
    out += wire._FLOAT.pack(0.0)
    return _crc_checked(bytes(out))


def assert_rejected_small(payload: bytes) -> None:
    """Decoding fails typed; the peak traced allocation stays linear in size."""
    if not tracemalloc.is_tracing():
        tracemalloc.start()
        try:
            return assert_rejected_small(payload)
        finally:
            tracemalloc.stop()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    with pytest.raises(wire.WireCodecError):
        wire.decode_message(payload)
    peak = tracemalloc.get_traced_memory()[1] - baseline
    assert peak <= ALLOC_PER_BYTE * len(payload) + ALLOC_SLACK, (
        f"decoding {len(payload)} hostile bytes peaked at {peak} bytes"
    )


def _with_ok_rows(results) -> bool:
    return any(r.ok and r.value for r in results.values())


class TestHostileFrames:
    def test_hand_built_block_matches_the_encoder(self):
        results = {
            5: BatchKeyResult.success(5, [FeatureResult(1, (2, 3), 4)]),
            6: BatchKeyResult(6, False, error="E", error_message="m"),
        }
        decoded = wire.decode_message(_message(_batch_block(results)))
        assert decoded.value == results

    @given(batches().filter(_with_ok_rows), st.integers(1, 1 << 20),
           st.booleans(), st.data())
    @settings(max_examples=60)
    def test_rows_per_key_not_summing_to_the_row_count(
        self, results, delta, past, data
    ):
        per_key = [len(r.value) for r in results.values() if r.ok]
        index = data.draw(st.sampled_from(
            [i for i, n in enumerate(per_key) if n]
        ))
        per_key[index] += delta if past else -min(delta, per_key[index])
        assert_rejected_small(_message(_batch_block(results, rows_per_key=per_key)))

    @given(st.integers(_MAX_COUNTS + 1, 2 * _MAX_COUNTS), st.integers(1, 4),
           st.booleans())
    @settings(max_examples=30)
    def test_width_past_the_cap(self, width, n_rows, ragged):
        # Every column is present and well formed: only the cap rejects it.
        widths = [width] + [1] * (n_rows - 1)
        out = bytearray([wire._T_RESULT_ROWS])
        write_varint(out, n_rows)
        if ragged:
            write_varint(out, 0)
            out += _column(widths)
        else:
            write_varint(out, width + 1)
            widths = [width] * n_rows
        out += _column(list(range(n_rows))) * 2
        out += _column([7] * sum(widths))
        assert_rejected_small(_message(bytes(out)))

    @given(batches().filter(_with_ok_rows),
           st.sampled_from(["pids", "status", "rows_per_key", "widths",
                            "fids", "ts", "counts"]),
           st.integers(len(wire._COLUMN_TYPECODES), 255))
    @settings(max_examples=60)
    def test_unknown_typecode_index(self, results, column, code):
        rows = [row for r in results.values() if r.ok for row in r.value]
        if column == "counts" and not any(row.counts for row in rows):
            column = "fids"  # an all-empty counts column has no code byte
        block = _batch_block(results, bad_code_at=column, code=code)
        assert_rejected_small(_message(block))

    @given(st.sampled_from(["rows", "keys", "ints"]),
           st.integers(1, 1 << 60), st.binary(max_size=64))
    @settings(max_examples=60)
    def test_count_larger_than_the_bytes_left(self, kind, extra, tail):
        tag = {"rows": wire._T_RESULT_ROWS, "keys": wire._T_BATCH_RESULTS,
               "ints": wire._T_INT_COLUMN}[kind]
        out = bytearray([tag])
        write_varint(out, len(tail) + 8 + extra)  # 8: the server_ms trailer
        out += tail
        assert_rejected_small(_message(bytes(out)))

    @given(st.one_of(batches(max_size=4), st.lists(feature_results, max_size=5),
                     st.lists(profile_ids, min_size=1, max_size=8)))
    # No deadline: every prefix is decoded under tracemalloc, so one
    # example's run time grows with its payload, and a long one has
    # overrun hypothesis's default 200 ms as a FlakyFailure.
    @settings(max_examples=40, deadline=None)
    def test_every_proper_prefix(self, value):
        payload = response_payload(value)
        tracemalloc.start()
        try:
            for cut in range(len(payload)):
                assert_rejected_small(_crc_checked(payload[:cut]))
        finally:
            tracemalloc.stop()

    def test_negative_width_and_status_out_of_range(self):
        out = bytearray([wire._T_RESULT_ROWS])
        write_varint(out, 2)
        write_varint(out, 0)
        out += _column([-1, 3]) + _column([1, 2]) * 2 + _column([0, 0])
        assert_rejected_small(_message(bytes(out)))
        out = bytearray([wire._T_BATCH_RESULTS])
        write_varint(out, 1)
        out += _column([9]) + _column([2])
        write_varint(out, 0)
        assert_rejected_small(_message(bytes(out)))

    def test_failed_key_error_name_that_is_not_utf8(self):
        out = bytearray([wire._T_BATCH_RESULTS])
        write_varint(out, 1)
        out += _column([9]) + _column([0])  # one failed key, so no rows
        write_varint(out, 0)
        out += bytes([wire._T_STR, 2, 0xFF, 0xFE, wire._T_STR, 0])
        assert_rejected_small(_message(bytes(out)))

    def test_repeated_profile_id(self):
        out = bytearray([wire._T_BATCH_RESULTS])
        write_varint(out, 2)
        out += _column([9, 9]) + _column([1, 1]) + _column([0, 0])
        write_varint(out, 0)
        assert_rejected_small(_message(bytes(out)))

    QUERY = Query.decay(3, 1, TimeRange.absolute(10, 20), "linear", 2.5, 4)

    @staticmethod
    def _query_value(query) -> bytearray:
        out = bytearray()
        wire.encode_value(out, query)
        return out

    def test_every_proper_prefix_of_a_query_request(self):
        payload = wire.encode_request(
            wire.Request(1, "multi_get", ([1, 2], self.QUERY), {"caller": "c"})
        )[wire.HEADER_SIZE:]
        tracemalloc.start()
        try:
            for cut in range(len(payload)):
                assert_rejected_small(_crc_checked(payload[:cut]))
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("tag,count", [
        ("kind", len(QUERY_KINDS)), ("sort", len(SortType)), ("range", 3),
    ])
    @pytest.mark.parametrize("index", [0, 1, 200])
    def test_out_of_range_index_in_a_query(self, tag, count, index):
        query = self.QUERY if tag != "sort" else Query.topk(
            3, 1, TimeRange.absolute(10, 20), SortType.TIMESTAMP
        )
        out = self._query_value(query)
        at = 1  # the kind: right after the query tag
        if tag != "kind":
            value_tag = wire._T_SORTTYPE if tag == "sort" else wire._T_TIMERANGE
            at = out.index(bytes([value_tag])) + 1
        out[at] = count + index
        assert_rejected_small(_message(bytes(out)))

    def test_a_query_whose_window_is_not_a_time_range(self):
        out = self._query_value(self.QUERY)
        start = out.index(bytes([wire._T_TIMERANGE]))
        end = start + 2 + 3 * 2  # kind byte, then three small ints
        out[start:end] = bytes([wire._T_NONE])
        assert_rejected_small(_message(bytes(out)))

    @pytest.mark.parametrize("tag", [
        wire._T_LIST, wire._T_DICT, wire._T_STR, wire._T_BYTES,
    ])
    @pytest.mark.parametrize("declared", [9, 1 << 20, 1 << 62])
    def test_declared_length_far_past_a_short_body(self, tag, declared):
        out = bytearray([tag])
        write_varint(out, declared)
        out += bytes(4)  # four _T_NONE items, or four bytes of text
        assert_rejected_small(_message(bytes(out)))

    @pytest.mark.parametrize("tag", [wire._T_INT, wire._T_STR, wire._T_LIST])
    @pytest.mark.parametrize("run", [11, 64])
    def test_varint_run_longer_than_ten_bytes(self, tag, run):
        out = bytearray([tag]) + b"\xff" * run + b"\x01"
        assert_rejected_small(_message(bytes(out)))

    #: 20 000 one-item lists: a 40 KB value far deeper than Python recurses.
    NESTED = bytes([wire._T_LIST, 1]) * 20_000 + bytes([wire._T_NONE])

    def test_nesting_past_the_cap_in_a_request(self):
        out = bytearray([wire._MSG_REQUEST])
        write_varint(out, 1)
        wire.encode_value(out, "get_profile_topk")
        out += self.NESTED  # the args
        wire.encode_value(out, {})
        payload = _crc_checked(bytes(out))
        assert_rejected_small(payload)
        response = respond(payload, lambda method, args, kwargs: None)
        assert not response.ok and response.error_type == "WireCodecError"

    def test_nesting_past_the_cap_in_a_response(self):
        assert_rejected_small(_message(self.NESTED))

    def test_nesting_up_to_the_cap_decodes(self):
        value = None
        for _ in range(wire.MAX_NESTING):
            value = [value]
        assert roundtrip(value) == value
        assert_rejected_small(_message(bytes([wire._T_LIST, 1]) * (
            wire.MAX_NESTING + 1) + bytes([wire._T_NONE])))


def test_zigzag_minimum_is_written_once_per_column():
    out = bytearray()
    wire._write_column(out, [-5, -3])
    expected = bytearray([0])
    write_varint(expected, zigzag_encode(-5))
    expected += bytes([0, 2])
    assert out == expected


# ----------------------------------------------------------------------
# Over a real socket
# ----------------------------------------------------------------------


def test_process_cluster_multi_get_matches_in_process_node(
    tmp_path, process_tracker
):
    """One worker's multi-get over TCP equals the same writes read in process."""
    now = int(SystemClock().now_ms())
    window = TimeRange.absolute(now - 60_000, now + 60_000)
    writes = [
        (pid, now - pid, 0, 1, [500 + pid % 7, 900 + pid], [(pid, 0, 1), (1, 2, 3)])
        for pid in range(1, 13)
    ]
    keys = [pid for pid, *_ in writes] + [(1 << 63) + 5, 3]  # unknown + dup
    with ProcessCluster(
        1, tmp_path / "cluster", worker_env={"IPS_KERNEL_DISABLE_NUMPY": "1"}
    ) as cluster:
        process_tracker.add(cluster)
        (worker_id,) = cluster.wait_for_members(1)
        client = cluster.client()
        for write in writes:
            client.add_profiles(*write)
        region = cluster.region()
        remote = region.nodes[worker_id]
        deadline = time.monotonic() + 10.0
        while True:  # the worker merges its write table on its own cadence
            served = remote.multi_get_topk(keys, 0, 1, window, k=10)
            if all(served[pid].value for pid, *_ in writes):
                break
            assert time.monotonic() < deadline, "writes never became readable"
            time.sleep(0.05)
        region.close()
    node = build_durable_node(worker_id, tmp_path / "oracle")
    for write in writes:
        node.add_profiles(*write)
    node.merge_write_table()
    expected = node.multi_get_topk(keys, 0, 1, window, k=10)
    assert served == expected
    assert served[(1 << 63) + 5] == BatchKeyResult.success((1 << 63) + 5, [])
