"""A cached answer is its wire form: packed rows in, the same values out.

A node packs each key's result once, on the miss, into a
:class:`~repro.core.query.PackedRows` (a uint64 fid segment and two
int64 segments), caches that,
and a worker hands it to the wire as it is.  These tests pin down that
nothing a client or an in-process caller sees changes:

1. ``list(PackedRows.pack(rows)) == rows`` for any rows whose fids are
   uint64 and whose timestamps and counts are int64; nothing else packs;
2. a point or batch response built from packed entries decodes ``==`` to
   the same results encoded from materialised ``FeatureResult`` lists —
   empty results, ragged widths, failed keys, negative counts — and on a
   node, with duplicate and unknown keys;
3. the node caches packed entries, hands in-process callers fresh lists,
   and resolves a CURRENT or ABSOLUTE window once per request;
4. over real sockets, repeats are cache hits and an acked write plus a
   checkpoint brings the answer back in line with the in-process one.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import MILLIS_PER_DAY, SimulatedClock, SystemClock
from repro.config import TableConfig
from repro.core.query import (
    FeatureResult,
    PackedRows,
    Query,
    SortType,
    query_fingerprint,
)
from repro.core.timerange import TimeRange
from repro.net import wire
from repro.net.cluster import ProcessCluster
from repro.net.worker import build_durable_node
from repro.server import IPSNode
from repro.server.batch import BatchKeyResult
from repro.storage import InMemoryKVStore

INT64 = 1 << 63
UINT64 = 1 << 64
NOW_MS = 400 * MILLIS_PER_DAY

counts_st = st.lists(
    st.one_of(st.integers(-1000, 1000), st.integers(-INT64, INT64 - 1)),
    max_size=4,
).map(tuple)
rows_st = st.lists(
    st.builds(
        FeatureResult,
        fid=st.one_of(st.integers(0, 1 << 40), st.integers(INT64, UINT64 - 1)),
        counts=counts_st,
        last_timestamp_ms=st.one_of(
            st.integers(0, 1 << 45), st.integers(-INT64, INT64 - 1)
        ),
    ),
    max_size=6,
)
outcomes_st = st.dictionaries(
    st.integers(0, 1 << 32),
    st.one_of(
        st.tuples(st.just(True), rows_st, st.booleans()),
        st.tuples(st.just(False), st.text(min_size=1), st.text()),
    ),
    min_size=1,
    max_size=6,
)


def decoded_response(value):
    frame = wire.encode_response(wire.Response(1, True, value=value))
    return wire.decode_message(frame[wire.HEADER_SIZE:]).value


# ----------------------------------------------------------------------
# The packer
# ----------------------------------------------------------------------


class TestPackedRows:
    @given(rows_st)
    def test_unpacks_to_the_rows_it_was_packed_from(self, rows):
        packed = PackedRows.pack(rows)
        assert packed.n_rows == len(rows)
        assert list(packed) == rows
        assert all(type(row) is FeatureResult for row in packed)

    def test_int64_columns_go_out_raw(self):
        packed = PackedRows.pack(
            [FeatureResult(5, (1, -2), 7), FeatureResult(3, (3, 4), -8)]
        )
        out = bytearray()
        wire.encode_value(out, packed)
        # tag, n_rows, shape, then the fid column (code, base 0, raw
        # uint64) and the timestamp column (code, base 0, raw int64).
        assert out[3:5] == wire._RAW_HEADERS["Q"]
        assert out[5:21] == array("Q", [5, 3]).tobytes()
        assert out[21:23] == wire._RAW_HEADERS["q"]
        assert out[23:39] == array("q", [7, -8]).tobytes()

    def test_uint64_fids_go_out_raw(self):
        rows = [FeatureResult(0, (1,), 5), FeatureResult(UINT64 - 1, (2,), 6)]
        packed = PackedRows.pack(rows)
        assert type(packed.fids) is bytes and type(packed.counts) is bytes
        assert decoded_response({9: BatchKeyResult(9, True, packed)}) == {
            9: BatchKeyResult.success(9, rows)
        }
        out = bytearray()
        wire.encode_value(out, packed)
        assert out[3:5] == wire._RAW_HEADERS["Q"]
        assert decoded_response(packed) == rows

    def test_values_outside_their_columns_are_refused(self):
        for row in (
            FeatureResult(-1, (1,), 2),
            FeatureResult(UINT64, (1,), 2),
            FeatureResult(1, (1,), INT64),
            FeatureResult(1, (0.5, 2), 3),
        ):
            with pytest.raises((OverflowError, TypeError)):
                PackedRows.pack([row])


# ----------------------------------------------------------------------
# Packed and materialised responses decode alike
# ----------------------------------------------------------------------


def _results(outcomes, packed: bool) -> dict[int, BatchKeyResult]:
    out = {}
    for pid, (ok, first, second) in outcomes.items():
        if not ok:
            out[pid] = BatchKeyResult(pid, False, error=first, error_message=second)
        else:  # ``second``: this key is packed when the batch is
            value = PackedRows.pack(first) if packed and second else first
            out[pid] = BatchKeyResult(pid, True, value)
    return out


class TestPackedResponsesDecodeAlike:
    @given(outcomes_st)
    def test_batch(self, outcomes):
        expected = _results(outcomes, packed=False)
        assert decoded_response(_results(outcomes, packed=True)) == expected
        assert decoded_response(expected) == expected

    @given(rows_st)
    def test_point(self, rows):
        assert decoded_response(PackedRows.pack(rows)) == rows
        assert decoded_response(rows) == rows

    def test_every_proper_prefix_of_a_packed_answer_is_refused(self):
        rows = [FeatureResult(fid, (fid, -1, 2), 10 * fid) for fid in range(3)]
        value = {pid: BatchKeyResult(pid, True, PackedRows.pack(rows))
                 for pid in (4, 5)}
        frame = wire.encode_response(wire.Response(1, True, value=value))
        payload = frame[wire.HEADER_SIZE:]
        assert wire._RAW_HEADERS["q"] in payload  # raw columns are what is cut
        for cut in range(len(payload)):
            with pytest.raises(wire.WireCodecError):
                wire.decode_message(payload[:cut])

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_node_answers(self, writes):
        """A node's wire answer and its public answer decode the same,
        for duplicate and unknown keys, empty and negative counts."""
        node = _node()
        for pid, counts in enumerate(writes, start=1):
            node.add_profile(pid, NOW_MS - pid, 0, 1, 100 + pid, counts[:3])
            node.add_profile(pid, NOW_MS - 9, 0, 1, 7, [-1, 0, 2])
        node.merge_write_table()
        keys = list(range(1, len(writes) + 1)) + [1, 99]  # dup + unknown
        window = TimeRange.absolute(0, NOW_MS + 1)
        for _ in range(2):  # a miss, then a hit
            served = node.multi_get(keys, Query.topk(0, 1, window, k=3))
            public = node.multi_get_topk(keys, 0, 1, window, k=3)
            assert decoded_response(served) == decoded_response(public)
            assert decoded_response(served) == public
            point = node.multi_get([1], Query.topk(0, 1, window, k=3), "c")
            assert decoded_response(point)[1].value == node.get_profile_topk(
                1, 0, 1, window, k=3
            )
        assert public[99] == BatchKeyResult.success(99, [])


# ----------------------------------------------------------------------
# The node caches packed entries
# ----------------------------------------------------------------------


def _node() -> IPSNode:
    return IPSNode(
        "n", TableConfig(name="t", attributes=("like", "comment", "share")),
        InMemoryKVStore(), clock=SimulatedClock(start_ms=NOW_MS),
    )


def _loaded_node() -> IPSNode:
    node = _node()
    for pid in range(1, 7):
        for fid in range(4):
            node.add_profile(pid, NOW_MS - 1000 * fid, 0, 1, fid, [pid, fid, 1])
    node.merge_write_table()
    return node


def test_entries_are_packed_and_hits_are_fresh_lists():
    node = _loaded_node()
    window = TimeRange.absolute(0, NOW_MS + 1)
    first = node.get_profile_topk(1, 0, 1, window, k=3)
    first.append("scribble")
    again = node.get_profile_topk(1, 0, 1, window, k=3)
    assert node.node_stats()["result_cache_hits"] == 1
    assert again == first[:-1] and all(type(r) is FeatureResult for r in again)
    fingerprint = query_fingerprint(
        node.engine.config, "topk", 0, 1, window.resolve(NOW_MS, None),
        sort_type=SortType.TOTAL, k=3,
    )
    entry, _ = node.result_cache.probe(1, fingerprint)
    assert type(entry) is PackedRows and list(entry) == again


@pytest.mark.parametrize(
    "time_range, resolves",
    [
        (TimeRange.absolute(0, NOW_MS + 1), 1),
        (TimeRange.current(30 * MILLIS_PER_DAY), 1),
        (TimeRange.relative(MILLIS_PER_DAY), 6),  # one per live key
    ],
)
def test_window_resolved_once_unless_relative(monkeypatch, time_range, resolves):
    node = _loaded_node()
    keys = list(range(1, 7)) + [42]
    node.multi_get_topk(keys, 0, 1, time_range, k=3)  # fills the cache
    calls = []
    real = TimeRange.resolve
    monkeypatch.setattr(
        TimeRange, "resolve",
        lambda self, *args: calls.append(self.kind) or real(self, *args),
    )
    hits = node.node_stats()["result_cache_hits"]
    node.multi_get_topk(keys, 0, 1, time_range, k=3)
    assert node.node_stats()["result_cache_hits"] == hits + 6
    assert len(calls) == resolves


# ----------------------------------------------------------------------
# Over real sockets
# ----------------------------------------------------------------------


def test_process_cluster_serves_repeats_from_packed_entries(
    tmp_path, process_tracker
):
    now = int(SystemClock().now_ms())
    window = TimeRange.absolute(now - 60_000, now + 60_000)
    writes = [
        (pid, now - pid, 0, 1, [500 + pid % 7, 900 + pid], [(pid, 0, 1), (1, 2, 3)])
        for pid in range(1, 13)
    ]
    extra = (3, now, 0, 1, [500 + 3 % 7], [(5, 5, 5)])
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
        remote.checkpoint_now()  # merges the write table under its barrier
        first = remote.multi_get_topk(keys, 0, 1, window, k=10)
        point = remote.get_profile_topk(3, 0, 1, window, k=10)
        hits = remote.node_stats()["result_cache_hits"]
        assert remote.multi_get_topk(keys, 0, 1, window, k=10) == first
        assert remote.get_profile_topk(3, 0, 1, window, k=10) == point
        # Twelve resident keys, then the point read: all served packed.
        assert remote.node_stats()["result_cache_hits"] == hits + 13
        client.add_profiles(*extra)  # acked: WAL-committed on the worker
        remote.checkpoint_now()
        after = remote.multi_get_topk(keys, 0, 1, window, k=10)
        after_point = remote.get_profile_topk(3, 0, 1, window, k=10)
        region.close()
    node = build_durable_node(worker_id, tmp_path / "oracle")
    for write in writes + [extra]:
        node.add_profiles(*write)
    node.merge_write_table()
    assert after[3] != first[3]
    assert after == node.multi_get_topk(keys, 0, 1, window, k=10)
    assert after_point == node.engine.get_profile_topk(3, 0, 1, window, k=10)
