from itertools import islice

from e2e.dataset import FULL, SMOKE, Dataset, read_stream, stream_digest, write_stream


def test_same_seed_same_request_stream():
    assert stream_digest(7, SMOKE) == stream_digest(7, SMOKE)
    assert stream_digest(7, FULL) == stream_digest(7, FULL)


def test_different_seed_different_request_stream():
    assert stream_digest(7, SMOKE) != stream_digest(8, SMOKE)


def test_mixed_rw_reads_and_writes_share_no_profile():
    dataset = Dataset(3, SMOKE, anchor_ms=10**12)
    read = {k for keys in islice(read_stream("mixed_rw", dataset), 200) for k in keys}
    written = {w.profile_id for w in islice(write_stream(dataset, 0), 200)}
    assert read and written and not read & written


def test_point_cold_pass_reads_every_profile_once():
    dataset = Dataset(3, SMOKE, anchor_ms=10**12)
    order = next(read_stream("point_cold", dataset))
    assert sorted(order) == dataset.profile_ids


def test_wide_request_has_distinct_keys():
    dataset = Dataset(3, FULL, anchor_ms=10**12)
    keys = next(read_stream("rank_wide_hot", dataset))
    assert len(keys) == len(set(keys)) == 64
