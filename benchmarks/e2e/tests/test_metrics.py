from e2e.metrics import quiet_p50, quiet_rate


def test_quiet_p50_is_the_lower_quartile_of_block_medians():
    # Four blocks of five samples with medians 1, 2, 3 and 10: a slow
    # stretch (the last block) does not move the result.
    samples = []
    for level in (1.0, 2.0, 3.0, 10.0):
        samples += [level - 0.1, level, level, level, level + 5.0]
    ranges = [(0, 5), (5, 10), (10, 15), (15, 20)]
    assert quiet_p50(samples, ranges) == 1.0
    assert quiet_p50(samples, ranges[1:]) == 2.0


def test_quiet_p50_skips_cut_off_blocks():
    samples = [5.0] * 5 + [1.0] * 2
    assert quiet_p50(samples, [(0, 5), (5, 7)]) == 5.0


def test_quiet_rate_is_the_upper_quartile_of_block_rates():
    blocks = [(100, 1.0), (200, 1.0), (300, 1.0), (50, 1.0)]
    assert quiet_rate(blocks) == 200.0
