from e2e.compare import rows, worsening

SPEC = {"end_to_end": [
    {"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "read_keys_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "read_p99_ms", "unit": "ms", "better": "lower", "bound": 0.15},
]}


def _document(p50, rate, p99, failed=0):
    return {"results": [{
        "workload": "point_hot", "traced": False, "failed": failed,
        "metrics": {
            "read_p50_ms": {"value": p50, "unit": "ms", "n": 5000},
            "read_keys_per_s": {"value": rate, "unit": "1/s", "n": 5000},
            "read_p99_ms": {"value": p99, "unit": "ms", "n": 5000},
        },
    }]}


def _verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in rows(a, b, SPEC)}


def test_worsening_follows_the_metric_direction():
    assert worsening(1.0, 1.2, "lower") > 0
    assert worsening(1.0, 0.8, "lower") < 0
    assert worsening(100.0, 80.0, "higher") > 0


def test_within_bound_is_ok_and_beyond_is_a_breach():
    base = _document(1.0, 1000.0, 2.0)
    assert set(_verdicts(base, _document(1.09, 950.0, 2.2)).values()) == {"ok"}
    verdicts = _verdicts(base, _document(1.11, 880.0, 2.2))
    assert verdicts["read_p50_ms"] == "BREACH"
    assert verdicts["read_keys_per_s"] == "BREACH"
    assert verdicts["read_p99_ms"] == "ok"


def test_improvement_is_never_a_breach():
    base = _document(1.0, 1000.0, 2.0)
    assert set(_verdicts(base, _document(0.5, 2000.0, 1.0)).values()) == {"ok"}


def test_missing_sample_count_is_unresolved_not_ok():
    base = _document(1.0, 1000.0, 2.0)
    assert _verdicts(base, _document(1.0, 1000.0, None))["read_p99_ms"] == "unresolved"


def test_any_failed_operation_is_a_breach():
    base = _document(1.0, 1000.0, 2.0)
    assert _verdicts(base, _document(1.0, 1000.0, 2.0, failed=1))["failed"] == "BREACH"
