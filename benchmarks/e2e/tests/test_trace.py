import json

from e2e.trace import Span, Tracer, self_times_ms


def test_self_time_is_duration_minus_children():
    spans = [
        Span(0, "parent", 0.0, 0.010, None, 1),
        Span(1, "child", 0.001, 0.004, 0, 1),
        Span(2, "child", 0.005, 0.006, 0, 1),
        Span(3, "grandchild", 0.002, 0.003, 1, 1),
    ]
    selfs = self_times_ms(spans)
    assert round(selfs[0], 6) == 6.0
    assert round(selfs[1], 6) == 2.0
    assert round(selfs[2], 6) == 1.0
    assert round(selfs[3], 6) == 1.0


def test_overlapping_children_are_not_counted_twice():
    spans = [
        Span(0, "parent", 0.0, 0.010, None, None),
        Span(1, "a", 0.001, 0.006, 0, None),
        Span(2, "b", 0.004, 0.008, 0, None),
        Span(3, "late", 0.009, 0.012, 0, None),  # clipped to the parent
    ]
    assert round(self_times_ms(spans)[0], 6) == 2.0


def test_nested_spans_record_parent_and_request():
    tracer = Tracer()
    with tracer.span("outer", request=5) as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.span_id and inner.request == 5
    assert outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


class _Codec:
    @staticmethod
    def encode(value):
        return [value]

    def method(self):
        return "m"


def test_wrap_times_calls_and_restores_exactly():
    tracer = Tracer()
    raw = vars(_Codec)["encode"]
    restore = tracer.wrap(_Codec, "encode", "codec.encode")
    assert _Codec.encode(1) == [1] and _Codec().encode(2) == [2]
    restore()
    assert vars(_Codec)["encode"] is raw
    instance = _Codec()
    restore = tracer.wrap(instance, "method", "codec.method")
    assert instance.method() == "m"
    restore()
    assert "method" not in vars(instance)
    assert [s.name for s in tracer.spans] == ["codec.encode"] * 2 + ["codec.method"]


def test_write_jsonl(tmp_path):
    tracer = Tracer()
    with tracer.span("only", request=1):
        pass
    path = tmp_path / "out" / "trace.jsonl"
    tracer.write_jsonl(path)
    (line,) = path.read_text().splitlines()
    assert set(json.loads(line)) == {
        "span_id", "name", "start", "end", "parent", "request"
    }
