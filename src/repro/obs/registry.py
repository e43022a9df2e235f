"""Process-wide metrics registry: counters, gauges, latency histograms.

Production IPS is observed through fleet dashboards built from per-node
counters and latency percentiles (Figs. 16-19, Table II).  This module is
the single telemetry surface behind those rollups:

* :class:`Counter` / :class:`Gauge` — monotonic and instantaneous values;
* :class:`Histogram` — the **one** histogram implementation in the
  codebase: fixed-size log-bucketed, O(buckets) memory regardless of
  sample count, with p50/p95/p99 quantile estimates.  The simulator
  (``sim.driver``), ``RPCStats`` and ``BatchQueryMetrics`` build on it.
  Histograms optionally carry **exemplars**: ``record(value,
  trace_id=...)`` remembers the most recent ``(trace_id, value)`` per
  bucket (memory stays O(buckets)), so a slow exposition bucket links
  to one concrete trace retained by the tail sampler
  (:mod:`repro.obs.tail`);
* :class:`MetricsRegistry` — named, labelled metric families with a
  Prometheus-style text exposition (:meth:`MetricsRegistry.render_text`)
  and a JSON export (:meth:`MetricsRegistry.to_json`).  Label values are
  escaped per the Prometheus line format, ``# HELP`` / ``# TYPE`` are
  emitted exactly once per family, and bucket lines carry OpenMetrics
  ``# {trace_id="..."} value`` exemplar suffixes when present.

Metric objects are handed out once and then mutated lock-free on the hot
path; only family creation takes the registry lock.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable

#: Canonical cumulative bucket edges (ms) used by the text exposition so a
#: scrape line-count stays small even though internal buckets are fine.
EXPOSITION_EDGES = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0,
)

#: Quantiles every histogram family reports in expositions and JSON.
EXPOSITION_QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """Log-bucketed histogram for high-volume quantile tracking.

    Buckets grow geometrically from ``min_ms`` so quantile error stays
    below the growth factor anywhere in the range; memory is O(buckets)
    regardless of sample count, which lets simulation steps record millions
    of request latencies.  Values need not be latencies — with
    ``min_ms=1, growth=2`` the buckets are exact powers of two, which is
    how batch-size and fan-out distributions are tracked.
    """

    def __init__(
        self,
        min_ms: float = 0.01,
        max_ms: float = 60_000.0,
        growth: float = 1.05,
    ) -> None:
        if not 0 < min_ms < max_ms:
            raise ValueError("need 0 < min_ms < max_ms")
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self._min_ms = min_ms
        self._log_growth = math.log(growth)
        self._num_buckets = (
            int(math.log(max_ms / min_ms) / self._log_growth) + 2
        )
        self._counts = [0] * self._num_buckets
        self._total = 0
        self._sum_ms = 0.0
        self._max_seen = 0.0
        #: bucket index -> (trace_id, value): latest exemplar per bucket.
        #: Lazily allocated so exemplar-free histograms pay nothing; bounded
        #: by the bucket count, never by the sample count.
        self._exemplars: dict[int, tuple[str, float]] | None = None

    def record(self, latency_ms: float, trace_id: str | None = None) -> None:
        if latency_ms < 0:
            raise ValueError(f"negative latency {latency_ms}")
        index = self._bucket_index(latency_ms)
        self._counts[index] += 1
        self._total += 1
        self._sum_ms += latency_ms
        if latency_ms > self._max_seen:
            self._max_seen = latency_ms
        if trace_id is not None:
            if self._exemplars is None:
                self._exemplars = {}
            self._exemplars[index] = (trace_id, latency_ms)

    #: Prometheus-style alias so instrumentation code reads idiomatically.
    observe = record

    def record_many(self, latencies_ms: Iterable[float]) -> None:
        for latency in latencies_ms:
            self.record(latency)

    def _bucket_index(self, latency_ms: float) -> int:
        if latency_ms <= self._min_ms:
            return 0
        index = int(math.log(latency_ms / self._min_ms) / self._log_growth) + 1
        return min(index, self._num_buckets - 1)

    def _bucket_upper_ms(self, index: int) -> float:
        if index == 0:
            return self._min_ms
        return self._min_ms * math.exp(index * self._log_growth)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (upper bucket edge)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self._total == 0:
            raise ValueError("histogram is empty")
        target = q * self._total
        running = 0
        for index, count in enumerate(self._counts):
            running += count
            if running >= target:
                return min(self._bucket_upper_ms(index), self._max_seen)
        return self._max_seen

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100] (same scale as
        :func:`repro.sim.metrics.percentile`)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        return self.quantile(q / 100.0)

    def count_le(self, value_ms: float) -> int:
        """Samples at or below ``value_ms`` (cumulative exposition count).

        Resolution is one bucket: a bucket straddling ``value_ms`` counts
        fully once its upper edge is within the log-growth factor.
        """
        running = 0
        for index, count in enumerate(self._counts):
            if count and self._bucket_upper_ms(index) > value_ms:
                break
            running += count
        return running

    # -- exemplars ------------------------------------------------------

    def exemplars(self) -> list[tuple[float, str, float]]:
        """(bucket_upper_ms, trace_id, value) per populated exemplar slot,
        in bucket order.  Bounded by the bucket count."""
        if not self._exemplars:
            return []
        return [
            (self._bucket_upper_ms(index), trace_id, value)
            for index, (trace_id, value) in sorted(self._exemplars.items())
        ]

    def exemplar_count(self) -> int:
        """Number of exemplar slots in use (the bounded-memory measure)."""
        return len(self._exemplars) if self._exemplars else 0

    def max_exemplar(self) -> tuple[str, float] | None:
        """The exemplar from the highest populated bucket — the concrete
        trace behind the histogram's tail."""
        if not self._exemplars:
            return None
        return self._exemplars[max(self._exemplars)]

    def exemplar_in_range(
        self, low_ms: float, high_ms: float
    ) -> tuple[str, float] | None:
        """Newest exemplar whose value falls in ``(low_ms, high_ms]``
        (the OpenMetrics rule for attaching exemplars to a cumulative
        bucket line)."""
        if not self._exemplars:
            return None
        best: tuple[str, float] | None = None
        for index in sorted(self._exemplars):
            trace_id, value = self._exemplars[index]
            if low_ms < value <= high_ms:
                best = (trace_id, value)
        return best

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """(upper_edge_ms, count) for every populated bucket, in order."""
        return [
            (self._bucket_upper_ms(index), count)
            for index, count in enumerate(self._counts)
            if count
        ]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def count(self) -> int:
        return self._total

    @property
    def sum(self) -> float:
        """Exact sum of recorded values (not bucket-approximated)."""
        return self._sum_ms

    @property
    def mean(self) -> float:
        if self._total == 0:
            raise ValueError("histogram is empty")
        return self._sum_ms / self._total

    @property
    def max(self) -> float:
        return self._max_seen

    def merge(self, other: "Histogram") -> None:
        if len(other._counts) != len(self._counts):
            raise ValueError("histograms have incompatible bucket layouts")
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self._total += other._total
        self._sum_ms += other._sum_ms
        self._max_seen = max(self._max_seen, other._max_seen)
        if other._exemplars:
            if self._exemplars is None:
                self._exemplars = {}
            self._exemplars.update(other._exemplars)

    def summary(self) -> dict[str, float]:
        """Quantile summary used by the JSON export and the dashboard."""
        if self._total == 0:
            return {"count": 0.0, "sum": 0.0}
        return {
            "count": float(self._total),
            "sum": self._sum_ms,
            "mean": self.mean,
            "max": self._max_seen,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Instantaneous value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


#: label-set key: sorted (name, value) pairs.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Prometheus line-format escaping: backslash, double quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value` (for exposition parsers)."""
    out: list[str] = []
    it = iter(value)
    for char in it:
        if char != "\\":
            out.append(char)
            continue
        escaped = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(escaped, "\\" + escaped))
    return "".join(out)


def _render_labels(pairs: Iterable[tuple[str, str]]) -> str:
    body = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in pairs
    )
    return f"{{{body}}}" if body else ""


class _Family:
    """All metrics sharing one name (one per label-set)."""

    __slots__ = ("name", "kind", "metrics", "help")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.help: str | None = None
        self.metrics: dict[_LabelKey, Counter | Gauge | Histogram] = {}


def _exemplar_suffix(metric: Histogram, low_ms: float, high_ms: float) -> str:
    """OpenMetrics exemplar suffix for one cumulative bucket line."""
    exemplar = metric.exemplar_in_range(low_ms, high_ms)
    if exemplar is None:
        return ""
    trace_id, value = exemplar
    return f' # {{trace_id="{escape_label_value(trace_id)}"}} {value:g}'


class MetricsRegistry:
    """Named, labelled metric families with text and JSON expositions.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the metric kind for that name, later calls return the same
    object for the same label set.  Hot paths should hold onto the returned
    object rather than re-looking it up per request.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _get_or_create(self, name: str, kind: str, factory, labels: dict):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            metric = family.metrics.get(key)
            if metric is None:
                metric = factory()
                family.metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(name, "gauge", Gauge, labels)

    def histogram(
        self,
        name: str,
        min_ms: float = 0.01,
        max_ms: float = 60_000.0,
        growth: float = 1.05,
        **labels: str,
    ) -> Histogram:
        factory = lambda: Histogram(min_ms=min_ms, max_ms=max_ms, growth=growth)
        return self._get_or_create(name, "histogram", factory, labels)

    def describe(self, name: str, help_text: str) -> None:
        """Attach ``# HELP`` text to a family (created lazily if needed is
        not supported — describe after the first metric registration)."""
        family = self._families.get(name)
        if family is None:
            raise ValueError(f"unknown metric family {name!r}")
        family.help = help_text

    def get(self, name: str, **labels: str):
        """Existing metric or None (no creation; for tests and tooling)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.metrics.get(_label_key(labels))

    def families(self) -> list[tuple[str, str]]:
        """(name, kind) for every registered family, sorted by name."""
        return sorted(
            (family.name, family.kind) for family in self._families.values()
        )

    def histograms(
        self, name: str
    ) -> list[tuple[Histogram, dict[str, str]]]:
        """Every histogram of a family with its labels, label-key-sorted.

        For tests and tooling (e.g. resolving a family's exemplars);
        returns ``[]`` for unknown or non-histogram families.
        """
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return []
        return [
            (metric, dict(key))
            for key, metric in sorted(family.metrics.items())
        ]

    # ------------------------------------------------------------------
    # Expositions
    # ------------------------------------------------------------------

    def render_text(self) -> str:
        """Prometheus-style text exposition.

        Histograms emit cumulative ``_bucket`` lines at the canonical
        :data:`EXPOSITION_EDGES`, exact ``_sum`` / ``_count``, and summary
        ``{quantile="..."}`` lines so a scrape carries p50/p95/p99 without
        the consumer re-deriving them from buckets.  A bucket whose value
        range holds an exemplar carries it as an OpenMetrics suffix
        (``... 17 # {trace_id="t-00000003"} 41.2``); ``# HELP`` (when
        described) and ``# TYPE`` appear exactly once per family, and
        label values are escaped per the line format.
        """
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help is not None:
                help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.metrics):
                metric = family.metrics[key]
                if isinstance(metric, (Counter, Gauge)):
                    lines.append(
                        f"{name}{_render_labels(key)} {metric.value:g}"
                    )
                    continue
                previous_edge = 0.0
                for edge in EXPOSITION_EDGES:
                    cumulative = metric.count_le(edge)
                    pairs = key + (("le", f"{edge:g}"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(pairs)} {cumulative}"
                        f"{_exemplar_suffix(metric, previous_edge, edge)}"
                    )
                    previous_edge = edge
                pairs = key + (("le", "+Inf"),)
                lines.append(
                    f"{name}_bucket{_render_labels(pairs)} {metric.count}"
                    f"{_exemplar_suffix(metric, previous_edge, math.inf)}"
                )
                lines.append(f"{name}_sum{_render_labels(key)} {metric.sum:g}")
                lines.append(f"{name}_count{_render_labels(key)} {metric.count}")
                if metric.count:
                    for q in EXPOSITION_QUANTILES:
                        pairs = key + (("quantile", f"{q:g}"),)
                        lines.append(
                            f"{name}{_render_labels(pairs)} "
                            f"{metric.quantile(q):g}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: int | None = None) -> str:
        """JSON export: one entry per (family, label-set)."""
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            entries = []
            for key in sorted(family.metrics):
                metric = family.metrics[key]
                labels = dict(key)
                if isinstance(metric, (Counter, Gauge)):
                    entries.append({"labels": labels, "value": metric.value})
                else:
                    entry = {"labels": labels, **metric.summary()}
                    exemplars = metric.exemplars()
                    if exemplars:
                        entry["exemplars"] = [
                            {"le": upper, "trace_id": trace_id, "value": value}
                            for upper, trace_id, value in exemplars
                        ]
                    entries.append(entry)
            out[name] = {"type": family.kind, "metrics": entries}
        return json.dumps(out, indent=indent, sort_keys=True)
