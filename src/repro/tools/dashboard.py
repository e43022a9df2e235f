"""One-screen ASCII observability dashboard (``python -m repro.tools.dashboard``).

Renders the process-wide :class:`~repro.obs.registry.MetricsRegistry`
(latency percentiles per family, counters, gauges) together with
:class:`~repro.monitoring.ClusterMonitor` rollups and QPS / hit-ratio
charts, using the same chart renderer as the figure regeneration tool.

Three modes:

* **demo** (default) — build a small traced cluster, drive a mixed
  read/write workload through it, and render the resulting dashboard.
  This is also the exposition round-trip check: the registry is rendered
  to Prometheus text, parsed back with :func:`parse_exposition`, and the
  dashboard is built from the *parsed* form.
* ``--from-file FILE`` — render a dashboard from a saved text exposition
  (``-`` reads stdin).
* ``--json`` — emit the registry's JSON export instead of the ASCII view.
"""

from __future__ import annotations

import argparse
import re
import sys

from ..monitoring import ClusterMonitor
from ..sim.ascii_chart import Series, render_chart

#: ``name{label="value",...} value [# {trace_id="..."} v]`` — the shape of
#: every sample line the registry's text exposition emits.  Label values
#: are quoted strings with ``\\``-escapes (so they may contain escaped
#: quotes), and histogram bucket lines may carry an OpenMetrics-style
#: exemplar suffix.
_QUOTED = r'"(?:[^"\\\n]|\\.)*"'
_LABEL_BODY = rf"(?:[A-Za-z_][A-Za-z0-9_]*={_QUOTED},?)*"
_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    rf"(?:\{{(?P<labels>{_LABEL_BODY})\}})?\s+(?P<value>\S+)"
    rf"(?:\s+#\s+\{{(?P<ex_labels>{_LABEL_BODY})\}}\s+(?P<ex_value>\S+))?$"
)
_LABEL_RE = re.compile(
    rf'(?P<key>[A-Za-z_][A-Za-z0-9_]*)="(?P<value>(?:[^"\\\n]|\\.)*)"'
)


def _parse_labels(body: str | None) -> dict[str, str]:
    from ..obs.registry import unescape_label_value

    if not body:
        return {}
    return {
        m.group("key"): unescape_label_value(m.group("value"))
        for m in _LABEL_RE.finditer(body)
    }


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse a Prometheus-style exposition back into metric families.

    Returns ``{name: {"type": kind, "metrics": [entry, ...]}}`` where a
    counter/gauge entry is ``{"labels", "value"}`` and a histogram entry is
    ``{"labels", "count", "sum", "buckets": [(le, cumulative), ...],
    "p50", "p95", "p99"}`` (quantiles read from the ``quantile=`` summary
    lines the registry emits, not re-derived from buckets).  Bucket lines
    carrying exemplar suffixes add ``"exemplars": [{"le", "trace_id",
    "value"}, ...]``; ``# HELP`` text lands under the family's ``"help"``.
    """
    kinds: dict[str, str] = {}
    helps: dict[str, str] = {}
    # (family, label-key) -> accumulating entry
    entries: dict[tuple[str, tuple], dict] = {}

    def entry_for(family: str, labels: dict[str, str]) -> dict:
        key = (family, _labels_key(labels))
        if key not in entries:
            entries[key] = {"labels": labels}
        return entries[key]

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[2] in kinds:
                    raise ValueError(f"duplicate # TYPE for {parts[2]}")
                kinds[parts[2]] = parts[3]
            elif len(parts) >= 3 and parts[1] == "HELP":
                if parts[2] in helps:
                    raise ValueError(f"duplicate # HELP for {parts[2]}")
                helps[parts[2]] = line.split(None, 3)[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = float(match.group("value"))
        for suffix in ("_bucket", "_sum", "_count"):
            family = name[: -len(suffix)] if name.endswith(suffix) else None
            if family is not None and kinds.get(family) == "histogram":
                break
        else:
            family = None
        if family is not None:
            if name.endswith("_bucket"):
                le = labels.pop("le", "+Inf")
                entry = entry_for(family, labels)
                entry.setdefault("buckets", []).append((le, int(value)))
                if match.group("ex_labels") is not None:
                    exemplar_labels = _parse_labels(match.group("ex_labels"))
                    entry.setdefault("exemplars", []).append({
                        "le": le,
                        "trace_id": exemplar_labels.get("trace_id", ""),
                        "value": float(match.group("ex_value")),
                    })
            elif name.endswith("_sum"):
                entry_for(family, labels)["sum"] = value
            else:
                entry_for(family, labels)["count"] = int(value)
            continue
        if kinds.get(name) == "histogram":
            # Summary quantile line: name{...,quantile="0.5"} v
            quantile = labels.pop("quantile", None)
            entry = entry_for(name, labels)
            if quantile is not None:
                entry[f"p{float(quantile) * 100:g}"] = value
            continue
        entry_for(name, labels)["value"] = value

    out: dict[str, dict] = {}
    for (family, _), entry in entries.items():
        bucket = out.setdefault(
            family, {"type": kinds.get(family, "untyped"), "metrics": []}
        )
        if family in helps:
            bucket["help"] = helps[family]
        bucket["metrics"].append(entry)
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{{{body}}}"


def render_dashboard(
    families: dict[str, dict],
    monitor: ClusterMonitor | None = None,
    width: int = 60,
) -> str:
    """The one-screen ASCII dashboard.

    ``families`` is :func:`parse_exposition` output (or the equivalent
    built from a live registry via its text exposition).
    """
    lines: list[str] = ["=== IPS observability dashboard ==="]

    histograms = [
        (name, entry)
        for name, family in sorted(families.items())
        if family["type"] == "histogram"
        for entry in family["metrics"]
        if entry.get("count")
    ]
    if histograms:
        lines.append("")
        lines.append("-- latency / distributions --")
        header = f"{'metric':<44} {'count':>8} {'p50':>9} {'p95':>9} {'p99':>9}"
        lines.append(header)
        for name, entry in histograms:
            label = f"{name}{_fmt_labels(entry['labels'])}"
            lines.append(
                f"{label:<44} {entry.get('count', 0):>8} "
                f"{entry.get('p50', 0.0):>9.3f} "
                f"{entry.get('p95', 0.0):>9.3f} "
                f"{entry.get('p99', 0.0):>9.3f}"
            )

    scalars = [
        (name, family["type"], entry)
        for name, family in sorted(families.items())
        if family["type"] in ("counter", "gauge")
        for entry in family["metrics"]
    ]
    # Chaos injections and resilience counters get their own section so a
    # fault-injection run reads as one block: what was injected vs how the
    # client coped (retries, hedges, breaker flips, deadline misses).
    chaos = [
        item
        for item in scalars
        if item[0].startswith(("chaos_", "resilience_"))
    ]
    scalars = [item for item in scalars if item not in chaos]
    # Durability counters (WAL appends, replay lag, checkpoints,
    # recoveries) likewise read as one block: how far behind the durable
    # checkpoint each node is, and how often it had to replay.
    durability = [
        item
        for item in scalars
        if item[0].startswith(("wal_", "checkpoint", "recover"))
    ]
    scalars = [item for item in scalars if item not in durability]
    # SLO judgment: error budgets, burn-rate alert state, and the tail
    # sampler's retention counters in one block — the "are we meeting the
    # paper's SLA" view.
    slo = [
        item
        for item in scalars
        if item[0].startswith(("slo_", "tail_sampler_"))
    ]
    scalars = [item for item in scalars if item not in slo]
    if scalars:
        lines.append("")
        lines.append("-- counters / gauges --")
        for name, kind, entry in scalars:
            label = f"{name}{_fmt_labels(entry['labels'])}"
            lines.append(f"{label:<52} {entry.get('value', 0.0):>12g} ({kind})")
    if chaos:
        lines.append("")
        lines.append("-- chaos / resilience --")
        for name, kind, entry in chaos:
            label = f"{name}{_fmt_labels(entry['labels'])}"
            lines.append(f"{label:<52} {entry.get('value', 0.0):>12g} ({kind})")
    if durability:
        lines.append("")
        lines.append("-- durability --")
        for name, kind, entry in durability:
            label = f"{name}{_fmt_labels(entry['labels'])}"
            lines.append(f"{label:<52} {entry.get('value', 0.0):>12g} ({kind})")
    if slo:
        lines.append("")
        lines.append("-- SLO & alerts --")
        for name, kind, entry in slo:
            label = f"{name}{_fmt_labels(entry['labels'])}"
            lines.append(f"{label:<52} {entry.get('value', 0.0):>12g} ({kind})")

    if monitor is not None:
        lines.append("")
        lines.append("-- cluster --")
        lines.append(monitor.report())
        qps = monitor.series["read_qps"]
        hit = monitor.series["hit_ratio"]
        if qps.points:
            lines.append("")
            lines.append(
                render_chart(
                    "read QPS",
                    [Series("read_qps", list(qps.points))],
                    width=width,
                    height=8,
                    x_label="ms",
                )
            )
        if hit.points:
            lines.append("")
            lines.append(
                render_chart(
                    "cache hit ratio",
                    [Series("hit_ratio", list(hit.points))],
                    width=width,
                    height=8,
                    y_min=0.0,
                    y_max=1.0,
                    x_label="ms",
                )
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Demo workload
# ----------------------------------------------------------------------


def _run_demo():
    """Small traced cluster + workload; returns (registry, monitor, tracer)."""
    from ..clock import MILLIS_PER_DAY, MILLIS_PER_SECOND, SimulatedClock
    from ..cluster.cluster import IPSCluster
    from ..config import TableConfig
    from ..core.query import SortType
    from ..core.timerange import TimeRange
    from ..obs.registry import MetricsRegistry
    from ..obs.trace import Tracer
    from ..server.proxy import RPCNodeProxy
    from ..server.recovery import attach_memory_durability

    from ..obs.slo import SLOEngine
    from ..obs.tail import TailSampler

    now_ms = 400 * MILLIS_PER_DAY
    clock = SimulatedClock(now_ms)
    registry = MetricsRegistry()
    sampler = TailSampler(max_traces=64, registry=registry)
    tracer = Tracer(
        clock=clock,
        registry=registry,
        slow_threshold_ms=5.0,
        tail_sampler=sampler,
    )
    slo = SLOEngine.from_mapping(
        {
            "objectives": [
                {
                    "name": "demo-read",
                    "caller": "demo-app",
                    "op": "read",
                    "latency_threshold_ms": "1s",
                    "latency_target": 0.99,
                    "availability_target": 0.999,
                }
            ],
            "bucket": "1s",
        },
        clock,
        registry=registry,
    )
    config = TableConfig(name="demo", attributes=("click", "like"))
    cluster = IPSCluster(
        config,
        num_nodes=3,
        clock=clock,
        tracer=tracer,
        registry=registry,
    )
    for node in cluster.region.nodes.values():
        attach_memory_durability(
            node, checkpoint_interval_records=64, registry=registry
        )
    for node_id in list(cluster.region.nodes):
        cluster.region.nodes[node_id] = RPCNodeProxy(
            cluster.region.nodes[node_id],
            clock,
            tracer=tracer,
            registry=registry,
            advance_clock=True,
        )
    monitor = ClusterMonitor(cluster)
    monitor.watch_slo(slo)
    client = cluster.client("demo-app")
    # A fixed absolute window keeps the query fingerprint stable across
    # reads (the RPC proxies advance the clock per call, so a relative
    # window would resolve to fresh bounds — and a fresh cache key —
    # on every request).
    window = TimeRange.absolute(
        now_ms - 30 * MILLIS_PER_DAY, now_ms + MILLIS_PER_DAY
    )

    import random

    rng = random.Random(7)
    monitor.sample()
    for round_index in range(6):
        for _ in range(40):
            profile_id = rng.randrange(60)
            client.add_profile(
                profile_id,
                now_ms - rng.randrange(30 * MILLIS_PER_DAY),
                1,
                1,
                rng.randrange(50),
                {"click": rng.randrange(1, 5)},
            )
        cluster.run_background_cycle()
        for _ in range(25):
            # Skewed read traffic: most requests land on a hot subset,
            # which is what makes the result cache earn its keep.
            profile_id = rng.randrange(8) if rng.random() < 0.7 else rng.randrange(60)
            started_ms = clock.now_ms()
            client.get_profile_topk(
                profile_id, 1, 1, window, SortType.TOTAL, k=5
            )
            slo.observe(
                "demo-app", "read", clock.now_ms() - started_ms, ok=True
            )
        client.multi_get_topk(
            [rng.randrange(60) for _ in range(32)],
            1,
            1,
            window,
            SortType.TOTAL,
            k=5,
        )
        clock.advance(MILLIS_PER_SECOND)
        slo.evaluate()
        monitor.sample()
    return registry, monitor, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--from-file",
        metavar="FILE",
        help="render from a saved text exposition ('-' reads stdin)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry JSON export instead of the ASCII dashboard",
    )
    parser.add_argument(
        "--width", type=int, default=60, help="chart width in characters"
    )
    args = parser.parse_args(argv)

    if args.from_file is not None:
        if args.from_file == "-":
            text = sys.stdin.read()
        else:
            with open(args.from_file, encoding="utf-8") as handle:
                text = handle.read()
        print(render_dashboard(parse_exposition(text), width=args.width))
        return 0

    registry, monitor, tracer = _run_demo()
    if args.json:
        print(registry.to_json(indent=2))
        return 0
    # Round-trip through the text exposition: what the dashboard shows is
    # what a scrape would carry.
    families = parse_exposition(registry.render_text())
    print(render_dashboard(families, monitor=monitor, width=args.width))
    if tracer.slow_log:
        print()
        print("-- slow queries --")
        for entry in tracer.slow_log:
            print(entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
