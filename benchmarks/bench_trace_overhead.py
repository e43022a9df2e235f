"""Tracing must be cheap: <10% enabled, free when disabled.

The observability layer is constructor-injected everywhere, so every
request pays *something* even with tracing off — the cost of calling into
:data:`~repro.obs.trace.NULL_TRACER`.  This bench pins both ends of the
contract from the ISSUE:

* the **no-op** tracer costs well under a microsecond per span (measured
  directly, so a regression in the null path can't hide inside workload
  noise);
* an **enabled** :class:`~repro.obs.trace.Tracer` — with a live
  :class:`~repro.obs.registry.MetricsRegistry`, histogram **exemplars**
  (every root observation carries its trace id), a slow-query threshold,
  and a **tail sampler** attached — adds less than 10% wall-clock to the
  batched-query workload of ``bench_batch_query.py``.  The sampler's
  bounded-memory claim is asserted too: residency never exceeds
  ``max_traces`` no matter how many requests were offered.

Wall times are best-of-``repeats`` with the two configurations
interleaved, so machine drift hits both equally.  Every repeat asks for a
different ``k`` (the same one in both arms), so its queries carry a fresh
result-cache fingerprint: a repeat times the kernel path, not a pass of
cache hits whose tiny denominator would inflate the tracing share.

Run standalone (``python benchmarks/bench_trace_overhead.py [--smoke]``,
with ``src`` on ``PYTHONPATH``) or via pytest.
"""

from __future__ import annotations

import argparse
import random
import time

from repro import IPSCluster, SortType, TableConfig, TimeRange
from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.obs.registry import MetricsRegistry
from repro.obs.tail import TailSampler
from repro.obs.trace import NULL_TRACER, Tracer
from repro.server.proxy import RPCNodeProxy
from repro.workload.zipf import ZipfGenerator

NOW_MS = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(30 * MILLIS_PER_DAY)
SEED = 99

#: The acceptance ceiling for enabled tracing, plus a little headroom the
#: assertion leaves for timer noise on loaded CI machines.
OVERHEAD_LIMIT = 0.10


def build_cluster(num_nodes: int, population: int, tracer, registry):
    clock = SimulatedClock(NOW_MS)
    config = TableConfig(name="bench", attributes=("click", "like"))
    cluster = IPSCluster(
        config, num_nodes=num_nodes, clock=clock,
        tracer=tracer, registry=registry,
    )
    for node_id in list(cluster.region.nodes):
        cluster.region.nodes[node_id] = RPCNodeProxy(
            cluster.region.nodes[node_id], clock,
            tracer=tracer, registry=registry,
        )
    client = cluster.client("bench")
    rng = random.Random(SEED)
    for profile_id in range(population):
        for _ in range(4):
            client.add_profile(
                profile_id,
                NOW_MS - rng.randrange(30 * MILLIS_PER_DAY),
                1,
                1,
                rng.randrange(100),
                {"click": rng.randrange(1, 8)},
            )
    cluster.run_background_cycle()
    return cluster, client


def make_batches(num_batches: int, batch_size: int, population: int):
    zipf = ZipfGenerator(population, s=1.05, seed=SEED)
    return [
        [zipf.sample() for _ in range(batch_size)]
        for _ in range(num_batches)
    ]


def drive(client, batches, k: int = 10) -> float:
    """One measured pass of the batched workload; returns wall ms."""
    start = time.perf_counter()
    for batch in batches:
        outcome = client.multi_get_topk(
            batch, 1, 1, WINDOW, SortType.TOTAL, k=k
        )
        assert all(result.ok for result in outcome)
    return (time.perf_counter() - start) * 1000.0


def bench_null_span_ns(iterations: int = 200_000) -> float:
    """Direct cost of one disabled span, in nanoseconds."""
    tracer = NULL_TRACER
    start = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("noop"):
            pass
    elapsed = time.perf_counter() - start
    return elapsed / iterations * 1e9


def run_bench(
    batch_size: int = 128,
    num_batches: int = 8,
    num_nodes: int = 4,
    population: int = 600,
    repeats: int = 5,
) -> dict[str, float]:
    batches = make_batches(num_batches, batch_size, population)

    _, client_off = build_cluster(num_nodes, population, NULL_TRACER, None)
    registry = MetricsRegistry()
    # The enabled arm runs the FULL observability pipeline: exemplars
    # (trace ids into every root histogram observation), a slow-query
    # threshold, and tail sampling.  A tiny threshold makes every request
    # a retention candidate, so the sampler's classify + store cost is
    # *in* the measured path, and its FIFO cap is constantly exercised.
    sampler = TailSampler(max_traces=32, registry=registry)
    tracer = Tracer(
        registry=registry, max_roots=32, slow_threshold_ms=0.01,
        tail_sampler=sampler,
    )
    _, client_on = build_cluster(num_nodes, population, tracer, registry)

    # Warm both clusters identically before measuring.
    drive(client_off, batches[:1])
    drive(client_on, batches[:1])

    off_ms = float("inf")
    on_ms = float("inf")
    for repeat in range(repeats):
        k = 11 + repeat  # the warm-up ran k=10
        off_ms = min(off_ms, drive(client_off, batches, k))
        on_ms = min(on_ms, drive(client_on, batches, k))

    overhead = on_ms / off_ms - 1.0
    sampler_stats = sampler.stats()
    return {
        "noop_span_ns": bench_null_span_ns(),
        "disabled_ms": off_ms,
        "enabled_ms": on_ms,
        "overhead": overhead,
        "spans_recorded": float(
            sum(1 for root in tracer.roots for _ in root.iter_spans())
        ),
        "sampler_offered": float(sampler_stats["offered"]),
        "sampler_resident": float(sampler_stats["resident"]),
        "sampler_max_traces": float(sampler_stats["max_traces"]),
        "exemplars_recorded": float(
            sum(
                metric.exemplar_count()
                for metric, _ in registry.histograms("trace_root_ms")
            )
        ),
    }


def report(result: dict[str, float]) -> None:
    print()
    print("=== Tracing overhead (batched-query workload) ===")
    print(f"no-op span:        {result['noop_span_ns']:8.0f} ns/span")
    print(f"tracing disabled:  {result['disabled_ms']:8.1f} ms (best of repeats)")
    print(
        f"tracing enabled:   {result['enabled_ms']:8.1f} ms "
        f"(+{result['overhead']:.1%}, {result['spans_recorded']:.0f} retained spans)"
    )
    print(
        f"tail sampler:      {result['sampler_offered']:8.0f} offered, "
        f"{result['sampler_resident']:.0f} resident "
        f"(cap {result['sampler_max_traces']:.0f}); "
        f"{result['exemplars_recorded']:.0f} exemplars live"
    )


def _check(result: dict[str, float]) -> None:
    assert result["noop_span_ns"] < 2_000, (
        f"no-op span costs {result['noop_span_ns']:.0f} ns; "
        "the disabled tracer is supposed to be free"
    )
    assert result["overhead"] < OVERHEAD_LIMIT, (
        f"enabled tracing adds {result['overhead']:.1%} "
        f"(limit {OVERHEAD_LIMIT:.0%})"
    )
    # Bounded memory: the sampler saw far more requests than it may keep,
    # and residency respects the cap.
    assert result["sampler_offered"] > result["sampler_max_traces"], (
        "bench too small to exercise the tail sampler's cap"
    )
    assert result["sampler_resident"] <= result["sampler_max_traces"], (
        f"tail sampler holds {result['sampler_resident']:.0f} traces, "
        f"cap is {result['sampler_max_traces']:.0f}"
    )
    assert result["exemplars_recorded"] > 0, (
        "enabled arm recorded no exemplars; the pipeline under test is "
        "not the full one"
    )


def test_trace_overhead_smoke():
    """Pytest entry point: small workload, same assertions."""
    result = run_bench(
        batch_size=64, num_batches=4, num_nodes=3, population=200, repeats=3
    )
    report(result)
    _check(result)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--batches", type=int, default=8)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--population", type=int, default=600)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI (same assertions, seconds not minutes)",
    )
    args = parser.parse_args()
    if args.smoke:
        result = run_bench(
            batch_size=64, num_batches=4, num_nodes=3, population=200,
            repeats=3,
        )
    else:
        result = run_bench(
            batch_size=args.batch_size,
            num_batches=args.batches,
            num_nodes=args.nodes,
            population=args.population,
            repeats=args.repeats,
        )
    report(result)
    _check(result)


if __name__ == "__main__":
    main()
