"""Benchmark: reference (python) vs columnar (numpy) query kernels.

Times the hot top-K path — multi-way slice merge, aggregate, sort, cut —
on a single profile through both kernel backends, across profile sizes
(distinct feature count) and K values.  Before any timing, both backends
must return identical ``FeatureResult`` lists *and* identical
``QueryStats`` (the differential contract `tests/test_kernel_oracle.py`
enforces exhaustively), so a speedup can never be bought with wrong
answers.

Two numbers per numpy case:

* **cold** — first query after the writes, paying the one-off
  list-of-lists -> columnar conversion that is then memoised per slice
  (``Slice.kernel_cache``);
* **warm** — steady state, where the gather is a C-speed concat of
  cached int64 blocks.  This is the number that matters for the serving
  read path (profiles are read-hot/write-cold between slice rollovers)
  and the one the ``>= 5x on the 10k-feature top-K`` gate asserts.

Run from the repo root: ``python benchmarks/bench_kernels.py [--smoke]``.
"""

from __future__ import annotations

import argparse

from repro.clock import MILLIS_PER_DAY, MILLIS_PER_HOUR, perf_ms
from repro.config import TableConfig
from repro.core.aggregate import get_aggregate
from repro.core.kernels import available_backends
from repro.core.profile import ProfileData
from repro.core.query import QueryEngine, QueryStats, SortType
from repro.core.timerange import TimeRange
from repro.storage.serialization import ProfileCodec
from repro.workload.zipf import ZipfGenerator

NOW_MS = 400 * MILLIS_PER_DAY
ATTRIBUTES = ("like", "comment", "share")
WINDOW = TimeRange.current(31 * MILLIS_PER_DAY)
NUM_SLICES = 30

#: The acceptance gate: warm numpy top-K on the 10k-feature profile.
GATE_FIDS = 10_000
GATE_K = 100
GATE_SPEEDUP = 5.0

#: Cold gate: the first query on a freshly *decoded* profile (the KV/WAL
#: load path) must land within this factor of steady state.  Before the
#: columnar-native representation, decode rebuilt per-stat dicts and the
#: first query paid a full python gather (12.7 ms cold vs 3.3 ms warm at
#: 10k fids); zero-copy decode hands the kernels int64 columns directly.
COLD_WARM_RATIO = 1.5

#: Multi-get gate: one batched 256-profile top-K must beat 256
#: independent single gets on the reference path by this factor, and
#: must also beat 256 columnar single gets outright (the batch runs a
#: near-constant number of array ops regardless of batch size).
MULTIGET_PROFILES = 256
MULTIGET_FIDS = 96
MULTIGET_SLICES = 6
MULTIGET_WRITES = 72
MULTIGET_K = 10
MULTIGET_SPEEDUP = 5.0


def build_profile(n_fids: int, seed: int = 0) -> ProfileData:
    """One day-granular profile: 30 slices of zipf-distributed writes.

    Writes per slice scale with the fid universe so the big case lands
    near the production shape (10k distinct fids -> ~30k merged rows
    across 30 slices, width 3).
    """
    aggregate = get_aggregate("sum")
    zipf = ZipfGenerator(n_fids, s=1.05, seed=seed)
    profile = ProfileData(1, write_granularity_ms=MILLIS_PER_DAY)
    writes_per_slice = max(64, n_fids // 6)
    for day in range(NUM_SLICES):
        base_ms = NOW_MS - day * MILLIS_PER_DAY
        for i in range(writes_per_slice):
            fid = zipf.sample()
            profile.add(
                base_ms - (i % 20) * MILLIS_PER_HOUR // 20,
                slot=1,
                type_id=1,
                fid=fid,
                counts=[1 + fid % 7, i % 3, 1],
                aggregate=aggregate,
            )
    return profile


def _run_query(engine: QueryEngine, profile: ProfileData, k: int):
    stats = QueryStats()
    results = engine.top_k(
        profile, 1, 1, WINDOW, SortType.ATTRIBUTE, k=k, now_ms=NOW_MS,
        sort_attribute="like", stats=stats,
    )
    return results, stats


def _time_query(engine: QueryEngine, profile: ProfileData, k: int,
                repeats: int) -> float:
    start = perf_ms()
    for _ in range(repeats):
        _run_query(engine, profile, k)
    return (perf_ms() - start) / repeats


def run_case(n_fids: int, k: int, repeats: int, seed: int = 0) -> dict:
    config = TableConfig(name="bench_kernels", attributes=ATTRIBUTES)
    aggregate = get_aggregate("sum")
    profile = build_profile(n_fids, seed=seed)
    rows = sum(
        len(group)
        for profile_slice in profile.slices
        for group in profile_slice.column_groups(1, 1)
    )

    python_engine = QueryEngine(config, aggregate, backend="python")
    case = {"n_fids": n_fids, "rows": rows, "k": k}

    if "numpy" in available_backends():
        numpy_engine = QueryEngine(config, aggregate, backend="numpy")
        # Cold: the first columnar query converts every slice to int64
        # blocks (memoised in Slice.kernel_cache thereafter).
        cold_start = perf_ms()
        numpy_results, numpy_stats = _run_query(numpy_engine, profile, k)
        case["numpy_cold_ms"] = perf_ms() - cold_start

        # Correctness gate before any timing claims.
        python_results, python_stats = _run_query(python_engine, profile, k)
        assert numpy_results == python_results, "backends disagree on results"
        assert numpy_stats == python_stats, "backends disagree on stats"

        case["numpy_ms"] = _time_query(numpy_engine, profile, k, repeats)

    case["python_ms"] = _time_query(python_engine, profile, k, repeats)
    if "numpy_ms" in case:
        case["speedup"] = case["python_ms"] / case["numpy_ms"]
    return case


def build_multiget_profile(pid: int) -> ProfileData:
    """One member of the multi-get fleet: small, recent, zipf-skewed."""
    aggregate = get_aggregate("sum")
    zipf = ZipfGenerator(MULTIGET_FIDS, s=1.05, seed=pid)
    profile = ProfileData(pid, write_granularity_ms=MILLIS_PER_DAY)
    for day in range(MULTIGET_SLICES):
        base_ms = NOW_MS - day * MILLIS_PER_DAY
        for i in range(MULTIGET_WRITES):
            fid = zipf.sample()
            profile.add(
                base_ms - (i % 20) * MILLIS_PER_HOUR // 20,
                slot=1,
                type_id=1,
                fid=fid,
                counts=[1 + fid % 7, i % 3, 1],
                aggregate=aggregate,
            )
    return profile


def run_cold_case(repeats: int) -> dict:
    """Cold (first query after decode) vs warm on the gate profile.

    The decode itself is excluded — it is the load path, and it is paid
    either way.  What the gate bounds is the *query-side* penalty of a
    cold cache: with zero-copy (columnar v2) images, decode yields int64
    columns the kernels use directly, so cold ≈ warm.
    """
    config = TableConfig(name="bench_kernels", attributes=ATTRIBUTES)
    engine = QueryEngine(config, get_aggregate("sum"))
    blob = ProfileCodec.encode_profile(build_profile(GATE_FIDS))

    warm_profile = ProfileCodec.decode_profile(blob)
    _run_query(engine, warm_profile, GATE_K)  # populate per-slice caches
    warm_ms = _time_query(engine, warm_profile, GATE_K, repeats)

    total = 0.0
    for _ in range(repeats):
        profile = ProfileCodec.decode_profile(blob)
        start = perf_ms()
        _run_query(engine, profile, GATE_K)
        total += perf_ms() - start
    cold_ms = total / repeats
    return {
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "ratio": cold_ms / warm_ms,
    }


def run_multiget_case(repeats: int) -> dict:
    """One 256-profile batched top-K vs 256 independent single gets.

    Three timings over identical profiles and an identical query:

    * ``reference_ms`` — 256 single gets on the python reference path
      (the per-profile loop the batch kernels replace);
    * ``singles_ms``   — 256 single gets on the columnar backend;
    * ``batch_ms``     — one ``top_k_batch`` call.

    Before timing, all three must return identical results — the batch
    differential oracle's contract, re-asserted here so the speedup can
    never be bought with wrong answers.
    """
    config = TableConfig(name="bench_kernels", attributes=ATTRIBUTES)
    aggregate = get_aggregate("sum")
    python_engine = QueryEngine(config, aggregate, backend="python")
    engine = QueryEngine(config, aggregate)
    profiles = [build_multiget_profile(pid) for pid in range(MULTIGET_PROFILES)]

    def reference_singles():
        return [
            python_engine.top_k(
                profile, 1, 1, WINDOW, SortType.ATTRIBUTE, k=MULTIGET_K,
                now_ms=NOW_MS, sort_attribute="like",
            )
            for profile in profiles
        ]

    def singles():
        return [
            engine.top_k(
                profile, 1, 1, WINDOW, SortType.ATTRIBUTE, k=MULTIGET_K,
                now_ms=NOW_MS, sort_attribute="like",
            )
            for profile in profiles
        ]

    def batch():
        return engine.top_k_batch(
            profiles, 1, 1, WINDOW, SortType.ATTRIBUTE, k=MULTIGET_K,
            now_ms=NOW_MS, sort_attribute="like",
        )

    batched = batch()  # also warms every per-slice columnar cache
    assert batched == singles() == reference_singles(), (
        "batched multi-get disagrees with independent single gets"
    )

    case = {"n_profiles": MULTIGET_PROFILES, "k": MULTIGET_K}
    for name, fn in (
        ("reference_ms", reference_singles),
        ("singles_ms", singles),
        ("batch_ms", batch),
    ):
        best = None
        for _ in range(repeats):
            start = perf_ms()
            fn()
            elapsed = perf_ms() - start
            best = elapsed if best is None else min(best, elapsed)
        case[name] = best
    case["speedup_vs_reference"] = case["reference_ms"] / case["batch_ms"]
    case["speedup_vs_singles"] = case["singles_ms"] / case["batch_ms"]
    return case


def run_bench(repeats: int) -> list[dict]:
    cases = []
    for n_fids in (300, 3_000, GATE_FIDS):
        for k in (10, GATE_K, 1_000):
            cases.append(run_case(n_fids, k, repeats))
    return cases


def report(cases: list[dict]) -> None:
    print()
    print("=== Kernel backends: python reference vs numpy columnar ===")
    print(f"{NUM_SLICES} slices, width {len(ATTRIBUTES)}, zipf(s=1.05) fids,"
          " 31-day window, sort=ATTRIBUTE(like), warm numbers are"
          " steady-state (per-slice columnar cache populated)")
    header = (
        f"{'fids':>7} {'rows':>7} {'K':>5} {'python':>10} {'numpy':>10} "
        f"{'cold':>10} {'speedup':>8}"
    )
    print(header)
    for case in cases:
        numpy_ms = case.get("numpy_ms")
        print(
            f"{case['n_fids']:>7} {case['rows']:>7} {case['k']:>5} "
            f"{case['python_ms']:>8.3f}ms "
            + (f"{numpy_ms:>8.3f}ms " if numpy_ms is not None
               else f"{'n/a':>10} ")
            + (f"{case['numpy_cold_ms']:>8.3f}ms " if numpy_ms is not None
               else f"{'n/a':>10} ")
            + (f"{case['speedup']:>7.1f}x" if numpy_ms is not None
               else f"{'n/a':>8}")
        )
    if "numpy" not in available_backends():
        print("numpy backend unavailable: columnar columns skipped, "
              "speedup gate not applicable")


def gate_case(cases: list[dict]) -> dict | None:
    for case in cases:
        if case["n_fids"] == GATE_FIDS and case["k"] == GATE_K:
            return case
    return None


def check_gate(cases: list[dict]) -> bool:
    """True when the acceptance gate holds (or numpy is unavailable)."""
    if "numpy" not in available_backends():
        return True
    case = gate_case(cases)
    assert case is not None, "gate case missing from the sweep"
    ok = case["speedup"] >= GATE_SPEEDUP
    verdict = "PASS" if ok else "FAIL"
    print(
        f"gate [{verdict}]: {GATE_FIDS}-fid top-{GATE_K} numpy speedup "
        f"{case['speedup']:.1f}x (required >= {GATE_SPEEDUP:.0f}x)"
    )
    return ok


def report_cold(case: dict) -> None:
    print(
        f"cold-decode: first query on a freshly decoded {GATE_FIDS}-fid "
        f"profile {case['cold_ms']:.3f}ms vs warm {case['warm_ms']:.3f}ms "
        f"({case['ratio']:.2f}x)"
    )


def check_cold_gate(case: dict) -> bool:
    ok = case["ratio"] <= COLD_WARM_RATIO
    verdict = "PASS" if ok else "FAIL"
    print(
        f"gate [{verdict}]: cold/warm ratio {case['ratio']:.2f}x "
        f"(required <= {COLD_WARM_RATIO:.1f}x)"
    )
    return ok


def report_multiget(case: dict) -> None:
    print(
        f"multi-get: {case['n_profiles']} profiles top-{case['k']} — "
        f"batch {case['batch_ms']:.3f}ms vs "
        f"{case['n_profiles']} reference singles {case['reference_ms']:.3f}ms "
        f"({case['speedup_vs_reference']:.1f}x) vs "
        f"columnar singles {case['singles_ms']:.3f}ms "
        f"({case['speedup_vs_singles']:.2f}x)"
    )


def check_multiget_gate(case: dict) -> bool:
    """Batch must beat the reference loop >= 5x and columnar singles outright."""
    if "numpy" not in available_backends():
        print("multi-get gate skipped: numpy unavailable, batch kernels "
              "fall back to the single-get loop")
        return True
    ok_reference = case["speedup_vs_reference"] >= MULTIGET_SPEEDUP
    ok_singles = case["speedup_vs_singles"] > 1.0
    verdict = "PASS" if ok_reference and ok_singles else "FAIL"
    print(
        f"gate [{verdict}]: {case['n_profiles']}-profile multi-get "
        f"{case['speedup_vs_reference']:.1f}x vs reference singles "
        f"(required >= {MULTIGET_SPEEDUP:.0f}x), "
        f"{case['speedup_vs_singles']:.2f}x vs columnar singles "
        f"(required > 1x)"
    )
    return ok_reference and ok_singles


def test_kernel_topk_speedup():
    """Pytest entry point: the 10k-feature gate at smoke repeats."""
    cases = [run_case(GATE_FIDS, GATE_K, repeats=3)]
    report(cases)
    assert check_gate(cases)


def test_cold_decode_ratio():
    """Pytest entry point: cold (post-decode) must stay near warm."""
    case = run_cold_case(repeats=3)
    report_cold(case)
    assert check_cold_gate(case)


def test_multiget_batch_speedup():
    """Pytest entry point: the 256-profile multi-get gate."""
    case = run_multiget_case(repeats=3)
    report_multiget(case)
    assert check_multiget_gate(case)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument(
        "--smoke", action="store_true",
        help="gate cases only, few repeats (same assertions, seconds not minutes)",
    )
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.smoke:
        cases = [run_case(GATE_FIDS, GATE_K, repeats=3)]
        aux_repeats = 5
    else:
        cases = run_bench(args.repeats)
        aux_repeats = max(5, args.repeats // 4)
    cold_case = run_cold_case(aux_repeats)
    multiget_case = run_multiget_case(aux_repeats)
    report(cases)
    report_cold(cold_case)
    report_multiget(multiget_case)
    ok = check_gate(cases)
    ok = check_cold_gate(cold_case) and ok
    ok = check_multiget_gate(multiget_case) and ok
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
