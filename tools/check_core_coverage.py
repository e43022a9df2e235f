#!/usr/bin/env python
"""Line-coverage floors for the hot subsystems with zero external deps.

The image has neither ``coverage`` nor ``pytest-cov``, and Python 3.11
predates ``sys.monitoring`` — so this uses the stdlib tracer directly: a
``sys.settrace`` hook records executed lines for files under the target
directories while the focused test files run in-process via
``pytest.main``.  Executable lines come from the compiled code objects'
``co_lines`` tables (every nested function/class body included).

Each target carries its own floor:

* ``src/repro/core`` — the query/profile engine the kernels tentpole
  doubled the implementations of; the differential suites must keep
  reaching both.
* ``src/repro/server`` — the node read/write paths plus the result
  cache and durability, kept honest by the invalidation oracle and the
  served-path tests beside it.
* ``src/repro/obs`` — the judgment layer itself (metrics registry,
  tracer, tail sampler, SLO engine); an observability stack nobody
  tests is exactly the code that lies during an incident.

Fails the build when any target's aggregate line coverage drops below
its floor.  Run from the repo root (``make coverage-core`` does):
``python tools/check_core_coverage.py [--floor NAME=0.85 ...]``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (name, directory, aggregate executed/executable floor).
TARGETS = (
    ("core", SRC / "repro" / "core", 0.85),
    ("server", SRC / "repro" / "server", 0.85),
    ("obs", SRC / "repro" / "obs", 0.85),
    # The array-native representation (PR 10) made the codec a correctness
    # seam: WAL/KV images are memoryview dumps of live columns.
    ("storage", SRC / "repro" / "storage", 0.85),
)

#: Test files that exercise the targets (kept explicit so the traced run
#: stays fast; the full suite is covered by ``make test`` untraced).
TRACED_TEST_FILES = (
    "tests/test_core_compaction.py",
    "tests/test_core_engine.py",
    "tests/test_core_feature.py",
    "tests/test_core_query.py",
    "tests/test_core_shrink.py",
    "tests/test_core_slice_profile.py",
    "tests/test_core_timerange.py",
    "tests/test_core_truncate.py",
    "tests/test_core_udaf_weighted.py",
    "tests/test_columnar.py",
    "tests/test_kernel_oracle.py",
    "tests/test_kernel_properties.py",
    "tests/test_query_oracle.py",
    "tests/test_query_properties_extra.py",
    "tests/test_hot_reload.py",
    # storage targets (columnar-native serialization + the stores it feeds)
    "tests/test_storage_serialization.py",
    "tests/test_serialization_properties.py",
    "tests/test_serialization_fuzz.py",
    "tests/test_storage_compression.py",
    "tests/test_storage_wal.py",
    "tests/test_storage_kvstore.py",
    "tests/test_storage_filestore.py",
    "tests/test_storage_persistence.py",
    "tests/test_storage_snapshot.py",
    "tests/test_storage_replication.py",
    "tests/test_storage_load_window.py",
    # server targets
    "tests/test_server_node.py",
    "tests/test_server_isolation.py",
    "tests/test_server_quota.py",
    "tests/test_server_rpc.py",
    "tests/test_server_proxy.py",
    "tests/test_server_service.py",
    "tests/test_server_maintenance_pool.py",
    "tests/test_result_cache.py",
    # result-cache oracle + the served-path tests moved beside it
    "tests/test_result_cache_oracle.py",
    "tests/test_recovery.py",
    "tests/test_crashpoints.py",
    "tests/test_batch_query.py",
    # obs targets
    "tests/test_obs_registry.py",
    "tests/test_obs_trace.py",
    "tests/test_obs_slo.py",
    "tests/test_obs_tail.py",
)


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiler marks executable, across nested scopes."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    code_type = type(code)
    while stack:
        current = stack.pop()
        for const in current.co_consts:
            if isinstance(const, code_type):
                stack.append(const)
        for _start, _end, lineno in current.co_lines():
            if lineno is not None:
                lines.add(lineno)
    return lines


def parse_floor_override(raw: str) -> tuple[str, float]:
    name, _, value = raw.partition("=")
    if not value:
        raise argparse.ArgumentTypeError(
            f"expected NAME=RATIO, got {raw!r}"
        )
    return name, float(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--floor",
        type=parse_floor_override,
        action="append",
        default=[],
        metavar="NAME=RATIO",
        help="override one target's floor, e.g. --floor server=0.80",
    )
    args = parser.parse_args()
    overrides = dict(args.floor)
    unknown = set(overrides) - {name for name, _, _ in TARGETS}
    if unknown:
        parser.error(f"unknown coverage targets: {sorted(unknown)}")

    sys.path.insert(0, str(SRC))
    import pytest  # after the path tweak, mirroring the Makefile env

    target_prefixes = tuple(str(directory) for _, directory, _ in TARGETS)
    executed: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        take = wanted.get(filename)
        if take is None:
            take = filename.startswith(target_prefixes)
            wanted[filename] = take
        if not take:
            return None
        lines = executed.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        exit_code = pytest.main(
            ["-q", "-p", "no:cacheprovider", *TRACED_TEST_FILES]
        )
    finally:
        sys.settrace(None)
    if exit_code != 0:
        print(
            f"traced test run failed (pytest exit {exit_code}); "
            "coverage not evaluated",
            file=sys.stderr,
        )
        return 1

    failed = False
    for name, directory, default_floor in TARGETS:
        floor = overrides.get(name, default_floor)
        total_executable = 0
        total_executed = 0
        report = []
        for path in sorted(directory.rglob("*.py")):
            lines = executable_lines(path)
            hit = executed.get(str(path), set()) & lines
            total_executable += len(lines)
            total_executed += len(hit)
            ratio = len(hit) / len(lines) if lines else 1.0
            report.append(
                (ratio, path.relative_to(ROOT), len(hit), len(lines))
            )

        coverage = (
            total_executed / total_executable if total_executable else 1.0
        )
        for ratio, rel_path, hit, lines in sorted(report):
            print(f"  {ratio:6.1%}  {hit:4d}/{lines:<4d}  {rel_path}")
        print(
            f"{name} coverage {coverage:.1%} "
            f"({total_executed}/{total_executable} lines, floor {floor:.0%})"
        )
        if coverage < floor:
            print(
                f"{name} coverage {coverage:.1%} below floor {floor:.0%}",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
