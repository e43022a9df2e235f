#!/usr/bin/env python
"""Lint: no module outside ``clock.py`` may call ``time.time()`` directly,
and no module anywhere may import ``asyncio``.

All simulated/modelled time must flow through the active
:class:`repro.clock.Clock` (``now_ms``), and all real compute measurement
through :func:`repro.clock.perf_ms` — otherwise simulated runs silently
mix wall time into modelled results.  This script walks ``src/repro``,
``benchmarks`` and ``tools`` and fails the build on any direct
``time.time(...)`` call outside ``clock.py``.

A stricter tier applies to the SLO/tail-sampling modules
(``WALL_CLOCK_FREE``): error-budget windows and alert timelines must
replay byte-identically, so those files may not touch the ``time``
module *at all* — no ``perf_ms``, no ``SystemClock``, no ``import
time``.  They see time only through an injected clock.

A *looser* tier applies to ``src/repro/net/`` (``NET_REAL_TIME``): the
process-per-node cluster runs real sockets against the real wall clock,
so direct ``time.time()`` is permitted there — and **only** there.

``asyncio`` is banned in every scanned file, ``net/`` included: the
servers there are plain threads (one per connection, one per duty), so
the whole tree has one concurrency model and every duty stays a
synchronous call a seeded simulation can step tick by tick.

Run from the repo root (``make lint`` does): ``python tools/check_clock_usage.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "src" / "repro"
#: Benchmarks and tools measure real elapsed time too — they must go
#: through ``perf_ms`` just like the library, so they are linted as well.
SCAN_DIRS = (SOURCE_DIR, ROOT / "benchmarks", ROOT / "tools")
#: The one module allowed to touch the wall clock.
ALLOWED = {SOURCE_DIR / "clock.py"}
#: The one *package* allowed real wall-clock time: the process-per-node
#: cluster (real sockets, real processes, real time).
NET_REAL_TIME = SOURCE_DIR / "net"
#: The real-time exemption is a *roster*, not a directory wildcard: every
#: module under ``src/repro/net/`` must be listed here, so adding a file
#: to the package is a conscious decision to grant it wall-clock
#: access (the lint fails on unlisted files — and on stale entries).
NET_MODULES = frozenset(
    {
        "__init__.py",
        "cluster.py",
        "registry.py",
        "replication.py",
        "transport.py",
        "wire.py",
        "worker.py",
    }
)
#: Modules that must be *fully* wall-clock-free: any use of the ``time``
#: module, ``perf_ms``, or ``SystemClock`` fails the lint.  Alert windows
#: and tail-sampling decisions must depend only on the injected clock.
WALL_CLOCK_FREE = {
    SOURCE_DIR / "obs" / "slo.py",
    SOURCE_DIR / "obs" / "tail.py",
}
_WALL_CLOCK_NAMES = {"perf_ms", "SystemClock"}


def _is_time_time(node: ast.Call) -> bool:
    func = node.func
    # time.time(...)
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "time"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return True
    return False


def _offenders_in(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_time_time(node):
            lines.append(node.lineno)
        # from time import time  — an alias that hides the call form above.
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            if any(alias.name == "time" for alias in node.names):
                lines.append(node.lineno)
    return lines


def _wall_clock_offenders_in(path: Path) -> list[tuple[int, str]]:
    """Any route to wall time in a file that must be wall-clock-free."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time" or alias.name.startswith("time."):
                    offenders.append((node.lineno, "import time"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                offenders.append((node.lineno, "from time import ..."))
            else:
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_NAMES:
                        offenders.append(
                            (node.lineno, f"import of {alias.name}")
                        )
        elif isinstance(node, ast.Name) and node.id in _WALL_CLOCK_NAMES:
            offenders.append((node.lineno, f"use of {node.id}"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _WALL_CLOCK_NAMES
        ):
            offenders.append((node.lineno, f"use of .{node.attr}"))
    return offenders


def _asyncio_offenders_in(path: Path) -> list[int]:
    """Any asyncio import, in any scanned file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "asyncio" or alias.name.startswith("asyncio."):
                    lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "asyncio" or module.startswith("asyncio."):
                lines.append(node.lineno)
    return lines


def _in_net_package(path: Path) -> bool:
    try:
        path.relative_to(NET_REAL_TIME)
    except ValueError:
        return False
    return True


def main() -> int:
    failures = []
    net_files = {
        path.name for path in NET_REAL_TIME.glob("*.py")
    }
    for name in sorted(net_files - NET_MODULES):
        failures.append(
            f"src/repro/net/{name}: not in the NET_MODULES roster — new "
            "net/ modules must be explicitly enrolled in the real-time "
            "lint tier (tools/check_clock_usage.py)"
        )
    for name in sorted(NET_MODULES - net_files):
        failures.append(
            f"src/repro/net/{name}: listed in NET_MODULES but missing"
        )
    for scan_dir in SCAN_DIRS:
        for path in sorted(scan_dir.rglob("*.py")):
            for lineno in _asyncio_offenders_in(path):
                failures.append(
                    f"{path.relative_to(ROOT)}:{lineno} (asyncio is not "
                    "used anywhere; serve with threads)"
                )
            if path in ALLOWED or _in_net_package(path):
                continue
            for lineno in _offenders_in(path):
                failures.append(f"{path.relative_to(ROOT)}:{lineno}")
    for path in sorted(WALL_CLOCK_FREE):
        if not path.exists():
            failures.append(
                f"{path.relative_to(ROOT)}: listed in WALL_CLOCK_FREE "
                "but missing"
            )
            continue
        for lineno, what in _wall_clock_offenders_in(path):
            failures.append(
                f"{path.relative_to(ROOT)}:{lineno} ({what}; this module "
                "must be wall-clock-free)"
            )
    if failures:
        print(
            "clock/asyncio discipline violations (wall clock only in "
            "clock.py and src/repro/net/; asyncio nowhere):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(
            "use the active Clock's now_ms() for modelled time or "
            "repro.clock.perf_ms() for real compute measurement",
            file=sys.stderr,
        )
        return 1
    scanned = ", ".join(
        str(scan_dir.relative_to(ROOT)) for scan_dir in SCAN_DIRS
    )
    print(f"clock usage OK ({scanned}; net/ real-time tier exempt)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
