"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one of the paper's tables or
figures (see DESIGN.md's experiment index).  Figure benches print the
paper-shaped series to stdout (run with ``-s`` to see them) and assert the
qualitative claims; micro benches use pytest-benchmark to time the real
implementation.
"""

from __future__ import annotations

import pytest

from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.sim import ClusterSimulator
from repro.workload import spring_festival_curve

#: Shared simulated "now".
NOW_MS = 400 * MILLIS_PER_DAY

@pytest.fixture(scope="session")
def simulator() -> ClusterSimulator:
    """The calibrated 1000-node fleet used by the figure benches."""
    return ClusterSimulator(num_nodes=1000, seed=42, samples_per_step=3000)


@pytest.fixture(scope="session")
def read_traffic():
    return spring_festival_curve(read_traffic=True, seed=42)


@pytest.fixture(scope="session")
def write_traffic():
    return spring_festival_curve(read_traffic=False, seed=42)


def print_series(title: str, header: str, rows: list[str]) -> None:
    """Uniform figure-series output."""
    print()
    print(f"=== {title} ===")
    print(header)
    for row in rows:
        print(row)


def fmt_ms(value: float) -> str:
    return f"{value:6.2f}"
