"""Shared fixtures for the IPS reproduction test suite."""

from __future__ import annotations

import hashlib
import random
import threading
import time

import pytest

from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.config import ShrinkConfig, TableConfig, TruncateConfig
from repro.core.engine import ProfileEngine
from repro.workload.zipf import ZipfGenerator

#: A fixed "now" far enough from the epoch that every query window and
#: compaction band fits comfortably before it.
NOW_MS = 400 * MILLIS_PER_DAY

# Hypothesis-based tests must draw the same examples on every run so the
# tier-1 suite is deterministic.
try:
    from hypothesis import settings as _hypothesis_settings

    _hypothesis_settings.register_profile("deterministic", derandomize=True)
    _hypothesis_settings.load_profile("deterministic")
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass


def _seed_for(nodeid: str) -> int:
    """Stable per-test seed derived from the test's node id."""
    digest = hashlib.blake2b(nodeid.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@pytest.fixture(autouse=True)
def _deterministic_global_rng(request):
    """Reseed the module-level RNG per test.

    Any test (or code under test) that draws from the global ``random``
    module gets a reproducible stream, independent of execution order.
    """
    random.seed(_seed_for(request.node.nodeid))
    yield


@pytest.fixture
def rng(request) -> random.Random:
    """A private RNG seeded from the test's node id (always deterministic)."""
    return random.Random(_seed_for(request.node.nodeid))


@pytest.fixture
def make_zipf():
    """Factory for seeded Zipf samplers (keeps workload draws deterministic)."""

    def _make(n: int, s: float = 1.05, seed: int = 0) -> ZipfGenerator:
        return ZipfGenerator(n, s=s, seed=seed)

    return _make


@pytest.fixture
def clock() -> SimulatedClock:
    return SimulatedClock(start_ms=NOW_MS)


@pytest.fixture
def table_config() -> TableConfig:
    return TableConfig(
        name="user_profile",
        attributes=("like", "comment", "share"),
    )


@pytest.fixture
def engine(table_config, clock) -> ProfileEngine:
    return ProfileEngine(table_config, clock)


@pytest.fixture
def shrink_config() -> ShrinkConfig:
    return ShrinkConfig.from_mapping(
        {1: 5, 2: 3},
        default_retain=10,
        attribute_weights={"like": 1.0, "comment": 2.0, "share": 3.0},
        freshness_half_life_ms=MILLIS_PER_DAY,
    )


@pytest.fixture
def truncate_config() -> TruncateConfig:
    return TruncateConfig(max_slices=100, max_age_ms=365 * MILLIS_PER_DAY)


@pytest.fixture
def process_tracker():
    """Track spawned worker processes; fail the test on orphan leakage.

    Tests that spawn :class:`repro.net.cluster.ProcessCluster` workers
    register each cluster here.  At teardown every tracked process must
    already be dead — any survivor is SIGKILLed (so one leaky test cannot
    poison the rest of the run) and the test then **fails**, naming the
    leaked workers.
    """
    clusters = []

    class _Tracker:
        def add(self, cluster):
            clusters.append(cluster)
            return cluster

    yield _Tracker()

    leaked = []
    for cluster in clusters:
        for node_id, proc in cluster.processes().items():
            if proc.poll() is None:
                leaked.append(f"{node_id} (pid {proc.pid})")
                proc.kill()
                proc.wait(timeout=10.0)
    if leaked:
        pytest.fail(
            "leaked worker processes (killed by process_tracker): "
            + ", ".join(leaked)
        )


def _threads_named(*prefixes: str) -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(prefixes)
    }


def _serving_threads() -> set[threading.Thread]:
    return _threads_named("ips-conn", "ips-accept")


@pytest.fixture
def serving_threads():
    """The live ``ips-accept*`` / ``ips-conn*`` threads, as a callable."""
    return _serving_threads


@pytest.fixture(autouse=True)
def _no_leaked_serving_threads(request):
    """Fail a ``test_net_*`` test that leaves a serving or duty thread alive.

    The thread analogue of ``process_tracker``: a stopped
    :class:`repro.net.worker.WorkerServer` or
    :class:`repro.net.registry.RegistryServer` must have no
    ``ips-accept*`` / ``ips-conn*`` / ``ips-duty*`` thread left.  Autouse
    fixtures tear down last, so every server the test's own fixtures stop
    is already stopped here.  Threads cannot be killed, so ones leaked by
    an earlier test are not blamed on this one.
    """
    if not request.path.name.startswith("test_net_"):
        yield
        return
    prefixes = ("ips-conn", "ips-accept", "ips-duty")
    before = _threads_named(*prefixes)
    yield
    deadline = time.monotonic() + 2.0
    while (
        (leaked := _threads_named(*prefixes) - before)
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    if leaked:
        pytest.fail(
            "serving or duty threads still alive after the test: "
            + ", ".join(sorted(thread.name for thread in leaked))
        )
