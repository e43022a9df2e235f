"""Discrete-step cluster simulator producing the paper's §IV figures.

The simulator models a fleet of IPS nodes at a time-step granularity
(e.g. one step per 10 simulated minutes).  For each step it:

1. reads the offered QPS from a traffic model (diurnal curve);
2. computes per-node utilisation against the fleet's service capacity;
3. Monte-Carlo samples request latencies from the service-time model —
   lognormal service times, an M/M/1-flavoured queueing wait that grows
   with utilisation, a cache hit/miss mixture, and the network cost for
   client-side views;
4. records p50/p99 into log-bucketed histograms and emits a
   :class:`StepMetrics` row.

Write-path simulation adds the §III-F mechanism explicitly: with
isolation *off*, a write contends with concurrent reads on the main-table
locks, inflating its tail by the read utilisation; with isolation *on*, a
write appends to the write table at near-constant cost.  This is what
produces the paper's "write p99 down ~80 %" claim, mechanistically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..obs.registry import Histogram
from .faults import FaultSchedule


@dataclass
class ServiceProfile:
    """Service-time parameters for one node, in milliseconds.

    Defaults are the paper's anchors; :meth:`from_calibration` rescales
    the shape using measurements of this repository's real code.
    """

    server_hit_p50_ms: float = 1.0
    miss_penalty_ms: float = 3.0
    network_base_ms: float = 3.0
    write_p50_ms: float = 0.5
    #: Lognormal sigma of service times (tail heaviness before queueing).
    service_sigma: float = 0.45
    #: Requests one node can serve per second at 100 % utilisation.  The
    #: production fleet runs with headroom: 40M QPS over 1000+ nodes means
    #: ~2/3 utilisation at peak.
    node_capacity_qps: float = 60_000.0
    #: Fraction of reads answered from cache (Fig. 18: >90 %).
    cache_hit_ratio: float = 0.92

    @classmethod
    def from_calibration(cls, calibration, **overrides) -> "ServiceProfile":
        """Anchor the miss penalty (and keep the documented factor visible)."""
        profile = cls(**overrides)
        profile.miss_penalty_ms = calibration.miss_penalty_ms
        return profile


@dataclass
class StepMetrics:
    """One simulation step's outputs (one point on a §IV figure)."""

    time_ms: int
    offered_qps: float
    utilization: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    error_rate: float
    hit_ratio: float
    memory_ratio: float


@dataclass
class SimulationResult:
    steps: list[StepMetrics] = field(default_factory=list)

    def series(self, attribute: str) -> list[tuple[int, float]]:
        return [(step.time_ms, getattr(step, attribute)) for step in self.steps]

    def peak(self, attribute: str) -> float:
        return max(getattr(step, attribute) for step in self.steps)

    def trough(self, attribute: str) -> float:
        return min(getattr(step, attribute) for step in self.steps)

    def mean(self, attribute: str) -> float:
        values = [getattr(step, attribute) for step in self.steps]
        return sum(values) / len(values)


class ClusterSimulator:
    """Monte-Carlo fleet simulator."""

    def __init__(
        self,
        num_nodes: int = 1000,
        service: ServiceProfile | None = None,
        seed: int = 0,
        samples_per_step: int = 4000,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.service = service if service is not None else ServiceProfile()
        self.samples_per_step = samples_per_step
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Latency sampling primitives
    # ------------------------------------------------------------------

    def _lognormal_ms(self, median_ms: float) -> float:
        sigma = self.service.service_sigma
        return median_ms * math.exp(self._rng.gauss(0.0, sigma))

    def _queue_wait_ms(self, utilization: float, service_mean_ms: float) -> float:
        """M/M/c-flavoured wait.

        With many worker threads per node, the probability of queueing at
        all is far below the utilisation (Erlang-C); ``rho**4`` is a cheap
        proxy with the right behaviour — negligible at low load, steep near
        saturation.  A request that does queue waits ~ rho/(1-rho) service
        times on average.  This is what keeps p50 flat while p99 grows with
        load, the signature shape of Fig. 16.
        """
        rho = min(utilization, 0.97)
        if self._rng.random() >= rho**4:
            return 0.0
        mean_wait = service_mean_ms * rho / (1.0 - rho)
        return self._rng.expovariate(1.0 / mean_wait) if mean_wait > 0 else 0.0

    def _sample_read_ms(
        self, utilization: float, client_side: bool, hit_ratio: float
    ) -> tuple[float, bool]:
        """One read-request latency; returns (latency_ms, was_hit)."""
        hit = self._rng.random() < hit_ratio
        service = self._lognormal_ms(self.service.server_hit_p50_ms)
        if not hit:
            service += self._lognormal_ms(self.service.miss_penalty_ms)
        latency = service + self._queue_wait_ms(
            utilization, self.service.server_hit_p50_ms
        )
        if client_side:
            latency += self.service.network_base_ms + self._rng.uniform(0.0, 0.6)
        return latency, hit

    def _sample_write_ms(
        self,
        utilization: float,
        isolation: bool,
        read_utilization: float,
        client_side: bool,
    ) -> float:
        """One write-request latency.

        Without isolation the write competes with reads on main-table
        locks: a contention wait proportional to the read load joins the
        tail.  With isolation the write appends to the write table and the
        contention term disappears.
        """
        service = self._lognormal_ms(self.service.write_p50_ms)
        latency = service + self._queue_wait_ms(
            utilization, self.service.write_p50_ms
        )
        # A small fraction of writes roll a new slice and trigger the
        # maintenance check (§III-D), paying a few extra milliseconds; this
        # is what keeps write p99 in the paper's 4-6 ms band while p50
        # stays at ~0.5 ms.
        if self._rng.random() < 0.015:
            latency += self._lognormal_ms(3.0)
        if not isolation:
            # Main-table lock contention: with probability proportional to
            # the read load, the write waits behind read-side critical
            # sections (each ~ a read service time).
            contention_p = min(0.9, 0.65 * read_utilization)
            if self._rng.random() < contention_p:
                # Each wait sits behind a read critical section; long merges
                # and top-K sorts make these heavy (~2 ms each), and a write
                # can queue behind several of them.
                waits = 1 + int(self._rng.expovariate(0.45))
                latency += waits * self._lognormal_ms(
                    2.0 * self.service.server_hit_p50_ms
                )
        if client_side:
            latency += self.service.network_base_ms + self._rng.uniform(0.0, 0.6)
        return latency

    # ------------------------------------------------------------------
    # Figure drivers
    # ------------------------------------------------------------------

    def simulate_queries(
        self,
        traffic_model,
        start_ms: int,
        duration_ms: int,
        step_ms: int,
        fault_schedule: FaultSchedule | None = None,
        client_side: bool = False,
    ) -> SimulationResult:
        """Fig. 16 (and Fig. 17 when a fault schedule is given)."""
        result = SimulationResult()
        for time_ms in range(start_ms, start_ms + duration_ms, step_ms):
            offered_qps = traffic_model.qps_at(time_ms)
            utilization = offered_qps / (
                self.num_nodes * self.service.node_capacity_qps
            )
            hit_ratio = self._hit_ratio_at(time_ms)
            histogram = Histogram()
            hits = 0
            for _ in range(self.samples_per_step):
                latency, hit = self._sample_read_ms(
                    utilization, client_side, hit_ratio
                )
                histogram.record(latency)
                hits += hit
            error_rate = (
                fault_schedule.error_rate_at(time_ms)
                if fault_schedule is not None
                else 0.0
            )
            result.steps.append(
                StepMetrics(
                    time_ms=time_ms,
                    offered_qps=offered_qps,
                    utilization=utilization,
                    p50_ms=histogram.p50,
                    p99_ms=histogram.p99,
                    mean_ms=histogram.mean,
                    error_rate=error_rate,
                    hit_ratio=hits / self.samples_per_step,
                    memory_ratio=self._memory_ratio_at(time_ms),
                )
            )
        return result

    def simulate_writes(
        self,
        traffic_model,
        start_ms: int,
        duration_ms: int,
        step_ms: int,
        isolation: bool = True,
        read_traffic_model=None,
        client_side: bool = False,
    ) -> SimulationResult:
        """Fig. 19: write throughput/latency, with/without isolation."""
        result = SimulationResult()
        for time_ms in range(start_ms, start_ms + duration_ms, step_ms):
            offered_qps = traffic_model.qps_at(time_ms)
            utilization = offered_qps / (
                self.num_nodes * self.service.node_capacity_qps
            )
            read_utilization = (
                read_traffic_model.qps_at(time_ms)
                / (self.num_nodes * self.service.node_capacity_qps)
                if read_traffic_model is not None
                else 0.75
            )
            histogram = Histogram()
            for _ in range(self.samples_per_step):
                histogram.record(
                    self._sample_write_ms(
                        utilization, isolation, read_utilization, client_side
                    )
                )
            result.steps.append(
                StepMetrics(
                    time_ms=time_ms,
                    offered_qps=offered_qps,
                    utilization=utilization,
                    p50_ms=histogram.p50,
                    p99_ms=histogram.p99,
                    mean_ms=histogram.mean,
                    error_rate=0.0,
                    hit_ratio=0.0,
                    memory_ratio=self._memory_ratio_at(time_ms),
                )
            )
        return result

    def latency_table(
        self, samples: int = 20_000, utilization: float = 0.6
    ) -> dict[str, dict[str, float]]:
        """Table II: client/server query latency split by cache hit/miss."""
        histograms = {
            ("client", True): Histogram(),
            ("client", False): Histogram(),
            ("server", True): Histogram(),
            ("server", False): Histogram(),
        }
        for _ in range(samples):
            for client_side in (True, False):
                for forced_hit in (True, False):
                    latency, _ = self._sample_read_ms(
                        utilization, client_side, hit_ratio=1.0 if forced_hit else 0.0
                    )
                    histograms[("client" if client_side else "server", forced_hit)].record(
                        latency
                    )
        table: dict[str, dict[str, float]] = {}
        for (side, hit), histogram in histograms.items():
            row = table.setdefault(side, {})
            prefix = "hit" if hit else "miss"
            row[f"{prefix}_p50_ms"] = histogram.p50
            row[f"{prefix}_p99_ms"] = histogram.p99
            row[f"{prefix}_mean_ms"] = histogram.mean
        return table

    # ------------------------------------------------------------------
    # Cache / memory models (Fig. 18)
    # ------------------------------------------------------------------

    def _hit_ratio_at(self, time_ms: int) -> float:
        """Hit ratio wobbles slightly with traffic (new users at peaks)."""
        base = self.service.cache_hit_ratio
        wobble = 0.01 * math.sin(time_ms / 7.2e6)
        return min(1.0, max(0.0, base + wobble + self._rng.uniform(-0.004, 0.004)))

    def _memory_ratio_at(self, time_ms: int) -> float:
        """Sawtooth between swap target (0.80) and threshold (0.85).

        The swap threads let usage creep to the threshold then cut it back
        to the target (§III-C), so cluster memory hovers near 85 %.
        """
        period_ms = 97 * 60_000.0  # Not commensurate with hourly sampling.
        phase = (time_ms % period_ms) / period_ms
        ratio = 0.80 + 0.05 * phase
        return ratio + self._rng.uniform(-0.005, 0.005)
