"""Resilience layer: deadlines, backoff, hedged reads, circuit breakers.

The paper's availability story (Fig. 17: error ceiling ~0.025 % through
machine crashes, network blips and a data-center failover) rests on the
client absorbing faults rather than surfacing them.  This module holds the
four mechanisms that do the absorbing, shared by :class:`~repro.cluster
.client.IPSClient` and anything else that talks to nodes over the RPC
seam:

* :class:`Deadline` — a per-request time budget created once at the edge
  and propagated through every retry, failover and fan-out shard call, so
  a request fails fast instead of multiplying timeouts;
* :class:`BackoffPolicy` — exponential backoff with decorrelated jitter
  between retries of retryable errors (taxonomy:
  :func:`repro.errors.is_retryable`);
* :class:`HedgePolicy` — after a successful call whose modelled latency
  exceeds a trailing percentile threshold, a hedge request is issued to a
  different replica and the faster result wins (tail-latency insurance);
* :class:`CircuitBreaker` — per-node closed/open/half-open breaker; open
  breakers are excluded from ring routing, and half-open probes readmit
  a node after it recovers.

Everything is driven by the injected :class:`~repro.clock.Clock` and
seeded RNGs, so chaos runs are deterministic and replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..clock import Clock, SimulatedClock
from ..errors import CircuitOpenError, DeadlineExceededError
from ..obs.registry import Histogram, MetricsRegistry

# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class Deadline:
    """A fixed point in clock time by which a request must complete.

    Created once per client request and passed down through retries and
    fan-out, so every layer shares one budget instead of stacking its own
    timeout on top (the batch-query architecture's deadline-bounded
    fan-out).
    """

    __slots__ = ("_clock", "deadline_ms", "budget_ms")

    def __init__(self, clock: Clock, budget_ms: float) -> None:
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_ms}")
        self._clock = clock
        self.budget_ms = float(budget_ms)
        self.deadline_ms = clock.now_ms() + budget_ms

    def remaining_ms(self) -> float:
        return self.deadline_ms - self._clock.now_ms()

    @property
    def expired(self) -> bool:
        return self.remaining_ms() <= 0

    def check(self, operation: str) -> None:
        """Raise :class:`DeadlineExceededError` when the budget is gone."""
        if self.expired:
            raise DeadlineExceededError(operation, self.budget_ms)


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with jitter.

    ``delay_ms(attempt, rng)`` grows geometrically from ``base_ms`` and is
    multiplied by a uniform draw in ``[1 - jitter, 1]`` so synchronized
    clients fan out their retries.  Attempt 0 is the first *retry* (the
    initial call never waits).
    """

    base_ms: float = 5.0
    multiplier: float = 2.0
    max_ms: float = 500.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base_ms <= 0 or self.multiplier < 1.0 or self.max_ms < self.base_ms:
            raise ValueError(f"invalid backoff policy {self}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_ms(self, attempt: int, rng: random.Random) -> float:
        ceiling = min(self.max_ms, self.base_ms * self.multiplier ** attempt)
        return ceiling * (1.0 - self.jitter * rng.random())


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------

#: Breaker states (the canonical three-state machine).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-node closed/open/half-open circuit breaker.

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — calls are rejected locally (no RPC) until
      ``recovery_ms`` of clock time has passed.
    * **half-open** — one probe call is admitted; success closes the
      breaker, failure re-opens it for another ``recovery_ms``.

    All timing is clock-driven so simulated runs are deterministic.
    """

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = 5,
        recovery_ms: float = 5_000.0,
        on_transition=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {failure_threshold}")
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.recovery_ms = recovery_ms
        self._on_transition = on_transition
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at_ms = 0
        self._probe_in_flight = False
        self.transitions: list[tuple[str, str]] = []

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def _transition(self, new_state: str) -> None:
        if new_state == self._state:
            return
        old = self._state
        self._state = new_state
        self.transitions.append((old, new_state))
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock.now_ms() - self._opened_at_ms >= self.recovery_ms
        ):
            self._transition(HALF_OPEN)
            self._probe_in_flight = False

    def allow(self) -> bool:
        """True when a call may be sent to this node right now.

        In half-open state only the first caller gets a probe slot;
        everyone else is rejected until the probe settles.
        """
        self._maybe_half_open()
        if self._state == CLOSED:
            return True
        if self._state == HALF_OPEN and not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._probe_in_flight = False
        if self._state in (HALF_OPEN, OPEN):
            self._transition(CLOSED)

    def record_failure(self) -> None:
        self._maybe_half_open()
        self._probe_in_flight = False
        if self._state == HALF_OPEN:
            self._opened_at_ms = self._clock.now_ms()
            self._transition(OPEN)
            return
        self._consecutive_failures += 1
        if self._state == CLOSED and (
            self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at_ms = self._clock.now_ms()
            self._transition(OPEN)


# ----------------------------------------------------------------------
# Hedging
# ----------------------------------------------------------------------


class HedgePolicy:
    """Tail-latency hedging trigger.

    Observed per-call modelled latencies feed a log-bucket histogram; once
    ``min_samples`` have been seen, any call slower than the trailing
    ``percentile`` (and at least ``min_threshold_ms``) triggers a hedge
    request to a different replica.  The faster of the two results wins.
    """

    def __init__(
        self,
        percentile: float = 95.0,
        min_samples: int = 50,
        min_threshold_ms: float = 1.0,
        threshold_ms: float | None = None,
    ) -> None:
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        self.percentile = percentile
        self.min_samples = min_samples
        self.min_threshold_ms = min_threshold_ms
        #: Fixed threshold override; ``None`` derives it from the histogram.
        self.threshold_ms = threshold_ms
        self._hist = Histogram()

    def observe(self, latency_ms: float) -> None:
        self._hist.record(max(0.0, latency_ms))

    def current_threshold_ms(self) -> float | None:
        """The latency above which a hedge fires, or None if not yet armed."""
        if self.threshold_ms is not None:
            return self.threshold_ms
        if self._hist.count < self.min_samples:
            return None
        return max(self.min_threshold_ms, self._hist.percentile(self.percentile))

    def should_hedge(self, latency_ms: float) -> bool:
        threshold = self.current_threshold_ms()
        return threshold is not None and latency_ms > threshold


# ----------------------------------------------------------------------
# Configuration + stats + executor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the whole layer; one object wires a client."""

    #: Per-request time budget; ``None`` disables deadlines.
    deadline_ms: float | None = 2_000.0
    #: Total attempts per region (initial call + retries of retryables).
    max_attempts: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Hedging of slow successful reads; ``None`` disables hedging.
    hedge: HedgePolicy | None = field(default_factory=HedgePolicy)
    breaker_failure_threshold: int = 5
    breaker_recovery_ms: float = 5_000.0
    seed: int = 0


@dataclass
class ResilienceStats:
    """Counters the dashboard and Fig. 17 bench report."""

    retries: int = 0
    backoff_waits: int = 0
    backoff_wait_ms: float = 0.0
    hedges_fired: int = 0
    hedges_won: int = 0
    breaker_rejections: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    breaker_half_opens: int = 0
    deadline_exceeded: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "retries": float(self.retries),
            "backoff_waits": float(self.backoff_waits),
            "backoff_wait_ms": self.backoff_wait_ms,
            "hedges_fired": float(self.hedges_fired),
            "hedges_won": float(self.hedges_won),
            "breaker_rejections": float(self.breaker_rejections),
            "breaker_opens": float(self.breaker_opens),
            "breaker_closes": float(self.breaker_closes),
            "breaker_half_opens": float(self.breaker_half_opens),
            "deadline_exceeded": float(self.deadline_exceeded),
        }


class ResilientExecutor:
    """Shared breaker/backoff/hedge state for one client.

    The client keeps its routing logic; the executor owns the per-node
    breakers, the backoff RNG, the hedge policy, and the metrics plumbing,
    exposing small primitives the client's retry loops call:

    * :meth:`open_nodes` — breaker-excluded nodes for ring routing;
    * :meth:`admit` / :meth:`record_success` / :meth:`record_failure` —
      breaker bookkeeping around each RPC;
    * :meth:`backoff_before_retry` — jittered wait charged to the
      simulated clock (and the request deadline);
    * :meth:`observe_latency` / :meth:`should_hedge` — hedging trigger.
    """

    def __init__(
        self,
        clock: Clock,
        config: ResilienceConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock
        self.config = config if config is not None else ResilienceConfig()
        self.stats = ResilienceStats()
        self._rng = random.Random(self.config.seed)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._registry = registry
        if registry is not None:
            self._retry_counter = registry.counter("resilience_retries")
            self._hedge_fired = registry.counter("resilience_hedges", outcome="fired")
            self._hedge_won = registry.counter("resilience_hedges", outcome="won")
            self._deadline_counter = registry.counter("resilience_deadline_exceeded")
            self._breaker_reject = registry.counter("resilience_breaker_rejections")
        else:
            self._retry_counter = None
            self._hedge_fired = None
            self._hedge_won = None
            self._deadline_counter = None
            self._breaker_reject = None

    # -- deadlines -------------------------------------------------------

    def deadline(self) -> Deadline | None:
        """A fresh per-request deadline (None when deadlines are off)."""
        if self.config.deadline_ms is None:
            return None
        return Deadline(self.clock, self.config.deadline_ms)

    def record_deadline_exceeded(self) -> None:
        self.stats.deadline_exceeded += 1
        if self._deadline_counter is not None:
            self._deadline_counter.inc()

    # -- breakers --------------------------------------------------------

    def breaker_for(self, node_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(node_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self.clock,
                failure_threshold=self.config.breaker_failure_threshold,
                recovery_ms=self.config.breaker_recovery_ms,
                on_transition=lambda old, new, node_id=node_id: (
                    self._on_breaker_transition(node_id, old, new)
                ),
            )
            self._breakers[node_id] = breaker
        return breaker

    def _on_breaker_transition(self, node_id: str, old: str, new: str) -> None:
        if new == OPEN:
            self.stats.breaker_opens += 1
        elif new == CLOSED:
            self.stats.breaker_closes += 1
        elif new == HALF_OPEN:
            self.stats.breaker_half_opens += 1
        if self._registry is not None:
            self._registry.counter(
                "resilience_breaker_transitions", node=node_id, to=new
            ).inc()

    def open_nodes(self) -> set[str]:
        """Nodes whose breaker currently rejects calls (the health view)."""
        return {
            node_id
            for node_id, breaker in self._breakers.items()
            if breaker.state == OPEN
        }

    def admit(self, node_id: str) -> None:
        """Raise :class:`CircuitOpenError` unless the breaker admits a call."""
        if not self.breaker_for(node_id).allow():
            self.stats.breaker_rejections += 1
            if self._breaker_reject is not None:
                self._breaker_reject.inc()
            raise CircuitOpenError(node_id)

    def record_success(self, node_id: str) -> None:
        self.breaker_for(node_id).record_success()

    def record_failure(self, node_id: str) -> None:
        self.breaker_for(node_id).record_failure()

    def breaker_states(self) -> dict[str, str]:
        """Current state per node (dashboard / monitoring view)."""
        return {
            node_id: breaker.state
            for node_id, breaker in sorted(self._breakers.items())
        }

    # -- backoff ---------------------------------------------------------

    def backoff_before_retry(self, attempt: int, deadline: Deadline | None) -> None:
        """Wait out the jittered backoff for retry ``attempt``.

        The wait is charged to the simulated clock when one is active, so
        it consumes the request deadline exactly like real elapsed time
        would; under a wall clock no real sleep is performed (the repro is
        in-process and synchronous — sleeping would only slow tests).
        """
        delay_ms = self.config.backoff.delay_ms(attempt, self._rng)
        if deadline is not None:
            delay_ms = min(delay_ms, max(0.0, deadline.remaining_ms()))
        self.stats.retries += 1
        self.stats.backoff_waits += 1
        self.stats.backoff_wait_ms += delay_ms
        if self._retry_counter is not None:
            self._retry_counter.inc()
        if isinstance(self.clock, SimulatedClock) and delay_ms > 0:
            self.clock.advance(max(1, round(delay_ms)))

    # -- hedging ---------------------------------------------------------

    def observe_latency(self, latency_ms: float) -> None:
        if self.config.hedge is not None:
            self.config.hedge.observe(latency_ms)

    def should_hedge(self, latency_ms: float) -> bool:
        return (
            self.config.hedge is not None
            and self.config.hedge.should_hedge(latency_ms)
        )

    def record_hedge(self, won: bool) -> None:
        self.stats.hedges_fired += 1
        if self._hedge_fired is not None:
            self._hedge_fired.inc()
        if won:
            self.stats.hedges_won += 1
            if self._hedge_won is not None:
                self._hedge_won.inc()
