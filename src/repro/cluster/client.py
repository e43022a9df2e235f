"""The unified IPS client (§III, §III-G).

Upstream applications talk to IPS through one client that:

* routes each request to the owning node via the region's consistent hash
  ring (refreshing node membership is the region's concern);
* on a node failure, retries with the failed node excluded so the ring
  resolves the next clockwise owner (bounded retries);
* **writes to every region** but **queries only the local region**, the
  multi-region strategy of Fig. 15, failing reads over to another region
  when the local one is down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.query import Query
from ..errors import (
    REGION_FATAL_ERRORS,
    RETRYABLE_ERRORS,
    CircuitOpenError,
    DeadlineExceededError,
    IPSError,
    NoHealthyNodeError,
    RPCError,
    is_retryable,
)
from ..clock import perf_ms
from ..monitoring import BatchQueryMetrics
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..server.batch import (
    BatchKeyResult,
    BatchReadOutcome,
    PaperReads,
    dedup_preserving_order,
)
from .resilience import Deadline, ResilienceConfig, ResilientExecutor

#: Shared retry taxonomy (see :mod:`repro.errors`): the client and the
#: resilience layer classify errors identically.
_RETRYABLE = RETRYABLE_ERRORS
#: Errors that fail the region outright (handled by region failover).
_REGION_FATAL = REGION_FATAL_ERRORS


@dataclass
class ClientStats:
    """Client-side request accounting (feeds the Fig. 17 error-rate curve)."""

    reads: int = 0
    writes: int = 0
    read_errors: int = 0
    write_errors: int = 0
    retries: int = 0
    region_failovers: int = 0
    batch_reads: int = 0
    batch_keys: int = 0
    batch_key_errors: int = 0

    @property
    def error_rate(self) -> float:
        total = self.reads + self.writes
        if total == 0:
            return 0.0
        return (self.read_errors + self.write_errors) / total


class IPSClient(PaperReads):
    """Client bound to a local region within a multi-region deployment."""

    def __init__(
        self,
        deployment,
        local_region: str,
        caller: str = "default",
        max_retries: int = 2,
        tracer=None,
        registry: MetricsRegistry | None = None,
        resilience: ResilienceConfig | None = None,
        region_failover: bool = True,
        slo=None,
    ) -> None:
        if local_region not in deployment.regions:
            raise NoHealthyNodeError(f"unknown local region {local_region!r}")
        self._deployment = deployment
        self.local_region = local_region
        self.caller = caller
        self.max_retries = max_retries
        #: When False, reads never fail over to another region — the
        #: "no resilience" baseline of the Fig. 17 bench.
        self.region_failover = region_failover
        self.stats = ClientStats()
        #: Tracing/metrics default to the deployment's (cluster-wide) ones,
        #: so one tracer sees client -> rpc -> node -> cache -> storage.
        if tracer is None:
            tracer = getattr(deployment, "tracer", NULL_TRACER)
        if registry is None:
            registry = getattr(deployment, "registry", None)
        self.tracer = tracer
        self.registry = registry
        if registry is not None:
            self._read_hist = registry.histogram("client_read_ms", caller=caller)
            self._write_hist = registry.histogram("client_write_ms", caller=caller)
            self._batch_hist = registry.histogram(
                "client_multi_get_ms", caller=caller
            )
        else:
            self._read_hist = self._write_hist = self._batch_hist = None
        #: Resilience layer (deadlines / backoff / hedging / breakers);
        #: ``None`` keeps the legacy bare-retry behaviour.
        self.resilience = (
            ResilientExecutor(deployment.clock, resilience, registry)
            if resilience is not None
            else None
        )
        #: Optional :class:`~repro.obs.slo.SLOEngine`: every finished
        #: request is classified against the declared objectives using
        #: *modelled* (clock-delta) latency, so alert timelines replay
        #: deterministically.
        self.slo = slo
        #: Telemetry for the batched read path (size / dedup / fan-out).
        self.batch_metrics = BatchQueryMetrics(registry)

    # ------------------------------------------------------------------
    # Writes: all regions (Fig. 15)
    # ------------------------------------------------------------------

    def add_profile(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts,
    ) -> int:
        """Write to every available region; returns number of regions written.

        A down region is skipped (weak cross-region consistency is accepted,
        §III-G); the write counts as failed only when *no* region took it.
        """
        return self._write_all_regions(
            "add_profile",
            profile_id,
            timestamp_ms,
            slot,
            type_id,
            fid,
            counts,
        )

    def add_profiles(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fids: Sequence[int],
        counts_list: Sequence,
    ) -> int:
        """Batched write to every available region."""
        return self._write_all_regions(
            "add_profiles",
            profile_id,
            timestamp_ms,
            slot,
            type_id,
            fids,
            counts_list,
        )

    def _write_all_regions(self, method: str, profile_id: int, *args) -> int:
        self.stats.writes += 1
        written = 0
        start = perf_ms()
        clock = self._deployment.clock
        started_clock_ms = clock.now_ms()
        with self.tracer.span(
            f"client.{method}", profile=profile_id, caller=self.caller
        ) as span:
            for region in self._deployment.regions.values():
                try:
                    self._call_in_region(
                        region, profile_id, method,
                        lambda node: getattr(node, method)(
                            profile_id, *args, caller=self.caller
                        ),
                    )
                    written += 1
                except (_REGION_FATAL + _RETRYABLE + (RPCError,)):
                    continue
            span.tag(regions_written=written)
        if self._write_hist is not None:
            self._write_hist.observe(perf_ms() - start)
        if written == 0:
            self.stats.write_errors += 1
        if self.slo is not None:
            self.slo.observe(
                self.caller,
                "write",
                clock.now_ms() - started_clock_ms,
                ok=written > 0,
            )
        return written

    # ------------------------------------------------------------------
    # Reads: local region, failover on outage
    # ------------------------------------------------------------------

    #: The paper's read names (:class:`PaperReads`) take no host keyword
    #: here: the client's caller identity is its own.
    _OPTIONS = ()

    def _read_one(self, profile_id: int, query: Query, options: dict):
        """The point driver: retry around the ring, hedge, raise the error.

        The request is the one-id ``multi_get``; its key's failure is
        raised inside the retry loop, so a retryable one is retried as a
        failed call is.
        """
        method = f"get_profile_{query.kind}"

        def call(node):
            answer = node.multi_get([profile_id], query, caller=self.caller)
            return answer[profile_id].rows()

        self.stats.reads += 1
        last_error: Exception | None = None
        start = perf_ms()
        clock = self._deployment.clock
        started_clock_ms = clock.now_ms()
        ok = False
        deadline = (
            self.resilience.deadline() if self.resilience is not None else None
        )
        with self.tracer.span(
            f"client.{method}", profile=profile_id, caller=self.caller
        ):
            try:
                for index, region in enumerate(self._read_region_order()):
                    if index > 0:
                        self.stats.region_failovers += 1
                    try:
                        result = self._call_in_region(
                            region, profile_id, method, call,
                            deadline=deadline, hedge=True,
                        )
                        ok = True
                        return result
                    except DeadlineExceededError:
                        # No budget left: surface instead of failing over.
                        self.stats.read_errors += 1
                        self.resilience.record_deadline_exceeded()
                        raise
                    except (_REGION_FATAL + _RETRYABLE + (RPCError,)) as error:
                        last_error = error
                        continue
                self.stats.read_errors += 1
                assert last_error is not None
                raise last_error
            finally:
                if self._read_hist is not None:
                    self._read_hist.observe(perf_ms() - start)
                if self.slo is not None:
                    self.slo.observe(
                        self.caller,
                        "read",
                        clock.now_ms() - started_clock_ms,
                        ok=ok,
                    )

    # ------------------------------------------------------------------
    # Batched reads: dedup + shard-grouped fan-out + partial failure
    # ------------------------------------------------------------------

    def _read_many(
        self, profile_ids: Sequence[int], query: Query, options: dict
    ) -> BatchReadOutcome:
        return self.multi_get(profile_ids, query)

    def multi_get(
        self, profile_ids: Sequence[int], query: Query
    ) -> BatchReadOutcome:
        """The batch driver: ``query`` over many profiles, never raising.

        Results are positionally aligned with ``profile_ids``; each carries
        an ok/error status instead of raising, so one bad shard degrades
        only its keys (the partial-failure contract of the batch path).

        1. **Dedup** — repeated profile ids are resolved once and fanned
           back to every requesting position.
        2. **Shard grouping** — per region, keys are grouped by owning
           node via the hash ring so one RPC carries all keys destined
           for that node instead of N round-trips.
        3. **Retry / failover** — a node-level transient failure retries
           the affected keys around the ring (bounded, like the single-key
           path); keys a region cannot serve fail over to the next region
           in :meth:`_read_region_order`.
        4. **Partial failure** — keys unresolved after every region carry
           their last error as a per-key status; the batch never raises.
        """
        method = f"multi_get_{query.kind}"
        requested = list(profile_ids)
        unique = dedup_preserving_order(requested)
        self.stats.batch_reads += 1
        self.stats.batch_keys += len(requested)
        self.batch_metrics.observe_batch(len(requested), len(unique))
        resolved: dict[int, BatchKeyResult] = {}
        errors: dict[int, BatchKeyResult] = {}
        pending = unique
        shard_calls = 0
        start = perf_ms()
        clock = self._deployment.clock
        started_clock_ms = clock.now_ms()
        deadline = (
            self.resilience.deadline() if self.resilience is not None else None
        )
        with self.tracer.span(
            f"client.{method}",
            keys=len(requested),
            unique=len(unique),
            caller=self.caller,
        ) as span:
            for index, region in enumerate(self._read_region_order()):
                if not pending:
                    break
                if deadline is not None and deadline.expired:
                    # The shared fan-out budget is gone: remaining keys
                    # fail fast instead of starting another region pass.
                    self._fail_pending_on_deadline(pending, method, errors)
                    break
                if index > 0:
                    self.stats.region_failovers += 1
                pending, calls = self._batch_region(
                    region, pending, resolved, errors, method, query, deadline
                )
                shard_calls += calls
            span.tag(shard_calls=shard_calls)
        if self._batch_hist is not None:
            self._batch_hist.observe(perf_ms() - start)
        self.batch_metrics.observe_fanout(shard_calls)
        results = []
        for profile_id in requested:
            result = resolved.get(profile_id)
            if result is None:
                result = errors.get(profile_id)
            assert result is not None, f"key {profile_id} left unanswered"
            results.append(result)
        failed = sum(1 for result in results if not result.ok)
        self.stats.batch_key_errors += failed
        self.batch_metrics.observe_key_errors(failed)
        if self.slo is not None:
            # The batch contract is per-key: a batch with any failed key
            # burns availability budget (partial results are still an SLA
            # miss for the affected upstream request).
            self.slo.observe(
                self.caller,
                "multi_get",
                clock.now_ms() - started_clock_ms,
                ok=failed == 0,
            )
        return BatchReadOutcome(results)

    def _fail_pending_on_deadline(
        self,
        pending: list[int],
        method: str,
        errors: dict[int, BatchKeyResult],
    ) -> None:
        """Mark every still-pending key failed with a deadline error."""
        assert self.resilience is not None
        budget = self.resilience.config.deadline_ms or 0.0
        self.resilience.record_deadline_exceeded()
        for profile_id in pending:
            errors[profile_id] = BatchKeyResult.failure(
                profile_id, DeadlineExceededError(method, budget)
            )

    def _batch_region(
        self,
        region,
        profile_ids: list[int],
        resolved: dict[int, BatchKeyResult],
        errors: dict[int, BatchKeyResult],
        method: str,
        query: Query,
        deadline: Deadline | None = None,
    ) -> tuple[list[int], int]:
        """Serve as many keys as possible from one region.

        Returns the keys this region could not serve (for failover) and
        the number of per-shard RPCs issued.  Every returned key has a
        per-key error recorded in ``errors``.  The request ``deadline`` is
        shared by every shard call: once it expires, unserved keys fail
        with :class:`DeadlineExceededError` instead of spawning more RPCs.
        """
        executor = self.resilience
        exclude = executor.open_nodes() if executor is not None else set()
        remaining = list(profile_ids)
        deferred: list[int] = []
        shard_calls = 0
        for attempt in range(self.max_retries + 1):
            if not remaining:
                break
            if deadline is not None and deadline.expired:
                self._fail_pending_on_deadline(remaining, method, errors)
                return deferred, shard_calls
            groups: dict[str, list[int]] = {}
            nodes_by_id: dict[str, object] = {}
            unroutable: list[int] = []
            for profile_id in remaining:
                try:
                    node = region.node_for(profile_id, exclude=exclude or None)
                except (_REGION_FATAL + (RPCError,)) as error:
                    errors[profile_id] = BatchKeyResult.failure(profile_id, error)
                    unroutable.append(profile_id)
                    continue
                groups.setdefault(node.node_id, []).append(profile_id)
                nodes_by_id[node.node_id] = node
            deferred.extend(unroutable)
            next_remaining: list[int] = []
            for node_id, keys in groups.items():
                if deadline is not None and deadline.expired:
                    self._fail_pending_on_deadline(keys, method, errors)
                    continue
                shard_calls += 1
                try:
                    if executor is not None:
                        executor.admit(node_id)
                    per_key = nodes_by_id[node_id].multi_get(
                        keys, query, caller=self.caller
                    )
                except _RETRYABLE as error:
                    # Transient node failure: exclude it and retry these
                    # keys against the next ring owner.
                    if executor is not None and not isinstance(
                        error, CircuitOpenError
                    ):
                        executor.record_failure(node_id)
                    exclude.add(node_id)
                    self.stats.retries += 1
                    for profile_id in keys:
                        errors[profile_id] = BatchKeyResult.failure(
                            profile_id, error
                        )
                    next_remaining.extend(keys)
                    continue
                except (_REGION_FATAL + (RPCError,)) as error:
                    # Region-level failure (quota, no healthy node): stop
                    # trying these keys here, let the next region serve them.
                    for profile_id in keys:
                        errors[profile_id] = BatchKeyResult.failure(
                            profile_id, error
                        )
                    deferred.extend(keys)
                    continue
                if executor is not None:
                    executor.record_success(node_id)
                for profile_id in keys:
                    result = per_key.get(profile_id)
                    if result is None:
                        result = BatchKeyResult.failure(
                            profile_id,
                            NoHealthyNodeError(
                                f"node {node_id} dropped key {profile_id}"
                            ),
                        )
                    if result.ok:
                        resolved[profile_id] = result.listed()
                    else:
                        errors[profile_id] = result
                        next_remaining.append(profile_id)
            if (
                executor is not None
                and next_remaining
                and attempt < self.max_retries
            ):
                executor.backoff_before_retry(attempt, deadline)
            remaining = next_remaining
        # Keys still remaining exhausted their in-region retries; their
        # last error is already recorded.
        return remaining + deferred, shard_calls

    def _read_region_order(self):
        """Local region first, then the others as failover candidates."""
        regions = self._deployment.regions
        ordered = [regions[self.local_region]]
        if self.region_failover:
            ordered.extend(
                region
                for name, region in regions.items()
                if name != self.local_region
            )
        return ordered

    # ------------------------------------------------------------------
    # Shared routing with node-level retry
    # ------------------------------------------------------------------

    def _call_in_region(
        self,
        region,
        profile_id: int,
        operation: str,
        call: Callable,
        deadline: Deadline | None = None,
        hedge: bool = False,
    ):
        """``call(node)`` on the owning node, retrying around the ring.

        With a resilience layer attached, each attempt also passes the
        per-node circuit breaker, waits out a jittered exponential backoff
        between retries, honours the request deadline (``operation`` names
        it), and, with ``hedge`` (point reads), may hedge a slow
        successful call against another replica.
        """
        executor = self.resilience
        exclude = executor.open_nodes() if executor is not None else set()
        attempts = self.max_retries + 1
        if executor is not None:
            attempts = max(attempts, executor.config.max_attempts)
        last_error: Exception | None = None
        for attempt in range(attempts):
            if deadline is not None:
                deadline.check(operation)
            node = region.node_for(profile_id, exclude=exclude or None)
            node_id = node.node_id
            try:
                if executor is not None:
                    executor.admit(node_id)
                result = call(node)
            except IPSError as error:
                if executor is not None and not isinstance(
                    error, CircuitOpenError
                ):
                    executor.record_failure(node_id)
                if not is_retryable(error):
                    raise
                last_error = error
                exclude.add(node_id)
                if attempt + 1 < attempts:
                    # Only count attempts that actually get a retry; the
                    # final failed attempt just surfaces the error.
                    self.stats.retries += 1
                    if executor is not None and not isinstance(
                        error, CircuitOpenError
                    ):
                        executor.backoff_before_retry(attempt, deadline)
                continue
            if executor is not None:
                executor.record_success(node_id)
                if hedge:
                    result = self._maybe_hedge(
                        region, profile_id, node, result, exclude, call
                    )
            return result
        assert last_error is not None
        raise last_error

    def _maybe_hedge(
        self, region, profile_id: int, primary, result, exclude: set[str],
        call: Callable,
    ):
        """Hedge a slow successful read against the next ring replica.

        Fires only over an RPC-proxied node (the modelled per-call latency
        is the trigger signal); the faster result wins.
        """
        executor = self.resilience
        rpc = getattr(primary, "rpc", None)
        if rpc is None:
            return result
        # Trigger on the *modelled* latency only (network model + injected
        # chaos latency): client_ms also carries measured wall-clock server
        # time, which would make hedge decisions non-reproducible.
        latency_ms = rpc.stats.last_client_ms - rpc.stats.last_server_ms
        executor.observe_latency(latency_ms)
        if not executor.should_hedge(latency_ms):
            return result
        span = self.tracer.current()
        if span is not None:
            # Hedged requests are tail-sampling candidates: the hedge
            # firing *is* the signal that the primary was slow.
            span.tag(hedged=1)
        try:
            alternate = region.node_for(
                profile_id, exclude=exclude | {primary.node_id}
            )
        except IPSError:
            return result  # No second replica available; keep the result.
        try:
            hedge_result = call(alternate)
        except IPSError:
            executor.record_hedge(won=False)
            return result
        alternate_rpc = getattr(alternate, "rpc", None)
        hedge_ms = (
            alternate_rpc.stats.last_client_ms - alternate_rpc.stats.last_server_ms
            if alternate_rpc is not None
            else latency_ms
        )
        won = hedge_ms < latency_ms
        executor.record_hedge(won=won)
        return hedge_result if won else result

    def resilience_summary(self) -> dict:
        """Resilience counters + breaker states (dashboards, Fig. 17 bench)."""
        if self.resilience is None:
            return {}
        summary = dict(self.resilience.stats.as_dict())
        summary["breaker_states"] = self.resilience.breaker_states()
        return summary
