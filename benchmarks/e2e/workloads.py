"""The four closed-loop workloads, driven through the unmodified client.

Callers of a profile service (rankers, ingestion jobs) wait for their
reply, so every workload is a **closed loop** with one client thread in
this one process.  A run is split into *epochs*: each epoch is a fresh
default-configured cluster over a copy of the built data, one set-up
sample and an equal share of the measured window.  Inside an epoch the
window is cut into *blocks* of about a second (one pass, on
``point_cold``); metrics are taken over blocks so that a stretch in which
the host slowed the whole VM down does not decide the result (see
``metrics.py``).

Every answer is compared with the oracle, outside the timed interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Iterator

from .dataset import SLOT, TOPK, TYPE_ID, Dataset, Write, read_stream, write_stream
from .harness import Build, Served, Workspace, cpu_s, serve
from .oracle import Oracle

#: Lanes (untraced / traced client) take turns in blocks this long.
BLOCK_S = 1.0
#: The closing write burst is short, so its blocks are too: enough of them
#: that the quieter quarter holds a few without a checkpoint image.
PROBE_BLOCK_S = 0.2
#: ``mixed_rw``: reads issued after each write.
READS_PER_WRITE = 2


@dataclass
class Context:
    workspace: Workspace
    build: Build
    dataset: Dataset
    oracle: Oracle


def _issue(client, keys: list[int], window) -> list:
    """Per-key values (``None`` for a key that failed)."""
    if len(keys) == 1:
        return [client.get_profile_topk(keys[0], SLOT, TYPE_ID, window, k=TOPK)]
    outcome = client.multi_get_topk(keys, SLOT, TYPE_ID, window, k=TOPK)
    return [result.value if result.ok else None for result in outcome.results]


@dataclass
class Block:
    """One stretch of a lane's measured window."""

    reads: tuple[int, int]  # range of the lane's read_ms
    writes: tuple[int, int]  # range of the lane's write_ms
    wall_s: float
    keys_ok: int
    writes_ok: int


@dataclass
class Lane:
    """One client and the samples it collected."""

    name: str
    make_client: Callable[[Served], object]
    #: ``tracer.span`` when this lane's client calls are traced.
    span: Callable | None = None
    client: object = None
    read_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    keys: int = 0
    keys_ok: int = 0
    writes_ok: int = 0
    mismatches: int = 0
    checked: int = 0
    errors: list[str] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    wall_s: float = 0.0
    worker_cpu_s: float = 0.0
    #: CPU of this process over the lane's blocks.
    client_cpu_s: float = 0.0

    def read(
        self, dataset: Dataset, keys: list[int], expected, record=True
    ) -> None:
        """Issue one read request, time it, then check it."""
        before = perf_counter()
        try:
            if self.span is not None and record:
                with self.span("cluster.client", request=len(self.read_ms)):
                    values = _issue(self.client, keys, dataset.window)
            else:
                values = _issue(self.client, keys, dataset.window)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            values = [None] * len(keys)
            self.errors.append(repr(exc))
        elapsed_ms = (perf_counter() - before) * 1000.0
        if record:
            self.read_ms.append(elapsed_ms)
            self.keys += len(keys)
        for profile_id, value in zip(keys, values):
            if value is None:
                continue
            self.keys_ok += record
            self.checked += 1
            if value != expected[profile_id]:
                self.mismatches += 1

    def write(self, write: Write, acked: list[Write]) -> None:
        """Issue one ``add_profiles``; an acked write joins ``acked``."""
        before = perf_counter()
        try:
            regions = self.client.add_profiles(*write.args)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            regions = 0
            self.errors.append(repr(exc))
        self.write_ms.append((perf_counter() - before) * 1000.0)
        if regions == 1:
            self.writes_ok += 1
            acked.append(write)


@dataclass
class EpochReport:
    setup_s: float
    spawn_s: float
    memory: dict[str, float]
    restart_s: list[float]
    #: ``node_stats`` of both workers when the epoch's read window closed.
    fleet: dict[str, dict]


@dataclass
class Run:
    """Everything one workload run measured, before it becomes metrics."""

    workload: str
    lanes: list[Lane]
    epochs: list[EpochReport] = field(default_factory=list)
    #: Whole-dataset oracle sweeps outside the window: profiles read, wrong.
    swept: int = 0
    swept_wrong: int = 0


def _timed(lane: Lane, served: Served, body: Callable[[], None]) -> None:
    """Run ``body`` as one block of ``lane``'s measured window."""
    reads, writes = len(lane.read_ms), len(lane.write_ms)
    keys_ok, writes_ok = lane.keys_ok, lane.writes_ok
    cpu_before = sum(cpu_s(pid) for pid in served.pids())
    own_cpu_before = process_time()
    started = perf_counter()
    body()
    wall_s = perf_counter() - started
    lane.client_cpu_s += process_time() - own_cpu_before
    lane.worker_cpu_s += sum(cpu_s(pid) for pid in served.pids()) - cpu_before
    lane.wall_s += wall_s
    lane.blocks.append(Block(
        (reads, len(lane.read_ms)), (writes, len(lane.write_ms)), wall_s,
        lane.keys_ok - keys_ok, lane.writes_ok - writes_ok,
    ))


def _blocks(
    lanes: list[Lane], served: Served, seconds: float,
    step: Callable[[Lane], None], record: bool = True,
    block_s: float = BLOCK_S,
) -> None:
    """Round-robin the lanes in blocks of ``block_s`` for ``seconds``.

    Blocks shrink on short windows so every lane gets at least two turns.
    """
    block_s = min(block_s, seconds / (2 * len(lanes)))
    end = perf_counter() + seconds
    turn = 0
    while perf_counter() < end:
        lane = lanes[turn % len(lanes)]
        turn += 1
        block_end = min(end, perf_counter() + block_s)

        def block() -> None:
            while perf_counter() < block_end:
                step(lane)

        if record:
            _timed(lane, served, block)
        else:
            block()


def run_workload(
    workload: str, context: Context, seconds: float, lanes: list[Lane],
    epochs: int, keep_last: bool = False, schedule: list[Lane] | None = None,
) -> tuple[Run, Served | None]:
    """Run ``workload`` for ``seconds`` split evenly over ``epochs``.

    ``schedule`` is the order in which lanes take blocks (default: each
    lane in turn).  With ``keep_last`` the last epoch's cluster is
    returned still running (the traced run probes it further); the caller
    stops it.
    """
    schedule = schedule or lanes
    dataset, oracle = context.dataset, context.oracle
    scale = dataset.scale
    reads = read_stream(workload, dataset)
    run = Run(workload, lanes)
    share = seconds / epochs
    served = None
    for epoch in range(epochs):
        served = serve(
            context.workspace, context.build, dataset, oracle,
            warm=workload != "point_cold",
        )
        writes = write_stream(dataset, epoch)
        acked: list[Write] = []

        def read(lane: Lane, record: bool = True) -> None:
            lane.read(dataset, next(reads), oracle.base, record=record)

        def write_then_reads(lane: Lane) -> None:
            lane.write(next(writes), acked)
            for _ in range(READS_PER_WRITE):
                read(lane)

        if workload == "point_cold":
            memory = _cold_passes(run, served, schedule, reads, share, oracle)
        else:
            memory = served.memory()
            for lane in lanes:
                lane.client = lane.make_client(served)
                served.warm_connections(lane.client)
            _blocks(
                lanes, served, scale.warmup_s * len(lanes),
                lambda lane: read(lane, record=False), record=False,
            )
            _blocks(
                schedule, served, share,
                write_then_reads if workload == "mixed_rw" else read,
            )
        fleet = served.cluster.fleet_stats()
        if workload != "mixed_rw":
            # A fresh client: after point_cold's restarts an old one would
            # retry a write on the worker that does not own the key.
            prober = lanes[0]
            prober.client = served.client()
            served.warm_connections(prober.client)
            _blocks(
                [prober], served, scale.write_probe_s,
                lambda lane: lane.write(next(writes), acked),
                block_s=PROBE_BLOCK_S,
            )
        if workload == "mixed_rw" or epoch == epochs - 1:
            # Every acked write must be readable.  Quiesce first: a
            # checkpoint drains the write table under the ack lock, and with
            # no writer left nothing refills it, so no merge can run beside
            # the sweep.  The read-only workloads' bursts are incidental, so
            # only their last epoch pays for this.
            served.checkpoint_now()
            run.swept += len(dataset.profile_ids)
            run.swept_wrong += served.read_all(
                served.client(), oracle.after(acked)
            )
        run.epochs.append(EpochReport(
            setup_s=served.setup_s,
            spawn_s=served.spawn_s,
            memory=memory,
            restart_s=list(served.restart_s),
            fleet=fleet,
        ))
        if not (keep_last and epoch == epochs - 1):
            served.stop()
            served = None
    return run, served


def _cold_passes(
    run: Run, served, schedule, reads: Iterator[list[int]], share, oracle
) -> dict[str, float]:
    """Passes over every profile, each read exactly once while non-resident.

    A fresh spawn is cold, so the first pass needs no restart; later ones
    follow a graceful restart of both workers (which also shows acked
    data surviving).  Restart time is inside the epoch's share of the
    window but outside every latency sample.  Each pass is one block.
    """
    dataset = served.dataset
    started = perf_counter()
    memory: dict[str, float] | None = None
    passes = 0
    while True:
        lane = schedule[passes % len(schedule)]
        lane.client = lane.make_client(served)
        served.warm_connections(lane.client)
        order = next(reads)

        def one_pass() -> None:
            for profile_id in order:
                lane.read(dataset, [profile_id], oracle.base)

        _timed(lane, served, one_pass)
        passes += 1
        run.swept += len(order)
        if memory is None:
            memory = served.memory()
        used = perf_counter() - started
        if passes >= len(run.lanes) and used + used / passes > share:
            return memory
        served.restart()
