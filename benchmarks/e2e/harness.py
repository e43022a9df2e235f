"""Cluster lifecycle for the benchmark: build once, serve copies, reap all.

The dataset is built **once per invocation** through the real write path
(a 2-worker :class:`~repro.net.cluster.ProcessCluster`, the unmodified
``IPSClient.add_profiles``, then a graceful shutdown) and every serving
epoch gets a ``copytree`` of that root under a fresh cluster with the
**shipped defaults**.  Only the load raises ``checkpoint_interval``: at
the shipped 256 records every few calls trigger a full resident-set image
under the ack lock, which makes bulk loading quadratic.

Every process and directory is owned by a :class:`Workspace`, which kills
what is left and removes its directory on exit, failure or Ctrl-C.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.net.cluster import ProcessCluster
from repro.storage.filestore import FileKVStore

from .dataset import ATTRIBUTES, SLOT, TABLE, TOPK, TYPE_ID, Dataset
from .oracle import Oracle
from .stats import percentile

WORKERS = 2
WARM_BATCH = 64
LOAD_BLOCK_CALLS = 128
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """The benchmark could not do what it set out to (not a wrong answer)."""


# ----------------------------------------------------------------------
# This process and its workers: CPU pinning, /proc readings
# ----------------------------------------------------------------------


def pin_to_one_cpu() -> int | None:
    """Pin this process — and so every worker it spawns — to one CPU.

    The closed loop is sequential (client, then one worker, then the
    client again), so it never has more than about one core's worth of
    work.  Left to the scheduler on a 2-vCPU VM, each hop wakes a halted
    vCPU through the hypervisor, and that cost moved read p50 by 30 % from
    one minute to the next; on one CPU a hop is a context switch.  The
    price: a change that overlaps work across workers cannot show a gain
    here.  Returns the CPU, or ``None`` where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def rss_kb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return float(line.split()[1])
    raise BenchmarkError(f"no VmRSS for pid {pid}")


def cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# ----------------------------------------------------------------------
# Workspace: owns every directory and process the benchmark creates
# ----------------------------------------------------------------------


class Workspace:
    """Scratch directory inside the checkout plus every cluster started."""

    def __init__(self, parent: Path) -> None:
        parent.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
        self._clusters: list[ProcessCluster] = []
        self._pids: set[int] = set()
        self._dirs = 0

    def new_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.root / f"{self._dirs:03d}-{label}"

    def start_cluster(self, data_root: Path, **options) -> ProcessCluster:
        cluster = ProcessCluster(
            WORKERS, data_root, table=TABLE, attributes=ATTRIBUTES, **options
        )
        self._clusters.append(cluster)
        self.note_pids(cluster)
        cluster.wait_for_members(WORKERS)
        return cluster

    def note_pids(self, cluster: ProcessCluster) -> None:
        self._pids.update(proc.pid for proc in cluster.processes().values())

    def stop_cluster(self, cluster: ProcessCluster) -> None:
        """Graceful shutdown; every worker must exit 0 (flush + checkpoint)."""
        codes = cluster.shutdown(graceful=True)
        self._clusters.remove(cluster)
        if any(codes.values()):
            raise BenchmarkError(f"workers did not shut down cleanly: {codes}")

    def kill_cluster(self, cluster: ProcessCluster) -> None:
        # shutdown(graceful=False) sends nothing and waits out its timeout
        # before killing, so kill first.
        for node_id in cluster.worker_ids():
            cluster.kill_worker(node_id)
        cluster.shutdown(graceful=False)
        self._clusters.remove(cluster)

    def close(self) -> None:
        """Kill whatever still runs, check nothing survived, drop the files."""
        for cluster in list(self._clusters):
            self.kill_cluster(cluster)
        survivors = [pid for pid in self._pids if _alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        shutil.rmtree(self.root, ignore_errors=True)
        if survivors:
            raise BenchmarkError(f"worker pids survived shutdown: {survivors}")

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Build: the dataset through the real write path
# ----------------------------------------------------------------------


@dataclass
class Build:
    root: Path
    #: Spawn + load + graceful shutdown, with the load taken at the pace
    #: of its quieter blocks (as every other timing here: see metrics.py).
    seconds: float
    #: The same as the clock saw it.
    wall_s: float
    #: Live value bytes in the stores per profile (what a reader fetches).
    stored_kb_per_profile: float
    #: ``kv.log`` bytes per live value byte: what re-flushing left behind.
    log_over_live: float
    spawn_s: float


def build_dataset(workspace: Workspace, dataset: Dataset) -> Build:
    started = perf_counter()
    root = workspace.new_dir("build")
    cluster = workspace.start_cluster(root, checkpoint_interval=1 << 30)
    spawn_s = perf_counter() - started
    client = cluster.client()
    calls = 0
    block_started = perf_counter()
    s_per_call: list[float] = []
    for write in dataset.load_writes():
        if client.add_profiles(*write.args) != 1:
            raise BenchmarkError(f"load write for {write.profile_id} not acked")
        calls += 1
        if calls % LOAD_BLOCK_CALLS == 0:
            now = perf_counter()
            s_per_call.append((now - block_started) / LOAD_BLOCK_CALLS)
            block_started = now
    shutdown_started = perf_counter()
    workspace.stop_cluster(cluster)
    shutdown_s = perf_counter() - shutdown_started
    live = logged = 0
    for node_id in cluster.worker_ids():
        store = FileKVStore(root / node_id / "kv.log", durability="batch")
        live += store.total_value_bytes()
        logged += store.log_bytes()
        store.close()
    profiles = len(dataset.profile_ids) + len(dataset.reserved_ids)
    return Build(
        root=root,
        seconds=spawn_s + calls * percentile(s_per_call, 25.0) + shutdown_s,
        wall_s=perf_counter() - started,
        stored_kb_per_profile=live / 1024.0 / profiles,
        log_over_live=logged / live,
        spawn_s=spawn_s,
    )


# ----------------------------------------------------------------------
# Serve: one epoch's cluster over a copy of the built data
# ----------------------------------------------------------------------


@dataclass
class Served:
    """One serving epoch: a fresh default-configured cluster over a copy."""

    workspace: Workspace
    dataset: Dataset
    cluster: ProcessCluster
    data_root: Path
    setup_s: float
    spawn_s: float
    rss_at_spawn_kb: float
    restart_s: list[float] = field(default_factory=list)

    def pids(self) -> list[int]:
        return [proc.pid for proc in self.cluster.processes().values()]

    def client(self, transport_factory=None):
        """The unmodified ``IPSClient`` with its own connections."""
        if transport_factory is None:
            return self.cluster.client()
        deployment = self.cluster.deployment(transport_factory=transport_factory)
        return self.cluster.client(deployment)

    def warm_connections(self, client) -> None:
        """One unmeasured call per worker, on reserved ids only."""
        owners: dict[str, int] = {}
        for profile_id in self.dataset.reserved_ids:
            owners.setdefault(self.cluster.primary_for(profile_id), profile_id)
        if len(owners) < WORKERS:
            raise BenchmarkError("reserved ids do not reach every worker")
        for profile_id in owners.values():
            client.get_profile_topk(
                profile_id, SLOT, TYPE_ID, self.dataset.window, k=TOPK
            )

    def read_all(self, client, expected: dict) -> int:
        """Read every profile in batches; returns how many differ."""
        wrong = 0
        ids = self.dataset.profile_ids
        for offset in range(0, len(ids), WARM_BATCH):
            batch = ids[offset:offset + WARM_BATCH]
            outcome = client.multi_get_topk(
                batch, SLOT, TYPE_ID, self.dataset.window, k=TOPK
            )
            for profile_id, result in zip(batch, outcome.results):
                if not result.ok or result.value != expected[profile_id]:
                    wrong += 1
        return wrong

    def memory(self) -> dict[str, float]:
        """Bytes per profile, taken while every profile is resident."""
        stats = self.cluster.fleet_stats()
        resident = sum(node["resident"] for node in stats.values())
        wanted = len(self.dataset.profile_ids)
        if len(stats) != WORKERS or resident < wanted:
            raise BenchmarkError(
                f"expected >= {wanted} resident profiles, saw {resident}"
            )
        memory = sum(node["memory_bytes"] for node in stats.values())
        rss = sum(rss_kb(pid) for pid in self.pids())
        return {
            "resident_kb_per_profile": memory / 1024.0 / resident,
            "rss_kb_per_profile": (rss - self.rss_at_spawn_kb) / resident,
        }

    def restart(self) -> None:
        """Gracefully stop and respawn both workers over their data dirs.

        Leaves every profile non-resident; acked data must survive.
        """
        started = perf_counter()
        procs = self.cluster.processes()
        for proc in procs.values():
            proc.terminate()
        # One SIGTERM each: a second one can land after the interpreter
        # has put the default handler back and turn a clean exit into -15.
        for node_id, proc in procs.items():
            code = proc.wait(timeout=30.0)
            if code != 0:
                raise BenchmarkError(f"{node_id} exited {code} on restart")
        # The registry drops a graceful leaver at once, so the next two
        # registrations are the respawned workers.
        for node_id in self.cluster.worker_ids():
            self.cluster.restart_worker(node_id)
        self.workspace.note_pids(self.cluster)
        self.cluster.wait_for_members(WORKERS)
        self.restart_s.append(perf_counter() - started)

    def checkpoint_now(self) -> None:
        """Force a checkpoint (merge + flush + image) on every worker."""
        region = self.cluster.region()
        try:
            for node in region.nodes.values():
                if not node.checkpoint_now()["checkpointed"]:
                    raise BenchmarkError(f"{node.node_id} skipped a checkpoint")
        finally:
            region.close()

    def stop(self) -> None:
        """End the epoch: the copy is thrown away, so nothing needs flushing."""
        self.workspace.kill_cluster(self.cluster)
        shutil.rmtree(self.data_root, ignore_errors=True)


def serve(
    workspace: Workspace, build: Build, dataset: Dataset, oracle: Oracle,
    *, warm: bool,
) -> Served:
    """Copy, spawn, recover and (for hot workloads) make everything resident.

    The whole of it is one ``setup_s`` sample.  The warm pass doubles as a
    correctness check: a wrong answer here aborts the run.
    """
    started = perf_counter()
    data_root = workspace.new_dir("serve")
    shutil.copytree(build.root, data_root)
    cluster = workspace.start_cluster(data_root)
    spawn_s = perf_counter() - started
    rss = sum(rss_kb(proc.pid) for proc in cluster.processes().values())
    served = Served(
        workspace, dataset, cluster, data_root,
        setup_s=0.0, spawn_s=spawn_s, rss_at_spawn_kb=rss,
    )
    if warm:
        client = served.client()
        served.warm_connections(client)
        wrong = served.read_all(client, oracle.base)
        if wrong:
            raise BenchmarkError(f"{wrong} profiles wrong after recovery")
    served.setup_s = perf_counter() - started
    return served

