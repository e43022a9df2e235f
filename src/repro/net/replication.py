"""R-way shard replication for the process cluster: deltas, hints, repair.

Three mechanisms keep every key range alive when a worker dies, layered
from cheapest to most thorough:

1. **Delta shipping** (Monolith-style): every client write a worker
   accepts is also enqueued — as a sequence-numbered
   :class:`~repro.net.wire.WriteDelta`, the logical write itself — for the
   other R−1 owners of that key, and a background loop drains the
   per-peer queues in batches.  Replication bytes scale with the write
   rate, never with profile size.
2. **Hinted handoff**: the per-peer queue does not care whether the peer
   is currently alive.  Deltas for a dead peer simply accumulate
   (bounded) and drain automatically when it re-registers — the rejoining
   worker catches up from exact deltas, in time proportional to what it
   missed.
3. **Anti-entropy repair** (RecD-style): a periodic duty cycle walks
   owned keys, exchanges per-slice content digests with each replica, and
   ships only the slice blocks whose digests differ.  Digest-identical
   blocks are never re-sent — content addressing is what keeps repair
   bytes ≪ dataset bytes — and repair is the backstop for anything the
   delta stream lost (queue overflow, a worker that was dead longer than
   its queue bound).

**Placement** is computed on a ring over the *roster* — live members plus
the registry's dead-but-remembered tombstones — so the owner set of a key
is stable across a crash.  Client routing walks the live ring, which is
exactly the roster walk with dead nodes skipped: the node a client fails
over to *is* the first surviving replica, so promotion needs no extra
handshake.  Consistency is the paper's §III-G contract: stale-but-
available, convergent because writes are commutative increments.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable

from ..cluster.hashring import ConsistentHashRing
from ..core.profile import ProfileData
from ..errors import NoHealthyNodeError
from ..storage.serialization import ProfileCodec
from .wire import WriteDelta, write_delta_wire_bytes

#: Sequence numbers are persisted as reservations of this many at a time;
#: a crashed origin skips at most one block and can never reuse a number.
SEQ_RESERVE_BLOCK = 10_000

_DIGEST_SIZE = 16


def block_digest(blob: bytes) -> bytes:
    """Content address of one encoded slice block."""
    return hashlib.blake2b(blob, digest_size=_DIGEST_SIZE).digest()


def digest_table(profile: ProfileData) -> list[tuple[int, int, bytes]]:
    """``(start_ms, end_ms, digest)`` for every slice, newest first."""
    table = []
    for profile_slice in profile.slices:
        blob = ProfileCodec.encode_slice(profile_slice)
        table.append(
            (profile_slice.start_ms, profile_slice.end_ms, block_digest(blob))
        )
    return table


def diff_blocks(
    profile: ProfileData, peer_digests: Iterable[tuple[int, int, bytes]]
) -> tuple[list[bytes], int, int]:
    """Slice blocks the peer is missing, by content digest.

    Returns ``(blobs_to_ship, matched_blocks, matched_bytes)`` — matched
    blocks are digest-identical on both sides and are *not* shipped; their
    accounting is the dedup saving the bench gates on.
    """
    have = {bytes(entry[2]) for entry in peer_digests}
    ship: list[bytes] = []
    matched_blocks = 0
    matched_bytes = 0
    for profile_slice in profile.slices:
        blob = ProfileCodec.encode_slice(profile_slice)
        if block_digest(blob) in have:
            matched_blocks += 1
            matched_bytes += len(blob)
        else:
            ship.append(blob)
    return ship, matched_blocks, matched_bytes


def install_blocks(profile: ProfileData, blobs: list[bytes]) -> int:
    """Install shipped slice blocks, dropping any overlapping local slice.

    Overlap resolution is whole-block: the shipped (acting-primary) copy
    of a time range wins over whatever the local replica had there, which
    is the stale-but-available contract — repair converges replicas to
    the acting primary's state, slice by slice.  Returns bytes installed.
    """
    incoming = [ProfileCodec.decode_slice(blob) for blob in blobs]
    if not incoming:
        return 0
    kept = [
        existing
        for existing in profile.slices
        if not any(
            existing.start_ms < new.end_ms and new.start_ms < existing.end_ms
            for new in incoming
        )
    ]
    merged = sorted(kept + incoming, key=lambda s: s.start_ms, reverse=True)
    profile.replace_slices(merged)
    return sum(len(blob) for blob in blobs)


class ReplicationLog:
    """Outbound side: per-peer delta queues with durable sequence numbers.

    One monotonic sequence per origin worker, persisted as reserved
    blocks (:data:`SEQ_RESERVE_BLOCK`) so a crash skips numbers instead of
    reusing them.  Queues are bounded; overflow drops the oldest delta and
    leaves the hole for anti-entropy repair to close.
    """

    def __init__(
        self,
        node_id: str,
        state: "_StateFile | None" = None,
        *,
        max_queue: int = 50_000,
    ) -> None:
        self.node_id = node_id
        self._state = state
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._queues: dict[str, deque[WriteDelta]] = {}
        reserved = state.seq_reserved if state is not None else 0
        #: Crash-safe restart point: everything below ``reserved`` may
        #: have been handed out by a previous incarnation.
        self._next_seq = reserved + 1
        self._reserved = reserved
        self.overflows = 0
        self.enqueued = 0

    def append(
        self,
        peers: Iterable[str],
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts: tuple[int, ...],
    ) -> int:
        """Assign one sequence number and queue the delta for ``peers``."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            if seq > self._reserved:
                self._reserved += SEQ_RESERVE_BLOCK
                if self._state is not None:
                    self._state.save_seq(self._reserved)
            delta = WriteDelta(
                seq, profile_id, timestamp_ms, slot, type_id, fid, counts
            )
            for peer in peers:
                queue = self._queues.setdefault(peer, deque())
                if len(queue) >= self.max_queue:
                    queue.popleft()
                    self.overflows += 1
                queue.append(delta)
                self.enqueued += 1
            return seq

    def batch_for(self, peer: str, max_deltas: int) -> list[WriteDelta]:
        """Peek (not pop) the next batch for a peer; :meth:`ack` removes."""
        with self._lock:
            queue = self._queues.get(peer)
            if not queue:
                return []
            return [queue[i] for i in range(min(len(queue), max_deltas))]

    def ack(self, peer: str, through_seq: int) -> int:
        """Drop queued deltas with ``seq <= through_seq``; returns count."""
        with self._lock:
            queue = self._queues.get(peer)
            dropped = 0
            while queue and queue[0].seq <= through_seq:
                queue.popleft()
                dropped += 1
            return dropped

    def pending(self, peer: str) -> int:
        with self._lock:
            queue = self._queues.get(peer)
            return len(queue) if queue else 0

    def lag(self) -> dict[str, int]:
        """Per-peer queued-delta lag — the bounded-staleness gauge."""
        with self._lock:
            return {peer: len(q) for peer, q in self._queues.items() if q}

    def peers(self) -> list[str]:
        with self._lock:
            return [peer for peer, q in self._queues.items() if q]

    def drop_peer(self, peer: str) -> int:
        """Forget a peer that left the roster for good."""
        with self._lock:
            queue = self._queues.pop(peer, None)
            return len(queue) if queue else 0

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._next_seq - 1


class ReplicaApplier:
    """Inbound side: idempotent apply with a per-origin cursor.

    Each origin's delta stream arrives in sequence order (possibly with
    retransmitted prefixes after a failed ship); anything at or below the
    cursor is a duplicate and is skipped.  Cursors persist lazily — a
    replica crash can double-apply a small window, which the weak
    consistency contract absorbs.
    """

    def __init__(
        self,
        apply_fn: Callable[[WriteDelta], None],
        state: "_StateFile | None" = None,
    ) -> None:
        self._apply_fn = apply_fn
        self._state = state
        self._lock = threading.Lock()
        self._cursors: dict[str, int] = (
            dict(state.cursors) if state is not None else {}
        )
        self.applied = 0
        self.duplicates = 0

    def apply(self, origin: str, deltas: list[WriteDelta]) -> int:
        """Apply in seq order, skip duplicates; returns the new cursor."""
        with self._lock:
            cursor = self._cursors.get(origin, 0)
            for delta in sorted(deltas, key=lambda d: d.seq):
                if delta.seq <= cursor:
                    self.duplicates += 1
                    continue
                self._apply_fn(delta)
                cursor = delta.seq
                self.applied += 1
            self._cursors[origin] = cursor
            if self._state is not None:
                self._state.save_cursors(self._cursors)
            return cursor

    def cursor(self, origin: str) -> int:
        with self._lock:
            return self._cursors.get(origin, 0)


class _StateFile:
    """``replication.state``: seq reservation + inbound cursors, one JSON."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.seq_reserved = 0
        self.cursors: dict[str, int] = {}
        try:
            raw = json.loads(path.read_text())
            self.seq_reserved = int(raw.get("seq_reserved", 0))
            self.cursors = {
                str(k): int(v) for k, v in raw.get("cursors", {}).items()
            }
        except (OSError, ValueError):
            pass  # absent or torn: start fresh — seqs only ever skip ahead
        self._lock = threading.Lock()

    def save_seq(self, reserved: int) -> None:
        with self._lock:
            self.seq_reserved = reserved
            self._write()

    def save_cursors(self, cursors: dict[str, int]) -> None:
        with self._lock:
            self.cursors = dict(cursors)
            self._write()

    def _write(self) -> None:
        tmp = self.path.with_suffix(".state.tmp")
        payload = json.dumps(
            {"seq_reserved": self.seq_reserved, "cursors": self.cursors}
        )
        try:
            tmp.write_text(payload)
            tmp.replace(self.path)
        except OSError:
            pass  # best effort: losing it only skips a seq block on restart


class PeerView:
    """One roster entry as the replication layer tracks it."""

    __slots__ = ("node_id", "host", "port", "live")

    def __init__(self, node_id: str, host: str, port: int, live: bool) -> None:
        self.node_id = node_id
        self.host = host
        self.port = port
        self.live = live


class WorkerReplication:
    """Everything one worker does to keep its peers' replicas warm.

    Owns the placement ring (over the roster), the outbound
    :class:`ReplicationLog`, the inbound :class:`ReplicaApplier`, the
    per-peer transports, and the repair duty cycle.  The hosting
    :class:`~repro.net.worker.WorkerServer` calls in from four places:
    the write path (:meth:`on_client_write`), the membership refresh
    (:meth:`update_membership`), the ship loop (:meth:`ship_once`), and
    the repair loop (:meth:`repair_round`).
    """

    def __init__(
        self,
        node,
        *,
        factor: int = 0,
        data_dir: str | Path | None = None,
        transport_factory: Callable[[str, str, int], Any] | None = None,
        max_queue: int = 50_000,
        ship_batch: int = 256,
        repair_keys_per_round: int = 256,
        virtual_nodes: int = 64,
    ) -> None:
        self.node = node
        self.node_id = node.node_id
        #: 0 = adopt the registry's factor on the first membership update.
        self.factor = factor
        self._factor_fixed = factor > 0
        self.ship_batch = ship_batch
        self.repair_keys_per_round = repair_keys_per_round
        self._virtual_nodes = virtual_nodes
        state = None
        if data_dir is not None:
            state = _StateFile(Path(data_dir) / "replication.state")
        self.log = ReplicationLog(self.node_id, state, max_queue=max_queue)
        self.applier = ReplicaApplier(self._apply_delta, state)
        self._transport_factory = transport_factory
        self._lock = threading.Lock()
        self._ring = ConsistentHashRing(virtual_nodes)
        self._peers: dict[str, PeerView] = {}
        self._transports: dict[str, Any] = {}
        self._endpoints: dict[str, tuple[str, int]] = {}
        self._hinted: set[str] = set()
        self._repair_rotation = 0
        # -- counters ---------------------------------------------------
        self.deltas_shipped = 0
        self.delta_bytes = 0
        self.ship_failures = 0
        self.hints_drained = 0
        self.repair_rounds = 0
        self.repair_blocks_shipped = 0
        self.repair_bytes_shipped = 0
        self.repair_blocks_matched = 0
        self.repair_bytes_matched = 0
        self.installs = 0
        self.install_bytes = 0

    # ------------------------------------------------------------------
    # Membership / placement
    # ------------------------------------------------------------------

    def update_membership(self, snapshot: dict) -> None:
        """Adopt a registry ``members()`` snapshot (roster + factor)."""
        if not self._factor_fixed:
            self.factor = int(snapshot.get("replication_factor", 1))
        roster = snapshot.get("roster")
        if roster is None:
            roster = [dict(m, live=True) for m in snapshot.get("members", [])]
        with self._lock:
            fresh = {
                entry["node_id"]: PeerView(
                    entry["node_id"], entry["host"], entry["port"],
                    bool(entry.get("live", True)),
                )
                for entry in roster
            }
            if set(fresh) != set(self._peers):
                ring = ConsistentHashRing(self._virtual_nodes)
                for node_id in fresh:
                    ring.add_node(node_id)
                self._ring = ring
                for node_id in list(self._transports):
                    if node_id not in fresh:
                        self._transports.pop(node_id).close()
                        self._endpoints.pop(node_id, None)
                for gone in set(self._peers) - set(fresh):
                    self.log.drop_peer(gone)
                    self._hinted.discard(gone)
            self._peers = fresh

    @property
    def enabled(self) -> bool:
        return self.factor >= 2

    def owners(self, profile_id: int) -> list[str]:
        """The roster-ring owner set; first entry is the stable primary."""
        with self._lock:
            ring = self._ring
        if len(ring) == 0:
            return []
        try:
            return ring.nodes_for(profile_id, self.factor)
        except NoHealthyNodeError:
            return []

    def acting_primary(self, profile_id: int) -> str | None:
        """First *live* owner — the node clients fail over to."""
        with self._lock:
            peers = self._peers
        for owner in self.owners(profile_id):
            view = peers.get(owner)
            if view is not None and view.live:
                return owner
        return None

    def _peer_snapshot(self) -> dict[str, PeerView]:
        with self._lock:
            return dict(self._peers)

    def _transport_for(self, view: PeerView):
        if self._transport_factory is None:
            return None
        with self._lock:
            endpoint = (view.host, view.port)
            existing = self._transports.get(view.node_id)
            if existing is not None and self._endpoints.get(
                view.node_id
            ) == endpoint:
                return existing
            if existing is not None:
                existing.close()
            transport = self._transport_factory(view.node_id, *endpoint)
            self._transports[view.node_id] = transport
            self._endpoints[view.node_id] = endpoint
            return transport

    # ------------------------------------------------------------------
    # Write path (outbound deltas)
    # ------------------------------------------------------------------

    def on_client_write(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts,
    ) -> None:
        """Queue one accepted client write for the key's other owners."""
        if not self.enabled:
            return
        others = [o for o in self.owners(profile_id) if o != self.node_id]
        if not others:
            return
        vector = tuple(self.node.engine._normalize_counts(counts))
        peers = self._peer_snapshot()
        for peer in others:
            view = peers.get(peer)
            if view is not None and not view.live:
                self._hinted.add(peer)
        self.log.append(
            others, profile_id, timestamp_ms, slot, type_id, fid, vector
        )

    def ship_once(self) -> int:
        """Drain one batch per live peer; hints for dead peers wait."""
        shipped = 0
        peers = self._peer_snapshot()
        for peer in self.log.peers():
            view = peers.get(peer)
            if view is None or not view.live:
                continue  # hinted handoff: hold until the peer rejoins
            transport = self._transport_for(view)
            if transport is None:
                continue
            batch = self.log.batch_for(peer, self.ship_batch)
            if not batch:
                continue
            try:
                reply = transport.call(
                    "replicate_apply", self.node_id, batch
                )
            except Exception:  # noqa: BLE001 - peer flapping: retry later
                self.ship_failures += 1
                continue
            acked = int(reply["acked"]) if isinstance(reply, dict) else 0
            dropped = self.log.ack(peer, acked)
            shipped += dropped
            self.deltas_shipped += dropped
            self.delta_bytes += sum(
                write_delta_wire_bytes(d) for d in batch[:dropped]
            )
            if peer in self._hinted:
                self.hints_drained += dropped
                if self.log.pending(peer) == 0:
                    self._hinted.discard(peer)
        return shipped

    # ------------------------------------------------------------------
    # Inbound apply
    # ------------------------------------------------------------------

    def _apply_delta(self, delta: WriteDelta) -> None:
        self.node.add_profile(
            delta.profile_id,
            delta.timestamp_ms,
            delta.slot,
            delta.type_id,
            delta.fid,
            delta.counts,
            caller="replication",
        )

    def apply_remote(self, origin: str, deltas: list) -> dict:
        """``replicate_apply`` handler body: idempotent apply + ack."""
        normalized = [
            d if isinstance(d, WriteDelta) else WriteDelta(*d) for d in deltas
        ]
        cursor = self.applier.apply(origin, normalized)
        return {"acked": cursor}

    # ------------------------------------------------------------------
    # Anti-entropy repair
    # ------------------------------------------------------------------

    def owned_profile_ids(self) -> set[int]:
        """Every key this worker holds: flushed images + dirty residents."""
        ids = set(self.node.persistence.stored_profile_ids())
        ids.update(self.node.cache.dirty.dirty_ids())
        return ids

    def local_digests(self, profile_id: int) -> list[tuple[int, int, bytes]]:
        profile = self.node._resident_profile(profile_id)
        if profile is None:
            return []
        lock = self.node.cache.entry_lock(profile_id)
        if lock is not None:
            with lock:
                return digest_table(profile)
        return digest_table(profile)

    def repair_digests(self, profile_ids: list[int]) -> dict:
        """Wire handler: my digest tables for the requested keys."""
        return {pid: self.local_digests(pid) for pid in profile_ids}

    def repair_install(self, profile_id: int, blobs: list[bytes]) -> dict:
        """Wire handler: adopt shipped slice blocks from an acting primary."""
        profile = self.node._resident_profile(profile_id)
        if profile is None:
            profile = self.node.engine.table.get_or_create(profile_id)
            self.node.cache.put(profile, dirty=False)
        lock = self.node.cache.entry_lock(profile_id)
        if lock is not None:
            with lock:
                installed = install_blocks(profile, blobs)
        else:
            installed = install_blocks(profile, blobs)
        if installed:
            # mark_dirty fires the node's result-cache invalidation hook.
            self.node.cache.mark_dirty(profile_id)
            self.installs += len(blobs)
            self.install_bytes += installed
        return {"installed": len(blobs), "bytes": installed}

    def repair_round(self) -> dict:
        """Reconcile one peer: digest exchange, ship only differing blocks.

        Round-robins over live peers.  Repair flows from the serving copy
        outward: for keys where *this* worker is the acting primary, the
        full diff is shipped.  A non-primary owner ships only to a peer
        whose digest table for the key is **empty** — bootstrapping a
        fresh joiner that just became an owner of a range it never held
        (installing into an empty profile cannot overwrite anything) —
        never to a peer that already holds data, so a stale rejoiner can
        never clobber the serving copy.
        """
        stats = {"peer": None, "keys": 0, "shipped": 0, "bytes": 0}
        if not self.enabled:
            return stats
        peers = self._peer_snapshot()
        candidates = sorted(
            p for p, view in peers.items()
            if view.live and p != self.node_id
        )
        if not candidates:
            return stats
        peer = candidates[self._repair_rotation % len(candidates)]
        self._repair_rotation += 1
        view = peers[peer]
        transport = self._transport_for(view)
        if transport is None:
            return stats
        targets = []
        for pid in sorted(self.owned_profile_ids()):
            if len(targets) >= self.repair_keys_per_round:
                break
            if peer in self.owners(pid):
                targets.append(pid)
        if not targets:
            return stats
        stats["peer"] = peer
        stats["keys"] = len(targets)
        try:
            peer_tables = transport.call("repair_digests", targets)
        except Exception:  # noqa: BLE001 - peer flapping: next round retries
            self.ship_failures += 1
            return stats
        self.repair_rounds += 1
        for pid in targets:
            profile = self.node._resident_profile(pid)
            if profile is None:
                continue
            raw = peer_tables.get(pid, [])
            peer_digests = [
                (int(s), int(e), bytes(d)) for s, e, d in raw
            ]
            if self.acting_primary(pid) != self.node_id and peer_digests:
                # Only the serving copy may reconcile a peer that already
                # holds data; as a mere replica we only bootstrap holes.
                continue
            lock = self.node.cache.entry_lock(pid)
            if lock is not None:
                with lock:
                    blobs, matched, matched_bytes = diff_blocks(
                        profile, peer_digests
                    )
            else:
                blobs, matched, matched_bytes = diff_blocks(
                    profile, peer_digests
                )
            self.repair_blocks_matched += matched
            self.repair_bytes_matched += matched_bytes
            if not blobs:
                continue
            try:
                transport.call("repair_install", pid, blobs)
            except Exception:  # noqa: BLE001
                self.ship_failures += 1
                continue
            shipped_bytes = sum(len(b) for b in blobs)
            self.repair_blocks_shipped += len(blobs)
            self.repair_bytes_shipped += shipped_bytes
            stats["shipped"] += len(blobs)
            stats["bytes"] += shipped_bytes
        return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def handoff_depth(self) -> int:
        """Deltas currently queued for peers the roster marks dead."""
        peers = self._peer_snapshot()
        return sum(
            depth
            for peer, depth in self.log.lag().items()
            if peer in peers and not peers[peer].live
        )

    def stats(self) -> dict:
        return {
            "factor": self.factor,
            "enabled": self.enabled,
            "last_seq": self.log.last_seq,
            "pending": self.log.lag(),
            "handoff_depth": self.handoff_depth(),
            "deltas_enqueued": self.log.enqueued,
            "deltas_shipped": self.deltas_shipped,
            "delta_bytes": self.delta_bytes,
            "queue_overflows": self.log.overflows,
            "ship_failures": self.ship_failures,
            "hints_drained": self.hints_drained,
            "applies": self.applier.applied,
            "apply_duplicates": self.applier.duplicates,
            "repair_rounds": self.repair_rounds,
            "repair_blocks_shipped": self.repair_blocks_shipped,
            "repair_bytes_shipped": self.repair_bytes_shipped,
            "repair_blocks_matched": self.repair_blocks_matched,
            "repair_bytes_matched": self.repair_bytes_matched,
            "installs": self.installs,
            "install_bytes": self.install_bytes,
        }

    def heartbeat_report(self) -> dict:
        """Compact lag report piggybacked on registry heartbeats."""
        return {
            "lag": self.log.lag(),
            "handoff_depth": self.handoff_depth(),
            "last_seq": self.log.last_seq,
            "delta_bytes": self.delta_bytes,
            "repair_bytes": self.repair_bytes_shipped,
        }

    def close(self) -> None:
        with self._lock:
            transports, self._transports = self._transports, {}
        for transport in transports.values():
            transport.close()
