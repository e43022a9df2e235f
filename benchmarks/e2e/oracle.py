"""In-process reference the cluster's answers must equal exactly.

A plain :class:`~repro.server.node.IPSNode` on the ``python`` kernel
backend — the repo's semantic reference — with no isolation buffer, no
durability and an in-memory store, fed the same writes the cluster
acked, in ack order.  Sharing none of the socket, WAL, cache-load or
numpy paths is what makes agreement meaningful.
"""

from __future__ import annotations

from typing import Iterable

from repro.config import TableConfig
from repro.core.query import FeatureResult
from repro.server.node import IPSNode
from repro.storage.kvstore import InMemoryKVStore

from .dataset import ATTRIBUTES, SLOT, TABLE, TOPK, TYPE_ID, Dataset, Write


def _reference_node() -> IPSNode:
    config = TableConfig(name=TABLE, attributes=ATTRIBUTES, kernel_backend="python")
    return IPSNode("oracle", config, InMemoryKVStore(), isolation_enabled=False)


class Oracle:
    """Expected top-K per profile for the loaded dataset, plus overlays."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._load_by_profile: dict[int, list[Write]] = {}
        for write in dataset.load_writes():
            self._load_by_profile.setdefault(write.profile_id, []).append(write)
        #: Expected answer for every loaded profile with no later writes.
        self.base = self._answers(self._load_by_profile, ())

    def slices_per_profile(self) -> int:
        node = _reference_node()
        profile_id = self.dataset.profile_ids[0]
        for write in self._load_by_profile[profile_id]:
            node.add_profiles(*write.args)
        return node.cache.get(profile_id).slice_count()

    def _answers(
        self, load: dict[int, list[Write]], later: Iterable[Write]
    ) -> dict[int, list[FeatureResult]]:
        node = _reference_node()
        for writes in load.values():
            for write in writes:
                node.add_profiles(*write.args)
        for write in later:
            node.add_profiles(*write.args)
        ids = list(load)
        outcome = node.multi_get_topk(
            ids, SLOT, TYPE_ID, self.dataset.window, k=TOPK
        )
        return {profile_id: outcome[profile_id].value for profile_id in ids}

    def after(self, acked: list[Write]) -> dict[int, list[FeatureResult]]:
        """Expected answers once ``acked`` landed on top of the dataset.

        Only the touched profiles are rebuilt; the rest keep ``base``.
        """
        touched = {write.profile_id for write in acked}
        load = {pid: self._load_by_profile[pid] for pid in sorted(touched)}
        expected = dict(self.base)
        expected.update(self._answers(load, acked))
        return expected
