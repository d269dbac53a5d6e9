"""One control-plane shard: its own controller, journal and clusters.

A :class:`ControllerShard` is a full, self-contained control plane over
one VNI range — its own :class:`~repro.core.splitting.TableSplitter`
(cluster ids are namespaced by the shard id, so ``s03-A`` can never
collide with ``s07-A``), its own :class:`~repro.cluster.ecmp
.VniSteeredBalancer`, and crucially its own
:class:`~repro.core.journal.Journal` segment stream: snapshot and
compaction cadence is a per-shard decision, and recovery replays shards
independently (and in any order).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cluster.cluster import GatewayCluster
from ..cluster.ecmp import VniSteeredBalancer
from ..core.controller import Controller
from ..core.journal import Journal
from ..core.splitting import ClusterCapacity, TableSplitter


class ControllerShard:
    """One shard of the sharded control plane.

    >>> shard = ControllerShard("s00", ClusterCapacity(100, 100, 1e12))
    >>> shard.journal.segment_count
    1
    """

    def __init__(
        self,
        shard_id: str,
        capacity: ClusterCapacity,
        cluster_factory: Optional[Callable[[str], GatewayCluster]] = None,
        journal: Optional[Journal] = None,
        segment_bytes: int = 16384,
    ):
        self.shard_id = shard_id
        self.capacity = capacity
        self.cluster_factory = cluster_factory
        self.segment_bytes = segment_bytes
        self.journal = journal if journal is not None else Journal(
            segment_bytes=segment_bytes)
        self.controller = Controller(
            TableSplitter(capacity, cluster_prefix=shard_id),
            VniSteeredBalancer(),
            journal=self.journal,
        )
        if cluster_factory is not None:
            self.controller.set_cluster_factory(cluster_factory)

    # -- convenience passthroughs -----------------------------------------

    @property
    def clusters(self):
        return self.controller.clusters

    @property
    def counters(self):
        return self.controller.counters

    def tenant_count(self) -> int:
        return len(self.controller.plan.assignments)

    def entry_counts(self) -> dict:
        routes = sum(len(r) for r in self.controller._routes.values())
        vms = sum(len(v) for v in self.controller._vms.values())
        return {"routes": routes, "vms": vms}

    # -- durability ---------------------------------------------------------

    def snapshot(self) -> None:
        """Checkpoint this shard and prune its covered segments — the
        first checkpoint is an O(shard) pause, every later one folds only
        the journal tail; never an O(region) one."""
        self.controller.snapshot()

    def telemetry(self) -> dict:
        """Journal/compaction counters plus shard occupancy."""
        out = self.journal.telemetry()
        out.update(self.entry_counts())
        out["tenants"] = self.tenant_count()
        out["clusters"] = len(self.controller.clusters)
        return out

    def rebuild_for_recovery(self) -> "ControllerShard":
        """A fresh shard over this shard's journal and surviving clusters
        — the gateways kept their tables; only the controller process
        died. The caller resolves in-doubt cross-shard transactions
        before invoking :meth:`~repro.core.controller.Controller.recover`.
        """
        fresh = ControllerShard(
            self.shard_id, self.capacity, self.cluster_factory,
            journal=self.journal, segment_bytes=self.segment_bytes,
        )
        fresh.controller.clusters = dict(self.controller.clusters)
        return fresh
