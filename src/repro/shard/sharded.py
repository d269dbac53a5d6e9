"""The sharded control plane: N independent shards + cross-shard 2PC.

``repro.core.controller.Controller`` is one object with one WAL — every
audit sweep, reconcile pass and journal replay is O(region), which caps
the reproduction far below the paper's O(10M) routes. The
:class:`ShardedController` partitions the control plane by VNI range
into N :class:`~repro.shard.shard.ControllerShard`\\ s behind a
:class:`~repro.shard.router.ShardRouter`; every single-tenant operation
— onboarding, route/VM churn, snapshots, recovery, audit, reconcile —
touches exactly one shard, so its cost is O(shard) no matter how large
the region grows.

The one operation that genuinely spans shards is a peer-VPC chain whose
endpoints live on different shards. Those go through
:meth:`ShardedController.cross_transaction`, a presumed-abort two-phase
commit over the per-shard journals:

1. **begin** — the coordinator shard (lowest participant id) journals
   ``xtxn-begin`` with the participant list;
2. **prepare** — each participant shard journals an ordinary ``txn``
   record *tagged with the xid* and pushes the batch to its members
   (per-member undo logs, exactly the single-cluster machinery);
3. **decide** — the coordinator journals ``xtxn-commit``: this single
   durable record IS the commit point;
4. **complete** — each participant journals its ``txn-commit`` marker
   and folds the ops into desired state.

A ``CONTROLLER_CRASH`` at any stage recovers to all-committed or
all-aborted: :meth:`ShardedController.recover` scans every shard for
durable decisions, resolves each in-doubt (prepared, unterminated,
xid-tagged) transaction — commit iff the coordinator's ``xtxn-commit``
exists, abort otherwise — and only then replays each shard
independently. Each shard's replay converges its members onto the
recovered intent, so gateway writes pushed during a doomed prepare —
extra routes and extra VM bindings alike — are withdrawn by recovery
itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..cluster.cluster import GatewayCluster
from ..core.controller import (
    RouteEntry,
    StagedOp,
    Transaction,
    TransactionAborted,
    VmEntry,
)
from ..core.splitting import ClusterCapacity, TenantProfile
from ..net.addr import Prefix
from ..sim.engine import Engine, PeriodicTask
from ..tables.errors import TableError
from ..telemetry.stats import CounterSet
from .router import DEFAULT_VNI_SPACE, ShardError, ShardRouter
from .shard import ControllerShard


class CrossShardTransaction:
    """A staged batch whose ops may touch several shards.

    Ops are routed at staging time: the router names the owning shard,
    the shard's split plan names the owning cluster. Only *placed* VNIs
    can participate — a cross-shard transaction updates existing
    tenants' chains, it does not onboard.

    Each op takes an optional *owner* VNI naming whose cluster receives
    the entry (default: the entry's own VNI). A peer-VPC chain spanning
    shards needs this: a gateway resolves the whole chain locally, so
    each endpoint's cluster must hold both its own PEER hop *and* the
    remote tenant's terminal entry — four installs on two shards that
    are either all visible or none."""

    def __init__(self, sharded: "ShardedController"):
        self._sharded = sharded
        #: (shard_id, cluster_id) -> staged ops, in call order.
        self.ops: Dict[Tuple[str, str], List[StagedOp]] = {}

    def _stage(self, owner: int, build: Callable[..., StagedOp], *entry) -> None:
        shard_id = self._sharded.router.shard_of(owner)
        plan = self._sharded.shards[shard_id].controller.plan
        if owner not in plan.assignments:
            raise ShardError(f"VNI {owner} is not placed on shard {shard_id}")
        cluster_id = plan.assignments[owner]
        self.ops.setdefault((shard_id, cluster_id), []).append(
            build(cluster_id, *entry))

    def install_route(self, route: RouteEntry,
                      owner: Optional[int] = None) -> None:
        self._stage(route.vni if owner is None else owner,
                    StagedOp.install_route, route)

    def remove_route(self, vni: int, prefix: Prefix,
                     owner: Optional[int] = None) -> None:
        self._stage(vni if owner is None else owner,
                    StagedOp.remove_route, vni, prefix)

    def install_vm(self, vm: VmEntry, owner: Optional[int] = None) -> None:
        self._stage(vm.vni if owner is None else owner,
                    StagedOp.install_vm, vm)

    def remove_vm(self, vni: int, vm_ip: int, version: int,
                  owner: Optional[int] = None) -> None:
        self._stage(vni if owner is None else owner,
                    StagedOp.remove_vm, vni, vm_ip, version)

    def shard_ids(self) -> List[str]:
        return sorted({sid for sid, _cid in self.ops})


class ShardedController:
    """N :class:`ControllerShard`\\ s behind one facade.

    >>> # assembled via ShardedController.build; see tests/shard/.
    """

    def __init__(self, router: ShardRouter,
                 shards: Dict[str, ControllerShard]):
        if set(shards) != set(router.shard_ids()):
            raise ShardError("shards must cover exactly the router's ids")
        self.router = router
        self.shards = shards
        #: xtxns_committed, xtxns_aborted, xtxn_resolved_commit,
        #: xtxn_resolved_abort, recoveries.
        self.counters = CounterSet()
        #: Fault hook fired at each 2PC stage boundary — op is one of
        #: "xtxn-begin" | "xtxn-prepare" | "xtxn-decide" |
        #: "xtxn-complete", the second argument the shard it fires on.
        self.crash_gate: Optional[Callable[[str, str], None]] = None

    @classmethod
    def build(
        cls,
        num_shards: int,
        capacity: ClusterCapacity,
        cluster_factory: Optional[Callable[[str], GatewayCluster]] = None,
        vni_space: int = DEFAULT_VNI_SPACE,
        segment_bytes: int = 16384,
    ) -> "ShardedController":
        """Assemble a fresh region: router + one shard per range."""
        router = ShardRouter(num_shards, vni_space)
        shards = {
            shard_id: ControllerShard(shard_id, capacity, cluster_factory,
                                      segment_bytes=segment_bytes)
            for shard_id in router.shard_ids()
        }
        return cls(router, shards)

    # -- routing -----------------------------------------------------------

    def shard_for(self, vni: int) -> ControllerShard:
        return self.shards[self.router.shard_of(vni)]

    def cluster_of(self, vni: int) -> str:
        """The owning cluster of a placed VNI (shard-local id)."""
        plan = self.shard_for(vni).controller.plan
        if vni not in plan.assignments:
            raise ShardError(f"VNI {vni} is not placed")
        return plan.assignments[vni]

    # -- single-shard operations (O(shard) by construction) ----------------

    def add_tenant(self, profile: TenantProfile, routes, vms,
                   time: float = 0.0) -> str:
        """Place a tenant on its owning shard; returns the cluster id."""
        return self.shard_for(profile.vni).controller.add_tenant(
            profile, routes, vms, time=time)

    def remove_tenant(self, vni: int, time: float = 0.0) -> int:
        return self.shard_for(vni).controller.remove_tenant(vni, time=time)

    def install_route(self, route: RouteEntry, time: float = 0.0) -> None:
        self.shard_for(route.vni).controller.install_route(
            self.cluster_of(route.vni), route, time=time)

    def remove_route(self, vni: int, prefix: Prefix,
                     time: float = 0.0) -> None:
        self.shard_for(vni).controller.remove_route(
            self.cluster_of(vni), vni, prefix, time=time)

    def install_vm(self, vm: VmEntry, time: float = 0.0) -> None:
        self.shard_for(vm.vni).controller.install_vm(
            self.cluster_of(vm.vni), vm, time=time)

    def remove_vm(self, vni: int, vm_ip: int, version: int,
                  time: float = 0.0) -> None:
        self.shard_for(vni).controller.remove_vm(
            self.cluster_of(vni), vni, vm_ip, version, time=time)

    @contextmanager
    def transaction(self, vni: int, time: float = 0.0) -> Iterator[Transaction]:
        """A single-shard two-phase batch against *vni*'s owning cluster
        — the common case; peer chains that stay on one shard never pay
        the cross-shard protocol."""
        ctl = self.shard_for(vni).controller
        with ctl.transaction(self.cluster_of(vni), time=time) as txn:
            yield txn

    # -- cross-shard transactions ------------------------------------------

    def _crash_point(self, stage: str, shard_id: str) -> None:
        if self.crash_gate is not None:
            self.crash_gate(stage, shard_id)

    @contextmanager
    def cross_transaction(self, time: float = 0.0) -> Iterator[CrossShardTransaction]:
        """Stage a batch spanning shards and push it through the 2PC on
        clean exit. Raising inside the block discards the batch."""
        xtxn = CrossShardTransaction(self)
        yield xtxn
        self._commit_cross(xtxn, time)

    def _commit_cross(self, xtxn: CrossShardTransaction, time: float) -> None:
        if not xtxn.ops:
            return
        participants = sorted(xtxn.ops)
        shard_ids = sorted({sid for sid, _cid in participants})
        if len(shard_ids) == 1 and len(participants) == 1:
            # Degenerate single-cluster batch: the plain transaction
            # machinery gives the same guarantees without the marker
            # traffic.
            (sid, cid), = participants
            ctl = self.shards[sid].controller
            with ctl.transaction(cid, time=time) as txn:
                txn.ops.extend(xtxn.ops[(sid, cid)])
            return
        coordinator = self.shards[shard_ids[0]]
        # Deterministic and globally unique: the coordinator's journal
        # position at begin time, namespaced by its shard id.
        xid = f"{coordinator.shard_id}:{coordinator.journal.next_seq}"
        # Validate removals against desired state before anything is
        # journalled anywhere.
        for (sid, cid), ops in xtxn.ops.items():
            self.shards[sid].controller._check_removals(cid, ops)
        # Stage 0 — begin: the coordinator durably names the participants.
        coordinator.controller._journal_append("xtxn-begin", {
            "xid": xid,
            "participants": [[sid, cid] for sid, cid in participants],
        })
        self._crash_point("xtxn-begin", coordinator.shard_id)
        # Stage 1 — prepare each participant: journal the xid-tagged txn
        # record, then push the batch to every member through the
        # controller's prepare/unwind engine.
        prepared: List[Tuple[str, str, object, list]] = []
        failure: Optional[TableError] = None
        for (sid, cid) in participants:
            ctl = self.shards[sid].controller
            record = ctl._journal_append("txn", {
                "cluster": cid, "xid": xid,
                "ops": [op.payload for op in xtxn.ops[(sid, cid)]],
            })
            undo: list = []
            prepared.append((sid, cid, record, undo))
            failure = ctl._prepare(cid, xtxn.ops[(sid, cid)], undo)
            if failure is not None:
                break
            self._crash_point("xtxn-prepare", sid)
        if failure is not None:
            # Unwind every participant that saw any part of the batch,
            # then record the coordinator's durable abort.
            for sid, _cid, record, undo in reversed(prepared):
                self.shards[sid].controller._abort_prepared(record, undo)
            coordinator.controller._journal_append("xtxn-abort", {"xid": xid})
            self.counters.add("xtxns_aborted")
            raise TransactionAborted(
                f"cross-shard transaction {xid} aborted: {failure}"
            ) from failure
        # Stage 2 — decide: one durable record is the commit point.
        self._crash_point("xtxn-decide", coordinator.shard_id)
        coordinator.controller._journal_append("xtxn-commit", {"xid": xid})
        # Stage 3 — complete: every participant marks its prepare
        # committed and folds the ops into desired state. A crash in
        # here leaves in-doubt prepares that recovery resolves as
        # committed (the decision is already durable).
        for sid, cid, record, _undo in prepared:
            self._crash_point("xtxn-complete", sid)
            self.shards[sid].controller._complete_prepared(
                cid, xtxn.ops[(sid, cid)], record, time)
        self.counters.add("xtxns_committed")

    # -- durability and recovery -------------------------------------------

    def snapshot(self, shard_id: Optional[str] = None) -> None:
        """Checkpoint one shard (or, shard by shard, all of them). Each
        call pauses only its shard — compaction cadence is per shard."""
        targets = [shard_id] if shard_id is not None else sorted(self.shards)
        for sid in targets:
            self.shards[sid].snapshot()

    def in_doubt(self) -> Dict[str, list]:
        """Prepared-but-undecided cross-shard records per shard — empty
        everywhere except in the window between a crash and recovery."""
        out: Dict[str, list] = {}
        for sid in sorted(self.shards):
            records = [r for r in self.shards[sid].journal.in_doubt()
                       if r.payload.get("xid") is not None]
            if records:
                out[sid] = records
        return out

    @classmethod
    def recover_from(cls, crashed: "ShardedController") -> Tuple["ShardedController", int]:
        """Stand up a fresh sharded controller over the survivors: the
        per-shard journals and the gateways (which kept their tables)
        outlive the controller process. Returns ``(recovered, writes)``."""
        shards = {sid: shard.rebuild_for_recovery()
                  for sid, shard in crashed.shards.items()}
        fresh = cls(crashed.router, shards)
        writes = fresh.recover()
        return fresh, writes

    def recover(self) -> int:
        """Resolve in-doubt cross-shard transactions, then replay every
        shard independently (each shard is a self-contained snapshot +
        tail; order does not matter). Returns total gateway writes."""
        decisions: Dict[str, str] = {}
        for sid in sorted(self.shards):
            decisions.update(self.shards[sid].journal.decisions())
        for sid in sorted(self.shards):
            journal = self.shards[sid].journal
            for record in journal.in_doubt():
                xid = record.payload.get("xid")
                if xid is None:
                    # A plain single-shard prepare that never committed:
                    # materialize() already skips it.
                    continue
                if decisions.get(xid) == "commit":
                    journal.append("txn-commit", {"txn_seq": record.seq})
                    self.counters.add("xtxn_resolved_commit")
                else:
                    # Presumed abort: no durable xtxn-commit, no commit.
                    journal.append("txn-abort", {"txn_seq": record.seq})
                    self.counters.add("xtxn_resolved_abort")
        writes = 0
        for sid in sorted(self.shards):
            shard = self.shards[sid]
            writes += shard.controller.recover(shard.journal)
        self.counters.add("recoveries")
        return writes

    # -- inspection --------------------------------------------------------

    @property
    def version(self) -> int:
        return sum(s.controller.version for s in self.shards.values())

    def intent_snapshot(self) -> Dict[str, dict]:
        """Per-shard intent views (each comparable to that shard's
        ``journal.materialize()``)."""
        return {sid: self.shards[sid].controller.intent_snapshot()
                for sid in sorted(self.shards)}

    def consistency_check(self) -> Dict[str, list]:
        """Region-wide check, reported per shard (callers wanting O(shard)
        work per tick use :meth:`reconcile_loop` or the audit driver)."""
        out: Dict[str, list] = {}
        for sid in sorted(self.shards):
            ctl = self.shards[sid].controller
            findings: list = []
            for cid in sorted(ctl.clusters):
                findings.extend(ctl.consistency_check(cid))
            if findings:
                out[sid] = findings
        return out

    def shard_status(self) -> List[dict]:
        """One operator-facing row per shard: VNI range, occupancy, and
        journal/compaction telemetry."""
        rows = []
        for sid in sorted(self.shards):
            lo, hi = self.router.range_of(sid)
            row = {"shard": sid, "vni_lo": lo, "vni_hi": hi}
            row.update(self.shards[sid].telemetry())
            rows.append(row)
        return rows

    # -- background loops --------------------------------------------------

    def reconcile_loop(
        self,
        engine: Engine,
        interval: float,
        max_retries: int = 3,
        backoff: Optional[float] = None,
        until: Optional[float] = None,
    ) -> PeriodicTask:
        """The §6.1 cycle, sharded: each tick reconciles exactly one
        shard (round-robin), so per-tick work is O(shard) and a full
        region pass costs ``len(shards)`` ticks."""
        if backoff is None:
            backoff = interval / 4.0
        order = sorted(self.shards)
        cursor = {"i": 0}

        def tick() -> None:
            sid = order[cursor["i"] % len(order)]
            cursor["i"] += 1
            self.shards[sid].controller.reconcile_tick(engine, max_retries, backoff)

        return engine.schedule_every(interval, tick, until=until)
