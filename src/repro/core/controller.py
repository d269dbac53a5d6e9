"""The central controller (§4.2-4.3, §6.1).

Owns the desired table state, drives placement (via the splitter and the
VNI-steered balancer), downloads tables to gateways before they go
online, runs periodic consistency checks ("table entry inconsistency
between the controller and the gateways may occur ... due to
software/hardware bugs, misconfiguration or insufficient gateway
memory"), and generates probe packets before admitting user traffic.

Crash safety: when constructed with a :class:`~repro.core.journal.Journal`,
every mutation is journalled *before* it is pushed to any gateway, so a
controller that dies mid-update (``FaultKind.CONTROLLER_CRASH``) can be
rebuilt with :meth:`Controller.recover` — replaying snapshot + tail and
re-syncing the surviving gateways back to the journalled intent.
Batched updates go through :meth:`Controller.transaction`, a two-phase
(prepare-all / commit) push that rolls back already-prepared members on
a mid-batch fault, so no member — including the hot backup — is ever
left half-updated.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from ..cluster.cluster import GatewayCluster, NodeState
from ..cluster.ecmp import VniSteeredBalancer
from ..dataplane.gateway_logic import ForwardAction
from ..net.addr import Prefix
from ..net.headers import Ethernet, IPv4, UDP, ETHERTYPE_IPV4, PROTO_UDP
from ..net.packet import InnerFrame, Packet
from ..sim.engine import Engine, PeriodicTask
from ..tables.errors import TableError
from ..tables.vm_nc import NcBinding
from ..tables.vxlan_routing import RouteAction, Scope
from ..telemetry.stats import CounterSet
from ..telemetry.timeseries import SeriesBundle
from .journal import (
    Journal,
    decode_action,
    decode_binding,
    decode_profile,
    encode_action,
    encode_binding,
    encode_profile,
    parse_route_key,
    parse_vm_key,
    route_key,
    vm_key,
)
from .splitting import ClusterUsage, SplitPlan, TableSplitter, TenantProfile
from .xgw_h import XgwH


@dataclass(frozen=True)
class RouteEntry:
    vni: int
    prefix: Prefix
    action: RouteAction


@dataclass(frozen=True)
class VmEntry:
    vni: int
    vm_ip: int
    version: int
    binding: NcBinding


@dataclass
class Inconsistency:
    """One divergence found by a consistency check.

    *key* is the structured table key — ``(vni, prefix)`` for routes,
    ``(vni, vm_ip, version)`` for VM bindings — so repairs can re-push
    exactly the divergent entry instead of the whole table.
    """

    cluster_id: str
    node: str
    kind: str  # "missing-" | "corrupt-" | "extra-" + "route" | "vm"
    detail: str
    key: Optional[tuple] = None


@dataclass
class ProbeReport:
    """Outcome of a probe sweep over installed state."""

    sent: int = 0
    passed: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.sent > 0 and not self.failures


class TransactionAborted(TableError):
    """A two-phase push failed on some member; every already-prepared
    member was rolled back, so no entry of the batch is visible anywhere."""


class StagedOp(NamedTuple):
    """One staged transaction op, decoded once.

    *payload* is what the ``txn`` journal record carries for the op, byte
    for byte; *key* and *value* are the objects it was built from —
    the desired-state key ``(vni, Prefix)`` or ``(vni, vm_ip, version)``
    and the ``RouteAction``/``NcBinding`` to install, None for a remove.
    Validation, prepare, undo and commit read the typed fields; only
    journal replay parses payloads back.
    """

    payload: dict
    is_route: bool
    key: tuple
    value: Union[RouteAction, NcBinding, None]

    @classmethod
    def install_route(cls, cluster_id: str, route: RouteEntry) -> "StagedOp":
        return cls({"op": "install-route", "cluster": cluster_id,
                    "vni": route.vni, "prefix": str(route.prefix),
                    "action": encode_action(route.action)},
                   True, (route.vni, route.prefix), route.action)

    @classmethod
    def remove_route(cls, cluster_id: str, vni: int, prefix: Prefix) -> "StagedOp":
        return cls({"op": "remove-route", "cluster": cluster_id,
                    "vni": vni, "prefix": str(prefix)}, True, (vni, prefix), None)

    @classmethod
    def install_vm(cls, cluster_id: str, vm: VmEntry) -> "StagedOp":
        return cls({"op": "install-vm", "cluster": cluster_id,
                    "vni": vm.vni, "vm_ip": vm.vm_ip, "vm_version": vm.version,
                    "binding": encode_binding(vm.binding)},
                   False, (vm.vni, vm.vm_ip, vm.version), vm.binding)

    @classmethod
    def remove_vm(cls, cluster_id: str, vni: int, vm_ip: int,
                  version: int) -> "StagedOp":
        return cls({"op": "remove-vm", "cluster": cluster_id, "vni": vni,
                    "vm_ip": vm_ip, "vm_version": version},
                   False, (vni, vm_ip, version), None)


@dataclass
class Transaction:
    """A staged batch of table mutations against one cluster.

    Ops are recorded in call order and pushed atomically when the
    ``with ctl.transaction(...)`` block exits cleanly; raising inside the
    block discards the batch without touching any gateway.
    """

    cluster_id: str
    ops: List[StagedOp] = field(default_factory=list)
    side_effects: List[tuple] = field(default_factory=list)

    def stage_side_effect(self, label: str, apply: Callable[[], None],
                          undo: Callable[[], None]) -> None:
        """Stage a non-journalled dataplane side effect (e.g. a SNAT
        session rewrite) that commits with the batch: *apply* runs once
        every member has prepared, *undo* runs (reverse order) when the
        transaction aborts. Side effects are dataplane state, not
        intent, so they are deliberately not journalled — a
        crash-recovered controller simply never ran them."""
        self.side_effects.append((label, apply, undo))

    def install_route(self, route: RouteEntry) -> None:
        self.ops.append(StagedOp.install_route(self.cluster_id, route))

    def remove_route(self, vni: int, prefix: Prefix) -> None:
        self.ops.append(StagedOp.remove_route(self.cluster_id, vni, prefix))

    def install_vm(self, vm: VmEntry) -> None:
        self.ops.append(StagedOp.install_vm(self.cluster_id, vm))

    def remove_vm(self, vni: int, vm_ip: int, version: int) -> None:
        self.ops.append(StagedOp.remove_vm(self.cluster_id, vni, vm_ip, version))


# -- one diff, one push ------------------------------------------------------
# Every path that compares a member with intent (consistency check, member
# convergence, the audit's equivalence invariants) reads the member through
# ``divergence``; every path that writes one key (single ops, transaction
# prepare and undo, targeted repair, convergence) goes through ``push``.


def vm_table(gw):
    """A member's VM-NC table. XGW-H keeps bindings in the pipeline-split
    table; XGW-x86 members (hybrid clusters) and DPU devices keep them in
    the flat DRAM table. Both answer ``lookup`` and ``items()``."""
    table = getattr(gw, "split_vm_nc", None)
    return gw.tables.vm_nc if table is None else table


def divergence(gw, is_route: bool, desired: Mapping) -> List[Tuple[str, tuple]]:
    """``(kind, key)`` for every way one member's route (or VM) table
    differs from *desired*, both ways: ``missing-*``/``corrupt-*`` in
    desired-key order, then ``extra-*`` in readback order."""
    if is_route:
        noun = "route"
        installed = {(vni, prefix): action
                     for vni, prefix, action in gw.tables.routing.items()}
    else:
        noun = "vm"
        installed = {(vni, vm_ip, version): binding
                     for vni, vm_ip, version, binding in vm_table(gw).items()}
    out: List[Tuple[str, tuple]] = []
    for key, value in desired.items():
        have = installed.get(key)
        if have != value:
            out.append((("missing-" if have is None else "corrupt-") + noun, key))
    out.extend((f"extra-{noun}", key) for key in installed if key not in desired)
    return out


def describe_key(key: tuple) -> str:
    """The findings rendering of a table key: ``(vni, Prefix)`` as is,
    ``(vni, vm_ip, version)`` as ``(vni, 0xip)``."""
    return f"{key}" if len(key) == 2 else f"({key[0]}, {key[1]:#x})"


def push(gw, is_route: bool, key: tuple, value) -> None:
    """Make ``member[key] = value``; a None *value* withdraws the key."""
    if is_route:
        vni, prefix = key
        if value is None:
            gw.remove_route(vni, prefix)
        else:
            gw.install_route(vni, prefix, value, replace=True)
    else:
        vni, vm_ip, version = key
        if value is None:
            gw.remove_vm(vni, vm_ip, version)
        else:
            gw.install_vm(vni, vm_ip, version, value, replace=True)


def converge(gw, routes: Mapping, vms: Mapping) -> int:
    """Diff one member against intent and push every divergent key —
    extra routes *and* extra VM bindings are withdrawn. Returns the
    writes it took."""
    writes = 0
    for is_route, desired in ((True, routes), (False, vms)):
        for _kind, key in divergence(gw, is_route, desired):
            push(gw, is_route, key, desired.get(key))
            writes += 1
    return writes


def decode_cluster_intent(state: dict, cluster_id: str) -> Tuple[dict, dict]:
    """One cluster's desired ``(routes, vms)`` decoded from journal-format
    intent (``Journal.materialize()`` or ``Controller.intent_snapshot()``)."""
    routes = {parse_route_key(key): decode_action(payload)
              for key, payload in state["routes"].get(cluster_id, {}).items()}
    vms = {parse_vm_key(key): decode_binding(payload)
           for key, payload in state["vms"].get(cluster_id, {}).items()}
    return routes, vms


class Controller:
    """Central control plane over the region's clusters.

    >>> # assembled by repro.core.sailfish.Sailfish; unit tests drive it
    >>> # directly in tests/core/test_controller.py.
    """

    def __init__(
        self,
        splitter: TableSplitter,
        balancer: VniSteeredBalancer,
        clusters: Optional[Dict[str, GatewayCluster[XgwH]]] = None,
        journal: Optional[Journal] = None,
    ):
        self.splitter = splitter
        self.balancer = balancer
        self.clusters: Dict[str, GatewayCluster[XgwH]] = dict(clusters or {})
        self.plan = SplitPlan(assignments={}, usage={})
        # Desired state per cluster.
        self._routes: Dict[str, Dict[Tuple[int, Prefix], RouteAction]] = {}
        self._vms: Dict[str, Dict[Tuple[int, int, int], NcBinding]] = {}
        # Per-tenant key index over the desired state, so offboarding a
        # tenant is O(its entries) instead of a scan over the cluster's
        # whole route/VM maps.
        self._route_index: Dict[str, Dict[int, Set[Prefix]]] = {}
        self._vm_index: Dict[str, Dict[int, Set[Tuple[int, int]]]] = {}
        self.version = 0
        self.table_size_series = SeriesBundle()
        self._cluster_factory = None
        self._profiles: Dict[int, TenantProfile] = {}
        #: Reconciliation telemetry: inconsistencies_found, repairs_applied,
        #: probes_failed, retries_exhausted, reconcile_ticks, repair_cycles,
        #: repair_retries, readmissions — plus crash-safety counters:
        #: journal_appends, journal_snapshots, recoveries, txns_committed,
        #: txns_aborted, txn_rollback_failures, member_resyncs.
        self.counters = CounterSet()
        #: Clusters found divergent and not yet probe-cleared for traffic.
        self.quarantined: Set[str] = set()
        #: Write-ahead journal; None runs the pre-PR2 non-durable mode.
        self.journal = journal
        #: Fault hook called between journal append and cluster push; the
        #: injector arms it to raise :class:`~repro.core.journal.ControllerCrash`.
        self.crash_gate: Optional[Callable[[str, str], None]] = None
        #: Migration ids currently owned by a live EndpointMigrator. Not
        #: journalled on purpose: a crash-recovered controller starts
        #: with an empty set, so any freeze/shadow state surviving on
        #: gateways becomes detectable ``MigrationResidue``.
        self.active_migrations: Set[str] = set()

    # -- crash safety ------------------------------------------------------

    def _journal_append(self, op: str, payload: dict):
        """Write-ahead: record intent before any gateway sees the write."""
        if self.journal is None:
            return None
        record = self.journal.append(op, payload)
        self.counters.add("journal_appends")
        return record

    def _crash_point(self, op: str, cluster_id: str) -> None:
        """The injectable instant between durability and visibility."""
        if self.crash_gate is not None:
            self.crash_gate(op, cluster_id)

    def snapshot(self) -> None:
        """Checkpoint the intent store into the journal (prunes covered
        segments); recovery then replays snapshot + tail.

        The first checkpoint is taken from the intent store — O(table),
        once. Every later one folds the journal's verified tail into it
        (:meth:`~repro.core.journal.Journal.compact`), O(tail): equal to
        the intent by the journal-equivalence invariant."""
        if self.journal is None:
            raise TableError("controller has no journal to snapshot into")
        if self.journal.snapshot_seq < 0:
            self.journal.snapshot(self._intent_state())
        else:
            self.journal.compact()
        self.counters.add("journal_snapshots")

    def _intent_state(self) -> dict:
        """The journal-format view of the desired state."""
        state = {"tenants": {}, "routes": {}, "vms": {}, "version": self.version}
        for vni, profile in self._profiles.items():
            state["tenants"][str(vni)] = {
                "cluster": self.plan.assignments[vni],
                "profile": encode_profile(profile),
            }
        for cluster_id, routes in self._routes.items():
            state["routes"][cluster_id] = {
                route_key(vni, prefix): encode_action(action)
                for (vni, prefix), action in routes.items()
            }
        for cluster_id, vms in self._vms.items():
            state["vms"][cluster_id] = {
                vm_key(vni, vm_ip, version): encode_binding(binding)
                for (vni, vm_ip, version), binding in vms.items()
            }
        return state

    def intent_snapshot(self) -> dict:
        """The journal-format view of the desired state, for independent
        checkers (``repro.audit`` diffs this against what each member
        actually installed, and against ``journal.materialize()``).

        Same shape as :meth:`~repro.core.journal.Journal.materialize`:
        ``{"tenants", "routes", "vms", "version"}`` with string keys, so
        the two intent sources are directly comparable.
        """
        return self._intent_state()

    def recover(self, journal: Journal) -> int:
        """Rebuild this (fresh or wiped) controller from *journal* and
        re-sync every cluster's gateways to the recovered intent.

        Returns the number of gateway writes the sync needed. After
        recovery, ``consistency_check`` is empty for every cluster: the
        journalled intent *is* the cluster state again.
        """
        state = journal.materialize()
        self.journal = journal
        self._routes.clear()
        self._vms.clear()
        self._route_index.clear()
        self._vm_index.clear()
        self._profiles.clear()
        self.plan = SplitPlan(assignments={}, usage={})
        for vni_text in sorted(state["tenants"], key=int):
            info = state["tenants"][vni_text]
            vni, cluster_id = int(vni_text), info["cluster"]
            profile = decode_profile(info["profile"])
            cluster = self._ensure_cluster(cluster_id)
            if cluster_id not in self.balancer.clusters():
                # Clusters that survived the crash were handed to the new
                # controller directly; (re)register their steering group.
                self.balancer.register_cluster(
                    cluster_id, [m.name for m in cluster.active_members()]
                )
            self._profiles[vni] = profile
            self.plan.assignments[vni] = cluster_id
            self.plan.usage.setdefault(cluster_id, ClusterUsage()).add(profile)
            self.balancer.assign_vni(vni, cluster_id)
        for cluster_id in dict.fromkeys([*state["routes"], *state["vms"]]):
            self._ensure_cluster(cluster_id)
            routes, vms = decode_cluster_intent(state, cluster_id)
            self._routes[cluster_id], self._vms[cluster_id] = routes, vms
            for (vni, prefix) in routes:
                self._route_index[cluster_id].setdefault(vni, set()).add(prefix)
            for (vni, vm_ip, version) in vms:
                self._vm_index[cluster_id].setdefault(vni, set()).add((vm_ip, version))
        self.version = state["version"]
        writes = 0
        for cluster_id in sorted(self.clusters):
            routes, vms = self._routes.get(cluster_id, {}), self._vms.get(cluster_id, {})
            for member in self.clusters[cluster_id].all_members():
                writes += converge(member.gateway, routes, vms)
        self.counters.add("recoveries")
        return writes

    def resync_member(self, cluster_id: str, name: str) -> int:
        """Converge one member onto the latest snapshot + journal tail
        (or the in-memory intent when no journal is attached). Used by the
        drain/upgrade path before a member is probed and readmitted."""
        member = self.clusters[cluster_id].find_member(name)
        if self.journal is not None:
            routes, vms = decode_cluster_intent(self.journal.materialize(), cluster_id)
        else:
            routes, vms = self._routes.get(cluster_id, {}), self._vms.get(cluster_id, {})
        writes = converge(member.gateway, routes, vms)
        self.counters.add("member_resyncs")
        return writes

    # -- cluster lifecycle -----------------------------------------------

    def set_cluster_factory(self, factory) -> None:
        """Install a callable ``factory(cluster_id) -> GatewayCluster`` used
        when placement allocates a new cluster."""
        self._cluster_factory = factory

    def _ensure_cluster(self, cluster_id: str,
                        cluster: Optional[GatewayCluster] = None) -> GatewayCluster[XgwH]:
        """Register *cluster_id* on first use — the given *cluster*, else
        one from the factory — with a steering group and empty desired
        state."""
        if cluster_id not in self.clusters:
            if cluster is None:
                if self._cluster_factory is None:
                    raise TableError(f"no cluster {cluster_id} and no factory configured")
                cluster = self._cluster_factory(cluster_id)
            self.clusters[cluster_id] = cluster
            self.balancer.register_cluster(
                cluster_id, [m.name for m in cluster.active_members()]
            )
        self._routes.setdefault(cluster_id, {})
        self._vms.setdefault(cluster_id, {})
        self._route_index.setdefault(cluster_id, {})
        self._vm_index.setdefault(cluster_id, {})
        return self.clusters[cluster_id]

    def adopt_cluster(self, cluster_id: str,
                      cluster: GatewayCluster) -> GatewayCluster:
        """Register an externally assembled cluster under this controller.

        The placement path allocates clusters through the factory; tiers
        whose membership is fixed by hardware inventory — one
        single-device cluster per DPU, in the three-tier offload layout —
        are built by their owner and adopted here instead. The cluster
        gets a steering group, empty desired state, and from then on the
        full transaction/consistency/repair machinery applies to it.
        """
        if cluster_id in self.clusters:
            raise TableError(f"cluster {cluster_id} already registered")
        return self._ensure_cluster(cluster_id, cluster)

    def desired_routes(self, cluster_id: str) -> Dict[Tuple[int, Prefix], RouteAction]:
        """A copy of one cluster's desired routing state (committed
        transactions only) — what a tier planner rebuilds its placement
        map from after a controller recovery."""
        return dict(self._routes.get(cluster_id, {}))

    # -- tenant onboarding --------------------------------------------------

    def add_tenant(
        self,
        profile: TenantProfile,
        routes: Iterable[RouteEntry],
        vms: Iterable[VmEntry],
        time: float = 0.0,
    ) -> str:
        """Place a tenant, install its entries, and steer its VNI."""
        cluster_id = self.splitter.place(self.plan, profile)
        cluster = self._ensure_cluster(cluster_id)
        self._profiles[profile.vni] = profile
        self._journal_append("add-tenant", {
            "vni": profile.vni, "cluster": cluster_id,
            "profile": encode_profile(profile),
        })
        self._crash_point("add-tenant", cluster_id)
        self.balancer.assign_vni(profile.vni, cluster_id)
        for route in routes:
            self.install_route(cluster_id, route, time=time)
        for vm in vms:
            self.install_vm(cluster_id, vm, time=time)
        self.version += 1
        return cluster_id

    def _apply_single(self, cluster_id: str, op: StagedOp, time: float) -> None:
        """One mutation outside a transaction: journal it under its op
        name (the payload minus ``"op"``), cross the crash point, fold it
        into desired state, then push it to every member."""
        payload = dict(op.payload)
        name = payload.pop("op")
        self._journal_append(name, payload)
        self._crash_point(name, cluster_id)
        self._apply_committed_op(cluster_id, op)
        is_route, key, value = op.is_route, op.key, op.value
        for member in self.clusters[cluster_id].all_members():
            push(member.gateway, is_route, key, value)
        self._record_size(cluster_id, time)

    def install_route(self, cluster_id: str, route: RouteEntry, time: float = 0.0) -> None:
        self._ensure_cluster(cluster_id)
        self._apply_single(cluster_id, StagedOp.install_route(cluster_id, route), time)

    def install_vm(self, cluster_id: str, vm: VmEntry, time: float = 0.0) -> None:
        self._ensure_cluster(cluster_id)
        self._apply_single(cluster_id, StagedOp.install_vm(cluster_id, vm), time)

    def remove_route(self, cluster_id: str, vni: int, prefix: Prefix,
                     time: float = 0.0) -> None:
        """Withdraw one route from desired state and every gateway."""
        self.clusters[cluster_id]  # an unknown cluster raises KeyError first
        if (vni, prefix) not in self._routes.get(cluster_id, {}):
            raise TableError(f"route vni={vni} {prefix} not in desired state")
        self._apply_single(cluster_id, StagedOp.remove_route(cluster_id, vni, prefix), time)

    def remove_vm(self, cluster_id: str, vni: int, vm_ip: int, version: int,
                  time: float = 0.0) -> None:
        """Remove a VM binding from desired state and every gateway."""
        self.clusters[cluster_id]  # an unknown cluster raises KeyError first
        if (vni, vm_ip, version) not in self._vms.get(cluster_id, {}):
            raise TableError(f"vm ({vni}, {vm_ip:#x}) not in desired state")
        self._apply_single(
            cluster_id, StagedOp.remove_vm(cluster_id, vni, vm_ip, version), time)

    def remove_tenant(self, vni: int, time: float = 0.0) -> int:
        """Offboard a tenant completely; returns the entries removed."""
        cluster_id = self.plan.assignments.get(vni)
        if cluster_id is None:
            raise TableError(f"VNI {vni} is not placed")
        # Journalled first: its replay drops the tenant AND all its
        # entries, so the per-entry remove records below replay as no-ops.
        self._journal_append("remove-tenant", {"vni": vni, "cluster": cluster_id})
        self._crash_point("remove-tenant", cluster_id)
        # The owning cluster's per-tenant index gives exactly this VNI's
        # keys — O(tenant), not a scan of the cluster's whole route map.
        removed = 0
        for prefix in sorted(
                self._route_index.get(cluster_id, {}).get(vni, ()), key=str):
            self.remove_route(cluster_id, vni, prefix, time=time)
            removed += 1
        for (vm_ip, version) in sorted(
                self._vm_index.get(cluster_id, {}).get(vni, ())):
            self.remove_vm(cluster_id, vni, vm_ip, version, time=time)
            removed += 1
        # Release the placement reservation and the steering entry.
        profile = self._profiles.pop(vni, None)
        if profile is not None:
            self.plan.usage[cluster_id].remove(profile)
        else:
            self.plan.usage[cluster_id].tenants.remove(vni)
        del self.plan.assignments[vni]
        self.balancer.release_vni(vni)
        self.version += 1
        return removed

    def _record_size(self, cluster_id: str, time: float) -> None:
        size = len(self._routes[cluster_id]) + len(self._vms[cluster_id])
        self.table_size_series.record(cluster_id, time, size)

    def route_count(self, cluster_id: str) -> int:
        return len(self._routes.get(cluster_id, {}))

    def vm_entries(self, cluster_id: str) -> List[VmEntry]:
        """Desired-state VM bindings of one cluster, key-ordered — the
        endpoint migrator's NC-drain enumeration."""
        return [VmEntry(vni, vm_ip, version, binding)
                for (vni, vm_ip, version), binding
                in sorted(self._vms.get(cluster_id, {}).items())]

    # -- transactions -----------------------------------------------------

    @contextmanager
    def transaction(self, cluster_id: str, time: float = 0.0) -> Iterator[Transaction]:
        """Stage a batch and push it two-phase on clean exit.

        ``with ctl.transaction(cid) as txn:`` collects
        ``txn.install_route/install_vm/remove_route/remove_vm`` calls;
        on exit the batch is *prepared* on every member (including the
        hot backup) and only then committed to the desired state. A
        member fault mid-prepare rolls back every already-prepared
        member and raises :class:`TransactionAborted` — no member is
        ever left with a partial batch.
        """
        txn = Transaction(cluster_id)
        yield txn
        self._commit_transaction(cluster_id, txn, time)

    @staticmethod
    def _index_discard(index: Dict[str, Dict[int, set]], cluster_id: str,
                       vni: int, key) -> None:
        """Drop one key from the per-tenant index, pruning empty buckets."""
        bucket = index.get(cluster_id, {}).get(vni)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del index[cluster_id][vni]

    def _apply_committed_op(self, cluster_id: str, op: StagedOp) -> None:
        """Fold one prepared op into the desired state (and the
        per-tenant key index) once it is safely on every member."""
        key = op.key
        if op.is_route:
            entries, index, member = self._routes, self._route_index, key[1]
        else:
            entries, index, member = self._vms, self._vm_index, key[1:]
        if op.value is None:
            del entries[cluster_id][key]
            self._index_discard(index, cluster_id, key[0], member)
        else:
            entries[cluster_id][key] = op.value
            index[cluster_id].setdefault(key[0], set()).add(member)

    def _check_removals(self, cluster_id: str, ops: Sequence[StagedOp]) -> None:
        """Reject a batch that removes an entry the desired state does
        not hold — before any journalling or gateway write."""
        routes = self._routes.get(cluster_id, {})
        vms = self._vms.get(cluster_id, {})
        for op in ops:
            if op.value is None and op.key not in (routes if op.is_route else vms):
                raise TableError(f"transaction removes unknown entry: {op.payload}")

    def _apply_op_to_gateway(self, gw, cluster_id: str, op: StagedOp,
                             undo: List[Callable[[], None]]) -> None:
        """Prepare one op on one gateway, pushing its inverse onto *undo*.
        Pre-images are keyed reads — O(key length), never a table walk."""
        is_route, key = op.is_route, op.key
        if op.value is None:
            prev = (self._routes if is_route else self._vms)[cluster_id][key]
        elif is_route:
            prev = gw.tables.routing.get(*key)
        else:
            prev = vm_table(gw).lookup(*key)
        push(gw, is_route, key, op.value)
        undo.append(lambda: push(gw, is_route, key, prev))

    # The prepare/unwind engine: the three phases every two-phase push is
    # made of, shared by ``transaction`` and the cross-shard 2PC
    # (``repro.shard``), which differ only in where the journal markers
    # and crash points sit between them.

    def _prepare(self, cluster_id: str, ops: Sequence[StagedOp],
                 undo: List[Callable[[], None]]) -> Optional[TableError]:
        """Phase 1: apply the batch member by member (hot backup
        included), pushing each write's inverse onto *undo*. Returns the
        :class:`TableError` that stopped it, or None when every member
        holds the whole batch."""
        try:
            for member in self.clusters[cluster_id].all_members():
                for op in ops:
                    self._apply_op_to_gateway(member.gateway, cluster_id, op, undo)
        except TableError as exc:
            return exc
        return None

    def _abort_prepared(self, record, undo: List[Callable[[], None]]) -> None:
        """Unwind, newest write first, everything a failed batch did,
        then journal its ``txn-abort`` marker. Best effort: residue of a
        failing undo is visible to the reconcile loop, which repairs it."""
        for action in reversed(undo):
            try:
                action()
            except TableError:
                self.counters.add("txn_rollback_failures")
        if record is not None:
            self._journal_append("txn-abort", {"txn_seq": record.seq})
        self.counters.add("txns_aborted")

    def _complete_prepared(self, cluster_id: str, ops: Sequence[StagedOp],
                           record, time: float) -> None:
        """Phase 2: the batch is on every member; mark the journal record
        committed and make the batch the desired state."""
        if record is not None:
            self._journal_append("txn-commit", {"txn_seq": record.seq})
        for op in ops:
            self._apply_committed_op(cluster_id, op)
        self.counters.add("txns_committed")
        self.version += 1
        self._record_size(cluster_id, time)

    def _commit_transaction(self, cluster_id: str, txn: Transaction,
                            time: float) -> None:
        self._ensure_cluster(cluster_id)
        if not txn.ops and not txn.side_effects:
            return
        self._check_removals(cluster_id, txn.ops)
        record = None
        if txn.ops:
            record = self._journal_append(
                "txn", {"cluster": cluster_id,
                        "ops": [op.payload for op in txn.ops]})
            self._crash_point("txn", cluster_id)
        undo: List[Callable[[], None]] = []
        failure = self._prepare(cluster_id, txn.ops, undo)
        if failure is None:
            # Side effects run once every member holds the batch, still
            # inside the abort envelope: their undos join the same log,
            # so a failing effect unwinds the effects already applied
            # and then every prepared member.
            for _label, apply_effect, undo_effect in txn.side_effects:
                try:
                    apply_effect()
                except TableError as exc:
                    failure = exc
                    break
                undo.append(undo_effect)
        if failure is not None:
            self._abort_prepared(record, undo)
            raise TransactionAborted(
                f"transaction on {cluster_id} aborted: {failure}"
            ) from failure
        self._complete_prepared(cluster_id, txn.ops, record, time)

    # -- consistency ------------------------------------------------------------

    def consistency_check(self, cluster_id: str) -> List[Inconsistency]:
        """Compare desired state against every gateway of one cluster —
        including the hot backup, which must hold identical tables — both
        ways for routes and VM bindings alike."""
        routes, vms = self._routes.get(cluster_id, {}), self._vms.get(cluster_id, {})
        return [Inconsistency(cluster_id, member.name, kind, describe_key(key), key=key)
                for member in self.clusters[cluster_id].all_members()
                for is_route, desired in ((True, routes), (False, vms))
                for kind, key in divergence(member.gateway, is_route, desired)]

    # -- targeted repair + reconciliation loop -----------------------------

    def _repair_one(self, cluster_id: str, finding: Inconsistency) -> None:
        """Make exactly one member's entry at the finding's key match
        desired state: re-push it, or withdraw it when intent has none."""
        if finding.key is None:
            raise TableError(f"finding has no structured key: {finding}")
        gw = self.clusters[cluster_id].find_member(finding.node).gateway
        is_route = finding.kind.endswith("-route")
        desired = (self._routes if is_route else self._vms).get(cluster_id, {})
        push(gw, is_route, finding.key, desired.get(finding.key))

    def targeted_repair(
        self, cluster_id: str, findings: Optional[List[Inconsistency]] = None
    ) -> Tuple[int, List[Inconsistency]]:
        """Repair only the divergent keys on only the divergent members,
        touching nothing that already agrees with desired state. Returns
        ``(applied, failed)`` where *failed* holds the findings whose push
        raised a :class:`TableError` (e.g. insufficient gateway memory) —
        the reconcile loop retries those with backoff.
        """
        if findings is None:
            findings = self.consistency_check(cluster_id)
        applied = 0
        failed: List[Inconsistency] = []
        for finding in findings:
            try:
                self._repair_one(cluster_id, finding)
            except TableError:
                failed.append(finding)
            else:
                applied += 1
                self.counters.add("repairs_applied")
        return applied, failed

    def _schedule_repair_retry(self, engine: Engine, cluster_id: str,
                               findings: List[Inconsistency], attempt: int,
                               max_retries: int, backoff: float) -> None:
        if attempt > max_retries:
            self.counters.add("retries_exhausted", len(findings))
            return

        def retry() -> None:
            self.counters.add("repair_retries")
            _applied, still_failed = self.targeted_repair(cluster_id, findings)
            if still_failed:
                self._schedule_repair_retry(engine, cluster_id, still_failed,
                                            attempt + 1, max_retries, backoff)

        engine.schedule_in(backoff * (2 ** (attempt - 1)), retry)

    def _probe_gate(self, cluster_id: str) -> bool:
        """Probe-before-readmit: a quarantined cluster returns to service
        only once it is consistent *and* its probes pass."""
        if cluster_id not in self.quarantined:
            return True
        if self.consistency_check(cluster_id):
            return False  # still divergent (repairs pending/retrying)
        report = self.probe(cluster_id)
        if report.failures:
            self.counters.add("probes_failed")
            return False
        self.quarantined.discard(cluster_id)
        self.counters.add("readmissions")
        return True

    def is_admitted(self, cluster_id: str) -> bool:
        """Whether user traffic may be admitted to *cluster_id*."""
        return cluster_id not in self.quarantined

    def _reconcile_cluster(self, engine: Engine, cluster_id: str,
                           max_retries: int, backoff: float) -> None:
        findings = self.consistency_check(cluster_id)
        if findings:
            self.counters.add("inconsistencies_found", len(findings))
            self.counters.add("repair_cycles")
            self.quarantined.add(cluster_id)
            _applied, failed = self.targeted_repair(cluster_id, findings)
            if failed:
                self._schedule_repair_retry(engine, cluster_id, failed,
                                            attempt=1, max_retries=max_retries,
                                            backoff=backoff)
        self._probe_gate(cluster_id)

    def reconcile_tick(self, engine: Engine, max_retries: int, backoff: float,
                       cluster_ids: Optional[Iterable[str]] = None) -> None:
        """One §6.1 pass — consistency-check → targeted repair →
        probe-before-readmit — over *cluster_ids* (default: all)."""
        self.counters.add("reconcile_ticks")
        ids = sorted(cluster_ids) if cluster_ids is not None else sorted(self.clusters)
        for cid in ids:
            self._reconcile_cluster(engine, cid, max_retries, backoff)

    def reconcile_loop(
        self,
        engine: Engine,
        interval: float,
        cluster_ids: Optional[Iterable[str]] = None,
        max_retries: int = 3,
        backoff: Optional[float] = None,
        until: Optional[float] = None,
    ) -> PeriodicTask:
        """Register :meth:`reconcile_tick` every *interval* on *engine*.

        Failed installs are retried with exponential backoff (*backoff*,
        ``2**attempt`` growth, default ``interval / 4``) up to
        *max_retries* times; exhaustion is counted in
        ``counters["retries_exhausted"]``. Returns the cancellation
        handle of the periodic series.
        """
        if backoff is None:
            backoff = interval / 4.0
        return engine.schedule_every(
            interval, lambda: self.reconcile_tick(engine, max_retries, backoff, cluster_ids),
            until=until)

    # -- probing --------------------------------------------------------------------

    def probe(self, cluster_id: str, limit: int = 64,
              members: Optional[Iterable[str]] = None) -> ProbeReport:
        """Send synthetic probes for installed LOCAL VMs ("deploy probe
        generators ... covering as many test scenarios as possible").

        Every ACTIVE member is swept — including the hot backup's, which
        must answer identically — so per-member divergence (one node's
        corrupted table) cannot hide behind a healthy sibling. Passing
        *members* probes exactly those names regardless of state (the
        drain/upgrade path probes a still-offline member before
        readmitting it).
        """
        report = ProbeReport()
        cluster = self.clusters[cluster_id]
        desired_vms = self._vms.get(cluster_id, {})
        desired_routes = self._routes.get(cluster_id, {})
        local_vnis = {
            vni for (vni, _prefix), action in desired_routes.items()
            if action.scope is Scope.LOCAL
        }
        if members is None:
            targets = [m for m in cluster.all_members() if m.state is NodeState.ACTIVE]
        else:
            wanted = set(members)
            targets = [m for m in cluster.all_members() if m.name in wanted]
        for (vni, vm_ip, version), binding in list(desired_vms.items())[:limit]:
            if version != 4 or vni not in local_vnis:
                continue
            packet = build_probe_packet(vni, vm_ip)
            for member in targets:
                report.sent += 1
                result = member.gateway.forward(packet)
                if result.action is ForwardAction.DELIVER_NC and result.nc_ip == binding.nc_ip:
                    report.passed += 1
                else:
                    report.failures.append(
                        f"{member.name}: vni={vni} vm={vm_ip:#x}: "
                        f"{result.action.value} ({result.detail})"
                    )
        return report


def build_probe_packet(vni: int, vm_ip: int, src_ip: int = 0x0A0A0A0A) -> Packet:
    """A minimal IPv4-in-VXLAN probe towards *vm_ip* in *vni*."""
    inner = InnerFrame(
        eth=Ethernet(dst=0x0000DEADBEEF, src=0x0000CAFEBABE, ethertype=ETHERTYPE_IPV4),
        ip=IPv4(src=src_ip, dst=vm_ip, proto=PROTO_UDP),
        l4=UDP(src_port=49152, dst_port=7),
        payload=b"probe",
    )
    return Packet.vxlan_encap(
        inner,
        outer_eth=Ethernet(dst=0x0000AAAAAAAA, src=0x0000BBBBBBBB, ethertype=ETHERTYPE_IPV4),
        outer_src=0x0A000001,
        outer_dst=0x0A0000FE,
        vni=vni,
    )
