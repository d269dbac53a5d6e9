"""The invariant library: what "this region is healthy" actually means.

Each invariant inspects one member against the intent snapshot (or
against its own internal structure) and returns :class:`Finding`\\ s.
Route/VM equivalence run the controller's two-way keyed diff
(:func:`~repro.core.controller.divergence`) but against an independent
intent source — the journal-format snapshot, not the controller's
in-memory maps; the lookup invariants cross-check data structures
against brute-force oracles, and the remaining ones check properties
no intent diff can see (shadowed rules, broken chains, tenant leaks,
counter identities, poisoned cache entries).

Every invariant is read-only on control state: table generations are
never bumped, so a sweep can run concurrently with the flow cache and
no cached entry is invalidated by the audit itself. (Telemetry counters
— lookup/hit tallies — do advance; they carry no semantics.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..core.controller import describe_key, divergence
from ..dataplane.gateway_logic import ForwardAction
from ..net.addr import Prefix
from ..tables.alpm import AlpmTable, oracle_lookup
from ..tables.errors import MissingEntryError
from ..tables.vxlan_routing import RoutingLoopError, Scope, VxlanRoutingTable
from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from .intent import IntentSnapshot
from .sampling import sample_route_keys


@dataclass(frozen=True)
class AuditContext:
    """Everything one invariant check needs besides the member itself."""

    intent: IntentSnapshot
    cluster_id: str
    seed: int = 0
    samples_per_prefix: int = 2
    #: Migration ids a live EndpointMigrator currently owns; freeze or
    #: shadow state for any *other* id is residue of a dead migration.
    active_migrations: FrozenSet[str] = frozenset()


class Invariant:
    """One auditable property; subclasses define ``name`` and ``check``."""

    name = "invariant"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        raise NotImplementedError


class RouteEquivalence(Invariant):
    """Intent routes vs the member's installed routing table, both ways:
    ``missing-route`` / ``corrupt-route`` / ``extra-route``. The diff is
    the controller's own :func:`~repro.core.controller.divergence`; what
    stays independent is the intent — the journal-format snapshot, not
    the controller's in-memory maps."""

    name = "route-equivalence"
    is_route = True

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        intent = ctx.intent.routes_for if self.is_route else ctx.intent.vms_for
        return [Finding(self.name, kind, ctx.cluster_id, member.name,
                        describe_key(key), key=key)
                for kind, key in divergence(member.gateway, self.is_route,
                                            intent(ctx.cluster_id))]


class VmEquivalence(RouteEquivalence):
    """Intent VM bindings vs the member's installed bindings, both ways:
    ``missing-vm`` / ``corrupt-vm`` / ``extra-vm`` (a dropped
    ``remove_vm`` leaves the binding behind as ``extra-vm``)."""

    name = "vm-equivalence"
    is_route = False


class LpmOracleEquivalence(Invariant):
    """The member's lookup structures vs a brute-force LPM oracle.

    On deterministically sampled keys (seeded per prefix), the per-VNI
    trie lookup and an ALPM built from the member's own composite routes
    must both agree with :func:`~repro.tables.alpm.oracle_lookup` over
    the same flat route list. This is structural integrity — a carving
    or trie bug diverges here even when intent and installed entries
    match perfectly."""

    name = "lpm-oracle"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        routing = member.gateway.tables.routing
        installed = {(vni, prefix): action
                     for vni, prefix, action in routing.items()}
        if not installed:
            return []
        composite = routing.to_composite_routes()
        width = VxlanRoutingTable.composite_width()
        alpm = AlpmTable.build(width, composite)
        findings: List[Finding] = []
        keys = sample_route_keys(installed, ctx.seed,
                                 per_prefix=ctx.samples_per_prefix)
        for vni, address, version in keys:
            ckey = VxlanRoutingTable.composite_key(vni, address, version)
            expect = oracle_lookup(composite, ckey, width)
            trie_hit = routing.lookup(vni, address, version)
            trie_action = trie_hit[1] if trie_hit is not None else None
            oracle_action = expect[2] if expect is not None else None
            if trie_action != oracle_action:
                findings.append(Finding(
                    self.name, "lpm-divergence", ctx.cluster_id, member.name,
                    f"trie vni={vni} addr={address:#x}/v{version}: "
                    f"{trie_action} != {oracle_action}",
                    key=(vni, address, version)))
            alpm_hit = alpm.lookup(ckey)
            if alpm_hit != expect:
                findings.append(Finding(
                    self.name, "alpm-divergence", ctx.cluster_id, member.name,
                    f"alpm vni={vni} addr={address:#x}/v{version}: "
                    f"{alpm_hit} != {expect}",
                    key=(vni, address, version)))
        return findings


def tcam_shadow_findings(tcam, cluster_id: str = "-", node: str = "-") -> List[Finding]:
    """Shadow analysis for a standalone TCAM: every ``(shadowed,
    shadowing)`` pair from :meth:`~repro.tables.tcam.Tcam.shadowed_entries`
    becomes a finding — ``shadowed-rule`` when the verdict-relevant value
    differs (the dead rule would have acted differently), ``dead-rule``
    when it is pure dead weight."""
    findings: List[Finding] = []
    for shadowed, shadowing in tcam.shadowed_entries():
        hazardous = shadowed.action != shadowing.action
        findings.append(Finding(
            "shadow-rules",
            "shadowed-rule" if hazardous else "dead-rule",
            cluster_id, node,
            f"prio={shadowed.priority} shadowed by prio={shadowing.priority}",
            severity=SEVERITY_ERROR if hazardous else SEVERITY_WARNING,
            key=(shadowed.priority, shadowing.priority)))
    return findings


class ShadowRules(Invariant):
    """Dead and policy-inverting ACL rules on the member.

    A rule fully covered by an earlier-matching rule never fires. Same
    verdict → dead weight (warning); different verdict → the written
    policy silently differs from the enforced one (error)."""

    name = "shadow-rules"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        findings: List[Finding] = []
        for shadowed, shadowing in member.gateway.tables.acl.shadowed_rules():
            hazardous = shadowed.verdict is not shadowing.verdict
            findings.append(Finding(
                self.name,
                "shadowed-rule" if hazardous else "dead-rule",
                ctx.cluster_id, member.name,
                f"vni={shadowed.vni} prio={shadowed.priority} "
                f"({shadowed.verdict.value}) shadowed by "
                f"prio={shadowing.priority} ({shadowing.verdict.value})",
                severity=SEVERITY_ERROR if hazardous else SEVERITY_WARNING,
                key=(shadowed.vni, shadowed.priority, shadowing.priority)))
        return findings


class ChainTermination(Invariant):
    """Every installed PEER route must resolve to a terminal scope:
    chains are acyclic (``peer-loop``) and complete (``broken-chain``)."""

    name = "chain-termination"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        routing = member.gateway.tables.routing
        findings: List[Finding] = []
        for vni, prefix, action in sorted(
                routing.items(), key=lambda r: (r[0], str(r[1]))):
            if action.scope is not Scope.PEER:
                continue
            try:
                routing.resolve(vni, prefix.network, prefix.version)
            except RoutingLoopError as exc:
                findings.append(Finding(
                    self.name, "peer-loop", ctx.cluster_id, member.name,
                    f"vni={vni} {prefix}: {exc}", key=(vni, prefix)))
            except MissingEntryError as exc:
                findings.append(Finding(
                    self.name, "broken-chain", ctx.cluster_id, member.name,
                    f"vni={vni} {prefix}: {exc}", key=(vni, prefix)))
        return findings


class TenantIsolation(Invariant):
    """No sampled key of tenant A may resolve through tenant B's entries
    unless the *intent* authorises that peering.

    The authorised set is the transitive closure of the intent's PEER
    edges; a resolution terminating in a VNI outside it means a
    misinstalled route is leaking one tenant's traffic into another's
    VPC — the §2.1 isolation property."""

    name = "tenant-isolation"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        routing = member.gateway.tables.routing
        desired = ctx.intent.routes_for(ctx.cluster_id)
        if not desired:
            return []
        allowed = ctx.intent.peer_reachability()
        findings: List[Finding] = []
        keys = sample_route_keys(desired, ctx.seed,
                                 per_prefix=ctx.samples_per_prefix)
        for vni, address, version in keys:
            try:
                resolution = routing.resolve(vni, address, version)
            except (MissingEntryError, RoutingLoopError):
                continue  # equivalence / chain invariants own those
            if resolution.vni == vni:
                continue
            if resolution.vni not in allowed.get(vni, set()):
                findings.append(Finding(
                    self.name, "tenant-isolation", ctx.cluster_id, member.name,
                    f"vni={vni} addr={address:#x}/v{version} resolved "
                    f"through unauthorised vni={resolution.vni}",
                    key=(vni, address, version, resolution.vni)))
        return findings


class CounterConservation(Invariant):
    """Per-member counter identities: offered = processed + dropped.

    XGW-H: ``stats.packets == delivered + uplinked + redirected +
    dropped`` and the per-reason ``drop_*`` counters sum to
    ``stats.dropped``. XGW-x86: ``rx_packets == Σ action_*`` and
    ``action_drop == Σ drop_*``. A violation means a packet was charged
    inconsistently — the canary for miscounting bugs and for torn
    counter state after a crash."""

    name = "counter-conservation"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        gw = member.gateway
        findings: List[Finding] = []
        counts = gw.counters.snapshot()
        drops = sum(v for k, v in counts.items() if k.startswith("drop_"))
        stats = getattr(gw, "stats", None)
        if stats is not None:
            outcomes = (stats.delivered + stats.uplinked + stats.redirected
                        + stats.dropped + getattr(stats, "buffered", 0))
            if stats.packets != outcomes:
                findings.append(Finding(
                    self.name, "counter-mismatch", ctx.cluster_id, member.name,
                    f"packets={stats.packets} != outcomes={outcomes}"))
            if drops != stats.dropped:
                findings.append(Finding(
                    self.name, "counter-mismatch", ctx.cluster_id, member.name,
                    f"sum(drop_*)={drops} != dropped={stats.dropped}"))
        else:
            actions = sum(v for k, v in counts.items() if k.startswith("action_"))
            rx = counts.get("rx_packets", 0)
            if rx != actions:
                findings.append(Finding(
                    self.name, "counter-mismatch", ctx.cluster_id, member.name,
                    f"rx_packets={rx} != sum(action_*)={actions}"))
            if drops != counts.get("action_drop", 0):
                findings.append(Finding(
                    self.name, "counter-mismatch", ctx.cluster_id, member.name,
                    f"sum(drop_*)={drops} != "
                    f"action_drop={counts.get('action_drop', 0)}"))
        return findings


class FlowCacheCoherence(Invariant):
    """Every *current-generation* cache entry must equal a fresh
    recompute against the live tables.

    Stale-generation entries are skipped — the cache's own guard lazily
    drops those. What this invariant catches is the opposite: an entry
    whose generation vector is current but whose cached decision is not
    what the tables say (bit-rot, ``POISON_FLOW_CACHE``). The cache's
    staleness machinery *cannot* see that class; only a recompute can."""

    name = "flow-cache-coherence"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        gw = member.gateway
        cache = getattr(gw, "flow_cache", None)
        if cache is None:
            return []
        tables = gw.tables
        generations = (tables.routing.generation, tables.vm_nc.generation,
                       tables.acl.generation)
        findings: List[Finding] = []
        for key, entry in cache.items():
            if entry.generations != generations:
                continue
            vni, address, version = key
            expect = _recompute(tables, vni, address, version)
            have = (entry.action, entry.detail, entry.resolved_vni, entry.nc_ip)
            if have != expect:
                findings.append(Finding(
                    self.name, "stale-cache-entry", ctx.cluster_id, member.name,
                    f"key={key}: cached={have} recomputed={expect}", key=key))
        return findings


def _recompute(tables, vni: int, address: int, version: int):
    """The terminal decision the slow path would cache for this key,
    derived read-only (no counters, meters or ACLs — those are per-packet
    and never cached)."""
    try:
        resolution = tables.routing.resolve(vni, address, version)
    except MissingEntryError:
        return (ForwardAction.DROP, "no-route", None, None)
    except RoutingLoopError:
        return (ForwardAction.DROP, "peer-loop", None, None)
    scope = resolution.action.scope
    if scope is Scope.LOCAL:
        binding = tables.vm_nc.lookup(resolution.vni, address, version)
        if binding is None:
            return (ForwardAction.DROP, "no-vm", resolution.vni, None)
        return (ForwardAction.DELIVER_NC, "local", resolution.vni, binding.nc_ip)
    if scope is Scope.SERVICE:
        return (ForwardAction.REDIRECT_X86,
                resolution.action.target or "service", resolution.vni, None)
    return (ForwardAction.UPLINK,
            resolution.action.target or scope.value, resolution.vni, None)


class MigrationResidue(Invariant):
    """No trace of a dead migration may survive on any member.

    A crashed :class:`~repro.migration.EndpointMigrator` leaves frozen
    endpoint keys, shadow bindings and buffered packets on the gateways
    with nobody left to tear them down — the frozen flows would
    black-hole forever. ``Controller.active_migrations`` is deliberately
    not journalled, so after recovery it is empty and every surviving
    freeze/shadow shows up here:

    * ``orphaned-freeze`` — a frozen endpoint whose migration id is not
      active (its buffered packets are stranded with it);
    * ``shadow-binding`` — a pre-copied destination binding whose
      migration id is not active;
    * ``orphaned-session`` — a SNAT session whose inner source IP has no
      VM binding in the intent (warning: sessions are dataplane state
      the controller cannot re-derive, so this is operator-facing).
    """

    name = "migration-residue"

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        gw = member.gateway
        findings: List[Finding] = []
        state = getattr(gw, "migration", None)
        if state is not None:
            for key in sorted(state.frozen):
                entry = state.frozen[key]
                if entry.migration_id in ctx.active_migrations:
                    continue
                vni, vm_ip, version = key
                findings.append(Finding(
                    self.name, "orphaned-freeze", ctx.cluster_id, member.name,
                    f"vni={vni} vm={vm_ip:#x}/v{version} frozen by dead "
                    f"{entry.migration_id}",
                    key=(vni, vm_ip, version, entry.migration_id)))
            for key in sorted(state.shadows):
                shadow = state.shadows[key]
                if shadow.migration_id in ctx.active_migrations:
                    continue
                vni, vm_ip, version = key
                findings.append(Finding(
                    self.name, "shadow-binding", ctx.cluster_id, member.name,
                    f"vni={vni} vm={vm_ip:#x}/v{version} shadow "
                    f"nc={shadow.nc_ip:#x} from dead {shadow.migration_id}",
                    key=(vni, vm_ip, version, shadow.migration_id)))
        service = getattr(gw, "snat_service", None)
        if service is not None:
            desired = ctx.intent.vms_for(ctx.cluster_id)
            bound_ips = {vm_ip for (_vni, vm_ip, _version) in desired}
            for flow, session in service.snat.items():
                if flow.src_ip not in bound_ips:
                    findings.append(Finding(
                        self.name, "orphaned-session", ctx.cluster_id,
                        member.name,
                        f"src={flow.src_ip:#x} public="
                        f"{session.public_ip:#x}:{session.public_port} has "
                        f"no intent VM binding",
                        severity=SEVERITY_WARNING,
                        key=(flow.src_ip, session.public_ip,
                             session.public_port)))
        return findings


class TierResidue(Invariant):
    """Three-tier placement residue: every tier holds exactly what the
    intent steers to it, and no VIP is steered to two tiers at once.

    The :class:`~repro.dpu.planner.TierPlanner` moves a VIP with two
    transactions (withdraw source, install target) and reaps the source
    DPU's session contexts only after both commit. Sessions are
    dataplane state with no journal copy — a ``CONTROLLER_CRASH``
    between the withdraw and the reap strands them with nobody left to
    tear them down:

    * ``orphaned-dpu-session`` — a DPU member holds session contexts for
      a VIP the intent no longer steers to that device; the repair
      bridge reaps them;
    * ``multi-tier-steering`` — a steering route installed on this
      member is *also* steered by another cluster's intent, i.e. one VIP
      is claimed by two tiers — packets would be double-served or the
      colder copy would silently shadow the hotter one.
    """

    name = "tier-residue"

    STEERING_TARGETS = ("offload", "dpu")

    def check(self, ctx: AuditContext, member) -> List[Finding]:
        gw = member.gateway
        findings: List[Finding] = []
        sessions = getattr(gw, "sessions", None)
        if sessions is not None and hasattr(sessions, "vips"):
            desired = ctx.intent.routes_for(ctx.cluster_id)
            steered = {key for key, action in desired.items()
                       if action.target == "dpu"}
            for vip in sessions.vips():
                vni, dst_ip, version = vip
                bits = 32 if version == 4 else 128
                if (vni, Prefix.of(dst_ip, bits, version)) not in steered:
                    findings.append(Finding(
                        self.name, "orphaned-dpu-session", ctx.cluster_id,
                        member.name,
                        f"vni={vni} vip={dst_ip:#x}/v{version} holds "
                        f"{sessions.count_for(vip)} sessions with no dpu "
                        f"steering intent", key=vip))
        installed = {(vni, prefix)
                     for vni, prefix, action in gw.tables.routing.items()
                     if action.target in self.STEERING_TARGETS}
        if installed:
            for other_cid in ctx.intent.cluster_ids():
                if other_cid == ctx.cluster_id:
                    continue
                other = ctx.intent.routes_for(other_cid)
                for key in sorted(installed,
                                  key=lambda k: (k[0], k[1].network)):
                    action = other.get(key)
                    if action is not None and action.target in self.STEERING_TARGETS:
                        findings.append(Finding(
                            self.name, "multi-tier-steering", ctx.cluster_id,
                            member.name,
                            f"vni={key[0]} {key[1]} steered here and in "
                            f"{other_cid}'s intent", key=(key[0], key[1], other_cid)))
        return findings


#: The full sweep, in the order the scanner schedules per member.
ALL_INVARIANTS: Tuple[Invariant, ...] = (
    RouteEquivalence(),
    VmEquivalence(),
    LpmOracleEquivalence(),
    ShadowRules(),
    ChainTermination(),
    TenantIsolation(),
    CounterConservation(),
    FlowCacheCoherence(),
    MigrationResidue(),
    TierResidue(),
)
