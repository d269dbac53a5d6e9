"""Each invariant fires on exactly its corruption class and stays silent
on a clean cluster — including the PR-2 blind spot regression: a dropped
``remove_vm`` must surface as ``extra-vm``."""

import pytest

from tests.audit.helpers import ip, make_controller, onboard_region

from repro.audit import (
    AuditContext,
    ChainTermination,
    CounterConservation,
    FlowCacheCoherence,
    IntentSnapshot,
    LpmOracleEquivalence,
    RouteEquivalence,
    ShadowRules,
    TenantIsolation,
    VmEquivalence,
    tcam_shadow_findings,
)
from repro.core.controller import build_probe_packet
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.net.addr import Prefix
from repro.net.flow import FlowKey
from repro.tables.acl import AclRule, AclVerdict
from repro.tables.tcam import Tcam
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope


@pytest.fixture
def region():
    ctrl = make_controller()
    cluster_id, routes, vms = onboard_region(ctrl)
    ctx = AuditContext(intent=IntentSnapshot.from_controller(ctrl),
                       cluster_id=cluster_id, seed=3)
    return ctrl, cluster_id, ctx


def members_of(ctrl, cluster_id):
    return ctrl.clusters[cluster_id].all_members()


def refresh(ctrl, ctx):
    return AuditContext(intent=IntentSnapshot.from_controller(ctrl),
                        cluster_id=ctx.cluster_id, seed=ctx.seed,
                        samples_per_prefix=ctx.samples_per_prefix)


class TestRouteEquivalence:
    def test_clean_cluster_is_silent(self, region):
        ctrl, cluster_id, ctx = region
        for member in members_of(ctrl, cluster_id):
            assert RouteEquivalence().check(ctx, member) == []

    def test_surviving_deleted_route_is_extra_route(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        prefix = Prefix.parse("0.0.0.0/0")
        ctrl.remove_route(cluster_id, 100, prefix)
        # The delete was "lost" on one member: reinstall behind the
        # controller's back.
        member.gateway.install_route(100, prefix,
                                     RouteAction(Scope.INTERNET, target="inet"))
        ctx = refresh(ctrl, ctx)
        findings = RouteEquivalence().check(ctx, member)
        assert [f.kind for f in findings] == ["extra-route"]
        assert findings[0].key == (100, prefix)
        other = members_of(ctrl, cluster_id)[1]
        assert RouteEquivalence().check(ctx, other) == []

    def test_corrupt_route_detected(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        member.gateway.install_route(
            100, Prefix.parse("192.168.10.0/24"),
            RouteAction(Scope.SERVICE, target="oops"), replace=True)
        assert [f.kind for f in RouteEquivalence().check(ctx, member)] == \
            ["corrupt-route"]


class TestVmEquivalenceBlindSpot:
    def test_dropped_remove_vm_flagged_as_extra_vm(self, region):
        """Regression for the PR-2 blind spot: FaultyGateway drops the
        remove_vm; the audit and consistency_check both see the survivor."""
        ctrl, cluster_id, ctx = region
        plan = FaultPlan(seed=7, specs=[
            FaultSpec(FaultKind.DROP_VM_WRITE, node="*-gw0", max_fires=1)])
        FaultInjector(plan).arm_controller(ctrl)
        ctrl.remove_vm(cluster_id, 100, ip("192.168.10.2"), 4)
        assert plan.injected(FaultKind.DROP_VM_WRITE) == 1
        assert [(f.node, f.kind) for f in ctrl.consistency_check(cluster_id)] == \
            [(f"{cluster_id}-gw0", "extra-vm")]
        ctx = refresh(ctrl, ctx)
        flagged = {m.name: [f.kind for f in VmEquivalence().check(ctx, m)]
                   for m in members_of(ctrl, cluster_id)}
        assert flagged[f"{cluster_id}-gw0"] == ["extra-vm"]
        assert all(kinds == [] for name, kinds in flagged.items()
                   if name != f"{cluster_id}-gw0")

    def test_corrupt_binding_detected(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        member.gateway.install_vm(100, ip("192.168.10.2"), 4,
                                  NcBinding(ip("10.9.9.9")), replace=True)
        assert [f.kind for f in VmEquivalence().check(ctx, member)] == \
            ["corrupt-vm"]


class TestLpmOracle:
    def test_clean_structures_agree_with_oracle(self, region):
        ctrl, cluster_id, ctx = region
        for member in members_of(ctrl, cluster_id):
            assert LpmOracleEquivalence().check(ctx, member) == []

    def test_sampling_is_deterministic(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        inv = LpmOracleEquivalence()
        assert inv.check(ctx, member) == inv.check(ctx, member)


class TestShadowRules:
    def test_policy_inverting_shadow_is_an_error(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        acl = member.gateway.tables.acl
        acl.insert(AclRule(priority=10, verdict=AclVerdict.PERMIT, vni=100))
        acl.insert(AclRule(priority=5, verdict=AclVerdict.DENY, vni=100,
                           proto=6))
        findings = ShadowRules().check(ctx, member)
        assert [f.kind for f in findings] == ["shadowed-rule"]
        assert findings[0].severity == "error"

    def test_dead_weight_shadow_is_a_warning(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        acl = member.gateway.tables.acl
        acl.insert(AclRule(priority=10, verdict=AclVerdict.DENY, vni=100))
        acl.insert(AclRule(priority=5, verdict=AclVerdict.DENY, vni=100,
                           proto=17))
        findings = ShadowRules().check(ctx, member)
        assert [(f.kind, f.severity) for f in findings] == \
            [("dead-rule", "warning")]

    def test_tcam_helper_reports_pairs(self):
        tcam = Tcam(key_bits=8)
        tcam.insert(0x10, 0xF0, priority=10, action="a")
        tcam.insert(0x12, 0xFF, priority=5, action="b")
        findings = tcam_shadow_findings(tcam, "A", "gw0")
        assert [f.kind for f in findings] == ["shadowed-rule"]
        assert findings[0].key == (5, 10)


class TestChainTermination:
    def test_clean_peering_terminates(self, region):
        ctrl, cluster_id, ctx = region
        for member in members_of(ctrl, cluster_id):
            assert ChainTermination().check(ctx, member) == []

    def test_broken_chain_detected(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        # Peer into a VNI with no routes at all.
        member.gateway.install_route(100, Prefix.parse("10.50.0.0/16"),
                                     RouteAction(Scope.PEER, next_hop_vni=999))
        findings = ChainTermination().check(ctx, member)
        assert [f.kind for f in findings] == ["broken-chain"]

    def test_peer_loop_detected(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        member.gateway.install_route(200, Prefix.parse("10.60.0.0/16"),
                                     RouteAction(Scope.PEER, next_hop_vni=201))
        member.gateway.install_route(201, Prefix.parse("10.60.0.0/16"),
                                     RouteAction(Scope.PEER, next_hop_vni=200))
        kinds = {f.kind for f in ChainTermination().check(ctx, member)}
        assert kinds == {"peer-loop"}


class TestTenantIsolation:
    def test_authorised_peering_is_silent(self, region):
        ctrl, cluster_id, ctx = region
        for member in members_of(ctrl, cluster_id):
            assert TenantIsolation().check(ctx, member) == []

    def test_unauthorised_cross_tenant_route_detected(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        # A misinstalled route leaks tenant 100's subnet into tenant 101.
        member.gateway.install_route(
            100, Prefix.parse("192.168.10.0/24"),
            RouteAction(Scope.PEER, next_hop_vni=101), replace=True)
        findings = TenantIsolation().check(ctx, member)
        assert findings and {f.kind for f in findings} == {"tenant-isolation"}
        assert all(f.key[-1] == 101 for f in findings)


class TestCounterConservation:
    def test_identities_hold_after_traffic(self, region):
        ctrl, cluster_id, ctx = region
        probe = build_probe_packet(100, ip("192.168.10.2"))
        miss = build_probe_packet(100, ip("192.168.10.77"))
        for member in members_of(ctrl, cluster_id):
            for _ in range(3):
                member.gateway.forward(probe)
            member.gateway.forward(miss)
            assert CounterConservation().check(ctx, member) == []

    def test_torn_counter_state_detected(self, region):
        ctrl, cluster_id, ctx = region
        member = members_of(ctrl, cluster_id)[0]
        member.gateway.forward(build_probe_packet(100, ip("192.168.10.2")))
        member.gateway.stats.packets += 5  # torn write
        findings = CounterConservation().check(ctx, member)
        assert [f.kind for f in findings] == ["counter-mismatch"]


class TestFlowCacheCoherence:
    def test_hybrid_member_with_clean_cache_is_silent(self):
        ctrl = make_controller(hybrid=True)
        cluster_id, _routes, _vms = onboard_region(ctrl)
        member = ctrl.clusters[cluster_id].find_member(f"{cluster_id}-x86")
        member.gateway.forward(build_probe_packet(100, ip("192.168.10.2")))
        assert len(member.gateway.flow_cache) == 1
        ctx = AuditContext(intent=IntentSnapshot.from_controller(ctrl),
                           cluster_id=cluster_id, seed=3)
        assert FlowCacheCoherence().check(ctx, member) == []

    def test_poisoned_entry_with_current_generation_detected(self):
        ctrl = make_controller(hybrid=True)
        cluster_id, _routes, _vms = onboard_region(ctrl)
        member = ctrl.clusters[cluster_id].find_member(f"{cluster_id}-x86")
        member.gateway.forward(build_probe_packet(100, ip("192.168.10.2")))
        plan = FaultPlan(seed=9, specs=[
            FaultSpec(FaultKind.POISON_FLOW_CACHE, max_fires=1)])
        assert FaultInjector(plan).poison_caches(ctrl.clusters) == 1
        ctx = AuditContext(intent=IntentSnapshot.from_controller(ctrl),
                           cluster_id=cluster_id, seed=3)
        findings = FlowCacheCoherence().check(ctx, member)
        assert [f.kind for f in findings] == ["stale-cache-entry"]

    def test_stale_generation_entries_are_not_findings(self):
        ctrl = make_controller(hybrid=True)
        cluster_id, _routes, _vms = onboard_region(ctrl)
        member = ctrl.clusters[cluster_id].find_member(f"{cluster_id}-x86")
        member.gateway.forward(build_probe_packet(100, ip("192.168.10.2")))
        # A table mutation bumps the generation: the cached entry is now
        # stale, and the cache's own guard will drop it lazily.
        member.gateway.tables.routing.generation += 1
        ctx = AuditContext(intent=IntentSnapshot.from_controller(ctrl),
                           cluster_id=cluster_id, seed=3)
        assert FlowCacheCoherence().check(ctx, member) == []
