"""End-to-end acceptance: every corruption class ``repro.faults`` can
inject is (a) detected by the budgeted scanner within one full scan
cycle of engine ticks, (b) repaired through the controller's
reconcile/targeted-repair path by the bridge, and (c) gone on the next
full scan — while a clean cluster produces zero findings across seeds
with a byte-identical findings log per seed."""

import os

import pytest

from tests.audit.helpers import ip, make_controller, onboard_region

from repro.audit import AuditConfig, AuditScanner, RepairBridge
from repro.core.controller import RouteEntry, TransactionAborted, build_probe_packet
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.net.addr import Prefix
from repro.sim.engine import Engine
from repro.tables.vxlan_routing import RouteAction, Scope


def save_findings_log(name, scanner):
    """Drop the findings log where CI can upload it on failure."""
    art_dir = os.environ.get("AUDIT_ARTIFACT_DIR")
    if not art_dir:
        return
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, f"{name}.findings"), "wb") as fh:
        fh.write(scanner.log.dump())


def arm(ctrl, *specs, seed=7):
    plan = FaultPlan(seed=seed, specs=list(specs))
    FaultInjector(plan).arm_controller(ctrl)
    return plan


def detect_within_one_cycle(ctrl, kinds, seed=3):
    """Tick a freshly attached scanner for exactly one cycle of engine
    time; return (scanner, bridge, findings-of-interest)."""
    scanner = AuditScanner(ctrl, AuditConfig(seed=seed, budget=4))
    bridge = RepairBridge(ctrl).attach(scanner)
    engine = Engine()
    scanner.attach(engine, interval=1.0, until=scanner.cycle_length() * 1.0)
    engine.run()
    assert scanner.cycles_completed >= 1
    found = [f for f in scanner.log.findings() if f.kind in kinds]
    return scanner, bridge, found


class TestCorruptionClasses:
    def test_dropped_route_delete(self):
        ctrl = make_controller()
        cluster_id, _routes, _vms = onboard_region(ctrl)
        scratch = Prefix.parse("10.50.0.0/16")
        ctrl.install_route(cluster_id, RouteEntry(100, scratch,
                                                  RouteAction(Scope.LOCAL)))
        arm(ctrl, FaultSpec(FaultKind.DROP_ROUTE_WRITE, node="*-gw0",
                            max_fires=1))
        ctrl.remove_route(cluster_id, 100, scratch)

        scanner, bridge, found = detect_within_one_cycle(ctrl, {"extra-route"})
        save_findings_log("dropped-route-delete", scanner)
        assert found and found[0].node.endswith("-gw0")
        assert bridge.counters["repairs_applied"] >= 1
        assert ctrl.is_admitted(cluster_id)
        assert scanner.full_scan() == []

    def test_dropped_vm_remove(self):
        ctrl = make_controller()
        cluster_id, _routes, _vms = onboard_region(ctrl)
        arm(ctrl, FaultSpec(FaultKind.DROP_VM_WRITE, node="*-gw0",
                            max_fires=1))
        ctrl.remove_vm(cluster_id, 100, ip("192.168.10.2"), 4)
        assert [f.kind for f in ctrl.consistency_check(cluster_id)] == ["extra-vm"]

        scanner, bridge, found = detect_within_one_cycle(ctrl, {"extra-vm"})
        save_findings_log("dropped-vm-remove", scanner)
        assert found and found[0].node.endswith("-gw0")
        assert bridge.counters["repairs_applied"] >= 1
        member = ctrl.clusters[cluster_id].find_member(f"{cluster_id}-gw0")
        assert member.gateway.split_vm_nc.lookup(100, ip("192.168.10.2"), 4) is None
        assert scanner.full_scan() == []

    def test_aborted_transaction_residue(self):
        ctrl = make_controller()
        cluster_id, _routes, _vms = onboard_region(ctrl)
        # Write 1 (gw0's second prepare) raises → abort; write 2 (the
        # rollback's remove of the already-installed route) is dropped →
        # silent residue on gw0.
        arm(ctrl,
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, at_writes=(1,)),
            FaultSpec(FaultKind.DROP_ROUTE_WRITE, at_writes=(2,)))
        with pytest.raises(TransactionAborted):
            with ctrl.transaction(cluster_id) as txn:
                txn.install_route(RouteEntry(100, Prefix.parse("10.50.0.0/16"),
                                             RouteAction(Scope.LOCAL)))
                txn.install_route(RouteEntry(100, Prefix.parse("10.51.0.0/16"),
                                             RouteAction(Scope.LOCAL)))
        assert ctrl.counters["txns_aborted"] == 1

        scanner, bridge, found = detect_within_one_cycle(ctrl, {"extra-route"})
        save_findings_log("aborted-txn-residue", scanner)
        assert found and found[0].key == (100, Prefix.parse("10.50.0.0/16"))
        assert bridge.counters["repairs_applied"] >= 1
        assert scanner.full_scan() == []

    def test_stale_flow_cache_entry(self):
        ctrl = make_controller(hybrid=True)
        cluster_id, _routes, _vms = onboard_region(ctrl)
        member = ctrl.clusters[cluster_id].find_member(f"{cluster_id}-x86")
        probe = build_probe_packet(100, ip("192.168.10.2"))
        member.gateway.forward(probe)
        plan = FaultPlan(seed=9, specs=[
            FaultSpec(FaultKind.POISON_FLOW_CACHE, max_fires=1)])
        assert FaultInjector(plan).poison_caches(ctrl.clusters) == 1

        scanner, bridge, found = detect_within_one_cycle(
            ctrl, {"stale-cache-entry"})
        save_findings_log("stale-flow-cache", scanner)
        assert found
        assert bridge.counters["caches_cleared"] == 1
        assert member.gateway.forward(probe).nc_ip == ip("10.1.1.11")
        assert scanner.full_scan() == []


class TestCleanClusterAcrossSeeds:
    def test_zero_findings_and_byte_identical_logs_per_seed(self):
        def run(seed):
            ctrl = make_controller(hybrid=True)
            onboard_region(ctrl)
            scanner = AuditScanner(ctrl, AuditConfig(seed=seed, budget=4))
            engine = Engine()
            scanner.attach(engine, interval=1.0,
                           until=scanner.cycle_length() * 1.0)
            engine.run()
            assert scanner.cycles_completed >= 1
            return scanner.log.dump()

        for seed in (1, 2, 3):
            first, second = run(seed), run(seed)
            assert first == b""  # zero findings on a clean cluster
            assert first == second  # byte-identical per seed

    def test_corrupted_run_log_is_byte_stable_per_seed(self):
        def run(seed):
            ctrl = make_controller()
            cluster_id, _routes, _vms = onboard_region(ctrl)
            arm(ctrl, FaultSpec(FaultKind.DROP_VM_WRITE, node="*-gw0",
                                max_fires=1))
            ctrl.remove_vm(cluster_id, 100, ip("192.168.10.2"), 4)
            scanner = AuditScanner(ctrl, AuditConfig(seed=seed, budget=4))
            scanner.full_scan()
            return scanner.log.dump()

        for seed in (1, 2, 3):
            dump = run(seed)
            assert dump != b""
            assert dump == run(seed)
