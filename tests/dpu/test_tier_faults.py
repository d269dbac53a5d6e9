"""Tier failures: DPU device death drains through transactions, a
controller crash mid-migration leaves only audit-repairable residue."""

import pytest

from tests.dpu.helpers import build_loop, ip, make_env, seed_sessions
from tests.faults.test_crash_recovery import recover_into_new_controller

from repro.audit import AuditConfig, AuditScanner, RepairBridge
from repro.core.journal import ControllerCrash
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.offload import VipKey

VNI = 1000


def steering_keys(gateway):
    return {(vni, prefix) for vni, prefix, action in
            gateway.tables.routing.items()
            if action.target in ("offload", "dpu")}


class TestDeviceFailureDrain:
    def build_loop_with_outage(self, at_time=15.5, duration=30.0):
        engine, loop, planner = build_loop(num_devices=2, seed=7)
        ctrl = planner.controller
        plan = FaultPlan(seed=3, specs=[
            FaultSpec(FaultKind.DPU_DEVICE_FAIL, cluster="dpu-0",
                      at_time=at_time)])
        FaultInjector(plan).schedule(engine, ctrl.clusters)
        loop.start(until=duration)
        engine.run(until=duration)
        return ctrl, loop, planner, plan

    def test_failed_device_drains_to_x86_and_service_recovers(self):
        ctrl, loop, planner, plan = self.build_loop_with_outage()
        assert plan.injected(FaultKind.DPU_DEVICE_FAIL) == 1
        dead = planner.devices["dpu-0"]
        assert dead.failed and len(dead.sessions) == 0
        # Every VIP steered at dpu-0 was re-homed: no placements, no
        # steering intent, no installed routes remain on the dead device.
        assert planner.keys_on("dpu", device="dpu-0") == []
        assert not any(a.target == "dpu"
                       for a in ctrl.desired_routes("dpu-0").values())
        assert steering_keys(dead) == set()
        assert planner.counters["drains"] > 0
        assert any("device-offline" in line for line in planner.decision_log)
        # The surviving device and the chip still carry their share, and
        # the x86 side absorbed the drained band without melting.
        assert planner.keys_on("dpu", device="dpu-1")
        assert planner.keys_on("chip")
        assert loop.snapshots[-1].total_loss < 0.01

    def test_drain_leaves_no_audit_residue(self):
        ctrl, _loop, _planner, _plan = self.build_loop_with_outage()
        scanner = AuditScanner(ctrl, AuditConfig(seed=3, budget=400))
        findings = scanner.full_scan()
        assert [f for f in findings if f.invariant == "tier-residue"] == []


class TestCrashMidMigration:
    def crash_mid_promotion(self):
        ctrl, cluster_id, planner, devices = make_env(journal=True)
        key = VipKey(VNI, ip("192.168.10.50"))
        planner.observe_and_apply({key: 200.0}, now=1.0)
        assert planner.place_of(key)[0] == "dpu"
        dev_name = planner.place_of(key)[1]
        seed_sessions(planner.devices[dev_name], key)
        # Crash the controller at its next chip-cluster mutation: the
        # dpu-withdraw transaction commits, the chip-install journals
        # then dies before any gateway sees it.
        plan = FaultPlan(seed=11, specs=[
            FaultSpec(FaultKind.CONTROLLER_CRASH, cluster=cluster_id,
                      probability=1.0, max_fires=1)])
        FaultInjector(plan).arm_controller(ctrl)
        with pytest.raises(ControllerCrash):
            planner.observe_and_apply({key: 5000.0}, now=2.0)
        return ctrl, cluster_id, planner, key, dev_name

    def test_crash_leaves_zero_partial_route_entries(self):
        ctrl, cluster_id, planner, key, dev_name = self.crash_mid_promotion()
        route_key = (key.vni, key.prefix)
        # Withdraw committed everywhere; install reached nobody.
        assert route_key not in ctrl.desired_routes(dev_name)
        assert route_key not in ctrl.desired_routes(cluster_id)
        assert steering_keys(planner.devices[dev_name]) == set()
        for member in ctrl.clusters[cluster_id].all_members():
            assert route_key not in steering_keys(member.gateway)
        # ...but the source device still holds the sessions the reap
        # (which runs last) never got to: that is the residue.
        assert planner.devices[dev_name].sessions.count_for(
            (key.vni, key.dst_ip, key.version)) == 3

    def test_audit_finds_and_repair_clears_the_orphans(self):
        ctrl, cluster_id, _planner, key, dev_name = self.crash_mid_promotion()
        device = ctrl.clusters[dev_name].find_member(dev_name).gateway
        # Controller process died: stand up a fresh one over the same
        # clusters and replay the journal (uncommitted txn is dropped).
        recovered, _writes = recover_into_new_controller(ctrl)
        assert (key.vni, key.prefix) not in recovered.desired_routes(dev_name)

        scanner = AuditScanner(recovered, AuditConfig(seed=3, budget=400))
        bridge = RepairBridge(recovered).attach(scanner)
        findings = scanner.full_scan()
        orphans = [f for f in findings if f.kind == "orphaned-dpu-session"]
        assert len(orphans) == 1
        assert orphans[0].cluster_id == dev_name
        assert orphans[0].key == (key.vni, key.dst_ip, key.version)
        # The cycle hook already repaired: sessions reaped on the device.
        assert bridge.counters["dpu_sessions_cleared"] == 3
        assert device.sessions.count_for(
            (key.vni, key.dst_ip, key.version)) == 0
        rescan = scanner.full_scan()
        assert [f for f in rescan if f.invariant == "tier-residue"] == []


class TestMultiTierSteering:
    def test_double_claim_is_detected_and_withdrawn(self):
        ctrl, cluster_id, planner, _devices = make_env()
        key = VipKey(VNI, ip("192.168.10.50"))
        planner.observe_and_apply({key: 200.0}, now=1.0)
        dev_name = planner.place_of(key)[1]
        # Simulate a lost reap on the *steering* side: the chip also
        # claims the VIP while the DPU still steers it.
        with ctrl.transaction(cluster_id, time=2.0) as txn:
            txn.install_route(key.route())
        scanner = AuditScanner(ctrl, AuditConfig(seed=3, budget=400))
        bridge = RepairBridge(ctrl).attach(scanner)
        findings = scanner.full_scan()
        dupes = [f for f in findings if f.kind == "multi-tier-steering"]
        assert dupes
        assert {f.cluster_id for f in dupes} <= {cluster_id, dev_name}
        assert bridge.counters["tier_duplicates_cleared"] >= 1
        rescan = scanner.full_scan()
        assert [f for f in rescan if f.kind == "multi-tier-steering"] == []
