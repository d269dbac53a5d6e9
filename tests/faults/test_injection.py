"""Every fault kind fires at least once and leaves exactly the damage
the §6.1 machinery is supposed to detect."""

import pytest

from tests.faults.helpers import make_controller, onboard, tenant_payload

from repro.cluster.health import HealthMonitor, Signal
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyGateway,
)
from repro.sim.engine import Engine
from repro.tables.errors import TableError


def armed_controller(*specs, seed=7):
    plan = FaultPlan(seed=seed, specs=list(specs))
    injector = FaultInjector(plan)
    ctrl = make_controller()
    injector.arm_controller(ctrl)
    return ctrl, plan, injector


class TestWriteFaults:
    def test_drop_route_write_on_one_member(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.DROP_ROUTE_WRITE, node="*-gw1", max_fires=1))
        cluster_id, _routes, _vms = onboard(ctrl)
        findings = ctrl.consistency_check(cluster_id)
        assert [(f.node, f.kind) for f in findings] == [
            (f"{cluster_id}-gw1", "missing-route")
        ]
        assert plan.injected(FaultKind.DROP_ROUTE_WRITE) == 1

    def test_corrupt_route_write_detected_as_corrupt(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.CORRUPT_ROUTE_WRITE, node="*-gw0", max_fires=1))
        cluster_id, routes, _vms = onboard(ctrl)
        findings = ctrl.consistency_check(cluster_id)
        assert [(f.node, f.kind) for f in findings] == [
            (f"{cluster_id}-gw0", "corrupt-route")
        ]
        assert findings[0].key == (100, routes[0].prefix)
        assert plan.injected(FaultKind.CORRUPT_ROUTE_WRITE) == 1

    def test_drop_vm_write(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.DROP_VM_WRITE, node="*-gw0", max_fires=1))
        cluster_id, _routes, vms = onboard(ctrl)
        findings = ctrl.consistency_check(cluster_id)
        assert [(f.node, f.kind) for f in findings] == [
            (f"{cluster_id}-gw0", "missing-vm")
        ]
        assert findings[0].key == (100, vms[0].vm_ip, 4)
        assert plan.injected(FaultKind.DROP_VM_WRITE) == 1

    def test_corrupt_vm_write_fails_probe(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.CORRUPT_VM_WRITE, node="*-gw1", max_fires=1))
        cluster_id, _routes, _vms = onboard(ctrl)
        findings = ctrl.consistency_check(cluster_id)
        assert [(f.node, f.kind) for f in findings] == [
            (f"{cluster_id}-gw1", "corrupt-vm")
        ]
        report = ctrl.probe(cluster_id)
        # The mis-pointed NC answers the probe with the wrong rewrite.
        assert len(report.failures) == 1
        assert report.failures[0].startswith(f"{cluster_id}-gw1:")
        assert plan.injected(FaultKind.CORRUPT_VM_WRITE) == 1

    def test_fail_route_write_raises_table_error(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, max_fires=1))
        with pytest.raises(TableError, match="injected fail-route-write"):
            onboard(ctrl)
        assert plan.injected(FaultKind.FAIL_ROUTE_WRITE) == 1

    def test_fail_vm_write_raises_table_error(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.FAIL_VM_WRITE, max_fires=1))
        with pytest.raises(TableError, match="injected fail-vm-write"):
            onboard(ctrl)
        assert plan.injected(FaultKind.FAIL_VM_WRITE) == 1

    def test_partial_onboard_stops_replication_mid_tenant(self):
        # The first 4 writes (the route, fanned out to 2 members + 2
        # backups) land; every later write of the onboard is lost.
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.PARTIAL_ONBOARD, after_onboard_writes=4))
        cluster_id, _routes, _vms = onboard(ctrl)
        findings = ctrl.consistency_check(cluster_id)
        assert {f.kind for f in findings} == {"missing-vm"}
        assert len(findings) == 4  # all members + backups miss the VM
        assert plan.injected(FaultKind.PARTIAL_ONBOARD) == 4
        # Writes outside an onboard window are untouched.
        profile, routes, vms = tenant_payload(101, subnet="192.168.11.0/24",
                                              vm="192.168.11.2")
        ctrl.install_route(cluster_id, routes[0])
        assert len(ctrl.consistency_check(cluster_id)) == 4

    def test_stale_backup_diverges_only_backup_members(self):
        ctrl, plan, _ = armed_controller(FaultSpec(FaultKind.STALE_BACKUP))
        cluster_id, _routes, _vms = onboard(ctrl)
        findings = ctrl.consistency_check(cluster_id)
        assert len(findings) == 4  # 2 backup members × (route + vm)
        assert {f.node for f in findings} == {
            f"{cluster_id}-bk0", f"{cluster_id}-bk1"
        }
        assert plan.injected(FaultKind.STALE_BACKUP) == 4

    def test_probability_faults_are_seeded(self):
        def run(seed):
            ctrl, plan, _ = armed_controller(
                FaultSpec(FaultKind.DROP_ROUTE_WRITE, probability=0.5),
                seed=seed)
            onboard(ctrl)
            return [f.write_index for f in plan.log]

        assert run(3) == run(3)


class TestRemoveFaults:
    """Delete-path interception: removes advance the same global write
    index as installs and can be dropped or failed like any write."""

    def test_dropped_route_remove_leaves_extra_route(self):
        # The onboard is 8 clean writes; write 8 is the remove on gw0.
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.DROP_ROUTE_WRITE, at_writes=(8,)))
        cluster_id, routes, _vms = onboard(ctrl)
        ctrl.remove_route(cluster_id, 100, routes[0].prefix)
        findings = ctrl.consistency_check(cluster_id)
        assert [(f.node, f.kind) for f in findings] == [
            (f"{cluster_id}-gw0", "extra-route")
        ]
        assert plan.injected(FaultKind.DROP_ROUTE_WRITE) == 1

    def test_reconcile_repairs_surviving_route(self):
        ctrl, _plan, _ = armed_controller(
            FaultSpec(FaultKind.DROP_ROUTE_WRITE, at_writes=(8,)))
        cluster_id, routes, _vms = onboard(ctrl)
        ctrl.remove_route(cluster_id, 100, routes[0].prefix)
        engine = Engine()
        ctrl.reconcile_loop(engine, interval=1.0, until=3.0)
        engine.run()
        assert ctrl.consistency_check(cluster_id) == []
        gw = ctrl.clusters[cluster_id].members()[0].gateway
        assert gw.route_count() == 0

    def test_failed_route_remove_raises(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, at_writes=(8,)))
        cluster_id, routes, _vms = onboard(ctrl)
        with pytest.raises(TableError, match="injected fail-route-write"):
            ctrl.remove_route(cluster_id, 100, routes[0].prefix)
        assert plan.injected(FaultKind.FAIL_ROUTE_WRITE) == 1

    def test_failed_vm_remove_raises(self):
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.FAIL_VM_WRITE, at_writes=(8,)))
        cluster_id, _routes, vms = onboard(ctrl)
        with pytest.raises(TableError, match="injected fail-vm-write"):
            ctrl.remove_vm(cluster_id, 100, vms[0].vm_ip, 4)
        assert plan.injected(FaultKind.FAIL_VM_WRITE) == 1

    def test_dropped_vm_remove_is_found_and_repaired(self):
        # The surviving binding is an extra-vm finding of the two-way VM
        # diff; one reconcile tick withdraws it and readmits the cluster.
        ctrl, plan, _ = armed_controller(
            FaultSpec(FaultKind.DROP_VM_WRITE, at_writes=(8,)))
        cluster_id, _routes, vms = onboard(ctrl)
        ctrl.remove_vm(cluster_id, 100, vms[0].vm_ip, 4)
        gw = ctrl.clusters[cluster_id].members()[0].gateway
        assert gw.split_vm_nc.lookup(100, vms[0].vm_ip, 4) is not None
        assert plan.injected(FaultKind.DROP_VM_WRITE) == 1
        findings = ctrl.consistency_check(cluster_id)
        assert [(f.node, f.kind, f.key) for f in findings] == [
            (f"{cluster_id}-gw0", "extra-vm", (100, vms[0].vm_ip, 4))
        ]
        engine = Engine()
        ctrl.reconcile_loop(engine, interval=1.0, until=1.0)
        engine.run()
        assert ctrl.counters["reconcile_ticks"] == 1
        assert gw.split_vm_nc.lookup(100, vms[0].vm_ip, 4) is None
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.is_admitted(cluster_id)
        assert ctrl.counters["readmissions"] == 1


class TestScheduledFaults:
    def test_member_crash_goes_through_health(self):
        ctrl, plan, injector = armed_controller(
            FaultSpec(FaultKind.MEMBER_CRASH, node="*-gw0", at_time=5.0))
        cluster_id, _routes, _vms = onboard(ctrl)
        monitor = HealthMonitor()
        monitor.set_level(Signal.NODE_DOWN, threshold=1.0)
        engine = Engine()
        assert injector.schedule(engine, ctrl.clusters, monitor=monitor) == 1
        engine.run()
        member = ctrl.clusters[cluster_id].member(f"{cluster_id}-gw0")
        assert member.state.value == "offline"
        assert len(monitor.alerts_for(f"{cluster_id}/{cluster_id}-gw0")) == 1
        assert plan.injected(FaultKind.MEMBER_CRASH) == 1

    def test_member_flap_returns_after_downtime(self):
        ctrl, plan, injector = armed_controller(
            FaultSpec(FaultKind.MEMBER_FLAP, node="*-gw1", at_time=2.0,
                      down_for=3.0))
        cluster_id, _routes, _vms = onboard(ctrl)
        engine = Engine()
        injector.schedule(engine, ctrl.clusters)
        engine.run(until=4.0)
        member = ctrl.clusters[cluster_id].member(f"{cluster_id}-gw1")
        assert member.state.value == "offline"
        engine.run()
        assert member.state.value == "active"
        details = [f.detail for f in plan.log
                   if f.kind is FaultKind.MEMBER_FLAP]
        assert details == ["offline", "online"]


class TestArming:
    def test_proxy_delegates_reads(self, controller):
        plan = FaultPlan(seed=1)
        FaultInjector(plan).arm_controller(controller)
        cluster_id, _routes, vms = onboard(controller)
        gw = controller.clusters[cluster_id].members()[0].gateway
        assert isinstance(gw, FaultyGateway)
        assert gw.route_count() == 1 and gw.vm_count() == 1
        assert gw.split_vm_nc.lookup(100, vms[0].vm_ip, 4) is not None
        assert gw.wrapped.route_count() == 1

    def test_arming_twice_does_not_double_wrap(self, controller):
        injector = FaultInjector(FaultPlan(seed=1))
        cluster_id, _routes, _vms = onboard(controller)
        cluster = controller.clusters[cluster_id]
        injector.arm_cluster(cluster)
        injector.arm_cluster(cluster)
        gw = cluster.members()[0].gateway
        assert isinstance(gw, FaultyGateway)
        assert not isinstance(gw.wrapped, FaultyGateway)

    def test_clean_plan_is_transparent(self):
        ctrl, plan, _ = armed_controller()  # no specs
        cluster_id, _routes, _vms = onboard(ctrl)
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.probe(cluster_id).ok
        assert plan.log == [] and plan.write_index == 8
