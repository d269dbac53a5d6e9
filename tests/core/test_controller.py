"""Tests for the central controller: placement, consistency, probing."""

import ipaddress

import pytest

from repro.cluster.cluster import GatewayCluster
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import Controller, RouteEntry, VmEntry, build_probe_packet
from repro.core.splitting import ClusterCapacity, TableSplitter, TenantProfile
from repro.core.xgw_h import XgwH
from repro.net.addr import Prefix
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope


def ip(text):
    return int(ipaddress.ip_address(text))


@pytest.fixture
def controller():
    balancer = VniSteeredBalancer()
    splitter = TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13))
    ctrl = Controller(splitter, balancer)
    counter = [0]

    def factory(cluster_id):
        counter[0] += 1
        nodes = [(f"{cluster_id}-gw{i}", XgwH(gateway_ip=counter[0] * 10 + i))
                 for i in range(2)]
        backup = GatewayCluster(
            f"{cluster_id}-backup",
            [(f"{cluster_id}-bk{i}", XgwH(gateway_ip=counter[0] * 100 + i))
             for i in range(2)],
        )
        return GatewayCluster(cluster_id, nodes, backup=backup)

    ctrl.set_cluster_factory(factory)
    return ctrl


def tenant_payload(vni, subnet="192.168.10.0/24", vm="192.168.10.2", nc="10.1.1.11"):
    routes = [RouteEntry(vni, Prefix.parse(subnet), RouteAction(Scope.LOCAL))]
    vms = [VmEntry(vni, ip(vm), 4, NcBinding(ip(nc)))]
    return TenantProfile(vni, len(routes), len(vms), 1e9), routes, vms


class TestOnboarding:
    def test_add_tenant_creates_cluster_and_steers(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        assert cluster_id in controller.clusters
        assert controller.balancer.cluster_for_vni(100) == cluster_id

    def test_entries_replicated_to_all_nodes_and_backup(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        cluster = controller.clusters[cluster_id]
        for member in cluster.members() + cluster.backup.members():
            assert member.gateway.route_count() == 1
            assert member.gateway.vm_count() == 1

    def test_overflow_allocates_new_cluster(self, controller):
        for i in range(3):
            vni = 100 + i
            profile = TenantProfile(vni, routes=25, vms=10, traffic_bps=1e9)
            routes = [
                RouteEntry(vni, Prefix((10 << 24) + (j << 12), 20, 4),
                           RouteAction(Scope.LOCAL))
                for j in range(25)
            ]
            controller.add_tenant(profile, routes, [])
        # 25+25 fills the 50-route cluster; the third opens a second one.
        assert len(controller.clusters) == 2

    def test_version_increments(self, controller):
        profile, routes, vms = tenant_payload(100)
        controller.add_tenant(profile, routes, vms)
        assert controller.version == 1

    def test_table_size_series_recorded(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms, time=2.0)
        series = controller.table_size_series[cluster_id]
        assert len(series) == 2  # one route + one vm install
        assert series.values[-1] == 2


class TestConsistency:
    def test_clean_cluster_passes(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        assert controller.consistency_check(cluster_id) == []

    def test_detects_missing_route(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        # Corrupt one gateway out-of-band (the paper's bug scenario).
        gw = controller.clusters[cluster_id].members()[0].gateway
        gw.remove_route(100, routes[0].prefix)
        findings = controller.consistency_check(cluster_id)
        assert any(f.kind == "missing-route" for f in findings)

    def test_detects_extra_route(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        gw = controller.clusters[cluster_id].members()[0].gateway
        gw.install_route(100, Prefix.parse("10.99.0.0/16"), RouteAction(Scope.LOCAL))
        findings = controller.consistency_check(cluster_id)
        assert any(f.kind == "extra-route" for f in findings)

    def test_detects_missing_vm(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        gw = controller.clusters[cluster_id].members()[1].gateway
        gw.split_vm_nc.half_for_ip(vms[0].vm_ip).remove(100, vms[0].vm_ip, 4)
        findings = controller.consistency_check(cluster_id)
        assert any(f.kind == "missing-vm" for f in findings)

    def test_repair_restores(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        gw = controller.clusters[cluster_id].members()[0].gateway
        gw.remove_route(100, routes[0].prefix)
        fixed, failed = controller.targeted_repair(cluster_id)
        assert fixed >= 1 and failed == []
        assert controller.consistency_check(cluster_id) == []

    def test_repair_clean_cluster_is_zero(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        assert controller.targeted_repair(cluster_id) == (0, [])


class TestProbing:
    def test_probe_sweeps_every_member_and_backup(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        report = controller.probe(cluster_id)
        # 1 local VM probed on 2 members + 2 hot-backup members.
        assert report.ok and report.passed == report.sent == 4

    def test_probe_catches_divergence_on_backup_member(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        backup_member = controller.clusters[cluster_id].backup.members()[1]
        backup_member.gateway.split_vm_nc.half_for_ip(vms[0].vm_ip).remove(
            100, vms[0].vm_ip, 4
        )
        report = controller.probe(cluster_id)
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].startswith(f"{backup_member.name}:")

    def test_probe_skips_offline_members(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        cluster = controller.clusters[cluster_id]
        cluster.take_offline(cluster.members()[0].name)
        report = controller.probe(cluster_id)
        assert report.ok and report.sent == 3

    def test_probe_detects_broken_vm_entry(self, controller):
        profile, routes, vms = tenant_payload(100)
        cluster_id = controller.add_tenant(profile, routes, vms)
        gw = controller.clusters[cluster_id].members()[0].gateway
        gw.split_vm_nc.half_for_ip(vms[0].vm_ip).remove(100, vms[0].vm_ip, 4)
        report = controller.probe(cluster_id)
        assert not report.ok and report.failures

    def test_probe_packet_shape(self):
        packet = build_probe_packet(7, ip("192.168.10.2"))
        assert packet.is_vxlan and packet.vni == 7
        assert packet.inner_dst == ip("192.168.10.2")
