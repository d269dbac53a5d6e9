"""End-to-end integration: the whole region under realistic scenarios."""

import pytest

from repro.cluster.health import Signal
from repro.core.sailfish import RegionSpec, Sailfish
from repro.dataplane.gateway_logic import ForwardAction
from repro.workloads.traffic import RegionTrafficGenerator, build_vxlan_packet


@pytest.fixture(scope="module")
def region():
    return Sailfish.build(RegionSpec.medium(), seed=42)


class TestMediumRegion:
    def test_scale(self, region):
        assert region.topology.total_vms >= 1000
        assert len(region.controller.clusters) >= 1

    def test_bulk_forwarding_clean(self, region):
        report = region.forward_sample(packets=2000, seed=1)
        assert report.dropped == 0
        assert report.delivered > 0

    def test_delivered_packets_reach_correct_nc(self, region):
        """Every delivered packet's outer dst must be the NC that hosts
        the destination VM."""
        generator = RegionTrafficGenerator(region.topology, seed=5, internet_share=0.0)
        vm_index = {
            (vm.vni, vm.ip): vm
            for vpc in region.topology.vpcs.values()
            for vm in vpc.vms
        }
        checked = 0
        for sample in generator.packets(500):
            result = region.forward(sample.packet)
            if result.action is ForwardAction.DELIVER_NC and sample.dst_vm is not None:
                expected = vm_index[(sample.dst_vm.vni, sample.dst_vm.ip)]
                assert result.packet.ip.dst == expected.nc_ip
                checked += 1
        assert checked > 300

    def test_wire_format_survives_region(self, region):
        """Serialise at every hop: what the region forwards is valid wire
        format end to end."""
        from repro.net.packet import Packet

        generator = RegionTrafficGenerator(region.topology, seed=6, internet_share=0.0)
        for sample in generator.packets(50):
            wire = sample.packet.to_bytes()
            reparsed = Packet.from_bytes(wire)
            result = region.forward(reparsed)
            if result.action is not ForwardAction.DROP:
                assert Packet.from_bytes(result.packet.to_bytes()).to_bytes() == \
                    result.packet.to_bytes()


class TestFailureScenarios:
    def test_node_failure_keeps_traffic_flowing(self):
        region = Sailfish.build(RegionSpec.small(), seed=9)
        cluster_id = sorted(region.controller.clusters)[0]
        cluster = region.controller.clusters[cluster_id]
        victim = cluster.members()[0].name
        region.recovery.fail_node(cluster_id, victim)
        report = region.forward_sample(packets=200, seed=2)
        assert report.dropped == 0

    def test_cluster_failover_keeps_traffic_flowing(self):
        region = Sailfish.build(RegionSpec.small(), seed=10)
        cluster_id = sorted(region.controller.clusters)[0]
        region.recovery.fail_over_cluster(cluster_id)
        report = region.forward_sample(packets=200, seed=3)
        # The backup cluster was configured identically by the controller.
        assert report.dropped == 0

    def test_loss_alert_triggers_failover(self):
        region = Sailfish.build(RegionSpec.small(), seed=11)
        cluster_id = sorted(region.controller.clusters)[0]
        main = region.controller.clusters[cluster_id]
        region.monitor.observe(cluster_id, Signal.PACKET_LOSS, 1e-3, time=1.0)
        assert region.recovery.serving_cluster(cluster_id) is main.backup

    def test_gateway_corruption_found_and_repaired_then_forwards(self):
        region = Sailfish.build(RegionSpec.small(), seed=12)
        cluster_id = sorted(region.controller.clusters)[0]
        cluster = region.controller.clusters[cluster_id]
        gw = cluster.members()[0].gateway
        # Corrupt: wipe a random route from one node only.
        vni, prefix, _ = next(iter(gw.tables.routing.items()))
        gw.remove_route(vni, prefix)
        assert region.controller.consistency_check(cluster_id)
        region.controller.targeted_repair(cluster_id)
        assert region.controller.consistency_check(cluster_id) == []
        assert region.controller.probe(cluster_id, limit=4).ok


class TestIpv6Traffic:
    def test_v6_vm_delivery(self):
        region = Sailfish.build(RegionSpec.small(), seed=21)
        v6_vms = [
            vm for vpc in region.topology.vpcs.values() for vm in vpc.vms
            if vm.version == 6
        ]
        if not v6_vms:
            pytest.skip("seed produced no v6 VMs")
        vm = v6_vms[0]
        peer = v6_vms[0]
        packet = build_vxlan_packet(vm.vni, peer.ip ^ 1, vm.ip, version=6)
        result = region.forward(packet)
        assert result.action is ForwardAction.DELIVER_NC
        assert result.packet.ip.dst == vm.nc_ip


class TestDeterminism:
    def test_same_seed_same_region(self):
        a = Sailfish.build(RegionSpec.small(), seed=33)
        b = Sailfish.build(RegionSpec.small(), seed=33)
        ra = a.forward_sample(packets=100, seed=1)
        rb = b.forward_sample(packets=100, seed=1)
        assert (ra.delivered, ra.uplinked, ra.dropped) == (
            rb.delivered, rb.uplinked, rb.dropped)
        assert ra.software_packets == rb.software_packets

    def test_different_seed_different_topology(self):
        a = Sailfish.build(RegionSpec.small(), seed=1)
        b = Sailfish.build(RegionSpec.small(), seed=2)
        vms_a = {vm.ip for vpc in a.topology.vpcs.values() for vm in vpc.vms}
        vms_b = {vm.ip for vpc in b.topology.vpcs.values() for vm in vpc.vms}
        assert vms_a != vms_b
