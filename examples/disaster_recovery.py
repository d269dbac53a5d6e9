#!/usr/bin/env python3
"""Disaster recovery at all three levels, plus VTrace diagnostics (§6.1).

Walks through the paper's recovery playbook on a live region:

1. port level — a jittery port is isolated;
2. node level — a gateway fails, the cluster absorbs its load; when the
   cluster drains, a cold-standby gateway is pulled in;
3. cluster level — a packet-loss alert flips traffic to the 1:1 hot
   backup, with consistency verified before and after;

and then uses the VTrace-style tracer to localise an injected
forwarding fault to the exact pipe.

Run:  python examples/disaster_recovery.py
"""

from repro.cluster.health import Signal
from repro.core.sailfish import RegionSpec, Sailfish
from repro.dataplane.gateway_logic import ForwardAction
from repro.workloads.traffic import RegionTrafficGenerator, build_vxlan_packet


def check_traffic(region, label, packets=300):
    report = region.forward_sample(
        packets=packets,
        generator=RegionTrafficGenerator(region.topology, seed=5, internet_share=0.0),
    )
    print(f"  traffic check [{label}]: {report.delivered}/{report.packets} "
          f"delivered, {report.dropped} dropped")
    return report


def main() -> None:
    region = Sailfish.build(RegionSpec.small(), seed=17)
    cluster_id = sorted(region.controller.clusters)[0]
    cluster = region.controller.clusters[cluster_id]
    print(f"region up: cluster {cluster_id} with "
          f"{[m.name for m in cluster.active_members()]}, hot backup "
          f"{cluster.backup.cluster_id}")
    check_traffic(region, "baseline")

    print("\n=== 1. Port-level: isolate a jittery port ===")
    node = cluster.members()[0].name
    region.monitor.observe(f"{cluster_id}/{node}:7", Signal.PORT_JITTER, 1.0, time=1.0)
    region.recovery.isolate_port(cluster_id, node, 7, time=1.0)
    print(f"  {node} healthy ports: {cluster.member(node).healthy_ports}/32")
    check_traffic(region, "port isolated")

    print("\n=== 2. Node-level: gateway failure ===")
    region.recovery.fail_node(cluster_id, node, time=2.0)
    print(f"  active members now: {[m.name for m in cluster.active_members()]}")
    check_traffic(region, "node down")

    print("\n=== 3. Cluster-level: loss alert -> hot backup ===")
    alert = region.monitor.observe(cluster_id, Signal.PACKET_LOSS, 1e-3, time=3.0)
    serving = region.recovery.serving_cluster(cluster_id)
    print(f"  alert: {alert.signal.value} at {alert.value:.0e} "
          f"-> serving cluster is now {serving.cluster_id}")
    check_traffic(region, "on backup cluster")
    print(f"  recovery audit log: "
          f"{[(e.level, e.action) for e in region.recovery.events]}")

    print("\n=== 4. VTrace: localise an injected fault ===")
    vm = next(v for vni in region.topology.vnis()
              for v in region.topology.vpcs[vni].vms if v.version == 4)
    packet = build_vxlan_packet(vm.vni, vm.ip ^ 1, vm.ip)
    # Inject the fault on exactly the gateway this flow hashes to.
    from repro.dataplane.gateway_logic import inner_flow_key

    victim = serving.pick_member(inner_flow_key(packet)).gateway
    victim.split_vm_nc.half_for_ip(vm.ip).remove(vm.vni, vm.ip, 4)
    print(f"  injected: VM-NC entry for {vm.ip:#x} removed on one gateway")
    findings = region.controller.consistency_check(cluster_id)
    print(f"  consistency check: {len(findings)} finding(s): "
          f"{[f.kind for f in findings[:3]]}")
    result, trace = region.trace(packet)
    print("  trace of the failing packet:")
    print(trace.describe())
    repaired, _failed = region.controller.targeted_repair(cluster_id)
    print(f"  controller repair: {repaired} divergence(s) fixed")
    result, _ = region.trace(packet)
    print(f"  after repair: {result.action.value}")


if __name__ == "__main__":
    main()
