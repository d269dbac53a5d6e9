"""Integration: controller-driven mutations invalidate the flow cache.

A hybrid cluster (one XGW-H, one XGW-x86) is managed by the real
controller. The x86 box serves traffic through its flow cache; then the
heavy-hitter machinery promotes the hot VIP via a controller
transaction, which installs the /32 steering route on *every* member —
the generation bump must make the x86 box's cached decision stale so the
very next packet re-resolves onto the steering route. A transactional
VM migration likewise must never yield a stale DELIVER_NC to the old NC.
"""

import ipaddress

from repro.cluster.cluster import GatewayCluster
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import Controller, RouteEntry, VmEntry
from repro.core.splitting import ClusterCapacity, TableSplitter, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import ForwardAction
from repro.dpu import Tier, TierDetector, TierPlanner
from repro.net.addr import Prefix
from repro.offload import ChipBudget, HeavyHitterDetector, VipKey
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86


def ip(text):
    return int(ipaddress.ip_address(text))


VNI = 1000
VM_IP = ip("192.168.10.2")
NC_A = ip("10.1.1.11")
NC_B = ip("10.2.2.22")


def make_hybrid_controller():
    """A controller whose clusters mix hardware and software members."""
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13)),
        VniSteeredBalancer(),
    )

    def factory(cluster_id):
        return GatewayCluster(cluster_id, [
            (f"{cluster_id}-hw0", XgwH(gateway_ip=0x0A0000FE)),
            (f"{cluster_id}-x86", XgwX86(gateway_ip=0x0A0000FD)),
        ])

    ctrl.set_cluster_factory(factory)
    return ctrl


def onboard(ctrl):
    routes = [RouteEntry(VNI, Prefix.parse("192.168.10.0/24"),
                         RouteAction(Scope.LOCAL))]
    vms = [VmEntry(VNI, VM_IP, 4, NcBinding(NC_A))]
    cluster_id = ctrl.add_tenant(TenantProfile(VNI, 1, 1, 1e9), routes, vms)
    return cluster_id


def x86_member(ctrl, cluster_id):
    (member,) = [m for m in ctrl.clusters[cluster_id].all_members()
                 if isinstance(m.gateway, XgwX86)]
    return member.gateway


def vip_packet():
    return build_vxlan_packet(vni=VNI, src_ip=ip("192.168.10.9"), dst_ip=VM_IP)


def test_offload_promotion_invalidates_cached_decisions():
    ctrl = make_hybrid_controller()
    cluster_id = onboard(ctrl)
    gw = x86_member(ctrl, cluster_id)

    # Warm the cache: second packet is a hit, delivered to NC_A.
    assert gw.forward(vip_packet()).nc_ip == NC_A
    hit = gw.forward(vip_packet())
    assert hit.nc_ip == NC_A
    assert gw.flow_cache.hits == 1

    # The real detector promotes the VIP after sustained load; the
    # planner turns that into a controller transaction on the cluster.
    vip = VipKey(VNI, VM_IP)
    planner = TierPlanner(
        ctrl, cluster_id,
        ChipBudget(ctrl.clusters[cluster_id], sram_budget_words=8,
                   tcam_budget_slices=64),
        [],
        TierDetector(chip=HeavyHitterDetector(
            theta_hi=100.0, theta_lo=40.0, promote_after=2, ewma_alpha=1.0)),
    )
    gen_before = gw.tables.routing.generation
    assert planner.observe_and_apply({vip: 500.0}, now=1.0) == []  # arming
    decisions = planner.observe_and_apply({vip: 500.0}, now=2.0)
    assert [d.target for d in decisions] == [Tier.CHIP]
    assert planner.place_of(vip) == ("chip", None)
    assert gw.tables.routing.generation > gen_before

    # The stale cached decision must not be served: the next forward
    # re-resolves and lands on the /32 steering route.
    stale_before = gw.flow_cache.stale
    gw.forward(vip_packet())
    assert gw.flow_cache.stale == stale_before + 1
    resolution = gw.tables.routing.resolve(VNI, VM_IP, 4)
    assert resolution.action.target == "offload"


def test_vm_migration_never_serves_stale_deliver_nc():
    ctrl = make_hybrid_controller()
    cluster_id = onboard(ctrl)
    gw = x86_member(ctrl, cluster_id)

    for _ in range(3):
        assert gw.forward(vip_packet()).nc_ip == NC_A
    assert gw.flow_cache.hits == 2

    # Live-migrate the VM to a new NC, transactionally across members.
    with ctrl.transaction(cluster_id, time=5.0) as txn:
        txn.remove_vm(VNI, VM_IP, 4)
        txn.install_vm(VmEntry(VNI, VM_IP, 4, NcBinding(NC_B)))
    assert ctrl.consistency_check(cluster_id) == []

    result = gw.forward(vip_packet())
    assert result.action is ForwardAction.DELIVER_NC
    assert result.nc_ip == NC_B  # never the pre-migration NC
    assert result.packet.ip.dst == NC_B
    # And the re-captured entry serves hits for the new binding.
    again = gw.forward(vip_packet())
    assert again.nc_ip == NC_B
    assert gw.flow_cache.hits >= 3
