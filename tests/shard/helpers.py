"""Shared builders for the sharded control-plane suite: a small region
(4 shards over the 24-bit VNI space) with two-member clusters."""

import ipaddress

from repro.cluster.cluster import GatewayCluster
from repro.core.controller import RouteEntry, VmEntry
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.core.xgw_h import XgwH
from repro.net.addr import Prefix
from repro.shard import ShardedController
from repro.tables.errors import TableError
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope

#: One representative VNI per shard of a 4-shard region.
SHARD_VNIS = (100, (1 << 22) + 5, (1 << 23) + 9, (3 << 22) + 1)


def ip(text):
    return int(ipaddress.ip_address(text))


def make_sharded(num_shards=4, segment_bytes=16384):
    counter = [0]

    def factory(cluster_id):
        counter[0] += 1
        nodes = [(f"{cluster_id}-gw{i}", XgwH(gateway_ip=counter[0] * 10 + i))
                 for i in range(2)]
        return GatewayCluster(cluster_id, nodes)

    return ShardedController.build(
        num_shards,
        ClusterCapacity(routes=50, vms=500, traffic_bps=1e13),
        cluster_factory=factory,
        segment_bytes=segment_bytes,
    )


def tenant_payload(vni, subnet="192.168.10.0/24", vm="192.168.10.2",
                   nc="10.1.1.11"):
    routes = [RouteEntry(vni, Prefix.parse(subnet), RouteAction(Scope.LOCAL))]
    vms = [VmEntry(vni, ip(vm), 4, NcBinding(ip(nc)))]
    return TenantProfile(vni, len(routes), len(vms), 1e9), routes, vms


def onboard(sharded, vni, **kwargs):
    profile, routes, vms = tenant_payload(vni, **kwargs)
    cluster_id = sharded.add_tenant(profile, routes, vms)
    return cluster_id, routes, vms


def subnet_of(vni):
    """A deterministic, per-tenant /16 for peering payloads."""
    return Prefix.parse(f"10.{vni % 200}.0.0/16")


def stage_peer_chain(xtxn, a, b):
    """The full cross-shard peer chain between placed tenants *a* and
    *b*: each endpoint's cluster receives its own PEER hop plus the
    remote terminal entry (gateways resolve chains locally)."""
    sub_a, sub_b = subnet_of(a), subnet_of(b)
    xtxn.install_route(RouteEntry(a, sub_b, RouteAction(Scope.PEER,
                                                        next_hop_vni=b)))
    xtxn.install_route(RouteEntry(b, sub_b, RouteAction(Scope.LOCAL)), owner=a)
    xtxn.install_route(RouteEntry(b, sub_a, RouteAction(Scope.PEER,
                                                        next_hop_vni=a)))
    xtxn.install_route(RouteEntry(a, sub_a, RouteAction(Scope.LOCAL)), owner=b)


def failing_install(vni, prefix, action, replace=False):
    """Stand-in for a member's ``install_route`` whose agent is down."""
    raise TableError("injected gateway agent failure")
