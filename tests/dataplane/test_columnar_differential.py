"""Differential property test: the columnar batch path vs the scalar oracle.

Extends the flow-cache differential suite to the compiled data plane:
hypothesis drives randomized interleavings of forwards, batch-flush
boundaries and routing/VM/ACL/meter mutations against two identical
table sets — one forwarded in columnar bursts through
:class:`~repro.dataplane.columnar.BatchCompiler`-compiled programs, one
walked packet-by-packet through the never-cached scalar program. Both
sides serve SNAT from a small session table, so SERVICE/``snat`` routes
exercise the program's SNAT stage (translation, pool exhaustion, IPv6
refusal) against per-packet ``handle_request``. Every burst must produce
byte-identical :class:`ForwardResult`s, and at the end of the
interleaving the gateway counter sets (including every per-reason
``drop_*`` counter), the tenant counter table, the ACL telemetry, the
meter color tallies and the SNAT sessions, contexts and request/failure
counts must all agree exactly. Half the packets are wire images.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.columnar import PacketBatch
from repro.dataplane.gateway_logic import GatewayTables, vni_key
from repro.net.addr import Prefix
from repro.net.headers import ETHERTYPE_IPV4, Ethernet, IPv4, PROTO_UDP, UDP
from repro.net.packet import Packet
from repro.tables.acl import AclRule, AclVerdict
from repro.tables.errors import TableError
from repro.tables.meter import TokenBucket
from repro.tables.snat import SnatTable
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86

GATEWAY_IP = 0x0AFFFF01
VNIS = [10, 11, 12]


def ip(text):
    return int(ipaddress.ip_address(text))


HOSTS = [ip(f"192.168.{net}.{h}") for net in (0, 1) for h in (1, 2, 3)]
HOSTS6 = [ip(f"fd00::{h}") for h in (1, 2)]
NC_IPS = [ip(f"10.1.1.{h}") for h in range(1, 7)]
PREFIXES = [Prefix.parse(p) for p in (
    "192.168.0.0/24", "192.168.1.0/24", "192.168.0.0/16",
    "192.168.0.1/32", "192.168.1.2/32", "0.0.0.0/0", "::/0",
)]
#: Sessions one SNAT table holds: small, so bursts meet pool exhaustion.
SNAT_SESSIONS = 4
#: (committed_burst,) presets small enough that bursts mix GREEN and RED.
METER_BURSTS = [150.0, 400.0, 5000.0]

vnis = st.sampled_from(VNIS)
hosts = st.sampled_from(HOSTS)
prefixes = st.sampled_from(PREFIXES)
dports = st.sampled_from([53, 80, 443])

# PEER targets may form loops — fine, both paths must drop identically.
route_actions = st.one_of(
    st.just(RouteAction(Scope.LOCAL)),
    vnis.map(lambda v: RouteAction(Scope.PEER, next_hop_vni=v)),
    st.just(RouteAction(Scope.SERVICE, target="snat")),
    st.just(RouteAction(Scope.SERVICE, target="lb")),
    st.just(RouteAction(Scope.IDC, target="cen-1")),
    st.just(RouteAction(Scope.INTERNET)),
)

# Host-exact and /24 networks so the ACL's masked compares see both
# full and partial care-bits.
nets = st.one_of(
    st.none(),
    hosts.map(lambda h: (h, 0xFFFFFFFF)),
    hosts.map(lambda h: (h & 0xFFFFFF00, 0xFFFFFF00)),
)

acl_rules = st.builds(
    AclRule,
    priority=st.integers(min_value=1, max_value=5),
    verdict=st.sampled_from([AclVerdict.PERMIT, AclVerdict.DENY]),
    vni=st.one_of(st.none(), vnis),
    src_net=nets,
    dst_net=nets,
    dst_ports=st.one_of(st.none(), st.just((80, 443))),
)

ops = st.one_of(
    st.tuples(st.just("forward"), vnis, hosts, hosts, dports, st.booleans()),
    st.tuples(st.just("forward6"), vnis, st.sampled_from(HOSTS6), st.booleans()),
    st.tuples(st.just("plain"), hosts, hosts),
    st.tuples(st.just("flush")),
    st.tuples(st.just("route+"), vnis, prefixes, route_actions),
    st.tuples(st.just("route-"), vnis, prefixes),
    st.tuples(st.just("vm+"), vnis, hosts, st.sampled_from(NC_IPS)),
    st.tuples(st.just("vm-"), vnis, hosts),
    st.tuples(st.just("acl+"), acl_rules),
    st.tuples(st.just("acl-"), acl_rules),
    st.tuples(st.just("meter"), vnis, st.sampled_from(METER_BURSTS)),
)


def build_plain_packet(src, dst):
    """A non-VXLAN packet (exercises the not-vxlan lane fate)."""
    return Packet(
        eth=Ethernet(dst=0x02BB00000002, src=0x02BB00000001,
                     ethertype=ETHERTYPE_IPV4),
        ip=IPv4(src=src, dst=dst, proto=PROTO_UDP),
        l4=UDP(src_port=1234, dst_port=53),
    )


def apply_mutation(tables, op):
    """One table mutation; TableError (duplicate/missing) is a legal
    no-op outcome as long as both sides raise identically."""
    kind = op[0]
    try:
        if kind == "route+":
            tables.routing.insert(op[1], op[2], op[3], replace=True)
        elif kind == "route-":
            tables.routing.remove(op[1], op[2])
        elif kind == "vm+":
            tables.vm_nc.insert(op[1], op[2], 4, NcBinding(op[3]), replace=True)
        elif kind == "vm-":
            tables.vm_nc.remove(op[1], op[2], 4)
        elif kind == "acl+":
            tables.acl.insert(op[1])
        elif kind == "acl-":
            tables.acl.remove(op[1])
        elif kind == "meter":
            # A fresh bucket per side: TokenBucket carries live token state.
            tables.meters.configure(
                vni_key(op[1]),
                TokenBucket(committed_rate=500.0, committed_burst=op[2]))
    except TableError as exc:
        return type(exc)
    return None


def flush(col_gw, oracle_gw, pending, now, step):
    """Forward the pending burst through both paths and compare."""
    if not pending:
        return
    batch = PacketBatch.from_packets(pending)
    got_list = col_gw.forward_batch(batch, now)
    want_list = [oracle_gw.forward(p, now) for p in pending]
    for lane, (got, want) in enumerate(zip(got_list, want_list)):
        ctx = (step, lane)
        assert got.action is want.action, ctx
        assert got.detail == want.detail, ctx
        assert got.resolved_vni == want.resolved_vni, ctx
        assert got.nc_ip == want.nc_ip, ctx
        assert got.packet.to_bytes() == want.packet.to_bytes(), ctx
    pending.clear()


@settings(max_examples=250, deadline=None)
@given(op_list=st.lists(ops, min_size=1, max_size=40))
def test_columnar_batches_match_scalar_oracle(op_list):
    col_tables = GatewayTables()
    oracle_tables = GatewayTables()
    public_ips = [ip("203.0.113.1")]
    col_gw = XgwX86(gateway_ip=GATEWAY_IP, tables=col_tables,
                    snat=SnatTable(public_ips, capacity_sessions=SNAT_SESSIONS))
    oracle_gw = XgwX86(gateway_ip=GATEWAY_IP, tables=oracle_tables,
                       snat=SnatTable(public_ips, capacity_sessions=SNAT_SESSIONS),
                       cache_entries=0, columnar=False)
    assert col_gw._batch_compiler is not None
    pending = []
    now = 0.0
    for step, op in enumerate(op_list):
        now += 0.001
        kind = op[0]
        if kind == "forward":
            packet = build_vxlan_packet(vni=op[1], src_ip=op[2], dst_ip=op[3],
                                        dst_port=op[4])
            pending.append(Packet.from_bytes(packet.to_bytes()) if op[5] else packet)
        elif kind == "forward6":
            packet = build_vxlan_packet(vni=op[1], src_ip=HOSTS6[0], dst_ip=op[2],
                                        version=6)
            pending.append(Packet.from_bytes(packet.to_bytes()) if op[3] else packet)
        elif kind == "plain":
            pending.append(build_plain_packet(op[1], op[2]))
        elif kind == "flush":
            flush(col_gw, oracle_gw, pending, now, step)
        else:
            # A batch sees one table snapshot: settle the pending burst
            # before mutating (the mutation bumps the generation vector,
            # which must force a recompile on the next flush).
            flush(col_gw, oracle_gw, pending, now, step)
            outcome_a = apply_mutation(col_tables, op)
            outcome_b = apply_mutation(oracle_tables, op)
            assert outcome_a == outcome_b, (step, op)
    flush(col_gw, oracle_gw, pending, now + 0.001, len(op_list))
    # Both sides saw identical traffic: every observable stateful layer
    # must agree — gateway counters (rx, per-action, per-reason drop_*),
    # tenant counters, ACL telemetry and meter colors.
    assert col_gw.counters.snapshot() == oracle_gw.counters.snapshot()
    assert (col_tables.counters.total_packets()
            == oracle_tables.counters.total_packets())
    assert (col_tables.counters.total_bytes()
            == oracle_tables.counters.total_bytes())
    assert col_tables.acl.lookups == oracle_tables.acl.lookups
    assert col_tables.acl.matched == oracle_tables.acl.matched
    assert ((col_tables.meters.green, col_tables.meters.yellow,
             col_tables.meters.red)
            == (oracle_tables.meters.green, oracle_tables.meters.yellow,
                oracle_tables.meters.red))
    col_snat, oracle_snat = col_gw.snat_service, oracle_gw.snat_service
    assert ([(flow, s.public_ip, s.public_port, s.last_active)
             for flow, s in col_snat.snat.items()]
            == [(flow, s.public_ip, s.public_port, s.last_active)
                for flow, s in oracle_snat.snat.items()])
    assert ({flow: (c.vni, c.inner_eth) for flow, c in col_snat._contexts.items()}
            == {flow: (c.vni, c.inner_eth)
                for flow, c in oracle_snat._contexts.items()})
    assert ((col_snat.requests, col_snat.failures)
            == (oracle_snat.requests, oracle_snat.failures))
