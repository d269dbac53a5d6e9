"""Differential property test: the DPU device vs the scalar program walk.

``DpuDevice.forward`` runs the compiled gateway program one lane at a
time. Its reference here is the definition it replaced, kept test-local:
``gateway_logic.forward`` over twin tables, the documented miss mapping
(a failed device, no route on the device, or a full session table
meeting a new flow is a ``dpu-table-miss``) and
``DpuSessionTable.ensure`` for every served packet. Hypothesis
interleaves forwards — object-built packets and wire images — with
route/VM/ACL/meter mutations, device failure and session-capacity
overflow; results, bytes, device counters, sessions, tenant counters,
meter colours and ACL telemetry must agree after every step.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dpu.device as device_module
from repro.dataplane import gateway_logic
from repro.dataplane.gateway_logic import (
    DropReason,
    ForwardAction,
    ForwardResult,
    GatewayTables,
    count_drop,
    inner_flow_key,
    vni_key,
)
from repro.dpu import DpuDevice, DpuProfile, DpuSessionTable
from repro.net.addr import Prefix
from repro.net.packet import Packet
from repro.tables.acl import AclRule, AclVerdict
from repro.tables.errors import TableError
from repro.tables.meter import TokenBucket
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.telemetry.stats import CounterSet
from repro.workloads.traffic import build_vxlan_packet

GATEWAY_IP = 0x0A00F001
VNIS = [10, 11]
SESSION_CAPACITY = 3


def ip(text):
    return int(ipaddress.ip_address(text))


HOSTS = [ip(f"192.168.{net}.{h}") for net in (0, 1) for h in (1, 2, 3)]
NC_IPS = [ip(f"10.1.1.{h}") for h in range(1, 4)]
PREFIXES = [Prefix.parse(p) for p in (
    "192.168.0.0/24", "192.168.1.0/24", "192.168.0.1/32", "0.0.0.0/0")]

vnis = st.sampled_from(VNIS)
hosts = st.sampled_from(HOSTS)
prefixes = st.sampled_from(PREFIXES)

route_actions = st.one_of(
    st.just(RouteAction(Scope.LOCAL)),
    vnis.map(lambda v: RouteAction(Scope.PEER, next_hop_vni=v)),
    st.just(RouteAction(Scope.SERVICE, target="snat")),
    st.just(RouteAction(Scope.INTERNET)),
)
acl_rules = st.builds(
    AclRule,
    priority=st.integers(min_value=1, max_value=3),
    verdict=st.sampled_from([AclVerdict.PERMIT, AclVerdict.DENY]),
    vni=st.one_of(st.none(), vnis),
    src_net=st.one_of(st.none(), hosts.map(lambda h: (h, 0xFFFFFFFF))),
    dst_ports=st.one_of(st.none(), st.just((80, 443))),
)
ops = st.one_of(
    st.tuples(st.just("forward"), vnis, hosts, hosts,
              st.sampled_from([53, 80, 443]), st.booleans()),
    st.tuples(st.just("route+"), vnis, prefixes, route_actions),
    st.tuples(st.just("route-"), vnis, prefixes),
    st.tuples(st.just("vm+"), vnis, hosts, st.sampled_from(NC_IPS)),
    st.tuples(st.just("vm-"), vnis, hosts),
    st.tuples(st.just("acl+"), acl_rules),
    st.tuples(st.just("acl-"), acl_rules),
    st.tuples(st.just("meter"), vnis, st.sampled_from([150.0, 5000.0])),
    st.tuples(st.just("fail")),
)


class ReferenceDpu:
    """The device as it was defined before it ran the compiled program."""

    def __init__(self):
        self.tables = GatewayTables()
        self.sessions = DpuSessionTable(SESSION_CAPACITY)
        self.counters = CounterSet()
        self.failed = False

    def fail(self):
        self.failed = True
        return self.sessions.clear()

    def forward(self, packet, now):
        self.counters.add("rx_packets")
        miss = ForwardResult(ForwardAction.DROP, packet,
                             detail=DropReason.DPU_TABLE_MISS.value)
        if self.failed:
            result = miss
        else:
            result = gateway_logic.forward(self.tables, packet, GATEWAY_IP, now)
            if (result.action is ForwardAction.DROP
                    and result.detail == DropReason.NO_ROUTE.value):
                result = miss
            elif result.action is not ForwardAction.DROP and packet.is_vxlan:
                vip = (packet.vni, packet.inner_dst, packet.inner_version)
                if not self.sessions.ensure(inner_flow_key(packet), vip, now):
                    result = miss
        self.counters.add(f"action_{result.action.value.replace('-', '_')}")
        if result.action is ForwardAction.DROP:
            count_drop(self.counters, result.detail)
        return result


def mutate(tables, op):
    """One table mutation; a TableError is a legal outcome as long as
    both sides raise the same one."""
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
            tables.meters.configure(
                vni_key(op[1]), TokenBucket(committed_rate=500.0, committed_burst=op[2]))
    except TableError as exc:
        return type(exc)
    return None


def observed(gw):
    """Everything the two sides must agree on besides the results."""
    tables = gw.tables
    return {
        "counters": gw.counters.snapshot(),
        "sessions": [(flow, ctx.vip, ctx.created_at, ctx.last_active, ctx.packets)
                     for flow, ctx in sorted(gw.sessions.items())],
        "vips": gw.sessions.vips(),
        "tenant": sorted((key, cell.packets, cell.bytes)
                         for key, cell in tables.counters.items()),
        "meters": (tables.meters.green, tables.meters.yellow, tables.meters.red),
        "acl": (tables.acl.lookups, tables.acl.matched),
    }


@settings(max_examples=200, deadline=None)
@given(op_list=st.lists(ops, min_size=1, max_size=40))
def test_device_matches_the_scalar_walk(op_list):
    dev = DpuDevice("dpu-0", GATEWAY_IP,
                    profile=DpuProfile(session_capacity=SESSION_CAPACITY))
    ref = ReferenceDpu()
    now = 0.0
    for step, op in enumerate(op_list):
        now += 0.001
        kind = op[0]
        if kind == "forward":
            packet = build_vxlan_packet(vni=op[1], src_ip=op[2], dst_ip=op[3],
                                        dst_port=op[4])
            frame = packet.to_bytes()
            got = dev.forward(Packet.from_bytes(frame) if op[5] else packet, now)
            want = ref.forward(Packet.from_bytes(frame), now)
            assert (got.action, got.detail, got.resolved_vni, got.nc_ip) == \
                (want.action, want.detail, want.resolved_vni, want.nc_ip), step
            assert got.packet.to_bytes() == want.packet.to_bytes(), step
        elif kind == "fail":
            assert dev.fail() == ref.fail()
        else:
            assert mutate(dev.tables, op) == mutate(ref.tables, op), (step, op)
        assert observed(dev) == observed(ref), step


def test_a_burst_never_walks_the_scalar_program(monkeypatch):
    """With ``gateway_logic.forward`` (and any alias of it in the device
    module) raising, a DPU burst of first-touch keys still forwards:
    delivers, misses and session overflow all come from the compiled
    program."""
    def walk(*_args, **_kwargs):
        raise AssertionError("gateway_logic.forward on the DPU path")

    monkeypatch.setattr(gateway_logic, "forward", walk)
    monkeypatch.setattr(device_module, "forward", walk, raising=False)
    dev = DpuDevice("dpu-0", GATEWAY_IP, profile=DpuProfile(session_capacity=4))
    dev.install_route(10, Prefix.parse("192.168.0.0/24"), RouteAction(Scope.LOCAL))
    for host in HOSTS[:3]:
        dev.install_vm(10, host, 4, NcBinding(NC_IPS[0]))
    frames = [build_vxlan_packet(vni=10, src_ip=src, dst_ip=dst).to_bytes()
              for src in HOSTS[3:] for dst in HOSTS[:3]]
    frames.append(build_vxlan_packet(vni=10, src_ip=HOSTS[3],
                                     dst_ip=ip("10.9.9.9")).to_bytes())
    results = [dev.forward(Packet.from_bytes(f), now=0.5) for f in frames]
    details = [r.detail for r in results]
    assert details.count("local") == 4  # the session table's capacity
    assert details.count(DropReason.DPU_TABLE_MISS.value) == len(frames) - 4
    assert dev.counters["rx_packets"] == len(frames)
    assert len(dev.sessions) == 4

