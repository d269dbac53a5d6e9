"""Unit tests for the columnar batch data plane (DESIGN §13).

Covers the struct-of-arrays :class:`PacketBatch` and its lazy burst
aggregates, the compiled ACL classifier against the scalar table,
generation-vector invalidation of compiled programs, and an XGW-H
columnar-vs-scalar differential over mixed bursts (results, stats, drop
counters, per-pipe tallies, bridge bytes, table counters and meters).
"""

import ipaddress
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.dataplane.columnar import (
    BatchCompiler,
    CompiledAcl,
    PacketBatch,
    resolve_backend,
)
from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import ForwardAction, GatewayTables, forward, vni_key
from repro.dataplane.migration import ensure_migration_state
from repro.dataplane.services import SnatService
from repro.dpu.device import DpuDevice
from repro.net.addr import Prefix
from repro.net.flow import FlowKey
from repro.net.headers import ETHERTYPE_IPV4, Ethernet, IPv4, PROTO_UDP, UDP
from repro.net.packet import Packet
from repro.tables.acl import AclRule, AclTable, AclVerdict
from repro.tables.meter import TokenBucket
from repro.tables.snat import SnatTable
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86


def ip(text):
    return int(ipaddress.ip_address(text))


def test_the_data_plane_loads_no_numpy():
    """The library is stdlib only: importing the gateways and the batch
    data plane in a fresh interpreter leaves numpy unloaded (it used to
    be an optional column store costing ~13 MB of resident memory)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import sys, repro, repro.x86.gateway, repro.core.xgw_h, "
            "repro.dataplane.columnar; print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def plain_packet(src=ip("10.9.0.1"), dst=ip("10.9.0.2")):
    return Packet(
        eth=Ethernet(dst=0x02BB00000002, src=0x02BB00000001,
                     ethertype=ETHERTYPE_IPV4),
        ip=IPv4(src=src, dst=dst, proto=PROTO_UDP),
        l4=UDP(src_port=1234, dst_port=53),
    )


class TestBackendResolution:
    """One column store: the bench fingerprint's ``backend`` key is a
    constant, and no name selects another store."""

    def test_explicit_python(self):
        assert resolve_backend().name == "python"
        assert resolve_backend() is resolve_backend()

    def test_unknown_name_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend("fortran")


class TestPacketBatch:
    @staticmethod
    def mixed_burst():
        return [
            build_vxlan_packet(vni=7, src_ip=ip("192.168.0.1"),
                               dst_ip=ip("192.168.0.2")),
            plain_packet(),
            build_vxlan_packet(vni=8, src_ip=ip("192.168.0.3"),
                               dst_ip=ip("192.168.0.4"), payload=b"abcd"),
            build_vxlan_packet(vni=7, src_ip=ip("192.168.0.9"),
                               dst_ip=ip("192.168.0.2")),
        ]

    def test_shape_and_keys(self):
        packets = self.mixed_burst()
        batch = PacketBatch.from_packets(packets)
        assert batch.n == 4
        assert batch.vxlan_count == 3
        assert batch.nonvxlan_lanes == [1]
        assert batch.keys == [(7, ip("192.168.0.2"), 4), None,
                              (8, ip("192.168.0.4"), 4),
                              (7, ip("192.168.0.2"), 4)]
        for lane, p in enumerate(packets):
            if p.is_vxlan:
                assert batch.sizes[lane] == p.wire_length()
        assert batch.dst_list == [ip("192.168.0.2"), 0,
                                  ip("192.168.0.4"), ip("192.168.0.2")]

    def test_key_index_aggregates(self):
        packets = self.mixed_burst()
        batch = PacketBatch.from_packets(packets)
        unique_keys, inverse, uniq_counts, uniq_bytes, per_vni = batch.key_index()
        assert unique_keys == [(7, ip("192.168.0.2"), 4),
                              (8, ip("192.168.0.4"), 4)]
        assert list(inverse) == [0, -1, 1, 0]
        assert uniq_counts == [2, 1]
        assert uniq_bytes == [batch.sizes[0] + batch.sizes[3], batch.sizes[2]]
        assert per_vni == {7: [2, batch.sizes[0] + batch.sizes[3]],
                           8: [1, batch.sizes[2]]}
        # Cached: a second call returns the same tuple object.
        assert batch.key_index() is batch._key_index

    def test_lanes_by_vni(self):
        batch = PacketBatch.from_packets(self.mixed_burst())
        assert batch.lanes_by_vni() == {7: [0, 3], 8: [2]}

    def test_direct_construction_rejected(self):
        with pytest.raises(TypeError, match="from_packets"):
            PacketBatch()


class TestCompiledAcl:
    """The compiled classifier against the scalar AclTable, rule for
    rule: same first-match semantics, same deny set, same matched
    telemetry."""

    RULES = [
        AclRule(priority=5, verdict=AclVerdict.PERMIT, vni=7,
                dst_ports=(80, 99)),
        AclRule(priority=4, verdict=AclVerdict.DENY,
                src_net=(ip("192.168.1.0"), 0xFFFFFF00)),
        AclRule(priority=3, verdict=AclVerdict.DENY, vni=8),
        AclRule(priority=2, verdict=AclVerdict.DENY, proto=PROTO_UDP,
                dst_net=(ip("192.168.0.4"), 0xFFFFFFFF)),
        AclRule(priority=1, verdict=AclVerdict.PERMIT),
    ]

    @staticmethod
    def burst():
        rng = random.Random(13)
        packets = [plain_packet()]
        for _ in range(60):
            packets.append(build_vxlan_packet(
                vni=rng.choice([7, 8, 9]),
                src_ip=ip(f"192.168.{rng.randrange(2)}.{rng.randrange(1, 9)}"),
                dst_ip=ip(f"192.168.0.{rng.randrange(1, 9)}"),
                dst_port=rng.choice([80, 99, 100]),
            ))
        return packets

    @pytest.mark.parametrize("default", [AclVerdict.PERMIT, AclVerdict.DENY])
    def test_matches_scalar_table(self, default):
        table = AclTable(default_verdict=default)
        for rule in self.RULES:
            table.insert(rule)
        packets = self.burst()
        batch = PacketBatch.from_packets(packets)
        compiled = CompiledAcl(table.rules(), default is AclVerdict.DENY)
        deny_lanes, matched = compiled.classify(batch)
        want_deny, want_matched = [], 0
        for lane, p in enumerate(packets):
            if not p.is_vxlan:
                continue
            src, dst, proto, sport, dport = p.inner.five_tuple()
            flow = FlowKey(src, dst, proto, sport, dport, version=4)
            before = table.matched
            if table.evaluate(p.vni, flow) is AclVerdict.DENY:
                want_deny.append(lane)
            want_matched += table.matched - before
        assert deny_lanes == want_deny
        assert matched == want_matched
        assert any(want_deny), "burst must exercise deny rules"


class TestGenerationInvalidation:
    """Compiled programs are guarded by the same table generation vector
    as the flow cache: memoized decisions die with the mutation, and an
    untouched table keeps the same program (and its memo) alive."""

    VNI = 40

    def make_gw(self):
        t = GatewayTables()
        t.routing.insert(self.VNI, Prefix.parse("192.168.0.0/24"),
                         RouteAction(Scope.LOCAL))
        t.vm_nc.insert(self.VNI, ip("192.168.0.1"), 4,
                       NcBinding(ip("10.3.0.1")))
        return XgwX86(gateway_ip=ip("10.255.0.1"), tables=t)

    @staticmethod
    def pkt(dst="192.168.0.1", vni=40):
        return build_vxlan_packet(vni=vni, src_ip=ip("192.168.0.7"),
                                  dst_ip=ip(dst))

    def test_vm_removal_invalidates_memo(self):
        gw = self.make_gw()
        assert gw.forward_batch([self.pkt()])[0].action is ForwardAction.DELIVER_NC
        program = gw._compiled
        assert program is not None
        # No mutation: the program (and its key memo) is reused.
        gw.forward_batch([self.pkt()])
        assert gw._compiled is program
        gw.remove_vm(self.VNI, ip("192.168.0.1"), 4)
        result = gw.forward_batch([self.pkt()])[0]
        assert result.action is ForwardAction.DROP
        assert result.detail == "no-vm"
        assert gw._compiled is not program

    def test_route_and_acl_mutations_invalidate(self):
        gw = self.make_gw()
        gw.forward_batch([self.pkt()])
        program = gw._compiled
        gw.install_route(self.VNI, Prefix.parse("192.168.0.0/24"),
                         RouteAction(Scope.INTERNET), replace=True)
        assert gw.forward_batch([self.pkt()])[0].action is ForwardAction.UPLINK
        assert gw._compiled is not program
        program = gw._compiled
        gw.tables.acl.insert(AclRule(priority=1, verdict=AclVerdict.DENY))
        result = gw.forward_batch([self.pkt()])[0]
        assert (result.action, result.detail) == (ForwardAction.DROP, "acl-deny")
        assert gw._compiled is not program

    def test_meter_state_is_read_live(self):
        # Meters are charged against the live table at execute time, so
        # configuring one needs no recompile to take effect.
        gw = self.make_gw()
        gw.forward_batch([self.pkt()], now=0.0)
        program = gw._compiled
        gw.tables.meters.configure(
            vni_key(self.VNI),
            TokenBucket(committed_rate=1.0, committed_burst=1.0))
        result = gw.forward_batch([self.pkt()], now=0.001)[0]
        assert (result.action, result.detail) == (ForwardAction.DROP, "meter-red")
        assert gw._compiled is program


GW_H_IP = ip("10.255.0.2")


def make_hw_gateway(columnar):
    t = GatewayTables()
    gw = XgwH(gateway_ip=GW_H_IP, tables=t, columnar=columnar)
    t.routing.insert(100, Prefix.parse("192.168.0.0/24"),
                     RouteAction(Scope.LOCAL))
    # A 3-hop PEER chain ending in the LOCAL VNI.
    t.routing.insert(101, Prefix.parse("192.168.0.0/24"),
                     RouteAction(Scope.PEER, next_hop_vni=100))
    t.routing.insert(104, Prefix.parse("192.168.0.0/24"),
                     RouteAction(Scope.PEER, next_hop_vni=101))
    t.routing.insert(102, Prefix.parse("0.0.0.0/0"), RouteAction(Scope.INTERNET))
    t.routing.insert(103, Prefix.parse("0.0.0.0/0"),
                     RouteAction(Scope.SERVICE, target="snat"))
    for h in range(1, 7):  # hosts 7/8 stay unbound: no-vm drops
        gw.install_vm(100, ip(f"192.168.0.{h}"), 4, NcBinding(ip(f"10.2.0.{h}")))
    t.acl.insert(AclRule(priority=5, verdict=AclVerdict.DENY,
                         dst_ports=(9000, 9100)))
    t.meters.configure(vni_key(102),
                       TokenBucket(committed_rate=800.0, committed_burst=400.0))
    gw.set_redirect_rate_limit(rate_bps=8 * 400.0, burst_bytes=300.0)
    return gw


def hw_burst(rng, n=50):
    packets = []
    for _ in range(n):
        if rng.random() < 0.05:
            packets.append(plain_packet())
            continue
        packets.append(build_vxlan_packet(
            vni=rng.choice([100, 101, 102, 103, 104, 105]),
            src_ip=ip(f"192.168.0.{rng.randrange(1, 9)}"),
            dst_ip=ip(f"192.168.0.{rng.randrange(1, 9)}"),
            dst_port=rng.choice([80, 9050]),
        ))
    return packets


class TestXgwHColumnarDifferential:
    """XGW-H columnar bursts vs the per-packet fabric simulation: every
    observable — results, stats, drop counters, chip tallies, per-pipe
    packet counts, bridged bytes, table counters, meter colors — must be
    identical."""

    def test_matches_fabric_simulation(self):
        col = make_hw_gateway(columnar=True)
        oracle = make_hw_gateway(columnar=False)
        assert col._batch_compiler is not None
        assert oracle._batch_compiler is None
        rng = random.Random(2021)
        now = 0.0
        for _ in range(12):
            now += 0.02
            packets = hw_burst(rng)
            got_list = col.forward_batch(
                PacketBatch.from_packets(packets), now)
            want_list = oracle.forward_batch(packets, now)
            for got, want in zip(got_list, want_list):
                assert got.action is want.action
                assert got.detail == want.detail
                assert got.nc_ip == want.nc_ip
                assert got.packet.to_bytes() == want.packet.to_bytes()
        assert col.stats == oracle.stats
        assert col.stats.delivered > 0
        assert col.stats.redirected > 0
        assert col.counters.snapshot() == oracle.counters.snapshot()
        assert {"drop_acl_deny", "drop_meter_red", "drop_no_vm",
                "drop_no_route"} <= set(col.counters.snapshot())
        assert col.chip.packets_in == oracle.chip.packets_in
        assert col.chip.packets_dropped == oracle.chip.packets_dropped
        assert col.chip.fabric.pipe_packets == oracle.chip.fabric.pipe_packets
        t_col, t_ora = col.tables, oracle.tables
        assert (t_col.counters.total_packets(), t_col.counters.total_bytes()) \
            == (t_ora.counters.total_packets(), t_ora.counters.total_bytes())
        assert (t_col.acl.lookups, t_col.acl.matched) \
            == (t_ora.acl.lookups, t_ora.acl.matched)
        assert (t_col.meters.green, t_col.meters.yellow, t_col.meters.red) \
            == (t_ora.meters.green, t_ora.meters.yellow, t_ora.meters.red)


# -- the wire image through the forwarding paths -------------------------------

X86_IP = ip("10.255.0.3")
HEADER_SLOTS = ("eth", "ip", "l4", "vxlan", "inner", "payload")


def wire_tables():
    """LOCAL, PEER (a VNI rewrite), uplink, SNAT and no-route/no-vm keys."""
    t = GatewayTables()
    t.routing.insert(100, Prefix.parse("192.168.0.0/24"), RouteAction(Scope.LOCAL))
    t.routing.insert(101, Prefix.parse("192.168.0.0/24"),
                     RouteAction(Scope.PEER, next_hop_vni=100))
    t.routing.insert(102, Prefix.parse("0.0.0.0/0"), RouteAction(Scope.INTERNET))
    t.routing.insert(103, Prefix.parse("0.0.0.0/0"),
                     RouteAction(Scope.SERVICE, target="snat"))
    for h in range(1, 7):  # hosts 7/8 stay unbound: no-vm drops
        t.vm_nc.insert(100, ip(f"192.168.0.{h}"), 4, NcBinding(ip(f"10.2.0.{h}")))
    t.acl.insert(AclRule(priority=5, verdict=AclVerdict.DENY, dst_ports=(9000, 9100)))
    return t


def wire_frames(seed, n=64):
    rng = random.Random(seed)
    return [build_vxlan_packet(
        vni=rng.choice([100, 101, 102, 103, 105]),
        src_ip=ip(f"192.168.0.{rng.randrange(1, 9)}"),
        dst_ip=ip(f"192.168.0.{rng.randrange(1, 9)}"),
        dst_port=rng.choice([80, 9050]),
    ).to_bytes() for _ in range(n)]


def eagerly_decoded(frame):
    """The frame's packet with every header object built up front."""
    packet = Packet.from_bytes(frame)
    assert packet.eth is not None
    return packet


def built_slots(packet):
    """The header slots of *packet* that hold an object (asking the slot
    descriptor, which unlike attribute access builds nothing)."""
    built = []
    for name in HEADER_SLOTS:
        try:
            getattr(Packet, name).__get__(packet)
        except AttributeError:
            continue
        built.append(name)
    return built


def assert_still_wire_images(frames, packets, results):
    """No input and no non-SNAT result packet had a header object built;
    each result is what eagerly decoded packets produce."""
    assert not any(built_slots(p) for p in packets)
    snat = 0
    for result in results:
        if result.detail == "snat-request":
            snat += 1  # decapped and source-translated: a new plain packet
        else:
            assert built_slots(result.packet) == [], result
    assert 0 < snat < len(results)
    assert {r.action for r in results} == {
        ForwardAction.DELIVER_NC, ForwardAction.UPLINK, ForwardAction.DROP}
    assert any(r.resolved_vni == 100 and r.packet.vni == 100
               and Packet.from_bytes(f).vni == 101
               for f, r in zip(frames, results)), "burst must exercise a VNI rewrite"


class TestWireImageStaysLazy:
    """Packets decoded from the wire go through the default batch path and
    the scalar tiers, and back to bytes, without one header object being
    built -- the property whose loss moved the parse into the forward
    calls and cost dp_tiers a quarter of its batch rate."""

    @staticmethod
    def x86(columnar=True):
        return XgwX86(gateway_ip=X86_IP, tables=wire_tables(),
                      snat=SnatTable(public_ips=[ip("203.0.113.9")]),
                      columnar=columnar)

    def test_forward_batch_then_to_bytes(self):
        frames = wire_frames(seed=5)
        packets = [Packet.from_bytes(f) for f in frames]
        results = self.x86().forward_batch(packets, now=0.5)
        wire = [r.packet.to_bytes() for r in results]
        assert_still_wire_images(frames, packets, results)
        want = self.x86().forward_batch([eagerly_decoded(f) for f in frames], now=0.5)
        assert results == want
        assert wire == [r.packet.to_bytes() for r in want]

    def test_scalar_forward_and_dpu_device(self):
        frames = wire_frames(seed=6)

        def scalar_tier():
            tables = wire_tables()
            snat = SnatService(SnatTable(public_ips=[ip("203.0.113.9")]), tables, X86_IP)

            def serve(packet):
                result = forward(tables, packet, X86_IP, now=0.5)
                if result.detail == "snat":
                    result = snat.handle_request(packet, now=0.5)
                return result
            return serve

        def dpu_tier():
            dpu = DpuDevice("dpu-0", X86_IP, tables=wire_tables())
            return lambda packet: dpu.forward(packet, now=0.5)

        for tier in (scalar_tier, dpu_tier):
            packets = [Packet.from_bytes(f) for f in frames]
            results = [*map(tier(), packets)]
            wire = [r.packet.to_bytes() for r in results]
            if tier is scalar_tier:
                assert_still_wire_images(frames, packets, results)
            else:  # the DPU redirects SNAT lanes instead of serving them
                assert not any(built_slots(p) for p in packets)
                assert not any(built_slots(r.packet) for r in results)
            want = [*map(tier(), map(eagerly_decoded, frames))]
            assert results == want
            assert wire == [r.packet.to_bytes() for r in want]


class TestForwardBatchAcceptsAPacketBatch:
    """``forward_batch`` takes a pre-shredded PacketBatch on every branch,
    the freeze-window fallback included (it used to iterate the batch)."""

    @pytest.mark.parametrize("frozen", [False, True])
    def test_same_results_as_the_list_call(self, frozen):
        frames = wire_frames(seed=7, n=32)
        local = next(p for p in map(Packet.from_bytes, frames) if p.vni == 100)
        outcomes = []
        for shred in (list, PacketBatch.from_packets):
            gw = XgwX86(gateway_ip=X86_IP, tables=wire_tables())
            if frozen:
                ensure_migration_state(gw).freeze(
                    (100, local.inner_dst, 4), "m1", now=0.0, deadline=1.0)
            results = gw.forward_batch(shred([Packet.from_bytes(f) for f in frames]), 0.5)
            outcomes.append((results, [r.packet.to_bytes() for r in results],
                             dict(gw.counters.snapshot())))
        assert outcomes[0] == outcomes[1]
        buffered = [r for r in outcomes[0][0] if r.action is ForwardAction.BUFFERED]
        assert bool(buffered) == frozen

    @pytest.mark.parametrize("frozen", [True], ids=["frozen"])
    def test_xgw_h_per_packet_fallback(self, frozen):
        frames = wire_frames(seed=7, n=32)
        local = next(p for p in map(Packet.from_bytes, frames) if p.vni == 100)
        outcomes = []
        for shred in (list, PacketBatch.from_packets):
            gw = XgwH(gateway_ip=GW_H_IP, tables=wire_tables())
            for h in range(1, 7):
                gw.install_vm(100, ip(f"192.168.0.{h}"), 4, NcBinding(ip(f"10.2.0.{h}")))
            if frozen:
                ensure_migration_state(gw).freeze(
                    (100, local.inner_dst, 4), "m1", now=0.0, deadline=1.0)
            results = gw.forward_batch(shred([Packet.from_bytes(f) for f in frames]), 0.5)
            outcomes.append((results, [r.packet.to_bytes() for r in results],
                             gw.stats, dict(gw.counters.snapshot())))
        assert outcomes[0] == outcomes[1]
        stats = outcomes[0][2]
        assert stats.packets == len(frames)
        assert stats.delivered > 0 and stats.redirected > 0 and stats.dropped > 0
        assert (stats.buffered > 0) == frozen
