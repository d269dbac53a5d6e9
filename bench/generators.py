"""Seeded input generators for the five benchmark workloads.

Everything the program under test sees is built here from ``--seed``:
gateway tables, wire frames (``bytes``), write schedules and
control-plane op streams. The same seed gives the same inputs; nothing
here reads the clock. Every frame is asserted to round-trip through
``Packet.from_bytes(f).to_bytes() == f`` before it is handed out.

Counts are the issue's fixed counts times one common *scale* (see
``SCALE`` and ``bench/README.md``); burst sizes and table *layouts*
(tenants x flows of the hot set, PEER depth, traffic mix) are part of a
workload's design and are never scaled.
"""

import ipaddress
import math

from repro.cluster.cluster import GatewayCluster
from repro.core.controller import RouteEntry, VmEntry
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dataplane.gateway_logic import (
    DropReason,
    ForwardAction,
    GatewayTables,
    vni_key,
)
from repro.dataplane.migration import ensure_migration_state
from repro.dpu import DpuDevice, DpuProfile
from repro.net.addr import Prefix
from repro.net.packet import Packet
from repro.shard import ShardedController
from repro.sim.rand import WeightedSampler, derive, zipf_weights
from repro.tables.acl import AclRule, AclVerdict
from repro.tables.meter import TokenBucket
from repro.tables.snat import SnatTable
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86

#: The one common factor applied to every fixed count of the issue so
#: that 114 driver runs fit the contract's 3420 s cap (see README).
SCALE = 1 / 8
#: Smoke scale (``--quick``): all five workloads, untraced, in under 15 s.
QUICK_SCALE = 1 / 128

#: Packets replayed through the never-cached oracle before timing.
GATE_PACKETS = 4096
#: A VNI no tenant uses: writes under it change no forwarding decision.
PARKED_VNI = 9

GATEWAY_IP = int(ipaddress.ip_address("10.255.0.1"))
CLIENT_IP = int(ipaddress.ip_address("10.200.0.1"))
CLIENT_IP6 = int(ipaddress.ip_address("fdc8::1"))
LOCAL = RouteAction(Scope.LOCAL)
#: ``XgwX86`` flags per node mode. "oracle" is the scalar reference (no
#: flow cache, no compiled program; its ``XgwH`` walks the chip per
#: packet); "flowcache" is the pre-columnar batch path kept as a shadow.
X86_MODES = {
    "default": {},
    "flowcache": {"columnar": False},
    "oracle": {"cache_entries": 0, "columnar": False},
}

_DROP = ForwardAction.DROP
_REDIRECT = ForwardAction.REDIRECT_X86
_DPU_MISS = DropReason.DPU_TABLE_MISS.value


def scaled(count, scale):
    """The issue's fixed *count* under the common *scale* factor."""
    return max(1, math.ceil(count * scale))


def ip4(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


def checked_frames(packets):
    """Wire bytes of *packets*, each asserted to round-trip exactly."""
    frames = []
    for packet in packets:
        frame = packet.to_bytes()
        if Packet.from_bytes(frame).to_bytes() != frame:
            raise AssertionError("generated frame does not round-trip")
        frames.append(frame)
    return frames


# -- data-plane workloads ---------------------------------------------------


class DpWorkload:
    """One data-plane node plus one *lap* of pre-steered wire bursts.

    A lap is the workload's fixed amount of work; the runner replays
    whole segments of it until ``--seconds`` have passed. ``lap`` is a
    list of ``(tag, [frame, ...])`` bursts; ``forward`` takes the decoded
    packets of one burst to their final ``ForwardResult`` list.
    """

    name = ""
    burst = 4096
    bursts_per_segment = 1

    def __init__(self):
        self.lap = []

    def before_burst(self, index):
        """Control-plane work due before lap burst *index*."""

    def after_burst(self, index):
        pass

    def before_lap(self):
        pass

    def invalidate(self):
        """Install and withdraw a /32 under a parked VNI on every element:
        the generation vectors move, so each compiled program, its memo
        and every flow-cache entry die without any decision changing."""
        parked = Prefix(ip4(192, 0, 2, 1), 32, 4)
        for gateway in self.gateways().values():
            gateway.install_route(PARKED_VNI, parked, LOCAL)
            gateway.remove_route(PARKED_VNI, parked)

    def forward(self, tag, packets, now):
        raise NotImplementedError

    def gateways(self):
        """``{label: gateway}`` of every forwarding element of the node."""
        raise NotImplementedError

    def trace_bursts(self):
        """Lap bursts the traced run replays: the first quarter."""
        return max(1, len(self.lap) // 4)

    def gate_bursts(self):
        """Lap bursts covering the first ``GATE_PACKETS`` packets."""
        return min(len(self.lap), max(1, math.ceil(GATE_PACKETS / self.burst)))

    def _lap_packets(self, scale):
        """The nominal packet count under *scale*, in whole bursts."""
        return max(1, scaled(self.nominal_packets, scale) // self.burst) * self.burst

    def _cut(self, frames, stream):
        """Cut *stream* (indices into *frames*) into the lap's bursts."""
        burst = self.burst
        self.lap = [("x86", [frames[k] for k in stream[i:i + burst]])
                    for i in range(0, len(stream), burst)]
        self._whole_segments()

    def _whole_segments(self):
        """Trim the lap to whole segments (a quick-scale lap may be
        shorter than one nominal segment: it is then one segment)."""
        self.bursts_per_segment = min(self.bursts_per_segment, len(self.lap))
        del self.lap[len(self.lap) // self.bursts_per_segment
                     * self.bursts_per_segment:]


def _hot_flow_dst(tenant, flow):
    return ip4(10, tenant, flow % 8, 10 + flow)


class HotWorkload(DpWorkload):
    """``dp_hot``: the ``bench_columnar_fastpath`` layout, Zipf(1.1)."""

    name = "dp_hot"
    burst = 4096
    bursts_per_segment = 3
    nominal_packets = 786432

    TENANTS = 32
    FLOWS = 16
    PEER_DEPTH = 3
    ZIPF_ALPHA = 1.1
    DENY_PORTS = (9000, 9100)

    def __init__(self, seed, scale, mode="default"):
        super().__init__()
        rng = derive(seed, self.name)
        self.tables = self._build_tables()
        self.x86 = XgwX86(gateway_ip=GATEWAY_IP, tables=self.tables,
                          **X86_MODES[mode])
        flows = [(t, f) for t in range(self.TENANTS) for f in range(self.FLOWS)]
        # The seed picks which flows are hot, not the table layout.
        order = list(range(len(flows)))
        rng.shuffle(order)
        self.hot_tenant, self.hot_flow = flows[order[0]]
        # Every 32nd popularity rank (~3 % of flows, a seed-independent
        # share of the traffic) aims at the DENY'd port range, so bursts
        # mix fates.
        denied = {order[rank] for rank in range(16, len(flows), 32)}
        frames = checked_frames(
            build_vxlan_packet(vni=100 + t, src_ip=CLIENT_IP, dst_ip=_hot_flow_dst(t, f),
                               dst_port=9050 if index in denied else 80)
            for index, (t, f) in enumerate(flows))
        # The hottest VNI is metered (generously: never red).
        self.tables.meters.configure(
            vni_key(100 + self.hot_tenant),
            TokenBucket(committed_rate=1e12, committed_burst=1e12))
        sampler = WeightedSampler(zipf_weights(len(flows), self.ZIPF_ALPHA), rng)
        self._cut(frames, [order[sampler.sample()]
                           for _ in range(self._lap_packets(scale))])

    def terminal_vni(self, tenant):
        return 1000 * self.PEER_DEPTH + tenant

    def _build_tables(self):
        tables = GatewayTables()
        for t in range(self.TENANTS):
            chain = [100 + t] + [1000 * (hop + 1) + t for hop in range(self.PEER_DEPTH)]
            prefix = Prefix(ip4(10, t, 0, 0), 16, 4)
            for src, dst in zip(chain, chain[1:]):
                tables.routing.insert(src, prefix, RouteAction(Scope.PEER, next_hop_vni=dst))
            terminal = chain[-1]
            for j in range(8):  # more-specific routes deepen the LPM walk
                tables.routing.insert(terminal, Prefix(ip4(10, t, j, 0), 24, 4), LOCAL)
            tables.routing.insert(terminal, prefix, LOCAL)
            for f in range(self.FLOWS):
                tables.vm_nc.insert(terminal, _hot_flow_dst(t, f), 4,
                                    NcBinding(ip4(172, 16, t, 10 + f)))
        tables.acl.insert(AclRule(priority=2, verdict=AclVerdict.DENY,
                                  dst_ports=self.DENY_PORTS))
        tables.acl.insert(AclRule(priority=1, verdict=AclVerdict.PERMIT))
        return tables

    def forward(self, tag, packets, now):
        return self.x86.forward_batch(packets, now=now)

    def gateways(self):
        return {"x86": self.x86}


class ChurnWorkload(HotWorkload):
    """``dp_churn``: ``dp_hot`` traffic with one table write before
    every 4th burst, cycling through every write kind the gateway's
    control interface has."""

    name = "dp_churn"
    burst = 1024
    bursts_per_segment = 32   # 8 writes: one full cycle per segment
    nominal_packets = 524288
    WRITE_EVERY = 4

    def __init__(self, seed, scale, mode="default"):
        super().__init__(seed, scale, mode)
        gw, t, f = self.x86, self.hot_tenant, self.hot_flow
        terminal = self.terminal_vni(t)
        endpoint = _hot_flow_dst(t, f)
        # A /28 around the hot endpoint, under the hot tenant's terminal VNI.
        slash28 = Prefix.of(endpoint, 28, 4)
        deny = AclRule(priority=3, verdict=AclVerdict.DENY, dst_ports=(7000, 7100))
        meter_key = vni_key(100 + t)
        self._written = 0

        def rebind():
            # Alternate between two hosts, cycle by cycle.
            host = 17 + self._written // len(self.writes) % 2
            gw.install_vm(terminal, endpoint, 4, NcBinding(ip4(172, host, t, 10 + f)))

        def meter(rate):
            # Documented as live without recompile: no generation moves.
            return lambda: gw.tables.meters.configure(
                meter_key, TokenBucket(committed_rate=rate, committed_burst=1e12))

        # Eight writes, one full cycle per segment; the endpoint is
        # re-bound one write after it is withdrawn (a 4-burst blackout).
        self.writes = [
            lambda: gw.install_route(terminal, slash28, LOCAL),
            lambda: gw.remove_vm(terminal, endpoint, 4),
            rebind,
            lambda: gw.tables.acl.insert(deny),
            meter(2e12),
            lambda: gw.remove_route(terminal, slash28),
            lambda: gw.tables.acl.remove(deny),
            meter(1e12),
        ]

    def before_burst(self, index):
        if index % self.WRITE_EVERY == 0:
            self.writes[self._written % len(self.writes)]()
            self._written += 1


class ScanWorkload(DpWorkload):
    """``dp_scan``: every key first-touch, sampled without replacement."""

    name = "dp_scan"
    burst = 4096
    #: The whole lap: the memo grows through a lap and the collector's
    #: passes grow with it, so shorter segments are not alike.
    bursts_per_segment = 12
    nominal_packets = 393216
    nominal_tenants = 2048
    ENDPOINTS = 256
    V6_EVERY = 4      # 25 % IPv6

    def __init__(self, seed, scale, mode="default"):
        super().__init__()
        rng = derive(seed, self.name)
        tenants = scaled(self.nominal_tenants, scale)
        tables = self.tables = GatewayTables()
        keys = []
        for t in range(tenants):
            vni = 10000 + t
            tables.routing.insert(vni, Prefix(ip4(10, 0, 0, 0), 8, 4), LOCAL)
            tables.routing.insert(vni, Prefix(0xFD << 120, 8, 6), LOCAL)
            for j in range(8):
                tables.routing.insert(vni, Prefix(ip4(10, j, 0, 0), 16, 4), LOCAL)
                tables.routing.insert(vni, Prefix((0xFD00 + j) << 112, 16, 6), LOCAL)
            binding = NcBinding(ip4(172, 16 + (t >> 8), t & 0xFF, 1))
            hosts = rng.sample(range(1 << 16), self.ENDPOINTS)
            for e, host in enumerate(hosts):
                if e % self.V6_EVERY == 0:
                    version = 6
                    dst = ((0xFD00 + e % 8) << 112) | (rng.getrandbits(48) << 16) | host
                else:
                    version = 4
                    dst = ip4(10, e % 8, 0, 0) | host
                tables.vm_nc.insert(vni, dst, version, binding)
                keys.append((vni, dst, version))
        self.x86 = XgwX86(gateway_ip=GATEWAY_IP, tables=tables,
                          **X86_MODES[mode])
        sample = rng.sample(keys, self._lap_packets(scale))
        frames = checked_frames(
            build_vxlan_packet(vni=vni, src_ip=CLIENT_IP if version == 4 else CLIENT_IP6,
                               dst_ip=dst, version=version)
            for vni, dst, version in sample)
        self._cut(frames, range(len(frames)))

    def before_lap(self):
        """Every key of the next lap must be first-touch again."""
        self.invalidate()

    def forward(self, tag, packets, now):
        return self.x86.forward_batch(packets, now=now)

    def gateways(self):
        return {"x86": self.x86}


class TiersWorkload(DpWorkload):
    """``dp_tiers``: a chip + DPU + x86 node fed DPDK-size bursts that
    were steered in setup the way the balancer would steer them."""

    name = "dp_tiers"
    burst = 32
    #: 64 repeats of the 20-burst steering pattern: 192 x86-class bursts,
    #: i.e. exactly three freeze windows per segment.
    bursts_per_segment = 1280
    nominal_packets = 393216
    #: Bursts per 20: 40 % chip east-west, 20 % Internet-bound (chip ->
    #: x86 SNAT), 25 % DPU-steered, 15 % cold east-west on x86.
    PATTERN = ("h",) * 8 + ("inet",) * 4 + ("dpu",) * 5 + ("x86",) * 3
    FREEZE_EVERY = 64
    PUBLIC_IPS = [ip4(198, 51, 100, 1 + i) for i in range(4)]

    def __init__(self, seed, scale, mode="default"):
        super().__init__()
        rng = derive(seed, self.name)
        self.gwh = XgwH(gateway_ip=GATEWAY_IP, columnar=mode != "oracle")
        self.x86 = XgwX86(gateway_ip=GATEWAY_IP, snat=SnatTable(self.PUBLIC_IPS),
                           **X86_MODES[mode])
        streams = {
            "h": self._chip_east_west(),
            "inet": self._internet(rng),
            "dpu": self._dpu(),
            "x86": self._cold_east_west(),
        }
        pattern = list(self.PATTERN)
        rng.shuffle(pattern)
        bursts = max(1, scaled(self.nominal_packets, scale) // self.burst
                     // len(pattern)) * len(pattern)
        freeze_keys = []
        for index in range(bursts):
            tag = pattern[index % len(pattern)]
            frames, keys = streams[tag]
            picks = [rng.randrange(len(frames)) for _ in range(self.burst)]
            self.lap.append((tag, [frames[k] for k in picks]))
            if tag == "x86":
                freeze_keys.append((index, keys[picks[0]]))
        self._whole_segments()
        # Freeze the first endpoint of every 64th x86-class burst (a
        # quick-scale lap is shorter than that: it freezes once).
        every = min(self.FREEZE_EVERY, len(freeze_keys))
        self.freeze_keys = dict(freeze_keys[every - 1::every])
        self._migrations = 0
        self._open = None
        self.frozen_packets = 0

    # -- table + traffic builders (one per steering class) ------------------

    def _chip_east_west(self):
        packets, keys = [], []
        for t in range(16):
            vni = 2000 + t
            route = Prefix(ip4(10, t, 0, 0), 16, 4)
            self.gwh.install_route(vni, route, LOCAL)
            self.x86.install_route(vni, route, LOCAL)
            for e in range(32):
                dst = ip4(10, t, e % 4, 10 + e)
                binding = NcBinding(ip4(172, 20, t, 10 + e))
                self.gwh.install_vm(vni, dst, 4, binding)
                self.x86.install_vm(vni, dst, 4, binding)
                packets.append(build_vxlan_packet(vni=vni, src_ip=CLIENT_IP, dst_ip=dst))
                keys.append((vni, dst, 4))
        return checked_frames(packets), keys

    def _internet(self, rng):
        default = Prefix(0, 0, 4)
        snat = RouteAction(Scope.SERVICE, target="snat")
        packets, keys = [], []
        for t in range(8):
            vni = 3000 + t
            self.gwh.install_route(vni, default, snat)
            self.x86.install_route(vni, default, snat)
            for flow in range(128):
                dst = ip4(93, 184, rng.randrange(256), rng.randrange(1, 255))
                packets.append(build_vxlan_packet(
                    vni=vni, src_ip=ip4(10, t, 1, 1 + flow % 200), dst_ip=dst,
                    src_port=20000 + flow, dst_port=443))
                keys.append((vni, dst, 4))
        return checked_frames(packets), keys

    def _dpu(self):
        """DPU-steered VIPs. 3 of every 64 endpoints sit under a prefix
        the device holds no steering route for, and the session table
        holds 90 % of the remaining flows: ~15 % of packets miss."""
        tenants, endpoints, clients = 8, 64, 4
        on_device = [e % 21 != 20 for e in range(endpoints)]
        self.dpu = DpuDevice("dpu-0", gateway_ip=GATEWAY_IP, profile=DpuProfile(
            session_capacity=tenants * sum(on_device) * clients * 9 // 10))
        packets, keys = [], []
        for t in range(tenants):
            vni = 4000 + t
            steered = Prefix(ip4(10, t, 0, 0), 16, 4)
            self.dpu.install_route(vni, steered, LOCAL)
            self.x86.install_route(vni, steered, LOCAL)
            self.x86.install_route(vni, Prefix(ip4(10, 128 + t, 0, 0), 16, 4), LOCAL)
            for e in range(endpoints):
                dst = ip4(10, t if on_device[e] else 128 + t, 0, 10 + e)
                binding = NcBinding(ip4(172, 21, t, 10 + e))
                self.x86.install_vm(vni, dst, 4, binding)
                if on_device[e]:
                    self.dpu.install_vm(vni, dst, 4, binding)
                for client in range(clients):
                    packets.append(build_vxlan_packet(
                        vni=vni, src_ip=ip4(10, 210, t, 1 + e), dst_ip=dst,
                        src_port=30000 + client))
                    keys.append((vni, dst, 4))
        return checked_frames(packets), keys

    def _cold_east_west(self):
        packets, keys = [], []
        for t in range(64):
            vni = 5000 + t
            self.x86.install_route(vni, Prefix(ip4(10, t, 0, 0), 16, 4), LOCAL)
            for e in range(64):
                dst = ip4(10, t, 1 + e % 4, 10 + e)
                self.x86.install_vm(vni, dst, 4, NcBinding(ip4(172, 22, t, 10 + e)))
                packets.append(build_vxlan_packet(vni=vni, src_ip=CLIENT_IP, dst_ip=dst))
                keys.append((vni, dst, 4))
        return checked_frames(packets), keys

    # -- per-burst hooks ------------------------------------------------------

    def trace_bursts(self):
        """The first quarter, extended to include the first freeze."""
        return max(super().trace_bursts(), min(self.freeze_keys) + 1)

    def before_burst(self, index):
        key = self.freeze_keys.get(index)
        if key is not None:
            self._migrations += 1
            self._open = f"m{self._migrations}"
            ensure_migration_state(self.x86).freeze(key, self._open, now=0.0,
                                                    deadline=float("inf"))
            self.frozen_packets += self.burst

    def after_burst(self, index):
        if self._open is not None:
            parked = ensure_migration_state(self.x86).abort(self._open)
            self._open = None
            if not parked:
                raise AssertionError("freeze window parked no packet")

    def forward(self, tag, packets, now):
        if tag == "h":
            return self.gwh.forward_batch(packets, now)
        if tag == "x86":
            return self.x86.forward_batch(packets, now)
        if tag == "inet":
            results = self.gwh.forward_batch(packets, now)
            served = iter(self.x86.forward_batch(
                [r.packet for r in results if r.action is _REDIRECT], now))
            return [next(served) if r.action is _REDIRECT else r for r in results]
        dpu_forward = self.dpu.forward
        results = []
        for packet in packets:
            result = dpu_forward(packet, now)
            if result.action is _DROP and result.detail == _DPU_MISS:
                result = self.x86.forward_dpu_miss(packet, now)
            results.append(result)
        return results

    def gateways(self):
        return {"xgw_h": self.gwh, "x86": self.x86, "dpu": self.dpu}


DP_WORKLOADS = {cls.name: cls for cls in
                (HotWorkload, ScanWorkload, ChurnWorkload, TiersWorkload)}


# -- control-plane workload -------------------------------------------------


class CpRegion:
    """``cp_churn``: a 4-shard region on two-member ``XgwH`` clusters,
    plus the seeded op streams of one churn round."""

    name = "cp_churn"
    SHARDS = 4
    ROUTES = 8
    VMS = 4
    nominal_tenants = 8192
    nominal_singles = 6000
    nominal_txns = 300
    nominal_xtxns = 30
    nominal_tail = 500

    def __init__(self, seed, scale):
        self.seed = seed
        self.tenants = max(2 * self.SHARDS, scaled(self.nominal_tenants, scale))
        self.singles = scaled(self.nominal_singles, scale) // 2 * 2
        self.txns = scaled(self.nominal_txns, scale)
        self.xtxns = scaled(self.nominal_xtxns, scale)
        self.tail = (scaled(self.nominal_tail, scale) + 1) // 2 * 2
        # One cluster per shard: the O(table) costs the issue wants
        # visible grow with the shard's whole range.
        capacity = ClusterCapacity(routes=self.tenants * 64, vms=self.tenants * 64,
                                   traffic_bps=1e18)
        self.controller = ShardedController.build(
            self.SHARDS, capacity, cluster_factory=self.cluster,
            vni_space=self.tenants)
        for vni in range(self.tenants):
            self.controller.add_tenant(
                TenantProfile(vni, self.ROUTES, self.VMS, 1.0), *self.tenant_entries(vni))

    @classmethod
    def tenant_entries(cls, vni):
        """The ``(routes, vms)`` a tenant is onboarded with."""
        prefixes = [Prefix(ip4(10, 0, 0, 0), 16, 4)] + \
                   [Prefix(ip4(10, 0, j, 0), 24, 4) for j in range(1, cls.ROUTES)]
        binding = NcBinding(ip4(172, 16, vni >> 8 & 0xFF, vni & 0xFF))
        return ([RouteEntry(vni, prefix, LOCAL) for prefix in prefixes],
                [VmEntry(vni, ip4(10, 0, k, 10), 4, binding) for k in range(cls.VMS)])

    @staticmethod
    def cluster(cluster_id):
        """A two-member ``XgwH`` cluster (members hold real tables)."""
        return GatewayCluster(cluster_id, [
            (f"{cluster_id}-gw{k}", XgwH(gateway_ip=GATEWAY_IP + k)) for k in range(2)])

    def probe_frames(self, count):
        """Frames addressed to onboarded VMs, with the tenant each one
        belongs to — what the installed tables must deliver."""
        rng = derive(self.seed, self.name, "probe")
        targets = [(rng.randrange(self.tenants), rng.randrange(self.VMS))
                   for _ in range(count)]
        frames = checked_frames(
            build_vxlan_packet(vni=vni, src_ip=CLIENT_IP, dst_ip=ip4(10, 0, k, 10))
            for vni, k in targets)
        return frames, [vni for vni, _k in targets]

    # -- one round's op streams ----------------------------------------------

    def round_ops(self, index, fraction=1.0):
        """The seeded op streams of round *index* (all net-zero, so every
        round starts from the onboarded state). *fraction* shortens the
        round for the traced replay."""
        rng = derive(self.seed, self.name, "round", index)
        return {
            "singles": self._single_stream(rng, max(2, int(self.singles * fraction) // 2 * 2)),
            "txns": [self._txn_batch(rng)
                     for _ in range(max(1, int(self.txns * fraction)))],
            "xtxns": [self._peer_pair(rng)
                      for _ in range(max(1, int(self.xtxns * fraction)))],
            "tail": self._single_stream(rng, max(2, int(self.tail * fraction) // 2 * 2)),
        }

    def _single_stream(self, rng, count):
        """``(kind, args)`` single ops, 40/40 route install/remove and
        10/10 VM install/remove; every install is removed a few ops
        later, at most 8 entries pending at once."""
        ops, pending, used = [], [], set()
        installs = count // 2
        while installs or pending:
            if installs and (len(pending) < 8 and (not pending or rng.random() < 0.6)):
                installs -= 1
                vni = rng.randrange(self.tenants)
                slot = rng.randrange(256)
                while (vni, slot) in used:
                    slot = (slot + 1) % 256
                used.add((vni, slot))
                if rng.random() < 0.8:
                    prefix = Prefix(ip4(172, 16, slot, 0), 24, 4)
                    ops.append(("install_route", RouteEntry(vni, prefix, LOCAL)))
                    pending.append(("remove_route", (vni, prefix)))
                else:
                    vm_ip = ip4(10, 200, slot, 1)
                    ops.append(("install_vm",
                                VmEntry(vni, vm_ip, 4, NcBinding(ip4(172, 30, slot, 1)))))
                    pending.append(("remove_vm", (vni, vm_ip, 4)))
            else:
                ops.append(pending.pop(0))
        return ops

    def _txn_batch(self, rng):
        vni = rng.randrange(self.tenants)
        slot = rng.randrange(200)
        return (vni,
                [RouteEntry(vni, Prefix(ip4(172, 20 + k, slot, 0), 24, 4), LOCAL)
                 for k in range(2)],
                [VmEntry(vni, ip4(10, 220 + k, slot, 1), 4, NcBinding(ip4(172, 31, slot, 1 + k)))
                 for k in range(2)])

    def _peer_pair(self, rng):
        """Two tenants on different shards and the four entries of their
        peer chain: each cluster gets its own PEER hop plus the remote
        tenant's terminal entry."""
        per_shard = self.tenants // self.SHARDS
        shard = rng.randrange(self.SHARDS)
        a = shard * per_shard + rng.randrange(per_shard)
        b = (shard + 1) % self.SHARDS * per_shard + rng.randrange(per_shard)
        prefix = Prefix(ip4(172, 24, rng.randrange(256), 0), 24, 4)
        return a, b, prefix
