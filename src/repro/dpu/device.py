"""The simulated DPU device: the middle tier of hierarchical co-offloading.

Gryphon's observation (PAPERS.md) is that the two-tier split leaves a
gap: the switch ASIC has tiny tables and no per-connection state, while
x86 has unbounded tables at the highest per-packet cost. A DPU sits in
between on every axis —

* **tables**: tens of thousands of exact-match flow entries, far more
  than the chip's offload budget carved out of SRAM/TCAM
  (:data:`~repro.tofino.memory.SRAM_WORDS_PER_PIPELINE` is shared with
  every other table), far fewer than an x86 dict;
* **state**: a real session table, so warm stateful traffic (SNAT
  contexts) can live below x86;
* **latency/cost**: between the ASIC's sub-microsecond pipeline and the
  x86 box's :data:`~repro.x86.gateway.FORWARDING_LATENCY_US` 40 us, at
  a per-packet cost an order of magnitude below a Xeon core
  (:class:`~repro.core.economics.TierCostModel`).

The device is controller-manageable: it carries a full
:class:`~repro.dataplane.gateway_logic.GatewayTables` bundle and the
same ``install_route``/``install_vm`` push interface as
:class:`~repro.x86.gateway.XgwX86`, so a single-device
:class:`~repro.cluster.cluster.GatewayCluster` adopted into the
controller gets transactions, consistency checks and audits for free.
Anything the device holds no state for is punted with
:data:`~repro.dataplane.gateway_logic.DropReason.DPU_TABLE_MISS` — a
drop *at the device* (per-device counter conservation holds) that the
steering layer re-offers to x86, the universal fallback tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dataplane.columnar import BatchCompiler
from ..dataplane.gateway_logic import (
    ACTION_COUNTERS,
    DropReason,
    ForwardAction,
    ForwardResult,
    GatewayTables,
    count_drop,
    inner_flow_key,
)
from ..net.addr import Prefix
from ..net.flow import FlowKey
from ..net.headers import unchecked
from ..net.packet import Packet
from ..tables.counter import CounterTable
from ..tables.vm_nc import NcBinding
from ..tables.vxlan_routing import RouteAction
from ..telemetry.stats import CounterSet
from ..workloads.flows import FlowSpec

#: A VIP as the session table and audit see it: hashable, orderable.
VipTuple = Tuple[int, int, int]  # (vni, dst_ip, version)

_DROP = ForwardAction.DROP
_NO_ROUTE = DropReason.NO_ROUTE.value
_MISS = DropReason.DPU_TABLE_MISS.value
_result = unchecked(ForwardResult)  # ForwardResult has no __post_init__


@dataclass(frozen=True)
class DpuProfile:
    """Per-DPU capacity/latency/cost parameters.

    Defaults sit squarely between the chip and x86: 64 Ki exact-match
    flow entries (the chip's offload budget is typically tens to
    hundreds; x86 is unbounded), 256 Ki stateful sessions, 60 Mpps,
    12 us forwarding latency (chip ~1 us, x86 40 us).

    >>> DpuProfile().flow_table_entries
    65536
    >>> DpuProfile(flow_table_entries=0)
    Traceback (most recent call last):
        ...
    ValueError: flow_table_entries must be positive
    """

    flow_table_entries: int = 65536
    session_capacity: int = 262144
    max_pps: float = 60e6
    latency_us: float = 12.0

    def __post_init__(self):
        if self.flow_table_entries <= 0:
            raise ValueError("flow_table_entries must be positive")
        if self.session_capacity <= 0:
            raise ValueError("session_capacity must be positive")
        if self.max_pps <= 0:
            raise ValueError("max_pps must be positive")
        if self.latency_us <= 0:
            raise ValueError("latency_us must be positive")


@dataclass
class SessionContext:
    """One stateful (SNAT-style) connection context resident on a DPU."""

    flow: FlowKey
    vip: VipTuple
    created_at: float
    last_active: float
    packets: int = 0


class DpuSessionTable:
    """Bounded per-device session store, keyed by the inner 5-tuple.

    The capacity bound is what makes the DPU a *tier* and not just a
    smaller x86: when it fills, new connections miss and fall back to
    x86 instead of growing the table.

    >>> from repro.net.flow import FlowKey
    >>> table = DpuSessionTable(capacity=1)
    >>> f1 = FlowKey(1, 2, 6, 10, 20)
    >>> table.ensure(f1, (7, 2, 4), now=0.0)
    True
    >>> table.ensure(FlowKey(3, 2, 6, 10, 20), (7, 2, 4), now=0.0)
    False
    >>> table.ensure(f1, (7, 2, 4), now=1.0)  # resident flows always hit
    True
    >>> table.vips()
    [(7, 2, 4)]
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._sessions: Dict[FlowKey, SessionContext] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def ensure(self, flow: FlowKey, vip: VipTuple, now: float) -> bool:
        """Touch (or create) *flow*'s context; False when the table is
        full and the flow is new — the caller punts to x86."""
        ctx = self._sessions.get(flow)
        if ctx is not None:
            ctx.last_active = now
            ctx.packets += 1
            return True
        if len(self._sessions) >= self.capacity:
            return False
        self._sessions[flow] = SessionContext(flow, vip, now, now, packets=1)
        return True

    def items(self) -> Iterator[Tuple[FlowKey, SessionContext]]:
        return iter(self._sessions.items())

    def vips(self) -> List[VipTuple]:
        """The distinct VIPs with resident sessions, sorted."""
        return sorted({ctx.vip for ctx in self._sessions.values()})

    def count_for(self, vip: VipTuple) -> int:
        return sum(1 for ctx in self._sessions.values() if ctx.vip == vip)

    def drop_vip(self, vip: VipTuple) -> int:
        """Reap every context of one VIP (end-of-migration drain or
        audit repair); returns how many were removed."""
        stale = [flow for flow, ctx in self._sessions.items() if ctx.vip == vip]
        for flow in stale:
            del self._sessions[flow]
        return len(stale)

    def clear(self) -> int:
        removed = len(self._sessions)
        self._sessions.clear()
        return removed


@dataclass
class DpuIntervalReport:
    """One interval's rate-model outcome on one device.

    ``fallback_specs`` carries the flows the device could not serve —
    steering misses, session-table overflow, and capacity punts — which
    the loop re-offers to the x86 side; nothing is silently lost.
    """

    offered_pps: float = 0.0
    served_pps: float = 0.0
    miss_pps: float = 0.0  # no steering route / session overflow
    punt_pps: float = 0.0  # over the device's pps capacity
    fallback_specs: List[FlowSpec] = field(default_factory=list)

    @property
    def fallback_pps(self) -> float:
        return self.miss_pps + self.punt_pps


class DpuDevice:
    """One simulated DPU: tables, sessions, counters, capacity model.

    >>> dev = DpuDevice("dpu-0", gateway_ip=0x0A0000FE)
    >>> dev.profile.latency_us
    12.0
    >>> dev.route_count()
    0
    """

    def __init__(
        self,
        name: str,
        gateway_ip: int,
        profile: Optional[DpuProfile] = None,
        tables: Optional[GatewayTables] = None,
    ):
        self.name = name
        self.gateway_ip = gateway_ip
        self.profile = profile if profile is not None else DpuProfile()
        self.tables = tables if tables is not None else GatewayTables()
        self.sessions = DpuSessionTable(self.profile.session_capacity)
        #: x86-style accounting (``rx_packets``/``action_*``/``drop_*``)
        #: so :class:`~repro.audit.invariants.CounterConservation` holds.
        self.counters = CounterSet()
        #: Per-VIP served-packet counters the control loop sweeps each
        #: interval to attribute DPU-tier rates (the Tofino-sweep analog).
        self.sweep_counters = CounterTable(f"{name}-sweep")
        #: Set by :meth:`fail`: the device stops serving and its session
        #: state is gone. Table state is re-derivable from intent, so it
        #: survives (and is withdrawn through normal transactions).
        self.failed = False
        #: The compiled gateway program over the device's tables, entered
        #: one lane per packet; compiled on the first forward and again
        #: whenever the table generation vector moves.
        self._compiler = BatchCompiler(self.tables, gateway_ip)
        self._compiled = None

    # -- controller push interface (same shape as XgwX86) -------------------

    def install_route(self, vni: int, prefix: Prefix, action: RouteAction,
                      replace: bool = False) -> None:
        self.tables.routing.insert(vni, prefix, action, replace=replace)

    def remove_route(self, vni: int, prefix: Prefix) -> RouteAction:
        return self.tables.routing.remove(vni, prefix)

    def install_vm(self, vni: int, vm_ip: int, version: int, binding: NcBinding,
                   replace: bool = False) -> None:
        self.tables.vm_nc.insert(vni, vm_ip, version, binding, replace=replace)

    def remove_vm(self, vni: int, vm_ip: int, version: int) -> NcBinding:
        return self.tables.vm_nc.remove(vni, vm_ip, version)

    def route_count(self) -> int:
        return len(self.tables.routing)

    def vm_count(self) -> int:
        return len(self.tables.vm_nc)

    def max_pps(self) -> float:
        return self.profile.max_pps

    # -- failure -------------------------------------------------------------

    def fail(self) -> int:
        """Device death: stop serving, lose the session state (dataplane
        state has no second copy). Returns the sessions lost."""
        self.failed = True
        for key, _cell in list(self.sweep_counters.items()):
            self.sweep_counters.reset(key)
        return self.sessions.clear()

    # -- functional path ------------------------------------------------------

    def forward(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """Run the compiled gateway program over the device's (partial)
        tables, one lane. Any packet the device holds no state for — no
        steering route, failed device, or a full session table meeting a
        new connection — is a ``dpu-table-miss``: dropped here, re-offered
        to x86 by the caller (:meth:`XgwX86.forward_dpu_miss`)."""
        counters = self.counters
        counters.add("rx_packets")
        if self.failed:
            result = _result(_DROP, packet, _MISS, None, None)
        else:
            program = self._compiled
            if program is None or program.generations != self._compiler.generations():
                program = self._compiled = self._compiler.compile()
            result = program.forward(packet, now)
            if result.action is _DROP:
                if result.detail == _NO_ROUTE:
                    # The full tables would have resolved it; this device
                    # just doesn't hold the entry.
                    result = _result(_DROP, packet, _MISS, None, None)
            elif not self.sessions.ensure(
                    inner_flow_key(packet),
                    (packet.vni, packet.inner_dst, packet.inner_version), now):
                # Only a VXLAN packet gets past the program undropped.
                result = _result(_DROP, packet, _MISS, None, None)
        counters.add(ACTION_COUNTERS[result.action])
        if result.action is _DROP:
            count_drop(counters, result.detail)
        return result

    # -- rate model (what the offload loop drives) ----------------------------

    def serve_interval(self, flows: Sequence[FlowSpec], interval: float,
                       now: float = 0.0) -> DpuIntervalReport:
        """Offer one interval of flow rates through the device.

        Flows are served hottest-first up to the device's pps capacity;
        a flow misses when its VIP has no steering route on the device
        or the session table is full, and is punted when capacity runs
        out. Misses and punts both land in ``fallback_specs``.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        report = DpuIntervalReport(offered_pps=sum(f.pps for f in flows))
        ordered = sorted(
            flows,
            key=lambda s: (-s.pps, s.vni, s.flow.dst_ip, s.flow.src_ip,
                           s.flow.src_port, s.flow.dst_port),
        )
        remaining = self.profile.max_pps
        for spec in ordered:
            packets = int(round(spec.pps * interval))
            self.counters.add("rx_packets", packets)
            vip = (spec.vni, spec.flow.dst_ip, spec.flow.version)
            served = False
            if not self.failed and spec.pps <= remaining:
                hit = self.tables.routing.lookup(spec.vni, spec.flow.dst_ip,
                                                 spec.flow.version)
                if hit is not None and self.sessions.ensure(spec.flow, vip, now):
                    served = True
                    remaining -= spec.pps
                    report.served_pps += spec.pps
                    self.counters.add("action_deliver_nc", packets)
                    self.sweep_counters.count_batch(
                        self._steer_key(spec), packets)
            if not served:
                if self.failed or spec.pps > remaining:
                    report.punt_pps += spec.pps
                else:
                    report.miss_pps += spec.pps
                report.fallback_specs.append(spec)
                self.counters.add("action_drop", packets)
                self.counters.add(DropReason.DPU_TABLE_MISS.counter, packets)
        return report

    @staticmethod
    def _steer_key(spec: FlowSpec):
        # Local import: repro.offload must stay importable without
        # repro.dpu, never the reverse.
        from ..offload.loop import vip_of
        return vip_of(spec)
