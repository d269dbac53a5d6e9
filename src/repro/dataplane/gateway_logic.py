"""The gateway forwarding semantics, shared by XGW-H and XGW-x86 (§2.1).

Both gateway kinds run the same logical program (Fig. 2):

1. look up the VXLAN routing table with (VNI, inner dst IP), following
   PEER next-hop VNIs until a terminal scope;
2. for LOCAL scope, look up the VM-NC mapping table and rewrite the
   outer destination IP to the hosting server (NC);
3. for SERVICE scope (e.g. SNAT), redirect to the software gateway;
4. for INTERNET / IDC / CROSS_REGION, hand the packet to the uplink.

ACLs, meters and counters run around the routing steps. The hardware
gateway executes this same logic split across pipes (see
:mod:`repro.dataplane.pipeline_program`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..net.flow import FlowKey
from ..net.headers import unchecked
from ..net.packet import Packet
from ..tables.acl import AclTable, AclVerdict
from ..tables.errors import MissingEntryError
from ..tables.counter import CounterTable
from ..tables.meter import MeterColor, MeterTable
from ..tables.vm_nc import VmNcTable
from ..tables.vxlan_routing import RoutingLoopError, Scope, VxlanRoutingTable


class ForwardAction(Enum):
    """Terminal outcome of the gateway program for one packet."""

    DELIVER_NC = "deliver-nc"  # rewritten towards the destination VM's server
    REDIRECT_X86 = "redirect-x86"  # needs a software-gateway service
    UPLINK = "uplink"  # leaves the region (Internet / IDC / cross-region)
    DROP = "drop"
    BUFFERED = "buffered"  # parked in a MigrationBuffer during a freeze window


#: The ``action_<action>`` counter of every outcome (dashes folded to
#: underscores), named once here rather than by an f-string per packet.
ACTION_COUNTERS = {
    action: f"action_{action.value.replace('-', '_')}" for action in ForwardAction
}


class DropReason(Enum):
    """The one vocabulary for every drop in the region.

    The enum values are the exact strings carried in
    :attr:`ForwardResult.detail`,
    :attr:`~repro.telemetry.trace.PathTrace.drop_reason` and per-reason
    ``drop_<reason>`` counters, so VTrace output, gateway counters and
    audit findings all name a loss identically.

    >>> DropReason.NO_ROUTE.value
    'no-route'
    >>> DropReason.from_detail("no-route") is DropReason.NO_ROUTE
    True
    >>> DropReason.from_detail("mystery") is None
    True
    """

    # Gateway program (hardware and software path alike).
    NOT_VXLAN = "not-vxlan"
    ACL_DENY = "acl-deny"
    METER_RED = "meter-red"
    NO_ROUTE = "no-route"
    PEER_LOOP = "peer-loop"
    NO_VM = "no-vm"
    REDIRECT_RATE_LIMITED = "redirect-rate-limited"
    # SNAT service path (XGW-x86 only).
    NO_SNAT = "no-snat"
    SNAT_NOT_VXLAN = "snat-not-vxlan"
    SNAT_V6_UNSUPPORTED = "snat-v6-unsupported"
    SNAT_POOL_EXHAUSTED = "snat-pool-exhausted"
    SNAT_BAD_RESPONSE = "snat-bad-response"
    SNAT_NO_SESSION = "snat-no-session"
    SNAT_LOST_CONTEXT = "snat-lost-context"
    SNAT_NO_VM = "snat-no-vm"
    # Region-level steering.
    UNASSIGNED_VNI = "unassigned-vni"
    NO_OWNER = "no-owner"
    # Live endpoint migration (freeze window, §DESIGN 11).
    MIGRATION_BUFFER_OVERFLOW = "migration-buffer-overflow"
    MIGRATION_BLACKOUT = "migration-blackout"
    # DPU tier (§DESIGN 12): the device holds no state for the packet —
    # a steering miss or a full session table. Counted as a drop *at the
    # DPU* (so per-device conservation holds); the steering layer
    # re-offers the packet to x86, the universal fallback tier.
    DPU_TABLE_MISS = "dpu-table-miss"

    @classmethod
    def from_detail(cls, detail: str) -> Optional["DropReason"]:
        """The enum member for a drop detail string, or None when the
        detail is not a known drop reason (e.g. a route target)."""
        return _DETAIL_TO_REASON.get(detail)

    @property
    def counter(self) -> str:
        """The per-reason counter name (``drop_<reason>`` with dashes
        folded to underscores, matching the ``action_*`` convention)."""
        return _REASON_COUNTERS[self]


_DETAIL_TO_REASON = {reason.value: reason for reason in DropReason}
_REASON_COUNTERS = {
    reason: f"drop_{reason.value.replace('-', '_')}" for reason in DropReason
}


def count_drop(counters, detail: str) -> None:
    """Charge one drop with *detail* to its per-reason counter (unknown
    details fall into ``drop_other`` so conservation still holds)."""
    reason = _DETAIL_TO_REASON.get(detail)
    counters.add(_REASON_COUNTERS[reason] if reason is not None else "drop_other")


def count_drops(counters, details) -> None:
    """Charge a whole burst's ``{detail: count}`` drop histogram in one
    flush — the batch analogue of :func:`count_drop`, with identical
    final counter state (including the ``drop_other`` fallback).

    >>> from repro.telemetry.stats import CounterSet
    >>> counters = CounterSet()
    >>> count_drops(counters, {"no-route": 3, "mystery": 1})
    >>> counters["drop_no_route"], counters["drop_other"]
    (3, 1)
    """
    reason_of = _DETAIL_TO_REASON.get
    for detail, count in details.items():
        reason = reason_of(detail)
        counters.add(
            _REASON_COUNTERS[reason] if reason is not None else "drop_other", count
        )


#: Interned ``("vni", <vni>)`` counter/meter keys. The forwarding program
#: charges two table keys per packet; building the tuple twice per packet
#: is measurable at Mpps, so the keys are allocated once per VNI instead.
_VNI_KEYS: dict = {}


def vni_key(vni: int) -> tuple:
    """The interned counter/meter key for one VNI."""
    key = _VNI_KEYS.get(vni)
    if key is None:
        key = _VNI_KEYS[vni] = ("vni", vni)
    return key


@dataclass(frozen=True, slots=True)
class ForwardResult:
    """Outcome + (possibly rewritten) packet + diagnostic detail."""

    action: ForwardAction
    packet: Packet
    detail: str = ""
    resolved_vni: Optional[int] = None
    nc_ip: Optional[int] = None


@dataclass
class GatewayTables:
    """The table bundle one gateway forwards with."""

    routing: VxlanRoutingTable = field(default_factory=VxlanRoutingTable)
    vm_nc: VmNcTable = field(default_factory=VmNcTable)
    acl: AclTable = field(default_factory=AclTable)
    meters: MeterTable = field(default_factory=MeterTable)
    counters: CounterTable = field(default_factory=CounterTable)


#: FlowKey has no __post_init__: every field is an int read off the packet.
_flow_key = unchecked(FlowKey)


def inner_flow_key(packet: Packet) -> FlowKey:
    """The inner 5-tuple as a :class:`FlowKey` (read from the header
    vector of a packet that kept its wire image, building no header)."""
    vector = packet._vector
    if vector is not None:
        return _flow_key(vector[1], vector[2], vector[3], vector[4], vector[5],
                         vector[6])
    src, dst, proto, sport, dport = packet.inner.five_tuple()
    return _flow_key(src, dst, proto, sport, dport, packet.inner_version)


def forward(
    tables: GatewayTables,
    packet: Packet,
    gateway_ip: int,
    now: float = 0.0,
) -> ForwardResult:
    """Run the full gateway program on one VXLAN packet.

    >>> # see examples/quickstart.py for an end-to-end walkthrough
    """
    if not packet.is_vxlan:
        return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.NOT_VXLAN.value)

    vni = packet.vni
    key = vni_key(vni)
    size = packet.wire_length()
    flow = inner_flow_key(packet)
    tables.counters.count(key, size)

    if tables.acl.evaluate(vni, flow) is AclVerdict.DENY:
        return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.ACL_DENY.value)

    if tables.meters.charge(key, now, size) is MeterColor.RED:
        return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.METER_RED.value)

    try:
        resolution = tables.routing.resolve(vni, packet.inner_dst, packet.inner_version)
    except MissingEntryError:
        return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.NO_ROUTE.value)
    except RoutingLoopError:
        return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.PEER_LOOP.value)

    scope = resolution.action.scope
    if scope is Scope.LOCAL:
        binding = tables.vm_nc.lookup(resolution.vni, packet.inner_dst, packet.inner_version)
        if binding is None:
            return ForwardResult(
                ForwardAction.DROP, packet, detail=DropReason.NO_VM.value, resolved_vni=resolution.vni
            )
        out = packet.rewritten(
            gateway_ip, binding.nc_ip,
            resolution.vni if resolution.vni != vni else None)
        return ForwardResult(
            ForwardAction.DELIVER_NC,
            out,
            detail="local",
            resolved_vni=resolution.vni,
            nc_ip=binding.nc_ip,
        )

    if scope is Scope.SERVICE:
        return ForwardResult(
            ForwardAction.REDIRECT_X86,
            packet,
            detail=resolution.action.target or "service",
            resolved_vni=resolution.vni,
        )

    # INTERNET / IDC / CROSS_REGION all leave through an uplink.
    return ForwardResult(
        ForwardAction.UPLINK,
        packet,
        detail=resolution.action.target or scope.value,
        resolved_vni=resolution.vni,
    )
