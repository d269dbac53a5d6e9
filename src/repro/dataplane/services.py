"""Stateful services on the software gateway — SNAT (§4.2, Fig. 11).

The switch cannot hold the O(100M)-entry SNAT session table, so XGW-H
tags SNAT-bound traffic (SERVICE scope) and redirects it to XGW-x86.
This module implements both directions:

* **request** (red arrow in Fig. 11): VM -> Internet. The VXLAN tunnel
  is removed, the inner source IP/port are rewritten to an allocated
  public IP/port, and the packet leaves as plain IP. A burst's request
  lanes are served in one :meth:`SnatService.serve_requests` call — a
  stage of the x86 compiled program — and :meth:`SnatService.
  handle_request` is its one-lane case.
* **response** (blue arrow): Internet -> public IP. The session is found
  by reverse lookup, the original VM addressing restored, the packet
  re-encapsulated toward the VM's NC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..net.flow import FlowKey
from ..net.headers import Ethernet, unchecked
from ..net.packet import InnerFrame, Packet
from ..tables.errors import TableFullError
from ..tables.snat import SnatTable
from .gateway_logic import (
    DropReason,
    ForwardAction,
    ForwardResult,
    GatewayTables,
    inner_flow_key,
)

_UPLINK = ForwardAction.UPLINK
_DROP = ForwardAction.DROP
_NOT_VXLAN = DropReason.SNAT_NOT_VXLAN.value
_V6_UNSUPPORTED = DropReason.SNAT_V6_UNSUPPORTED.value
_POOL_EXHAUSTED = DropReason.SNAT_POOL_EXHAUSTED.value

#: The request output is a plain packet (neither ``vxlan`` nor ``inner``,
#: so ``Packet.__post_init__`` has nothing to check) and ForwardResult
#: has no ``__post_init__``.
_packet = unchecked(Packet)
_result = unchecked(ForwardResult)


@dataclass
class _SessionContext:
    """What the response path needs that the 5-tuple alone cannot supply."""

    vni: int
    inner_eth: Ethernet


class SnatService:
    """SNAT request/response handling bound to one gateway's tables."""

    def __init__(self, snat: SnatTable, tables: GatewayTables, gateway_ip: int):
        self.snat = snat
        self.tables = tables
        self.gateway_ip = gateway_ip
        self._contexts: Dict[FlowKey, _SessionContext] = {}
        self.requests = 0
        self.responses = 0
        self.failures = 0

    def serve_requests(self, packets: Sequence[Packet], lanes: Sequence[int],
                       results: List[Optional[ForwardResult]],
                       now: float = 0.0) -> Dict[str, int]:
        """VM -> Internet for the request lanes of one burst: decap,
        translate the source, emit plain IP.

        Sets ``results[i]`` for every lane ``i`` in *lanes* (indices into
        *packets*) and returns ``{drop detail: count}`` for the lanes it
        dropped; every other lane is an UPLINK.
        """
        contexts = self._contexts
        translate = self.snat.translate
        drops: Dict[str, int] = {}
        served = failures = 0
        for i in lanes:
            packet = packets[i]
            detail = None
            if not packet.is_vxlan:
                detail = _NOT_VXLAN
            else:
                # One key per lane, shared by the translation and the
                # context check.
                flow = inner_flow_key(packet)
                if flow.version != 4:
                    detail = _V6_UNSUPPORTED
                else:
                    try:
                        session = translate(flow, now)
                    except TableFullError:
                        failures += 1
                        detail = _POOL_EXHAUSTED
            if detail is not None:
                drops[detail] = drops.get(detail, 0) + 1
                results[i] = _result(_DROP, packet, detail, None, None)
                continue
            plain = packet.decap()
            if flow not in contexts:
                contexts[flow] = _SessionContext(vni=packet.vni, inner_eth=plain.eth)
            l4 = plain.l4
            if l4 is not None:
                l4 = l4.replace_src_port(session.public_port)
            out = _packet(plain.eth, plain.ip.replace_src(session.public_ip), l4,
                          None, None, plain.payload)
            results[i] = _result(_UPLINK, out, "snat-request", None, None)
            served += 1
        self.requests += served
        self.failures += failures
        return drops

    def handle_request(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """VM -> Internet for one packet: :meth:`serve_requests` over a
        one-lane burst."""
        results: List[Optional[ForwardResult]] = [None]
        self.serve_requests((packet,), (0,), results, now)
        return results[0]

    def handle_response(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """Internet -> VM: reverse-translate and re-encapsulate to the NC."""
        if packet.is_vxlan or packet.l4 is None:
            return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.SNAT_BAD_RESPONSE.value)
        session = self.snat.reverse(
            public_ip=packet.ip.dst,
            public_port=packet.l4.dst_port,
            remote_ip=packet.ip.src,
            remote_port=packet.l4.src_port,
            proto=packet.ip.proto,
        )
        if session is None:
            self.failures += 1
            return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.SNAT_NO_SESSION.value)
        session.touch(now)
        context = self._contexts.get(session.flow)
        if context is None:
            self.failures += 1
            return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.SNAT_LOST_CONTEXT.value)

        binding = self.tables.vm_nc.lookup(context.vni, session.flow.src_ip, 4)
        if binding is None:
            self.failures += 1
            return ForwardResult(ForwardAction.DROP, packet, detail=DropReason.SNAT_NO_VM.value)

        restored_l4 = None
        if packet.l4 is not None:
            # Restore the VM's original destination port on the way back.
            if hasattr(packet.l4, "dst_port"):
                restored_l4 = type(packet.l4)(
                    src_port=packet.l4.src_port,
                    dst_port=session.flow.src_port,
                )
        inner_ip = packet.ip.replace_dst(session.flow.src_ip)
        # Swap the original inner Ethernet for the return direction.
        inner_eth = Ethernet(
            dst=context.inner_eth.src,
            src=context.inner_eth.dst,
            ethertype=context.inner_eth.ethertype,
        )
        inner = InnerFrame(eth=inner_eth, ip=inner_ip, l4=restored_l4, payload=packet.payload)
        encapped = Packet.vxlan_encap(
            inner,
            outer_eth=packet.eth,
            outer_src=self.gateway_ip,
            outer_dst=binding.nc_ip,
            vni=context.vni,
        )
        self.responses += 1
        return ForwardResult(
            ForwardAction.DELIVER_NC,
            encapped,
            detail="snat-response",
            resolved_vni=context.vni,
            nc_ip=binding.nc_ip,
        )

    def rewrite_endpoint(self, old_ip: int, new_ip: int):
        """Migrate every session (and its response-path context) of
        inner source *old_ip* to *new_ip*, keeping the public tuples.
        Returns the ``(old_flow, new_flow)`` pairs; all-or-nothing."""
        pairs = self.snat.rewrite_source(old_ip, new_ip)
        for old_flow, new_flow in pairs:
            context = self._contexts.pop(old_flow, None)
            if context is not None:
                self._contexts[new_flow] = context
        return pairs

    def expire(self, now: float) -> int:
        """Expire idle sessions and their contexts; returns the count."""
        before = set(self._contexts)
        count = self.snat.expire_idle(now)
        for flow in before:
            if self.snat.lookup(flow) is None:
                self._contexts.pop(flow, None)
        return count
