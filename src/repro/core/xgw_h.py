"""XGW-H: the hardware gateway — a folded chip running the gateway program.

Ties together the Tofino simulator, the pipeline-split gateway program
and the compressed tables. One XGW-H carries a cluster's table shard at
3.2 Tbps (folded) with ~2 µs latency; it redirects SERVICE-scope traffic
to XGW-x86.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dataplane.columnar import BatchCompiler, PacketBatch
from ..dataplane.columnar.compiler import PIPE_REFS
from ..dataplane.gateway_logic import (
    ForwardAction,
    ForwardResult,
    GatewayTables,
    count_drop,
    count_drops,
)
from ..dataplane.migration import MigrationState
from ..dataplane.pipeline_program import SplitVmNc, XgwHProgram, parity_pipeline
from ..net.addr import Prefix
from ..net.packet import Packet
from ..tables.vm_nc import NcBinding
from ..tables.vxlan_routing import RouteAction
from ..telemetry.stats import CounterSet
from ..tofino.chip import Chip
from ..tofino.pipeline import Verdict

_VERDICT_TO_ACTION = {
    Verdict.DROP: ForwardAction.DROP,
    Verdict.REDIRECT_X86: ForwardAction.REDIRECT_X86,
}


@dataclass
class XgwHStats:
    """Forwarding counters of one hardware gateway."""

    packets: int = 0
    delivered: int = 0
    uplinked: int = 0
    redirected: int = 0
    dropped: int = 0
    buffered: int = 0
    bridged_bytes: int = 0

    @property
    def mean_bridge_bytes(self) -> float:
        """Average metadata bytes bridged per packet (§4.4's wire cost)."""
        return self.bridged_bytes / self.packets if self.packets else 0.0

    def bridge_throughput_loss(self, packet_bytes: int) -> float:
        """Measured line-rate fraction lost to bridging at one packet size."""
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        mean = self.mean_bridge_bytes
        return mean / (packet_bytes + mean)


class XgwH:
    """One hardware gateway node.

    >>> gw = XgwH(gateway_ip=0x0A0000FE)
    >>> gw.chip.folded
    True
    """

    def __init__(self, gateway_ip: int, tables: Optional[GatewayTables] = None,
                 columnar: bool = True):
        self.gateway_ip = gateway_ip
        self.tables = tables if tables is not None else GatewayTables()
        self.split_vm_nc = SplitVmNc.empty()
        self.chip = Chip(folded=True)
        self.clock = 0.0
        self.program = XgwHProgram(self.tables, self.split_vm_nc, gateway_ip,
                                   clock=lambda: self.clock)
        self.chip.attach_symmetric(self.program.programs())
        self.stats = XgwHStats()
        self.counters = CounterSet()
        #: Columnar batch path (DESIGN §13): ``forward_batch`` executes a
        #: compiled program over struct-of-arrays bursts instead of
        #: simulating every fabric traversal, reproducing the per-packet
        #: stats/pipe/bridge bookkeeping in aggregate.
        self._batch_compiler: Optional[BatchCompiler] = (
            BatchCompiler(self.tables, gateway_ip, split_vm_nc=self.split_vm_nc)
            if columnar else None
        )
        self._compiled = None
        self._last_traversal = None
        #: Live-migration freeze state, attached lazily by
        #: :func:`repro.dataplane.migration.ensure_migration_state`.
        self.migration: Optional[MigrationState] = None

    def set_redirect_rate_limit(self, rate_bps: float, burst_bytes: Optional[float] = None) -> None:
        """Install the §4.2 overload-protection meter on the redirect path.

        *rate_bps* is the allowed redirect bandwidth; internally meters
        run in bytes.
        """
        from ..tables.meter import TokenBucket

        rate_bytes = rate_bps / 8.0
        self.tables.meters.configure(
            "redirect-x86",
            TokenBucket(
                committed_rate=rate_bytes,
                committed_burst=burst_bytes if burst_bytes is not None else rate_bytes * 0.01,
            ),
        )

    # -- table management (driven by the controller) -----------------------

    def install_route(self, vni: int, prefix: Prefix, action: RouteAction,
                      replace: bool = False) -> None:
        self.tables.routing.insert(vni, prefix, action, replace=replace)

    def remove_route(self, vni: int, prefix: Prefix) -> RouteAction:
        return self.tables.routing.remove(vni, prefix)

    def install_vm(self, vni: int, vm_ip: int, version: int, binding: NcBinding,
                   replace: bool = False) -> None:
        """VM-NC entries land in the parity half of the split table."""
        self.split_vm_nc.insert(vni, vm_ip, version, binding, replace=replace)

    def remove_vm(self, vni: int, vm_ip: int, version: int) -> NcBinding:
        """Withdraw a VM binding from the parity half that holds it."""
        return self.split_vm_nc.remove(vni, vm_ip, version)

    def route_count(self) -> int:
        return len(self.tables.routing)

    def vm_count(self) -> int:
        return len(self.split_vm_nc)

    # -- forwarding ---------------------------------------------------------

    def forward_traced(self, packet: Packet, now: Optional[float] = None):
        """Like :meth:`forward` but also returns the chip traversal, for
        VTrace-style path diagnostics."""
        result = self.forward(packet, now)
        return result, self._last_traversal

    def forward(self, packet: Packet, now: Optional[float] = None) -> ForwardResult:
        """Forward one packet through the folded pipelines.

        *now* advances the gateway's data-plane clock (used by meters).
        """
        if now is not None:
            self.clock = now
        self.stats.packets += 1
        if self.migration is not None:
            intercepted = self.migration.intercept(packet, self.clock)
            if intercepted is not None:
                self._last_traversal = None
                if intercepted.action is ForwardAction.DROP:
                    self.stats.dropped += 1
                    count_drop(self.counters, intercepted.detail)
                else:
                    self.stats.buffered += 1
                return intercepted
        entry = parity_pipeline(packet.inner_dst) if packet.is_vxlan else 0
        traversal = self.chip.process(packet, entry_pipeline=entry)
        self._last_traversal = traversal
        self.stats.bridged_bytes += traversal.bridged_bytes
        verdict = traversal.verdict
        if verdict is Verdict.DROP:
            self.stats.dropped += 1
            count_drop(self.counters, traversal.drop_reason)
            return ForwardResult(ForwardAction.DROP, traversal.packet,
                                 detail=traversal.drop_reason)
        if verdict is Verdict.REDIRECT_X86:
            self.stats.redirected += 1
            return ForwardResult(ForwardAction.REDIRECT_X86, traversal.packet,
                                 detail=traversal.drop_reason)
        # FORWARD: an early exit (1 pipe) is uplink traffic; the full folded
        # path (4 pipes) ends with the NC rewrite.
        if traversal.pipes_traversed >= 4:
            self.stats.delivered += 1
            return ForwardResult(
                ForwardAction.DELIVER_NC,
                traversal.packet,
                detail="local",
                nc_ip=traversal.packet.ip.dst,
            )
        self.stats.uplinked += 1
        return ForwardResult(ForwardAction.UPLINK, traversal.packet,
                             detail=traversal.drop_reason)

    def forward_batch(self, packets: Sequence[Packet],
                      now: Optional[float] = None) -> List[ForwardResult]:
        """Forward a burst through the columnar compiled program.

        Results and every observable side effect — stats, drop counters,
        chip packet counts, per-pipe tallies, bridge bytes, table
        counters/meters — are identical to per-packet :meth:`forward`
        calls (differentially tested). The program recompiles whenever
        the table generation vector moves; freeze windows fall back to
        the per-packet loop. *now* advances the
        data-plane clock once for the whole burst.
        """
        if now is not None:
            self.clock = now
        compiler = self._batch_compiler
        if compiler is None or (self.migration is not None and self.migration.frozen):
            if isinstance(packets, PacketBatch):
                packets = packets.packets
            fwd = self.forward
            return [fwd(packet) for packet in packets]
        program = self._compiled
        if program is None or program.generations != compiler.generations():
            program = self._compiled = compiler.compile()
        batch = (packets if isinstance(packets, PacketBatch)
                 else PacketBatch.from_packets(packets))
        results, tally = program.execute(batch, self.clock)
        actions = tally.actions
        stats = self.stats
        stats.packets += batch.n
        stats.delivered += actions.get(ForwardAction.DELIVER_NC, 0)
        stats.uplinked += actions.get(ForwardAction.UPLINK, 0)
        stats.redirected += actions.get(ForwardAction.REDIRECT_X86, 0)
        dropped = actions.get(ForwardAction.DROP, 0)
        stats.dropped += dropped
        stats.bridged_bytes += tally.bridged_bytes
        if tally.drop_details:
            count_drops(self.counters, tally.drop_details)
        chip = self.chip
        chip.packets_in += batch.n
        chip.packets_dropped += dropped
        pipe_packets = chip.fabric.pipe_packets
        for ref, count in zip(PIPE_REFS, tally.pipe_packets):
            if count:
                pipe_packets[ref] = pipe_packets.get(ref, 0) + count
        self._last_traversal = None
        return results

    # -- performance ---------------------------------------------------------

    def latency_us(self) -> float:
        return self.chip.forwarding_latency_us()

    def throughput_bps(self) -> float:
        return self.chip.max_throughput_bps()

    def max_pps(self) -> float:
        return self.chip.max_pps()

    def egress_pipe_share(self):
        """Per-egress-pipe packet counts (Fig. 20/21)."""
        return self.chip.fabric.egress_pipe_share()
