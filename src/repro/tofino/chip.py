"""The switch chip: ports, timing and rate model around the pipe fabric.

Performance constants are calibrated to the paper's Fig. 18 (see
EXPERIMENTS.md): 6.4 Tbps across 64 × 100 GbE ports, per-pipe packet
budget such that the folded chip holds line rate down to 128-byte
packets, ~1.1 µs unfolded forwarding latency (doubling to ~2.2 µs when
folded — the paper measures 2.173–2.306 µs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.packet import Packet
from .memory import NUM_PIPELINES, STAGES_PER_PIPELINE
from .pipeline import Gress, PipelineFabric, PipeProgram, Traversal

PORT_SPEED_BPS = 100e9
PORTS_PER_PIPELINE = 16
TOTAL_PORTS = PORTS_PER_PIPELINE * NUM_PIPELINES  # 64 x 100GbE = 6.4T

#: Ethernet preamble + inter-frame gap charged per packet on the wire.
WIRE_OVERHEAD_BYTES = 20

#: Per-pipe packet-per-second ceiling. 1.35 Gpps/pipe makes the folded
#: chip (2 entry pipes) line-rate at 128B: 3.2e12 / (8 * 148) = 2.70 Gpps.
PIPE_PPS_CAP = 1.35e9

# Latency components (ns).
PARSER_NS = 100.0
STAGE_NS = 35.0
DEPARSER_NS = 0.0
TRAFFIC_MANAGER_NS = 40.0
LOOPBACK_NS = 40.0


@dataclass(frozen=True)
class RateReport:
    """Sustained forwarding capability at one packet size (Fig. 18)."""

    packet_bytes: int
    throughput_bps: float
    packet_rate_pps: float
    line_rate: bool


class Chip:
    """A programmable switch: fabric + timing/throughput model.

    >>> chip = Chip(folded=True)
    >>> round(chip.forwarding_latency_us(), 1)
    2.2
    """

    def __init__(self, folded: bool = False):
        self.fabric = PipelineFabric(folded=folded)
        self.packets_in = 0
        self.packets_dropped = 0

    @property
    def folded(self) -> bool:
        return self.fabric.folded

    # -- programming ------------------------------------------------------

    def attach(self, pipeline: int, gress: Gress, program: PipeProgram) -> None:
        self.fabric.attach(pipeline, gress, program)

    def attach_symmetric(self, gress_programs) -> None:
        """Install the folded program layout: the dict maps
        ``(role_pipeline, gress)`` for role pipelines 0 (mirrored to 2)
        and 1 (mirrored to 3), per the folding principles of §4.4.
        """
        for (role, gress), program in gress_programs.items():
            self.attach(role, gress, program)
            self.attach(role + 2, gress, program)

    # -- data path --------------------------------------------------------

    def process(self, packet: Packet, entry_pipeline: Optional[int] = None) -> Traversal:
        """Forward one packet; entry pipeline defaults to a VNI-based pick."""
        entries = self.fabric.entry_pipelines()
        if entry_pipeline is None:
            entry_pipeline = entries[0]
        if entry_pipeline not in entries:
            raise ValueError(
                f"pipeline {entry_pipeline} is not an entry pipeline (folded={self.folded})"
            )
        self.packets_in += 1
        result = self.fabric.process(packet, entry_pipeline)
        if result.verdict.value == "drop":
            self.packets_dropped += 1
        return result

    # -- performance model --------------------------------------------------

    def pipes_per_packet(self) -> int:
        return 4 if self.folded else 2

    def forwarding_latency_ns(self, bridged_bytes: int = 0) -> float:
        """Zero-queueing latency of one packet through the chip."""
        per_gress = PARSER_NS + STAGES_PER_PIPELINE * STAGE_NS + DEPARSER_NS
        gresses = self.pipes_per_packet()
        loopbacks = 1 if self.folded else 0
        serialization = bridged_bytes * 8 / PORT_SPEED_BPS * 1e9
        return (
            gresses * per_gress
            + TRAFFIC_MANAGER_NS * (2 if self.folded else 1)
            + loopbacks * LOOPBACK_NS
            + serialization
        )

    def forwarding_latency_us(self, bridged_bytes: int = 0) -> float:
        return self.forwarding_latency_ns(bridged_bytes) / 1e3

    def max_throughput_bps(self) -> float:
        """Front-panel bandwidth: folding loops back half the ports."""
        total = TOTAL_PORTS * PORT_SPEED_BPS
        return total / 2 if self.folded else total

    def max_pps(self) -> float:
        entry_pipes = len(self.fabric.entry_pipelines())
        return entry_pipes * PIPE_PPS_CAP

    def rate_at(self, packet_bytes: int) -> RateReport:
        """Sustained rate at a fixed packet size (pressure test, Fig. 18)."""
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        wire_bits = (packet_bytes + WIRE_OVERHEAD_BYTES) * 8
        bandwidth_pps = self.max_throughput_bps() / wire_bits
        pps = min(bandwidth_pps, self.max_pps())
        return RateReport(
            packet_bytes=packet_bytes,
            throughput_bps=pps * packet_bytes * 8,
            packet_rate_pps=pps,
            line_rate=pps >= bandwidth_pps,
        )

    def min_line_rate_packet(self) -> int:
        """Smallest packet size (bytes) still forwarded at line rate."""
        # line rate <=> bandwidth_pps <= pps cap.
        size = self.max_throughput_bps() / (8 * self.max_pps()) - WIRE_OVERHEAD_BYTES
        return max(1, int(-(-size // 1)))
