"""Flow identification and RSS hashing.

``FlowKey`` is the canonical 5-tuple used by the software-gateway
simulator; :func:`toeplitz_hash` is the real Toeplitz RSS hash (with the
standard Microsoft verification key) that NICs use to spread flows over
RX queues, so the balls-into-bins behaviour in the Fig. 4/7 experiments
matches what DPDK hardware actually does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

# The de-facto standard 40-byte RSS key from the Microsoft RSS verification
# suite; DPDK and most NIC drivers ship it as the default.
MSFT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


@dataclass(frozen=True, order=True, slots=True)
class FlowKey:
    """A transport 5-tuple identifying a flow."""

    src_ip: int
    dst_ip: int
    proto: int
    src_port: int
    dst_port: int
    version: int = 4

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(
            self.dst_ip, self.src_ip, self.proto, self.dst_port, self.src_port, self.version
        )

    def to_rss_input(self) -> bytes:
        """The byte string hashed by RSS for this flow (addresses + ports)."""
        width = 4 if self.version == 4 else 16
        return (
            self.src_ip.to_bytes(width, "big")
            + self.dst_ip.to_bytes(width, "big")
            + self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
        )


def toeplitz_hash(data: bytes, key: bytes = MSFT_RSS_KEY) -> int:
    """Compute the 32-bit Toeplitz hash of *data* under *key*.

    Verified against the canonical Microsoft RSS test vectors in the test
    suite.
    """
    if len(key) < len(data) + 4:
        raise ValueError("RSS key too short for input")
    result = 0
    # Sliding 32-bit window over the key, shifted one bit per input bit.
    window = int.from_bytes(key[:4], "big")
    key_bits = int.from_bytes(key, "big")
    total_key_bits = len(key) * 8
    bit_index = 0
    for byte in data:
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = total_key_bits - 32 - bit_index
                window = (key_bits >> shift) & 0xFFFFFFFF
                result ^= window
            bit_index += 1
    return result


def rss_queue(flow: FlowKey, num_queues: int, key: bytes = MSFT_RSS_KEY) -> int:
    """Map *flow* to an RX queue index the way an RSS-enabled NIC does.

    Real NICs use an indirection table indexed by the low 7 bits of the
    Toeplitz hash; with the default identity-modulo table that reduces to
    ``hash % num_queues``, which is what we model.
    """
    if num_queues <= 0:
        raise ValueError("num_queues must be positive")
    return toeplitz_hash(flow.to_rss_input(), key) % num_queues


def symmetric_flow_hash(flow: FlowKey) -> int:
    """A direction-independent 64-bit flow hash (for connection tables)."""
    a = (flow.src_ip, flow.src_port)
    b = (flow.dst_ip, flow.dst_port)
    lo, hi = (a, b) if a <= b else (b, a)
    return hash((lo, hi, flow.proto, flow.version)) & 0xFFFFFFFFFFFFFFFF
