"""Internet checksum (RFC 1071) used by the IPv4/UDP/TCP header codecs."""

from __future__ import annotations

from struct import unpack


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement internet checksum of *data*.

    Odd-length input is zero-padded on the right, per RFC 1071.

    >>> internet_checksum(bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")) == 0
    True
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = sum(unpack(f"!{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when *data* (including its embedded checksum field) sums to zero."""
    return internet_checksum(data) == 0


def pseudo_header_v4(src: int, dst: int, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header bytes used by UDP/TCP checksums."""
    return (
        src.to_bytes(4, "big")
        + dst.to_bytes(4, "big")
        + b"\x00"
        + bytes([proto])
        + length.to_bytes(2, "big")
    )


def pseudo_header_v6(src: int, dst: int, proto: int, length: int) -> bytes:
    """IPv6 pseudo-header bytes used by UDP/TCP checksums."""
    return (
        src.to_bytes(16, "big")
        + dst.to_bytes(16, "big")
        + length.to_bytes(4, "big")
        + b"\x00\x00\x00"
        + bytes([proto])
    )
