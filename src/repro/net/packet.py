"""Packet model: plain and VXLAN-encapsulated packets.

The simulator mostly moves :class:`Packet` objects around in structured
form (decoded headers + payload) and only serialises to bytes at the
"wire" boundaries, mirroring how a real pipeline keeps parsed header
vectors. Round-tripping through :meth:`Packet.to_bytes` and
:meth:`Packet.from_bytes` is byte-exact and covered by property tests.
Decoding is one pass over the buffer with a running offset through the
``read_*`` functions of :mod:`repro.net.headers`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .headers import (
    ETH_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPV4_MIN_LEN,
    PROTO_TCP,
    PROTO_UDP,
    TCP_MIN_LEN,
    VXLAN_LEN,
    VXLAN_PORT,
    Ethernet,
    HeaderError,
    IPv4,
    IPv6,
    TCP,
    UDP,
    VXLAN,
    read_ethernet,
    read_ipv4,
    read_ipv6,
    read_tcp,
    read_udp,
    read_vxlan,
    unchecked,
)

IPHeader = Union[IPv4, IPv6]
L4Header = Union[UDP, TCP]


def _pack_ip_and_l4(ip: IPHeader, l4: Optional[L4Header], payload: bytes) -> bytes:
    if l4 is not None:
        payload = l4.pack(len(payload)) + payload
    return ip.pack(len(payload)) + payload


def _payload(raw, off: int) -> bytes:
    """``raw[off:]`` as ``bytes`` whatever buffer *raw* is, so a decoded
    packet never aliases (or is unhashable because of) a caller's buffer."""
    payload = raw[off:]
    return payload if type(payload) is bytes else bytes(payload)


def _shortened(ip: IPHeader, dropped: int) -> IPHeader:
    """*ip* with its stored length no longer counting *dropped* option bytes."""
    if ip.version == 4:
        return replace(ip, total_length=max(ip.total_length - dropped, 0))
    return replace(ip, payload_length=max(ip.payload_length - dropped, 0))


def _read_frame(raw, off: int, end: int, where: str):
    """Decode Ethernet + IP + L4 at ``raw[off:end]``.

    Returns ``(eth, ip, l4, payload_offset, dropped)``; *dropped* counts the
    IPv4/TCP option bytes the headers do not carry, already taken out of
    this frame's own stored IP length (an enclosing tunnel's lengths are
    the caller's). *where* prefixes the unsupported-ethertype message.
    """
    eth, off = read_ethernet(raw, off, end)
    ethertype = eth.ethertype
    if ethertype == ETHERTYPE_IPV4:
        ip, l4_off = read_ipv4(raw, off, end)
        dropped = l4_off - off - IPV4_MIN_LEN
        proto = ip.proto
    elif ethertype == ETHERTYPE_IPV6:
        ip, l4_off = read_ipv6(raw, off, end)
        dropped = 0
        proto = ip.next_header
    else:
        raise HeaderError(f"{where}ethertype {ethertype:#x} unsupported")
    if proto == PROTO_UDP:
        l4, off = read_udp(raw, l4_off, end)
    elif proto == PROTO_TCP:
        l4, off = read_tcp(raw, l4_off, end)
        options = off - l4_off - TCP_MIN_LEN
        if options:
            ip = _shortened(ip, options)
            dropped += options
    else:
        l4, off = None, l4_off
    return eth, ip, l4, off, dropped


@dataclass(frozen=True, slots=True)
class InnerFrame:
    """The frame carried inside a VXLAN tunnel: Ethernet + IP + L4 + payload."""

    eth: Ethernet
    ip: IPHeader
    l4: Optional[L4Header]
    payload: bytes = b""

    def pack(self) -> bytes:
        return self.eth.pack() + _pack_ip_and_l4(self.ip, self.l4, self.payload)

    @classmethod
    def unpack(cls, raw: bytes) -> "InnerFrame":
        eth, ip, l4, off, _dropped = _read_frame(raw, 0, len(raw), "inner frame ")
        return _inner_frame(eth, ip, l4, _payload(raw, off))

    @property
    def version(self) -> int:
        return self.ip.version

    def wire_length(self) -> int:
        """Serialized length in bytes, without building the bytes."""
        l4 = self.l4
        return (ETH_LEN + self.ip.WIRE_LEN + (l4.WIRE_LEN if l4 is not None else 0)
                + len(self.payload))

    def five_tuple(self):
        """(src ip, dst ip, proto, src port, dst port) of the inner frame."""
        src_port = self.l4.src_port if self.l4 is not None else 0
        dst_port = self.l4.dst_port if self.l4 is not None else 0
        return (self.ip.src, self.ip.dst, self.ip.proto, src_port, dst_port)


@dataclass(frozen=True, slots=True)
class Packet:
    """A packet as seen by the gateway.

    For VXLAN traffic, ``vxlan`` and ``inner`` are set and the outer L4 is a
    UDP header with destination port 4789. Plain packets carry ``payload``
    directly and have ``vxlan is None``.
    """

    eth: Ethernet
    ip: IPHeader
    l4: Optional[L4Header] = None
    vxlan: Optional[VXLAN] = None
    inner: Optional[InnerFrame] = None
    payload: bytes = b""

    def __post_init__(self):
        if (self.vxlan is None) != (self.inner is None):
            raise ValueError("vxlan and inner must be set together")
        if self.vxlan is not None and not isinstance(self.l4, UDP):
            raise ValueError("VXLAN packets require an outer UDP header")

    # -- constructors ---------------------------------------------------

    @classmethod
    def vxlan_encap(
        cls,
        inner: InnerFrame,
        outer_eth: Ethernet,
        outer_src: int,
        outer_dst: int,
        vni: int,
        outer_version: int = 4,
        src_port: int = 0xC000,
    ) -> "Packet":
        """Encapsulate *inner* into a VXLAN tunnel towards *outer_dst*."""
        if outer_version == 4:
            ip: IPHeader = IPv4(src=outer_src, dst=outer_dst, proto=PROTO_UDP)
        else:
            ip = IPv6(src=outer_src, dst=outer_dst, next_header=PROTO_UDP)
        return cls(
            eth=outer_eth,
            ip=ip,
            l4=UDP(src_port=src_port, dst_port=VXLAN_PORT),
            vxlan=VXLAN(vni=vni),
            inner=inner,
        )

    # -- accessors ------------------------------------------------------

    @property
    def is_vxlan(self) -> bool:
        return self.vxlan is not None

    @property
    def vni(self) -> int:
        if self.vxlan is None:
            raise HeaderError("not a VXLAN packet")
        return self.vxlan.vni

    @property
    def inner_dst(self) -> int:
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return self.inner.ip.dst

    @property
    def inner_version(self) -> int:
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return self.inner.ip.version

    def wire_length(self) -> int:
        """Total serialized length in bytes.

        Computed arithmetically — every header the simulator emits has a
        fixed wire size — so the per-packet counter/meter charges on the
        forwarding fast path do not have to serialise the packet. Always
        equals ``len(self.to_bytes())`` (property-tested).
        """
        if self.vxlan is not None:
            body = VXLAN_LEN + self.inner.wire_length()
        else:
            body = len(self.payload)
        l4 = self.l4
        return ETH_LEN + self.ip.WIRE_LEN + (l4.WIRE_LEN if l4 is not None else 0) + body

    # -- rewriting ------------------------------------------------------

    def with_outer(self, ip: IPHeader, vxlan: Optional[VXLAN]) -> "Packet":
        """Copy with the outer IP and VXLAN headers swapped for *ip* and
        *vxlan* — the shape of every delivery rewrite. *vxlan* must be a
        header exactly when this packet has one; everything else
        ``__post_init__`` checks is carried over from *self* unchanged.
        """
        if (vxlan is None) != (self.vxlan is None):
            raise ValueError("vxlan and inner must be set together")
        return _packet(self.eth, ip, self.l4, vxlan, self.inner, self.payload)

    def with_outer_dst(self, dst: int) -> "Packet":
        """New packet with the outer destination IP rewritten (NC delivery)."""
        return self.with_outer(self.ip.replace_dst(dst), self.vxlan)

    def with_outer_src(self, src: int) -> "Packet":
        return self.with_outer(self.ip.replace_src(src), self.vxlan)

    def with_vni(self, vni: int) -> "Packet":
        """New packet with the VXLAN VNI rewritten (peer-VPC hops)."""
        if self.vxlan is None:
            raise HeaderError("not a VXLAN packet")
        return self.with_outer(self.ip, VXLAN(vni=vni, flags=self.vxlan.flags))

    def rewritten(self, outer_src: int, outer_dst: int,
                  vni: Optional[int] = None) -> "Packet":
        """Apply a cached rewrite recipe in one copy.

        Equivalent to ``with_vni(vni).with_outer_src(outer_src)
        .with_outer_dst(outer_dst)`` but allocates a single new Packet —
        the flow-cache fast path applies one of these per hit.
        """
        vxlan = self.vxlan
        if vni is not None:
            if vxlan is None:
                raise HeaderError("not a VXLAN packet")
            vxlan = VXLAN(vni=vni, flags=vxlan.flags)
        return self.with_outer(self.ip.replace_src_dst(outer_src, outer_dst), vxlan)

    def decap(self) -> "Packet":
        """Strip the VXLAN tunnel, returning the inner frame as a packet."""
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return Packet(
            eth=self.inner.eth,
            ip=self.inner.ip,
            l4=self.inner.l4,
            payload=self.inner.payload,
        )

    # -- serialisation --------------------------------------------------

    def to_bytes(self) -> bytes:
        if self.vxlan is not None:
            body = self.vxlan.pack() + self.inner.pack()
        else:
            body = self.payload
        return self.eth.pack() + _pack_ip_and_l4(self.ip, self.l4, body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Packet":
        """Decode a frame held in any buffer (``bytes``, ``bytearray``,
        ``memoryview``) in one pass; the payload is always ``bytes``."""
        end = len(raw)
        eth, ip, l4, off, _dropped = _read_frame(raw, 0, end, "")
        if type(l4) is UDP and l4.dst_port == VXLAN_PORT:
            vxlan, off = read_vxlan(raw, off, end)
            inner_eth, inner_ip, inner_l4, off, dropped = _read_frame(
                raw, off, end, "inner frame ")
            if dropped:
                ip = _shortened(ip, dropped)
                l4 = replace(l4, length=max(l4.length - dropped, 0))
            inner = _inner_frame(inner_eth, inner_ip, inner_l4, _payload(raw, off))
            # This branch is what __post_init__ checks: outer UDP, vxlan
            # and inner together (and neither in the branch below).
            return _packet(eth, ip, l4, vxlan, inner, b"")
        return _packet(eth, ip, l4, None, None, _payload(raw, off))


_inner_frame = unchecked(InnerFrame)
_packet = unchecked(Packet)
