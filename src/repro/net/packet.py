"""Packet model: plain and VXLAN-encapsulated packets.

The simulator moves :class:`Packet` objects around in structured form
(decoded headers + payload) and serialises to bytes at the "wire"
boundaries. Round-tripping through :meth:`Packet.to_bytes` and
:meth:`Packet.from_bytes` is byte-exact and covered by property tests.
Decoding is one pass over the buffer with a running offset through the
``read_*`` functions of :mod:`repro.net.headers`.

A packet decoded from a *canonical* VXLAN frame (one :func:`_probe`
accepts: every byte survives ``from_bytes(f).to_bytes()``) keeps its wire
image instead, the way a switch pipeline keeps the frame beside its parsed
header vector: the frame's bytes, the vector of the fields the forwarding
program reads, and a pending outer rewrite. Its header objects are built
by the same eager reader on first touch; the accessors the data plane
uses read the vector and ``to_bytes`` patches the rewrite into the kept
bytes (DESIGN section 15, "The wire image").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from struct import Struct
from typing import Optional, Union

from .headers import (
    ETH_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPV4_MIN_LEN,
    IPV6_LEN,
    PROTO_TCP,
    PROTO_UDP,
    TCP_MIN_LEN,
    UDP_LEN,
    VXLAN_LEN,
    VXLAN_PORT,
    Ethernet,
    HeaderError,
    IPv4,
    IPv6,
    TCP,
    UDP,
    VXLAN,
    _IPV4_VER_IHL,
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


def _read_packet(raw):
    """The six :class:`Packet` fields of the frame in *raw* -- the eager
    reader, and the only decode code that raises :class:`HeaderError`."""
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
        return eth, ip, l4, vxlan, inner, b""
    return eth, ip, l4, None, None, _payload(raw, off)


# -- the wire image: probe once, keep the frame ------------------------------
#
# Offsets of a canonical frame: outer Ethernet 0, outer IPv4 14 (checksum 24,
# src 26, dst 30), outer UDP 34, VXLAN 42 (VNI word 46), inner Ethernet 50,
# inner IP 64, inner L4 84 (IPv4) or 104 (IPv6). An IPv4 header is read as
# its 16-bit words, whose plain sum is what IPv4.pack's checksum negates.

_INNER_OFF = ETH_LEN + IPV4_MIN_LEN + UDP_LEN + VXLAN_LEN
_INNER_IP_OFF = _INNER_OFF + ETH_LEN
_TUNNEL = Struct("!12xH HHHHHHII HHHH II 12xH")  # up to the inner ethertype
_IPV4_WORDS = Struct("!HHHHHHII")
_IPV6_WORDS = Struct("!IH2BQQQQ")
_UDP_FIELDS = Struct("!HHH")
_TCP_FIELDS = Struct("!HH8xH4xH")  # ports, offset+flags, urgent pointer
_OUTER_PATCH = Struct("!HII")  # checksum, src, dst at offset 24


def _probe(raw):
    """The header vector of the canonical VXLAN frame in *raw*, else None.

    Canonical means every byte survives ``from_bytes(raw).to_bytes()`` and
    an outer rewrite is the ten IPv4 bytes (and VNI word) ``to_bytes``
    patches: outer Ethernet / IPv4 (IHL 5, fragment offset 0, the checksum
    ``IPv4.pack`` computes, ``total_length`` covering the frame) / UDP to
    4789 (length nonzero) / VXLAN (I flag, reserved bytes zero) over inner
    Ethernet / IPv4 (same conditions, ``total_length`` nonzero) or IPv6
    (``payload_length`` nonzero) / UDP (length nonzero), TCP (data offset
    5, reserved bits and urgent pointer zero) or any other protocol. It
    never raises: whatever it declines is the eager reader's to judge.

    The vector is ``(vni, inner src, inner dst, proto, sport, dport, inner
    version, wire length, outer src, outer dst, sum of the outer IPv4
    header's other words)``.
    """
    n = len(raw)
    if n < _INNER_IP_OFF + IPV4_MIN_LEN:
        return None
    (ethertype, ver_tos, total, ident, frag, ttl_proto, csum, outer_src, outer_dst,
     _sport, dport, udp_len, _udp_csum, vx_flags, vx_vni,
     inner_type) = _TUNNEL.unpack_from(raw, 0)
    kept = ver_tos + total + ident + frag + ttl_proto
    if (ethertype != ETHERTYPE_IPV4 or ver_tos >> 8 != _IPV4_VER_IHL
            or frag & 0x1FFF or total != n - ETH_LEN
            or ttl_proto & 0xFF != PROTO_UDP
            or csum != -(kept + outer_src + outer_dst) % 0xFFFF
            or dport != VXLAN_PORT or not udp_len
            or vx_flags & 0x08FFFFFF != 0x08000000 or vx_vni & 0xFF):
        return None
    if inner_type == ETHERTYPE_IPV4:
        ver_tos, total, ident, frag, ttl_proto, csum, src, dst = (
            _IPV4_WORDS.unpack_from(raw, _INNER_IP_OFF))
        if (ver_tos >> 8 != _IPV4_VER_IHL or frag & 0x1FFF or not total
                or csum != -(ver_tos + total + ident + frag + ttl_proto
                             + src + dst) % 0xFFFF):
            return None
        version = 4
        proto = ttl_proto & 0xFF
        l4_off = _INNER_IP_OFF + IPV4_MIN_LEN
    elif inner_type == ETHERTYPE_IPV6 and n >= _INNER_IP_OFF + IPV6_LEN:
        first, plen, proto, _hops, src_hi, src_lo, dst_hi, dst_lo = (
            _IPV6_WORDS.unpack_from(raw, _INNER_IP_OFF))
        if first >> 28 != 6 or not plen:
            return None
        version = 6
        src = (src_hi << 64) | src_lo
        dst = (dst_hi << 64) | dst_lo
        l4_off = _INNER_IP_OFF + IPV6_LEN
    else:
        return None
    if proto == PROTO_UDP:
        if n < l4_off + UDP_LEN:
            return None
        sport, dport, udp_len = _UDP_FIELDS.unpack_from(raw, l4_off)
        if not udp_len:
            return None
    elif proto == PROTO_TCP:
        if n < l4_off + TCP_MIN_LEN:
            return None
        sport, dport, offset_flags, urgent = _TCP_FIELDS.unpack_from(raw, l4_off)
        if offset_flags & 0xFE00 != 0x5000 or urgent:
            return None
    else:
        sport = dport = 0
    return (vx_vni >> 8, src, dst, proto, sport, dport, version, n,
            outer_src, outer_dst, kept)


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

    The three private fields are the wire image of a packet decoded from a
    canonical frame (``None`` on every other packet) and are not API: the
    frame's bytes, the header vector :func:`_probe` returned (with the
    current VNI first) and the pending outer rewrite ``(src, dst, vni)``,
    ``None`` marking what the frame's own bytes still say.
    """

    eth: Ethernet
    ip: IPHeader
    l4: Optional[L4Header] = None
    vxlan: Optional[VXLAN] = None
    inner: Optional[InnerFrame] = None
    payload: bytes = b""

    _frame: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)
    _vector: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)
    _pending: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.vxlan is None) != (self.inner is None):
            raise ValueError("vxlan and inner must be set together")
        if self.vxlan is not None and not isinstance(self.l4, UDP):
            raise ValueError("VXLAN packets require an outer UDP header")

    def __getattr__(self, name):
        """Build the header objects of an imaged packet on first touch.

        CPython calls this only when ordinary lookup failed, which for a
        header field means ``from_bytes`` left its slot unset: the eager
        reader runs over the kept frame, the pending rewrite is applied the
        way the ``with_*`` methods apply it to objects, and all six slots
        are filled -- from then on the packet is an ordinary one that also
        has an image. ``==``, ``hash``, ``repr``, ``replace`` and pickling
        read fields by name and so see exactly the eager packet.
        """
        if name not in _HEADER_FIELDS:
            raise AttributeError(name)
        eth, ip, l4, vxlan, inner, payload = _read_packet(self._frame)
        if self._pending is not None:
            src, dst, vni = self._pending
            if src is not None or dst is not None:
                ip = ip.replace_src_dst(ip.src if src is None else src,
                                        ip.dst if dst is None else dst)
            if vni is not None:
                vxlan = VXLAN(vni=vni, flags=vxlan.flags)
        store = object.__setattr__
        for field_name, value in zip(_HEADER_FIELDS, (eth, ip, l4, vxlan, inner, payload)):
            store(self, field_name, value)
        return object.__getattribute__(self, name)

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

    # -- accessors (an imaged packet answers from its vector) -------------

    @property
    def is_vxlan(self) -> bool:
        return self._vector is not None or self.vxlan is not None

    @property
    def vni(self) -> int:
        vector = self._vector
        if vector is not None:
            return vector[0]
        if self.vxlan is None:
            raise HeaderError("not a VXLAN packet")
        return self.vxlan.vni

    @property
    def inner_dst(self) -> int:
        vector = self._vector
        if vector is not None:
            return vector[2]
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return self.inner.ip.dst

    @property
    def inner_version(self) -> int:
        vector = self._vector
        if vector is not None:
            return vector[6]
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
        vector = self._vector
        if vector is not None:
            return vector[7]
        if self.vxlan is not None:
            body = VXLAN_LEN + self.inner.wire_length()
        else:
            body = len(self.payload)
        l4 = self.l4
        return ETH_LEN + self.ip.WIRE_LEN + (l4.WIRE_LEN if l4 is not None else 0) + body

    # -- rewriting ------------------------------------------------------

    def with_outer(self, ip: IPHeader, vxlan: Optional[VXLAN]) -> "Packet":
        """Copy with the outer IP and VXLAN headers swapped for *ip* and
        *vxlan*, which must be a header exactly when this packet has one;
        everything else ``__post_init__`` checks is carried over from
        *self* unchanged. The copy has no wire image: callers that hold
        addresses rather than header objects use :meth:`rewritten`.
        """
        if (vxlan is None) != (self.vxlan is None):
            raise ValueError("vxlan and inner must be set together")
        return _packet(self.eth, ip, self.l4, vxlan, self.inner, self.payload)

    def _repatched(self, src: Optional[int], dst: Optional[int],
                   vni: Optional[int]) -> "Packet":
        """An imaged packet sharing this one's frame, with *src*/*dst*/*vni*
        (None: keep) composed onto the pending rewrite."""
        vector = self._vector
        pending = self._pending
        if pending is not None:
            if src is None:
                src = pending[0]
            if dst is None:
                dst = pending[1]
            if vni is None:
                vni = pending[2]
        if vni is not None and vni != vector[0]:
            vector = (vni,) + vector[1:]
        return _imaged(self._frame, vector, (src, dst, vni))

    def with_outer_dst(self, dst: int) -> "Packet":
        """New packet with the outer destination IP rewritten (NC delivery)."""
        if self._vector is not None:
            return self._repatched(None, dst, None)
        return self.with_outer(self.ip.replace_dst(dst), self.vxlan)

    def with_outer_src(self, src: int) -> "Packet":
        if self._vector is not None:
            return self._repatched(src, None, None)
        return self.with_outer(self.ip.replace_src(src), self.vxlan)

    def with_vni(self, vni: int) -> "Packet":
        """New packet with the VXLAN VNI rewritten (peer-VPC hops)."""
        if self._vector is not None:
            return self._repatched(None, None, vni)
        if self.vxlan is None:
            raise HeaderError("not a VXLAN packet")
        return self.with_outer(self.ip, VXLAN(vni=vni, flags=self.vxlan.flags))

    def rewritten(self, outer_src: int, outer_dst: int,
                  vni: Optional[int] = None) -> "Packet":
        """The delivery rewrite, in one copy.

        Equivalent to ``with_vni(vni).with_outer_src(outer_src)
        .with_outer_dst(outer_dst)`` (the VNI kept when *vni* is None) but
        allocates a single new Packet: on an imaged packet three slots
        around the shared frame, otherwise one new header per changed one.
        """
        vector = self._vector
        if vector is not None:
            if vni is None and self._pending is None:  # the per-lane case
                return _imaged(self._frame, vector, (outer_src, outer_dst, None))
            return self._repatched(outer_src, outer_dst, vni)
        vxlan = self.vxlan
        if vni is not None:
            if vxlan is None:
                raise HeaderError("not a VXLAN packet")
            vxlan = VXLAN(vni=vni, flags=vxlan.flags)
        return self.with_outer(self.ip.replace_src_dst(outer_src, outer_dst), vxlan)

    def decap(self) -> "Packet":
        """Strip the VXLAN tunnel, returning the inner frame as a packet."""
        frame = self._frame
        if frame is not None:
            eth, ip, l4, off, _dropped = _read_frame(
                frame, _INNER_OFF, len(frame), "inner frame ")
            return _packet(eth, ip, l4, None, None, frame[off:])
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
        frame = self._frame
        if frame is not None:
            pending = self._pending
            if pending is None:
                return frame
            src, dst, vni = pending
            vector = self._vector
            if src is None:
                src = vector[8]
            if dst is None:
                dst = vector[9]
            if vni is not None and not 0 <= vni < (1 << 24):
                raise HeaderError(f"VNI {vni} out of 24-bit range")  # as VXLAN.pack
            head = frame[:24] + _OUTER_PATCH.pack(
                -(vector[10] + src + dst) % 0xFFFF, src, dst)
            if vni is None:
                return head + frame[34:]
            return head + frame[34:46] + (vni << 8).to_bytes(4, "big") + frame[50:]
        if self.vxlan is not None:
            body = self.vxlan.pack() + self.inner.pack()
        else:
            body = self.payload
        return self.eth.pack() + _pack_ip_and_l4(self.ip, self.l4, body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Packet":
        """Decode a frame held in any buffer (``bytes``, ``bytearray``,
        ``memoryview``) in one pass; the payload is always ``bytes``.

        A canonical VXLAN frame (see :func:`_probe`) is kept as the packet's
        wire image and no header object is built until one is asked for.
        """
        vector = _probe(raw)
        if vector is not None:
            return _imaged(raw if type(raw) is bytes else bytes(raw), vector, None)
        return _packet(*_read_packet(raw))


_HEADER_FIELDS = ("eth", "ip", "l4", "vxlan", "inner", "payload")
_inner_frame = unchecked(InnerFrame)
_packet = unchecked(Packet)
_imaged = unchecked(Packet, only=("_frame", "_vector", "_pending"))
