"""Wire-format header codecs for the protocols the gateway handles.

Each header is a small dataclass with ``pack()``/``unpack()`` implementing
the real wire format, so the simulated data plane operates on byte-accurate
packets (VXLAN per RFC 7348). Only the fields the gateway touches are
modelled as attributes. IPv4 options, TCP options, the IPv4 fragment
offset, the TCP urgent pointer and the VXLAN reserved bytes are dropped on
decode, and a stored length that covered dropped option bytes is reduced
by them, so a well-formed frame with options re-encodes to a well-formed
frame without them.

There is one parser: each header has a ``read_*`` function that decodes it
in place from ``raw[off:end]`` with one precompiled :class:`struct.Struct`
and returns ``(header, next_offset)``. ``Packet.from_bytes`` chains them
over a running offset; the ``unpack()`` classmethods wrap them.

The IP and L4 classes carry their encoded size as ``WIRE_LEN``, so a
frame's wire length is a sum of attributes with no type dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from struct import Struct
from typing import ClassVar, Tuple

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

PROTO_TCP = 6
PROTO_UDP = 17

VXLAN_PORT = 4789
VXLAN_FLAG_VNI_VALID = 0x08

ETH_LEN = 14
IPV4_MIN_LEN = 20
IPV6_LEN = 40
UDP_LEN = 8
TCP_MIN_LEN = 20
VXLAN_LEN = 8

_ETH = Struct("!6s6sH")
_IPV4 = Struct("!BBHHHBBHII")
_IPV6 = Struct("!IHBB16s16s")
_UDP = Struct("!HHHH")
_TCP = Struct("!HHIIHHH2x")  # urgent pointer: ignored on read, zero on write
_VXLAN = Struct("!B3xI")  # reserved bytes likewise

_IPV4_VER_IHL = (4 << 4) | 5

_from_bytes = int.from_bytes


class HeaderError(ValueError):
    """Raised when bytes cannot be decoded as the expected header."""


def unchecked(cls, only=None):
    """A fast positional constructor for the frozen slotted dataclass *cls*.

    A frozen dataclass's generated ``__init__`` stores every field through
    ``object.__setattr__`` (about 0.1 us each, 44 fields in one VXLAN
    frame). The function returned here takes the ``init`` fields in
    declaration order, all required, stores them into an unfrozen twin with
    the same slot layout using plain attribute stores, and retypes the twin
    to *cls* -- an assignment CPython permits exactly because the layouts
    agree. The result is an ordinary, frozen *cls* instance.

    With *only* (field names), the constructor takes exactly those fields
    and leaves every other slot unset.

    It runs no ``__post_init__``: it is for codec-internal callers whose
    own control flow establishes what ``__post_init__`` would check.
    """
    twin = type(cls.__name__ + "Slots", (), {"__slots__": cls.__slots__})
    namespace = {"new": object.__new__, "twin": twin, "cls": cls}
    params, stores = [], []
    for f in fields(cls):
        if f.name in only if only is not None else f.init:
            params.append(f.name)
            stores.append(f"    self.{f.name} = {f.name}")
        elif only is None:
            namespace[f"default_{f.name}"] = f.default
            stores.append(f"    self.{f.name} = default_{f.name}")
    source = "\n".join(
        [f"def unchecked_{cls.__name__}({', '.join(params)}):", "    self = new(twin)"]
        + stores
        + ["    self.__class__ = cls", "    return self"]
    )
    exec(source, namespace)
    return namespace[f"unchecked_{cls.__name__}"]


def parse_mac(text: str) -> int:
    """Parse ``aa:bb:cc:dd:ee:ff`` into a 48-bit integer."""
    parts = text.split(":")
    if len(parts) != 6:
        raise HeaderError(f"bad MAC address: {text!r}")
    return int("".join(parts), 16)


def format_mac(value: int) -> str:
    """Format a 48-bit integer as ``aa:bb:cc:dd:ee:ff``."""
    raw = value.to_bytes(6, "big")
    return ":".join(f"{b:02x}" for b in raw)


@dataclass(frozen=True, slots=True)
class Ethernet:
    """Ethernet II header."""

    dst: int
    src: int
    ethertype: int

    def pack(self) -> bytes:
        return _ETH.pack(
            self.dst.to_bytes(6, "big"), self.src.to_bytes(6, "big"), self.ethertype
        )

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["Ethernet", bytes]:
        hdr, off = read_ethernet(raw, 0, len(raw))
        return hdr, raw[off:]


@dataclass(frozen=True, slots=True)
class IPv4:
    """IPv4 header (no options)."""

    WIRE_LEN: ClassVar[int] = IPV4_MIN_LEN

    src: int
    dst: int
    proto: int
    ttl: int = 64
    tos: int = 0
    ident: int = 0
    flags: int = 0
    total_length: int = 0  # filled by pack() from payload_len when zero

    version: int = field(default=4, init=False, repr=False)

    def pack(self, payload_len: int) -> bytes:
        total = self.total_length or (IPV4_MIN_LEN + payload_len)
        tos, ident, frag = self.tos, self.ident, self.flags << 13
        ttl, proto, src, dst = self.ttl, self.proto, self.src, self.dst
        # The one's-complement sum of the header's 16-bit words is the sum
        # of its fields modulo 0xFFFF (2**16 == 1 there, so the addresses
        # need no splitting), and its complement is the negation.
        csum = -(
            ((_IPV4_VER_IHL << 8) | tos) + total + ident + frag + ((ttl << 8) | proto)
            + src + dst
        ) % 0xFFFF
        return _IPV4.pack(_IPV4_VER_IHL, tos, total, ident, frag, ttl, proto, csum, src, dst)

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["IPv4", bytes]:
        hdr, off = read_ipv4(raw, 0, len(raw))
        return hdr, raw[off:]

    def replace_dst(self, dst: int) -> "IPv4":
        return _ipv4(self.src, dst, self.proto, self.ttl, self.tos, self.ident, self.flags, 0)

    def replace_src(self, src: int) -> "IPv4":
        return _ipv4(src, self.dst, self.proto, self.ttl, self.tos, self.ident, self.flags, 0)

    def replace_src_dst(self, src: int, dst: int) -> "IPv4":
        """Fused src+dst rewrite: one header allocation instead of two."""
        return _ipv4(src, dst, self.proto, self.ttl, self.tos, self.ident, self.flags, 0)

    def decrement_ttl(self) -> "IPv4":
        if self.ttl <= 0:
            raise HeaderError("TTL exceeded")
        return _ipv4(self.src, self.dst, self.proto, self.ttl - 1, self.tos, self.ident, self.flags, 0)


@dataclass(frozen=True, slots=True)
class IPv6:
    """IPv6 fixed header."""

    WIRE_LEN: ClassVar[int] = IPV6_LEN

    src: int
    dst: int
    next_header: int
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0  # filled by pack() when zero

    version: int = field(default=6, init=False, repr=False)

    def pack(self, payload_len: int) -> bytes:
        return _IPV6.pack(
            (6 << 28) | (self.traffic_class << 20) | self.flow_label,
            self.payload_length or payload_len,
            self.next_header,
            self.hop_limit,
            self.src.to_bytes(16, "big"),
            self.dst.to_bytes(16, "big"),
        )

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["IPv6", bytes]:
        hdr, off = read_ipv6(raw, 0, len(raw))
        return hdr, raw[off:]

    @property
    def proto(self) -> int:
        """Alias matching :class:`IPv4` for uniform handling."""
        return self.next_header

    def replace_dst(self, dst: int) -> "IPv6":
        return _ipv6(self.src, dst, self.next_header, self.hop_limit, self.traffic_class, self.flow_label, 0)

    def replace_src(self, src: int) -> "IPv6":
        return _ipv6(src, self.dst, self.next_header, self.hop_limit, self.traffic_class, self.flow_label, 0)

    def replace_src_dst(self, src: int, dst: int) -> "IPv6":
        """Fused src+dst rewrite: one header allocation instead of two."""
        return _ipv6(src, dst, self.next_header, self.hop_limit, self.traffic_class, self.flow_label, 0)

    def decrement_ttl(self) -> "IPv6":
        if self.hop_limit <= 0:
            raise HeaderError("hop limit exceeded")
        return _ipv6(self.src, self.dst, self.next_header, self.hop_limit - 1, self.traffic_class, self.flow_label, 0)


@dataclass(frozen=True, slots=True)
class UDP:
    """UDP header (checksum optional in the simulator: 0 when unset)."""

    WIRE_LEN: ClassVar[int] = UDP_LEN

    src_port: int
    dst_port: int
    length: int = 0  # filled by pack() when zero
    checksum: int = 0

    def pack(self, payload_len: int) -> bytes:
        return _UDP.pack(
            self.src_port, self.dst_port, self.length or (UDP_LEN + payload_len), self.checksum
        )

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["UDP", bytes]:
        hdr, off = read_udp(raw, 0, len(raw))
        return hdr, raw[off:]

    def replace_src_port(self, port: int) -> "UDP":
        return _udp(port, self.dst_port, 0, 0)


@dataclass(frozen=True, slots=True)
class TCP:
    """TCP header (no options)."""

    WIRE_LEN: ClassVar[int] = TCP_MIN_LEN

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    checksum: int = 0

    def pack(self, payload_len: int = 0) -> bytes:
        return _TCP.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            (5 << 12) | (self.flags & 0x1FF),
            self.window,
            self.checksum,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["TCP", bytes]:
        hdr, off = read_tcp(raw, 0, len(raw))
        return hdr, raw[off:]

    def replace_src_port(self, port: int) -> "TCP":
        return _tcp(port, self.dst_port, self.seq, self.ack, self.flags, self.window, 0)


@dataclass(frozen=True, slots=True)
class VXLAN:
    """VXLAN header per RFC 7348: flags byte, 24-bit VNI, reserved fields."""

    vni: int
    flags: int = VXLAN_FLAG_VNI_VALID

    def pack(self) -> bytes:
        if not 0 <= self.vni < (1 << 24):
            raise HeaderError(f"VNI {self.vni} out of 24-bit range")
        return _VXLAN.pack(self.flags, self.vni << 8)

    @classmethod
    def unpack(cls, raw: bytes) -> Tuple["VXLAN", bytes]:
        hdr, off = read_vxlan(raw, 0, len(raw))
        return hdr, raw[off:]


_ethernet = unchecked(Ethernet)
_ipv4 = unchecked(IPv4)
_ipv6 = unchecked(IPv6)
_udp = unchecked(UDP)
_tcp = unchecked(TCP)
_vxlan = unchecked(VXLAN)


# -- the parser: one reader per header ---------------------------------------
#
# ``read_x(raw, off, end)`` decodes the header that starts at ``raw[off]`` of
# a frame that ends at ``raw[end]`` and returns ``(header, next_offset)``.
# *raw* is any buffer ``struct`` accepts. Every length check precedes the
# read it guards, so a short or corrupt frame raises HeaderError and never
# ``struct.error`` or ``IndexError``.


def read_ethernet(raw, off: int, end: int) -> Tuple[Ethernet, int]:
    if end - off < ETH_LEN:
        raise HeaderError("truncated Ethernet header")
    dst, src, ethertype = _ETH.unpack_from(raw, off)
    return _ethernet(_from_bytes(dst, "big"), _from_bytes(src, "big"), ethertype), off + ETH_LEN


def read_ipv4(raw, off: int, end: int) -> Tuple[IPv4, int]:
    if end - off < IPV4_MIN_LEN:
        raise HeaderError("truncated IPv4 header")
    ver_ihl, tos, total, ident, frag, ttl, proto, _csum, src, dst = _IPV4.unpack_from(raw, off)
    next_off = off + IPV4_MIN_LEN
    if ver_ihl != _IPV4_VER_IHL:
        if ver_ihl >> 4 != 4:
            raise HeaderError(f"not IPv4 (version={ver_ihl >> 4})")
        ihl = (ver_ihl & 0xF) * 4
        if ihl < IPV4_MIN_LEN or end - off < ihl:
            raise HeaderError("bad IPv4 IHL")
        # Options are dropped; total_length stops counting them.
        total = max(total - (ihl - IPV4_MIN_LEN), 0)
        next_off = off + ihl
    return _ipv4(src, dst, proto, ttl, tos, ident, frag >> 13, total), next_off


def read_ipv6(raw, off: int, end: int) -> Tuple[IPv6, int]:
    if end - off < IPV6_LEN:
        raise HeaderError("truncated IPv6 header")
    first, plen, next_header, hop_limit, src, dst = _IPV6.unpack_from(raw, off)
    if first >> 28 != 6:
        raise HeaderError(f"not IPv6 (version={first >> 28})")
    hdr = _ipv6(
        _from_bytes(src, "big"),
        _from_bytes(dst, "big"),
        next_header,
        hop_limit,
        (first >> 20) & 0xFF,
        first & 0xFFFFF,
        plen,
    )
    return hdr, off + IPV6_LEN


def read_udp(raw, off: int, end: int) -> Tuple[UDP, int]:
    if end - off < UDP_LEN:
        raise HeaderError("truncated UDP header")
    return _udp(*_UDP.unpack_from(raw, off)), off + UDP_LEN


def read_tcp(raw, off: int, end: int) -> Tuple[TCP, int]:
    """Options are dropped: *next_offset* is past them (the caller
    shortens the enclosing stored lengths)."""
    if end - off < TCP_MIN_LEN:
        raise HeaderError("truncated TCP header")
    src_port, dst_port, seq, ack, offset_flags, window, checksum = _TCP.unpack_from(raw, off)
    data_offset = (offset_flags >> 12) * 4
    if data_offset < TCP_MIN_LEN or end - off < data_offset:
        raise HeaderError("bad TCP data offset")
    hdr = _tcp(src_port, dst_port, seq, ack, offset_flags & 0x1FF, window, checksum)
    return hdr, off + data_offset


def read_vxlan(raw, off: int, end: int) -> Tuple[VXLAN, int]:
    if end - off < VXLAN_LEN:
        raise HeaderError("truncated VXLAN header")
    flags, word = _VXLAN.unpack_from(raw, off)
    if not flags & VXLAN_FLAG_VNI_VALID:
        raise HeaderError("VXLAN I-flag not set")
    return _vxlan(word >> 8, flags), off + VXLAN_LEN
