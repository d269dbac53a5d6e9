"""IP address and prefix primitives.

All addresses are stored as plain Python integers for speed: forwarding
tables in this project perform millions of lookups, and constructing
:mod:`ipaddress` objects per packet is an order of magnitude slower than
integer arithmetic. The classes here are thin, immutable wrappers used at
API boundaries; hot paths pass the raw ``int`` around.

Conventions
-----------
* IPv4 addresses are ints in ``[0, 2**32)``, IPv6 in ``[0, 2**128)``.
* A *version* is the literal ``4`` or ``6``.
* A prefix is ``(address, prefix_len)`` with the host bits zeroed.
"""

from __future__ import annotations

import ipaddress
from typing import Iterator, Tuple, Union

IPV4_BITS = 32
IPV6_BITS = 128

_V4_MAX = (1 << IPV4_BITS) - 1
_V6_MAX = (1 << IPV6_BITS) - 1


def bits_for_version(version: int) -> int:
    """Return the address width in bits for IP *version* (4 or 6)."""
    if version == 4:
        return IPV4_BITS
    if version == 6:
        return IPV6_BITS
    raise ValueError(f"unknown IP version: {version!r}")


def parse_ip(text: str) -> Tuple[int, int]:
    """Parse dotted-quad or colon-hex *text* into ``(value, version)``."""
    addr = ipaddress.ip_address(text)
    return int(addr), addr.version


def format_ip(value: int, version: int) -> str:
    """Format integer *value* as the canonical textual IP address."""
    if version == 4:
        if not 0 <= value <= _V4_MAX:
            raise ValueError(f"address {value:#x} out of range for IPv4")
        return (f"{value >> 24}.{(value >> 16) & 0xFF}."
                f"{(value >> 8) & 0xFF}.{value & 0xFF}")
    if version == 6:
        return str(ipaddress.IPv6Address(value))
    raise ValueError(f"unknown IP version: {version!r}")


def mask_for(prefix_len: int, version: int) -> int:
    """Return the network mask integer for *prefix_len* bits."""
    bits = bits_for_version(version)
    if not 0 <= prefix_len <= bits:
        raise ValueError(f"prefix length {prefix_len} out of range for IPv{version}")
    if prefix_len == 0:
        return 0
    return ((1 << prefix_len) - 1) << (bits - prefix_len)


def network_of(value: int, prefix_len: int, version: int) -> int:
    """Zero the host bits of *value* under *prefix_len*."""
    return value & mask_for(prefix_len, version)


def ip_in_prefix(value: int, net: int, prefix_len: int, version: int) -> bool:
    """True when address *value* falls inside ``net/prefix_len``."""
    return (value & mask_for(prefix_len, version)) == net


class IPAddress:
    """An immutable IP address (either family), int-backed.

    >>> IPAddress.parse("192.168.10.2").version
    4
    >>> int(IPAddress.parse("::1"))
    1
    """

    __slots__ = ("value", "version")

    def __init__(self, value: int, version: int):
        bits = bits_for_version(version)
        if not 0 <= value < (1 << bits):
            raise ValueError(f"address {value:#x} out of range for IPv{version}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "version", version)

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("IPAddress is immutable")

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        value, version = parse_ip(text)
        return cls(value, version)

    @classmethod
    def v4(cls, text_or_int: Union[str, int]) -> "IPAddress":
        if isinstance(text_or_int, str):
            return cls.parse(text_or_int)
        return cls(text_or_int, 4)

    @classmethod
    def v6(cls, text_or_int: Union[str, int]) -> "IPAddress":
        if isinstance(text_or_int, str):
            return cls.parse(text_or_int)
        return cls(text_or_int, 6)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, IPAddress):
            return self.value == other.value and self.version == other.version
        return NotImplemented

    def __lt__(self, other: "IPAddress") -> bool:
        return (self.version, self.value) < (other.version, other.value)

    def __hash__(self) -> int:
        return hash((self.version, self.value))

    def __str__(self) -> str:
        return format_ip(self.value, self.version)

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"

    @property
    def bits(self) -> int:
        return bits_for_version(self.version)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.bits // 8, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IPAddress":
        if len(raw) == 4:
            return cls(int.from_bytes(raw, "big"), 4)
        if len(raw) == 16:
            return cls(int.from_bytes(raw, "big"), 6)
        raise ValueError(f"expected 4 or 16 bytes, got {len(raw)}")


class Prefix:
    """An immutable IP prefix ``network/len`` (either family).

    Host bits must be zero; use :meth:`of` to normalise an arbitrary
    address into its covering prefix.

    >>> str(Prefix.parse("192.168.10.0/24"))
    '192.168.10.0/24'
    >>> Prefix.parse("10.0.0.0/8").contains_ip(IPAddress.parse("10.1.2.3").value)
    True
    """

    __slots__ = ("network", "prefix_len", "version")

    def __init__(self, network: int, prefix_len: int, version: int):
        bits = bits_for_version(version)
        if not 0 <= prefix_len <= bits:
            raise ValueError(f"prefix length {prefix_len} out of range for IPv{version}")
        if network & ~mask_for(prefix_len, version):
            raise ValueError("host bits set in prefix network address")
        if not 0 <= network < (1 << bits):
            raise ValueError("network address out of range")
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "prefix_len", prefix_len)
        object.__setattr__(self, "version", version)

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("Prefix is immutable")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        # Canonical IPv4 text (what ``str(prefix)`` writes and journal
        # keys hold) is read with ints. Anything that does not round-trip
        # exactly — IPv6, leading zeros, netmask forms, host bits — goes
        # to ``ipaddress`` unchanged, so accepts and errors stay its own.
        try:
            addr, _, length = text.partition("/")
            a, b, c, d = map(int, addr.split("."))
            n = int(length)
        except (AttributeError, TypeError, ValueError):  # not text, or not this form
            pass
        else:
            # The round trip leaves only plain decimal numbers or a sign.
            network = a << 24 | b << 16 | c << 8 | d
            if (f"{a}.{b}.{c}.{d}/{n}" == text and "-" not in text
                    and a | b | c | d <= 255 and n <= 32
                    and not network & (_V4_MAX >> n)):
                return cls(network, n, 4)
        net = ipaddress.ip_network(text, strict=True)
        return cls(int(net.network_address), net.prefixlen, net.version)

    @classmethod
    def of(cls, value: int, prefix_len: int, version: int) -> "Prefix":
        """Build the prefix covering *value*, zeroing host bits."""
        return cls(network_of(value, prefix_len, version), prefix_len, version)

    @classmethod
    def host(cls, addr: IPAddress) -> "Prefix":
        """The /32 or /128 prefix for a single host."""
        return cls(addr.value, addr.bits, addr.version)

    @property
    def bits(self) -> int:
        return bits_for_version(self.version)

    @property
    def mask(self) -> int:
        return mask_for(self.prefix_len, self.version)

    def contains_ip(self, value: int) -> bool:
        """True when integer address *value* is inside this prefix."""
        return (value & self.mask) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when *other* is equal to or more specific than this prefix."""
        return (
            other.version == self.version
            and other.prefix_len >= self.prefix_len
            and (other.network & self.mask) == self.network
        )

    def key_bits(self) -> Tuple[int, int]:
        """The left-aligned key bits and their count, for trie insertion."""
        return self.network >> (self.bits - self.prefix_len) if self.prefix_len else 0, self.prefix_len

    def hosts(self, limit: int = 1 << 20) -> Iterator[int]:
        """Iterate host addresses in the prefix (bounded by *limit*)."""
        size = 1 << (self.bits - self.prefix_len)
        for offset in range(min(size, limit)):
            yield self.network + offset

    def __eq__(self, other) -> bool:
        if isinstance(other, Prefix):
            return (
                self.network == other.network
                and self.prefix_len == other.prefix_len
                and self.version == other.version
            )
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        return (self.version, self.network, self.prefix_len) < (
            other.version,
            other.network,
            other.prefix_len,
        )

    def __hash__(self) -> int:
        return hash((self.version, self.network, self.prefix_len))

    def __str__(self) -> str:
        return f"{format_ip(self.network, self.version)}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
