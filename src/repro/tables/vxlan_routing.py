"""The VXLAN routing table (§2.1, Fig. 2).

Maps ``(VNI, inner dst IP)`` by longest-prefix match to a *scope*:

* ``LOCAL`` — the destination VM is in this VPC; continue to the VM-NC
  mapping table.
* ``PEER`` — the destination belongs to a peer VPC; re-lookup with the
  next-hop VNI until a LOCAL entry is found (Fig. 2's VM-VM across VPCs).
* ``INTERNET`` / ``IDC`` / ``CROSS_REGION`` — leave the region through
  the corresponding uplink.
* ``SERVICE`` — traffic requiring a service the hardware does not run
  (e.g. SNAT); the gateway redirects it to XGW-x86.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from ..net.addr import Prefix
from ..net.headers import unchecked
from .errors import MissingEntryError, TableError
from .geometry import IPV6_BITS, VNI_BITS
from .lpm import LpmTrie


class Scope(Enum):
    """Where a routed packet should go next."""

    LOCAL = "local"
    PEER = "peer"
    INTERNET = "internet"
    IDC = "idc"
    CROSS_REGION = "cross-region"
    SERVICE = "service"


@dataclass(frozen=True)
class RouteAction:
    """The action part of a VXLAN routing entry."""

    scope: Scope
    next_hop_vni: Optional[int] = None  # for PEER
    target: Optional[str] = None  # uplink/service identifier

    def __post_init__(self):
        if self.scope is Scope.PEER and self.next_hop_vni is None:
            raise ValueError("PEER routes require next_hop_vni")
        if self.scope is not Scope.PEER and self.next_hop_vni is not None:
            raise ValueError("next_hop_vni only valid for PEER routes")


@dataclass(frozen=True, slots=True)
class Resolution:
    """Result of following PEER chains to a terminal route."""

    vni: int  # the VNI whose entry terminated the walk
    prefix: Prefix
    action: RouteAction
    hops: int  # number of PEER indirections followed


_resolution = unchecked(Resolution)
_PEER = Scope.PEER


class RoutingLoopError(TableError):
    """Raised when PEER next-hops cycle or exceed the hop budget."""


def _check_vni(vni: int) -> None:
    if not 0 <= vni < (1 << VNI_BITS):
        raise ValueError(f"VNI {vni} out of 24-bit range")


class VxlanRoutingTable:
    """LPM routing table keyed by (VNI, inner destination IP).

    >>> table = VxlanRoutingTable()
    >>> table.insert(10, Prefix.parse("192.168.10.0/24"), RouteAction(Scope.LOCAL))
    >>> table.lookup(10, int(__import__("ipaddress").ip_address("192.168.10.2")), 4)[1].scope
    <Scope.LOCAL: 'local'>
    """

    def __init__(self, name: str = "vxlan-routing"):
        self.name = name
        self._tries: Dict[Tuple[int, int], LpmTrie[RouteAction]] = {}
        self.lookups = 0
        self.hits = 0
        #: Monotonic mutation counter: bumped on every insert/remove so
        #: flow-cache entries that captured an older generation go stale
        #: (see :mod:`repro.dataplane.flowcache`).
        self.generation = 0

    def _trie(self, vni: int, version: int, create: bool) -> Optional[LpmTrie[RouteAction]]:
        _check_vni(vni)
        key = (vni, version)
        trie = self._tries.get(key)
        if trie is None and create:
            trie = self._tries[key] = LpmTrie(version)
        return trie

    def insert(self, vni: int, prefix: Prefix, action: RouteAction, replace: bool = False) -> None:
        """Install a route for *vni*."""
        self._trie(vni, prefix.version, create=True).insert(prefix, action, replace)
        self.generation += 1

    def remove(self, vni: int, prefix: Prefix) -> RouteAction:
        """Withdraw a route."""
        trie = self._trie(vni, prefix.version, create=False)
        if trie is None:
            raise MissingEntryError(f"vni={vni} {prefix}")
        action = trie.remove(prefix)
        if len(trie) == 0:
            del self._tries[(vni, prefix.version)]
        self.generation += 1
        return action

    def get(self, vni: int, prefix: Prefix) -> Optional[RouteAction]:
        """The action installed at exactly ``(vni, prefix)`` — the
        exact-match twin of :meth:`VmNcTable.lookup`, one dict probe.
        None for an absent VNI, family or prefix.

        >>> table = VxlanRoutingTable()
        >>> table.insert(10, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        >>> table.get(10, Prefix.parse("10.0.0.0/8")).scope.value
        'local'
        >>> table.get(10, Prefix.parse("10.0.0.0/9")), table.get(11, Prefix.parse("10.0.0.0/8"))
        (None, None)
        """
        trie = self._tries.get((vni, prefix.version))
        if trie is None:
            return None
        try:
            return trie.get(prefix)
        except MissingEntryError:
            return None

    def lookup(self, vni: int, address: int, version: int) -> Optional[Tuple[Prefix, RouteAction]]:
        """One longest-prefix match step (no PEER chasing)."""
        self.lookups += 1
        trie = self._tries.get((vni, version))
        if trie is None:
            _check_vni(vni)
            return None
        hit = trie.lookup(address)
        if hit is not None:
            self.hits += 1
        return hit

    def resolve(self, vni: int, address: int, version: int, max_hops: int = 8) -> Resolution:
        """Follow PEER next-hop VNIs until a terminal scope (Fig. 2).

        Raises :class:`RoutingLoopError` on cycles or missing routes along
        the chain raise :class:`MissingEntryError`. Each hop counts as one
        :meth:`lookup`; a walk that follows no PEER hop builds no set.
        """
        tries = self._tries
        seen = None  # VNIs already walked, built at the first PEER hop
        current = vni
        hops = 0
        while True:
            if hops > max_hops or (seen is not None and current in seen):
                raise RoutingLoopError(
                    f"PEER chain loop/overflow from vni={vni} at vni={current}"
                )
            self.lookups += 1
            trie = tries.get((current, version))
            if trie is None:
                _check_vni(current)
                hit = None
            else:
                hit = trie.lookup(address)
            if hit is None:
                raise MissingEntryError(f"no route for vni={current} addr={address:#x}")
            self.hits += 1
            prefix, action = hit
            if action.scope is not _PEER:
                return _resolution(current, prefix, action, hops)
            if seen is None:
                seen = {current}
            else:
                seen.add(current)
            current = action.next_hop_vni
            hops += 1

    def resolve_many(self, queries, max_hops: int = 8) -> list:
        """Resolve each ``(vni, address, version)`` query, returning
        :class:`Resolution` objects with failures returned *in place* as
        the exception instances :meth:`resolve` would raise — the batch
        compiler memoizes negative decisions too, so a missing route
        must not abort the rest of the burst.

        >>> table = VxlanRoutingTable()
        >>> table.insert(10, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        >>> done = table.resolve_many([(10, 0x0A000001, 4), (11, 0x0A000001, 4)])
        >>> done[0].action.scope.value, type(done[1]).__name__
        ('local', 'MissingEntryError')
        """
        resolve = self.resolve
        out = []
        append = out.append
        for vni, address, version in queries:
            try:
                append(resolve(vni, address, version, max_hops))
            except (MissingEntryError, RoutingLoopError) as exc:
                append(exc)
        return out

    # -- bulk access ------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(trie) for trie in self._tries.values())

    def count(self, version: int) -> int:
        """Route count for one address family."""
        return sum(len(t) for (_vni, ver), t in self._tries.items() if ver == version)

    def vnis(self) -> List[int]:
        """All VNIs with at least one route."""
        return sorted({vni for vni, _ver in self._tries})

    def items(self) -> Iterator[Tuple[int, Prefix, RouteAction]]:
        """All (vni, prefix, action) routes."""
        for (vni, _version), trie in self._tries.items():
            for prefix, action in trie.items():
                yield vni, prefix, action

    def entries_for_vni(self, vni: int) -> List[Tuple[Prefix, RouteAction]]:
        """Routes belonging to one VNI (both families) — the split unit."""
        out: List[Tuple[Prefix, RouteAction]] = []
        for version in (4, 6):
            trie = self._tries.get((vni, version))
            if trie is not None:
                out.extend(trie.items())
        return out

    def to_composite_routes(self, expand_v4: bool = True) -> List[Tuple[int, int, RouteAction]]:
        """Flatten to (network, length, action) in the pooled composite
        key space ``VNI(24) || AF(1) || address(128)``.

        IPv4 addresses are left-aligned in the 128-bit field (the paper's
        "expand to 128-bit" pooling), so prefix lengths carry over.
        """
        width_addr = 1 + IPV6_BITS
        out: List[Tuple[int, int, RouteAction]] = []
        for vni, prefix, action in self.items():
            af = 0 if prefix.version == 4 else 1
            if prefix.version == 4:
                addr_part = prefix.network << (IPV6_BITS - 32)
            else:
                addr_part = prefix.network
            network = (vni << width_addr) | (af << IPV6_BITS) | addr_part
            length = VNI_BITS + 1 + prefix.prefix_len
            out.append((network, length, action))
        return out

    @staticmethod
    def composite_key(vni: int, address: int, version: int) -> int:
        """The lookup key matching :meth:`to_composite_routes` layout."""
        af = 0 if version == 4 else 1
        addr_part = address << (IPV6_BITS - 32) if version == 4 else address
        return (vni << (1 + IPV6_BITS)) | (af << IPV6_BITS) | addr_part

    @staticmethod
    def composite_width() -> int:
        return VNI_BITS + 1 + IPV6_BITS
