"""IP longest-prefix-match table, typed over :class:`~repro.net.addr.Prefix`.

LPM as hashed exact-match probes, the software form of what ALPM does on
the chip (§4): one dict per distinct prefix length, keyed by network, and
a lookup that masks the address once per length, longest first, and
stops at the first hit. A hop costs O(distinct prefix lengths) dict
probes, not one step per address bit. This is the reference LPM used
(a) by the software gateway, (b) as the correctness oracle for the TCAM
and ALPM implementations.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from ..net.addr import Prefix, bits_for_version, mask_for
from .errors import DuplicateEntryError, MissingEntryError

V = TypeVar("V")


class LpmTrie(Generic[V]):
    """Prefix -> value LPM for a single IP version.

    >>> trie = LpmTrie(4)
    >>> trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
    >>> trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
    >>> trie.lookup(int(__import__("ipaddress").ip_address("10.1.2.3")))[1]
    'fine'
    """

    def __init__(self, version: int):
        self.version = version
        self.bits = bits_for_version(version)
        #: prefix length -> {network: (prefix, value)}, the caller's Prefix.
        self._levels: Dict[int, Dict[int, Tuple[Prefix, V]]] = {}
        #: ``(mask, level)`` per non-empty length, longest first.
        self._probes: Tuple[Tuple[int, Dict[int, Tuple[Prefix, V]]], ...] = ()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _check_version(self, prefix: Prefix) -> None:
        if prefix.version != self.version:
            raise ValueError(f"IPv{prefix.version} prefix in IPv{self.version} trie")

    def _reprobe(self) -> None:
        version, levels = self.version, self._levels
        self._probes = tuple((mask_for(length, version), levels[length])
                             for length in sorted(levels, reverse=True))

    def insert(self, prefix: Prefix, value: V, replace: bool = False) -> None:
        """Insert *prefix* -> *value*; raises on duplicates unless *replace*."""
        self._check_version(prefix)
        network, length = prefix.network, prefix.prefix_len
        level = self._levels.get(length)
        if level is None:
            level = self._levels[length] = {}
            self._reprobe()
        if network in level:
            if not replace:
                raise DuplicateEntryError(f"{network:#x}/{length}")
        else:
            self._count += 1
        level[network] = (prefix, value)

    def remove(self, prefix: Prefix) -> V:
        """Remove *prefix*, returning its value."""
        self._check_version(prefix)
        network, length = prefix.network, prefix.prefix_len
        level = self._levels.get(length)
        entry = level.pop(network, None) if level is not None else None
        if entry is None:
            raise MissingEntryError(f"{network:#x}/{length}")
        self._count -= 1
        if not level:
            del self._levels[length]
            self._reprobe()
        return entry[1]

    def get(self, prefix: Prefix) -> V:
        """Exact fetch of the value stored at *prefix*."""
        self._check_version(prefix)
        level = self._levels.get(prefix.prefix_len)
        entry = level.get(prefix.network) if level is not None else None
        if entry is None:
            raise MissingEntryError(f"{prefix.network:#x}/{prefix.prefix_len}")
        return entry[1]

    def __contains__(self, prefix: Prefix) -> bool:
        if prefix.version != self.version:
            return False
        level = self._levels.get(prefix.prefix_len)
        return level is not None and prefix.network in level

    def lookup(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for integer *address*: the stored
        ``(prefix, value)`` of the longest level holding ``address & mask``."""
        for mask, level in self._probes:
            hit = level.get(address & mask)
            if hit is not None:
                return hit
        return None

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All (prefix, value) pairs ordered by ``(network, length)`` —
        the pre-order, 0-branch-first walk of the equivalent binary trie."""
        keyed = sorted((network, length, entry)
                       for length, level in self._levels.items()
                       for network, entry in level.items())
        for _network, _length, entry in keyed:
            yield entry

    def covering_entries(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """Stored prefixes covering *prefix* from above (and itself),
        shortest first."""
        self._check_version(prefix)
        network, version, levels = prefix.network, self.version, self._levels
        out: List[Tuple[Prefix, V]] = []
        for length in sorted(levels):
            if length > prefix.prefix_len:
                break
            entry = levels[length].get(network & mask_for(length, version))
            if entry is not None:
                out.append(entry)
        return out
