"""Generic-width binary trie for longest-prefix matching.

The gateway's interesting keys are *composite*: a 24-bit VNI concatenated
with a 32- or 128-bit address (and, pooled, an address-family bit). This
trie works over any fixed key width; :mod:`repro.tables.alpm` partitions
it, and it is the oracle the per-length levels of
:mod:`repro.tables.lpm` are tested against.

Keys are ``(network, length)`` pairs where *network* is left-aligned in
the *width*-bit key space with host bits zero.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from .errors import DuplicateEntryError, MissingEntryError

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self):
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


def _check_key(network: int, length: int, width: int) -> None:
    if not 0 <= length <= width:
        raise ValueError(f"prefix length {length} out of range for width {width}")
    if not 0 <= network < (1 << width):
        raise ValueError("network out of key range")
    host_mask = (1 << (width - length)) - 1 if length < width else 0
    if network & host_mask:
        raise ValueError("host bits set in prefix network")


class GenericLpmTrie(Generic[V]):
    """Binary trie over a *width*-bit key space.

    >>> t = GenericLpmTrie(8)
    >>> t.insert(0b10000000, 1, "top-half")
    >>> t.insert(0b10100000, 3, "narrow")
    >>> t.lookup(0b10111111)[2]
    'narrow'
    """

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self._root: _Node[V] = _Node()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _path_bits(self, network: int, length: int) -> Iterator[int]:
        for depth in range(length):
            yield (network >> (self.width - 1 - depth)) & 1

    # -- mutation ---------------------------------------------------------

    def insert(self, network: int, length: int, value: V, replace: bool = False) -> None:
        """Insert ``network/length`` -> *value*."""
        _check_key(network, length, self.width)
        node = self._root
        for bit in self._path_bits(network, length):
            if node.children[bit] is None:
                node.children[bit] = _Node()
            node = node.children[bit]
        if node.has_value and not replace:
            raise DuplicateEntryError(f"{network:#x}/{length}")
        if not node.has_value:
            self._count += 1
        node.value = value
        node.has_value = True

    def remove(self, network: int, length: int) -> V:
        """Remove ``network/length``, pruning empty branches."""
        _check_key(network, length, self.width)
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        for bit in self._path_bits(network, length):
            child = node.children[bit]
            if child is None:
                raise MissingEntryError(f"{network:#x}/{length}")
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise MissingEntryError(f"{network:#x}/{length}")
        value = node.value
        node.value = None
        node.has_value = False
        self._count -= 1
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child.has_value or child.children[0] is not None or child.children[1] is not None:
                break
            parent.children[bit] = None
        return value

    # -- queries ----------------------------------------------------------

    def get(self, network: int, length: int) -> V:
        """Exact fetch of ``network/length``."""
        _check_key(network, length, self.width)
        node = self._root
        for bit in self._path_bits(network, length):
            node = node.children[bit]
            if node is None:
                raise MissingEntryError(f"{network:#x}/{length}")
        if not node.has_value:
            raise MissingEntryError(f"{network:#x}/{length}")
        return node.value

    def contains(self, network: int, length: int) -> bool:
        try:
            self.get(network, length)
            return True
        except MissingEntryError:
            return False

    def lookup(self, key: int) -> Optional[Tuple[int, int, V]]:
        """Longest-prefix match of full-width *key*.

        Returns ``(network, length, value)`` or None.
        """
        node = self._root
        best: Optional[Tuple[int, V]] = None
        depth = 0
        if node.has_value:
            best = (0, node.value)
        while depth < self.width:
            bit = (key >> (self.width - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            depth += 1
            if node.has_value:
                best = (depth, node.value)
        if best is None:
            return None
        length, value = best
        mask = ((1 << length) - 1) << (self.width - length) if length else 0
        return key & mask, length, value

    def items(self) -> Iterator[Tuple[int, int, V]]:
        """All ``(network, length, value)`` triples in trie order
        (pre-order, 0-branch first), walked with an explicit stack — one
        generator frame however deep the trie."""
        width = self.width
        stack = [(self._root, 0, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            node, path, depth = pop()
            if node.has_value:
                yield path << (width - depth), depth, node.value
            zero, one = node.children
            if one is not None:
                push((one, (path << 1) | 1, depth + 1))
            if zero is not None:
                push((zero, path << 1, depth + 1))

    def covering_entries(self, network: int, length: int) -> List[Tuple[int, int, V]]:
        """Stored prefixes on the root path down to (and including)
        ``network/length`` — shortest first."""
        _check_key(network, length, self.width)
        out: List[Tuple[int, int, V]] = []
        node = self._root
        depth = 0
        if node.has_value:
            out.append((0, 0, node.value))
        for bit in self._path_bits(network, length):
            node = node.children[bit]
            if node is None:
                return out
            depth += 1
            if node.has_value:
                net = (network >> (self.width - depth)) << (self.width - depth)
                out.append((net, depth, node.value))
        return out
