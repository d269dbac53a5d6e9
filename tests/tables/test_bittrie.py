"""Tests for the generic-width LPM trie."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tables.bittrie import GenericLpmTrie
from repro.tables.errors import DuplicateEntryError, MissingEntryError


def make_prefix(width):
    """Strategy for a valid (network, length) pair in a width-bit space."""
    return st.integers(min_value=0, max_value=width).flatmap(
        lambda length: st.tuples(
            st.integers(min_value=0, max_value=(1 << length) - 1 if length else 0).map(
                lambda head: head << (width - length) if length else 0
            ),
            st.just(length),
        )
    )


class TestBasics:
    def test_insert_lookup(self):
        trie = GenericLpmTrie(8)
        trie.insert(0b10000000, 1, "wide")
        trie.insert(0b10100000, 3, "narrow")
        assert trie.lookup(0b10111111) == (0b10100000, 3, "narrow")
        assert trie.lookup(0b10011111) == (0b10000000, 1, "wide")
        assert trie.lookup(0b01000000) is None

    def test_default_route(self):
        trie = GenericLpmTrie(8)
        trie.insert(0, 0, "default")
        assert trie.lookup(0xFF) == (0, 0, "default")

    def test_full_length_entry(self):
        trie = GenericLpmTrie(8)
        trie.insert(0xAB, 8, "host")
        assert trie.lookup(0xAB)[2] == "host"
        assert trie.lookup(0xAC) is None

    def test_duplicate_raises(self):
        trie = GenericLpmTrie(8)
        trie.insert(0x80, 1, "a")
        with pytest.raises(DuplicateEntryError):
            trie.insert(0x80, 1, "b")

    def test_replace(self):
        trie = GenericLpmTrie(8)
        trie.insert(0x80, 1, "a")
        trie.insert(0x80, 1, "b", replace=True)
        assert trie.get(0x80, 1) == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = GenericLpmTrie(8)
        trie.insert(0x80, 1, "a")
        trie.insert(0xC0, 2, "b")
        assert trie.remove(0xC0, 2) == "b"
        assert trie.lookup(0xC5)[2] == "a"
        assert len(trie) == 1

    def test_remove_missing(self):
        trie = GenericLpmTrie(8)
        with pytest.raises(MissingEntryError):
            trie.remove(0x80, 1)

    def test_remove_intermediate_node_without_value(self):
        trie = GenericLpmTrie(8)
        trie.insert(0xC0, 4, "deep")
        with pytest.raises(MissingEntryError):
            trie.remove(0xC0, 2)

    def test_host_bits_rejected(self):
        trie = GenericLpmTrie(8)
        with pytest.raises(ValueError):
            trie.insert(0x81, 1, "bad")

    def test_out_of_range_length(self):
        trie = GenericLpmTrie(8)
        with pytest.raises(ValueError):
            trie.insert(0, 9, "bad")

    def test_contains(self):
        trie = GenericLpmTrie(8)
        trie.insert(0x80, 1, "a")
        assert trie.contains(0x80, 1)
        assert not trie.contains(0xC0, 2)

    def test_items_sorted_by_trie_order(self):
        trie = GenericLpmTrie(8)
        trie.insert(0xC0, 2, "b")
        trie.insert(0x80, 1, "a")
        trie.insert(0, 0, "root")
        items = list(trie.items())
        assert items[0] == (0, 0, "root")
        assert len(items) == 3

    def test_covering_entries(self):
        trie = GenericLpmTrie(8)
        trie.insert(0, 0, "root")
        trie.insert(0x80, 1, "l1")
        trie.insert(0xC0, 3, "l3")
        covering = trie.covering_entries(0xC0, 4)
        assert [c[2] for c in covering] == ["root", "l1", "l3"]

    def test_covering_stops_at_missing_branch(self):
        trie = GenericLpmTrie(8)
        trie.insert(0, 0, "root")
        covering = trie.covering_entries(0x40, 6)
        assert [c[2] for c in covering] == ["root"]

    def test_pruning_after_remove(self):
        trie = GenericLpmTrie(16)
        trie.insert(0x8000, 12, "x")
        trie.remove(0x8000, 12)
        # Root has no children left.
        assert trie._root.children == [None, None]


class TestPropertyVsLinearScan:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(make_prefix(16), min_size=1, max_size=40, unique=True),
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=30),
    )
    def test_lookup_matches_linear_scan(self, prefixes, keys):
        width = 16
        trie = GenericLpmTrie(width)
        table = {}
        for i, (network, length) in enumerate(prefixes):
            trie.insert(network, length, i, replace=True)
            table[(network, length)] = i

        def scan(key):
            best = None
            for (network, length), value in table.items():
                mask = ((1 << length) - 1) << (width - length) if length else 0
                if key & mask == network:
                    if best is None or length > best[1]:
                        best = (network, length, value)
            return best

        for key in keys:
            assert trie.lookup(key) == scan(key)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(make_prefix(12), min_size=1, max_size=30, unique=True))
    def test_insert_remove_roundtrip(self, prefixes):
        trie = GenericLpmTrie(12)
        for i, (network, length) in enumerate(prefixes):
            trie.insert(network, length, i, replace=True)
        inserted = dict(((n, l), v) for n, l, v in trie.items())
        for (network, length), value in inserted.items():
            assert trie.remove(network, length) == value
        assert len(trie) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(make_prefix(12), min_size=1, max_size=30, unique=True))
    def test_items_returns_exactly_inserted(self, prefixes):
        trie = GenericLpmTrie(12)
        expected = {}
        for i, (network, length) in enumerate(prefixes):
            trie.insert(network, length, i, replace=True)
            expected[(network, length)] = i
        got = {(n, l): v for n, l, v in trie.items()}
        assert got == expected


def recursive_items(trie):
    """The pre-PR-14 ``items()``: one nested generator per trie level.
    Kept here as the order reference — snapshots, audit logs and
    recovery sync all observe this order."""

    def walk(node, path, depth):
        if node.has_value:
            network = path << (trie.width - depth) if depth < trie.width else path
            yield network, depth, node.value
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                yield from walk(child, (path << 1) | bit, depth + 1)

    yield from walk(trie._root, 0, 0)


class TestItemsOrder:
    def test_preorder_zero_branch_first(self):
        trie = GenericLpmTrie(4)
        for network, length in ((0b1000, 1), (0b0000, 0), (0b0100, 2),
                                (0b0111, 4), (0b1100, 2), (0b0000, 3)):
            trie.insert(network, length, (network, length))
        assert [(n, l) for n, l, _v in trie.items()] == [
            (0b0000, 0), (0b0000, 3), (0b0100, 2), (0b0111, 4),
            (0b1000, 1), (0b1100, 2)]

    def test_empty_trie(self):
        assert list(GenericLpmTrie(32).items()) == []

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((8, 32, 128)).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(st.tuples(make_prefix(width), st.booleans()), max_size=40))))
    def test_same_sequence_as_the_recursive_walk(self, case):
        width, ops = case
        trie = GenericLpmTrie(width)
        for step, ((network, length), insert) in enumerate(ops):
            if insert:
                trie.insert(network, length, step, replace=True)
            elif trie.contains(network, length):
                trie.remove(network, length)
            assert list(trie.items()) == list(recursive_items(trie))
        assert len(list(trie.items())) == len(trie)
