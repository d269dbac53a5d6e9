"""Tests for the Prefix-typed LPM wrapper."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import Prefix
from repro.tables.errors import DuplicateEntryError, MissingEntryError
from repro.tables.lpm import LpmTrie


def ip(text):
    return int(ipaddress.ip_address(text))


class TestLpmTrie:
    def test_longest_match_wins(self):
        trie = LpmTrie(4)
        trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
        trie.insert(Prefix.parse("10.1.2.0/24"), "finest")
        assert trie.lookup(ip("10.1.2.3"))[1] == "finest"
        assert trie.lookup(ip("10.1.9.9"))[1] == "fine"
        assert trie.lookup(ip("10.9.9.9"))[1] == "coarse"
        assert trie.lookup(ip("11.0.0.1")) is None

    def test_lookup_returns_matched_prefix(self):
        trie = LpmTrie(4)
        trie.insert(Prefix.parse("192.168.10.0/24"), "x")
        prefix, _ = trie.lookup(ip("192.168.10.77"))
        assert str(prefix) == "192.168.10.0/24"

    def test_v6(self):
        trie = LpmTrie(6)
        trie.insert(Prefix.parse("fd00::/8"), "ula")
        trie.insert(Prefix.parse("fd00:1::/32"), "tenant")
        assert trie.lookup(ip("fd00:1::99"))[1] == "tenant"
        assert trie.lookup(ip("fd77::1"))[1] == "ula"

    def test_version_mismatch(self):
        trie = LpmTrie(4)
        with pytest.raises(ValueError):
            trie.insert(Prefix.parse("fd00::/8"), "x")

    def test_contains_cross_version_false(self):
        trie = LpmTrie(4)
        assert Prefix.parse("fd00::/8") not in trie

    def test_duplicate_and_replace(self):
        trie = LpmTrie(4)
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "a")
        with pytest.raises(DuplicateEntryError):
            trie.insert(p, "b")
        trie.insert(p, "b", replace=True)
        assert trie.get(p) == "b"

    def test_remove(self):
        trie = LpmTrie(4)
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "a")
        assert trie.remove(p) == "a"
        with pytest.raises(MissingEntryError):
            trie.get(p)

    def test_items(self):
        trie = LpmTrie(4)
        entries = {Prefix.parse("10.0.0.0/8"): "a", Prefix.parse("192.168.0.0/16"): "b"}
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == entries

    def test_covering_entries(self):
        trie = LpmTrie(4)
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        trie.insert(Prefix.parse("10.0.0.0/8"), "mid")
        covering = trie.covering_entries(Prefix.parse("10.1.0.0/16"))
        assert [v for _p, v in covering] == ["default", "mid"]

    def test_paper_fig2_vxlan_routes(self):
        """The exact routes from Fig. 2 of the paper."""
        trie = LpmTrie(4)
        trie.insert(Prefix.parse("192.168.10.0/24"), ("local", 0))
        trie.insert(Prefix.parse("192.168.30.0/24"), ("peer", "VPC B"))
        # Same-VPC destination.
        assert trie.lookup(ip("192.168.10.3"))[1] == ("local", 0)
        # Cross-VPC destination.
        assert trie.lookup(ip("192.168.30.5"))[1] == ("peer", "VPC B")


@st.composite
def v4_prefixes(draw):
    plen = draw(st.integers(min_value=0, max_value=32))
    value = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    return Prefix.of(value, plen, 4)


class TestLpmProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(v4_prefixes(), min_size=1, max_size=30, unique=True),
        st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=20),
    )
    def test_matches_ipaddress_module(self, prefixes, keys):
        trie = LpmTrie(4)
        networks = {}
        for i, prefix in enumerate(prefixes):
            trie.insert(prefix, i, replace=True)
            networks[ipaddress.ip_network(str(prefix))] = i

        for key in keys:
            addr = ipaddress.ip_address(key)
            candidates = [
                (net.prefixlen, value)
                for net, value in networks.items()
                if addr in net
            ]
            expected = max(candidates)[1] if candidates else None
            got = trie.lookup(key)
            assert (got[1] if got else None) == expected


# -- differential: the per-length levels against the bit trie and a scan ----

def _nested_prefixes(version):
    """Nested more-specifics down two anchors, the default route and host
    routes, so a random op sequence keeps hitting shared paths."""
    bits = 32 if version == 4 else 128
    anchors = [ip("10.1.2.3"), ip("10.1.130.7")] if version == 4 else \
        [ip("fd00:1::5"), ip("fd00:1:8000::9")]
    lengths = (0, 1, 8, 9, 16, 17, 24, bits - 1, bits)
    return sorted({Prefix.of(a, n, version) for a in anchors for n in lengths})


def _probe_keys(prefixes):
    keys = {0}
    for p in prefixes:
        last = p.network | ((1 << (p.bits - p.prefix_len)) - 1)
        keys.update((p.network, last, last + 1 if last + 1 < 1 << p.bits else 0))
    return sorted(keys)


def _as_triple(entry):
    prefix, value = entry
    return prefix.network, prefix.prefix_len, value


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("version", [4, 6])
class TestLevelsMatchTheTrie:
    """Every observable of :class:`LpmTrie` equals a
    :class:`GenericLpmTrie` fed the same operations, and every lookup the
    linear-scan :func:`repro.tables.alpm.oracle_lookup`."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_operation_sequences(self, version, data):
        from repro.tables.alpm import oracle_lookup
        from repro.tables.bittrie import GenericLpmTrie

        pool = _nested_prefixes(version)
        keys = _probe_keys(pool)
        levels, trie = LpmTrie(version), GenericLpmTrie(32 if version == 4 else 128)
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(("insert", "replace", "remove")),
            st.sampled_from(pool), st.integers(0, 3)), max_size=40))
        for step, (kind, prefix, value) in enumerate(ops):
            net, n = prefix.network, prefix.prefix_len
            if kind == "remove":
                got = _outcome(lambda: levels.remove(prefix))
                want = _outcome(lambda: trie.remove(net, n))
            else:
                replace = kind == "replace"
                got = _outcome(lambda: levels.insert(prefix, (step, value), replace))
                want = _outcome(lambda: trie.insert(net, n, (step, value), replace))
            assert got == want
            routes = list(trie.items())
            assert [_as_triple(e) for e in levels.items()] == routes  # order too
            assert len(levels) == len(trie)
            # One probe per stored length: an emptied level is dropped.
            assert len(levels._probes) == len({n for _net, n, _value in routes})
            for key in keys:
                hit = levels.lookup(key)
                hit = None if hit is None else _as_triple(hit)
                assert hit == trie.lookup(key) == oracle_lookup(routes, key, levels.bits)
            for p in pool:
                assert (p in levels) == trie.contains(p.network, p.prefix_len)
                assert _outcome(lambda: levels.get(p)) == \
                    _outcome(lambda: trie.get(p.network, p.prefix_len))
                assert [_as_triple(e) for e in levels.covering_entries(p)] == \
                    trie.covering_entries(p.network, p.prefix_len)

    def test_lookup_returns_the_stored_prefix_object(self, version):
        trie = LpmTrie(version)
        prefix = _nested_prefixes(version)[3]
        trie.insert(prefix, "v")
        assert trie.lookup(prefix.network)[0] is prefix
