"""Tests for the VXLAN routing table, including Fig. 2's scenarios."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import Prefix
from repro.tables.errors import MissingEntryError
from repro.tables.vxlan_routing import (
    Resolution,
    RouteAction,
    RoutingLoopError,
    Scope,
    VxlanRoutingTable,
)

VPC_A, VPC_B = 100, 200


def ip(text):
    return int(ipaddress.ip_address(text))


@pytest.fixture
def fig2_table():
    """The exact table contents of the paper's Fig. 2."""
    table = VxlanRoutingTable()
    table.insert(VPC_A, Prefix.parse("192.168.10.0/24"), RouteAction(Scope.LOCAL))
    table.insert(VPC_A, Prefix.parse("192.168.30.0/24"),
                 RouteAction(Scope.PEER, next_hop_vni=VPC_B))
    table.insert(VPC_B, Prefix.parse("192.168.30.0/24"), RouteAction(Scope.LOCAL))
    table.insert(VPC_B, Prefix.parse("192.168.10.0/24"),
                 RouteAction(Scope.PEER, next_hop_vni=VPC_A))
    return table


class TestFig2:
    def test_same_vpc_lookup(self, fig2_table):
        prefix, action = fig2_table.lookup(VPC_A, ip("192.168.10.3"), 4)
        assert action.scope is Scope.LOCAL
        assert str(prefix) == "192.168.10.0/24"

    def test_cross_vpc_resolution(self, fig2_table):
        res = fig2_table.resolve(VPC_A, ip("192.168.30.5"), 4)
        assert res.vni == VPC_B
        assert res.action.scope is Scope.LOCAL
        assert res.hops == 1

    def test_reverse_direction(self, fig2_table):
        res = fig2_table.resolve(VPC_B, ip("192.168.10.2"), 4)
        assert res.vni == VPC_A and res.hops == 1

    def test_no_route(self, fig2_table):
        assert fig2_table.lookup(VPC_A, ip("8.8.8.8"), 4) is None
        with pytest.raises(MissingEntryError):
            fig2_table.resolve(VPC_A, ip("8.8.8.8"), 4)


class TestRouteAction:
    def test_peer_requires_next_hop(self):
        with pytest.raises(ValueError):
            RouteAction(Scope.PEER)

    def test_non_peer_rejects_next_hop(self):
        with pytest.raises(ValueError):
            RouteAction(Scope.LOCAL, next_hop_vni=5)


class TestTableMechanics:
    def test_vni_range_check(self):
        table = VxlanRoutingTable()
        with pytest.raises(ValueError):
            table.insert(1 << 24, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))

    def test_remove_prunes_empty_vni(self):
        table = VxlanRoutingTable()
        p = Prefix.parse("10.0.0.0/8")
        table.insert(5, p, RouteAction(Scope.LOCAL))
        table.remove(5, p)
        assert 5 not in table.vnis()
        with pytest.raises(MissingEntryError):
            table.remove(5, p)

    def test_counts_per_family(self):
        table = VxlanRoutingTable()
        table.insert(1, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        table.insert(1, Prefix.parse("fd00::/8"), RouteAction(Scope.LOCAL))
        table.insert(2, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        assert len(table) == 3
        assert table.count(4) == 2 and table.count(6) == 1

    def test_vni_isolation(self):
        """Identical prefixes in different VPCs do not interfere."""
        table = VxlanRoutingTable()
        table.insert(1, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        table.insert(2, Prefix.parse("10.0.0.0/8"),
                     RouteAction(Scope.PEER, next_hop_vni=1))
        assert table.lookup(1, ip("10.1.1.1"), 4)[1].scope is Scope.LOCAL
        assert table.lookup(2, ip("10.1.1.1"), 4)[1].scope is Scope.PEER

    def test_entries_for_vni(self):
        table = VxlanRoutingTable()
        table.insert(7, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        table.insert(7, Prefix.parse("fd00::/8"), RouteAction(Scope.LOCAL))
        table.insert(8, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        assert len(table.entries_for_vni(7)) == 2

    def test_peer_loop_detected(self):
        table = VxlanRoutingTable()
        p = Prefix.parse("10.0.0.0/8")
        table.insert(1, p, RouteAction(Scope.PEER, next_hop_vni=2))
        table.insert(2, p, RouteAction(Scope.PEER, next_hop_vni=1))
        with pytest.raises(RoutingLoopError):
            table.resolve(1, ip("10.1.1.1"), 4)

    def test_long_chain_resolves(self):
        table = VxlanRoutingTable()
        p = Prefix.parse("10.0.0.0/8")
        for i in range(5):
            table.insert(i, p, RouteAction(Scope.PEER, next_hop_vni=i + 1))
        table.insert(5, p, RouteAction(Scope.LOCAL))
        res = table.resolve(0, ip("10.1.1.1"), 4)
        assert res.vni == 5 and res.hops == 5

    def test_service_scope(self):
        table = VxlanRoutingTable()
        table.insert(1, Prefix.parse("0.0.0.0/0"),
                     RouteAction(Scope.SERVICE, target="snat"))
        res = table.resolve(1, ip("8.8.8.8"), 4)
        assert res.action.scope is Scope.SERVICE and res.action.target == "snat"

    def test_hit_stats(self):
        table = VxlanRoutingTable()
        table.insert(1, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        table.lookup(1, ip("10.0.0.1"), 4)
        table.lookup(1, ip("11.0.0.1"), 4)
        table.lookup(9, ip("10.0.0.1"), 4)
        assert table.lookups == 3 and table.hits == 1


class TestCompositeKeys:
    def test_composite_roundtrip_v4(self):
        table = VxlanRoutingTable()
        table.insert(7, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        routes = table.to_composite_routes()
        assert len(routes) == 1
        network, length, action = routes[0]
        assert length == 24 + 1 + 8
        key = VxlanRoutingTable.composite_key(7, ip("10.1.2.3"), 4)
        width = VxlanRoutingTable.composite_width()
        mask = ((1 << length) - 1) << (width - length)
        assert key & mask == network

    def test_composite_v4_v6_disjoint(self):
        """The AF bit keeps a v4 /8 from matching v6 keys."""
        table = VxlanRoutingTable()
        table.insert(7, Prefix.parse("0.0.0.0/0"), RouteAction(Scope.LOCAL))
        network, length, _ = table.to_composite_routes()[0]
        width = VxlanRoutingTable.composite_width()
        v6_key = VxlanRoutingTable.composite_key(7, 1 << 100, 6)
        mask = ((1 << length) - 1) << (width - length)
        assert v6_key & mask != network

    def test_composite_matches_resolve_through_alpm(self):
        """End-to-end: ALPM over composite keys == per-VNI trie lookups."""
        import random
        from repro.tables.alpm import AlpmTable

        rng = random.Random(41)
        table = VxlanRoutingTable()
        for vni in range(20):
            for s in range(5):
                net = (10 << 24) + (rng.randrange(1 << 12) << 12)
                table.insert(vni, Prefix.of(net, 20, 4), RouteAction(Scope.LOCAL), replace=True)
        alpm = AlpmTable.build(
            VxlanRoutingTable.composite_width(), table.to_composite_routes(),
            bucket_capacity=8,
        )
        for _ in range(400):
            vni = rng.randrange(20)
            addr = (10 << 24) + rng.randrange(1 << 24)
            direct = table.lookup(vni, addr, 4)
            via_alpm = alpm.lookup(VxlanRoutingTable.composite_key(vni, addr, 4))
            assert (direct is None) == (via_alpm is None)
            if direct is not None:
                assert via_alpm[2] == direct[1]


class TestKeyedGet:
    """``get`` is the exact-match read the two-phase commit takes its
    pre-images from: it must agree with a dict built from ``items()``
    after any mix of inserts, replaces and removes."""

    ACTIONS = (RouteAction(Scope.LOCAL), RouteAction(Scope.PEER, next_hop_vni=7),
               RouteAction(Scope.INTERNET, target="igw"))
    # Small key space so replaces, removes of present keys and emptied
    # tries all occur: 3 VNIs x (4 IPv4 + 3 IPv6 prefixes).
    PREFIXES = tuple(Prefix.parse(text) for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/9", "10.1.2.3/32",
        "::/0", "fd00::/8", "fd00::1/128"))

    def test_absent_vni_family_and_prefix(self):
        table = VxlanRoutingTable()
        table.insert(VPC_A, Prefix.parse("10.0.0.0/8"), RouteAction(Scope.LOCAL))
        assert table.get(VPC_A, Prefix.parse("10.0.0.0/8")) == RouteAction(Scope.LOCAL)
        assert table.get(VPC_B, Prefix.parse("10.0.0.0/8")) is None   # absent VNI
        assert table.get(VPC_A, Prefix.parse("fd00::/8")) is None      # absent family
        assert table.get(VPC_A, Prefix.parse("10.0.0.0/9")) is None    # interior node
        assert table.get(VPC_A, Prefix.parse("10.0.0.0/7")) is None    # valueless ancestor
        assert table.get(1 << 24, Prefix.parse("10.0.0.0/8")) is None  # never installable
        assert table.lookups == 0  # a control-plane read, not a data-plane lookup

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("insert", "remove")),
                              st.integers(min_value=1, max_value=3),
                              st.sampled_from(PREFIXES),
                              st.sampled_from(ACTIONS)), max_size=40))
    def test_get_equals_dict_of_items(self, ops):
        table = VxlanRoutingTable()
        model = {}
        for kind, vni, prefix, action in ops:
            if kind == "insert":
                table.insert(vni, prefix, action, replace=True)
                model[(vni, prefix)] = action
            elif (vni, prefix) in model:
                assert table.remove(vni, prefix) == model.pop((vni, prefix))
            else:
                with pytest.raises(MissingEntryError):
                    table.remove(vni, prefix)
            assert {(v, p): a for v, p, a in table.items()} == model
            for vni_q in (1, 2, 3, 4):
                for prefix_q in self.PREFIXES:
                    assert table.get(vni_q, prefix_q) == model.get((vni_q, prefix_q))


# -- resolve against a copy of the original loop over a linear scan ----------

def reference_resolve(routes, counts, vni, address, version, max_hops=8):
    """The PEER walk as first written (a ``seen`` set from the first hop,
    the range check on every hop), over a linear-scan LPM."""
    from repro.tables.alpm import oracle_lookup

    seen = set()
    current = vni
    hops = 0
    while True:
        if current in seen or hops > max_hops:
            raise RoutingLoopError(
                f"PEER chain loop/overflow from vni={vni} at vni={current}"
            )
        seen.add(current)
        counts["lookups"] += 1
        if not 0 <= current < (1 << 24):
            raise ValueError(f"VNI {current} out of 24-bit range")
        flat = [(p.network, p.prefix_len, (p, a))
                for (v, p), a in routes.items() if v == current and p.version == version]
        hit = oracle_lookup(flat, address, 32 if version == 4 else 128)
        if hit is None:
            raise MissingEntryError(f"no route for vni={current} addr={address:#x}")
        counts["hits"] += 1
        prefix, action = hit[2]
        if action.scope is not Scope.PEER:
            return Resolution(vni=current, prefix=prefix, action=action, hops=hops)
        current = action.next_hop_vni
        hops += 1


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _same(result):
    return (type(result), str(result)) if isinstance(result, Exception) else result


class TestResolveMatchesTheOriginalLoop:
    """``resolve``/``resolve_many`` over random PEER graphs — cycles,
    chains longer than ``max_hops``, missing hops, next hops outside the
    24-bit range — agree with the reference loop on the result, the
    exception type and message, and the ``lookups``/``hits`` counters."""

    PREFIXES = tuple(Prefix.parse(text) for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32",
        "::/0", "fd00::/8", "fd00:1::/32", "fd00:1::5/128"))
    ADDRESSES = tuple((ip(text), version) for text, version in (
        ("10.1.2.3", 4), ("10.1.2.4", 4), ("10.1.9.9", 4), ("10.9.9.9", 4),
        ("11.0.0.1", 4), ("fd00:1::5", 6), ("fd00:2::1", 6), ("fe80::1", 6)))
    NEXT_HOPS = (1, 2, 3, 4, 5, 7, 1 << 24)
    ACTIONS = st.one_of(
        st.sampled_from((RouteAction(Scope.LOCAL), RouteAction(Scope.INTERNET, target="igw"),
                         RouteAction(Scope.SERVICE, target="snat"))),
        st.sampled_from(NEXT_HOPS).map(lambda n: RouteAction(Scope.PEER, next_hop_vni=n)))
    QUERIES = st.tuples(st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 7, 1 << 24)),
                        st.sampled_from(ADDRESSES))

    @settings(max_examples=150, deadline=None)
    @given(routes=st.dictionaries(st.tuples(st.integers(1, 5), st.sampled_from(PREFIXES)),
                                  ACTIONS, max_size=25),
           queries=st.lists(QUERIES, min_size=1, max_size=12),
           max_hops=st.sampled_from((-1, 0, 1, 2, 3, 8)))
    def test_random_peer_graphs(self, routes, queries, max_hops):
        table = VxlanRoutingTable()
        for (vni, prefix), action in routes.items():
            table.insert(vni, prefix, action)
        counts = {"lookups": 0, "hits": 0}
        flat = [(vni, address, version) for vni, (address, version) in queries]
        for vni, address, version in flat:
            got = _outcome(lambda: table.resolve(vni, address, version, max_hops))
            want = _outcome(lambda: reference_resolve(routes, counts, vni, address,
                                                      version, max_hops))
            assert got == want
            assert (table.lookups, table.hits) == (counts["lookups"], counts["hits"])
        in_range = [q for q in flat if 0 <= q[0] < 1 << 24]

        def reference_many():
            out = []
            for query in in_range:
                try:
                    out.append(reference_resolve(routes, counts, *query, max_hops))
                except (MissingEntryError, RoutingLoopError) as exc:
                    out.append(exc)
            return out
        # A next hop outside the 24-bit range raises out of the whole batch.
        got = _outcome(lambda: [_same(r) for r in table.resolve_many(in_range, max_hops)])
        assert got == _outcome(lambda: [_same(r) for r in reference_many()])
        assert (table.lookups, table.hits) == (counts["lookups"], counts["hits"])
