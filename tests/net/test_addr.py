"""Tests for repro.net.addr."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import (
    IPAddress,
    Prefix,
    bits_for_version,
    format_ip,
    ip_in_prefix,
    mask_for,
    network_of,
    parse_ip,
)


class TestParseFormat:
    def test_parse_v4(self):
        assert parse_ip("192.168.10.2") == ((192 << 24) | (168 << 16) | (10 << 8) | 2, 4)

    def test_parse_v6(self):
        value, version = parse_ip("::1")
        assert value == 1 and version == 6

    def test_roundtrip_v4(self):
        assert format_ip(parse_ip("10.1.1.11")[0], 4) == "10.1.1.11"

    def test_roundtrip_v6(self):
        assert format_ip(parse_ip("fd00::2")[0], 6) == "fd00::2"

    def test_bad_version(self):
        with pytest.raises(ValueError):
            bits_for_version(5)
        with pytest.raises(ValueError):
            format_ip(0, 7)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_v4_int_roundtrip(self, value):
        assert parse_ip(format_ip(value, 4)) == (value, 4)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_v6_int_roundtrip(self, value):
        assert parse_ip(format_ip(value, 6)) == (value, 6)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_v4_text_is_ipaddress_text(self, value):
        # format_ip builds the dotted quad arithmetically; journal
        # payloads and snapshot keys carry this text, so it must stay
        # exactly what ipaddress prints.
        assert format_ip(value, 4) == str(ipaddress.IPv4Address(value))
        prefix_len = value % 33
        network = value >> (32 - prefix_len) << (32 - prefix_len)
        assert str(Prefix(network, prefix_len, 4)) == \
            str(ipaddress.ip_network((network, prefix_len)))

    def test_v4_corners_and_range_check(self):
        assert format_ip(0, 4) == "0.0.0.0"
        assert format_ip((1 << 32) - 1, 4) == "255.255.255.255"
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError):
                format_ip(bad, 4)
            with pytest.raises(ValueError):
                format_ip(bad if bad < 0 else 1 << 128, 6)


class TestMasks:
    def test_mask_for_24(self):
        assert mask_for(24, 4) == 0xFFFFFF00

    def test_mask_zero(self):
        assert mask_for(0, 4) == 0
        assert mask_for(0, 6) == 0

    def test_mask_full(self):
        assert mask_for(32, 4) == 0xFFFFFFFF
        assert mask_for(128, 6) == (1 << 128) - 1

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            mask_for(33, 4)
        with pytest.raises(ValueError):
            mask_for(-1, 6)

    def test_network_of(self):
        value = parse_ip("192.168.10.77")[0]
        assert network_of(value, 24, 4) == parse_ip("192.168.10.0")[0]

    def test_ip_in_prefix(self):
        net = parse_ip("10.0.0.0")[0]
        assert ip_in_prefix(parse_ip("10.200.3.4")[0], net, 8, 4)
        assert not ip_in_prefix(parse_ip("11.0.0.1")[0], net, 8, 4)


class TestIPAddress:
    def test_parse_and_str(self):
        addr = IPAddress.parse("192.168.10.2")
        assert str(addr) == "192.168.10.2"
        assert addr.version == 4
        assert int(addr) == 0xC0A80A02

    def test_equality_and_hash(self):
        a = IPAddress.v4("10.0.0.1")
        b = IPAddress(0x0A000001, 4)
        assert a == b and hash(a) == hash(b)

    def test_versions_not_equal(self):
        assert IPAddress(1, 4) != IPAddress(1, 6)

    def test_immutable(self):
        addr = IPAddress.v4(1)
        with pytest.raises(AttributeError):
            addr.value = 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            IPAddress(1 << 32, 4)
        with pytest.raises(ValueError):
            IPAddress(-1, 6)

    def test_bytes_roundtrip(self):
        addr = IPAddress.parse("fd00::1:2")
        assert IPAddress.from_bytes(addr.to_bytes()) == addr

    def test_from_bytes_bad_length(self):
        with pytest.raises(ValueError):
            IPAddress.from_bytes(b"\x00" * 5)

    def test_ordering(self):
        assert IPAddress.v4("1.0.0.0") < IPAddress.v4("2.0.0.0")
        assert IPAddress.v4("255.255.255.255") < IPAddress.v6("::1")


class TestPrefix:
    def test_parse_and_str(self):
        prefix = Prefix.parse("192.168.10.0/24")
        assert str(prefix) == "192.168.10.0/24"
        assert prefix.prefix_len == 24

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(parse_ip("192.168.10.1")[0], 24, 4)

    def test_of_normalises(self):
        prefix = Prefix.of(parse_ip("192.168.10.77")[0], 24, 4)
        assert str(prefix) == "192.168.10.0/24"

    def test_host_prefix(self):
        addr = IPAddress.parse("10.1.1.11")
        assert Prefix.host(addr).prefix_len == 32

    def test_contains_ip(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains_ip(parse_ip("10.255.0.1")[0])
        assert not prefix.contains_ip(parse_ip("11.0.0.1")[0])

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_contains_prefix_cross_family(self):
        assert not Prefix.parse("10.0.0.0/8").contains_prefix(Prefix.parse("fd00::/8"))

    def test_default_route(self):
        prefix = Prefix.parse("0.0.0.0/0")
        assert prefix.contains_ip(0) and prefix.contains_ip((1 << 32) - 1)

    def test_hosts_iteration(self):
        hosts = list(Prefix.parse("192.168.0.0/30").hosts())
        assert len(hosts) == 4
        assert hosts[0] == parse_ip("192.168.0.0")[0]

    def test_hosts_limit(self):
        assert len(list(Prefix.parse("10.0.0.0/8").hosts(limit=10))) == 10

    def test_ordering_and_hash(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        assert a < b
        assert hash(a) != hash(b)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_of_always_valid(self, value, plen):
        prefix = Prefix.of(value, plen, 4)
        assert prefix.contains_ip(value)

    @given(
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.integers(min_value=0, max_value=128),
        st.integers(min_value=0, max_value=(1 << 128) - 1),
    )
    def test_contains_consistent_with_mask_math_v6(self, value, plen, probe):
        prefix = Prefix.of(value, plen, 6)
        expected = (probe & mask_for(plen, 6)) == prefix.network
        assert prefix.contains_ip(probe) == expected

    def test_key_bits(self):
        bits, length = Prefix.parse("128.0.0.0/1").key_bits()
        assert (bits, length) == (1, 1)
        bits, length = Prefix.parse("0.0.0.0/0").key_bits()
        assert (bits, length) == (0, 0)


def _reference_parse(text):
    """``Prefix.parse`` as ``ipaddress`` alone would do it."""
    net = ipaddress.ip_network(text, strict=True)
    return Prefix(int(net.network_address), net.prefixlen, net.version)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # rejected by ipaddress itself, message and all
        return type(exc), str(exc)


_octet = st.one_of(
    st.integers(min_value=0, max_value=300).map(str),
    st.sampled_from(["00", "01", "010", "-0", "-1", "+1", " 1", "1 ", "1_0",
                     "٣", "１", "", "0x1", "4294967296", "9" * 30]),
)
_length = st.one_of(
    st.integers(min_value=-1, max_value=40).map(str),
    st.sampled_from(["08", "+8", "-0", " 8", "", "255.255.0.0", "0.0.255.255",
                     "٨", "8/8", "x"]),
)
_v4_like = st.builds(
    lambda octets, slash, length: ".".join(octets) + (f"/{length}" if slash else ""),
    st.lists(_octet, min_size=1, max_size=5), st.booleans(), _length)
_canonical_v4 = st.builds(
    lambda value, plen: f"{format_ip(value, 4)}/{plen}",
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32))


class TestPrefixParseDifferential:
    """The canonical-IPv4 fast path in ``Prefix.parse`` against
    ``ipaddress``: the same ``Prefix`` or the same exception (type and
    message — whatever the fast path declines, ``ipaddress`` decides)."""

    @given(st.one_of(_canonical_v4, _v4_like, st.text(max_size=24)))
    def test_same_prefix_or_same_exception_type(self, text):
        assert _outcome(Prefix.parse, text) == _outcome(_reference_parse, text)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1),
           st.integers(min_value=0, max_value=128))
    def test_ipv6_goes_to_ipaddress(self, value, plen):
        text = str(Prefix.of(value, plen, 6))
        assert Prefix.parse(text) == _reference_parse(text)

    def test_non_canonical_forms_keep_ipaddress_errors(self):
        for text in ("10.0.0.1/8", "010.0.0.0/8", "10.0.0.0/33", "256.0.0.0/8",
                     "-1.0.0.0/8", "10.0.0.0/-1", "10.0.0/8"):
            outcome = _outcome(Prefix.parse, text)
            assert outcome[0] is ValueError, text
            assert outcome == _outcome(_reference_parse, text)
        assert Prefix.parse("10.0.0.0/255.0.0.0") == Prefix.parse("10.0.0.0/8")
