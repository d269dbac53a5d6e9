"""Tests for the packet model and VXLAN encap/decap."""

import pytest
from hypothesis import given, strategies as st

from repro.net.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    Ethernet,
    HeaderError,
    IPv4,
    IPv6,
    PROTO_UDP,
    TCP,
    UDP,
    VXLAN,
    VXLAN_PORT,
)
from repro.net.packet import InnerFrame, Packet


def make_inner(src=0xC0A80A02, dst=0xC0A80A03, version=4, payload=b"hello"):
    if version == 4:
        ip = IPv4(src=src, dst=dst, proto=PROTO_UDP)
        ethertype = ETHERTYPE_IPV4
    else:
        ip = IPv6(src=src, dst=dst, next_header=PROTO_UDP)
        ethertype = ETHERTYPE_IPV6
    return InnerFrame(
        eth=Ethernet(dst=0x02, src=0x01, ethertype=ethertype),
        ip=ip,
        l4=UDP(src_port=1111, dst_port=2222),
        payload=payload,
    )


def make_vxlan(vni=42, inner=None):
    return Packet.vxlan_encap(
        inner or make_inner(),
        outer_eth=Ethernet(dst=0x0A, src=0x0B, ethertype=ETHERTYPE_IPV4),
        outer_src=0x0A000001,
        outer_dst=0x0A0000FE,
        vni=vni,
    )


class TestInnerFrame:
    def test_roundtrip(self):
        inner = make_inner()
        assert InnerFrame.unpack(inner.pack()).five_tuple() == inner.five_tuple()

    def test_v6_roundtrip(self):
        inner = make_inner(src=1 << 100, dst=2, version=6)
        decoded = InnerFrame.unpack(inner.pack())
        assert decoded.version == 6 and decoded.ip.dst == 2

    def test_five_tuple_without_l4(self):
        inner = InnerFrame(
            eth=Ethernet(1, 2, ETHERTYPE_IPV4),
            ip=IPv4(src=1, dst=2, proto=99),
            l4=None,
            payload=b"",
        )
        assert inner.five_tuple() == (1, 2, 99, 0, 0)


class TestVxlanPacket:
    def test_encap_fields(self):
        packet = make_vxlan(vni=42)
        assert packet.is_vxlan and packet.vni == 42
        assert packet.l4.dst_port == VXLAN_PORT
        assert packet.inner_dst == 0xC0A80A03 and packet.inner_version == 4

    def test_wire_roundtrip(self):
        packet = make_vxlan(vni=7)
        decoded = Packet.from_bytes(packet.to_bytes())
        assert decoded.is_vxlan and decoded.vni == 7
        assert decoded.inner.five_tuple() == packet.inner.five_tuple()
        assert decoded.to_bytes() == packet.to_bytes()

    def test_wire_roundtrip_v6_inner(self):
        packet = make_vxlan(inner=make_inner(src=5, dst=9, version=6))
        decoded = Packet.from_bytes(packet.to_bytes())
        assert decoded.inner_version == 6 and decoded.inner_dst == 9

    def test_outer_dst_rewrite(self):
        packet = make_vxlan().with_outer_dst(0x0A010101)
        assert packet.ip.dst == 0x0A010101
        # Inner untouched.
        assert packet.inner_dst == 0xC0A80A03

    def test_vni_rewrite(self):
        assert make_vxlan(vni=1).with_vni(9).vni == 9

    def test_vni_rewrite_requires_vxlan(self):
        plain = Packet(eth=Ethernet(1, 2, ETHERTYPE_IPV4),
                       ip=IPv4(src=1, dst=2, proto=PROTO_UDP),
                       l4=UDP(1, 2), payload=b"x")
        with pytest.raises(HeaderError):
            plain.with_vni(3)

    def test_with_outer_is_the_single_copy_behind_every_rewrite(self):
        packet = make_vxlan(vni=1)
        ip = packet.ip.replace_src_dst(7, 8)
        vxlan = VXLAN(vni=9)
        out = packet.with_outer(ip, vxlan)
        assert out == packet.with_vni(9).with_outer_src(7).with_outer_dst(8)
        assert out == packet.rewritten(7, 8, vni=9)
        assert out.inner is packet.inner and out.l4 is packet.l4
        plain = packet.decap()
        assert plain.with_outer(plain.ip, None) == plain
        # The one invariant the copy could break is checked.
        with pytest.raises(ValueError):
            packet.with_outer(ip, None)
        with pytest.raises(ValueError):
            plain.with_outer(plain.ip, vxlan)

    def test_decap(self):
        packet = make_vxlan()
        plain = packet.decap()
        assert not plain.is_vxlan
        assert plain.ip.dst == 0xC0A80A03 and plain.payload == b"hello"

    def test_decap_requires_vxlan(self):
        plain = make_vxlan().decap()
        with pytest.raises(HeaderError):
            plain.decap()

    def test_vxlan_requires_udp(self):
        with pytest.raises(ValueError):
            Packet(
                eth=Ethernet(1, 2, ETHERTYPE_IPV4),
                ip=IPv4(src=1, dst=2, proto=6),
                l4=TCP(1, 2),
                vxlan=make_vxlan().vxlan,
                inner=make_inner(),
            )

    def test_vxlan_and_inner_must_pair(self):
        with pytest.raises(ValueError):
            Packet(
                eth=Ethernet(1, 2, ETHERTYPE_IPV4),
                ip=IPv4(src=1, dst=2, proto=PROTO_UDP),
                l4=UDP(1, VXLAN_PORT),
                vxlan=make_vxlan().vxlan,
                inner=None,
            )

    def test_plain_packet_roundtrip(self):
        plain = Packet(
            eth=Ethernet(1, 2, ETHERTYPE_IPV4),
            ip=IPv4(src=3, dst=4, proto=PROTO_UDP),
            l4=UDP(src_port=53, dst_port=5353),
            payload=b"dns",
        )
        decoded = Packet.from_bytes(plain.to_bytes())
        assert not decoded.is_vxlan
        assert decoded.payload == b"dns" and decoded.l4.dst_port == 5353

    def test_wire_length(self):
        packet = make_vxlan()
        # outer eth 14 + ip 20 + udp 8 + vxlan 8 + inner eth 14 + ip 20 +
        # udp 8 + payload 5
        assert packet.wire_length() == 14 + 20 + 8 + 8 + 14 + 20 + 8 + 5

    @given(
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.binary(max_size=64),
    )
    def test_roundtrip_property(self, vni, src, dst, payload):
        packet = make_vxlan(vni=vni, inner=make_inner(src=src, dst=dst, payload=payload))
        decoded = Packet.from_bytes(packet.to_bytes())
        assert decoded.vni == vni
        assert decoded.inner.ip.src == src and decoded.inner.ip.dst == dst
        assert decoded.inner.payload == payload
