"""Golden wire vectors for the ``repro.net`` codec.

Hex frames for outer v4/v6 x VXLAN/plain x inner v4/v6 x UDP/TCP/other
protocol with non-default ``ident``/``flags``/``tos``/``flow_label``, plus
IPv4-option, TCP-option, unmodelled-field and wrong-length frames. Each
vector pins the decoded fields, the re-encoded bytes, ``wire_length()``,
the outcome of **every** truncation (run-length encoded: ``(first cut
length, HeaderError message or None when the prefix still parses)``) and
of corrupting each version/IHL/data-offset/I-flag/ethertype byte.

The expectations were printed by the slicing codec this one replaced, so
they are the reference the single-pass parser is held to, byte for byte
and message for message. The ``opt-*`` vectors are the exception: the
old codec dropped option bytes but kept the lengths that counted them,
so their decoded lengths and re-encoded bytes were derived by hand.
"""

import copy
import dataclasses
import pickle
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.headers import (
    ETH_LEN,
    IPV4_MIN_LEN,
    IPV6_LEN,
    VXLAN_LEN,
    Ethernet,
    HeaderError,
    IPv4,
    IPv6,
    TCP,
    UDP,
    VXLAN,
)
from repro.dataplane.gateway_logic import inner_flow_key
from repro.net.packet import InnerFrame, Packet, _packet, _read_packet
from repro.workloads.traffic import build_vxlan_packet


class Vector(NamedTuple):
    name: str
    frame: str
    packet: Packet
    wire_length: int
    truncated: Tuple[Tuple[int, Optional[str]], ...]
    corrupted: Tuple[Tuple[int, int, Optional[str]], ...]
    wire: Optional[str] = None  # re-encoded bytes when they differ from frame


VECTORS = [
    Vector(
        name="v4-vxlan-v4-udp",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8005312342000111161b00a0000010a00"
            "00fec12312b5003f0000080000000001020002aabbccdd0102aabbccdd020800"
            "452e0021beef40003f11e758c0a80a02c0a80a03045708ae000d1d2c40414243"
            "44"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=83), l4=UDP(src_port=49443, dst_port=4789, length=63, checksum=0), vxlan=VXLAN(vni=258, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=17, ttl=63, tos=46, ident=48879, flags=2, total_length=33), l4=UDP(src_port=1111, dst_port=2222, length=13, checksum=7468), payload=b'@ABCD'), payload=b''),
        wire_length=97,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv4 header'),
            (84, 'truncated UDP header'),
            (92, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, None),
            (63, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (64, 0x55, 'not IPv4 (version=5)'),
            (64, 0x65, 'not IPv4 (version=6)'),
            (64, 0x05, 'not IPv4 (version=0)'),
            (64, 0x44, 'bad IPv4 IHL'),
            (64, 0x40, 'bad IPv4 IHL'),
            (64, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="v4-vxlan-v4-tcp",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8005f12342000111161a40a0000010a00"
            "00fec12312b5004b0000080000000001020002aabbccdd0102aabbccdd020800"
            "452e002dbeef40003f06e757c0a80a02c0a80a0301bbc3cb01020304a0b0c0d0"
            "511210007a7b00004041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=95), l4=UDP(src_port=49443, dst_port=4789, length=75, checksum=0), vxlan=VXLAN(vni=258, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=6, ttl=63, tos=46, ident=48879, flags=2, total_length=45), l4=TCP(src_port=443, dst_port=50123, seq=16909060, ack=2695938256, flags=274, window=4096, checksum=31355), payload=b'@ABCD'), payload=b''),
        wire_length=109,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv4 header'),
            (84, 'truncated TCP header'),
            (104, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, None),
            (63, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (64, 0x55, 'not IPv4 (version=5)'),
            (64, 0x65, 'not IPv4 (version=6)'),
            (64, 0x05, 'not IPv4 (version=0)'),
            (64, 0x44, 'bad IPv4 IHL'),
            (64, 0x40, 'bad IPv4 IHL'),
            (64, 0x4F, 'bad IPv4 IHL'),
            (96, 0x41, 'bad TCP data offset'),
            (96, 0x01, 'bad TCP data offset'),
            (96, 0xF1, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="v4-vxlan-v4-other",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8004b12342000111161b80a0000010a00"
            "00fec12312b500370000080000000001020002aabbccdd0102aabbccdd020800"
            "452e0019beef40003f2fe742c0a80a02c0a80a034041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=75), l4=UDP(src_port=49443, dst_port=4789, length=55, checksum=0), vxlan=VXLAN(vni=258, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=47, ttl=63, tos=46, ident=48879, flags=2, total_length=25), l4=None, payload=b'@ABCD'), payload=b''),
        wire_length=89,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv4 header'),
            (84, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, None),
            (63, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (64, 0x55, 'not IPv4 (version=5)'),
            (64, 0x65, 'not IPv4 (version=6)'),
            (64, 0x05, 'not IPv4 (version=0)'),
            (64, 0x44, 'bad IPv4 IHL'),
            (64, 0x40, 'bad IPv4 IHL'),
            (64, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="v4-vxlan-v6-udp",
        frame=(
            "0c0000000a0b0c0000000b0a080045b80067123420001111619c0a0000010a00"
            "00fec12312b50053000008000000abcdef0002aabbccdd0102aabbccdd0286dd"
            "612abcde000d113dfd000000000000000000000000000105fd00000000000000"
            "00000000000002c7045708ae000d1d2c4041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=103), l4=UDP(src_port=49443, dst_port=4789, length=83, checksum=0), vxlan=VXLAN(vni=11259375, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=17, hop_limit=61, traffic_class=18, flow_label=703710, payload_length=13), l4=UDP(src_port=1111, dst_port=2222, length=13, checksum=7468), payload=b'@ABCD'), payload=b''),
        wire_length=117,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv6 header'),
            (104, 'truncated UDP header'),
            (112, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (63, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (64, 0x41, 'not IPv6 (version=4)'),
            (64, 0x71, 'not IPv6 (version=7)'),
            (64, 0x01, 'not IPv6 (version=0)'),
        ),
    ),
    Vector(
        name="v4-vxlan-v6-tcp",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8007312342000111161900a0000010a00"
            "00fec12312b5005f000008000000abcdef0002aabbccdd0102aabbccdd0286dd"
            "612abcde0019063dfd000000000000000000000000000105fd00000000000000"
            "00000000000002c701bbc3cb01020304a0b0c0d0511210007a7b000040414243"
            "44"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=115), l4=UDP(src_port=49443, dst_port=4789, length=95, checksum=0), vxlan=VXLAN(vni=11259375, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=6, hop_limit=61, traffic_class=18, flow_label=703710, payload_length=25), l4=TCP(src_port=443, dst_port=50123, seq=16909060, ack=2695938256, flags=274, window=4096, checksum=31355), payload=b'@ABCD'), payload=b''),
        wire_length=129,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv6 header'),
            (104, 'truncated TCP header'),
            (124, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (63, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (64, 0x41, 'not IPv6 (version=4)'),
            (64, 0x71, 'not IPv6 (version=7)'),
            (64, 0x01, 'not IPv6 (version=0)'),
            (116, 0x41, 'bad TCP data offset'),
            (116, 0x01, 'bad TCP data offset'),
            (116, 0xF1, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="v4-vxlan-v6-other",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8005f12342000111161a40a0000010a00"
            "00fec12312b5004b000008000000abcdef0002aabbccdd0102aabbccdd0286dd"
            "612abcde00052f3dfd000000000000000000000000000105fd00000000000000"
            "00000000000002c74041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=95), l4=UDP(src_port=49443, dst_port=4789, length=75, checksum=0), vxlan=VXLAN(vni=11259375, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=47, hop_limit=61, traffic_class=18, flow_label=703710, payload_length=5), l4=None, payload=b'@ABCD'), payload=b''),
        wire_length=109,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv6 header'),
            (104, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (63, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (64, 0x41, 'not IPv6 (version=4)'),
            (64, 0x71, 'not IPv6 (version=7)'),
            (64, 0x01, 'not IPv6 (version=0)'),
        ),
    ),
    Vector(
        name="v4-plain-udp",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8001f12342000111161e40a0000010a00"
            "00fe003514e9000bffee010203"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=17, tos=184, ident=4660, flags=1, total_length=31), l4=UDP(src_port=53, dst_port=5353, length=11, checksum=65518), vxlan=None, inner=None, payload=b'\x01\x02\x03'),
        wire_length=45,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="v4-plain-tcp",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8002b12342000110661e30a0000010a00"
            "00fe01bbc3cb01020304a0b0c0d0511210007a7b0000010203"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=6, ttl=17, tos=184, ident=4660, flags=1, total_length=43), l4=TCP(src_port=443, dst_port=50123, seq=16909060, ack=2695938256, flags=274, window=4096, checksum=31355), vxlan=None, inner=None, payload=b'\x01\x02\x03'),
        wire_length=57,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated TCP header'),
            (54, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, 'bad IPv4 IHL'),
            (46, 0x41, 'bad TCP data offset'),
            (46, 0x01, 'bad TCP data offset'),
            (46, 0xF1, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="v4-plain-other",
        frame=(
            "0c0000000a0b0c0000000b0a080045b8001712342000115961a40a0000010a00"
            "00fe010203"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=89, ttl=17, tos=184, ident=4660, flags=1, total_length=23), l4=None, vxlan=None, inner=None, payload=b'\x01\x02\x03'),
        wire_length=37,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="v6-vxlan-v4-udp",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a554321003f112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fec12312b5003f0bad0800"
            "00000001020002aabbccdd0102aabbccdd020800452e0021beef40003f11e758"
            "c0a80a02c0a80a03045708ae000d1d2c4041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=63), l4=UDP(src_port=49443, dst_port=4789, length=63, checksum=2989), vxlan=VXLAN(vni=258, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=17, ttl=63, tos=46, ident=48879, flags=2, total_length=33), l4=UDP(src_port=1111, dst_port=2222, length=13, checksum=7468), payload=b'@ABCD'), payload=b''),
        wire_length=117,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv4 header'),
            (104, 'truncated UDP header'),
            (112, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, None),
            (83, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (84, 0x55, 'not IPv4 (version=5)'),
            (84, 0x65, 'not IPv4 (version=6)'),
            (84, 0x05, 'not IPv4 (version=0)'),
            (84, 0x44, 'bad IPv4 IHL'),
            (84, 0x40, 'bad IPv4 IHL'),
            (84, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="v6-vxlan-v4-tcp",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a554321004b112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fec12312b5004b0bad0800"
            "00000001020002aabbccdd0102aabbccdd020800452e002dbeef40003f06e757"
            "c0a80a02c0a80a0301bbc3cb01020304a0b0c0d0511210007a7b000040414243"
            "44"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=75), l4=UDP(src_port=49443, dst_port=4789, length=75, checksum=2989), vxlan=VXLAN(vni=258, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=6, ttl=63, tos=46, ident=48879, flags=2, total_length=45), l4=TCP(src_port=443, dst_port=50123, seq=16909060, ack=2695938256, flags=274, window=4096, checksum=31355), payload=b'@ABCD'), payload=b''),
        wire_length=129,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv4 header'),
            (104, 'truncated TCP header'),
            (124, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, None),
            (83, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (84, 0x55, 'not IPv4 (version=5)'),
            (84, 0x65, 'not IPv4 (version=6)'),
            (84, 0x05, 'not IPv4 (version=0)'),
            (84, 0x44, 'bad IPv4 IHL'),
            (84, 0x40, 'bad IPv4 IHL'),
            (84, 0x4F, 'bad IPv4 IHL'),
            (116, 0x41, 'bad TCP data offset'),
            (116, 0x01, 'bad TCP data offset'),
            (116, 0xF1, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="v6-vxlan-v4-other",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a5543210037112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fec12312b500370bad0800"
            "00000001020002aabbccdd0102aabbccdd020800452e0019beef40003f2fe742"
            "c0a80a02c0a80a034041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=55), l4=UDP(src_port=49443, dst_port=4789, length=55, checksum=2989), vxlan=VXLAN(vni=258, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=47, ttl=63, tos=46, ident=48879, flags=2, total_length=25), l4=None, payload=b'@ABCD'), payload=b''),
        wire_length=109,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv4 header'),
            (104, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, None),
            (83, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (84, 0x55, 'not IPv4 (version=5)'),
            (84, 0x65, 'not IPv4 (version=6)'),
            (84, 0x05, 'not IPv4 (version=0)'),
            (84, 0x44, 'bad IPv4 IHL'),
            (84, 0x40, 'bad IPv4 IHL'),
            (84, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="v6-vxlan-v6-udp",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a5543210053112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fec12312b500530bad0800"
            "0000abcdef0002aabbccdd0102aabbccdd0286dd612abcde000d113dfd000000"
            "000000000000000000000105fd0000000000000000000000000002c7045708ae"
            "000d1d2c4041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=83), l4=UDP(src_port=49443, dst_port=4789, length=83, checksum=2989), vxlan=VXLAN(vni=11259375, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=17, hop_limit=61, traffic_class=18, flow_label=703710, payload_length=13), l4=UDP(src_port=1111, dst_port=2222, length=13, checksum=7468), payload=b'@ABCD'), payload=b''),
        wire_length=137,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv6 header'),
            (124, 'truncated UDP header'),
            (132, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (83, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (84, 0x41, 'not IPv6 (version=4)'),
            (84, 0x71, 'not IPv6 (version=7)'),
            (84, 0x01, 'not IPv6 (version=0)'),
        ),
    ),
    Vector(
        name="v6-vxlan-v6-tcp",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a554321005f112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fec12312b5005f0bad0800"
            "0000abcdef0002aabbccdd0102aabbccdd0286dd612abcde0019063dfd000000"
            "000000000000000000000105fd0000000000000000000000000002c701bbc3cb"
            "01020304a0b0c0d0511210007a7b00004041424344"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=95), l4=UDP(src_port=49443, dst_port=4789, length=95, checksum=2989), vxlan=VXLAN(vni=11259375, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=6, hop_limit=61, traffic_class=18, flow_label=703710, payload_length=25), l4=TCP(src_port=443, dst_port=50123, seq=16909060, ack=2695938256, flags=274, window=4096, checksum=31355), payload=b'@ABCD'), payload=b''),
        wire_length=149,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv6 header'),
            (124, 'truncated TCP header'),
            (144, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (83, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (84, 0x41, 'not IPv6 (version=4)'),
            (84, 0x71, 'not IPv6 (version=7)'),
            (84, 0x01, 'not IPv6 (version=0)'),
            (136, 0x41, 'bad TCP data offset'),
            (136, 0x01, 'bad TCP data offset'),
            (136, 0xF1, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="v6-vxlan-v6-other",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a554321004b112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fec12312b5004b0bad0800"
            "0000abcdef0002aabbccdd0102aabbccdd0286dd612abcde00052f3dfd000000"
            "000000000000000000000105fd0000000000000000000000000002c740414243"
            "44"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=75), l4=UDP(src_port=49443, dst_port=4789, length=75, checksum=2989), vxlan=VXLAN(vni=11259375, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=47, hop_limit=61, traffic_class=18, flow_label=703710, payload_length=5), l4=None, payload=b'@ABCD'), payload=b''),
        wire_length=129,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv6 header'),
            (124, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (83, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (84, 0x41, 'not IPv6 (version=4)'),
            (84, 0x71, 'not IPv6 (version=7)'),
            (84, 0x01, 'not IPv6 (version=0)'),
        ),
    ),
    Vector(
        name="v6-plain-udp",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a554321000b112120010db8000000010000"
            "000000000a0120010db80000000200000000000000fe003514e9000bffee0102"
            "03"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=11), l4=UDP(src_port=53, dst_port=5353, length=11, checksum=65518), vxlan=None, inner=None, payload=b'\x01\x02\x03'),
        wire_length=65,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
        ),
    ),
    Vector(
        name="v6-plain-tcp",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a5543210017062120010db8000000010000"
            "000000000a0120010db80000000200000000000000fe01bbc3cb01020304a0b0"
            "c0d0511210007a7b0000010203"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=6, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=23), l4=TCP(src_port=443, dst_port=50123, seq=16909060, ack=2695938256, flags=274, window=4096, checksum=31355), vxlan=None, inner=None, payload=b'\x01\x02\x03'),
        wire_length=77,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated TCP header'),
            (74, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
            (66, 0x41, 'bad TCP data offset'),
            (66, 0x01, 'bad TCP data offset'),
            (66, 0xF1, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="v6-plain-other",
        frame=(
            "0c0000000a0b0c0000000b0a86dd6a5543210003592120010db8000000010000"
            "000000000a0120010db80000000200000000000000fe010203"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=89, hop_limit=33, traffic_class=165, flow_label=344865, payload_length=3), l4=None, vxlan=None, inner=None, payload=b'\x01\x02\x03'),
        wire_length=57,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x4A, 'not IPv6 (version=4)'),
            (14, 0x7A, 'not IPv6 (version=7)'),
            (14, 0x0A, 'not IPv6 (version=0)'),
        ),
    ),
    Vector(
        name="opt-outer-ipv4-options-plain-udp",
        frame=(
            "0c0000000a0b0c0000000b0a08004600002400070000401163bf0a0000010a00"
            "00020101010003e807d0000c000061626364"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772162, proto=17, ttl=64, tos=0, ident=7, flags=0, total_length=32), l4=UDP(src_port=1000, dst_port=2000, length=12, checksum=0), vxlan=None, inner=None, payload=b'abcd'),
        wire=(
            "0c0000000a0b0c0000000b0a08004500002000070000401166c40a0000010a00"
            "000203e807d0000c000061626364"
        ),
        wire_length=46,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'bad IPv4 IHL'),
            (38, 'truncated UDP header'),
            (46, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x56, 'not IPv4 (version=5)'),
            (14, 0x66, 'not IPv4 (version=6)'),
            (14, 0x06, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="opt-outer-tcp-options-plain",
        frame=(
            "0c0000000a0b0c0000000b0a0800450000330000000009069dc30a0000010a00"
            "000200509c400000000100000002701802001111000001010100010101007879"
            "7a"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772162, proto=6, ttl=9, tos=0, ident=0, flags=0, total_length=43), l4=TCP(src_port=80, dst_port=40000, seq=1, ack=2, flags=24, window=512, checksum=4369), vxlan=None, inner=None, payload=b'xyz'),
        wire=(
            "0c0000000a0b0c0000000b0a08004500002b0000000009069dcb0a0000010a00"
            "000200509c400000000100000002501802001111000078797a"
        ),
        wire_length=57,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated TCP header'),
            (54, 'bad TCP data offset'),
            (62, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, 'bad IPv4 IHL'),
            (46, 0x40, 'bad TCP data offset'),
            (46, 0x00, 'bad TCP data offset'),
            (46, 0xF0, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="opt-vxlan-inner-ipv4-options",
        frame=(
            "0c0000000a0b0c0000000b0a08004500005800030000401165940a0000010a00"
            "00fec00012b5004400000800000000004d0002aabbccdd0102aabbccdd020800"
            "47000026000000004011df6fc0a80a02c0a80a030101010001010100045708ae"
            "000a00006869"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=64, tos=0, ident=3, flags=0, total_length=80), l4=UDP(src_port=49152, dst_port=4789, length=60, checksum=0), vxlan=VXLAN(vni=77, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=17, ttl=64, tos=0, ident=0, flags=0, total_length=30), l4=UDP(src_port=1111, dst_port=2222, length=10, checksum=0), payload=b'hi'), payload=b''),
        wire=(
            "0c0000000a0b0c0000000b0a080045000050000300004011659c0a0000010a00"
            "00fec00012b5003c00000800000000004d0002aabbccdd0102aabbccdd020800"
            "4500001e000000004011e579c0a80a02c0a80a03045708ae000a00006869"
        ),
        wire_length=94,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv4 header'),
            (84, 'bad IPv4 IHL'),
            (92, 'truncated UDP header'),
            (100, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, None),
            (63, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (64, 0x57, 'not IPv4 (version=5)'),
            (64, 0x67, 'not IPv4 (version=6)'),
            (64, 0x07, 'not IPv4 (version=0)'),
            (64, 0x44, 'bad IPv4 IHL'),
            (64, 0x40, 'bad IPv4 IHL'),
            (64, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
    Vector(
        name="opt-v6-vxlan-inner-tcp-options",
        frame=(
            "0c0000000a0b0c0000000b0a86dd600000000067114020010db8000000010000"
            "000000000a0120010db80000000200000000000000fec00012b5006700000800"
            "000000004e0002aabbccdd0102aabbccdd0286dd6000000000210605fd000000"
            "000000000000000000000105fd0000000000000000000000000002c701bbc3cb"
            "0000000900000008801000642222000001010100010101000101010021"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=34525), ip=IPv6(src=42540766411282592875350729025363380737, dst=42540766411282592893797473099072930046, next_header=17, hop_limit=64, traffic_class=0, flow_label=0, payload_length=91), l4=UDP(src_port=49152, dst_port=4789, length=91, checksum=0), vxlan=VXLAN(vni=78, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=34525), ip=IPv6(src=336294682933583715844663186250927177989, dst=336294682933583715844663186250927178439, next_header=6, hop_limit=5, traffic_class=0, flow_label=0, payload_length=21), l4=TCP(src_port=443, dst_port=50123, seq=9, ack=8, flags=16, window=100, checksum=8738), payload=b'!'), payload=b''),
        wire=(
            "0c0000000a0b0c0000000b0a86dd60000000005b114020010db8000000010000"
            "000000000a0120010db80000000200000000000000fec00012b5005b00000800"
            "000000004e0002aabbccdd0102aabbccdd0286dd6000000000150605fd000000"
            "000000000000000000000105fd0000000000000000000000000002c701bbc3cb"
            "0000000900000008501000642222000021"
        ),
        wire_length=145,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv6 header'),
            (54, 'truncated UDP header'),
            (62, 'truncated VXLAN header'),
            (70, 'truncated Ethernet header'),
            (84, 'truncated IPv6 header'),
            (124, 'truncated TCP header'),
            (144, 'bad TCP data offset'),
            (156, None),
        ),
        corrupted=(
            (12, 0x08, 'ethertype 0x8dd unsupported'),
            (13, 0x06, 'ethertype 0x8606 unsupported'),
            (14, 0x40, 'not IPv6 (version=4)'),
            (14, 0x70, 'not IPv6 (version=7)'),
            (14, 0x00, 'not IPv6 (version=0)'),
            (62, 0x00, 'VXLAN I-flag not set'),
            (62, 0xF7, 'VXLAN I-flag not set'),
            (82, 0x08, 'inner frame ethertype 0x8dd unsupported'),
            (83, 0x06, 'inner frame ethertype 0x8606 unsupported'),
            (84, 0x40, 'not IPv6 (version=4)'),
            (84, 0x70, 'not IPv6 (version=7)'),
            (84, 0x00, 'not IPv6 (version=0)'),
            (136, 0x40, 'bad TCP data offset'),
            (136, 0x00, 'bad TCP data offset'),
            (136, 0xF0, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="opt-vxlan-outer-and-inner-options",
        frame=(
            "0c0000000a0b0c0000000b0a08004600006600000000401162880a0000010a00"
            "00fe01010100c00012b5004e00000800000000004f0002aabbccdd0102aabbcc"
            "dd02080046000030000000004006e271c0a80a02c0a80a030101010000010002"
            "0000000300000004600200050000000001010100"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=64, tos=0, ident=0, flags=0, total_length=90), l4=UDP(src_port=49152, dst_port=4789, length=70, checksum=0), vxlan=VXLAN(vni=79, flags=8), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=6, ttl=64, tos=0, ident=0, flags=0, total_length=40), l4=TCP(src_port=1, dst_port=2, seq=3, ack=4, flags=2, window=5, checksum=0), payload=b''), payload=b''),
        wire=(
            "0c0000000a0b0c0000000b0a08004500005a00000000401165950a0000010a00"
            "00fec00012b5004600000800000000004f0002aabbccdd0102aabbccdd020800"
            "45000028000000004006e57ac0a80a02c0a80a03000100020000000300000004"
            "5002000500000000"
        ),
        wire_length=104,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'bad IPv4 IHL'),
            (38, 'truncated UDP header'),
            (46, 'truncated VXLAN header'),
            (54, 'truncated Ethernet header'),
            (68, 'truncated IPv4 header'),
            (88, 'bad IPv4 IHL'),
            (92, 'truncated TCP header'),
            (112, 'bad TCP data offset'),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x56, 'not IPv4 (version=5)'),
            (14, 0x66, 'not IPv4 (version=6)'),
            (14, 0x06, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (46, 0x00, 'VXLAN I-flag not set'),
            (46, 0xF7, 'VXLAN I-flag not set'),
            (66, 0x08, None),
            (67, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (68, 0x56, 'not IPv4 (version=5)'),
            (68, 0x66, 'not IPv4 (version=6)'),
            (68, 0x06, 'not IPv4 (version=0)'),
            (68, 0x44, 'bad IPv4 IHL'),
            (68, 0x40, 'bad IPv4 IHL'),
            (68, 0x4F, 'bad IPv4 IHL'),
            (104, 0x40, 'bad TCP data offset'),
            (104, 0x00, 'bad TCP data offset'),
            (104, 0xF0, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="lossy-unmodelled-fields",
        frame=(
            "0c0000000a0b0c0000000b0a08004500005c00000000401165930a0000010a00"
            "00fec00012b5004800000caabbcc000050dd02aabbccdd0102aabbccdd020800"
            "4500002a000041234006a455c0a80a02c0a80a03000700080000000500000006"
            "5e120009333344446f6b"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772414, proto=17, ttl=64, tos=0, ident=0, flags=0, total_length=92), l4=UDP(src_port=49152, dst_port=4789, length=72, checksum=0), vxlan=VXLAN(vni=80, flags=12), inner=InnerFrame(eth=Ethernet(dst=2932318461185, src=2932318461186, ethertype=2048), ip=IPv4(src=3232238082, dst=3232238083, proto=6, ttl=64, tos=0, ident=0, flags=2, total_length=42), l4=TCP(src_port=7, dst_port=8, seq=5, ack=6, flags=18, window=9, checksum=13107), payload=b'ok'), payload=b''),
        wire=(
            "0c0000000a0b0c0000000b0a08004500005c00000000401165930a0000010a00"
            "00fec00012b5004800000c0000000000500002aabbccdd0102aabbccdd020800"
            "4500002a000040004006a578c0a80a02c0a80a03000700080000000500000006"
            "50120009333300006f6b"
        ),
        wire_length=106,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, 'truncated VXLAN header'),
            (50, 'truncated Ethernet header'),
            (64, 'truncated IPv4 header'),
            (84, 'truncated TCP header'),
            (104, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, None),
            (42, 0x00, 'VXLAN I-flag not set'),
            (42, 0xF7, 'VXLAN I-flag not set'),
            (62, 0x08, None),
            (63, 0x06, 'inner frame ethertype 0x806 unsupported'),
            (64, 0x55, 'not IPv4 (version=5)'),
            (64, 0x65, 'not IPv4 (version=6)'),
            (64, 0x05, 'not IPv4 (version=0)'),
            (64, 0x44, 'bad IPv4 IHL'),
            (64, 0x40, 'bad IPv4 IHL'),
            (64, 0x4F, 'bad IPv4 IHL'),
            (96, 0x4E, 'bad TCP data offset'),
            (96, 0x0E, 'bad TCP data offset'),
            (96, 0xFE, 'bad TCP data offset'),
        ),
    ),
    Vector(
        name="wrong-stored-lengths",
        frame=(
            "0c0000000a0b0c0000000b0a0800450003e700000000401163040a0000010a00"
            "00020009000a0003aaaa706164706164706164"
        ),
        packet=Packet(eth=Ethernet(dst=13194139535883, src=13194139536138, ethertype=2048), ip=IPv4(src=167772161, dst=167772162, proto=17, ttl=64, tos=0, ident=0, flags=0, total_length=999), l4=UDP(src_port=9, dst_port=10, length=3, checksum=43690), vxlan=None, inner=None, payload=b'padpadpad'),
        wire_length=51,
        truncated=(
            (0, 'truncated Ethernet header'),
            (14, 'truncated IPv4 header'),
            (34, 'truncated UDP header'),
            (42, None),
        ),
        corrupted=(
            (13, 0x06, 'ethertype 0x806 unsupported'),
            (14, 0x55, 'not IPv4 (version=5)'),
            (14, 0x65, 'not IPv4 (version=6)'),
            (14, 0x05, 'not IPv4 (version=0)'),
            (14, 0x44, 'bad IPv4 IHL'),
            (14, 0x40, 'bad IPv4 IHL'),
            (14, 0x4F, 'bad IPv4 IHL'),
        ),
    ),
]

BY_NAME = {v.name: v for v in VECTORS}
OPTION_VECTORS = [v for v in VECTORS if v.name.startswith("opt-")]
vectors = pytest.mark.parametrize("v", VECTORS, ids=[v.name for v in VECTORS])


def outcome(raw):
    """The HeaderError message *raw* raises, or None when it parses. Any
    other exception (``struct.error``, ``IndexError``) propagates."""
    try:
        Packet.from_bytes(raw)
    except HeaderError as exc:
        return str(exc)
    return None


def test_matrix_is_covered():
    names = set(BY_NAME)
    for outer in (4, 6):
        for l4 in ("udp", "tcp", "other"):
            assert f"v{outer}-plain-{l4}" in names
            for inner in (4, 6):
                assert f"v{outer}-vxlan-v{inner}-{l4}" in names
    assert len(OPTION_VECTORS) == 5


@vectors
def test_decoded_fields(v):
    packet = Packet.from_bytes(bytes.fromhex(v.frame))
    assert packet == v.packet
    assert repr(packet) == repr(v.packet)
    assert hash(packet) == hash(v.packet)


@vectors
def test_reencoded_bytes_and_wire_length(v):
    wire = bytes.fromhex(v.wire or v.frame)
    packet = Packet.from_bytes(bytes.fromhex(v.frame))
    assert packet.to_bytes() == wire
    assert packet.wire_length() == v.wire_length == len(wire)
    # What was re-encoded is canonical: it decodes to itself.
    assert Packet.from_bytes(wire).to_bytes() == wire


@vectors
def test_every_truncation(v):
    frame = bytes.fromhex(v.frame)
    assert v.truncated[0][0] == 0
    expected = []
    bounds = [cut for cut, _ in v.truncated[1:]] + [len(frame)]
    for (cut, message), stop in zip(v.truncated, bounds):
        expected += [message] * (stop - cut)
    assert len(expected) == len(frame)
    for cut, message in enumerate(expected):
        assert outcome(frame[:cut]) == message, cut


@vectors
def test_corrupted_discriminator_bytes(v):
    frame = bytes.fromhex(v.frame)
    for pos, value, message in v.corrupted:
        mutated = bytearray(frame)
        mutated[pos] = value
        assert outcome(bytes(mutated)) == message, (pos, value)


@vectors
def test_any_buffer_decodes_to_bytes_payloads(v):
    frame = bytes.fromhex(v.frame)
    for buffer in (bytearray(frame), memoryview(frame), memoryview(bytearray(frame))):
        packet = Packet.from_bytes(buffer)
        assert packet == v.packet
        assert type(packet.payload) is bytes
        assert packet.inner is None or type(packet.inner.payload) is bytes
        hash(packet)
    # The decoded packet does not alias a mutable input.
    mutable = bytearray(frame)
    packet = Packet.from_bytes(mutable)
    mutable[-1] ^= 0xFF
    assert packet == v.packet


@vectors
def test_inner_frame_and_header_unpackers_share_the_parser(v):
    frame = bytes.fromhex(v.frame)
    eth, rest = Ethernet.unpack(frame)
    assert eth == v.packet.eth and rest == frame[ETH_LEN:]
    if v.name.startswith("opt-"):
        return
    ip, rest = type(v.packet.ip).unpack(rest)
    assert ip == v.packet.ip
    if v.packet.l4 is not None:
        l4, rest = type(v.packet.l4).unpack(rest)
        assert l4 == v.packet.l4
    if v.packet.vxlan is not None:
        vxlan, rest = VXLAN.unpack(rest)
        assert vxlan == v.packet.vxlan
        assert InnerFrame.unpack(rest) == v.packet.inner
        assert InnerFrame.unpack(bytearray(rest)) == v.packet.inner
    else:
        assert rest == v.packet.payload


def stored_lengths_match(frame: bytes, packet: Packet):
    """Every stored length of *packet* equals the bytes that follow its
    header in *frame*, and every IPv4 header checksum verifies."""
    def check(ip, l4, off):
        if ip.version == 4:
            assert ip.total_length == len(frame) - off
            assert verify_checksum(frame[off:off + IPV4_MIN_LEN])
            off += IPV4_MIN_LEN
        else:
            off += IPV6_LEN
            assert ip.payload_length == len(frame) - off
        if isinstance(l4, UDP):
            assert l4.length == len(frame) - off
        return off + (l4.WIRE_LEN if l4 is not None else 0)

    off = check(packet.ip, packet.l4, ETH_LEN)
    if packet.inner is not None:
        off += VXLAN_LEN + ETH_LEN
        check(packet.inner.ip, packet.inner.l4, off)


@pytest.mark.parametrize("v", OPTION_VECTORS, ids=[v.name for v in OPTION_VECTORS])
def test_dropped_options_leave_consistent_lengths(v):
    frame = bytes.fromhex(v.frame)
    once = Packet.from_bytes(frame).to_bytes()
    assert len(once) < len(frame)
    q = Packet.from_bytes(once)
    stored_lengths_match(once, q)
    assert q.to_bytes() == once
    assert Packet.from_bytes(q.to_bytes()) == q


def test_dropped_options_never_drive_a_length_negative():
    # total_length 2 with IHL 6: nothing sane to subtract from.
    v = BY_NAME["opt-outer-ipv4-options-plain-udp"]
    frame = bytearray.fromhex(v.frame)
    frame[16:18] = b"\x00\x02"
    packet = Packet.from_bytes(bytes(frame))
    assert packet.ip.total_length == 0
    wire = packet.to_bytes()
    stored_lengths_match(wire, Packet.from_bytes(wire))


u8, u16, u32 = (st.integers(0, (1 << bits) - 1) for bits in (8, 16, 32))


@given(src=u32, dst=u32, proto=u8, ttl=u8, tos=u8, ident=u16,
       flags=st.integers(0, 7), total_length=u16, payload_len=st.integers(0, 65515))
def test_ipv4_arithmetic_checksum_verifies(src, dst, proto, ttl, tos, ident,
                                           flags, total_length, payload_len):
    header = IPv4(src, dst, proto, ttl, tos, ident, flags, total_length)
    raw = header.pack(payload_len)
    assert len(raw) == IPV4_MIN_LEN and verify_checksum(raw)
    decoded, rest = IPv4.unpack(raw)
    assert rest == b""
    assert decoded == dataclasses.replace(
        header, total_length=total_length or IPV4_MIN_LEN + payload_len)


@vectors
def test_deepcopy_and_pickle_roundtrip(v):
    packet = Packet.from_bytes(bytes.fromhex(v.frame))
    for clone in (copy.deepcopy(packet), copy.copy(packet),
                  pickle.loads(pickle.dumps(packet)),
                  pickle.loads(pickle.dumps(packet, protocol=2))):
        assert clone == packet and hash(clone) == hash(packet)
        assert clone.to_bytes() == packet.to_bytes()


def test_headers_are_frozen_and_slotted():
    packet = BY_NAME["v4-vxlan-v6-tcp"].packet
    for obj in (packet, packet.eth, packet.ip, packet.l4, packet.vxlan,
                packet.inner, packet.inner.ip, packet.inner.l4):
        assert not hasattr(obj, "__dict__")
        name = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        assert dataclasses.replace(obj) == obj
    assert dataclasses.replace(packet.ip, ttl=1).ttl == 1
    assert packet.ip.version == 4 and packet.inner.ip.version == 6


# -- the wire image against the eager reader ----------------------------------
#
# ``Packet.from_bytes`` keeps the frame of a canonical VXLAN packet and builds
# header objects on first touch; ``eager`` is the reader every other frame
# still takes. Whatever bytes come in, the two must be indistinguishable.

#: Golden vectors whose frame is canonical (kept as a wire image); every other
#: vector decodes eagerly. Pinned by name so the canonical set cannot drift.
IMAGED = {
    "v4-vxlan-v4-udp", "v4-vxlan-v4-tcp", "v4-vxlan-v4-other",
    "v4-vxlan-v6-udp", "v4-vxlan-v6-tcp", "v4-vxlan-v6-other",
}

TRAFFIC_FRAMES = [
    build_vxlan_packet(vni=vni, src_ip=src, dst_ip=dst, version=version,
                       payload=payload).to_bytes()
    for vni, src, dst, version, payload in (
        (7, 0x0A000001, 0x0A000002, 4, b""),
        (0xFFFFFF, 0xC0A80001, 0xC0A800FE, 4, b"x" * 64),
        (9, (0xFD00 << 112) | 1, (0xFD00 << 112) | 2, 6, b"payload"),
    )
]
BASE_FRAMES = [bytes.fromhex(v.frame) for v in VECTORS] + TRAFFIC_FRAMES


def eager(raw) -> Packet:
    return _packet(*_read_packet(raw))


def is_imaged(packet: Packet) -> bool:
    return packet._frame is not None


def attempt(call):
    """``call()``'s value, or the HeaderError it raised as ``(type, message)``."""
    try:
        return call()
    except HeaderError as exc:
        return (HeaderError, str(exc))


#: Offsets of the bytes the canonical definition reads (ethertypes, version
#: and length fields, fragment words, checksums, the VXLAN port, flags and
#: reserved bytes, inner L4 lengths, TCP offset/flags and urgent pointer for
#: an inner IPv4 or IPv6 frame); mutations land on these half of the time.
SENSITIVE = (12, 13, 14, 16, 17, 20, 21, 23, 24, 25, 36, 37, 38, 39, 42, 43, 44,
             45, 49, 62, 63, 64, 66, 67, 68, 69, 70, 71, 73, 74, 75, 88, 89, 96,
             97, 102, 103, 108, 109, 116, 117, 122, 123)


def refresh_ipv4_checksum(frame: bytearray, off: int) -> None:
    """Make the 20 bytes at *off* sum like a valid IPv4 header again, so a
    mutated field is judged on its own and not by the checksum it broke."""
    if len(frame) >= off + IPV4_MIN_LEN:
        frame[off + 10:off + 12] = b"\0\0"
        frame[off + 10:off + 12] = internet_checksum(
            bytes(frame[off:off + IPV4_MIN_LEN])).to_bytes(2, "big")


@st.composite
def damaged_frames(draw):
    frame = bytearray(draw(st.sampled_from(BASE_FRAMES)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.one_of(st.sampled_from(SENSITIVE),
                             st.integers(0, len(frame) - 1))) % len(frame)
        kind = draw(st.sampled_from(("zero", "zero-word", "ones", "random", "bit")))
        if kind == "zero":
            frame[pos] = 0
        elif kind == "zero-word":
            frame[pos & ~1:(pos & ~1) + 2] = b"\0\0"[:len(frame) - (pos & ~1)]
        elif kind == "ones":
            frame[pos] = 0xFF
        elif kind == "random":
            frame[pos] = draw(u8)
        else:
            frame[pos] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()):
        refresh_ipv4_checksum(frame, ETH_LEN)
        refresh_ipv4_checksum(frame, 64)
    if draw(st.booleans()):
        del frame[draw(st.integers(0, len(frame))):]
    return bytes(frame)


vnis = st.one_of(st.integers(0, (1 << 24) - 1), st.just(1 << 24))
rewrites = st.lists(st.one_of(
    st.tuples(st.just("with_outer_src"), u32),
    st.tuples(st.just("with_outer_dst"), u32),
    st.tuples(st.just("with_vni"), vnis),
    st.tuples(st.just("rewritten"), u32, u32, st.one_of(st.none(), vnis)),
), max_size=4)


def apply(packet: Packet, steps):
    for name, *args in steps:
        packet = getattr(packet, name)(*args)
    return packet


def test_golden_vectors_are_pinned_imaged_or_eager():
    assert {v.name for v in VECTORS
            if is_imaged(Packet.from_bytes(bytes.fromhex(v.frame)))} == IMAGED
    assert all(is_imaged(Packet.from_bytes(f)) for f in TRAFFIC_FRAMES)


def check_image_agrees_with_eager(frame: bytes, steps, clones: bool = True) -> None:
    want = attempt(lambda: eager(frame))
    assert attempt(lambda: Packet.from_bytes(frame)) == want
    if not isinstance(want, Packet):
        return
    # Bytes and the vector accessors first, on a packet whose header slots are
    # still unset, then everything that builds the objects.
    got = Packet.from_bytes(frame)
    assert got.to_bytes() == want.to_bytes()
    assert got.wire_length() == want.wire_length() == len(want.to_bytes())
    assert got.is_vxlan == want.is_vxlan
    for name in ("vni", "inner_dst", "inner_version"):
        assert (attempt(lambda: getattr(got, name))
                == attempt(lambda: getattr(want, name)))
    if want.is_vxlan:
        assert inner_flow_key(got) == inner_flow_key(want)
    assert attempt(got.decap) == attempt(want.decap)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert dataclasses.replace(got) == want
    for clone in (copy.deepcopy(got), pickle.loads(pickle.dumps(got)),
                  pickle.loads(pickle.dumps(Packet.from_bytes(frame)))) if clones else ():
        assert clone == want and clone.to_bytes() == want.to_bytes()

    # Rewrites and chains of them: equal packets and equal bytes, whichever
    # is asked for first.
    want_out = attempt(lambda: apply(want, steps))
    for bytes_first in (True, False):
        got_out = attempt(lambda: apply(Packet.from_bytes(frame), steps))
        if not isinstance(want_out, Packet):
            assert got_out == want_out
            continue
        if bytes_first:
            assert attempt(got_out.to_bytes) == attempt(want_out.to_bytes)
        assert got_out.wire_length() == want_out.wire_length()
        assert attempt(lambda: got_out.vni) == attempt(lambda: want_out.vni)
        assert got_out == want_out and hash(got_out) == hash(want_out)
        assert attempt(got_out.to_bytes) == attempt(want_out.to_bytes)
        if clones:
            clone = pickle.loads(pickle.dumps(got_out))
            assert clone == want_out
            assert attempt(clone.to_bytes) == attempt(want_out.to_bytes)


@settings(max_examples=400, deadline=None)
@given(frame=damaged_frames(), steps=rewrites)
def test_image_agrees_with_the_eager_reader(frame, steps):
    check_image_agrees_with_eager(frame, steps)


@pytest.mark.parametrize("base", [bytes.fromhex(BY_NAME[name].frame)
                                  for name in sorted(IMAGED)] + TRAFFIC_FRAMES[1:])
def test_every_single_field_mutation_of_a_canonical_frame(base):
    """Hypothesis rarely lands the one mutation a single probe condition
    guards, so sweep them: every header byte of every canonical base frame
    zeroed, set, bit-flipped and zeroed as a 16-bit word, with the IPv4
    checksums left broken and refreshed, then rewritten both ways."""
    steps = [("with_vni", 0xABCDEF), ("rewritten", 0x0A0000FE, 0x0B000001, None)]
    header_end = len(base) - len(Packet.from_bytes(base).inner.payload)
    for pos in range(header_end):
        values = {0, 0xFF, *(base[pos] ^ (1 << bit) for bit in range(8))}
        frames = [base[:pos] + bytes([value]) + base[pos + 1:] for value in values]
        frames.append(base[:pos & ~1] + b"\0\0" + base[(pos & ~1) + 2:])
        for frame in frames:
            check_image_agrees_with_eager(frame, steps[:1], clones=False)
            mended = bytearray(frame)
            refresh_ipv4_checksum(mended, ETH_LEN)
            refresh_ipv4_checksum(mended, 64)
            check_image_agrees_with_eager(bytes(mended), steps, clones=False)


@given(frame=damaged_frames())
def test_image_never_aliases_a_mutable_buffer(frame):
    want = attempt(lambda: eager(frame))
    for buffer in (bytearray(frame), memoryview(bytearray(frame))):
        got = attempt(lambda: Packet.from_bytes(buffer))
        assert got == want
        if isinstance(got, Packet):
            for i in range(len(buffer)):
                buffer[i] ^= 0xFF
            assert got.to_bytes() == want.to_bytes() and got == want
            assert type(got.to_bytes()) is bytes and type(got.payload) is bytes


def test_out_of_range_vni_raises_the_vxlan_pack_message():
    frame = TRAFFIC_FRAMES[0]
    for packet in (Packet.from_bytes(frame), eager(frame)):
        bad = packet.with_vni(1 << 24)
        assert bad.vni == 1 << 24
        with pytest.raises(HeaderError, match="VNI 16777216 out of 24-bit range"):
            bad.to_bytes()
        with pytest.raises(HeaderError, match="VNI 16777216 out of 24-bit range"):
            packet.rewritten(1, 2, 1 << 24).to_bytes()
