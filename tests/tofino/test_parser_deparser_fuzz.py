"""Seeded round-trip fuzz for the tofino parser/deparser pair.

Mirrors ``tests/net/test_headers_fuzz.py``: deterministic via
``repro.sim.rand.derive``, no hypothesis dependency. Four contracts:

(a) every well-formed VXLAN packet the traffic builder can produce
    parses to contiguous extractions and deparses back byte-identically
    (with and without identity rewrites);
(b) each well-known rewrite helper agrees byte-for-byte with the
    reference ``Packet`` codec's ``with_*`` editors — including the
    recomputed IPv4 header checksum;
(c) truncation and corruption never escape as anything other than a
    clean reject/``DeparseError``;
(d) the deparser and the codec's patch of a kept wire image (a canonical
    frame's ``rewritten(...).to_bytes()``) emit the same bytes.
"""

import pytest

from repro.net.packet import Packet
from repro.sim.rand import derive
from repro.tofino.deparser import (
    DeparseError,
    FieldRewrite,
    deparse,
    rewrite_outer_dst,
    rewrite_outer_src,
    rewrite_vni,
)
from repro.tofino.parser import ParserOverrunError, gateway_parse_graph
from repro.workloads.traffic import build_vxlan_packet
from tests.net.test_wire_vectors import BY_NAME, IMAGED

ROUNDS = 150
GRAPH = gateway_parse_graph()


def random_vxlan_packet(rng):
    version = rng.choice((4, 4, 6))  # v4-heavy, like real tenant mixes
    bits = 32 if version == 4 else 128
    return build_vxlan_packet(
        vni=rng.getrandbits(24),
        src_ip=rng.getrandbits(bits),
        dst_ip=rng.getrandbits(bits),
        version=version,
        src_port=rng.randrange(1, 1 << 16),
        dst_port=rng.randrange(1, 1 << 16),
        payload=bytes(rng.getrandbits(8) for _ in range(rng.randrange(24))),
        outer_src=rng.getrandbits(32),
        outer_dst=rng.getrandbits(32),
    )


def test_parse_extractions_are_contiguous():
    rng = derive(2021, "tofino-parse-layout")
    for _ in range(ROUNDS):
        packet = random_vxlan_packet(rng)
        result = GRAPH.parse(packet.to_bytes())
        assert result.accepted, result.reject_reason
        offset = 0
        for extraction in result.extractions:
            assert extraction.offset == offset
            offset += extraction.length
        headers = result.headers()
        assert headers[:1] == ["ethernet"]
        assert {"vxlan", "inner_ethernet"} <= set(headers)
        inner_ip = "inner_ipv4" if packet.inner.ip.version == 4 else "inner_ipv6"
        assert inner_ip in headers


def test_identity_deparse_roundtrips():
    rng = derive(2021, "tofino-identity")
    for _ in range(ROUNDS):
        raw = random_vxlan_packet(rng).to_bytes()
        parsed = GRAPH.parse(raw)
        assert deparse(raw, parsed, []) == raw
        # Rewriting fields to their current values must also be a no-op:
        # the checksum engine recomputes to the same checksum.
        packet = Packet.from_bytes(raw)
        identity = [
            rewrite_outer_src(packet.ip.src),
            rewrite_outer_dst(packet.ip.dst),
            rewrite_vni(packet.vxlan.vni),
        ]
        assert deparse(raw, parsed, identity) == raw


def test_rewrites_match_packet_codec():
    rng = derive(2021, "tofino-rewrites")
    for _ in range(ROUNDS):
        raw = random_vxlan_packet(rng).to_bytes()
        parsed = GRAPH.parse(raw)
        packet = Packet.from_bytes(raw)
        dst, src, vni = (rng.getrandbits(32), rng.getrandbits(32),
                         rng.getrandbits(24))
        assert (deparse(raw, parsed, [rewrite_outer_dst(dst)])
                == packet.with_outer_dst(dst).to_bytes())
        assert (deparse(raw, parsed, [rewrite_outer_src(src)])
                == packet.with_outer_src(src).to_bytes())
        assert (deparse(raw, parsed, [rewrite_vni(vni)])
                == packet.with_vni(vni).to_bytes())
        combined = deparse(raw, parsed, [rewrite_outer_dst(dst),
                                         rewrite_outer_src(src),
                                         rewrite_vni(vni)])
        reference = (packet.with_outer_dst(dst).with_outer_src(src)
                     .with_vni(vni).to_bytes())
        assert combined == reference


def test_deparser_agrees_with_the_codec_patching_its_kept_frame():
    """The switch model as the oracle for the one codec stage it did not
    cover: a packet decoded from a canonical frame never builds headers, its
    ``rewritten(...).to_bytes()`` patches the frame it kept -- which is the
    deparser's job, so the two must emit the same bytes."""
    rng = derive(2021, "tofino-wire-image")
    corpus = [random_vxlan_packet(rng).to_bytes() for _ in range(ROUNDS)]
    corpus += [bytes.fromhex(BY_NAME[name].frame) for name in sorted(IMAGED)]
    for raw in corpus:
        packet = Packet.from_bytes(raw)
        assert packet._frame is raw, "corpus frames are canonical"
        parsed = GRAPH.parse(raw)
        src, dst, vni = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(24)
        assert (deparse(raw, parsed, [rewrite_outer_src(src), rewrite_outer_dst(dst),
                                      rewrite_vni(vni)])
                == packet.rewritten(src, dst, vni).to_bytes())
        assert (deparse(raw, parsed, [rewrite_outer_src(src), rewrite_outer_dst(dst)])
                == packet.rewritten(src, dst).to_bytes())
        assert packet.to_bytes() is raw


def test_truncations_reject_cleanly():
    rng = derive(2021, "tofino-truncate")
    raw = random_vxlan_packet(rng).to_bytes()
    for cut in range(len(raw)):
        result = GRAPH.parse(raw[:cut])  # must not raise
        if not result.accepted:
            assert result.reject_reason
        # Deparsing whatever was extracted is still total.
        assert deparse(raw[:cut], result, []) == raw[:cut]


def test_corrupted_packets_parse_or_reject():
    rng = derive(2021, "tofino-corrupt")
    for _ in range(ROUNDS):
        wire = bytearray(random_vxlan_packet(rng).to_bytes())
        for _flip in range(rng.randrange(1, 5)):
            wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        try:
            result = GRAPH.parse(bytes(wire))
        except ParserOverrunError:  # pragma: no cover - graph is acyclic
            pytest.fail("corruption must not overrun the parse graph")
        assert deparse(bytes(wire), result, []) == bytes(wire)


def test_random_bytes_never_crash():
    rng = derive(2021, "tofino-random-bytes")
    for _ in range(ROUNDS):
        raw = bytes(rng.getrandbits(8) for _ in range(rng.randrange(120)))
        result = GRAPH.parse(raw)
        assert result.accepted or result.reject_reason


class TestRewriteValidation:
    def _parsed(self):
        raw = build_vxlan_packet(7, 1, 2).to_bytes()
        return raw, GRAPH.parse(raw)

    def test_rewrite_beyond_header_bounds(self):
        raw, parsed = self._parsed()
        with pytest.raises(DeparseError):
            deparse(raw, parsed, [FieldRewrite("vxlan", 6, b"\x00\x00\x00")])

    def test_rewrite_of_unparsed_header(self):
        raw, parsed = self._parsed()
        with pytest.raises(DeparseError):
            deparse(raw, parsed, [FieldRewrite("inner_ipv6", 0, b"\x60")])

    def test_vni_out_of_range(self):
        with pytest.raises(DeparseError):
            rewrite_vni(1 << 24)
        with pytest.raises(DeparseError):
            rewrite_vni(-1)


def test_fuzz_is_deterministic():
    def sample():
        rng = derive(7, "tofino-determinism")
        return [random_vxlan_packet(rng).to_bytes() for _ in range(5)]

    assert sample() == sample()
