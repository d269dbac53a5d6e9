"""Tests for the SNAT service: the full Fig. 11 request/response cycle."""

import ipaddress

import pytest

from repro.dataplane.gateway_logic import ForwardAction, GatewayTables
from repro.dataplane.services import SnatService
from repro.net.addr import Prefix
from repro.net.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    PROTO_TCP,
    PROTO_UDP,
    TCP,
    UDP,
    Ethernet,
    IPv4,
    IPv6,
)
from repro.net.packet import InnerFrame, Packet
from repro.tables.snat import SnatTable
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet

GATEWAY_IP = 0x0AFFFF01
VPC = 100
PUBLIC_IP = 0xCB007101  # 203.0.113.1


def ip(text):
    return int(ipaddress.ip_address(text))


def make_service():
    tables = GatewayTables()
    tables.routing.insert(VPC, Prefix.parse("0.0.0.0/0"),
                          RouteAction(Scope.SERVICE, target="snat"))
    tables.vm_nc.insert(VPC, ip("192.168.10.2"), 4, NcBinding(ip("10.1.1.11")))
    snat = SnatTable(public_ips=[PUBLIC_IP])
    return SnatService(snat, tables, GATEWAY_IP)


@pytest.fixture
def service():
    return make_service()


def request_packet(src="192.168.10.2", dst="93.184.216.34", sport=5555):
    return build_vxlan_packet(vni=VPC, src_ip=ip(src), dst_ip=ip(dst),
                              src_port=sport, dst_port=80, payload=b"GET /")


class TestRequestPath:
    def test_translates_and_decaps(self, service):
        result = service.handle_request(request_packet(), now=0.0)
        assert result.action is ForwardAction.UPLINK
        out = result.packet
        assert not out.is_vxlan  # tunnel removed
        assert out.ip.src == PUBLIC_IP  # source rewritten
        assert out.ip.dst == ip("93.184.216.34")
        assert out.l4.src_port != 5555 or out.l4.src_port >= 1024
        assert out.payload == b"GET /"
        assert service.requests == 1

    def test_same_flow_reuses_session(self, service):
        first = service.handle_request(request_packet(), now=0.0)
        second = service.handle_request(request_packet(), now=1.0)
        assert first.packet.l4.src_port == second.packet.l4.src_port
        assert len(service.snat) == 1

    def test_distinct_flows_distinct_ports(self, service):
        a = service.handle_request(request_packet(sport=1111), now=0.0)
        b = service.handle_request(request_packet(sport=2222), now=0.0)
        assert a.packet.l4.src_port != b.packet.l4.src_port

    def test_non_vxlan_rejected(self, service):
        plain = request_packet().decap()
        result = service.handle_request(plain, now=0.0)
        assert result.action is ForwardAction.DROP

    def test_pool_exhaustion_drops(self, service):
        service.snat._pools[PUBLIC_IP].free = []
        result = service.handle_request(request_packet(), now=0.0)
        assert result.action is ForwardAction.DROP
        assert result.detail == "snat-pool-exhausted"
        assert service.failures == 1


class TestResponsePath:
    def _roundtrip(self, service):
        request = service.handle_request(request_packet(), now=0.0)
        out = request.packet
        # Build the Internet's response: src/dst swapped.
        response_bytes = out.to_bytes()
        response = Packet.from_bytes(response_bytes)
        from dataclasses import replace
        from repro.net.headers import UDP
        response = replace(
            response,
            ip=type(response.ip)(src=out.ip.dst, dst=out.ip.src, proto=out.ip.proto),
            l4=UDP(src_port=out.l4.dst_port, dst_port=out.l4.src_port),
            payload=b"200 OK",
        )
        return service.handle_response(response, now=1.0)

    def test_response_reencapsulated_to_nc(self, service):
        result = self._roundtrip(service)
        assert result.action is ForwardAction.DELIVER_NC
        packet = result.packet
        assert packet.is_vxlan and packet.vni == VPC
        assert packet.ip.dst == ip("10.1.1.11")  # the VM's NC
        assert packet.inner.ip.dst == ip("192.168.10.2")  # original VM IP
        assert packet.inner.l4.dst_port == 5555  # original source port
        assert packet.inner.payload == b"200 OK"
        assert service.responses == 1

    def test_unknown_session_drops(self, service):
        from repro.net.headers import Ethernet, IPv4, UDP, ETHERTYPE_IPV4
        stray = Packet(
            eth=Ethernet(1, 2, ETHERTYPE_IPV4),
            ip=IPv4(src=ip("93.184.216.34"), dst=PUBLIC_IP, proto=17),
            l4=UDP(src_port=80, dst_port=4444),
            payload=b"stray",
        )
        result = service.handle_response(stray, now=0.0)
        assert result.action is ForwardAction.DROP
        assert result.detail == "snat-no-session"

    def test_vxlan_response_rejected(self, service):
        result = service.handle_response(request_packet(), now=0.0)
        assert result.action is ForwardAction.DROP

    def test_expiry_clears_context(self, service):
        service.handle_request(request_packet(), now=0.0)
        expired = service.expire(now=10_000.0)
        assert expired == 1
        assert len(service._contexts) == 0


# -- golden request frames ---------------------------------------------------
#
# The request output is assembled from unchecked header constructors; these
# are the frames the decap + ``dataclasses.replace`` assembly produced,
# recorded by running this file as a script before it was replaced:
#     PYTHONPATH=src python tests/dataplane/test_services.py


def _encap(ip_header, l4, payload, ethertype=ETHERTYPE_IPV4):
    inner = InnerFrame(eth=Ethernet(dst=0x02AA00000002, src=0x02AA00000001,
                                    ethertype=ethertype),
                       ip=ip_header, l4=l4, payload=payload)
    return Packet.vxlan_encap(
        inner, outer_eth=Ethernet(dst=0x02BB00000002, src=0x02BB00000001,
                                  ethertype=ETHERTYPE_IPV4),
        outer_src=ip("10.0.0.1"), outer_dst=GATEWAY_IP, vni=VPC)


def golden_cases():
    """``{case: (request packet, whether the port pool is drained)}``."""
    vm, remote = ip("192.168.10.2"), ip("93.184.216.34")
    return {
        "udp-checksum": (_encap(IPv4(src=vm, dst=remote, proto=PROTO_UDP),
                                UDP(src_port=5555, dst_port=53, checksum=0xBEEF),
                                b"query"), False),
        "tcp-fields": (_encap(IPv4(src=vm, dst=remote, proto=PROTO_TCP),
                              TCP(src_port=40001, dst_port=443, seq=0x01020304,
                                  ack=0x0A0B0C0D, flags=0x18, window=4096,
                                  checksum=0x1234),
                              b"GET / HTTP/1.1\r\n"), False),
        "ipv4-ident-tos-ttl": (_encap(IPv4(src=vm, dst=remote, proto=PROTO_UDP,
                                           ttl=17, tos=0x28, ident=0xBEEF, flags=2),
                                      UDP(src_port=6000, dst_port=123), b"ntp"), False),
        "empty-payload": (_encap(IPv4(src=vm, dst=remote, proto=PROTO_UDP),
                                 UDP(src_port=7000, dst_port=80), b""), False),
        "ipv6": (_encap(IPv6(src=ip("fd00::2"), dst=ip("2001:db8::1"),
                             next_header=PROTO_UDP),
                        UDP(src_port=5555, dst_port=53), b"v6", ETHERTYPE_IPV6), False),
        "not-vxlan": (request_packet().decap(), False),
        "pool-exhausted": (request_packet(), True),
    }


def golden_outputs(decoded):
    """``{case: [action, detail, output frame hex, requests, failures]}``,
    one fresh service per case; *decoded* feeds each request as its wire
    image (``Packet.from_bytes``) instead of the object-built packet."""
    outputs = {}
    for case, (packet, drained) in golden_cases().items():
        svc = make_service()
        if drained:
            svc.snat._pools[PUBLIC_IP].free = []
        if decoded:
            packet = Packet.from_bytes(packet.to_bytes())
        result = svc.handle_request(packet, now=2.5)
        outputs[case] = [result.action.value, result.detail,
                         result.packet.to_bytes().hex(), svc.requests, svc.failures]
    return outputs


GOLDEN_REQUESTS = {
    "udp-checksum": [
        "uplink", "snat-request",
        "02aa0000000202aa0000000108004500002100000000401108f0cb0071015db8"
        "d82204000035000d00007175657279",
        1, 0],
    "tcp-fields": [
        "uplink", "snat-request",
        "02aa0000000202aa0000000108004500003800000000400608e4cb0071015db8"
        "d822040001bb010203040a0b0c0d5018100000000000474554202f2048545450"
        "2f312e310d0a",
        1, 0],
    "ipv4-ident-tos-ttl": [
        "uplink", "snat-request",
        "02aa0000000202aa0000000108004528001fbeef4000111138dacb0071015db8"
        "d8220400007b000b00006e7470",
        1, 0],
    "empty-payload": [
        "uplink", "snat-request",
        "02aa0000000202aa0000000108004500001c00000000401108f5cb0071015db8"
        "d8220400005000080000",
        1, 0],
    "ipv6": [
        "drop", "snat-v6-unsupported",
        "02bb0000000202bb0000000108004500006400000000401166880a0000010aff"
        "ff01c00012b500500000080000000000640002aa0000000202aa0000000186dd"
        "60000000000a1140fd00000000000000000000000000000220010db800000000"
        "000000000000000115b30035000a00007636",
        0, 0],
    "not-vxlan": [
        "drop", "snat-not-vxlan",
        "02aa0000000202aa000000010800450000210000000040117a47c0a80a025db8"
        "d82215b30050000d0000474554202f",
        0, 0],
    "pool-exhausted": [
        "drop", "snat-pool-exhausted",
        "02bb0000000202bb0000000108004500005300000000401165930a0900010a00"
        "00fec00012b5003f0000080000000000640002aa0000000202aa000000010800"
        "450000210000000040117a47c0a80a025db8d82215b30050000d000047455420"
        "2f",
        0, 1],
}


@pytest.mark.parametrize("decoded", [False, True], ids=["objects", "wire-image"])
def test_request_frames_match_the_golden_bytes(decoded):
    assert golden_outputs(decoded) == GOLDEN_REQUESTS


if __name__ == "__main__":
    import json

    print(json.dumps(golden_outputs(False), indent=4))
