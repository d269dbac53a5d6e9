"""Flow-cache fast path: cached vs full-table-walk forwarding (§2.2).

The production DPDK gateway only reaches ~1 Mpps/core because a flow
cache short-circuits the per-packet table program; the first packet of a
flow pays the full walk (ACL + meters + PEER-chained VXLAN routing +
VM-NC + rewrite) and later packets replay the cached terminal decision.
This bench drives a Zipf(1.1) workload over service-chained VPC peering
(three PEER hops to the terminal VPC) through two identical XGW-x86
boxes — one with the cache, one forced onto the slow path — and checks:

* byte-identical results and identical counter/meter state either way;
* a cache hit rate >= 0.9 on the Zipf stream (the head flows dominate);
* >= 5x packet-rate speedup for the cached box at steady state.

Writes ``BENCH_fastpath.json`` (set ``FASTPATH_ARTIFACT_DIR`` to choose
where; defaults to the working directory) so CI accrues the fast-path
perf trajectory per PR.
"""

import ipaddress
import json
import os
import time

from conftest import emit
from repro.dataplane.gateway_logic import GatewayTables
from repro.net.addr import Prefix
from repro.sim.rand import WeightedSampler, derive, zipf_weights
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.traffic import build_vxlan_packet
from repro.x86.gateway import XgwX86

SEED = 2021
N_VNIS = 32
FLOWS_PER_VNI = 16          # 512 distinct (VNI, dst) flows
PEER_DEPTH = 3              # service-chained peering: 4 LPM resolutions
ZIPF_ALPHA = 1.1
N_PACKETS = 20_000
TIMING_REPEATS = 5
GATEWAY_IP = int(ipaddress.ip_address("10.255.0.1"))


def build_tables():
    """Tenant tables with PEER chains ending in a VM-populated VPC."""
    tables = GatewayTables()
    for i in range(N_VNIS):
        chain = [100 + i] + [1000 * (hop + 1) + i for hop in range(PEER_DEPTH)]
        prefix = Prefix.parse(f"10.{i}.0.0/16")
        for src_vni, dst_vni in zip(chain, chain[1:]):
            tables.routing.insert(src_vni, prefix,
                                  RouteAction(Scope.PEER, next_hop_vni=dst_vni))
        terminal = chain[-1]
        for j in range(8):  # more-specific routes deepen the LPM walk
            tables.routing.insert(terminal, Prefix.parse(f"10.{i}.{j}.0/24"),
                                  RouteAction(Scope.LOCAL))
        tables.routing.insert(terminal, prefix, RouteAction(Scope.LOCAL))
        for f in range(FLOWS_PER_VNI):
            tables.vm_nc.insert(terminal, flow_dst(i, f), 4,
                                NcBinding(int(ipaddress.ip_address(
                                    f"172.16.{i}.{10 + f}"))))
    return tables


def flow_dst(vni_index, flow_index):
    return int(ipaddress.ip_address(
        f"10.{vni_index}.{flow_index % 8}.{10 + flow_index}"))


def build_workload():
    """A Zipf(1.1)-sampled packet stream over the 512 flows."""
    flows = [(100 + i, flow_dst(i, f))
             for i in range(N_VNIS) for f in range(FLOWS_PER_VNI)]
    sampler = WeightedSampler(zipf_weights(len(flows), ZIPF_ALPHA),
                              derive(SEED, "fastpath"))
    src = int(ipaddress.ip_address("10.200.0.1"))
    packets = []
    for _ in range(N_PACKETS):
        vni, dst = flows[sampler.sample()]
        packets.append(build_vxlan_packet(vni=vni, src_ip=src, dst_ip=dst))
    return packets


def best_pass_seconds(gateway, packets):
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        gateway.forward_batch(packets)
        best = min(best, time.perf_counter() - start)
    return best


def save_artifact(payload):
    art_dir = os.environ.get("FASTPATH_ARTIFACT_DIR", ".")
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, "BENCH_fastpath.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def test_fastpath_speedup(benchmark):
    packets = build_workload()
    # This bench measures the *flow-cache* fast path specifically, so
    # both boxes pin columnar=False (the columnar batch path is measured
    # by bench/'s dp_* workloads).
    cached = XgwX86(gateway_ip=GATEWAY_IP, tables=build_tables(),
                    columnar=False)
    uncached = XgwX86(gateway_ip=GATEWAY_IP, tables=build_tables(),
                      cache_entries=0, columnar=False)

    # Cold pass doubles as the equivalence check: the fast path must be
    # byte-identical to the slow path, packet for packet, and leave the
    # stateful layers (counters, meters) in the same end state.
    cached_results = cached.forward_batch(packets)
    uncached_results = uncached.forward_batch(packets)
    for got, want in zip(cached_results, uncached_results):
        assert got.action is want.action
        assert got.detail == want.detail
        assert got.packet.to_bytes() == want.packet.to_bytes()
    assert (cached.tables.counters.total_packets()
            == uncached.tables.counters.total_packets())
    assert (cached.tables.counters.total_bytes()
            == uncached.tables.counters.total_bytes())
    assert cached.tables.meters.green == uncached.tables.meters.green
    zipf_hit_rate = cached.flow_cache.hit_rate

    # Steady state: the working set is resident, so time repeated passes.
    cached_s = best_pass_seconds(cached, packets)
    uncached_s = best_pass_seconds(uncached, packets)
    speedup = uncached_s / cached_s
    hits_before = cached.flow_cache.hits
    cached.forward_batch(packets)
    steady_hit_rate = (cached.flow_cache.hits - hits_before) / N_PACKETS

    cached_pps = N_PACKETS / cached_s
    uncached_pps = N_PACKETS / uncached_s
    rows = [
        ("distinct flows", "512", f"{N_VNIS * FLOWS_PER_VNI}"),
        ("Zipf-stream hit rate", ">= 0.9", f"{zipf_hit_rate:.3f}"),
        ("steady-state hit rate", "~1.0", f"{steady_hit_rate:.3f}"),
        ("slow-path rate", "~1 Mpps/core order", f"{uncached_pps / 1e3:.0f} kpps"),
        ("fast-path rate", "", f"{cached_pps / 1e3:.0f} kpps"),
        ("cached/uncached speedup", ">= 5x", f"{speedup:.1f}x"),
    ]
    emit("Flow-cache fast path (Zipf 1.1, 3-hop PEER chains)", rows)

    save_artifact({
        "workload": {
            "flows": N_VNIS * FLOWS_PER_VNI,
            "packets": N_PACKETS,
            "zipf_alpha": ZIPF_ALPHA,
            "peer_depth": PEER_DEPTH,
            "seed": SEED,
        },
        "zipf_hit_rate": zipf_hit_rate,
        "steady_hit_rate": steady_hit_rate,
        "cached_pps": cached_pps,
        "uncached_pps": uncached_pps,
        "speedup": speedup,
        "cache_counters": cached.flow_cache.counters(),
    })

    assert zipf_hit_rate >= 0.9
    assert steady_hit_rate >= 0.9
    assert speedup >= 5.0

    benchmark(cached.forward_batch, packets)
