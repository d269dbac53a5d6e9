"""Million-tenant sharded control plane: churn latency vs shard count.

The §7 scale goal is O(10M) routes under sustained churn. This bench
builds a region of ``SHARD_BENCH_VNIS`` tenants (default 1M, 10 routes +
1 VM each => 10M routes) behind 4 and then 16 shards, applies a sustained
route-churn workload through the sharded facade, and measures:

* per-update latency (p50/p99) — must stay flat as the shard count
  grows, because every update is O(1) against its owning shard;
* per-shard snapshot/compaction cost — must *shrink* as shards are
  added, because each checkpoint covers only its own range;
* cross-shard 2PC throughput for peer chains spanning shards.

Gateways are O(1) null sinks: the subject here is the control plane
(journal appends, split-plan lookups, per-tenant indexes, 2PC markers),
not table microstructure, which has its own benches.

Scaled down by env knobs for CI (see .github/workflows/ci.yml, which
runs a 50k-VNI smoke); the full-size run emits ``BENCH_shard.json``
under ``SHARD_ARTIFACT_DIR`` (default: the working directory).
"""

import json
import os
import time

from conftest import emit
from repro.core.controller import RouteEntry, VmEntry
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.cluster.cluster import GatewayCluster
from repro.net.addr import Prefix
from repro.shard import ShardedController
from repro.sim.rand import derive
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope

NUM_VNIS = int(os.environ.get("SHARD_BENCH_VNIS", "1000000"))
ROUTES_PER = int(os.environ.get("SHARD_BENCH_ROUTES_PER", "10"))
CHURN_OPS = int(os.environ.get("SHARD_BENCH_CHURN", "4000"))
XTXNS = int(os.environ.get("SHARD_BENCH_XTXNS", "200"))
SHARD_COUNTS = tuple(
    int(n) for n in os.environ.get("SHARD_BENCH_SHARDS", "4,16").split(","))
SEED = 2021

#: The VNI space the bench tenants occupy (dense from 0).
VNI_SPACE = max(NUM_VNIS, 1 << 10)

#: Shared immutable entry payloads — the control plane keys by
#: (vni, prefix), so reusing the Prefix objects changes nothing except
#: the cost of building the workload.
PREFIXES = [Prefix.parse(f"10.{i}.0.0/16") for i in range(ROUTES_PER)]
CHURN_PREFIX = Prefix.parse("172.16.0.0/12")
LOCAL = RouteAction(Scope.LOCAL)
BINDING = NcBinding(nc_ip=0x0A010101)


class _NullRouting:
    @staticmethod
    def items():
        return ()

    @staticmethod
    def get(vni, prefix):
        return None


class _NullVmNc:
    @staticmethod
    def lookup(vni, vm_ip, version):
        return None


class _NullTables:
    routing = _NullRouting()
    vm_nc = _NullVmNc()


class NullGateway:
    """Accepts every write in O(1) and stores nothing."""

    tables = _NullTables()

    def install_route(self, *args, **kwargs):
        pass

    def install_vm(self, *args, **kwargs):
        pass

    def remove_route(self, *args, **kwargs):
        pass

    def remove_vm(self, *args, **kwargs):
        pass


def build_region(num_shards):
    def factory(cluster_id):
        return GatewayCluster(cluster_id, [(f"{cluster_id}-gw0", NullGateway())])

    # Capacity sized so each shard packs its whole range into one
    # cluster: placement stays O(1) and the journal stream per shard is
    # the interesting cost.
    capacity = ClusterCapacity(routes=NUM_VNIS * ROUTES_PER,
                               vms=NUM_VNIS, traffic_bps=1e18)
    sharded = ShardedController.build(
        num_shards, capacity, cluster_factory=factory,
        vni_space=VNI_SPACE, segment_bytes=1 << 20)

    started = time.perf_counter()
    for vni in range(NUM_VNIS):
        sharded.add_tenant(TenantProfile(vni, ROUTES_PER, 1, 1.0), [], [])
        with sharded.transaction(vni) as txn:
            for prefix in PREFIXES:
                txn.install_route(RouteEntry(vni, prefix, LOCAL))
            txn.install_vm(VmEntry(vni, 0xC0A80000 + (vni & 0xFFFF), 4,
                                   BINDING))
    build_seconds = time.perf_counter() - started
    return sharded, build_seconds


def run_churn(sharded, rng):
    """Sustained single-tenant churn; returns per-update seconds."""
    latencies = []
    for _ in range(CHURN_OPS):
        vni = rng.randrange(NUM_VNIS)
        started = time.perf_counter()
        sharded.install_route(RouteEntry(vni, CHURN_PREFIX, LOCAL))
        sharded.remove_route(vni, CHURN_PREFIX)
        latencies.append((time.perf_counter() - started) / 2.0)
    return latencies


def run_xtxns(sharded, rng):
    """Cross-shard peer installs through the 2PC; returns seconds total."""
    num_shards = sharded.router.num_shards
    if num_shards < 2 or XTXNS == 0:
        return 0.0
    stride = VNI_SPACE // num_shards  # a and b always on different shards
    started = time.perf_counter()
    for i in range(XTXNS):
        a = rng.randrange(min(stride, NUM_VNIS))
        b = (a + stride) % NUM_VNIS
        with sharded.cross_transaction() as xtxn:
            xtxn.install_route(RouteEntry(a, CHURN_PREFIX,
                                          RouteAction(Scope.PEER,
                                                      next_hop_vni=b)))
            xtxn.install_route(RouteEntry(b, CHURN_PREFIX,
                                          RouteAction(Scope.PEER,
                                                      next_hop_vni=a)))
        with sharded.cross_transaction() as xtxn:
            xtxn.remove_route(a, CHURN_PREFIX)
            xtxn.remove_route(b, CHURN_PREFIX)
    return time.perf_counter() - started


def snapshot_all(sharded):
    """Checkpoint every shard, one at a time; returns per-shard seconds."""
    costs = {}
    for sid in sorted(sharded.shards):
        started = time.perf_counter()
        sharded.snapshot(sid)
        costs[sid] = time.perf_counter() - started
    return costs


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(num_shards):
    rng = derive(SEED, "shard-bench", num_shards)
    sharded, build_seconds = build_region(num_shards)
    entries = sum(s.entry_counts()["routes"] for s in sharded.shards.values())

    churn_cold = run_churn(sharded, rng)   # against un-compacted journals
    snap_costs = snapshot_all(sharded)     # per-shard compaction pause
    churn_warm = run_churn(sharded, rng)   # against compacted journals
    xtxn_seconds = run_xtxns(sharded, rng)

    latencies = churn_cold + churn_warm
    telemetry = sharded.shard_status()
    return {
        "shards": num_shards,
        "vnis": NUM_VNIS,
        "routes": entries,
        "build_seconds": round(build_seconds, 3),
        "update_p50_us": round(percentile(latencies, 0.50) * 1e6, 2),
        "update_p99_us": round(percentile(latencies, 0.99) * 1e6, 2),
        "updates_per_second": round(len(latencies) * 1.0 /
                                    max(sum(latencies), 1e-9)),
        "snapshot_seconds_max": round(max(snap_costs.values()), 3),
        "snapshot_seconds_sum": round(sum(snap_costs.values()), 3),
        "xtxns": XTXNS * 2,
        "xtxn_seconds": round(xtxn_seconds, 3),
        "xtxns_committed": sharded.counters["xtxns_committed"],
        "tail_records_max": max(t["tail_records"] for t in telemetry),
        "segments_max": max(t["segments"] for t in telemetry),
        "snapshot_bytes_max": max(t["snapshot_bytes"] for t in telemetry),
        "per_shard": telemetry,
    }


def test_shard_scale_churn():
    results = [measure(n) for n in SHARD_COUNTS]

    rows = []
    for r in results:
        rows.append((f"{r['shards']} shards", "p99 flat",
                     f"{r['update_p99_us']:.0f} us"))
        rows.append((f"{r['shards']} shards snapshot(max)", "O(shard)",
                     f"{r['snapshot_seconds_max']:.2f} s"))
    emit(f"Sharded control plane ({NUM_VNIS} VNIs, "
         f"{results[0]['routes']} routes)", rows,
         header=("config", "expectation", "measured"))

    art_dir = os.environ.get("SHARD_ARTIFACT_DIR", ".")
    os.makedirs(art_dir, exist_ok=True)
    out_path = os.path.join(art_dir, "BENCH_shard.json")
    with open(out_path, "w") as fh:
        json.dump({"vnis": NUM_VNIS, "routes_per_tenant": ROUTES_PER,
                   "churn_ops": CHURN_OPS, "results": results},
                  fh, indent=2, sort_keys=True)

    # Every tenant onboarded on every config, with the full route load.
    for r in results:
        assert r["routes"] == NUM_VNIS * ROUTES_PER
        assert r["xtxns_committed"] == (r["xtxns"] if r["shards"] > 1 else 0)
        # Compaction really pruned the per-shard tails.
        assert r["tail_records_max"] <= 3 * CHURN_OPS + 4 * XTXNS + 16

    # Single-shard updates are O(1): p99 must not grow with the shard
    # count (allow 3x for scheduler noise on shared CI runners).
    if len(results) > 1:
        p99s = [r["update_p99_us"] for r in results]
        assert max(p99s) <= 3.0 * max(min(p99s), 1.0), p99s

    # Per-shard checkpoint pause shrinks as shards are added: the most
    # expensive single-shard snapshot with more shards must not exceed
    # the one with fewer (each covers a smaller range).
    if len(results) > 1:
        assert results[-1]["snapshot_seconds_max"] <= \
            1.5 * results[0]["snapshot_seconds_max"] + 0.05
