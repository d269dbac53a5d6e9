#!/usr/bin/env python3
"""The closed offload loop, end to end (§2.2-2.3 hybrid deployment).

One XGW-x86 box absorbs a Zipf flow population whose head pins its
hottest RSS cores at 100% — the Fig. 4 pathology. The heavy-hitter
detector (count-min sketch + space-saving tracker, EWMA smoothing,
promote/demote hysteresis) nominates the elephants, and the
capacity-aware placement planner — a ``TierPlanner`` with no DPU
devices, i.e. the chip + x86 deployment — steers them onto an XGW-H
cluster through the controller's two-phase transaction path, never
exceeding the chip's compiler-reported SRAM/TCAM headroom.

Watch for:

1. interval 0: ~40% loss, hottest core saturated;
2. a burst of ``promote`` lines once the hysteresis streak completes;
3. steady state: zero x86 loss, elephants served by the chip, and the
   hardware counter sweep keeping their rates live so nothing flaps;
4. the same seed replays the decision log byte for byte.

Run:  python examples/offload_loop.py
"""

import ipaddress

from repro.cluster.cluster import GatewayCluster
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import Controller, RouteEntry
from repro.core.splitting import ClusterCapacity, TableSplitter, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dpu import TierDetector, TierPlanner
from repro.net.addr import Prefix
from repro.offload import ChipBudget, HeavyHitterDetector, OffloadLoop
from repro.sim.engine import Engine
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.flows import heavy_hitter_flows
from repro.x86.cpu import DEFAULT_CORE_PPS
from repro.x86.gateway import XgwX86

VNI = 1000


def make_controller():
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13)),
        VniSteeredBalancer(),
    )
    ctrl.set_cluster_factory(lambda cid: GatewayCluster(
        cid, [(f"{cid}-gw{i}", XgwH(gateway_ip=10 + i)) for i in range(2)]))
    profile = TenantProfile(VNI, 1, 0, 1e9)
    routes = [RouteEntry(VNI, Prefix.parse("192.168.0.0/16"),
                         RouteAction(Scope.LOCAL))]
    cluster_id = ctrl.add_tenant(profile, routes, [])
    return ctrl, cluster_id


def run(seed):
    ctrl, cluster_id = make_controller()
    budget = ChipBudget(ctrl.clusters[cluster_id], sram_budget_words=64,
                        tcam_budget_slices=128)
    detector = TierDetector(chip=HeavyHitterDetector(
        theta_hi=0.5 * DEFAULT_CORE_PPS, theta_lo=0.2 * DEFAULT_CORE_PPS,
        promote_after=2, demote_after=3, ewma_alpha=0.5, seed=seed))
    planner = TierPlanner(ctrl, cluster_id, budget, [], detector)
    gateway = XgwX86(gateway_ip=int(ipaddress.ip_address("10.0.0.1")))
    flows = heavy_hitter_flows(100, 0.4 * gateway.total_capacity_pps,
                               seed=4, alpha=1.4, vnis=[VNI])
    print(f"{len(flows)} flows, {sum(f.pps for f in flows) / 1e6:.1f}Mpps "
          f"offered onto one {len(gateway.cpu.cores)}-core XGW-x86")

    engine = Engine()
    loop = OffloadLoop(engine, [gateway], planner, lambda _t: flows)
    loop.start(until=20.0)
    engine.run(until=20.0)

    for snap in loop.snapshots:
        if snap.time in (1.0, 3.0, 10.0, 20.0):
            print(f"  t={snap.time:>4.0f}s  x86 loss={snap.x86_loss:6.2%}  "
                  f"hottest core={snap.x86_max_core_util:4.0%}  "
                  f"offloaded={snap.offloaded_pps / 1e6:5.2f}Mpps")

    occ = budget.occupancy()
    print(f"offloaded VIPs: {len(planner.keys_on('chip'))}  "
          f"chip occupancy: sram={occ['sram']:.1%} tcam={occ['tcam']:.1%}")
    print("decision log:")
    for line in planner.decision_log:
        print(f"  {line}")
    return planner.decision_log_text()


def main() -> None:
    print("=== run 1 (seed 7) ===")
    first = run(7)
    print("\n=== run 2 (same seed) ===")
    second = run(7)
    print(f"\nbyte-identical decision log: {first == second}")


if __name__ == "__main__":
    main()
