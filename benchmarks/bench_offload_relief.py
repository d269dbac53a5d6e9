"""Offload relief: a saturated XGW-x86 drained by sketch-driven offload.

Drives a seeded Zipf workload that pins an XGW-x86's hottest cores past
100% (the Fig. 4 regime), lets the heavy-hitter detector promote the
head flows onto an XGW-H cluster through the capacity-aware planner
(a :class:`~repro.dpu.planner.TierPlanner` with no DPU devices),
and checks the closed loop's promises: steady-state x86 loss under
0.1%, chip occupancy within the compiler-reported budget, and a
byte-identical decision log for equal seeds. Benchmarks one full
measure→detect→migrate interval.

Set ``OFFLOAD_ARTIFACT_DIR`` to save the decision log + run summary
(CI uploads them on failure, like the crash-recovery journals).
"""

import ipaddress
import json
import os

import pytest

from conftest import emit
from repro.cluster.cluster import GatewayCluster
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import Controller, RouteEntry
from repro.core.splitting import ClusterCapacity, TableSplitter, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dpu import Tier, TierDetector, TierPlanner
from repro.net.addr import Prefix
from repro.offload import ChipBudget, HeavyHitterDetector, OffloadLoop
from repro.sim.engine import Engine
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.flows import heavy_hitter_flows
from repro.x86.cpu import DEFAULT_CORE_PPS
from repro.x86.gateway import XgwX86

VNI = 1000
DURATION = 30.0
SEED = 7


def build_controller():
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=50, vms=500, traffic_bps=1e13)),
        VniSteeredBalancer(),
    )
    ctrl.set_cluster_factory(lambda cid: GatewayCluster(
        cid, [(f"{cid}-gw{i}", XgwH(gateway_ip=10 + i)) for i in range(2)]))
    profile = TenantProfile(VNI, 1, 0, 1e9)
    subnet = Prefix.parse("192.168.0.0/16")
    routes = [RouteEntry(VNI, subnet, RouteAction(Scope.LOCAL))]
    cluster_id = ctrl.add_tenant(profile, routes, [])
    return ctrl, cluster_id


def build_loop(seed=SEED):
    ctrl, cluster_id = build_controller()
    budget = ChipBudget(ctrl.clusters[cluster_id], sram_budget_words=64,
                        tcam_budget_slices=128)
    detector = TierDetector(chip=HeavyHitterDetector(
        theta_hi=0.5 * DEFAULT_CORE_PPS, theta_lo=0.2 * DEFAULT_CORE_PPS,
        promote_after=2, demote_after=3, ewma_alpha=0.5, seed=seed))
    planner = TierPlanner(ctrl, cluster_id, budget, [], detector)
    gateway = XgwX86(gateway_ip=int(ipaddress.ip_address("10.0.0.1")))
    flows = heavy_hitter_flows(100, 0.4 * gateway.total_capacity_pps,
                               seed=4, alpha=1.4, vnis=[VNI])
    engine = Engine()
    loop = OffloadLoop(engine, [gateway], planner, lambda _t: flows)
    return engine, loop, planner


def run_loop(seed=SEED):
    engine, loop, planner = build_loop(seed)
    loop.start(until=DURATION)
    engine.run(until=DURATION)
    return loop, planner


def save_artifacts(name, planner, loop):
    """Drop the decision log + run summary where CI can upload them."""
    art_dir = os.environ.get("OFFLOAD_ARTIFACT_DIR")
    if not art_dir:
        return
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, f"{name}.decisions.log"), "w") as fh:
        fh.write(planner.decision_log_text())
    summary = {
        "snapshots": [
            {"t": s.time, "x86_loss": s.x86_loss,
             "x86_max_core_util": s.x86_max_core_util,
             "offloaded_pps": s.offloaded_pps}
            for s in loop.snapshots
        ],
        "occupancy": planner.chip_budget.occupancy(),
        "counters": planner.counters.snapshot(),
    }
    with open(os.path.join(art_dir, f"{name}.summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


def test_offload_relieves_cpu_overload(benchmark):
    loop, planner = run_loop()
    save_artifacts("offload-relief", planner, loop)
    first, last = loop.snapshots[0], loop.snapshots[-1]

    rows = [
        ("x86 loss before offload", "> 10%", f"{first.x86_loss:.1%}"),
        ("x86 loss at steady state", "< 0.1%", f"{last.x86_loss:.3%}"),
        ("hottest core before", "100%", f"{first.x86_max_core_util:.0%}"),
        ("hottest core after", "< 90%", f"{last.x86_max_core_util:.0%}"),
        ("VIPs offloaded", "head of the Zipf", f"{len(planner.keys_on(Tier.CHIP))}"),
        ("chip SRAM occupancy", "within budget",
         f"{planner.chip_budget.occupancy()['sram']:.1%}"),
        ("migrations aborted", "0",
         f"{planner.counters['migrations_aborted']}"),
    ]
    emit("Offload relief: x86 overload drained onto XGW-H", rows)

    # Before: the Fig. 4 signature — saturated hottest core, heavy loss.
    assert first.x86_max_core_util == pytest.approx(1.0)
    assert first.x86_loss > 0.1
    # After: the head flows run on the chip; x86 under 0.1% loss.
    assert last.x86_loss < 0.001
    assert last.x86_max_core_util < 0.9
    assert planner.keys_on(Tier.CHIP)
    assert last.hw_dropped_pps == 0.0
    # Never past the compiler-reported capacity.
    used, cap = planner.chip_budget.used, planner.chip_budget.capacity()
    assert used.sram_words <= cap.sram_words
    assert used.tcam_slices <= cap.tcam_slices
    # Steady state means no flapping: every promotion stuck.
    assert planner.counters["demotions"] == 0
    assert planner.counters["evictions"] == 0

    engine2, loop2, _planner2 = build_loop()
    loop2.start(until=DURATION)
    engine2.run(until=1.0)  # warm: population known, decisions pending
    benchmark(loop2.tick)


def test_decision_log_deterministic():
    _loop_a, planner_a = run_loop(seed=SEED)
    _loop_b, planner_b = run_loop(seed=SEED)
    save_artifacts("offload-determinism", planner_a, _loop_a)
    assert planner_a.decision_log_text() == planner_b.decision_log_text()
    assert planner_a.decision_log_text()
