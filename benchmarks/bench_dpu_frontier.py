"""Three-tier frontier: chip + DPU shelf + x86 vs the two-tier baseline.

Runs the same seeded workloads through one
:class:`~repro.dpu.planner.TierPlanner` loop twice — with no DPU devices
(two-tier: chip + x86) and with a two-device shelf (three-tier) — with
an identically tiny chip budget (three VIP entries — the constrained-SRAM
regime of Tables 2/3), under two traffic shapes:

* **Zipf** — the Fig. 7 skew: a handful of elephants, a warm band, a
  long tail;
* **flash crowd** — the same base population plus a mid-interval surge
  of warm VIPs (none hot enough for the chip, all too hot for x86).

With the chip pinned to three entries both deployments hold the same
elephants, so the comparison isolates what the DPU shelf buys: the warm
band that the two-tier baseline must spill onto x86. The bench asserts
the three-tier run dominates the loss/occupancy/cost frontier —
strictly lower loss at an equal chip budget (and no lower chip
occupancy) AND lower x86 spend at equal-or-lower loss — and that the
planner's decision log + budget snapshots are byte-identical for equal
seeds.

Writes ``BENCH_dpu.json`` plus the decision logs (set
``DPU_ARTIFACT_DIR`` to choose where; CI uploads them on failure).
"""

import json
import os

from conftest import emit
from repro.cluster.cluster import GatewayCluster
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import Controller, RouteEntry
from repro.core.splitting import ClusterCapacity, TableSplitter, TenantProfile
from repro.core.xgw_h import XgwH
from repro.dpu import DpuDevice, TierDetector, TierPlanner
from repro.net.addr import Prefix
from repro.offload import (
    ChipBudget,
    HeavyHitterDetector,
    OffloadLoop,
    decision_state_dump,
    entry_footprint,
)
from repro.sim.engine import Engine
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.workloads.flows import heavy_hitter_flows
from repro.x86.cpu import DEFAULT_CORE_PPS
from repro.x86.gateway import XgwX86

VNI = 1000
DURATION = 30.0
SEED = 7
CHIP_VIPS = 3  # the constrained chip: three steering entries, no more
SURGE_WINDOW = (10.0, 20.0)


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


def tiny_chip_budget(ctrl, cluster_id):
    fp = entry_footprint(4)
    return ChipBudget(ctrl.clusters[cluster_id],
                      sram_budget_words=CHIP_VIPS * fp.sram_words,
                      tcam_budget_slices=CHIP_VIPS * fp.tcam_slices)


def make_workload(gateway, flash_crowd=False):
    base = heavy_hitter_flows(100, 0.4 * gateway.total_capacity_pps,
                              seed=4, alpha=1.4, vnis=[VNI])
    if not flash_crowd:
        return lambda _t: base
    # The surge: 20 warm VIPs, each ~0.1 core — individually below the
    # chip's promote band, collectively a quarter of the x86 box.
    surge = heavy_hitter_flows(20, 0.25 * gateway.total_capacity_pps,
                               seed=9, alpha=1.05, vnis=[VNI])

    def workload(t):
        lo, hi = SURGE_WINDOW
        return base + surge if lo <= t < hi else base

    return workload


def chip_detector(seed):
    return HeavyHitterDetector(
        theta_hi=0.5 * DEFAULT_CORE_PPS, theta_lo=0.2 * DEFAULT_CORE_PPS,
        promote_after=2, demote_after=3, ewma_alpha=0.5, seed=seed)


def build_planner(num_devices, seed=SEED):
    """The one builder: the DPU shelf size is the only difference
    between the two deployments compared here."""
    ctrl, cluster_id = build_controller()
    dpu = HeavyHitterDetector(
        theta_hi=0.08 * DEFAULT_CORE_PPS, theta_lo=0.03 * DEFAULT_CORE_PPS,
        promote_after=2, demote_after=3, ewma_alpha=0.5,
        seed=seed + 1) if num_devices else None
    devices = [DpuDevice(f"dpu-{i}", gateway_ip=0x0A00F000 + i)
               for i in range(num_devices)]
    return TierPlanner(ctrl, cluster_id, tiny_chip_budget(ctrl, cluster_id),
                       devices, TierDetector(chip=chip_detector(seed), dpu=dpu))


def run_tiers(num_devices, flash_crowd=False, seed=SEED):
    planner = build_planner(num_devices, seed)
    gateway = XgwX86(gateway_ip=0x0A000001)
    engine = Engine()
    loop = OffloadLoop(engine, [gateway], planner,
                       make_workload(gateway, flash_crowd))
    loop.start(until=DURATION)
    engine.run(until=DURATION)
    return loop, planner


def run_two_tier(flash_crowd=False, seed=SEED):
    return run_tiers(0, flash_crowd, seed)


def run_three_tier(flash_crowd=False, seed=SEED):
    return run_tiers(2, flash_crowd, seed)


def mean_loss(loop, window=None):
    snaps = loop.snapshots
    if window is not None:
        lo, hi = window
        snaps = [s for s in snaps if lo <= s.time < hi]
    return sum(s.total_loss for s in snaps) / len(snaps)


def x86_spend(loop):
    return sum(loop.core_series["tier/x86/cost-usd"].values)


def total_spend(loop):
    return sum(sum(loop.core_series[f"tier/{tier}/cost-usd"].values)
               for tier in ("chip", "dpu", "x86")
               if f"tier/{tier}/cost-usd" in loop.core_series)


def frontier_point(loop, planner):
    return {
        "steady_loss": loop.snapshots[-1].total_loss,
        "mean_loss": mean_loss(loop),
        "chip_sram_occupancy": planner.chip_budget.occupancy()["sram"],
        "x86_cost_usd": x86_spend(loop),
        "total_cost_usd": total_spend(loop),
    }


def save_artifacts(payload, planner_dump):
    art_dir = os.environ.get("DPU_ARTIFACT_DIR", ".")
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, "BENCH_dpu.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    with open(os.path.join(art_dir, "dpu-frontier.decisions.log"), "w") as fh:
        fh.write(planner_dump)


def test_three_tier_dominates_the_frontier(benchmark):
    results = {}
    for shape, flash in (("zipf", False), ("flash-crowd", True)):
        two = frontier_point(*run_two_tier(flash_crowd=flash))
        three = frontier_point(*run_three_tier(flash_crowd=flash))
        results[shape] = {"two_tier": two, "three_tier": three}

        emit(f"Loss/occupancy/cost frontier — {shape}", [
            ("chip SRAM occupancy (both)",
             f"{two['chip_sram_occupancy']:.0%}",
             f"{three['chip_sram_occupancy']:.0%}"),
            ("mean loss two-tier vs three-tier",
             f"{two['mean_loss']:.3%}", f"{three['mean_loss']:.3%}"),
            ("x86 spend two-tier vs three-tier",
             f"${two['x86_cost_usd']:.2f}", f"${three['x86_cost_usd']:.2f}"),
            ("total spend two-tier vs three-tier",
             f"${two['total_cost_usd']:.2f}",
             f"${three['total_cost_usd']:.2f}"),
        ], header=("metric", "two-tier", "three-tier"))

        # Equal chip budget: both run against the same three-entry cap,
        # and the shelf never costs the chip occupancy...
        assert two["chip_sram_occupancy"] <= 1.0
        assert three["chip_sram_occupancy"] <= 1.0
        assert three["chip_sram_occupancy"] >= two["chip_sram_occupancy"]
        # ...and at that occupancy the DPU shelf strictly wins on loss...
        assert three["mean_loss"] < two["mean_loss"]
        assert three["steady_loss"] <= two["steady_loss"]
        # ...while spending *less* on x86 (the warm band moved to
        # cheaper silicon), i.e. the two-tier point is dominated.
        assert three["x86_cost_usd"] < two["x86_cost_usd"]
        assert three["total_cost_usd"] < two["total_cost_usd"]

    _loop, planner = run_three_tier()
    save_artifacts(results, decision_state_dump(planner))

    # Time one full three-tier interval (measure -> detect -> place).
    engine2 = Engine()
    gateway2 = XgwX86(gateway_ip=0x0A000001)
    loop2 = OffloadLoop(engine2, [gateway2], build_planner(2),
                        make_workload(gateway2))
    loop2.start(until=DURATION)
    engine2.run(until=1.0)
    benchmark(loop2.tick)


def test_decision_state_byte_identical_across_runs():
    # Zero, one and two devices; the flash-crowd path (surge on, surge
    # off) is deterministic too.
    for num_devices in (0, 1, 2):
        for flash in (False, True):
            _loop_a, planner_a = run_tiers(num_devices, flash, seed=SEED)
            _loop_b, planner_b = run_tiers(num_devices, flash, seed=SEED)
            dump = decision_state_dump(planner_a)
            assert dump == decision_state_dump(planner_b)
            assert planner_a.decision_log  # promotions happened and were logged
