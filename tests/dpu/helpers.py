"""Shared builders for the placement suites (tests/dpu and
tests/offload): a chip cluster from the fault-suite factory plus any
number of DPU devices — zero included — adopted by the planner."""

from tests.faults.helpers import ip, make_controller, onboard

from repro.core.journal import Journal
from repro.dpu import DpuBudget, DpuDevice, DpuProfile, TierDetector, TierPlanner
from repro.offload import (ChipBudget, HeavyHitterDetector, OffloadLoop,
                           entry_footprint)
from repro.net.flow import FlowKey
from repro.sim.engine import Engine
from repro.workloads.flows import heavy_hitter_flows
from repro.x86.cpu import DEFAULT_CORE_PPS
from repro.x86.gateway import XgwX86


def make_detector(chip_hi=1000.0, chip_lo=400.0, dpu_hi=100.0, dpu_lo=40.0,
                  promote_after=1, demote_after=1, ewma_alpha=1.0, seed=0):
    """Instant-reaction thresholds for direct planner tests (the loop
    tests use paced EWMA/hysteresis settings instead)."""
    return TierDetector(
        chip=HeavyHitterDetector(theta_hi=chip_hi, theta_lo=chip_lo,
                                 promote_after=promote_after,
                                 demote_after=demote_after,
                                 ewma_alpha=ewma_alpha, seed=seed),
        dpu=HeavyHitterDetector(theta_hi=dpu_hi, theta_lo=dpu_lo,
                                promote_after=promote_after,
                                demote_after=demote_after,
                                ewma_alpha=ewma_alpha, seed=seed + 1),
    )


def make_env(detector=None, sram=64, num_devices=2, entry_budget=8,
             session_budget=64, sessions_per_vip=4, vni=1000, journal=False):
    """Controller + chip cluster + DPU devices + planner, ready to place."""
    ctrl = make_controller()
    if journal:
        ctrl.journal = Journal()
    cluster_id, _routes, _vms = onboard(ctrl, vni=vni)
    chip_budget = ChipBudget(ctrl.clusters[cluster_id],
                             sram_budget_words=sram,
                             tcam_budget_slices=2 * sram)
    devices = [
        DpuDevice(f"dpu-{i}", gateway_ip=0x0A00F000 + i,
                  profile=DpuProfile(flow_table_entries=256,
                                     session_capacity=1024))
        for i in range(num_devices)
    ]
    budgets = {d.name: DpuBudget(d, entry_budget=entry_budget,
                                 session_budget=session_budget)
               for d in devices}
    planner = TierPlanner(
        ctrl, cluster_id, chip_budget, devices,
        detector if detector is not None else make_detector(),
        dpu_budgets=budgets, sessions_per_vip=sessions_per_vip,
    )
    return ctrl, cluster_id, planner, devices


def seed_sessions(device, key, count=3):
    for i in range(count):
        device.sessions.ensure(
            FlowKey(ip("10.8.0.1"), key.dst_ip, 17, 40000 + i, 4789),
            (key.vni, key.dst_ip, key.version), now=0.0)


def build_loop(num_devices=2, seed=7, chip_vips=None, flash_crowd=False):
    """The offload benches' closed loop, not yet started: paced
    EWMA/hysteresis detectors, a Zipf(1.4) population at 40 % of one
    XGW-x86, *num_devices* DPUs. The chip holds 64 SRAM words as in
    ``bench_offload_relief``, or exactly *chip_vips* entries as in
    ``bench_dpu_frontier``, whose t=10..20 surge *flash_crowd* adds."""
    ctrl = make_controller()
    cluster_id, _routes, _vms = onboard(ctrl, vni=1000)
    fp = entry_footprint(4)
    sram, tcam = ((64, 128) if chip_vips is None else
                  (chip_vips * fp.sram_words, chip_vips * fp.tcam_slices))
    budget = ChipBudget(ctrl.clusters[cluster_id], sram_budget_words=sram,
                        tcam_budget_slices=tcam)

    def paced(hi, lo, seed):
        return HeavyHitterDetector(
            theta_hi=hi * DEFAULT_CORE_PPS, theta_lo=lo * DEFAULT_CORE_PPS,
            promote_after=2, demote_after=3, ewma_alpha=0.5, seed=seed)

    detector = TierDetector(
        chip=paced(0.5, 0.2, seed),
        dpu=paced(0.08, 0.03, seed + 1) if num_devices else None)
    devices = [DpuDevice(f"dpu-{i}", gateway_ip=0x0A00F000 + i)
               for i in range(num_devices)]
    planner = TierPlanner(ctrl, cluster_id, budget, devices, detector)
    gateway = XgwX86(gateway_ip=0x0A000001)
    base = heavy_hitter_flows(100, 0.4 * gateway.total_capacity_pps,
                              seed=4, alpha=1.4, vnis=[1000])
    surge = heavy_hitter_flows(20, 0.25 * gateway.total_capacity_pps,
                               seed=9, alpha=1.05, vnis=[1000]
                               ) if flash_crowd else []
    engine = Engine()
    loop = OffloadLoop(engine, [gateway], planner,
                       lambda t: base + surge if 10.0 <= t < 20.0 else base)
    return engine, loop, planner


def run_loop(duration=30.0, **kwargs):
    engine, loop, planner = build_loop(**kwargs)
    loop.start(until=duration)
    engine.run(until=duration)
    return loop, planner
