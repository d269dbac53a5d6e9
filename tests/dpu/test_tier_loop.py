"""Closed three-tier loop: elephants to the chip, warm sessions to the
DPU shelf, tail and every DPU punt to x86 — all within one tick cycle."""

import pytest

from tests.dpu.helpers import ip, make_detector, run_loop

from repro.dpu import DpuDevice, DpuProfile, TierPlanner
from repro.net.flow import FlowKey
from repro.offload import ChipBudget, OffloadLoop, vip_of
from repro.sim.engine import Engine
from repro.workloads.flows import FlowSpec
from repro.x86.gateway import XgwX86

from tests.faults.helpers import make_controller, onboard


def spec(host, pps, src_port=40000):
    return FlowSpec(flow=FlowKey(ip("10.8.0.1"), ip(host), 17, src_port, 4789),
                    pps=pps, vni=1000)


class TestThreeTierRelief:
    def test_overload_is_relieved_across_three_tiers(self):
        loop, planner = run_loop()
        first, last = loop.snapshots[0], loop.snapshots[-1]
        assert first.x86_max_core_util == 1.0 and first.x86_loss > 0.1
        assert last.x86_loss < 0.001
        assert last.x86_max_core_util < 0.9
        # Both upper tiers ended up populated: elephants on the chip,
        # a warm band on the DPUs, the tail still on x86.
        assert planner.keys_on("chip")
        assert planner.keys_on("dpu")
        assert last.offloaded_pps > 0 and last.dpu_served_pps > 0

    def test_dpu_shelf_absorbs_the_warm_band(self):
        loop, planner = run_loop()
        last = loop.snapshots[-1]
        # Warm flows are served where they were steered: at steady state
        # the devices serve what they are offered (no punts).
        assert last.dpu_served_pps == pytest.approx(last.dpu_offered_pps)
        assert last.dpu_fallback_pps == 0.0
        # Per-VIP rates are conserved across the split.
        chip_rate = sum(p.rate_pps for p in planner.placements.values()
                        if p.tier.value == "chip")
        assert chip_rate <= last.offloaded_pps * 1.01 + 1.0

    def test_decision_log_byte_identical_across_runs(self):
        _l1, p1 = run_loop(seed=7)
        _l2, p2 = run_loop(seed=7)
        assert p1.decision_log_text() == p2.decision_log_text()
        assert p1.decision_log_text()

    def test_tier_series_recorded(self):
        loop, planner = run_loop(5.0)
        series = loop.core_series
        for name in ("tier/chip/offered-pps", "tier/chip/cost-usd",
                     "tier/dpu/offered-pps", "tier/dpu/served-pps",
                     "tier/dpu/fallback-pps", "tier/dpu/cost-usd",
                     "tier/x86/offered-pps", "tier/x86/cost-usd",
                     "gw0/core-0"):
            assert name in series, name
        # One vocabulary: nothing outside the tier/ and per-box names.
        assert all(name.startswith(("tier/", "gw"))
                   for name in series.names())

    def test_cost_frontier_beats_all_x86(self):
        """Serving the same packets with the tiers engaged must cost less
        than the all-x86 opening interval (chip/dpu are cheaper per Mpkt)."""
        loop, _planner = run_loop()
        series = loop.core_series
        def tick_cost(index):
            return sum(series[f"tier/{tier}/cost-usd"].values[index]
                       for tier in ("chip", "dpu", "x86"))
        first_cost = tick_cost(0)
        last_cost = tick_cost(-1)
        assert last_cost < first_cost


class TestFallbackPath:
    def test_capacity_punts_fall_back_to_x86_same_interval(self):
        """A DPU that cannot serve its steered rate punts the excess to
        x86 inside the same tick — nothing is silently dropped."""
        ctrl = make_controller()
        cluster_id, _r, _v = onboard(ctrl, vni=1000)
        budget = ChipBudget(ctrl.clusters[cluster_id], sram_budget_words=64,
                            tcam_budget_slices=128)
        device = DpuDevice("dpu-0", gateway_ip=0x0A00F000,
                           profile=DpuProfile(max_pps=250.0))
        planner = TierPlanner(ctrl, cluster_id, budget, [device],
                              make_detector())
        flows = [spec("192.168.10.50", 200.0, 40000),
                 spec("192.168.10.51", 150.0, 40001),
                 spec("192.168.10.52", 130.0, 40002)]
        engine = Engine()
        loop = OffloadLoop(engine, [XgwX86(gateway_ip=0x0A000001)],
                           workload=lambda _t: flows, planner=planner)
        loop.start(until=4.0)
        engine.run(until=4.0)
        last = loop.snapshots[-1]
        # All three flows are dpu-warm but only 250pps fits: the hottest
        # 200pps flow is served, the rest re-offered to x86.
        assert last.dpu_offered_pps == pytest.approx(480.0)
        assert last.dpu_served_pps == pytest.approx(200.0)
        assert last.dpu_fallback_pps == pytest.approx(280.0)
        assert last.x86_offered_pps >= 280.0
        assert last.total_loss == 0.0
        # The punted VIPs still show a live rate (attribution merged
        # from x86 reports + dpu sweeps), so the detector keeps them.
        for flow in flows:
            assert planner.detector.dpu.smoothed_rate(vip_of(flow)) > 0


class TestModeValidation:
    def test_two_tier_mode_records_no_dpu_series(self):
        """The device list is the only mode: with none, the loop and the
        planner record no ``tier/dpu/*`` series at all."""
        loop, planner = run_loop(3.0, num_devices=0)
        assert planner.devices == {}
        assert "tier/chip/offered-pps" in loop.core_series
        assert "tier/chip/entries" in loop.core_series
        assert not any(name.startswith("tier/dpu/")
                       for name in loop.core_series.names())
        assert loop.snapshots[-1].dpu_offered_pps == 0.0
