"""TierPlanner placement mechanics: transactional moves across three
tiers, per-tier budgets with coldest-first eviction, byte-stable logs."""

import pytest

from tests.dpu.helpers import ip, make_detector, make_env, seed_sessions

from repro.dpu import Tier, TierDetector, TierPlanner
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.offload import (ChipBudget, HeavyHitterDetector, VipKey,
                           decision_state_dump, entry_footprint)

VNI = 1000


def vip(host):
    return VipKey(VNI, ip(host))


class TestDetectorStacking:
    def test_boundaries_must_nest(self):
        with pytest.raises(ValueError):
            TierDetector(
                chip=HeavyHitterDetector(theta_hi=50.0, theta_lo=20.0),
                dpu=HeavyHitterDetector(theta_hi=100.0, theta_lo=40.0))

    def test_single_boundary_without_a_dpu_detector(self):
        det = TierDetector(chip=HeavyHitterDetector(
            theta_hi=1000.0, theta_lo=400.0, promote_after=1, demote_after=1,
            ewma_alpha=1.0))
        key = vip("192.168.10.50")
        assert det.observe({key: 200.0}) == []
        assert [d.target for d in det.observe({key: 5000.0})] == [Tier.CHIP]
        assert det.demotion_target(key, Tier.CHIP) is Tier.X86
        assert [d.target for d in det.observe({key: 200.0})] == [Tier.X86]
        det.mark_placed(key, Tier.X86)  # no dpu boundary to reset
        assert det.target_tier(key) is Tier.X86

    def test_target_tier_follows_the_stacked_states(self):
        det = make_detector()
        key = vip("192.168.10.50")
        det.observe({key: 200.0})
        assert det.target_tier(key) is Tier.DPU
        det.observe({key: 5000.0})
        assert det.target_tier(key) is Tier.CHIP
        det.observe({key: 200.0})  # chip cools, dpu boundary still hot
        assert det.target_tier(key) is Tier.DPU
        det.observe({key: 0.0})
        assert det.target_tier(key) is Tier.X86

    def test_demotion_target_steps_down_one_tier_when_warm(self):
        det = make_detector()
        warm, cold = vip("192.168.10.50"), vip("192.168.10.51")
        det.observe({warm: 200.0, cold: 10.0})
        assert det.demotion_target(warm, Tier.CHIP) is Tier.DPU
        assert det.demotion_target(cold, Tier.CHIP) is Tier.X86
        assert det.demotion_target(warm, Tier.DPU) is Tier.X86


class TestTierMoves:
    def test_promote_to_dpu_installs_steering_through_the_controller(self):
        ctrl, _cid, planner, devices = make_env()
        key = vip("192.168.10.50")
        planner.observe_and_apply({key: 200.0}, now=1.0)
        tier, dev = planner.place_of(key)
        assert tier == "dpu" and dev in planner.devices
        action = ctrl.desired_routes(dev).get((key.vni, key.prefix))
        assert action is not None and action.target == "dpu"
        device = planner.devices[dev]
        assert device.tables.routing.lookup(key.vni, key.dst_ip, 4) is not None
        assert planner.dpu_budgets[dev].used_entries == 1

    def test_dpu_to_chip_promotion_moves_the_route_and_reaps_sessions(self):
        ctrl, cid, planner, _devices = make_env()
        key = vip("192.168.10.50")
        planner.observe_and_apply({key: 200.0}, now=1.0)
        _tier, dev = planner.place_of(key)
        seed_sessions(planner.devices[dev], key)
        planner.observe_and_apply({key: 5000.0}, now=2.0)
        assert planner.place_of(key) == ("chip", None)
        # Old tier fully vacated: no dpu route, no sessions, budget freed.
        assert (key.vni, key.prefix) not in ctrl.desired_routes(dev)
        assert planner.devices[dev].sessions.count_for(
            (key.vni, key.dst_ip, key.version)) == 0
        assert planner.dpu_budgets[dev].used_entries == 0
        # New tier holds exactly one steering route.
        action = ctrl.desired_routes(cid).get((key.vni, key.prefix))
        assert action is not None and action.target == "offload"
        assert planner.counters["sessions_reaped"] == 3

    def test_cooling_key_steps_down_chip_to_dpu_to_x86(self):
        ctrl, cid, planner, _devices = make_env()
        key = vip("192.168.10.50")
        planner.observe_and_apply({key: 5000.0}, now=1.0)
        planner.observe_and_apply({key: 5000.0}, now=2.0)
        assert planner.place_of(key)[0] == "chip"
        planner.observe_and_apply({key: 200.0}, now=3.0)
        assert planner.place_of(key)[0] == "dpu"
        planner.observe_and_apply({key: 0.0}, now=4.0)
        assert planner.place_of(key) == ("x86", None)
        # Nothing left anywhere: all steering withdrawn, budgets empty.
        assert not any(a.target in ("offload", "dpu")
                       for a in ctrl.desired_routes(cid).values())
        assert planner.chip_budget.used.sram_words == 0
        assert all(b.used_entries == 0 for b in planner.dpu_budgets.values())

    def test_chip_eviction_spills_warm_victim_to_dpu(self):
        fp = entry_footprint(4)
        _ctrl, _cid, planner, _devices = make_env(
            sram=2 * fp.sram_words, num_devices=1)
        a, b, c = vip("192.168.10.50"), vip("192.168.10.51"), vip("192.168.10.52")
        planner.observe_and_apply({a: 2000.0, b: 3000.0}, now=1.0)
        assert planner.place_of(a)[0] == "chip"
        assert planner.place_of(b)[0] == "chip"
        planner.observe_and_apply({a: 2000.0, b: 3000.0, c: 4000.0}, now=2.0)
        # c evicted the coldest (a); a is still dpu-warm so it stepped
        # down one tier instead of falling to x86.
        assert planner.place_of(c)[0] == "chip"
        assert planner.place_of(b)[0] == "chip"
        assert planner.place_of(a)[0] == "dpu"
        assert planner.counters["evictions"] == 1

    def test_dpu_eviction_falls_to_x86_when_devices_full(self):
        ctrl, _cid, planner, _devices = make_env(num_devices=1, entry_budget=2)
        cold, warm, hot = (vip("192.168.10.50"), vip("192.168.10.51"),
                           vip("192.168.10.52"))
        planner.observe_and_apply({cold: 150.0, warm: 200.0}, now=1.0)
        planner.observe_and_apply({cold: 150.0, warm: 200.0, hot: 300.0}, now=2.0)
        assert planner.place_of(hot)[0] == "dpu"
        assert planner.place_of(warm)[0] == "dpu"
        assert planner.place_of(cold) == ("x86", None)
        assert planner.counters["evictions"] == 1

    def test_admission_denied_when_nothing_colder(self):
        ctrl, _cid, planner, _devices = make_env(num_devices=1, entry_budget=1)
        hot, hotter = vip("192.168.10.50"), vip("192.168.10.51")
        planner.observe_and_apply({hot: 300.0}, now=1.0)
        # hotter cannot evict hot (hot is NOT colder than 200 < 300)...
        planner.observe_and_apply({hot: 300.0, hotter: 200.0}, now=2.0)
        assert planner.place_of(hotter) == ("x86", None)
        assert planner.counters["promotions_denied"] == 1
        assert any("deny" in line for line in planner.decision_log)

    def test_balanced_device_pick_is_deterministic(self):
        ctrl, _cid, planner, _devices = make_env(num_devices=2)
        a, b = vip("192.168.10.50"), vip("192.168.10.51")
        planner.observe_and_apply({a: 200.0, b: 150.0}, now=1.0)
        # Most-headroom-first with name tiebreak: one key per device.
        assert {planner.place_of(a)[1], planner.place_of(b)[1]} == \
            {"dpu-0", "dpu-1"}

    def test_aborted_withdraw_leaves_placement_intact(self):
        ctrl, _cid, planner, _devices = make_env()
        key = vip("192.168.10.50")
        planner.observe_and_apply({key: 200.0}, now=1.0)
        _tier, dev = planner.place_of(key)
        plan = FaultPlan(seed=5, specs=[
            FaultSpec(FaultKind.FAIL_ROUTE_WRITE, cluster=dev, at_writes=(0,))])
        FaultInjector(plan).arm_cluster(ctrl.clusters[dev])
        planner.observe_and_apply({key: 0.0}, now=2.0)  # demote aborts
        assert planner.place_of(key)[0] == "dpu"  # unchanged
        assert planner.counters["migrations_aborted"] == 1
        assert (key.vni, key.prefix) in ctrl.desired_routes(dev)
        assert any("abort-withdraw" in line for line in planner.decision_log)


class TestDeterminismAndState:
    def run_sequence(self):
        ctrl, _cid, planner, _devices = make_env()
        keys = [vip(f"192.168.10.{50 + i}") for i in range(6)]
        rates = {k: 120.0 + 30.0 * i for i, k in enumerate(keys)}
        planner.observe_and_apply(rates, now=1.0)
        rates[keys[0]] = 5000.0
        planner.observe_and_apply(rates, now=2.0)
        planner.observe_and_apply({k: 0.0 for k in keys}, now=3.0)
        return planner

    def test_decision_state_dump_is_byte_identical(self):
        one, two = self.run_sequence(), self.run_sequence()
        assert decision_state_dump(one) == decision_state_dump(two)
        assert decision_state_dump(one)

    def test_budgets_cover_every_tier(self):
        _ctrl, _cid, planner, _devices = make_env(num_devices=2)
        assert list(planner.budgets()) == ["chip", "dpu-0", "dpu-1"]
        kinds = {b.snapshot()["kind"] for b in planner.budgets().values()}
        assert kinds == {"chip", "dpu"}

    def test_rebuild_from_intent_restores_placements(self):
        ctrl, cid, planner, devices = make_env()
        keys = [vip("192.168.10.50"), vip("192.168.10.51")]
        planner.observe_and_apply({keys[0]: 5000.0, keys[1]: 200.0}, now=1.0)
        planner.observe_and_apply({keys[0]: 5000.0, keys[1]: 200.0}, now=2.0)
        before = {k: planner.place_of(k) for k in keys}
        fresh = TierPlanner(
            ctrl, cid,
            ChipBudget(ctrl.clusters[cid], sram_budget_words=64,
                       tcam_budget_slices=128),
            devices, make_detector())
        assert fresh.rebuild_from_intent() == 2
        assert {k: fresh.place_of(k) for k in keys} == before

    def test_telemetry_series_are_tier_labelled(self):
        _ctrl, _cid, planner, _devices = make_env()
        planner.observe_and_apply({vip("192.168.10.50"): 200.0}, now=1.0)
        for name in ("tier/chip/entries", "tier/chip/sram-occupancy",
                     "tier/dpu/entries", "tier/dpu/sessions",
                     "tier/dpu/dpu-0/entry-occupancy"):
            assert name in planner.series
        assert all(n.startswith("tier/") for n in planner.series.names())
