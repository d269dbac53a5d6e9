"""Capacity-aware chip admission and transactional migrations, driven
through a zero-device ``TierPlanner`` (the chip + x86 deployment)."""

import pytest

from tests.faults.helpers import make_controller, onboard
from tests.faults.test_crash_recovery import recover_into_new_controller

from repro.cluster.cluster import GatewayCluster
from repro.core.journal import ControllerCrash, Journal
from repro.core.xgw_h import XgwH
from repro.dpu import TierDetector, TierPlanner
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.offload import (ChipBudget, FlowState, HeavyHitterDetector, VipKey,
                           entry_footprint)
from repro.tables.geometry import MemoryFootprint


def make_planner(ctrl, cluster_id, sram=8, tcam=64):
    """Instant-reaction chip boundary: >= 1000 pps promotes, <= 400 pps
    demotes, each after one interval."""
    budget = ChipBudget(ctrl.clusters[cluster_id], sram_budget_words=sram,
                        tcam_budget_slices=tcam)
    detector = TierDetector(chip=HeavyHitterDetector(
        theta_hi=1000.0, theta_lo=400.0, promote_after=1, demote_after=1,
        ewma_alpha=1.0))
    return TierPlanner(ctrl, cluster_id, budget, [], detector)


def build(journal=False, **budget_kwargs):
    ctrl = make_controller()
    if journal:
        ctrl.journal = Journal()
    cluster_id, _routes, _vms = onboard(ctrl, vni=1000)
    return ctrl, cluster_id, make_planner(ctrl, cluster_id, **budget_kwargs)


def vip(i=1):
    return VipKey(1000, 0x0A0000FF + i)


def steering_routes(cluster):
    """The offload steering routes visible on each member, as sets."""
    out = []
    for member in cluster.all_members():
        out.append({(v, p) for v, p, a in member.gateway.tables.routing.items()
                    if a.target == "offload"})
    return out


class TestChipBudget:
    def test_capacity_honours_explicit_budget(self):
        _ctrl, _cid, planner = build(sram=8, tcam=64)
        cap = planner.chip_budget.capacity()
        assert cap.sram_words == 8 and cap.tcam_slices == 64

    def test_compiler_free_caps_without_budget(self):
        cluster = GatewayCluster("A", [("gw0", XgwH(1))])
        budget = ChipBudget(cluster, reserve_fraction=0.25)
        free = budget._compiler_free()
        cap = budget.capacity()
        assert cap.sram_words == int(free.sram_words * 0.75)
        assert cap.tcam_slices == int(free.tcam_slices * 0.75)

    def test_charge_and_release_roundtrip(self):
        _ctrl, _cid, planner = build()
        budget, fp = planner.chip_budget, entry_footprint()
        before = budget.headroom()
        budget.charge(fp)
        assert budget.headroom().sram_words == before.sram_words - 1
        budget.release(fp)
        assert budget.headroom().sram_words == before.sram_words

    def test_charge_past_capacity_raises(self):
        _ctrl, _cid, planner = build(sram=1)
        planner.chip_budget.charge(entry_footprint())
        with pytest.raises(ValueError):
            planner.chip_budget.charge(entry_footprint())

    def test_validation(self):
        with pytest.raises(ValueError):
            ChipBudget(None, reserve_fraction=1.0)


class TestMigrations:
    def test_promote_installs_on_every_member(self):
        ctrl, cid, planner = build()
        planner.observe_and_apply({vip(): 5000.0}, now=1.0)
        assert planner.place_of(vip()) == ("chip", None)
        for routes in steering_routes(ctrl.clusters[cid]):
            assert (1000, vip().prefix) in routes
        assert ctrl.consistency_check(cid) == []

    def test_demote_withdraws_everywhere(self):
        ctrl, cid, planner = build()
        planner.observe_and_apply({vip(): 5000.0}, now=1.0)
        planner.observe_and_apply({vip(): 10.0}, now=2.0)
        for routes in steering_routes(ctrl.clusters[cid]):
            assert routes == set()
        assert planner.place_of(vip()) == ("x86", None)
        assert planner.chip_budget.used == MemoryFootprint.zero()
        assert planner.counters["demotions"] == 1

    def test_promote_idempotent(self):
        _ctrl, _cid, planner = build()
        planner.observe_and_apply({vip(): 5000.0}, now=1.0)
        planner.observe_and_apply({vip(): 6000.0}, now=2.0)
        assert planner.counters["promotions"] == 1
        assert planner.chip_budget.used == entry_footprint()

    def test_demote_unknown_is_noop(self):
        _ctrl, _cid, planner = build()
        planner.observe_and_apply({vip(9): 0.0}, now=1.0)
        assert planner.counters["demotions"] == 0
        assert planner.decision_log == []


class TestCapacityAwareAdmission:
    def test_never_overcommits(self):
        """With room for 2 entries, a third hotter VIP evicts the
        coldest; the budget never exceeds capacity."""
        _ctrl, _cid, planner = build(sram=2)
        rates = {vip(1): 2000.0, vip(2): 3000.0}
        planner.observe_and_apply(rates, now=1.0)
        planner.observe_and_apply({**rates, vip(3): 4000.0}, now=2.0)
        assert planner.keys_on("chip") == [vip(2), vip(3)]
        budget = planner.chip_budget
        assert budget.used.sram_words <= budget.capacity().sram_words

    def test_eviction_is_coldest_first(self):
        _ctrl, _cid, planner = build(sram=3)
        rates = {vip(1): 1500.0, vip(2): 1100.0, vip(3): 1900.0}
        planner.observe_and_apply(rates, now=1.0)
        planner.observe_and_apply({**rates, vip(4): 1800.0}, now=2.0)
        assert planner.keys_on("chip") == [vip(1), vip(3), vip(4)]

    def test_denied_when_nothing_colder(self):
        _ctrl, _cid, planner = build(sram=1)
        planner.observe_and_apply({vip(1): 9000.0}, now=1.0)
        planner.observe_and_apply({vip(1): 9000.0, vip(2): 1500.0}, now=2.0)
        assert planner.counters["promotions_denied"] == 1
        assert planner.keys_on("chip") == [vip(1)]
        assert any(" deny " in line and "tier=chip no-headroom" in line
                   for line in planner.decision_log)

    def test_eviction_resets_detector_state(self):
        _ctrl, _cid, planner = build(sram=1)
        planner.observe_and_apply({vip(1): 1500.0}, now=1.0)
        planner.observe_and_apply({vip(1): 1500.0, vip(2): 1900.0}, now=2.0)
        assert planner.keys_on("chip") == [vip(2)]  # evicted vip(1)
        assert planner.detector.chip.state_of(vip(1)) is FlowState.COLD

    def test_denied_vip_takes_the_slot_once_it_frees(self):
        """The stranded-slot regression: a VIP denied once must be
        renominated, so the slot its rival vacates is refilled."""
        _ctrl, _cid, planner = build(sram=1)
        a, b = vip(1), vip(2)
        planner.observe_and_apply({a: 5000.0, b: 10.0}, now=1.0)
        planner.observe_and_apply({a: 5000.0, b: 3000.0}, now=2.0)  # b denied
        assert planner.keys_on("chip") == [a]
        planner.observe_and_apply({a: 1.0, b: 3000.0}, now=3.0)  # a demoted
        assert planner.keys_on("chip") == [b]
        assert planner.chip_budget.occupancy()["sram"] == 1.0


class TestCrashSafety:
    def arm(self, ctrl, *specs, seed=11):
        plan = FaultPlan(seed=seed, specs=list(specs))
        FaultInjector(plan).arm_controller(ctrl)
        return plan

    def recover(self, ctrl, cid):
        """The control process died: a fresh controller replays the
        journal, a fresh planner rebuilds from its intent."""
        recovered, _writes = recover_into_new_controller(ctrl)
        assert recovered.consistency_check(cid) == []
        return recovered, make_planner(recovered, cid)

    def test_controller_crash_mid_promote_leaves_zero_partial_state(self):
        ctrl, cid, planner = build(journal=True)
        # The injector counts from arming: the promote txn is mutation 0.
        plan = self.arm(ctrl, FaultSpec(FaultKind.CONTROLLER_CRASH,
                                        at_mutations=(0,)))
        with pytest.raises(ControllerCrash):
            planner.observe_and_apply({vip(): 5000.0}, now=1.0)
        assert plan.injected(FaultKind.CONTROLLER_CRASH) == 1
        # Zero partial state: nothing placed, no budget charged, no
        # steering route on any member (the crash hit before prepare).
        assert planner.placements == {}
        assert planner.chip_budget.used == MemoryFootprint.zero()
        for routes in steering_routes(ctrl.clusters[cid]):
            assert routes == set()

    def test_recovery_after_crash_converges(self):
        """Recovery replays the journal; the uncommitted migration txn
        is discarded (all-or-nothing), the cluster converges with zero
        partial routes, and the migration can simply be retried."""
        ctrl, cid, planner = build(journal=True)
        self.arm(ctrl, FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(0,)))
        with pytest.raises(ControllerCrash):
            planner.observe_and_apply({vip(): 5000.0}, now=1.0)

        recovered, retry = self.recover(ctrl, cid)
        # The crashed txn never committed, so no member carries it and
        # there is nothing to rebuild.
        for routes in steering_routes(recovered.clusters[cid]):
            assert routes == set()
        assert retry.rebuild_from_intent() == 0
        # The detector renominates next interval; the retried migration
        # goes through cleanly on the recovered controller.
        retry.observe_and_apply({vip(): 5000.0}, now=2.0)
        assert retry.place_of(vip()) == ("chip", None)
        assert recovered.consistency_check(cid) == []

    def test_crash_mid_demote_keeps_entry_consistent(self):
        ctrl, cid, planner = build(journal=True)
        planner.observe_and_apply({vip(): 5000.0}, now=1.0)
        # Arm after the promote: the demote txn is mutation 0.
        self.arm(ctrl, FaultSpec(FaultKind.CONTROLLER_CRASH, at_mutations=(0,)))
        with pytest.raises(ControllerCrash):
            planner.observe_and_apply({vip(): 10.0}, now=2.0)
        # The entry stays placed and installed everywhere — no member
        # saw a partial withdraw.
        assert planner.place_of(vip()) == ("chip", None)
        for routes in steering_routes(ctrl.clusters[cid]):
            assert (1000, vip().prefix) in routes
        # ...which is exactly what the recovered planner rebuilds.
        _recovered, rebuilt = self.recover(ctrl, cid)
        assert rebuilt.rebuild_from_intent() == 1
        assert rebuilt.place_of(vip()) == ("chip", None)
        assert rebuilt.chip_budget.used == entry_footprint()


class TestDecisionLog:
    def run_sequence(self):
        _ctrl, _cid, planner = build(sram=2)
        rates = {vip(1): 2000.0, vip(2): 3000.0}
        planner.observe_and_apply(rates, now=1.0)
        planner.observe_and_apply({**rates, vip(3): 4000.0}, now=2.0)
        planner.observe_and_apply({**rates, vip(3): 20.0}, now=3.0)
        return planner.decision_log_text()

    def test_byte_identical_across_runs(self):
        assert self.run_sequence() == self.run_sequence()

    def test_log_lines_are_canonical(self):
        lines = self.run_sequence().splitlines()
        assert [line.split()[1] for line in lines] == [
            "promote", "promote", "evict", "promote", "demote", "promote"]
        for line in lines:
            assert line.startswith("t=") and " rate=" in line
            assert line.endswith(("x86->chip", "chip->x86"))

    def test_telemetry_series_recorded(self):
        _ctrl, _cid, planner = build()
        planner.observe_and_apply({vip(): 5000.0}, now=1.0)
        planner.observe_and_apply({vip(): 5000.0}, now=2.0)
        for name in ("tier/chip/entries", "tier/chip/sram-occupancy",
                     "tier/chip/tcam-occupancy"):
            assert name in planner.series
        assert planner.series["tier/chip/entries"].value_at(2.0) == 1.0
        assert not any(name.startswith("tier/dpu/") for name in planner.series.names())
