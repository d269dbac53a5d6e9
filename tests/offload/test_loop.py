"""End-to-end offload loop: overload on x86, relief via XGW-H."""

import pytest

from tests.dpu.helpers import run_loop

from repro.offload import IntervalSnapshot, OffloadLoop, vip_of
from repro.sim.engine import Engine


def build_loop(seed=7, duration=30.0):
    """The chip + x86 deployment: a planner with no DPU devices."""
    return run_loop(duration, num_devices=0, seed=seed)


class TestOffloadRelief:
    def test_overload_is_relieved(self):
        loop, planner = build_loop()
        first, last = loop.snapshots[0], loop.snapshots[-1]
        # Before offload: saturated cores, heavy loss (Fig. 4 regime).
        assert first.x86_max_core_util == 1.0
        assert first.x86_loss > 0.1
        # After: elephants on the chip, x86 comfortably below capacity.
        assert last.x86_loss < 0.001
        assert last.x86_max_core_util < 0.9
        assert planner.keys_on("chip")
        assert last.offloaded_pps > first.offloaded_pps

    def test_no_flapping_at_steady_state(self):
        _loop, planner = build_loop()
        # Elephants promote once and stay: zero demotes in the log.
        assert planner.counters["demotions"] == 0
        assert planner.counters["evictions"] == 0
        assert planner.counters["promotions"] == len(planner.keys_on("chip"))

    def test_occupancy_within_capacity(self):
        _loop, planner = build_loop()
        budget = planner.chip_budget
        occ = budget.occupancy()
        assert 0.0 < occ["sram"] <= 1.0
        assert 0.0 < occ["tcam"] <= 1.0
        used, cap = budget.used, budget.capacity()
        assert used.sram_words <= cap.sram_words
        assert used.tcam_slices <= cap.tcam_slices

    def test_decision_log_byte_identical_across_runs(self):
        _l1, p1 = build_loop(seed=7)
        _l2, p2 = build_loop(seed=7)
        assert p1.decision_log_text() == p2.decision_log_text()
        assert p1.decision_log_text()  # non-empty

    def test_hw_side_keeps_feeding_the_detector(self):
        """Offloaded VIPs keep a live rate through the counter sweep, so
        they stay HOT instead of decaying toward demotion."""
        _loop, planner = build_loop()
        chip = planner.detector.chip
        for key in planner.keys_on("chip"):
            assert chip.smoothed_rate(key) > chip.theta_lo

    def test_telemetry_series_cover_both_substrates(self):
        loop, planner = build_loop(duration=5.0)
        series = loop.core_series
        assert series is planner.series
        for name in ("tier/x86/offered-pps", "tier/x86/dropped-pps",
                     "tier/x86/max-core-util", "tier/chip/offered-pps",
                     "tier/chip/sram-occupancy"):
            assert name in series
        # Per-core utilisation series (Fig. 4 style) exist.
        assert "gw0/core-0" in series

    def test_snapshot_loss_properties(self):
        snap = IntervalSnapshot(time=0.0, x86_offered_pps=1000.0,
                                x86_dropped_pps=10.0, x86_max_core_util=0.5,
                                offloaded_pps=1000.0, hw_dropped_pps=0.0)
        assert snap.x86_loss == pytest.approx(0.01)
        assert snap.total_loss == pytest.approx(0.005)
        empty = IntervalSnapshot(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert empty.x86_loss == 0.0 and empty.total_loss == 0.0

    def test_vip_of_groups_by_destination(self):
        loop, _planner = build_loop(duration=2.0)
        flows = loop.workload(0.0)
        keys = {vip_of(f) for f in flows}
        assert all(k.vni == 1000 for k in keys)

    def test_loop_validation(self):
        _loop, planner = build_loop(duration=1.0)
        with pytest.raises(ValueError):
            OffloadLoop(Engine(), [], planner, lambda _t: [])
        with pytest.raises(ValueError):
            OffloadLoop(Engine(), _loop.x86_gateways, planner, lambda _t: [],
                        interval=0.0)
