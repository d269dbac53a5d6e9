"""Two-tier is the planner with zero DPU devices — shown, not assumed.

``golden_two_tier.json`` was captured at commit f9ed2ff, the last tree
with a separate two-tier scheduler and two-tier tick, from
``bench_offload_relief`` (seed 7) and ``bench_dpu_frontier``'s two-tier
run on its Zipf and flash-crowd shapes: the per-interval ``(time,
x86_offered_pps, x86_dropped_pps, x86_max_core_util, offloaded_pps,
hw_dropped_pps)`` tuples and the ordered ``(time, verb, key)`` moves of
its decision log (the scheduler's ``demote … evicted`` recorded as
``evict``; denials left out — the planner re-logs one each time the
detector renominates the key, which is the renomination the scheduler
lacked).
"""

import json
from pathlib import Path

import pytest

from tests.dpu.helpers import run_loop

GOLDEN = json.loads(Path(__file__).with_name("golden_two_tier.json").read_text())
SHAPES = {
    "relief": {},
    "zipf": {"chip_vips": 3},
    "flash-crowd": {"chip_vips": 3, "flash_crowd": True},
}


def run_shape(name):
    loop, planner = run_loop(num_devices=0, seed=7, **SHAPES[name])
    snapshots = [[s.time, s.x86_offered_pps, s.x86_dropped_pps,
                  s.x86_max_core_util, s.offloaded_pps, s.hw_dropped_pps]
                 for s in loop.snapshots]
    moves = []
    for line in planner.decision_log:
        stamp, verb, key = line.split()[:3]
        if verb in ("promote", "demote", "evict"):
            moves.append([float(stamp[2:]), verb, key])
    return loop, planner, snapshots, moves


@pytest.mark.parametrize("name", ["relief", "zipf"])
def test_zero_device_planner_reproduces_the_two_tier_run(name):
    _loop, _planner, snapshots, moves = run_shape(name)
    assert snapshots == GOLDEN[name]["snapshots"]
    assert moves == GOLDEN[name]["moves"]


def test_flash_crowd_matches_until_the_planner_refills_the_freed_slot():
    """Identical through t=25, where the surge VIP cools off the chip.
    The scheduler then left that slot empty for good (a VIP it had
    denied once stayed HOT and was never renominated); the planner
    re-admits the elephant evicted at t=11 within the same tick."""
    golden = GOLDEN["flash-crowd"]
    loop, planner, snapshots, moves = run_shape("flash-crowd")
    assert snapshots[:25] == golden["snapshots"][:25]
    assert snapshots[24][0] == 25.0
    assert moves[:-1] == golden["moves"]
    evicted_at_11 = golden["moves"][3][2]
    assert moves[-1] == [25.0, "promote", evicted_at_11]
    # End of run: the chip is full again and x86 drops less for it.
    assert len(planner.keys_on("chip")) == 3
    assert planner.chip_budget.occupancy()["sram"] == 1.0
    assert loop.snapshots[-1].x86_dropped_pps < golden["snapshots"][-1][2]
