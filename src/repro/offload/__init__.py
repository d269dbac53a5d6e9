"""Sketch-based heavy-hitter detection and capacity-aware traffic offload.

The decision layer of the hybrid deployment: *which* traffic runs on
XGW-H and which stays on XGW-x86. Sketches estimate per-VIP rates from
interval observations, an EWMA detector with promote/demote hysteresis
nominates migrations, and the placement planner
(:class:`repro.dpu.planner.TierPlanner`, built over this package)
executes them transactionally against the chip's compiler-reported
SRAM/TCAM headroom (:class:`ChipBudget`); :class:`OffloadLoop` closes
the loop.
"""

from .budget import ChipBudget, VipKey, entry_footprint
from .detector import (
    Decision,
    FlowState,
    HeavyHitterDetector,
    sweep_counter_rates,
)
from .loop import IntervalSnapshot, OffloadLoop, vip_of
from .parity import decision_state_dump
from .sketch import CountMinSketch, SpaceSaving

__all__ = [
    "ChipBudget",
    "CountMinSketch",
    "Decision",
    "FlowState",
    "HeavyHitterDetector",
    "IntervalSnapshot",
    "OffloadLoop",
    "SpaceSaving",
    "VipKey",
    "decision_state_dump",
    "entry_footprint",
    "sweep_counter_rates",
    "vip_of",
]
