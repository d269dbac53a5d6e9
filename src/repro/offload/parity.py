"""Byte-stable placement-state dump of the placement planner.

:class:`~repro.dpu.planner.TierPlanner` exposes ``budgets()`` (tier or
device name -> budget with a canonical ``snapshot()``) and
``decision_log_text()``. This module folds the two into one
deterministic dump, so crash-recovery and determinism tests assert
decision-log *and* budget parity — for any number of DPU devices,
zero included — from one helper instead of re-serialising each budget
kind by hand.

The dump is canonical JSON (sorted keys, no whitespace) followed by the
raw decision log; with a fixed seed it is byte-identical run to run,
which the DPU frontier bench asserts.
"""

from __future__ import annotations

import json


def decision_state_dump(planner) -> str:
    """The canonical budgets-plus-decision-log dump of one planner.

    >>> class _Budget:
    ...     def snapshot(self):
    ...         return {"kind": "chip", "used": {"sram_words": 1}}
    >>> class _Planner:
    ...     def budgets(self):
    ...         return {"chip": _Budget()}
    ...     def decision_log_text(self):
    ...         return "t=1.000 promote vni=7/ip=0a000001 rate=9.0pps x86->chip\\n"
    >>> print(decision_state_dump(_Planner()), end="")
    {"chip":{"kind":"chip","used":{"sram_words":1}}}
    t=1.000 promote vni=7/ip=0a000001 rate=9.0pps x86->chip
    """
    budgets = {name: budget.snapshot()
               for name, budget in planner.budgets().items()}
    header = json.dumps(budgets, sort_keys=True, separators=(",", ":"))
    return header + "\n" + planner.decision_log_text()
