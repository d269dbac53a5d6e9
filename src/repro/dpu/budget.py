"""Admission accounting for one DPU device, mirroring ChipBudget.

Where :class:`~repro.offload.budget.ChipBudget` meters SRAM words and
TCAM slices, a DPU's scarce resources are exact-match **flow entries**
and stateful **sessions**. The shapes match on purpose: both budgets
expose ``can_admit``/``charge``/``release``/``occupancy`` and a
canonical ``snapshot()``, so the tier planner treats every tier's
capacity through one protocol and the parity helper
(:func:`~repro.offload.parity.decision_state_dump`) serialises them
identically.
"""

from __future__ import annotations

from typing import Dict, Optional

from .device import DpuDevice


class DpuBudget:
    """Entry/session headroom accounting over one DPU device.

    Capacity is the device profile's table sizes minus a safety reserve,
    optionally clamped to explicit budgets — the slice of the device the
    operator is willing to spend on steered VIPs.

    >>> from repro.dpu.device import DpuDevice
    >>> budget = DpuBudget(DpuDevice("dpu-0", 0x0A0000FE), entry_budget=2,
    ...                    session_budget=8)
    >>> budget.can_admit(entries=1, sessions=4)
    True
    >>> budget.charge(entries=1, sessions=4)
    >>> budget.can_admit(entries=1, sessions=8)
    False
    >>> budget.occupancy()["entries"]
    0.5
    """

    def __init__(
        self,
        device: DpuDevice,
        reserve_fraction: float = 0.1,
        entry_budget: Optional[int] = None,
        session_budget: Optional[int] = None,
    ):
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self.device = device
        self.reserve_fraction = reserve_fraction
        self.entry_budget = entry_budget
        self.session_budget = session_budget
        self.used_entries = 0
        self.used_sessions = 0

    def capacity(self) -> Dict[str, int]:
        """Entries/sessions the steered set may occupy in total."""
        profile = self.device.profile
        entries = int(profile.flow_table_entries * (1.0 - self.reserve_fraction))
        sessions = int(profile.session_capacity * (1.0 - self.reserve_fraction))
        if self.entry_budget is not None:
            entries = min(entries, self.entry_budget)
        if self.session_budget is not None:
            sessions = min(sessions, self.session_budget)
        return {"entries": entries, "sessions": sessions}

    def headroom(self) -> Dict[str, int]:
        cap = self.capacity()
        return {"entries": cap["entries"] - self.used_entries,
                "sessions": cap["sessions"] - self.used_sessions}

    def can_admit(self, entries: int = 1, sessions: int = 0) -> bool:
        head = self.headroom()
        return entries <= head["entries"] and sessions <= head["sessions"]

    def charge(self, entries: int = 1, sessions: int = 0) -> None:
        if not self.can_admit(entries, sessions):
            raise ValueError("charging past DPU capacity (admission bug)")
        self.used_entries += entries
        self.used_sessions += sessions

    def release(self, entries: int = 1, sessions: int = 0) -> None:
        self.used_entries -= entries
        self.used_sessions -= sessions

    def occupancy(self) -> Dict[str, float]:
        """Fractions of the device budget currently used."""
        cap = self.capacity()
        return {
            "entries": self.used_entries / cap["entries"] if cap["entries"] else 0.0,
            "sessions": self.used_sessions / cap["sessions"] if cap["sessions"] else 0.0,
        }

    def snapshot(self) -> Dict[str, object]:
        """Canonical used/capacity view (see ``ChipBudget.snapshot``)."""
        cap = self.capacity()
        return {
            "kind": "dpu",
            "device": self.device.name,
            "used": {"entries": self.used_entries,
                     "sessions": self.used_sessions},
            "capacity": dict(cap),
        }
