"""The offload steering unit and the chip's admission accounting.

:class:`VipKey` is what the placement planner
(:class:`~repro.dpu.planner.TierPlanner`) moves between tiers;
:func:`entry_footprint` is what one steering entry costs on the chip;
:class:`ChipBudget` is the SRAM/TCAM headroom the planner admits chip
entries against — before admitting one it asks the Tofino
:class:`~repro.tofino.compiler.Compiler` for each member pipeline's
remaining headroom and refuses (or evicts colder entries) when the entry
would not fit everywhere the cluster replicates it. The DPU tier's
counterpart is :class:`~repro.dpu.budget.DpuBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.controller import RouteEntry
from ..net.addr import Prefix
from ..tables.geometry import MemoryFootprint, tcam_slices_for, VNI_BITS
from ..tofino.compiler import Compiler
from ..tofino.memory import SRAM_WORDS_PER_PIPELINE, TCAM_SLICES_PER_PIPELINE
from ..tables.vxlan_routing import RouteAction, Scope


@dataclass(frozen=True)
class VipKey:
    """The offload unit: one tenant VIP (VNI + inner destination IP).

    The VPC is the split unit for placement (§4.3); the VIP is the
    steering unit for offload — fine enough to move a single elephant,
    coarse enough that one entry covers a whole service endpoint.
    """

    vni: int
    dst_ip: int
    version: int = 4

    @property
    def prefix(self) -> Prefix:
        bits = 32 if self.version == 4 else 128
        return Prefix.of(self.dst_ip, bits, self.version)

    def route(self) -> RouteEntry:
        return RouteEntry(self.vni, self.prefix,
                          RouteAction(Scope.LOCAL, target="offload"))

    def label(self) -> str:
        width = 8 if self.version == 4 else 32
        return f"vni={self.vni}/ip={self.dst_ip:0{width}x}"


#: Steering-entry cost: the (VNI, host IP) key in TCAM plus one SRAM
#: action word — what the compiler charges per offloaded VIP.
def entry_footprint(version: int = 4) -> MemoryFootprint:
    key_bits = VNI_BITS + (32 if version == 4 else 128)
    return MemoryFootprint(sram_words=1, tcam_slices=tcam_slices_for(key_bits))


class ChipBudget:
    """SRAM/TCAM headroom accounting over one XGW-H cluster.

    Headroom is what the Tofino compiler reports as *unallocated* on the
    tightest pipeline of the tightest member (entries replicate to every
    member including the hot backup, so the minimum governs), minus a
    safety reserve, optionally clamped to an explicit offload-table
    budget (`sram_budget_words` / `tcam_budget_slices`) — the slice of
    the chip the operator is willing to spend on steering entries.

    >>> from repro.cluster.cluster import GatewayCluster
    >>> from repro.core.xgw_h import XgwH
    >>> cluster = GatewayCluster("A", [("gw0", XgwH(1))])
    >>> budget = ChipBudget(cluster, sram_budget_words=10, tcam_budget_slices=20)
    >>> budget.can_admit(entry_footprint())
    True
    """

    def __init__(
        self,
        cluster,
        reserve_fraction: float = 0.1,
        sram_budget_words: Optional[int] = None,
        tcam_budget_slices: Optional[int] = None,
    ):
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self.cluster = cluster
        self.reserve_fraction = reserve_fraction
        self.sram_budget_words = sram_budget_words
        self.tcam_budget_slices = tcam_budget_slices
        self.used = MemoryFootprint.zero()

    def _compiler_free(self) -> MemoryFootprint:
        """Min free words/slices across every member's pipelines, as the
        compiler's occupancy view reports them."""
        free_sram: Optional[int] = None
        free_tcam: Optional[int] = None
        for member in self.cluster.all_members():
            chip = getattr(member.gateway, "chip", None)
            if chip is None:  # pragma: no cover - non-XgwH member
                continue
            occupancy = Compiler(chip.fabric).occupancy()
            for footprint in occupancy.values():
                sram = SRAM_WORDS_PER_PIPELINE - footprint.sram_words
                tcam = TCAM_SLICES_PER_PIPELINE - footprint.tcam_slices
                free_sram = sram if free_sram is None else min(free_sram, sram)
                free_tcam = tcam if free_tcam is None else min(free_tcam, tcam)
        if free_sram is None:
            free_sram, free_tcam = SRAM_WORDS_PER_PIPELINE, TCAM_SLICES_PER_PIPELINE
        return MemoryFootprint(sram_words=free_sram, tcam_slices=free_tcam)

    def capacity(self) -> MemoryFootprint:
        """Words/slices the offload table may occupy in total."""
        free = self._compiler_free()
        sram = int(free.sram_words * (1.0 - self.reserve_fraction))
        tcam = int(free.tcam_slices * (1.0 - self.reserve_fraction))
        if self.sram_budget_words is not None:
            sram = min(sram, self.sram_budget_words)
        if self.tcam_budget_slices is not None:
            tcam = min(tcam, self.tcam_budget_slices)
        return MemoryFootprint(sram_words=sram, tcam_slices=tcam)

    def headroom(self) -> MemoryFootprint:
        cap = self.capacity()
        return MemoryFootprint(
            sram_words=cap.sram_words - self.used.sram_words,
            tcam_slices=cap.tcam_slices - self.used.tcam_slices,
        )

    def can_admit(self, footprint: MemoryFootprint) -> bool:
        head = self.headroom()
        return (footprint.sram_words <= head.sram_words
                and footprint.tcam_slices <= head.tcam_slices)

    def charge(self, footprint: MemoryFootprint) -> None:
        if not self.can_admit(footprint):
            raise ValueError("charging past chip capacity (admission bug)")
        self.used = self.used + footprint

    def release(self, footprint: MemoryFootprint) -> None:
        self.used = MemoryFootprint(
            sram_words=self.used.sram_words - footprint.sram_words,
            tcam_slices=self.used.tcam_slices - footprint.tcam_slices,
        )

    def occupancy(self) -> Dict[str, float]:
        """Fractions of the offload budget currently used."""
        cap = self.capacity()
        return {
            "sram": self.used.sram_words / cap.sram_words if cap.sram_words else 0.0,
            "tcam": self.used.tcam_slices / cap.tcam_slices if cap.tcam_slices else 0.0,
        }

    def snapshot(self) -> Dict[str, object]:
        """Canonical used/capacity view, shaped exactly like
        :meth:`repro.dpu.budget.DpuBudget.snapshot` so
        :func:`~repro.offload.parity.decision_state_dump` serialises
        every tier's budget from one code path."""
        cap = self.capacity()
        return {
            "kind": "chip",
            "used": {"sram_words": self.used.sram_words,
                     "tcam_slices": self.used.tcam_slices},
            "capacity": {"sram_words": cap.sram_words,
                         "tcam_slices": cap.tcam_slices},
        }
