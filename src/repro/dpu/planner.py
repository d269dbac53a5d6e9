"""Tier placement: chip / DPU / x86 (hierarchical co-offloading).

The one placement actor. Heavy stable flows go to the switch ASIC, warm
stateful sessions to a DPU, the cold and volatile tail stays on x86 —
and the DPU device list is the only dimension: a planner built with
``devices=[]`` is the original Sailfish chip + x86 deployment (§2.2,
Fig. 4), the zero-DPU case of the same closed loop. Three invariants,
per tier:

* **never over-commit a device** — chip admission goes through one
  :class:`~repro.offload.budget.ChipBudget`, DPU admission through one
  :class:`~repro.dpu.budget.DpuBudget` per device, and both
  evict coldest-first (colder than the candidate) before denying;
* **no partial migrations** — every tier move is two transactions in a
  fixed order: *withdraw from the source tier first, install on the
  target second, reap the source device's sessions last*. A
  :class:`~repro.core.controller.TransactionAborted` is absorbed (the
  planner is alive: the key simply lands on x86, the universal tier, and
  stale sessions are still reaped — zero residue). A
  :class:`~repro.core.journal.ControllerCrash` is **not** absorbed: the
  control process is dead, so nothing can reap — the source device's
  orphaned sessions are exactly the residue the
  ``tier-residue`` audit invariant detects and
  :class:`~repro.audit.repair.RepairBridge` clears after recovery.
  Route state itself is always clean: the crash gate fires before any
  gateway prepare, and uncommitted journal records are dropped on
  recovery;
* **hysteresis per boundary** — the :class:`TierDetector` runs one
  :class:`~repro.offload.detector.HeavyHitterDetector` per tier
  boundary, so a flow oscillating near either threshold migrates at
  most once in each direction across that boundary.

Every action (and every refusal) is appended to the canonical decision
log — ``promote … x86->chip``, ``demote … chip->x86``, ``evict``,
``deny … tier=chip no-headroom``, ``drain``, ``abort-*``; with a fixed
seed the log is byte-identical run to run, which the offload benches
assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cluster.cluster import GatewayCluster
from ..core.controller import Controller, RouteEntry, TransactionAborted
from ..core.economics import TierCostModel
from ..offload.budget import VipKey, entry_footprint
from ..offload.detector import FlowState, HeavyHitterDetector
from ..offload.sketch import _key_bytes
from ..tables.vxlan_routing import RouteAction, Scope
from ..telemetry.stats import CounterSet
from ..telemetry.timeseries import SeriesBundle
from .budget import DpuBudget
from .device import DpuDevice


class Tier(Enum):
    """The three serving substrates, ordered cheapest-per-packet last."""

    X86 = "x86"
    DPU = "dpu"
    CHIP = "chip"


#: x86 < dpu < chip: placement preference order (and the order ``apply``
#: executes moves in — demotions free capacity before promotions use it).
TIER_RANK: Dict[Tier, int] = {Tier.X86: 0, Tier.DPU: 1, Tier.CHIP: 2}


def dpu_route(key: VipKey) -> RouteEntry:
    """The steering route that sends one VIP to the DPU tier (the chip
    tier uses ``target="offload"``; see :meth:`VipKey.route`)."""
    return RouteEntry(key.vni, key.prefix,
                      RouteAction(Scope.LOCAL, target="dpu"))


@dataclass(frozen=True)
class TierDecision:
    """One per-interval placement decision: move *key* to *target*."""

    key: Hashable
    target: Tier
    rate_pps: float
    interval_index: int


class TierDetector:
    """Stacked heavy-hitter detectors, one per tier boundary.

    The *chip* detector's thresholds sit above the *dpu* detector's, so
    the hot set nests: a key the chip detector calls HOT belongs on the
    chip; else, HOT by the dpu detector means the DPU; else x86. Each
    boundary keeps the underlying detector's hysteresis, so per observe
    a key crosses each boundary at most once — and consecutive crossings
    of the same boundary alternate direction. Without a DPU tier there
    is one boundary: ``dpu=None`` and every key is chip or x86.

    >>> det = TierDetector(
    ...     chip=HeavyHitterDetector(theta_hi=1000.0, theta_lo=400.0,
    ...                              promote_after=1, ewma_alpha=1.0),
    ...     dpu=HeavyHitterDetector(theta_hi=100.0, theta_lo=40.0,
    ...                             promote_after=1, ewma_alpha=1.0))
    >>> [(d.key, d.target.value) for d in det.observe({"vip": 500.0})]
    [('vip', 'dpu')]
    >>> [(d.key, d.target.value) for d in det.observe({"vip": 5000.0})]
    [('vip', 'chip')]
    """

    def __init__(self, chip: HeavyHitterDetector,
                 dpu: Optional[HeavyHitterDetector] = None):
        if dpu is not None and chip.theta_hi <= dpu.theta_hi:
            raise ValueError(
                "chip boundary must sit above the dpu boundary "
                f"(chip theta_hi={chip.theta_hi} <= dpu theta_hi={dpu.theta_hi})"
            )
        self.chip = chip
        self.dpu = dpu

    def _dpu_hot(self, key: Hashable) -> bool:
        return self.dpu is not None and self.dpu.state_of(key) is FlowState.HOT

    def target_tier(self, key: Hashable) -> Tier:
        """Where the stacked hysteresis states currently put *key*."""
        if self.chip.state_of(key) is FlowState.HOT:
            return Tier.CHIP
        return Tier.DPU if self._dpu_hot(key) else Tier.X86

    def demotion_target(self, key: Hashable, from_tier: Tier) -> Tier:
        """Where a capacity eviction from *from_tier* should land: a
        chip victim still warm by the dpu boundary steps down one tier;
        everything else falls to x86."""
        if from_tier is Tier.CHIP and self._dpu_hot(key):
            return Tier.DPU
        return Tier.X86

    def mark_placed(self, key: Hashable, tier: Tier) -> None:
        """Sync boundary states after an external placement (eviction,
        drain, denied admission): every boundary above *tier* restarts
        its hysteresis from COLD."""
        if tier is not Tier.CHIP:
            self.chip.mark_demoted(key)
        if tier is Tier.X86 and self.dpu is not None:
            self.dpu.mark_demoted(key)

    def observe(self, rates: Mapping[Hashable, float]) -> List[TierDecision]:
        """Ingest one interval of (key -> pps); emit at most one
        :class:`TierDecision` per key whose boundary state changed."""
        index = self.chip.interval_index
        crossings = self.chip.observe(rates)
        if self.dpu is not None:
            crossings = crossings + self.dpu.observe(rates)
        changed: Dict[Hashable, float] = {}
        for decision in crossings:
            changed[decision.key] = max(changed.get(decision.key, 0.0),
                                        decision.rate_pps)
        decisions = [TierDecision(key, self.target_tier(key), rate, index)
                     for key, rate in changed.items()]
        decisions.sort(key=lambda d: (-d.rate_pps, _key_bytes(d.key)))
        return decisions


@dataclass
class TierPlacement:
    """One VIP currently steered off x86 (to the chip or to one DPU)."""

    key: VipKey
    tier: Tier
    device: Optional[str]  # DPU device name; None on the chip
    rate_pps: float
    since: float


class TierPlanner:
    """Places VIPs across chip / DPU / x86 through controller transactions.

    Owns one :class:`~repro.offload.budget.ChipBudget` (the chip
    cluster) and one :class:`~repro.dpu.budget.DpuBudget` per DPU
    device (``devices`` may be empty: chip + x86 only); each device is adopted into the controller as a single-member
    cluster named after it, so DPU steering routes ride the same
    two-phase transaction/journal/audit machinery as everything else.
    """

    def __init__(
        self,
        controller: Controller,
        chip_cluster_id: str,
        chip_budget,
        devices: Iterable[DpuDevice],
        detector: TierDetector,
        dpu_budgets: Optional[Dict[str, DpuBudget]] = None,
        sessions_per_vip: int = 4,
        cost_model: Optional[TierCostModel] = None,
    ):
        self.controller = controller
        self.chip_cluster_id = chip_cluster_id
        self.chip_budget = chip_budget
        self.devices: Dict[str, DpuDevice] = {d.name: d for d in devices}
        self.detector = detector
        self.dpu_budgets = dpu_budgets if dpu_budgets is not None else {
            name: DpuBudget(device) for name, device in self.devices.items()
        }
        if set(self.dpu_budgets) != set(self.devices):
            raise ValueError("dpu_budgets must cover exactly the devices")
        if sessions_per_vip <= 0:
            raise ValueError("sessions_per_vip must be positive")
        self.sessions_per_vip = sessions_per_vip
        self.cost_model = cost_model if cost_model is not None else TierCostModel()
        self.placements: Dict[VipKey, TierPlacement] = {}
        self.decision_log: List[str] = []
        self.counters = CounterSet()
        self.series = SeriesBundle()
        for name in sorted(self.devices):
            if name not in controller.clusters:
                controller.adopt_cluster(
                    name, GatewayCluster(name, [(name, self.devices[name])])
                )

    # -- queries ------------------------------------------------------------

    def place_of(self, key: VipKey) -> Tuple[str, Optional[str]]:
        """``(tier-name, device-name-or-None)`` for one VIP."""
        placement = self.placements.get(key)
        if placement is None:
            return (Tier.X86.value, None)
        return (placement.tier.value, placement.device)

    def keys_on(self, tier, device: Optional[str] = None) -> List[VipKey]:
        """VIPs on *tier* (a :class:`Tier` or its string value)."""
        tier = Tier(tier) if isinstance(tier, str) else tier
        return sorted(
            (p.key for p in self.placements.values()
             if p.tier is tier and (device is None or p.device == device)),
            key=lambda k: (k.vni, k.dst_ip, k.version),
        )

    def decision_log_text(self) -> str:
        """The canonical, byte-stable decision log."""
        return "\n".join(self.decision_log) + ("\n" if self.decision_log else "")

    def budgets(self) -> Dict[str, object]:
        """Every budget the planner places against, keyed by tier/device
        — what :func:`~repro.offload.parity.decision_state_dump` walks."""
        out: Dict[str, object] = {"chip": self.chip_budget}
        for name in sorted(self.dpu_budgets):
            out[name] = self.dpu_budgets[name]
        return out

    def _log(self, now: float, verb: str, key: VipKey, rate: float,
             detail: str = "") -> None:
        line = f"t={now:.3f} {verb} {key.label()} rate={rate:.1f}pps"
        if detail:
            line += f" {detail}"
        self.decision_log.append(line)

    # -- rate refresh -------------------------------------------------------

    def refresh_rates(self, rates: Mapping[VipKey, float]) -> None:
        """Update placed entries' estimated rates (eviction ordering)."""
        for key, placement in self.placements.items():
            if key in rates:
                placement.rate_pps = rates[key]

    # -- transactional primitives ------------------------------------------
    #
    # ControllerCrash deliberately propagates out of every primitive: it
    # models the control process dying, so "catch and carry on" would be
    # a lie. TransactionAborted is a clean rollback and is absorbed.

    def _withdraw(self, placement: TierPlacement, now: float) -> bool:
        key = placement.key
        cid = (self.chip_cluster_id if placement.tier is Tier.CHIP
               else placement.device)
        try:
            with self.controller.transaction(cid, time=now) as txn:
                txn.remove_route(key.vni, key.prefix)
        except TransactionAborted as exc:
            self.counters.add("migrations_aborted")
            self._log(now, "abort-withdraw", key, placement.rate_pps,
                      f"tier={placement.tier.value} {type(exc).__name__}")
            return False
        return True

    def _release(self, placement: TierPlacement) -> None:
        if placement.tier is Tier.CHIP:
            self.chip_budget.release(entry_footprint(placement.key.version))
        else:
            self.dpu_budgets[placement.device].release(1, self.sessions_per_vip)

    def _reap(self, device_name: str, key: VipKey) -> None:
        """End-of-migration drain: drop the old device's session contexts
        for one VIP. Always the LAST step of a move — a controller crash
        before this point leaves the sessions as audit-visible residue."""
        reaped = self.devices[device_name].sessions.drop_vip(
            (key.vni, key.dst_ip, key.version))
        if reaped:
            self.counters.add("sessions_reaped", reaped)

    def _coldest(self, tier: Tier, max_rate: float) -> Optional[TierPlacement]:
        candidates = [p for p in self.placements.values()
                      if p.tier is tier and p.rate_pps < max_rate]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda p: (p.rate_pps, p.key.vni, p.key.dst_ip))

    def _device_online(self, name: str) -> bool:
        if self.devices[name].failed:
            return False
        cluster = self.controller.clusters.get(name)
        return cluster is None or bool(cluster.active_members())

    # -- admissions ---------------------------------------------------------

    def _admit_chip(self, key: VipKey, rate: float, now: float,
                    src: Tier) -> bool:
        footprint = entry_footprint(key.version)
        while not self.chip_budget.can_admit(footprint):
            victim = self._coldest(Tier.CHIP, rate)
            if victim is None or not self._evict_chip(victim, now):
                self.counters.add("promotions_denied")
                self._log(now, "deny", key, rate, "tier=chip no-headroom")
                return False
        try:
            with self.controller.transaction(self.chip_cluster_id,
                                             time=now) as txn:
                txn.install_route(key.route())
        except TransactionAborted as exc:
            self.counters.add("migrations_aborted")
            self._log(now, "abort-install", key, rate,
                      f"tier=chip {type(exc).__name__}")
            return False
        self.chip_budget.charge(footprint)
        self.placements[key] = TierPlacement(key, Tier.CHIP, None, rate, now)
        self.counters.add("promotions")
        self._log(now, "promote", key, rate, f"{src.value}->chip")
        return True

    def _admit_dpu(self, key: VipKey, rate: float, now: float,
                   src: Tier, verb: str) -> bool:
        cid = self._dpu_slot(rate, now)
        if cid is None:
            self.counters.add("promotions_denied")
            self._log(now, "deny", key, rate, "tier=dpu no-headroom")
            return False
        try:
            with self.controller.transaction(cid, time=now) as txn:
                txn.install_route(dpu_route(key))
        except TransactionAborted as exc:
            self.counters.add("migrations_aborted")
            self._log(now, "abort-install", key, rate,
                      f"tier=dpu dev={cid} {type(exc).__name__}")
            return False
        self.dpu_budgets[cid].charge(1, self.sessions_per_vip)
        self.placements[key] = TierPlacement(key, Tier.DPU, cid, rate, now)
        self.counters.add("promotions")
        self._log(now, verb, key, rate, f"{src.value}->dpu dev={cid}")
        return True

    def _dpu_slot(self, rate: float, now: float) -> Optional[str]:
        """Pick the device with the most entry headroom; evict DPU
        entries colder than the candidate (to x86 only — eviction never
        climbs tiers, which bounds the cascade) until one fits."""
        while True:
            online = [name for name in sorted(self.devices)
                      if self._device_online(name)]
            if not online:
                return None
            fits = [name for name in online
                    if self.dpu_budgets[name].can_admit(1, self.sessions_per_vip)]
            if fits:
                fits.sort(key=lambda n: (-self.dpu_budgets[n].headroom()["entries"], n))
                return fits[0]
            victim = self._coldest(Tier.DPU, rate)
            if victim is None or not self._evict_dpu(victim, now):
                return None

    def _evict_chip(self, victim: TierPlacement, now: float) -> bool:
        """Demote one chip entry to make room; a still-warm victim steps
        down to the DPU tier, otherwise it falls to x86."""
        target = self.detector.demotion_target(victim.key, Tier.CHIP)
        if not self._withdraw(victim, now):
            return False
        self._release(victim)
        del self.placements[victim.key]
        self.counters.add("evictions")
        placed = Tier.X86
        if target is Tier.DPU and self._admit_dpu(
                victim.key, victim.rate_pps, now, Tier.CHIP, verb="evict"):
            placed = Tier.DPU
        else:
            self._log(now, "evict", victim.key, victim.rate_pps, "chip->x86")
        self.detector.mark_placed(victim.key, placed)
        return True

    def _evict_dpu(self, victim: TierPlacement, now: float) -> bool:
        device = victim.device
        if not self._withdraw(victim, now):
            return False
        self._release(victim)
        del self.placements[victim.key]
        self.counters.add("evictions")
        self._log(now, "evict", victim.key, victim.rate_pps,
                  f"dpu->x86 dev={device}")
        self.detector.mark_placed(victim.key, Tier.X86)
        self._reap(device, victim.key)
        return True

    # -- migrations ---------------------------------------------------------

    def _move(self, key: VipKey, rate: float, target: Tier, now: float) -> bool:
        """One tier move: withdraw-source txn, install-target txn, reap
        source sessions — in that order (see the module docstring for the
        crash semantics this ordering buys)."""
        current = self.placements.get(key)
        src = current.tier if current is not None else Tier.X86
        if src is target:
            if current is not None:
                current.rate_pps = rate
            return True
        src_device = current.device if current is not None else None
        if current is not None:
            if not self._withdraw(current, now):
                return False  # placement unchanged; retried next interval
            self._release(current)
            del self.placements[key]
        placed, ok = Tier.X86, True
        if target is Tier.CHIP:
            ok = self._admit_chip(key, rate, now, src)
            placed = Tier.CHIP if ok else Tier.X86
        elif target is Tier.DPU:
            verb = "promote" if src is Tier.X86 else "demote"
            ok = self._admit_dpu(key, rate, now, src, verb)
            placed = Tier.DPU if ok else Tier.X86
        else:
            self.counters.add("demotions")
            self._log(now, "demote", key, rate, f"{src.value}->x86")
        self.detector.mark_placed(key, placed)
        if src_device is not None:
            self._reap(src_device, key)
        return ok

    def apply(self, decisions: Sequence[TierDecision], now: float) -> None:
        """Execute one interval's decisions, demotions first (rank
        order), hottest first within a rank — freed capacity is
        available to the promotes that follow."""
        ordered = sorted(
            decisions,
            key=lambda d: (TIER_RANK[d.target], -d.rate_pps, _key_bytes(d.key)),
        )
        for decision in ordered:
            self._move(decision.key, decision.rate_pps, decision.target, now)

    def observe_and_apply(self, rates: Mapping[Hashable, float],
                          now: float) -> List[TierDecision]:
        """One closed-loop interval: detect, refresh, place, record."""
        decisions = self.detector.observe(rates)
        self.refresh_rates(rates)
        self.apply(decisions, now)
        self.record_telemetry(now)
        return decisions

    # -- failure drain ------------------------------------------------------

    def drain_failed(self, now: float) -> int:
        """Move every VIP off failed/offline DPU devices, through normal
        transactions (the withdraw still reaches the device's tables —
        intent must not keep steering traffic at a dead device). An
        aborted withdraw is retried on the next tick."""
        drained = 0
        for name in sorted(self.devices):
            if self._device_online(name):
                continue
            stuck = sorted(
                (p for p in self.placements.values() if p.device == name),
                key=lambda p: (p.key.vni, p.key.dst_ip, p.key.version),
            )
            for placement in stuck:
                if not self._withdraw(placement, now):
                    continue
                self._release(placement)
                del self.placements[placement.key]
                self._reap(name, placement.key)
                self.detector.mark_placed(placement.key, Tier.X86)
                self.counters.add("drains")
                self._log(now, "drain", placement.key, placement.rate_pps,
                          f"dpu->x86 dev={name} device-offline")
                drained += 1
        return drained

    # -- recovery -----------------------------------------------------------

    def rebuild_from_intent(self, now: float = 0.0) -> int:
        """Repopulate placements/budgets from the controller's desired
        state — for a planner constructed over a *recovered* controller
        (fresh budgets, journal already replayed). Returns the number of
        placements rebuilt."""
        self.placements.clear()
        for (vni, prefix), action in sorted(
                self.controller.desired_routes(self.chip_cluster_id).items(),
                key=lambda item: (item[0][0], item[0][1].network)):
            if action.target == "offload":
                key = VipKey(vni, prefix.network, prefix.version)
                self.chip_budget.charge(entry_footprint(key.version))
                self.placements[key] = TierPlacement(key, Tier.CHIP, None,
                                                     0.0, now)
        for name in sorted(self.devices):
            for (vni, prefix), action in sorted(
                    self.controller.desired_routes(name).items(),
                    key=lambda item: (item[0][0], item[0][1].network)):
                if action.target == "dpu":
                    key = VipKey(vni, prefix.network, prefix.version)
                    self.dpu_budgets[name].charge(1, self.sessions_per_vip)
                    self.placements[key] = TierPlacement(key, Tier.DPU, name,
                                                         0.0, now)
        return len(self.placements)

    # -- telemetry ----------------------------------------------------------

    def record_telemetry(self, now: float) -> None:
        occ = self.chip_budget.occupancy()
        self.series.record("tier/chip/entries", now,
                           float(len(self.keys_on(Tier.CHIP))))
        self.series.record("tier/chip/sram-occupancy", now, occ["sram"])
        self.series.record("tier/chip/tcam-occupancy", now, occ["tcam"])
        if not self.devices:
            return
        self.series.record("tier/dpu/entries", now,
                           float(len(self.keys_on(Tier.DPU))))
        self.series.record(
            "tier/dpu/sessions", now,
            float(sum(len(d.sessions) for d in self.devices.values())))
        for name in sorted(self.devices):
            docc = self.dpu_budgets[name].occupancy()
            self.series.record(f"tier/dpu/{name}/entry-occupancy", now,
                               docc["entries"])
            self.series.record(f"tier/dpu/{name}/session-occupancy", now,
                               docc["sessions"])
