"""The closed offload loop: measure → detect → migrate → measure again.

This is the hybrid-deployment control loop the paper's architecture
implies but never spells out: XGW-x86 boxes absorb the long tail while
the detector watches their per-flow interval reports; the moment a VIP's
smoothed rate crosses the promote threshold it is transactionally
steered onto the XGW-H cluster, whose counter sweeps then keep feeding
the same detector so cooled VIPs migrate back. One
:class:`~repro.sim.engine.Engine` periodic task drives the whole cycle.

Placement is one actor, the ``TierPlanner`` (see
:mod:`repro.dpu.planner`; duck-typed here, ``repro.offload`` never
imports ``repro.dpu``), and its device list is the only dimension: with
no DPU devices the loop is the original Sailfish chip + x86 deployment;
with devices, warm stateful flows are additionally steered onto them.
Each DPU serves its steered flows through its bounded session table;
whatever it cannot serve — steering miss, session overflow, capacity
punt, failed device — falls back to the x86 side *within the same
interval* (nothing is silently lost), and failed devices are drained
through controller transactions at the top of every tick.

Traffic accounting per interval:

* flows whose :class:`~.budget.VipKey` is placed on the chip are served
  by the XGW-H side — charged into a hardware :class:`CounterTable` (the
  per-stage counters a Tofino sweep would read) and clipped at the
  chip's packet budget;
* DPU-placed flows go through each device's rate model
  (``serve_interval``), whose per-VIP sweep counters attribute the
  served rates;
* the rest (plus DPU fallback) is RSS-sprayed over the x86 cluster's
  cores exactly as in the Fig. 4/5 experiments, producing per-flow
  offered/processed/dropped attribution;
* all sides' rates merge into one observation for the detector.

Telemetry is tier-labelled (``tier/chip/...``, ``tier/dpu/...``,
``tier/x86/...``, including per-tier ``cost-usd`` priced by
:class:`~repro.core.economics.TierCostModel`); the ``tier/dpu/...``
series exist iff the planner has devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.economics import TierCostModel
from ..sim.engine import Engine, PeriodicTask
from ..tables.counter import CounterTable
from ..workloads.flows import FlowSpec, split_flows_over_gateways
from ..x86.gateway import IntervalReport, XgwX86
from .budget import VipKey
from .detector import sweep_counter_rates


def vip_of(spec: FlowSpec) -> VipKey:
    """The offload steering unit a flow belongs to."""
    return VipKey(spec.vni, spec.flow.dst_ip, spec.flow.version)


@dataclass
class IntervalSnapshot:
    """One loop interval's aggregate outcome (for benches/examples)."""

    time: float
    x86_offered_pps: float
    x86_dropped_pps: float
    x86_max_core_util: float
    offloaded_pps: float
    hw_dropped_pps: float
    # Zero without DPU devices, so every derived figure reduces to the
    # chip + x86 arithmetic there.
    dpu_offered_pps: float = 0.0
    dpu_served_pps: float = 0.0
    dpu_fallback_pps: float = 0.0

    @property
    def x86_loss(self) -> float:
        return (self.x86_dropped_pps / self.x86_offered_pps
                if self.x86_offered_pps else 0.0)

    @property
    def total_loss(self) -> float:
        # x86_offered already includes the DPU fallback re-offer, so the
        # DPU contributes only what it actually served.
        offered = self.x86_offered_pps + self.offloaded_pps + self.dpu_served_pps
        dropped = self.x86_dropped_pps + self.hw_dropped_pps
        return dropped / offered if offered else 0.0


class OffloadLoop:
    """Wires the placement planner + gateway substrates to an engine.

    *workload* is called once per interval with the current engine time
    and returns the interval's offered :class:`FlowSpec` population.
    """

    def __init__(
        self,
        engine: Engine,
        x86_gateways: Sequence[XgwX86],
        planner,
        workload: Callable[[float], List[FlowSpec]],
        interval: float = 1.0,
        cost_model: Optional[TierCostModel] = None,
    ):
        if not x86_gateways:
            raise ValueError("need at least one XGW-x86 box")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.x86_gateways = list(x86_gateways)
        self.planner = planner
        self.workload = workload
        self.interval = interval
        self.cost_model = (cost_model if cost_model is not None
                           else planner.cost_model)
        #: Per-stage hardware counters the XGW-H side sweeps each interval.
        self.hw_counters = CounterTable("offload-hw")
        self.snapshots: List[IntervalSnapshot] = []
        #: Per-core utilisation (Fig. 4 style), "gw<i>/core-<j>" series.
        self.core_series = planner.series  # one bundle for the run

    # -- one interval -------------------------------------------------------

    def _serve_x86(self, flows: Sequence[FlowSpec]) -> List[IntervalReport]:
        buckets = split_flows_over_gateways(flows, len(self.x86_gateways))
        reports = []
        for gw, bucket in zip(self.x86_gateways, buckets):
            reports.append(gw.serve_interval([(f.flow, f.pps) for f in bucket]))
        return reports

    def _serve_hw(self, flows: Sequence[FlowSpec]) -> float:
        """Charge offloaded traffic to the chip; returns dropped pps.

        The chip's pps budget dwarfs any single x86 box (Fig. 18b), so
        drops only appear if offload overshoots the whole chip.
        """
        offered = sum(f.pps for f in flows)
        capacity = min((gw.max_pps() for gw in self._hw_gateways()),
                       default=float("inf"))
        charges: Dict[VipKey, list] = {}
        for spec in flows:
            packets = int(spec.pps * self.interval)
            acc = charges.get(vip_of(spec))
            if acc is None:
                charges[vip_of(spec)] = [packets, 0]
            else:
                acc[0] += packets
        if charges:
            self.hw_counters.count_batch_many(
                {vip: (acc[0], acc[1]) for vip, acc in charges.items()})
        return max(0.0, offered - capacity)

    def _hw_gateways(self):
        cluster = self.planner.controller.clusters[self.planner.chip_cluster_id]
        return [m.gateway for m in cluster.active_members()]

    def _x86_rates(self, reports: Sequence[IntervalReport],
                   flows: Sequence[FlowSpec]) -> Dict[VipKey, float]:
        rates: Dict[VipKey, float] = {}
        flow_to_vip = {f.flow: vip_of(f) for f in flows}
        for report in reports:
            for flow, pps in report.flow_offered_pps().items():
                key = flow_to_vip[flow]
                rates[key] = rates.get(key, 0.0) + pps
        return rates

    def tick(self) -> IntervalSnapshot:
        now = self.engine.now
        # Failed devices first: their VIPs must be re-steered before this
        # interval's traffic is partitioned.
        self.planner.drain_failed(now)
        flows = self.workload(now)
        chip_flows: List[FlowSpec] = []
        dpu_flows: Dict[str, List[FlowSpec]] = {
            name: [] for name in self.planner.devices}
        x86_flows: List[FlowSpec] = []
        for spec in flows:
            tier, device = self.planner.place_of(vip_of(spec))
            if tier == "chip":
                chip_flows.append(spec)
            elif tier == "dpu":
                dpu_flows[device].append(spec)
            else:
                x86_flows.append(spec)

        hw_dropped = self._serve_hw(chip_flows)
        fallback: List[FlowSpec] = []
        dpu_offered = dpu_served = 0.0
        for name in sorted(self.planner.devices):
            report = self.planner.devices[name].serve_interval(
                dpu_flows[name], self.interval, now)
            dpu_offered += report.offered_pps
            dpu_served += report.served_pps
            fallback.extend(report.fallback_specs)
        # The DPU-miss path: whatever a device punted is re-offered to
        # x86, the universal fallback tier, inside the same interval.
        reports = self._serve_x86(x86_flows + fallback)

        rates = self._x86_rates(reports, x86_flows + fallback)
        for key, pps in sweep_counter_rates(self.hw_counters, self.interval).items():
            rates[key] = rates.get(key, 0.0) + pps
        for name in sorted(self.planner.devices):
            sweeps = sweep_counter_rates(
                self.planner.devices[name].sweep_counters, self.interval)
            for key, pps in sweeps.items():
                rates[key] = rates.get(key, 0.0) + pps

        self.planner.observe_and_apply(rates, now)

        snapshot = IntervalSnapshot(
            time=now,
            x86_offered_pps=sum(r.offered_pps for r in reports),
            x86_dropped_pps=sum(r.dropped_pps for r in reports),
            x86_max_core_util=max(
                (u for r in reports for u in r.utilizations()), default=0.0),
            offloaded_pps=sum(f.pps for f in chip_flows),
            hw_dropped_pps=hw_dropped,
            dpu_offered_pps=dpu_offered,
            dpu_served_pps=dpu_served,
            dpu_fallback_pps=sum(f.pps for f in fallback),
        )
        self._record_interval(snapshot, reports)
        return snapshot

    # -- telemetry ----------------------------------------------------------

    def _record_interval(self, snapshot: IntervalSnapshot,
                         reports: Sequence[IntervalReport]) -> None:
        self.snapshots.append(snapshot)
        now = snapshot.time
        series = self.core_series
        chip_served = snapshot.offloaded_pps - snapshot.hw_dropped_pps
        x86_served = snapshot.x86_offered_pps - snapshot.x86_dropped_pps
        series.record("tier/chip/offered-pps", now, snapshot.offloaded_pps)
        series.record("tier/chip/dropped-pps", now, snapshot.hw_dropped_pps)
        series.record("tier/chip/cost-usd", now, self.cost_model.cost_usd(
            "chip", chip_served * self.interval))
        series.record("tier/x86/offered-pps", now, snapshot.x86_offered_pps)
        series.record("tier/x86/dropped-pps", now, snapshot.x86_dropped_pps)
        series.record("tier/x86/max-core-util", now, snapshot.x86_max_core_util)
        series.record("tier/x86/cost-usd", now, self.cost_model.cost_usd(
            "x86", x86_served * self.interval))
        if self.planner.devices:
            series.record("tier/dpu/offered-pps", now, snapshot.dpu_offered_pps)
            series.record("tier/dpu/served-pps", now, snapshot.dpu_served_pps)
            series.record("tier/dpu/fallback-pps", now, snapshot.dpu_fallback_pps)
            series.record("tier/dpu/cost-usd", now, self.cost_model.cost_usd(
                "dpu", snapshot.dpu_served_pps * self.interval))
        for gw_index, report in enumerate(reports):
            for core_index, util in enumerate(report.utilizations()):
                series.record(f"gw{gw_index}/core-{core_index}", now, util)
        # Flow-cache hit rate per box: a cheap workload-skew signal (a
        # Zipf-heavy mix caches well; a sprayed mix does not), recorded
        # alongside the core utilisations the detector already watches.
        for gw_index, gw in enumerate(self.x86_gateways):
            if gw.flow_cache is not None:
                gw.publish_cache_counters()
                series.record(f"gw{gw_index}/flowcache-hit-rate", now,
                              gw.flow_cache.hit_rate)

    # -- engine integration -------------------------------------------------

    def start(self, until: Optional[float] = None) -> PeriodicTask:
        """Register the loop on the engine; returns the cancel handle."""
        return self.engine.schedule_every(self.interval, self.tick, until=until)
