"""XGW-x86: the DPDK-style software gateway (§2.2-2.3).

Two faces:

* a **functional** gateway — full DRAM-backed tables, the shared
  forwarding program, plus stateful services (SNAT) the hardware
  cannot run;
* a **capacity model** — NIC bandwidth, RSS queueing and per-core pps
  limits, used by the longitudinal CPU-overload experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataplane.columnar import BatchCompiler, PacketBatch
from ..dataplane.flowcache import (
    DEFAULT_CAPACITY,
    FlowCache,
    forward_cached,
    forward_cached_batch,
)
from ..dataplane.gateway_logic import (
    ACTION_COUNTERS,
    DropReason,
    ForwardAction,
    ForwardResult,
    GatewayTables,
    count_drop,
    count_drops,
    forward,
)
from ..dataplane.migration import MigrationState
from ..dataplane.services import SnatService
from ..net.addr import Prefix
from ..net.flow import FlowKey
from ..net.packet import Packet
from ..tables.snat import SnatTable
from ..tables.vm_nc import NcBinding
from ..tables.vxlan_routing import RouteAction
from ..telemetry.stats import CounterSet
from .cpu import CoreInterval, CpuComplex, DEFAULT_CORE_PPS
from .nic import Nic

#: Calibration for Fig. 18 / §2.3: a ~$10K box that "can maximally handle
#: 100Gbps", 32 cores. 3.2T / 100G > 20x bps; 1.8G / 25M = 72x pps; the
#: CPU becomes the bottleneck below ~480B packets ("line rate with packets
#: larger than 512B").
DEFAULT_NIC_BPS = 100e9
DEFAULT_CORES = 32
#: Measured forwarding latency of the paper's XGW-x86 (Fig. 18c).
FORWARDING_LATENCY_US = 40.0


@dataclass
class IntervalReport:
    """One sampling interval of the capacity model."""

    core_intervals: List[CoreInterval]
    offered_pps: float
    dropped_pps: float

    @property
    def loss_rate(self) -> float:
        return self.dropped_pps / self.offered_pps if self.offered_pps else 0.0

    def utilizations(self) -> List[float]:
        return [ci.utilization for ci in self.core_intervals]

    # -- per-flow attribution (offload decision input) ---------------------
    #
    # RSS pins each flow to one core; within a core, drops are
    # proportional across flows (the RX queue overflows without regard
    # to ownership), so a flow's share of its core's offered load is
    # also its share of the processed and dropped rates. This is what
    # lets the heavy-hitter detector attribute loss to specific flows
    # instead of only seeing the aggregate.

    def _per_flow(self, field_name: str) -> Dict[FlowKey, float]:
        out: Dict[FlowKey, float] = {}
        for ci in self.core_intervals:
            total = getattr(ci, field_name)
            for flow, share in ci.flow_share.items():
                out[flow] = out.get(flow, 0.0) + share * total
        return out

    def flow_offered_pps(self) -> Dict[FlowKey, float]:
        """Per-flow offered rate over the interval."""
        return self._per_flow("offered_pps")

    def flow_processed_pps(self) -> Dict[FlowKey, float]:
        """Per-flow processed rate (offered minus attributed drops)."""
        return self._per_flow("processed_pps")

    def flow_dropped_pps(self) -> Dict[FlowKey, float]:
        """Per-flow dropped rate — who is actually losing packets."""
        return self._per_flow("dropped_pps")


class XgwX86:
    """One software gateway box.

    >>> gw = XgwX86(gateway_ip=0x0A00000A)
    >>> gw.total_capacity_pps > 0
    True
    """

    def __init__(
        self,
        gateway_ip: int,
        tables: Optional[GatewayTables] = None,
        snat: Optional[SnatTable] = None,
        num_cores: int = DEFAULT_CORES,
        core_pps: float = DEFAULT_CORE_PPS,
        nic_bps: float = DEFAULT_NIC_BPS,
        burstiness: float = 0.0,
        cache_entries: int = DEFAULT_CAPACITY,
        columnar: bool = True,
    ):
        self.gateway_ip = gateway_ip
        self.tables = tables if tables is not None else GatewayTables()
        self.cpu = CpuComplex(num_cores=num_cores, core_pps=core_pps,
                              burstiness=burstiness)
        self.nic = Nic(bandwidth_bps=nic_bps, num_queues=num_cores)
        self.snat_service = (
            SnatService(snat, self.tables, gateway_ip) if snat is not None else None
        )
        self.counters = CounterSet()
        #: The fast path (§2.2): one resolved decision per (VNI, dst,
        #: version), generation-guarded. ``cache_entries=0`` disables it
        #: (every packet takes the full table walk — the pre-cache model).
        self.flow_cache: Optional[FlowCache] = (
            FlowCache(cache_entries) if cache_entries > 0 else None
        )
        self._published_cache_counters: Dict[str, int] = {}
        #: The columnar batch path (DESIGN §13): ``forward_batch`` compiles
        #: the placed program once per table-generation vector and executes
        #: it over struct-of-arrays bursts, SNAT requests included as a
        #: stage. ``columnar=False`` keeps the flow-cache per-packet batch
        #: loop (the differential oracle's shape, and the path
        #: cache-telemetry consumers rely on).
        self._batch_compiler: Optional[BatchCompiler] = (
            BatchCompiler(self.tables, gateway_ip, snat=self.snat_service)
            if columnar else None
        )
        self._compiled = None
        #: Live-migration freeze state, attached lazily by
        #: :func:`repro.dataplane.migration.ensure_migration_state`.
        self.migration: Optional[MigrationState] = None

    # -- functional path ----------------------------------------------------

    def forward(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """Forward one packet, consulting the flow cache before the slow
        path (results are identical either way; only the cost differs)."""
        self.counters.add("rx_packets")
        result = (self.migration.intercept(packet, now)
                  if self.migration is not None else None)
        if result is None:
            if self.flow_cache is not None:
                result = forward_cached(self.tables, self.flow_cache, packet,
                                        self.gateway_ip, now)
            else:
                result = forward(self.tables, packet, self.gateway_ip, now)
            if (
                result.action is ForwardAction.REDIRECT_X86
                and self.snat_service is not None
                and result.detail == "snat"
            ):
                # We *are* the software gateway: run the service locally.
                result = self.snat_service.handle_request(packet, now)
        self.counters.add(ACTION_COUNTERS[result.action])
        if result.action is ForwardAction.DROP:
            count_drop(self.counters, result.detail)
        return result

    def forward_batch(self, packets: Sequence[Packet], now: float = 0.0) -> List[ForwardResult]:
        """Forward a burst, amortising per-packet dispatch.

        Equivalent to ``[self.forward(p, now) for p in packets]``
        (including every counter), but hot locals are bound once and the
        per-action counters are tallied once per batch instead of one
        f-string per packet.
        """
        migration = self.migration
        if migration is not None and migration.frozen:
            # Freeze windows are rare and short: fall back to the
            # per-packet path so every packet consults the freeze set.
            if isinstance(packets, PacketBatch):
                packets = packets.packets
            return [self.forward(packet, now) for packet in packets]
        if self._batch_compiler is not None:
            return self._forward_batch_columnar(packets, now)
        tables = self.tables
        cache = self.flow_cache
        gateway_ip = self.gateway_ip
        snat_service = self.snat_service
        actions: Dict[ForwardAction, int] = {}
        drop_details: Dict[str, int] = {}
        if cache is not None:
            results = forward_cached_batch(tables, cache, packets, gateway_ip, now)
            for index, result in enumerate(results):
                if (
                    result.action is ForwardAction.REDIRECT_X86
                    and snat_service is not None
                    and result.detail == "snat"
                ):
                    result = snat_service.handle_request(packets[index], now)
                    results[index] = result
                actions[result.action] = actions.get(result.action, 0) + 1
                if result.action is ForwardAction.DROP:
                    drop_details[result.detail] = drop_details.get(result.detail, 0) + 1
        else:
            slow = forward
            results = []
            append = results.append
            for packet in packets:
                result = slow(tables, packet, gateway_ip, now)
                if (
                    result.action is ForwardAction.REDIRECT_X86
                    and snat_service is not None
                    and result.detail == "snat"
                ):
                    result = snat_service.handle_request(packet, now)
                actions[result.action] = actions.get(result.action, 0) + 1
                if result.action is ForwardAction.DROP:
                    drop_details[result.detail] = drop_details.get(result.detail, 0) + 1
                append(result)
        self.counters.add("rx_packets", len(results))
        for action, count in actions.items():
            self.counters.add(ACTION_COUNTERS[action], count)
        count_drops(self.counters, drop_details)
        return results

    def _forward_batch_columnar(self, packets, now: float) -> List[ForwardResult]:
        """The compiled batch path: recompile on a generation-vector
        change (same staleness rule as the flow cache), execute over the
        struct-of-arrays burst — we *are* the software gateway, so SNAT
        requests are served by a stage of the program — then settle
        counters in one flush."""
        compiler = self._batch_compiler
        program = self._compiled
        if program is None or program.generations != compiler.generations():
            program = self._compiled = compiler.compile()
        batch = (packets if isinstance(packets, PacketBatch)
                 else PacketBatch.from_packets(packets))
        results, tally = program.execute(batch, now)
        add = self.counters.add
        add("rx_packets", batch.n)
        for action, count in tally.actions.items():
            add(ACTION_COUNTERS[action], count)
        count_drops(self.counters, tally.drop_details)
        return results

    def forward_dpu_miss(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """Serve a packet the DPU tier punted (``DropReason.DPU_TABLE_MISS``).

        x86 is the universal fallback: it holds the full tables, so a
        steering miss or session overflow on a DPU device re-offers the
        packet here. ``dpu_fallback_packets`` tallies the punt volume
        (it is neither an ``action_*`` nor a ``drop_*`` counter, so the
        conservation identities are untouched)."""
        self.counters.add("dpu_fallback_packets")
        return self.forward(packet, now)

    def forward_response(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """Handle an Internet-side response (SNAT reverse path)."""
        if self.snat_service is None:
            return ForwardResult(ForwardAction.DROP, packet,
                                 detail=DropReason.NO_SNAT.value)
        self.counters.add("rx_packets")
        result = self.snat_service.handle_response(packet, now)
        self.counters.add(ACTION_COUNTERS[result.action])
        if result.action is ForwardAction.DROP:
            count_drop(self.counters, result.detail)
        return result

    # -- cache telemetry ------------------------------------------------------

    def publish_cache_counters(self) -> Dict[str, int]:
        """Fold the flow cache's hit/miss/evict/stale counters into this
        gateway's :class:`CounterSet` (idempotent: only deltas since the
        last publish are added) and return the current snapshot. The
        heavy-hitter machinery reads the resulting hit rate as a
        workload-skew signal."""
        if self.flow_cache is None:
            return {}
        snapshot = self.flow_cache.counters()
        for name, value in snapshot.items():
            delta = value - self._published_cache_counters.get(name, 0)
            if delta:
                self.counters.add(name, delta)
        self._published_cache_counters = snapshot
        return snapshot

    # -- table management (driven by the controller) --------------------------
    #
    # The same push interface XgwH exposes, so an XGW-x86 box can be a
    # member of a controller-managed (hybrid) cluster: transactional
    # migrations and repairs mutate these tables, which bumps the table
    # generations and invalidates the flow cache's affected entries.

    def install_route(self, vni: int, prefix: Prefix, action: RouteAction,
                      replace: bool = False) -> None:
        self.tables.routing.insert(vni, prefix, action, replace=replace)

    def remove_route(self, vni: int, prefix: Prefix) -> RouteAction:
        return self.tables.routing.remove(vni, prefix)

    def install_vm(self, vni: int, vm_ip: int, version: int, binding: NcBinding,
                   replace: bool = False) -> None:
        self.tables.vm_nc.insert(vni, vm_ip, version, binding, replace=replace)

    def remove_vm(self, vni: int, vm_ip: int, version: int) -> NcBinding:
        return self.tables.vm_nc.remove(vni, vm_ip, version)

    def route_count(self) -> int:
        return len(self.tables.routing)

    def vm_count(self) -> int:
        return len(self.tables.vm_nc)

    # -- capacity model -------------------------------------------------------

    @property
    def total_capacity_pps(self) -> float:
        return self.cpu.total_capacity_pps

    def max_pps(self, packet_bytes: int) -> float:
        """Box limit at one packet size: min(NIC, CPU)."""
        return min(self.nic.max_pps(packet_bytes), self.total_capacity_pps)

    def min_line_rate_packet(self) -> int:
        """Smallest packet size forwarded at NIC line rate (Fig. 18b).

        The paper: "XGW-x86 reaches line rate with packets larger than
        512B".

        ``nic.max_pps`` is strictly decreasing in the packet size, so the
        smallest size whose NIC rate no longer exceeds the CPU capacity
        is found by binary search (the former linear ``size += 1`` scan
        cost tens of thousands of NIC-model evaluations per call).
        """
        lo, hi = 64, 64
        capacity = self.total_capacity_pps
        if self.nic.max_pps(lo) <= capacity:
            return lo
        while self.nic.max_pps(hi) > capacity:
            lo, hi = hi, hi * 2
        # Invariant: max_pps(lo) > capacity >= max_pps(hi).
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.nic.max_pps(mid) > capacity:
                lo = mid
            else:
                hi = mid
        return hi

    def serve_interval(self, flows: Sequence[Tuple[FlowKey, float]]) -> IntervalReport:
        """Offer (flow, pps) load for one interval through RSS + cores."""
        per_queue: Dict[int, List[Tuple[FlowKey, float]]] = {}
        for flow, pps in flows:
            per_queue.setdefault(self.nic.queue_for(flow), []).append((flow, pps))
        intervals = self.cpu.serve_queues(per_queue)
        offered = sum(pps for _f, pps in flows)
        dropped = sum(ci.dropped_pps for ci in intervals)
        return IntervalReport(core_intervals=intervals, offered_pps=offered, dropped_pps=dropped)
