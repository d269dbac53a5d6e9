"""Flow-cache fast path: cache the terminal decision, not the walk.

A production DPDK gateway survives at ~1 Mpps/core only because it does
*not* run the full table program per packet: the first packet of a flow
walks ACL + meters + VXLAN routing (with PEER chains) + VM-NC, and the
terminal decision is cached so every later packet is one exact-match
lookup plus the per-packet stateful work. This module gives the
simulated XGW-x86 the same split.

**What is cached** — the resolved terminal decision for a
``(VNI, inner dst IP, IP version)`` key: the forward action, resolved
VNI, NC IP and the outer-header rewrite recipe. Negative decisions
(``no-route``, ``peer-loop``, ``no-vm``) are cached too; they are just
as deterministic given the table state.

**What must never be cached** — anything per-packet stateful or
per-flow dependent:

* counters and meters charge every packet (a meter can flip a cached
  flow to ``meter-red`` at any time);
* ACL verdicts depend on the full 5-tuple, not the cache key, so rules
  are still evaluated per packet — *except* when the ACL table was empty
  with a PERMIT default at capture time, which the entry records as
  ``acl_bypass`` (and the ACL generation guard keeps honest);
* SNAT state (the XGW-x86 service layer re-runs on every redirect hit).

**Generation-based invalidation** — every mutable table the decision
reads (:class:`~repro.tables.vxlan_routing.VxlanRoutingTable`,
:class:`~repro.tables.vm_nc.VmNcTable`,
:class:`~repro.tables.acl.AclTable`) carries a monotonically increasing
``generation`` bumped on every insert/remove. An entry captures the
three-tuple *generation vector* at resolution time and is valid only
while the live vector is identical. Any mutation — controller repairs,
transactional migrations, offload steering — silently invalidates every
older entry with no invalidation plumbing, and correctness survives
arbitrary update interleavings (property-tested against a never-cached
oracle).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..net.headers import VXLAN
from ..net.packet import Packet
from ..tables.acl import AclVerdict
from ..tables.meter import MeterColor
from .gateway_logic import (
    ForwardAction,
    ForwardResult,
    GatewayTables,
    forward,
    inner_flow_key,
    vni_key,
)

#: Default entry bound: roughly one DPDK box's flow-cache budget.
DEFAULT_CAPACITY = 65536

#: Slow-path details that depend on per-packet state and so must never
#: produce a cache entry.
_UNCACHEABLE_DETAILS = frozenset({"acl-deny", "meter-red"})

#: Fixed wire bytes of a VXLAN packet outside the two IP headers, the
#: inner L4 and the inner payload: outer Ethernet + outer UDP + VXLAN
#: header + inner Ethernet. Used to inline
#: :meth:`~repro.net.packet.Packet.wire_length` in the batch hit loop.
_VXLAN_FIXED_LEN = 14 + 8 + 8 + 14


class CacheEntry:
    """One cached terminal decision (``__slots__``: allocated per miss,
    compared per hit)."""

    __slots__ = ("action", "detail", "resolved_vni", "nc_ip", "rewrite_vni",
                 "generations", "acl_bypass", "outer_in", "outer_out",
                 "vx_flags", "vx_out")

    def __init__(self, action: ForwardAction, detail: str,
                 resolved_vni: Optional[int], nc_ip: Optional[int],
                 rewrite_vni: Optional[int],
                 generations: Tuple[int, int, int], acl_bypass: bool,
                 outer_in=None, outer_out=None, vx_flags=None, vx_out=None):
        self.action = action
        self.detail = detail
        self.resolved_vni = resolved_vni
        self.nc_ip = nc_ip
        #: VNI to write into the outgoing packet, or None when unchanged.
        self.rewrite_vni = rewrite_vni
        #: (routing, vm_nc, acl) generations captured at resolution time.
        self.generations = generations
        #: True when the ACL table provably permits every flow (empty +
        #: PERMIT default at capture; guarded by the ACL generation).
        self.acl_bypass = acl_bypass
        #: Rewrite template (DELIVER_NC only): the outer IP header seen at
        #: capture and its rewritten form, plus the rewritten VXLAN header
        #: guarded by the captured flags. A hit whose outer header equals
        #: the template's input reuses the prebuilt immutable headers
        #: instead of re-deriving them — the DPDK trick of storing the
        #: rewrite *result*, not the rewrite *procedure*.
        self.outer_in = outer_in
        self.outer_out = outer_out
        self.vx_flags = vx_flags
        self.vx_out = vx_out


class FlowCache:
    """Exact-match, LRU-bounded cache of terminal forwarding decisions.

    >>> cache = FlowCache(capacity=2)
    >>> cache.capacity
    2
    >>> cache.hit_rate
    0.0
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- core ---------------------------------------------------------------

    def lookup(self, key: tuple, generations: Tuple[int, int, int]) -> Optional[CacheEntry]:
        """The live entry for *key*, or None on miss/stale (stale entries
        are dropped so the following insert re-captures them)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.generations != generations:
            del self._entries[key]
            self.stale += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, key: tuple, entry: CacheEntry) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def items(self):
        """Readback of ``(key, entry)`` pairs in LRU order (oldest first)
        — the audit's coherence sweep recomputes each cached decision
        against the live tables without disturbing recency or counters."""
        return list(self._entries.items())

    # -- telemetry ----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction — high values signal a skewed (cache-
        friendly) workload, which the heavy-hitter detector reads as
        corroboration that a small hot set dominates."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Snapshot of the cache's telemetry counters."""
        return {
            "flowcache_hits": self.hits,
            "flowcache_misses": self.misses,
            "flowcache_evictions": self.evictions,
            "flowcache_stale": self.stale,
        }


def _capture(result: ForwardResult, packet: Packet,
             tables: GatewayTables,
             generations: Tuple[int, int, int]) -> Optional[CacheEntry]:
    """Build the cache entry for a slow-path result, or None when the
    result depended on per-packet state (ACL/meter verdicts)."""
    if result.detail in _UNCACHEABLE_DETAILS:
        return None
    rewrite_vni = None
    outer_in = outer_out = vx_flags = vx_out = None
    if result.action is ForwardAction.DELIVER_NC:
        if result.resolved_vni != packet.vni:
            rewrite_vni = result.resolved_vni
        # The slow path just derived the rewritten headers — keep them as
        # the entry's rewrite template.
        outer_in = packet.ip
        outer_out = result.packet.ip
        vx_flags = packet.vxlan.flags
        vx_out = result.packet.vxlan
    acl = tables.acl
    acl_bypass = len(acl) == 0 and acl.default_verdict is AclVerdict.PERMIT
    return CacheEntry(result.action, result.detail, result.resolved_vni,
                      result.nc_ip, rewrite_vni, generations, acl_bypass,
                      outer_in, outer_out, vx_flags, vx_out)


def forward_cached(
    tables: GatewayTables,
    cache: FlowCache,
    packet: Packet,
    gateway_ip: int,
    now: float = 0.0,
) -> ForwardResult:
    """The fast path: one cache lookup instead of the full table walk.

    Byte-identical to :func:`~repro.dataplane.gateway_logic.forward` for
    every packet (differentially tested): counters and meters still
    charge per packet, ACLs still evaluate per packet unless provably
    pass-all, and a hit only replays the cached rewrite recipe.
    """
    if not packet.is_vxlan:
        return ForwardResult(ForwardAction.DROP, packet, detail="not-vxlan")
    vni = packet.vni
    generations = (tables.routing.generation, tables.vm_nc.generation,
                   tables.acl.generation)
    key = (vni, packet.inner_dst, packet.inner_version)
    entry = cache.lookup(key, generations)
    if entry is None:
        result = forward(tables, packet, gateway_ip, now)
        captured = _capture(result, packet, tables, generations)
        if captured is not None:
            cache.insert(key, captured)
        return result

    # Per-packet stateful work, in slow-path order: counter, ACL, meter.
    kvni = vni_key(vni)
    size = packet.wire_length()
    tables.counters.count(kvni, size)
    if not entry.acl_bypass and (
            tables.acl.evaluate(vni, inner_flow_key(packet)) is AclVerdict.DENY):
        return ForwardResult(ForwardAction.DROP, packet, detail="acl-deny")
    if tables.meters.charge(kvni, now, size) is MeterColor.RED:
        return ForwardResult(ForwardAction.DROP, packet, detail="meter-red")

    action = entry.action
    if action is ForwardAction.DELIVER_NC:
        out = packet.rewritten(gateway_ip, entry.nc_ip, vni=entry.rewrite_vni)
        return ForwardResult(action, out, detail=entry.detail,
                             resolved_vni=entry.resolved_vni, nc_ip=entry.nc_ip)
    return ForwardResult(action, packet, detail=entry.detail,
                         resolved_vni=entry.resolved_vni, nc_ip=entry.nc_ip)


def forward_cached_batch(
    tables: GatewayTables,
    cache: FlowCache,
    packets,
    gateway_ip: int,
    now: float = 0.0,
) -> list:
    """Batched fast path: ``[forward_cached(...) for p in packets]`` with
    the per-packet dispatch amortised across the burst.

    Safe amortisations (final table/counter state is identical to the
    per-packet loop — differentially tested):

    * the generation vector is read once — nothing inside the burst
      mutates the control-plane tables, so it cannot change mid-batch;
    * per-VNI counter charges accumulate locally and settle through
      :meth:`~repro.tables.counter.CounterTable.count_batch`;
    * when the meter table is empty, per-packet charges (each a dict
      miss passing GREEN) collapse into one
      :meth:`~repro.tables.meter.MeterTable.pass_unmetered` update —
      with any meter configured, charges stay strictly per packet;
    * cache hit/miss/stale tallies are folded in once at the end.
    """
    generations = (tables.routing.generation, tables.vm_nc.generation,
                   tables.acl.generation)
    entries = cache._entries
    entries_get = entries.get
    move_to_end = entries.move_to_end
    acl = tables.acl
    acl_evaluate = acl.evaluate
    meters = tables.meters
    meter_per_packet = len(meters) > 0
    meters_charge = meters.charge
    deliver = ForwardAction.DELIVER_NC
    drop = ForwardAction.DROP
    red = MeterColor.RED
    deny = AclVerdict.DENY
    hits = misses = stale = unmetered_green = 0
    counts: dict = {}  # vni -> [packets, bytes], flushed per batch
    results = []
    append = results.append
    for packet in packets:
        vxlan = packet.vxlan
        if vxlan is None:
            append(ForwardResult(drop, packet, detail="not-vxlan"))
            continue
        vni = vxlan.vni
        inner = packet.inner
        inner_ip = inner.ip
        key = (vni, inner_ip.dst, inner_ip.version)
        entry = entries_get(key)
        if entry is None or entry.generations != generations:
            if entry is not None:
                del entries[key]
                stale += 1
            misses += 1
            result = forward(tables, packet, gateway_ip, now)
            captured = _capture(result, packet, tables, generations)
            if captured is not None:
                cache.insert(key, captured)
            append(result)
            continue
        move_to_end(key)
        hits += 1
        # == packet.wire_length(), with the VXLAN-invariant parts folded.
        inner_l4 = inner.l4
        size = (_VXLAN_FIXED_LEN + packet.ip.WIRE_LEN + inner_ip.WIRE_LEN
                + (inner_l4.WIRE_LEN if inner_l4 is not None else 0)
                + len(inner.payload))
        acc = counts.get(vni)
        if acc is None:
            counts[vni] = [1, size]
        else:
            acc[0] += 1
            acc[1] += size
        if not entry.acl_bypass and (
                acl_evaluate(vni, inner_flow_key(packet)) is deny):
            append(ForwardResult(drop, packet, detail="acl-deny"))
            continue
        if meter_per_packet:
            if meters_charge(vni_key(vni), now, size) is red:
                append(ForwardResult(drop, packet, detail="meter-red"))
                continue
        else:
            unmetered_green += 1
        action = entry.action
        if action is deliver:
            # Rewrite via the entry's template: equal input headers yield
            # equal (immutable, shareable) output headers.
            pip = packet.ip
            if pip is entry.outer_in or pip == entry.outer_in:
                new_ip = entry.outer_out
            else:
                new_ip = pip.replace_src_dst(gateway_ip, entry.nc_ip)
            if entry.rewrite_vni is None:
                vx = vxlan
            elif vxlan.flags == entry.vx_flags:
                vx = entry.vx_out
            else:
                vx = VXLAN(vni=entry.rewrite_vni, flags=vxlan.flags)
            append(ForwardResult(action, packet.with_outer(new_ip, vx),
                                 detail=entry.detail,
                                 resolved_vni=entry.resolved_vni,
                                 nc_ip=entry.nc_ip))
        else:
            append(ForwardResult(action, packet, detail=entry.detail,
                                 resolved_vni=entry.resolved_vni,
                                 nc_ip=entry.nc_ip))
    cache.hits += hits
    cache.misses += misses
    cache.stale += stale
    counters_batch = tables.counters.count_batch
    for vni, (n, total) in counts.items():
        counters_batch(vni_key(vni), n, total)
    if unmetered_green:
        meters.pass_unmetered(unmetered_green)
    return results
