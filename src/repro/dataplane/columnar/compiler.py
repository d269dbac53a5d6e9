"""BatchCompiler: lower the placed gateway program to columnar steps.

The scalar data plane interprets one packet at a time: every packet
re-walks ACL rules, meter buckets, the VXLAN routing table (with PEER
chains) and the VM-NC mapping. This module compiles a gateway's table
bundle into a :class:`CompiledProgram` — a flat sequence of match-action
stages executed over a whole :class:`~repro.dataplane.columnar.batch.
PacketBatch` — the "Packet Transactions" guarded pipeline lowered to
array operations instead of ALUs:

1. **decide** — terminal decisions (routing resolution incl. PEER
   chains + VM-NC lookup) are computed once per unique
   ``(VNI, inner dst, version)`` key and memoized for the program's
   lifetime; the memo is discarded with the program when any table
   generation moves. Each decision also carries its tally
   :class:`Contribution`, so a burst is first tallied with one integer
   add per key.
2. **classify** — the ACL table becomes a :class:`CompiledAcl`, whose
   :meth:`~CompiledAcl.first_match` runs lane by lane over the batch's
   columns.
3. **meter** — per-key token buckets charge their lanes as one run in
   lane order (bucket state depends only on its own ordered charge
   sequence); VNIs with no bucket settle GREEN in a single update.
4. **assemble** — decisions scatter-gather back into per-lane
   :class:`~repro.dataplane.gateway_logic.ForwardResult` objects, each
   DELIVER lane rewritten by ``Packet.rewritten`` (on a packet decoded
   from the wire: a pending patch of its kept frame, no header built).
5. **serve** (x86 with SNAT) — admitted SNAT-redirect lanes skip
   assembly and go to :meth:`~repro.dataplane.services.SnatService.
   serve_requests` in one call.
6. **tally** — the per-class counts expand into per-action, per-reason
   and (XGW-H) per-pipe, bridge-byte and Table D totals.

A lane a per-packet stage kills (ACL deny, meter red, redirect rate
limit) moves from its decision's class to a drop class as it is killed;
per-packet verdicts are never memoized. Counters and meters settle to
byte-identical state vs the scalar oracle (property-tested in
``tests/dataplane/test_columnar_differential.py``).
:meth:`CompiledProgram.forward` is the same program entered one lane at
a time, for a tier that forwards packet by packet (the DPU).

>>> from repro.dataplane.gateway_logic import GatewayTables
>>> from repro.dataplane.columnar.batch import PacketBatch
>>> from repro.workloads.traffic import build_vxlan_packet
>>> tables = GatewayTables()
>>> program = BatchCompiler(tables, gateway_ip=0x0A0000FE).compile()
>>> batch = PacketBatch.from_packets(
...     [build_vxlan_packet(vni=9, src_ip=1, dst_ip=2)])
>>> results, tally = program.execute(batch)
>>> results[0].detail, tally.drop_details
('no-route', {'no-route': 1})
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...net.headers import unchecked
from ...net.packet import Packet
from ...tables.acl import AclVerdict
from ...tables.errors import MissingEntryError
from ...tables.meter import MeterColor
from ...tables.vxlan_routing import RoutingLoopError, Scope
from ...tofino.memory import NUM_PIPELINES
from ...tofino.pipeline import Gress
from ..gateway_logic import ForwardAction, ForwardResult, GatewayTables, vni_key
from .batch import PacketBatch

_DROP = ForwardAction.DROP
_DELIVER = ForwardAction.DELIVER_NC
_REDIRECT = ForwardAction.REDIRECT_X86
_UPLINK = ForwardAction.UPLINK
_DENY = AclVerdict.DENY
_RED = MeterColor.RED

#: Per-lane fate codes assigned by the per-packet stages. 0 keeps the
#: lane on its key decision; the rest are per-packet drops that must
#: never be memoized.
_FATE_NOT_VXLAN = 1
_FATE_ACL_DENY = 2
_FATE_METER_RED = 3
_FATE_REDIRECT_LIMITED = 4

_FATE_DETAILS = {
    _FATE_NOT_VXLAN: "not-vxlan",
    _FATE_ACL_DENY: "acl-deny",
    _FATE_METER_RED: "meter-red",
    _FATE_REDIRECT_LIMITED: "redirect-rate-limited",
}

#: Bridge overhead of the folded XGW-H program, derived from the same
#: field widths :class:`~repro.dataplane.pipeline_program.XgwHProgram`
#: declares (resolved_vni 24b + scope 3b, then + nc_ip 32b), rounded up
#: to bytes exactly as :attr:`repro.tofino.phv.Bridge.wire_overhead_bytes`.
_BRIDGE1_BYTES = (24 + 3 + 7) // 8
_BRIDGE23_BYTES = (24 + 3 + 32 + 7) // 8

#: The chip's pipe refs, indexed ``2 * pipeline + (0 ingress | 1 egress)``.
#: Tallies count per index; only the refs a burst touched become
#: ``(pipeline, Gress)`` keys, when the gateway flushes them to its chip.
PIPE_REFS = tuple((pipeline, gress) for pipeline in range(NUM_PIPELINES)
                  for gress in (Gress.INGRESS, Gress.EGRESS))


#: ForwardResult has no __post_init__; the stages make one per lane.
_result = unchecked(ForwardResult)


class Contribution:
    """What one lane adds to its burst's tally, shared by every decision
    of one class: the action, the drop detail (None unless a drop) and,
    on the XGW-H profile, the folded-chip bookkeeping of its path — the
    pipe refs it crosses (indices into :data:`PIPE_REFS`), the bridge
    bytes it carries and whether egress Table D counts it."""

    __slots__ = ("action", "detail", "refs", "bridge", "table_d")

    def __init__(self, action: ForwardAction, detail: Optional[str], entry: int,
                 hw: bool):
        self.action = action
        self.detail = detail
        self.table_d = hw and action is _DELIVER
        ingress = 2 * entry  # every packet enters at its parity pipe
        loopback = 2 * (entry + 1)
        if not hw:
            self.refs = ()
            self.bridge = 0
        elif action is _DELIVER:
            # The full folded path, bridging out of the entry ingress and
            # out of each loopback gress.
            self.refs = (ingress, loopback + 1, loopback, ingress + 1)
            self.bridge = _BRIDGE1_BYTES + 2 * _BRIDGE23_BYTES
        elif action is _DROP and detail == "no-vm":
            # Dropped by the VM-NC stage at the loopback egress.
            self.refs = (ingress, loopback + 1)
            self.bridge = _BRIDGE1_BYTES
        else:
            # Decided at the entry ingress (uplink, redirect, early drop).
            self.refs = (ingress,)
            self.bridge = 0


class KeyDecision:
    """The memoized terminal decision for one (VNI, dst, version) key.

    Mirrors :class:`~repro.dataplane.flowcache.CacheEntry`, with a
    prototype (packet, result) pair so replayed bursts of interned
    packets reuse the frozen result object instead of re-allocating it.
    ``slot`` indexes the program's :class:`Contribution` for this
    decision and ``entry`` is its XGW-H entry pipeline (the parity of
    the inner destination); both are fixed at resolve time.
    """

    __slots__ = ("action", "detail", "resolved_vni", "nc_ip", "rewrite_vni",
                 "proto_packet", "proto_result", "slot", "entry")

    def __init__(self):
        self.action: Optional[ForwardAction] = None
        self.detail = ""
        self.resolved_vni: Optional[int] = None
        self.nc_ip: Optional[int] = None
        self.rewrite_vni: Optional[int] = None
        self.proto_packet: Optional[Packet] = None
        self.proto_result: Optional[ForwardResult] = None
        self.slot = 0
        self.entry = 0

    def build(self, packet: Packet, gateway_ip: int, hw: bool) -> ForwardResult:
        """The ForwardResult for *packet* under this decision.

        *hw* selects the XGW-H result shape (no ``resolved_vni``,
        DELIVER detail fixed to ``"local"``) vs the XGW-x86 one.
        """
        action = self.action
        if action is _DELIVER:
            out = packet.rewritten(gateway_ip, self.nc_ip, self.rewrite_vni)
            if hw:
                result = _result(action, out, "local", None, self.nc_ip)
            else:
                result = _result(action, out, self.detail, self.resolved_vni,
                                 self.nc_ip)
        elif hw:
            result = _result(action, packet, self.detail, None, None)
        else:
            result = _result(action, packet, self.detail, self.resolved_vni,
                             self.nc_ip)
        if self.proto_packet is None:
            self.proto_packet = packet
            self.proto_result = result
        return result


class CompiledAcl:
    """The ACL table lowered to a first-match scan.

    :meth:`classify` runs :meth:`first_match` lane by lane over a
    batch's columns, the function a one-lane entry calls too, so both
    charge ``acl.lookups``/``matched`` as the scalar walk does.
    """

    __slots__ = ("rules", "default_deny")

    def __init__(self, rules, default_deny: bool):
        self.rules = rules
        self.default_deny = default_deny

    def first_match(self, vni: int, src: int, dst: int, proto: int,
                    sport: int, dport: int) -> Optional[AclVerdict]:
        """The verdict of the first rule matching one lane, or None when
        no rule does (the table's default then decides)."""
        for rule in self.rules:
            if rule.vni is not None and rule.vni != vni:
                continue
            net = rule.src_net
            if net is not None and (src & net[1]) != net[0]:
                continue
            net = rule.dst_net
            if net is not None and (dst & net[1]) != net[0]:
                continue
            if rule.proto is not None and rule.proto != proto:
                continue
            ports = rule.src_ports
            if ports is not None and not (ports[0] <= sport <= ports[1]):
                continue
            ports = rule.dst_ports
            if ports is not None and not (ports[0] <= dport <= ports[1]):
                continue
            return rule.verdict
        return None

    def classify(self, batch: PacketBatch) -> Tuple[List[int], int]:
        """``(deny_lanes, matched)`` for a burst: the VXLAN lanes the
        ACL drops, and how many lanes any rule claimed (the table's
        ``matched`` telemetry)."""
        deny_lanes: List[int] = []
        deny_append = deny_lanes.append
        matched = 0
        src = batch.src_list
        dst = batch.dst_list
        proto = batch.proto_list
        sport = batch.sport_list
        dport = batch.dport_list
        first_match = self.first_match
        default_deny = self.default_deny
        for i, key in enumerate(batch.keys):
            if key is None:
                continue
            verdict = first_match(key[0], src[i], dst[i], proto[i], sport[i], dport[i])
            if verdict is None:
                if default_deny:
                    deny_append(i)
            else:
                matched += 1
                if verdict is _DENY:
                    deny_append(i)
        return deny_lanes, matched


class BatchTally:
    """Burst-level bookkeeping the gateway wrapper applies in one flush:
    per-action counts, per-reason drop counts, and the hw profile's
    per-pipe packet counts (indexed like :data:`PIPE_REFS`) and bridge
    bytes."""

    __slots__ = ("actions", "drop_details", "pipe_packets", "bridged_bytes")

    def __init__(self):
        self.actions: Dict[ForwardAction, int] = {}
        self.drop_details: Dict[str, int] = {}
        self.pipe_packets: Optional[List[int]] = None
        self.bridged_bytes = 0


class CompiledProgram:
    """One gateway's placed program, compiled for whole-burst execution.

    Valid only while :attr:`generations` equals the live table
    generation vector — the owner recompiles (dropping the key memo)
    whenever any guarded table mutates, exactly like
    a stale flow-cache entry.
    """

    __slots__ = ("tables", "gateway_ip", "generations", "classifier",
                 "split_vm_nc", "hw", "snat", "memo", "contributions",
                 "_slots", "_redirect_slots", "_table_d_slots", "_served_slot")

    def __init__(self, tables: GatewayTables, gateway_ip: int,
                 generations: tuple, classifier: Optional[CompiledAcl],
                 split_vm_nc=None, snat=None):
        self.tables = tables
        self.gateway_ip = gateway_ip
        self.generations = generations
        self.classifier = classifier
        self.split_vm_nc = split_vm_nc
        self.hw = split_vm_nc is not None
        self.snat = snat
        self.memo: Dict[tuple, KeyDecision] = {}
        #: Every tally class a lane can fall in, indexed by
        #: ``KeyDecision.slot``: each drop reason and each other action,
        #: per entry pipeline, plus the SNAT lanes the serve stage takes.
        #: ``_slots`` finds one by ``(drop detail or action value, entry)``.
        self.contributions: List[Contribution] = []
        self._slots: Dict[Tuple[str, int], int] = {}
        entries = (0, 2) if self.hw else (0,)
        classes = [(_DROP, detail) for detail in
                   ("no-route", "peer-loop", "no-vm", *_FATE_DETAILS.values())]
        classes += [(action, None) for action in (_DELIVER, _UPLINK, _REDIRECT)]
        for action, detail in classes:
            for entry in entries:
                self._slots[detail or action.value, entry] = len(self.contributions)
                self.contributions.append(Contribution(action, detail, entry, self.hw))
        self._redirect_slots = [self._slots["redirect-x86", e] for e in entries]
        self._table_d_slots = [slot for slot, c in enumerate(self.contributions)
                               if c.table_d]
        # The SNAT lanes: their action is the serve stage's to settle.
        self._served_slot = -1
        if snat is not None:
            self._served_slot = len(self.contributions)
            self.contributions.append(Contribution(_REDIRECT, None, 0, self.hw))

    # -- decide (once per unique key) -----------------------------------

    def _resolve_keys(self, keys: List[tuple]) -> None:
        """Memoize decisions for *keys* via the bulk table helpers."""
        tables = self.tables
        memo = self.memo
        slots = self._slots
        hw = self.hw
        serve = self.snat is not None
        local: List[tuple] = []
        for key, res in zip(keys, tables.routing.resolve_many(keys)):
            d = KeyDecision()
            memo[key] = d
            d.entry = entry = 2 if hw and key[1] & 1 else 0
            if isinstance(res, MissingEntryError):
                d.action = _DROP
                d.detail = "no-route"
                d.slot = slots["no-route", entry]
                continue
            if isinstance(res, RoutingLoopError):
                d.action = _DROP
                d.detail = "peer-loop"
                d.slot = slots["peer-loop", entry]
                continue
            scope = res.action.scope
            if scope is Scope.LOCAL:
                local.append((key, res, d))
            elif scope is Scope.SERVICE:
                d.action = _REDIRECT
                d.detail = res.action.target or "service"
                d.resolved_vni = res.vni
                d.slot = (self._served_slot if serve and d.detail == "snat"
                          else slots["redirect-x86", entry])
            else:
                d.action = _UPLINK
                d.detail = res.action.target or scope.value
                d.resolved_vni = res.vni
                d.slot = slots["uplink", entry]
        if local:
            if self.hw:
                split = self.split_vm_nc
                bindings = [split.lookup(res.vni, key[1], key[2])
                            for key, res, _d in local]
            else:
                bindings = tables.vm_nc.lookup_many(
                    [(res.vni, key[1], key[2]) for key, res, _d in local])
            for (key, res, d), binding in zip(local, bindings):
                d.resolved_vni = res.vni
                if binding is None:
                    d.action = _DROP
                    d.detail = "no-vm"
                    d.slot = slots["no-vm", d.entry]
                else:
                    d.action = _DELIVER
                    d.detail = "local"
                    d.nc_ip = binding.nc_ip
                    d.slot = slots["deliver-nc", d.entry]
                    if res.vni != key[0]:
                        d.rewrite_vni = res.vni

    # -- one lane -------------------------------------------------------

    def forward(self, packet: Packet, now: float = 0.0) -> ForwardResult:
        """One lane through the x86 profile: tenant counter → ACL → meter
        → the memoized key decision, charging every table as the scalar
        :func:`~repro.dataplane.gateway_logic.forward` walk does (a SNAT
        lane comes back as its REDIRECT result)."""
        vector = packet._vector
        if vector is not None:
            vni, src, dst, proto, sport, dport, version, size, _, _, _ = vector
        elif packet.vxlan is None:
            return _result(_DROP, packet, "not-vxlan", None, None)
        else:
            vni = packet.vxlan.vni
            src, dst, proto, sport, dport = packet.inner.five_tuple()
            version = packet.inner.ip.version
            size = packet.wire_length()
        tables = self.tables
        counter_key = vni_key(vni)
        tables.counters.count(counter_key, size)
        acl = tables.acl
        acl.lookups += 1
        classifier = self.classifier
        if classifier is not None:
            verdict = classifier.first_match(vni, src, dst, proto, sport, dport)
            if verdict is None:
                denied = classifier.default_deny
            else:
                acl.matched += 1
                denied = verdict is _DENY
            if denied:
                return _result(_DROP, packet, "acl-deny", None, None)
        if tables.meters.charge(counter_key, now, size) is _RED:
            return _result(_DROP, packet, "meter-red", None, None)
        key = (vni, dst, version)
        d = self.memo.get(key)
        if d is None:
            self._resolve_keys([key])
            d = self.memo[key]
        if packet is d.proto_packet:
            return d.proto_result
        return d.build(packet, self.gateway_ip, False)

    # -- execute --------------------------------------------------------

    def _kill(self, lanes: List[int], fate_code: int, fate: bytearray, decs,
              inverse, counts: List[int], killed: List[int]) -> None:
        """Give *lanes* a per-packet drop fate, moving each from its
        decision's tally class to the matching drop class."""
        slots = self._slots
        detail = _FATE_DETAILS[fate_code]
        for i in lanes:
            fate[i] = fate_code
            d = decs[inverse[i]]
            counts[d.slot] -= 1
            counts[slots[detail, d.entry]] += 1
        killed.extend(lanes)

    def execute(self, batch: PacketBatch, now: float = 0.0
                ) -> Tuple[List[ForwardResult], BatchTally]:
        """Run the compiled stages over *batch*; returns the per-lane
        results plus the burst tally. Table state afterwards is
        byte-identical to the scalar per-packet walk."""
        tables = self.tables
        n = batch.n
        packets = batch.packets
        sizes = batch.sizes
        unique_keys, inverse, uniq_counts, uniq_bytes, per_vni = batch.key_index()
        memo = self.memo
        fresh = [key for key in unique_keys if key not in memo]
        if fresh:
            self._resolve_keys(fresh)
        decs = [memo[key] for key in unique_keys]

        # Every lane starts in its decision's tally class: one integer
        # add per key decision. The per-packet stages move killed lanes.
        counts = [0] * len(self.contributions)
        for d, count in zip(decs, uniq_counts):
            counts[d.slot] += count
        hw = self.hw
        fate: Optional[bytearray] = None
        killed: List[int] = []
        nonvxlan = batch.nonvxlan_lanes
        if nonvxlan:
            fate = bytearray(n)
            for i in nonvxlan:
                fate[i] = _FATE_NOT_VXLAN
            counts[self._slots["not-vxlan", 0]] += len(nonvxlan)

        # Stage: ingress tenant counters. The x86 program counts every
        # VXLAN packet before the ACL; the hw program only counts
        # delivered packets at egress (Table D, settled in the tally).
        if not hw and per_vni:
            tables.counters.count_batch_many(
                {vni_key(vni): acc for vni, acc in per_vni.items()})

        # Stage: ACL classify (per packet — full 5-tuple, never memoized).
        # The scalar program consults the ACL on every VXLAN packet, so
        # the lookup telemetry charges even on the pass-all fast path.
        if batch.vxlan_count:
            tables.acl.lookups += batch.vxlan_count
        denied_by_vni: Dict[int, int] = {}
        classifier = self.classifier
        if classifier is not None and batch.vxlan_count:
            deny_lanes, matched = classifier.classify(batch)
            tables.acl.matched += matched
            if deny_lanes:
                if fate is None:
                    fate = bytearray(n)
                self._kill(deny_lanes, _FATE_ACL_DENY, fate, decs, inverse,
                           counts, killed)
                keys = batch.keys
                for i in deny_lanes:
                    vni = keys[i][0]
                    denied_by_vni[vni] = denied_by_vni.get(vni, 0) + 1

        # Stage: per-VNI meters, charged as per-key runs in lane order.
        meters = tables.meters
        if len(meters) == 0:
            meters.pass_unmetered(batch.vxlan_count - len(killed))
        else:
            greens = 0
            red_lanes: List[int] = []
            for vni, lanes in batch.lanes_by_vni().items():
                key = vni_key(vni)
                if not meters.has_meter(key):
                    greens += per_vni[vni][0] - denied_by_vni.get(vni, 0)
                    continue
                run_lanes = lanes if fate is None else [i for i in lanes if not fate[i]]
                colors = meters.charge_run(key, now, [sizes[i] for i in run_lanes])
                red_lanes += [i for i, color in zip(run_lanes, colors) if color is _RED]
            if greens:
                meters.pass_unmetered(greens)
            if red_lanes:
                if fate is None:
                    fate = bytearray(n)
                self._kill(red_lanes, _FATE_METER_RED, fate, decs, inverse,
                           counts, killed)

        # Stage (hw only): §4.2 overload-protection meter on the
        # redirect path, charged for admitted SERVICE lanes in lane
        # order (the same order the scalar pipeline charges them).
        if hw:
            service = sum(counts[s] for s in self._redirect_slots)
            if service and not meters.has_meter("redirect-x86"):
                meters.pass_unmetered(service)
            elif service:
                service_lanes = [i for i in range(n)
                                 if (fate is None or not fate[i])
                                 and decs[inverse[i]].action is _REDIRECT]
                colors = meters.charge_run(
                    "redirect-x86", now, [sizes[i] for i in service_lanes])
                limited = [i for i, color in zip(service_lanes, colors)
                           if color is _RED]
                if limited:
                    if fate is None:
                        fate = bytearray(n)
                    self._kill(limited, _FATE_REDIRECT_LIMITED, fate, decs,
                               inverse, counts, killed)

        # Stage: assemble — scatter-gather decisions back into per-lane
        # results. The all-pass shape (steady-state replay) runs without
        # any fate checks; SNAT lanes are left to the serve stage.
        gateway_ip = self.gateway_ip
        results: List[Optional[ForwardResult]] = [None] * n
        served_slot = self._served_slot
        served_lanes: List[int] = []
        if fate is None and (served_slot < 0 or not counts[served_slot]):
            for i, p in enumerate(packets):
                d = decs[inverse[i]]
                results[i] = (d.proto_result if p is d.proto_packet
                              else d.build(p, gateway_ip, hw))
        else:
            details = _FATE_DETAILS
            for i, p in enumerate(packets):
                if fate is not None and fate[i]:
                    results[i] = _result(_DROP, p, details[fate[i]], None, None)
                    continue
                d = decs[inverse[i]]
                if d.slot == served_slot:
                    served_lanes.append(i)
                else:
                    results[i] = (d.proto_result if p is d.proto_packet
                                  else d.build(p, gateway_ip, hw))

        # Stage (x86 with SNAT): the request service, one call for the
        # burst's admitted SNAT lanes.
        snat_drops = (self.snat.serve_requests(packets, served_lanes, results, now)
                      if served_lanes else {})

        # Stage: tally — expand the per-class counts.
        tally = BatchTally()
        actions = tally.actions
        drop_details = tally.drop_details
        contributions = self.contributions
        pipe = [0] * len(PIPE_REFS) if hw else None
        bridged = 0
        for slot, count in enumerate(counts):
            if not count or slot == served_slot:
                continue
            c = contributions[slot]
            actions[c.action] = actions.get(c.action, 0) + count
            if c.detail is not None:
                drop_details[c.detail] = drop_details.get(c.detail, 0) + count
            if hw:
                for ref in c.refs:
                    pipe[ref] += count
                bridged += count * c.bridge
        if served_lanes:
            uplinked = len(served_lanes)
            for detail, count in snat_drops.items():
                uplinked -= count
                actions[_DROP] = actions.get(_DROP, 0) + count
                drop_details[detail] = drop_details.get(detail, 0) + count
            if uplinked:
                actions[_UPLINK] = actions.get(_UPLINK, 0) + uplinked
        if hw:
            # Table D (egress counters): delivered packets only, keyed by
            # the packet's original VNI; the rewrite preserves the wire
            # length. When every lane was delivered that is the burst's
            # per-VNI totals, in the same first-touch order.
            counted = sum(counts[s] for s in self._table_d_slots)
            if counted == batch.vxlan_count:
                tables.counters.count_batch_many(
                    {vni_key(vni): acc for vni, acc in per_vni.items()})
            elif counted:
                tables.counters.count_batch_many(
                    self._table_d_charges(batch, decs, killed))
            tally.pipe_packets = pipe
            tally.bridged_bytes = bridged
        return results, tally

    def _table_d_charges(self, batch: PacketBatch, decs, killed: List[int]
                         ) -> Dict[tuple, list]:
        """Per-VNI ``[packets, bytes]`` of a burst's admitted lanes that
        Table D counts, in first-touch key order."""
        contributions = self.contributions
        unique_keys, inverse, uniq_counts, uniq_bytes, _ = batch.key_index()
        if killed:
            sizes = batch.sizes
            uniq_counts = list(uniq_counts)
            uniq_bytes = list(uniq_bytes)
            for i in killed:
                u = inverse[i]
                uniq_counts[u] -= 1
                uniq_bytes[u] -= sizes[i]
        charges: Dict[tuple, list] = {}
        for u, d in enumerate(decs):
            count = uniq_counts[u]
            if not count or not contributions[d.slot].table_d:
                continue
            key = vni_key(unique_keys[u][0])
            acc = charges.get(key)
            if acc is None:
                charges[key] = [count, uniq_bytes[u]]
            else:
                acc[0] += count
                acc[1] += uniq_bytes[u]
        return charges


class BatchCompiler:
    """Compiles one gateway's table bundle into a CompiledProgram.

    Pass *split_vm_nc* for the XGW-H profile (parity-split VM-NC halves,
    redirect-path metering, folded-chip bookkeeping); leave it None for
    XGW-x86. *snat* (the gateway's
    :class:`~repro.dataplane.services.SnatService`) makes SNAT requests
    a stage of the program: admitted SNAT-redirect lanes are served in
    place instead of assembled as REDIRECT results.
    """

    def __init__(self, tables: GatewayTables, gateway_ip: int,
                 split_vm_nc=None, snat=None):
        self.tables = tables
        self.gateway_ip = gateway_ip
        self.split_vm_nc = split_vm_nc
        self.snat = snat

    def generations(self) -> tuple:
        """The live generation vector guarding compiled programs — the
        same tables the flow cache guards, with the hw profile reading
        both parity halves of the split VM-NC table."""
        tables = self.tables
        if self.split_vm_nc is None:
            return (tables.routing.generation, tables.vm_nc.generation,
                    tables.acl.generation)
        halves = self.split_vm_nc.halves
        return (tables.routing.generation, halves[0].generation,
                halves[1].generation, tables.acl.generation)

    def compile(self) -> CompiledProgram:
        """Lower the current table state into an executable program."""
        acl = self.tables.acl
        if len(acl) == 0 and acl.default_verdict is AclVerdict.PERMIT:
            # Provably pass-all; the ACL generation guard keeps it honest.
            classifier = None
        else:
            classifier = CompiledAcl(acl.rules(),
                                     acl.default_verdict is AclVerdict.DENY)
        return CompiledProgram(self.tables, self.gateway_ip,
                               self.generations(), classifier,
                               self.split_vm_nc, self.snat)
