"""BatchCompiler: lower the placed gateway program to columnar steps.

The scalar data plane interprets one packet at a time: every packet
re-walks ACL rules, meter buckets, the VXLAN routing table (with PEER
chains) and the VM-NC mapping. This module compiles a gateway's table
bundle into a :class:`CompiledProgram` — a flat sequence of match-action
stages executed over a whole :class:`~repro.dataplane.columnar.batch.
PacketBatch` — the "Packet Transactions" guarded pipeline lowered to
array operations instead of ALUs:

1. **classify** — the ACL table becomes a :class:`CompiledAcl`: on the
   numpy backend each rule is one predicate mask ANDed from per-column
   compares (128-bit addresses split into two uint64 half-compares) and
   applied first-match over the still-undecided lanes; the pure-python
   backend runs the same first-match scan per lane.
2. **meter** — per-key token buckets charge their lanes as one run in
   lane order (bucket state depends only on its own ordered charge
   sequence); VNIs with no bucket settle GREEN in a single update.
3. **decide** — terminal decisions (routing resolution incl. PEER
   chains + VM-NC lookup) are computed once per unique
   ``(VNI, inner dst, version)`` key and memoized for the program's
   lifetime; the memo is discarded with the program when any table
   generation moves.
4. **assemble** — decisions scatter-gather back into per-lane
   :class:`~repro.dataplane.gateway_logic.ForwardResult` objects, each
   DELIVER lane rewritten by ``Packet.rewritten`` (on a packet decoded
   from the wire: a pending patch of its kept frame, no header built).

Per-packet verdicts (ACL deny, meter red) are never memoized; counters
and meters settle to byte-identical state vs the scalar oracle
(property-tested in ``tests/dataplane/test_columnar_differential.py``).

>>> from repro.dataplane.gateway_logic import GatewayTables
>>> from repro.dataplane.columnar.backend import resolve_backend
>>> from repro.dataplane.columnar.batch import PacketBatch
>>> from repro.workloads.traffic import build_vxlan_packet
>>> tables = GatewayTables()
>>> program = BatchCompiler(tables, gateway_ip=0x0A0000FE).compile()
>>> batch = PacketBatch.from_packets(
...     [build_vxlan_packet(vni=9, src_ip=1, dst_ip=2)],
...     resolve_backend("python"))
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
from ..gateway_logic import ForwardAction, ForwardResult, GatewayTables, vni_key
from .batch import PacketBatch

_DROP = ForwardAction.DROP
_DELIVER = ForwardAction.DELIVER_NC
_REDIRECT = ForwardAction.REDIRECT_X86
_UPLINK = ForwardAction.UPLINK

_MASK64 = (1 << 64) - 1

#: Per-lane fate codes assigned by the per-packet stages. 0 keeps the
#: lane on its key decision; the rest are per-packet drops that must
#: never be memoized.
_FATE_PASS = 0
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


#: ForwardResult has no __post_init__; KeyDecision.build makes one per lane.
_result = unchecked(ForwardResult)


class KeyDecision:
    """The memoized terminal decision for one (VNI, dst, version) key.

    Mirrors :class:`~repro.dataplane.flowcache.CacheEntry`, with a
    prototype (packet, result) pair so replayed bursts of interned
    packets reuse the frozen result object instead of re-allocating it.
    """

    __slots__ = ("action", "detail", "resolved_vni", "nc_ip", "rewrite_vni",
                 "proto_packet", "proto_result")

    def __init__(self):
        self.action: Optional[ForwardAction] = None
        self.detail = ""
        self.resolved_vni: Optional[int] = None
        self.nc_ip: Optional[int] = None
        self.rewrite_vni: Optional[int] = None
        self.proto_packet: Optional[Packet] = None
        self.proto_result: Optional[ForwardResult] = None

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
    """The ACL table lowered to first-match predicate masks.

    On a vectorized backend each rule becomes one boolean mask built
    from per-column compares; DENY masks accumulate, every matched lane
    leaves the undecided set (first-match). The pure-python backend
    runs the identical first-match scan lane by lane. Both return
    ``(deny_lanes, matched)`` with *matched* equal to the number of
    lanes any rule claimed — the table's ``matched`` telemetry.
    """

    __slots__ = ("rules", "default_deny")

    def __init__(self, rules, default_deny: bool):
        self.rules = rules
        self.default_deny = default_deny

    def classify(self, batch: PacketBatch) -> Tuple[List[int], int]:
        if batch.backend.vectorized:
            return self._classify_vector(batch)
        return self._classify_lanes(batch)

    def _classify_vector(self, batch: PacketBatch) -> Tuple[List[int], int]:
        np = batch.backend.np
        u64 = np.uint64
        undecided = batch.vxlan_mask.copy()
        deny = None
        for rule in self.rules:
            m = undecided
            if rule.vni is not None:
                m = m & (batch.vni_col == rule.vni)
            net = rule.src_net
            if net is not None:
                network, mask = net
                # (addr & mask) == network decomposes exactly into the
                # two uint64 halves (bitwise AND has no carries).
                m = (m
                     & ((batch.src_hi & u64((mask >> 64) & _MASK64))
                        == u64((network >> 64) & _MASK64))
                     & ((batch.src_lo & u64(mask & _MASK64))
                        == u64(network & _MASK64)))
            net = rule.dst_net
            if net is not None:
                network, mask = net
                m = (m
                     & ((batch.dst_hi & u64((mask >> 64) & _MASK64))
                        == u64((network >> 64) & _MASK64))
                     & ((batch.dst_lo & u64(mask & _MASK64))
                        == u64(network & _MASK64)))
            if rule.proto is not None:
                m = m & (batch.proto_col == rule.proto)
            ports = rule.src_ports
            if ports is not None:
                m = m & (batch.sport_col >= ports[0]) & (batch.sport_col <= ports[1])
            ports = rule.dst_ports
            if ports is not None:
                m = m & (batch.dport_col >= ports[0]) & (batch.dport_col <= ports[1])
            if rule.verdict is AclVerdict.DENY:
                deny = m if deny is None else (deny | m)
            undecided = undecided & ~m
            if not undecided.any():
                break
        matched = batch.vxlan_count - int(np.count_nonzero(undecided))
        if self.default_deny:
            deny = undecided if deny is None else (deny | undecided)
        if deny is None or not deny.any():
            return [], matched
        return np.nonzero(deny)[0].tolist(), matched

    def _classify_lanes(self, batch: PacketBatch) -> Tuple[List[int], int]:
        deny_lanes: List[int] = []
        deny_append = deny_lanes.append
        matched = 0
        keys = batch.keys
        src = batch.src_list
        dst = batch.dst_list
        proto = batch.proto_list
        sport = batch.sport_list
        dport = batch.dport_list
        rules = self.rules
        default_deny = self.default_deny
        deny_verdict = AclVerdict.DENY
        for i, key in enumerate(keys):
            if key is None:
                continue
            vni = key[0]
            for rule in rules:
                if rule.vni is not None and rule.vni != vni:
                    continue
                net = rule.src_net
                if net is not None and (src[i] & net[1]) != net[0]:
                    continue
                net = rule.dst_net
                if net is not None and (dst[i] & net[1]) != net[0]:
                    continue
                if rule.proto is not None and rule.proto != proto[i]:
                    continue
                ports = rule.src_ports
                if ports is not None and not (ports[0] <= sport[i] <= ports[1]):
                    continue
                ports = rule.dst_ports
                if ports is not None and not (ports[0] <= dport[i] <= ports[1]):
                    continue
                matched += 1
                if rule.verdict is deny_verdict:
                    deny_append(i)
                break
            else:
                if default_deny:
                    deny_append(i)
        return deny_lanes, matched


class BatchTally:
    """Burst-level bookkeeping the gateway wrapper applies in one flush:
    per-action counts, per-reason drop counts, the lanes needing SNAT
    service (x86), and the hw profile's pipe/bridge aggregates."""

    __slots__ = ("actions", "drop_details", "snat_lanes",
                 "pipe_packets", "bridged_bytes")

    def __init__(self):
        self.actions: Dict[ForwardAction, int] = {}
        self.drop_details: Dict[str, int] = {}
        self.snat_lanes: List[int] = []
        self.pipe_packets: Optional[dict] = None
        self.bridged_bytes = 0


class CompiledProgram:
    """One gateway's placed program, compiled for whole-burst execution.

    Valid only while :attr:`generations` equals the live table
    generation vector — the owner recompiles (dropping the key memo)
    whenever any guarded table mutates, exactly like
    a stale flow-cache entry.
    """

    __slots__ = ("tables", "gateway_ip", "generations", "classifier",
                 "split_vm_nc", "hw", "watch_snat", "memo")

    def __init__(self, tables: GatewayTables, gateway_ip: int,
                 generations: tuple, classifier: Optional[CompiledAcl],
                 split_vm_nc=None, watch_snat: bool = False):
        self.tables = tables
        self.gateway_ip = gateway_ip
        self.generations = generations
        self.classifier = classifier
        self.split_vm_nc = split_vm_nc
        self.hw = split_vm_nc is not None
        self.watch_snat = watch_snat
        self.memo: Dict[tuple, KeyDecision] = {}

    # -- decide (once per unique key) -----------------------------------

    def _resolve_keys(self, keys: List[tuple]) -> None:
        """Memoize decisions for *keys* via the bulk table helpers."""
        tables = self.tables
        memo = self.memo
        local: List[tuple] = []
        for key, res in zip(keys, tables.routing.resolve_many(keys)):
            d = KeyDecision()
            memo[key] = d
            if isinstance(res, MissingEntryError):
                d.action = _DROP
                d.detail = "no-route"
                continue
            if isinstance(res, RoutingLoopError):
                d.action = _DROP
                d.detail = "peer-loop"
                continue
            scope = res.action.scope
            if scope is Scope.LOCAL:
                local.append((key, res, d))
            elif scope is Scope.SERVICE:
                d.action = _REDIRECT
                d.detail = res.action.target or "service"
                d.resolved_vni = res.vni
            else:
                d.action = _UPLINK
                d.detail = res.action.target or scope.value
                d.resolved_vni = res.vni
        if not local:
            return
        if self.hw:
            split = self.split_vm_nc
            bindings = [split.lookup(res.vni, key[1], key[2])
                        for key, res, _d in local]
        else:
            bindings = tables.vm_nc.lookup_many(
                [(res.vni, key[1], key[2]) for key, res, _d in local])
        for (key, res, d), binding in zip(local, bindings):
            if binding is None:
                d.action = _DROP
                d.detail = "no-vm"
                d.resolved_vni = res.vni
            else:
                d.action = _DELIVER
                d.detail = "local"
                d.resolved_vni = res.vni
                d.nc_ip = binding.nc_ip
                if res.vni != key[0]:
                    d.rewrite_vni = res.vni

    # -- execute --------------------------------------------------------

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

        hw = self.hw
        nonvxlan = batch.nonvxlan_lanes
        fate: Optional[bytearray] = None
        if nonvxlan:
            fate = bytearray(n)
            for i in nonvxlan:
                fate[i] = _FATE_NOT_VXLAN

        # Per-uniq / per-VNI kill tallies from the per-packet stages.
        denied_by_uniq: Dict[int, int] = {}
        denied_bytes: Dict[int, int] = {}
        denied_by_vni: Dict[int, int] = {}
        red_by_uniq: Dict[int, int] = {}
        red_bytes: Dict[int, int] = {}
        limited_by_uniq: Dict[int, int] = {}
        n_denied = n_red = n_limited = 0

        # Stage: ingress tenant counters. The x86 program counts every
        # VXLAN packet before the ACL; the hw program only counts
        # delivered packets at egress (Table D, settled further down).
        if not hw and per_vni:
            tables.counters.count_batch_many(
                {vni_key(vni): (acc[0], acc[1]) for vni, acc in per_vni.items()})

        # Stage: ACL classify (per packet — full 5-tuple, never memoized).
        # The scalar program consults the ACL on every VXLAN packet, so
        # the lookup telemetry charges even on the pass-all fast path.
        if batch.vxlan_count:
            tables.acl.lookups += batch.vxlan_count
        classifier = self.classifier
        if classifier is not None and batch.vxlan_count:
            deny_lanes, matched = classifier.classify(batch)
            acl = tables.acl
            acl.matched += matched
            if deny_lanes:
                if fate is None:
                    fate = bytearray(n)
                n_denied = len(deny_lanes)
                keys = batch.keys
                for i in deny_lanes:
                    fate[i] = _FATE_ACL_DENY
                    u = inverse[i]
                    size = sizes[i]
                    denied_by_uniq[u] = denied_by_uniq.get(u, 0) + 1
                    denied_bytes[u] = denied_bytes.get(u, 0) + size
                    vni = keys[i][0]
                    denied_by_vni[vni] = denied_by_vni.get(vni, 0) + 1

        # Stage: per-VNI meters, charged as per-key runs in lane order.
        meters = tables.meters
        if len(meters) == 0:
            meters.pass_unmetered(batch.vxlan_count - n_denied)
        else:
            greens = 0
            for vni, lanes in batch.lanes_by_vni().items():
                key = vni_key(vni)
                if not meters.has_meter(key):
                    greens += per_vni[vni][0] - denied_by_vni.get(vni, 0)
                    continue
                if fate is None:
                    run_lanes = lanes
                else:
                    run_lanes = [i for i in lanes if not fate[i]]
                colors = meters.charge_run(key, now, [sizes[i] for i in run_lanes])
                if colors is None:
                    continue
                red = MeterColor.RED
                for i, color in zip(run_lanes, colors):
                    if color is red:
                        if fate is None:
                            fate = bytearray(n)
                        fate[i] = _FATE_METER_RED
                        u = inverse[i]
                        red_by_uniq[u] = red_by_uniq.get(u, 0) + 1
                        red_bytes[u] = red_bytes.get(u, 0) + sizes[i]
                        n_red += 1
            if greens:
                meters.pass_unmetered(greens)

        # Stage (hw only): §4.2 overload-protection meter on the
        # redirect path, charged for admitted SERVICE lanes in lane
        # order (the same order the scalar pipeline charges them).
        if hw:
            service = {u for u, d in enumerate(decs) if d.action is _REDIRECT}
            if service:
                if fate is None:
                    service_lanes = [i for i in range(n) if inverse[i] in service]
                else:
                    service_lanes = [i for i in range(n)
                                     if not fate[i] and inverse[i] in service]
                colors = meters.charge_run(
                    "redirect-x86", now, [sizes[i] for i in service_lanes])
                if colors is not None:
                    red = MeterColor.RED
                    for i, color in zip(service_lanes, colors):
                        if color is red:
                            if fate is None:
                                fate = bytearray(n)
                            fate[i] = _FATE_REDIRECT_LIMITED
                            u = inverse[i]
                            limited_by_uniq[u] = limited_by_uniq.get(u, 0) + 1
                            n_limited += 1

        # Stage: assemble — scatter-gather decisions back into per-lane
        # results. The all-pass shape (steady-state replay) runs without
        # any fate checks.
        gateway_ip = self.gateway_ip
        results: List[Optional[ForwardResult]] = [None] * n
        if fate is None:
            for i, p in enumerate(packets):
                d = decs[inverse[i]]
                results[i] = (d.proto_result if p is d.proto_packet
                              else d.build(p, gateway_ip, hw))
        else:
            details = _FATE_DETAILS
            for i, p in enumerate(packets):
                f = fate[i]
                if f == _FATE_PASS:
                    d = decs[inverse[i]]
                    results[i] = (d.proto_result if p is d.proto_packet
                                  else d.build(p, gateway_ip, hw))
                else:
                    results[i] = ForwardResult(_DROP, p, detail=details[f])

        # Stage: tally.
        tally = BatchTally()
        actions = tally.actions
        drop_details = tally.drop_details
        for u, d in enumerate(decs):
            admitted = (uniq_counts[u] - denied_by_uniq.get(u, 0)
                        - red_by_uniq.get(u, 0) - limited_by_uniq.get(u, 0))
            if not admitted:
                continue
            action = d.action
            actions[action] = actions.get(action, 0) + admitted
            if action is _DROP:
                drop_details[d.detail] = drop_details.get(d.detail, 0) + admitted
        for count, detail in ((len(nonvxlan), "not-vxlan"),
                              (n_denied, "acl-deny"),
                              (n_red, "meter-red"),
                              (n_limited, "redirect-rate-limited")):
            if count:
                actions[_DROP] = actions.get(_DROP, 0) + count
                drop_details[detail] = drop_details.get(detail, 0) + count

        if self.watch_snat:
            watch = {u for u, d in enumerate(decs)
                     if d.action is _REDIRECT and d.detail == "snat"}
            if watch:
                if fate is None:
                    tally.snat_lanes = [i for i in range(n) if inverse[i] in watch]
                else:
                    tally.snat_lanes = [i for i in range(n)
                                        if not fate[i] and inverse[i] in watch]

        if hw:
            self._tally_fabric(tally, decs, unique_keys, uniq_counts, uniq_bytes,
                               denied_by_uniq, denied_bytes,
                               red_by_uniq, red_bytes, limited_by_uniq,
                               len(nonvxlan))
        return results, tally

    def _tally_fabric(self, tally: BatchTally, decs, unique_keys, uniq_counts,
                      uniq_bytes, denied_by_uniq, denied_bytes,
                      red_by_uniq, red_bytes, limited_by_uniq,
                      nonvxlan_count: int) -> None:
        """Aggregate the folded-chip bookkeeping (per-pipe packet counts,
        bridge bytes, the egress Table D counters) for the hw profile —
        identical totals to per-packet fabric traversals."""
        from ...tofino.pipeline import Gress

        ingress = Gress.INGRESS
        egress = Gress.EGRESS
        pipe: Dict[tuple, int] = {}
        bridged = 0
        egress_charges: Dict[tuple, list] = {}
        for u, d in enumerate(decs):
            key = unique_keys[u]
            entry = 0 if key[1] % 2 == 0 else 2
            total = uniq_counts[u]
            ref = (entry, ingress)
            pipe[ref] = pipe.get(ref, 0) + total
            admitted = (total - denied_by_uniq.get(u, 0)
                        - red_by_uniq.get(u, 0) - limited_by_uniq.get(u, 0))
            if not admitted:
                continue
            action = d.action
            if action is _DELIVER or (action is _DROP and d.detail == "no-vm"):
                ref = (entry + 1, egress)
                pipe[ref] = pipe.get(ref, 0) + admitted
                bridged += admitted * _BRIDGE1_BYTES
                if action is _DELIVER:
                    ref = (entry + 1, ingress)
                    pipe[ref] = pipe.get(ref, 0) + admitted
                    ref = (entry, egress)
                    pipe[ref] = pipe.get(ref, 0) + admitted
                    bridged += admitted * 2 * _BRIDGE23_BYTES
                    # Table D (egress counters): delivered packets only,
                    # keyed by the packet's original VNI; the rewrite
                    # preserves the wire length.
                    ckey = vni_key(key[0])
                    admitted_bytes = (uniq_bytes[u] - denied_bytes.get(u, 0)
                                      - red_bytes.get(u, 0))
                    acc = egress_charges.get(ckey)
                    if acc is None:
                        egress_charges[ckey] = [admitted, admitted_bytes]
                    else:
                        acc[0] += admitted
                        acc[1] += admitted_bytes
        if nonvxlan_count:
            ref = (0, ingress)
            pipe[ref] = pipe.get(ref, 0) + nonvxlan_count
        if egress_charges:
            self.tables.counters.count_batch_many(
                {k: (acc[0], acc[1]) for k, acc in egress_charges.items()})
        tally.pipe_packets = pipe
        tally.bridged_bytes = bridged


class BatchCompiler:
    """Compiles one gateway's table bundle into a CompiledProgram.

    Pass *split_vm_nc* for the XGW-H profile (parity-split VM-NC halves,
    redirect-path metering, folded-chip bookkeeping); leave it None for
    XGW-x86. *watch_snat* makes the program report admitted SNAT
    redirect lanes so the x86 wrapper can run the service layer on them.
    """

    def __init__(self, tables: GatewayTables, gateway_ip: int,
                 split_vm_nc=None, watch_snat: bool = False):
        self.tables = tables
        self.gateway_ip = gateway_ip
        self.split_vm_nc = split_vm_nc
        self.watch_snat = watch_snat

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
                               self.split_vm_nc, self.watch_snat)
