"""Runner for ``cp_churn``: API call -> journal append -> gateway push ->
snapshot -> recovery, on members that actually hold tables.

One caller, closed loop. A *round* is the workload's segment: single
ops (each timed), single-shard ``transaction(vni)`` batches, cross-shard
peer-chain 2PCs, one ``snapshot(sid)`` per shard, one ``shard_status()``,
an un-checkpointed tail, then ``recover_from``; the next round continues
on the recovered controller. Digests and consistency checks run outside
the timers.
"""

import gc
import statistics
import sys
import traceback
from time import perf_counter

from repro.audit import AuditConfig
from repro.core.controller import RouteEntry
from repro.core.journal import Journal, encode_action, encode_binding
from repro.core.splitting import ClusterCapacity, TenantProfile
from repro.dataplane.gateway_logic import ForwardAction
from repro.net.packet import Packet
from repro.shard import ShardedAuditDriver, ShardedController
from repro.tables.vxlan_routing import RouteAction, Scope

from generators import LOCAL, SCALE, CpRegion
from measure import Digest, peak_rss_mb, percentile, quiet
from trace import Tracer

#: Region builds per run: ``setup_s`` is their median (the driver's
#: contract asks for several set-ups a run); the last one is used.
SETUPS = 3
#: Rounds that always run and whose journals make the committed digest.
MIN_ROUNDS = 5
PROBE_FRAMES = 256
SINGLE_KINDS = ("install_route", "remove_route", "install_vm", "remove_vm")


class Failures:
    """API calls that raised; the first traceback goes to stderr."""

    def __init__(self):
        self.count = 0

    def record(self):
        if not self.count:
            traceback.print_exc(file=sys.stderr)
        self.count += 1


def single_calls(controller, ops):
    """Bind a single-op stream to *controller*: ``(kind, fn, args)``."""
    calls = []
    for kind, arg in ops:
        args = arg if isinstance(arg, tuple) else (arg,)
        calls.append((kind, getattr(controller, kind), args))
    return calls


def run_singles(calls, failures, tr=None):
    """Issue each call, timed on its own; returns the latencies (s)."""
    latencies = []
    for kind, fn, args in calls:
        if tr is None:
            t0 = perf_counter()
            try:
                fn(*args)
            except Exception:
                failures.record()
            latencies.append(perf_counter() - t0)
        else:
            with tr.span(f"controller.{kind}"):
                try:
                    fn(*args)
                except Exception:
                    failures.record()
    return latencies


def run_txn(controller, vni, routes, vms, failures):
    """One install batch and its teardown through ``transaction(vni)``."""
    try:
        with controller.transaction(vni) as txn:
            for route in routes:
                txn.install_route(route)
            for vm in vms:
                txn.install_vm(vm)
        with controller.transaction(vni) as txn:
            for route in routes:
                txn.remove_route(route.vni, route.prefix)
            for vm in vms:
                txn.remove_vm(vm.vni, vm.vm_ip, vm.version)
    except Exception:
        failures.record()
    return 2 * (len(routes) + len(vms))


def run_xtxn(controller, a, b, prefix, failures):
    """Install and tear down one cross-shard peer chain: each endpoint's
    cluster gets its own PEER hop plus the remote terminal entry."""
    try:
        with controller.cross_transaction() as xtxn:
            xtxn.install_route(RouteEntry(a, prefix, RouteAction(Scope.PEER, next_hop_vni=b)))
            xtxn.install_route(RouteEntry(b, prefix, LOCAL), owner=a)
            xtxn.install_route(RouteEntry(b, prefix, RouteAction(Scope.PEER, next_hop_vni=a)))
            xtxn.install_route(RouteEntry(a, prefix, LOCAL), owner=b)
        with controller.cross_transaction() as xtxn:
            xtxn.remove_route(a, prefix)
            xtxn.remove_route(b, prefix, owner=a)
            xtxn.remove_route(b, prefix)
            xtxn.remove_route(a, prefix, owner=b)
    except Exception:
        failures.record()
    return 8


def verify(controller, digest, probe_frames):
    """Post-recovery checks, outside every timer. Returns the number of
    failed checks; folds each shard's journal and intent into *digest*."""
    failed = sum(len(found) for found in controller.consistency_check().values())
    intent = controller.intent_snapshot()
    for sid in sorted(controller.shards):
        journal = controller.shards[sid].journal
        if journal.materialize() != intent[sid]:
            failed += 1
        digest.fold_bytes(journal.dump())
        digest.fold(intent[sid])
    # The recovered tables must still deliver: wire frames for onboarded
    # VMs through one member of each owning cluster.
    frames, tenants = probe_frames
    by_gateway = {}
    for frame, vni in zip(frames, tenants):
        cluster = controller.shard_for(vni).clusters[controller.cluster_of(vni)]
        by_gateway.setdefault(id(cluster), (cluster.members()[0].gateway, []))[1].append(frame)
    for gateway, burst in by_gateway.values():
        results = gateway.forward_batch([Packet.from_bytes(f) for f in burst])
        failed += sum(1 for r in results if r.action is not ForwardAction.DELIVER_NC)
        digest.fold_bytes(b"".join(r.packet.to_bytes() for r in results))
    return failed


def play_round(region, controller, index, failures, fraction=1.0):
    """One untraced round. Returns ``(row, recovered_controller)``."""
    ops = region.round_ops(index, fraction)
    latencies = run_singles(single_calls(controller, ops["singles"]), failures)

    batch_ops, batch_s = 0, 0.0
    for vni, routes, vms in ops["txns"]:
        started = perf_counter()
        batch_ops += run_txn(controller, vni, routes, vms, failures)
        batch_s += perf_counter() - started
    for a, b, prefix in ops["xtxns"]:
        started = perf_counter()
        batch_ops += run_xtxn(controller, a, b, prefix, failures)
        batch_s += perf_counter() - started

    pauses = []
    for sid in sorted(controller.shards):
        started = perf_counter()
        controller.snapshot(sid)
        pauses.append(perf_counter() - started)
    controller.shard_status()
    latencies += run_singles(single_calls(controller, ops["tail"]), failures)

    started = perf_counter()
    recovered, _writes = ShardedController.recover_from(controller)
    recover_s = perf_counter() - started
    micros = [s * 1e6 for s in latencies]
    return {
        "ops": len(latencies) + batch_ops,
        "single_s_per_op": sum(latencies) / len(latencies),
        "batch_s_per_op": batch_s / batch_ops,
        "p99_us": percentile(micros, 99),
        "samples": len(micros),
        "pause_s": max(pauses),
        "recover_s": recover_s,
    }, recovered


def run(name, seed, scale, seconds, expected=None):
    """The untraced run: every end-to-end metric of ``cp_churn``."""
    setups = []
    region = None
    for _ in range(SETUPS):
        # Each build starts alone on a collected heap, so the builds are
        # alike: a live earlier region makes the collector's passes longer.
        region = None
        gc.collect()
        started = perf_counter()
        region = CpRegion(seed, scale)
        setups.append(perf_counter() - started)
    controller = region.controller
    frames = region.probe_frames(PROBE_FRAMES)
    failures = Failures()
    failed = verify(controller, Digest(), frames)

    # Warm-up: a quarter-size round, recovery included. Every round
    # starts from a collected heap (see dataplane.run).
    gc.collect()
    gc.freeze()
    _row, controller = play_round(region, controller, -1, failures, fraction=0.25)

    rows = []
    digest = Digest()
    committed = None
    deadline = perf_counter() + seconds
    while len(rows) < MIN_ROUNDS or perf_counter() < deadline:
        gc.collect()
        row, controller = play_round(region, controller, len(rows), failures)
        rows.append(row)
        failed += verify(controller, digest, frames)
        if len(rows) == MIN_ROUNDS:
            committed = digest.hexdigest()
    errors = []
    if expected is not None and committed != expected:
        errors.append(f"round digest {committed} != committed {expected}")
    failed += failures.count + len(errors)
    attempted = sum(row["ops"] for row in rows) + len(rows) * (1 + PROBE_FRAMES)

    # Rounds repeat the same amount of work on op streams drawn alike.
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1.0 / quiet([r["single_s_per_op"] for r in rows]),
        "batch_ops_per_s": 1.0 / quiet([r["batch_s_per_op"] for r in rows]),
        "pause_ms": quiet([r["pause_s"] for r in rows]) * 1e3,
        "recover_s": quiet([r["recover_s"] for r in rows]),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": committed,
        "detail": {
            "errors": errors,
            "rounds_played": len(rows),
            "tenants": region.tenants,
            "latency_samples": sum(r["samples"] for r in rows),
            "setups": setups,
            "rounds": rows,
        },
    }


# -- the traced run ----------------------------------------------------------


def _mean_us(span, name):
    """Mean duration (us) of the spans called *name*."""
    row = span[name]
    return row["total_s"] * 1e6 / row["count"] if row["count"] else 0.0


def journal_probes(controller, recorded):
    """A standalone ``Journal`` fed the recorded op payloads and one
    shard's intent: what each journal call costs on its own."""
    sid = sorted(controller.shards)[0]
    state = controller.shards[sid].controller.intent_snapshot()
    journal = Journal()
    timings = {}

    def timed(label, fn):
        started = perf_counter()
        out = fn()
        timings[label] = perf_counter() - started
        return out

    def feed():
        for op, payload in recorded:
            journal.append(op, payload)

    journal.snapshot(state)
    timed("append", feed)
    timed("materialize", journal.materialize)
    data = timed("dump", journal.dump)
    timed("load", lambda: Journal.load(data))
    timed("telemetry", journal.telemetry)
    timed("snapshot", lambda: journal.snapshot(state))
    return {
        "journal.append_us": timings["append"] * 1e6 / len(recorded),
        "journal.snapshot_ms": timings["snapshot"] * 1e3,
        "journal.materialize_ms": timings["materialize"] * 1e3,
        "journal.dump_ms": timings["dump"] * 1e3,
        "journal.load_ms": timings["load"] * 1e3,
        "journal.telemetry_ms": timings["telemetry"] * 1e3,
    }


def journal_payload(kind, arg):
    """The journal record a single op appends (cluster name aside)."""
    if kind == "install_route":
        return "install-route", {"cluster": "c", "vni": arg.vni, "prefix": str(arg.prefix),
                                 "action": encode_action(arg.action)}
    if kind == "remove_route":
        return "remove-route", {"cluster": "c", "vni": arg[0], "prefix": str(arg[1])}
    if kind == "install_vm":
        return "install-vm", {"cluster": "c", "vni": arg.vni, "vm_ip": arg.vm_ip,
                              "vm_version": arg.version,
                              "binding": encode_binding(arg.binding)}
    return "remove-vm", {"cluster": "c", "vni": arg[0], "vm_ip": arg[1],
                         "vm_version": arg[2]}


def member_push_probe(shadow, ops):
    """Direct pushes onto one shadow member that holds a shard's tables:
    the gateway-push share of an update."""
    clusters = shadow.shards[sorted(shadow.shards)[0]].clusters
    gateway = clusters[sorted(clusters)[0]].members()[0].gateway
    spent = {"install_route": [0.0, 0], "install_vm": [0.0, 0]}
    for kind, arg in ops:
        started = perf_counter()
        if kind == "install_route":
            gateway.install_route(arg.vni, arg.prefix, arg.action, replace=True)
        elif kind == "install_vm":
            gateway.install_vm(arg.vni, arg.vm_ip, arg.version, arg.binding, replace=True)
        elif kind == "remove_route":
            gateway.remove_route(*arg)
        else:
            gateway.remove_vm(*arg)
        if kind in spent:
            spent[kind][0] += perf_counter() - started
            spent[kind][1] += 1
    return {f"xgw_h.{kind}_us": total * 1e6 / max(1, count)
            for kind, (total, count) in spent.items()}


def audit_probes(seed, scale):
    """``ShardedAuditDriver`` on its own small single-shard region (the
    ALPM-oracle invariant is quadratic in tenants)."""
    tenants = max(8, int(64 * min(1.0, scale / SCALE)))
    region = ShardedController.build(
        1, ClusterCapacity(routes=tenants * 64, vms=tenants * 64, traffic_bps=1e18),
        cluster_factory=CpRegion.cluster, vni_space=tenants)
    for vni in range(tenants):
        region.add_tenant(TenantProfile(vni, CpRegion.ROUTES, CpRegion.VMS, 1.0),
                          *CpRegion.tenant_entries(vni))
    driver = ShardedAuditDriver(region, AuditConfig(seed=seed))
    started = perf_counter()
    findings = driver.full_scan()
    full_s = perf_counter() - started
    started = perf_counter()
    driver.tick()
    tick_s = perf_counter() - started
    if findings:
        raise AssertionError(f"audit found divergence on a clean region: {findings}")
    return {"audit.full_scan_ms": full_s * 1e3, "audit.tick_ms": tick_s * 1e3}


def run_traced(name, seed, scale, trace_path=None):
    """The traced run: a quarter-size round under spans, recovery
    decomposed shard by shard, plus the standalone probes."""
    region = CpRegion(seed, scale)
    shadow = CpRegion(seed, scale).controller
    controller = region.controller
    failures = Failures()
    frames = region.probe_frames(PROBE_FRAMES)

    # The same quarter round untraced first: warm-up and overhead base.
    base, controller = play_round(region, controller, -1, failures, fraction=0.25)

    ops = region.round_ops(-1, 0.25)
    tr = Tracer()
    with tr.span("round"):
        tr.new_trace()
        run_singles(single_calls(controller, ops["singles"]), failures, tr)
        tr.new_trace()
        for vni, routes, vms in ops["txns"]:
            with tr.span("controller.txn"):
                run_txn(controller, vni, routes, vms, failures)
            # Route-only and VM-only batches separate the routing.items()
            # scan of a transactional route install from the VM path.
            with tr.span("controller.txn_route"):
                run_txn(controller, vni, routes, [], failures)
            with tr.span("controller.txn_vm"):
                run_txn(controller, vni, [], vms, failures)
        tr.new_trace()
        for a, b, prefix in ops["xtxns"]:
            with tr.span("shard.xtxn"):
                run_xtxn(controller, a, b, prefix, failures)
        tr.new_trace()
        for sid in sorted(controller.shards):
            with tr.span("shard.snapshot"):
                controller.snapshot(sid)
        with tr.span("shard.status"):
            status = controller.shard_status()
        tr.new_trace()
        run_singles(single_calls(controller, ops["tail"]), failures, tr)
        telemetry = [shard.journal.telemetry() for shard in controller.shards.values()]

        # Recovery, one shard at a time.
        tr.new_trace()
        with tr.span("shard.in_doubt_scan"):
            in_doubt = controller.in_doubt()
        rebuilt = {}
        writes = 0
        for sid in sorted(controller.shards):
            with tr.span("shard.recover"):
                rebuilt[sid] = controller.shards[sid].rebuild_for_recovery()
                writes += rebuilt[sid].controller.recover(rebuilt[sid].journal)
        recovered = ShardedController(controller.router, rebuilt)
        with tr.span("controller.consistency_check"):
            findings = recovered.consistency_check()
    failed = verify(recovered, Digest(), frames) + failures.count
    if failed or findings or in_doubt:
        raise AssertionError(f"traced cp round failed {failed} checks")

    router = recovered.router
    vnis = [vni % region.tenants for vni in range(10000)]
    started = perf_counter()
    for vni in vnis:
        router.shard_of(vni)
    router_s = perf_counter() - started

    span = tr.totals()
    txn_ops = 2 * (len(ops["txns"][0][1]))
    m = {f"controller.{kind}_us": _mean_us(span, f"controller.{kind}")
         for kind in SINGLE_KINDS}
    # The highest percentile with ten samples beyond it in a quarter round.
    single_names = {f"controller.{kind}" for kind in SINGLE_KINDS}
    m["controller.update_us_p95"] = percentile(
        [(end - start) * 1e6 for name, _tid, _parent, start, end in tr.spans
         if name in single_names], 95)
    m["controller.txn_route_us_per_op"] = _mean_us(span, "controller.txn_route") / txn_ops
    m["controller.txn_vm_us_per_op"] = _mean_us(span, "controller.txn_vm") / txn_ops
    m["shard.xtxn_ms"] = _mean_us(span, "shard.xtxn") / 2e3
    m["shard.xtxn_per_s"] = 2e6 / _mean_us(span, "shard.xtxn")
    m["shard.router_us"] = router_s * 1e6 / len(vnis)
    m["shard.xtxns_committed"] = controller.counters["xtxns_committed"]
    m["shard.snapshot_ms_per_shard"] = _mean_us(span, "shard.snapshot") / 1e3
    m["shard.status_ms"] = _mean_us(span, "shard.status") / 1e3
    m["shard.in_doubt_scan_ms"] = _mean_us(span, "shard.in_doubt_scan") / 1e3
    m["shard.recover_ms_per_shard"] = _mean_us(span, "shard.recover") / 1e3
    m["controller.recover_writes"] = writes
    m["controller.consistency_check_ms"] = _mean_us(span, "controller.consistency_check") / 1e3
    m["journal.tail_records"] = max(t["tail_records"] for t in telemetry)
    m["journal.segments"] = max(t["segments"] for t in telemetry)
    m["journal.snapshot_bytes"] = max(row["snapshot_bytes"] for row in status)
    recorded = [journal_payload(kind, arg) for kind, arg in ops["singles"]]
    m.update(journal_probes(recovered, recorded))
    m.update(member_push_probe(shadow, ops["singles"]))
    m.update(audit_probes(seed, scale))
    single_spans = [span[f"controller.{kind}"] for kind in SINGLE_KINDS]
    traced_s_per_op = (sum(row["total_s"] for row in single_spans)
                       / sum(row["count"] for row in single_spans))
    m["trace.overhead_pct"] = (traced_s_per_op / base["single_s_per_op"] - 1.0) * 100.0

    wall = tr.root_wall_s()
    stage_s = sum(row["self_s"] for stage, row in span.items() if stage != "round")
    if trace_path is not None:
        tr.dump(trace_path, {"workload": name, "seed": seed, "scale": scale,
                             "stage_self_time_share_of_wall": stage_s / wall})
    return m, {"attempted": sum(row["count"] for row in single_spans),
               "traced_wall_s": wall, "stage_self_time_s": stage_s}
