"""Runner for the four data-plane workloads (``dp_*``).

Closed loop, one caller: per burst every frame is decoded with
``Packet.from_bytes``, the decoded burst goes through the node's tiers,
and every non-drop result is encoded with ``to_bytes``. The untraced
run reads the clock four times per burst and nothing else; digests and
checks happen outside those reads. The traced run wraps the same calls
in spans and adds shadow-gateway probes.
"""

import gc
import statistics
from time import perf_counter

from repro.dataplane.columnar import PacketBatch
from repro.dataplane.gateway_logic import (
    DropReason,
    ForwardAction,
    inner_flow_key,
    vni_key,
)
from repro.net.packet import Packet
from repro.tables.vxlan_routing import Resolution, Scope

from generators import DP_WORKLOADS, scaled
from measure import Digest, peak_rss_mb, percentile, quiet
from trace import Tracer

_DROP = ForwardAction.DROP
_REDIRECT = ForwardAction.REDIRECT_X86
_DPU_MISS = DropReason.DPU_TABLE_MISS.value
_from_bytes = Packet.from_bytes

#: Simulated seconds between bursts (meters need a monotonic clock).
TICK = 1e-4
#: Invalidate-and-refill repetitions behind ``recover_s``.
COLD_STARTS = 12
#: ``pause_ms`` is this percentile over the lap's bursts of their quiet
#: wire-to-wire times. The slowest burst of a run, or of a segment, is
#: collector and scheduler noise: it does not repeat (see README).
PAUSE_PERCENTILE = 90


class Clock:
    """The node's simulated data-plane time: one tick per burst."""

    def __init__(self):
        self.ticks = 0

    def next(self):
        self.ticks += 1
        return self.ticks * TICK


# -- node state: counters folded into digests and compared with the oracle ---


def node_state(node):
    """Every simulated statistic the node exposes, as plain data."""
    state = {}
    for label, gw in node.gateways().items():
        tables = gw.tables
        entry = {
            "counters": gw.counters.snapshot(),
            "table_packets": tables.counters.total_packets(),
            "table_bytes": tables.counters.total_bytes(),
            "meters": [tables.meters.green, tables.meters.yellow, tables.meters.red],
        }
        if hasattr(gw, "stats"):
            entry["stats"] = dict(vars(gw.stats))
        if hasattr(gw, "sessions"):
            entry["sessions"] = len(gw.sessions)
        if getattr(gw, "snat_service", None) is not None:
            entry["snat_sessions"] = len(gw.snat_service.snat)
        state[label] = entry
    return state


def conservation_errors(state):
    """Violations of ``rx = sum(action_*)`` and ``drops = sum(drop_*)``."""
    errors = []
    for label, entry in state.items():
        counters = entry["counters"]
        drops = sum(v for k, v in counters.items() if k.startswith("drop_"))
        if "stats" in entry:
            stats = entry["stats"]
            outcomes = (stats["delivered"] + stats["uplinked"] + stats["redirected"]
                        + stats["dropped"] + stats["buffered"])
            if stats["packets"] != outcomes or stats["dropped"] != drops:
                errors.append(f"{label}: chip stats do not conserve packets")
        else:
            actions = sum(v for k, v in counters.items() if k.startswith("action_"))
            if (counters.get("rx_packets", 0) != actions
                    or counters.get("action_drop", 0) != drops):
                errors.append(f"{label}: counters do not conserve packets")
    return errors


def packet_totals(state):
    """``(rx, dropped, redirected)`` summed over the node's elements."""
    rx = dropped = redirected = 0
    for entry in state.values():
        if "stats" in entry:
            rx += entry["stats"]["packets"]
            dropped += entry["stats"]["dropped"]
            redirected += entry["stats"]["redirected"]
        else:
            counters = entry["counters"]
            rx += counters.get("rx_packets", 0)
            dropped += counters.get("action_drop", 0)
            redirected += counters.get("action_redirect_x86", 0)
    return rx, dropped, redirected


# -- the untraced burst loop -------------------------------------------------


def play(node, first, last, clock, digest=None, keep=None):
    """Replay lap bursts ``[first, last)``; returns per-burst
    ``(wire_s, fwd_s, packets)``. *digest* folds every result outside
    the timers; *keep* collects the result lists (oracle gate)."""
    timings = []
    lap = node.lap
    forward = node.forward
    for index in range(first, last):
        tag, frames = lap[index]
        now = clock.next()
        t0 = perf_counter()
        node.before_burst(index)
        packets = [_from_bytes(frame) for frame in frames]
        t1 = perf_counter()
        results = forward(tag, packets, now)
        t2 = perf_counter()
        wire = [r.packet.to_bytes() for r in results if r.action is not _DROP]
        node.after_burst(index)
        t3 = perf_counter()
        if len(results) != len(frames):
            raise AssertionError("forwarding lost or invented packets")
        timings.append((t3 - t0, t2 - t1, len(frames)))
        if digest is not None:
            digest.fold_bytes(b"".join(wire))
            digest.fold([(r.action.value, r.detail, r.nc_ip) for r in results])
        if keep is not None:
            keep.append(results)
    return timings


def oracle_gate(test, oracle):
    """Replay the first ``GATE_PACKETS`` packets through a fresh node and
    through the never-cached scalar oracle; returns ``(packets,
    mismatches)``."""
    bursts = test.gate_bursts()
    got, want = [], []
    play(test, 0, bursts, Clock(), keep=got)
    play(oracle, 0, bursts, Clock(), keep=want)
    mismatches = 0
    packets = 0
    for got_burst, want_burst in zip(got, want):
        for g, w in zip(got_burst, want_burst):
            packets += 1
            if (g.action is not w.action or g.detail != w.detail
                    or g.nc_ip != w.nc_ip
                    or g.packet.to_bytes() != w.packet.to_bytes()):
                mismatches += 1
    if node_state(test) != node_state(oracle):
        mismatches += 1
    return packets, mismatches


def timed_laps(node, clock, seconds):
    """Replay whole segments until *seconds* have passed. The first lap
    is the committed digest's fixed prefix and always completes; after
    it the replay stops at a segment boundary. Returns every burst's
    timings in replay order (burst ``i`` is lap burst ``i % len(lap)``)
    and the digest of every completed lap."""
    timings = []
    lap_digests = []
    per_segment = node.bursts_per_segment
    deadline = perf_counter() + seconds
    while True:
        node.before_lap()
        digest = Digest()
        for first in range(0, len(node.lap), per_segment):
            if lap_digests and perf_counter() >= deadline:
                return timings, lap_digests
            gc.collect()
            timings += play(node, first, first + per_segment, clock, digest)
        digest.fold(node_state(node))
        lap_digests.append(digest.hexdigest())


def quiet_lap(timings, lap_bursts):
    """One lap with every burst at its quiet time: per lap burst, the
    first quartile over the laps replayed of its wire-to-wire time and
    of its forward time, ``(wire_s, fwd_s)``. Like is compared with
    like: the same frames against the same table state, lap after lap."""
    return ([quiet([t[0] for t in timings[index::lap_bursts]])
             for index in range(lap_bursts)],
            [quiet([t[1] for t in timings[index::lap_bursts]])
             for index in range(lap_bursts)])


def run(name, seed, scale, seconds, expected=None):
    """The untraced run: every end-to-end metric of one ``dp_*`` workload."""
    cls = DP_WORKLOADS[name]
    setups = []
    nodes = []
    for mode in ("default", "oracle", "default"):
        started = perf_counter()
        nodes.append(cls(seed, scale, mode))
        setups.append(perf_counter() - started)
    test, oracle, node = nodes
    del nodes

    attempted, failed = oracle_gate(test, oracle)
    errors = conservation_errors(node_state(test))
    del test, oracle

    # Set-up objects leave the collector's sight, and every segment
    # starts from a collected heap, so a segment's collector work is its
    # own and lands in the same stage every time.
    gc.collect()
    gc.freeze()
    clock = Clock()
    node.before_lap()
    warm_up = play(node, 0, node.bursts_per_segment, clock)
    attempted += sum(t[2] for t in warm_up)
    timings, lap_digests = timed_laps(node, clock, seconds)
    timed = sum(t[2] for t in timings)
    attempted += timed
    wire_s, fwd_s = quiet_lap(timings, len(node.lap))
    lap_packets = sum(len(frames) for _tag, frames in node.lap)

    # Cold starts, after the digested laps: one no-op table write kills
    # every compiled program, memo and cache entry of the node, then the
    # first GATE_PACKETS packets go wire to wire through it.
    cold_starts = []
    for _ in range(COLD_STARTS):
        node.invalidate()
        gc.collect()
        cold = play(node, 0, node.gate_bursts(), clock)
        cold_starts.append(sum(t[0] for t in cold))
        attempted += sum(t[2] for t in cold)

    errors += conservation_errors(node_state(node))
    if expected is not None and lap_digests[0] != expected:
        errors.append(f"lap digest {lap_digests[0]} != committed {expected}")
        failed += lap_packets
    failed += len(errors)

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": lap_packets / sum(wire_s),
        "batch_ops_per_s": lap_packets / sum(fwd_s),
        "pause_ms": percentile(wire_s, PAUSE_PERCENTILE) * 1e3,
        "recover_s": quiet(cold_starts),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": lap_digests[0],
        "detail": {
            "errors": errors,
            "bursts": len(timings),
            "laps": len(timings) / len(node.lap),
            "timed_packets": timed,
            "burst": node.burst,
            "bursts_per_segment": node.bursts_per_segment,
            "lap_packets": lap_packets,
            "setups": setups,
            "cold_starts": cold_starts,
            "lap_digests": lap_digests,
            "burst_s": [(t[0], t[1]) for t in timings],
        },
    }


# -- the traced run ----------------------------------------------------------


def generation_vector(node):
    """The public generation counters of every table bundle of the node."""
    vector = []
    for gw in node.gateways().values():
        tables = gw.tables
        vector += [tables.routing.generation, tables.vm_nc.generation,
                   tables.acl.generation]
        split = getattr(gw, "split_vm_nc", None)
        if split is not None:
            vector += [half.generation for half in split.halves.values()]
    return vector


def forward_traced(node, tag, packets, now, tr, decompose):
    """``node.forward`` with a span around every call into a tier.
    *decompose* splits the x86 ``forward_batch(list)`` into
    ``PacketBatch.from_packets`` + ``forward_batch(PacketBatch)`` (only
    meaningful on the default, compiled path)."""
    if tag == "x86":
        x86 = node.x86
        if x86.migration is not None and x86.migration.frozen:
            with tr.span("migration.frozen_burst"):
                return x86.forward_batch(packets, now)
        if not decompose:
            with tr.span("x86.batch"):
                return x86.forward_batch(packets, now)
        with tr.span("columnar.shred"):
            batch = PacketBatch.from_packets(packets)
        with tr.span("columnar.execute"):
            results = x86.forward_batch(batch, now)
        tr.count("columnar.bursts")
        tr.count("columnar.lanes", batch.n)
        tr.count("columnar.keys", len(batch.key_index()[0]))
        return results
    if tag == "h":
        with tr.span("xgw_h.batch"):
            return node.gwh.forward_batch(packets, now)
    if tag == "inet":
        with tr.span("xgw_h.batch"):
            results = node.gwh.forward_batch(packets, now)
        redirected = [r.packet for r in results if r.action is _REDIRECT]
        tr.count("x86.snat_packets", len(redirected))
        with tr.span("x86.snat"):
            served = iter(node.x86.forward_batch(redirected, now))
        return [next(served) if r.action is _REDIRECT else r for r in results]
    results = []
    for packet in packets:
        with tr.span("dpu.fwd"):
            result = node.dpu.forward(packet, now)
        if result.action is _DROP and result.detail == _DPU_MISS:
            with tr.span("x86.single_fwd"):
                result = node.x86.forward_dpu_miss(packet, now)
        results.append(result)
    return results


def play_traced(node, last, tr, decompose=True):
    """Traced replay of lap bursts ``[0, last)``. Returns the decoded
    bursts and, per burst, ``(generation_moved, forward_s)``."""
    clock = Clock()
    decoded = []
    bursts = []
    node.before_lap()
    previous = generation_vector(node)
    for index in range(last):
        tag, frames = node.lap[index]
        now = clock.next()
        tr.new_trace()
        with tr.span("burst"):
            with tr.span("control.write"):
                node.before_burst(index)
            vector = generation_vector(node)
            with tr.span("net.decode"):
                packets = [_from_bytes(frame) for frame in frames]
            started = perf_counter()
            results = forward_traced(node, tag, packets, now, tr, decompose)
            forward_s = perf_counter() - started
            with tr.span("net.encode"):
                wire = [r.packet.to_bytes() for r in results if r.action is not _DROP]
            with tr.span("control.abort"):
                node.after_burst(index)
        tr.count("packets", len(frames))
        tr.count("encoded", len(wire))
        tr.count(f"packets.{tag}", len(frames))
        bursts.append((vector != previous, forward_s))
        previous = vector
        decoded.append((tag, packets))
    return decoded, bursts


def _per(total_s, count):
    """Microseconds per item (0 when the layer saw no item)."""
    return total_s * 1e6 / count if count else 0.0


def table_probes(tables, decoded):
    """Time the bulk table helpers on a shadow copy of the x86 tables
    (not the traced node's), fed the traced packets."""
    packets = [p for _tag, burst in decoded for p in burst]
    keys = list(dict.fromkeys(
        (p.vni, p.inner_dst, p.inner_version) for p in packets))
    started = perf_counter()
    resolved = tables.routing.resolve_many(keys)
    resolve_s = perf_counter() - started
    queries = [(res.vni, key[1], key[2]) for key, res in zip(keys, resolved)
               if isinstance(res, Resolution) and res.action.scope is Scope.LOCAL]
    started = perf_counter()
    tables.vm_nc.lookup_many(queries)
    lookup_s = perf_counter() - started

    flows = [(p.vni, inner_flow_key(p)) for p in packets]
    evaluate = tables.acl.evaluate
    started = perf_counter()
    for vni, flow in flows:
        evaluate(vni, flow)
    acl_s = perf_counter() - started

    # One metered key's packets as one run (an unmetered key's when the
    # workload configures no meter: the dict-miss path).
    meters = tables.meters
    metered = [p for p in packets if meters.has_meter(vni_key(p.vni))]
    key = vni_key((metered or packets)[0].vni)
    sizes = [p.wire_length() for p in (metered or packets) if vni_key(p.vni) == key]
    started = perf_counter()
    meters.charge_run(key, 1e9, sizes)   # later than any replayed burst
    meter_s = perf_counter() - started

    charges = []
    for _tag, burst in decoded:
        per_vni = {}
        for p in burst:
            acc = per_vni.setdefault(vni_key(p.vni), [0, 0])
            acc[0] += 1
            acc[1] += p.wire_length()
        charges.append({k: (v[0], v[1]) for k, v in per_vni.items()})
    started = perf_counter()
    for charge in charges:
        tables.counters.count_batch_many(charge)
    flush_s = perf_counter() - started
    return {
        "tables.routing_resolve_us_per_key": _per(resolve_s, len(keys)),
        "tables.vm_nc_lookup_us_per_key": _per(lookup_s, len(queries)),
        "tables.acl_us_per_pkt": _per(acl_s, len(flows)),
        "tables.meter_us_per_pkt": _per(meter_s, len(sizes)),
        "tables.metered_share": len(metered) / len(packets),
        "tables.counter_flush_us_per_burst": _per(flush_s, len(charges)),
    }


def run_traced(name, seed, scale, trace_path=None):
    """The traced run: first quarter of the lap under spans, plus the
    shadow-gateway probes. Returns ``({metric: value}, detail)``."""
    cls = DP_WORKLOADS[name]
    node = cls(seed, scale)
    quarter = node.trace_bursts()
    packets = sum(len(frames) for _tag, frames in node.lap[:quarter])

    # Same quarter untraced on its own fresh node: the tracing overhead.
    untraced_node = cls(seed, scale)
    untraced_node.before_lap()
    untraced_s = sum(t[0] for t in play(untraced_node, 0, quarter, Clock()))
    del untraced_node

    tr = Tracer()
    decoded, bursts = play_traced(node, quarter, tr)
    state = node_state(node)
    errors = conservation_errors(state)
    if errors:
        raise AssertionError("; ".join(errors))
    span = tr.totals()
    wall = tr.root_wall_s()

    def total(span_name):
        return span[span_name]["total_s"]

    def calls(span_name):
        return span[span_name]["count"]

    counts = tr.counts
    m = {}
    m["net.decode_us_per_pkt"] = _per(total("net.decode"), packets)
    m["net.encode_us_per_pkt"] = _per(total("net.encode"), counts["encoded"])
    lanes = counts["columnar.lanes"]
    m["columnar.shred_us_per_pkt"] = _per(total("columnar.shred"), lanes)
    m["columnar.execute_us_per_pkt"] = _per(total("columnar.execute"), lanes)
    m["columnar.keys_per_burst"] = (counts["columnar.keys"]
                                    / max(1, counts["columnar.bursts"]))
    m["columnar.lanes_per_key"] = lanes / max(1, counts["columnar.keys"])
    # Bursts that follow a table write (or the cold first burst) pay the
    # recompile and the cold memo; steady bursts do not.
    cold = [s for i, (bumped, s) in enumerate(bursts) if bumped or i == 0]
    steady = [s for i, (bumped, s) in enumerate(bursts) if not bumped and i > 0]
    baseline = statistics.median(steady) if steady else 0.0
    m["columnar.recompile_burst_ms"] = (statistics.mean(cold) - baseline) * 1e3
    m["columnar.generation_bumps"] = sum(1 for bumped, _s in bursts[1:] if bumped)

    # Shadow nodes: the paths ROADMAP item 2 wants deleted.
    shadow = cls(seed, scale, "flowcache")
    shadow_tr = Tracer()
    play_traced(shadow, quarter, shadow_tr, decompose=False)
    cache = shadow.x86.publish_cache_counters()
    lookups = cache["flowcache_hits"] + cache["flowcache_misses"]
    m["flowcache.fwd_us_per_pkt"] = _per(
        shadow_tr.totals()["x86.batch"]["total_s"], shadow_tr.counts["packets.x86"])
    m["flowcache.hit_ratio"] = cache["flowcache_hits"] / max(1, lookups)
    walk = cls(seed, scale, "oracle")
    walk_tr = Tracer()
    # The scalar walk is slow: an 8,192-packet (scaled) sample, in whole
    # bursts, never shorter than a few steering patterns of dp_tiers.
    walk_bursts = min(quarter, -(-max(640, scaled(8192, scale)) // node.burst))
    play_traced(walk, walk_bursts, walk_tr, decompose=False)
    walk_span = walk_tr.totals()
    m["gateway_logic.walk_us_per_pkt"] = _per(
        walk_span["x86.batch"]["total_s"], walk_tr.counts["packets.x86"])
    m.update(table_probes(walk.x86.tables, decoded))

    # Tier paths (native on dp_tiers; borrowed elsewhere, see run.py).
    left = 0
    if "xgw_h" in node.gateways():
        h_packets = counts["packets.h"] + counts["packets.inet"]
        m["xgw_h.batch_us_per_pkt"] = _per(total("xgw_h.batch"), h_packets)
        walk_h = walk_tr.counts["packets.h"] + walk_tr.counts["packets.inet"]
        m["xgw_h.walk_us_per_pkt"] = _per(walk_span["xgw_h.batch"]["total_s"], walk_h)
        m["x86.snat_us_per_pkt"] = _per(total("x86.snat"), counts["x86.snat_packets"])
        m["x86.single_fwd_us"] = _per(total("x86.single_fwd"), calls("x86.single_fwd"))
        m["x86.batch32_us_per_pkt"] = _per(
            total("columnar.shred") + total("columnar.execute"), lanes)
        m["dpu.fwd_us_per_pkt"] = _per(total("dpu.fwd"), calls("dpu.fwd"))
        dpu = state["dpu"]["counters"]
        m["dpu.miss_ratio"] = (dpu.get("drop_dpu_table_miss", 0)
                               / max(1, dpu.get("rx_packets", 0)))
        m["dpu.sessions"] = state["dpu"]["sessions"]
        frozen = calls("migration.frozen_burst") * node.burst
        m["migration.frozen_burst_us_per_pkt"] = _per(
            total("migration.frozen_burst"), frozen)
        left = counts["x86.snat_packets"] + calls("x86.single_fwd") + frozen
    m["dp.fastpath_leave_share"] = left / packets
    rx, dropped, redirected = packet_totals(state)
    m["dp.rx_packets"] = rx
    m["dp.drop_share"] = dropped / rx
    m["dp.redirect_share"] = redirected / rx
    traced_s = total("burst")
    m["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0

    # Self time of the decomposed stages (everything under the per-burst
    # root span) against the traced wall time.
    stage_s = sum(row["self_s"] for stage, row in span.items() if stage != "burst")
    if trace_path is not None:
        tr.dump(trace_path, {"workload": name, "seed": seed, "scale": scale,
                             "packets": packets,
                             "stage_self_time_share_of_wall": stage_s / wall})
    return m, {"attempted": packets, "traced_wall_s": wall,
               "stage_self_time_s": stage_s, "untraced_wall_s": untraced_s}
