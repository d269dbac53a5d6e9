"""The repair bridge: audit findings → the controller's repair path.

Findings with a structured table key and a repairable kind are converted
to :class:`~repro.core.controller.Inconsistency` objects and pushed
through the same machinery the §6.1 reconcile loop uses — quarantine the
cluster, :meth:`~repro.core.controller.Controller.targeted_repair` the
divergent keys, probe before readmitting. Every repairable kind is the
same keyed push: the member's entry is made equal to desired state, so
``missing-*``/``corrupt-*`` re-push it and ``extra-*`` withdraw it.

Poisoned flow-cache entries are not table state, so they take a
different repair: the member's cache is flushed and the next packets
re-resolve against the (by then repaired) tables.

Non-repairable findings — shadowed rules, tenant leaks, counter
mismatches, intent/journal divergence — are operator-facing: they are
counted and left in the findings log.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.controller import Inconsistency
from ..telemetry.stats import CounterSet
from .findings import Finding

#: Kinds with a structured key that targeted repair can re-push/withdraw.
REPAIRABLE_KINDS = frozenset({
    "missing-route", "corrupt-route", "extra-route",
    "missing-vm", "corrupt-vm", "extra-vm",
})

#: Kinds repaired by flushing the member's flow cache.
CACHE_KINDS = frozenset({"stale-cache-entry"})

#: Kinds repaired by tearing down a dead migration's freeze/shadow state
#: and replaying its stranded packets through the surviving (source)
#: binding. ``orphaned-session`` is deliberately absent: SNAT sessions
#: are dataplane state the controller cannot re-derive, so those stay
#: operator-facing.
MIGRATION_KINDS = frozenset({"orphaned-freeze", "shadow-binding"})

#: Tier-placement residue (see :class:`~repro.audit.invariants.TierResidue`).
#: ``orphaned-dpu-session`` is repaired by reaping the stranded contexts
#: on the device — the crash happened after the steering withdrew, so no
#: traffic references them; ``multi-tier-steering`` by withdrawing the
#: duplicate claim (intent first, installed-only second).
DPU_KINDS = frozenset({"orphaned-dpu-session", "multi-tier-steering"})


class RepairBridge:
    """Subscribes to an :class:`~repro.audit.scanner.AuditScanner`'s
    cycle hook and repairs what each completed cycle found.

    >>> # wired via bridge.attach(scanner); see examples/audit_repair.py
    """

    def __init__(self, controller, quarantine: bool = True):
        self.controller = controller
        #: Whether divergent clusters are quarantined until probes pass
        #: (mirrors the reconcile loop; disable for advisory-only runs).
        self.quarantine = quarantine
        #: repairs_applied, repairs_failed, repairs_skipped, caches_cleared,
        #: residue_cleared, residue_replayed.
        self.counters = CounterSet()

    def attach(self, scanner) -> "RepairBridge":
        scanner.on_cycle(self.handle)
        return self

    def handle(self, findings: List[Finding]) -> int:
        """Repair one cycle's findings; returns how many were applied."""
        per_cluster: Dict[str, List[Inconsistency]] = {}
        cache_flushes: Set[Tuple[str, str]] = set()
        residue_aborts: Set[Tuple[str, str, str]] = set()
        session_reaps: Set[Tuple[str, str, Tuple[int, int, int]]] = set()
        steer_dupes: Set[Tuple[str, str, Tuple]] = set()
        for finding in findings:
            if (finding.kind in REPAIRABLE_KINDS
                    and finding.key is not None
                    and finding.cluster_id in self.controller.clusters):
                per_cluster.setdefault(finding.cluster_id, []).append(
                    Inconsistency(finding.cluster_id, finding.node,
                                  finding.kind, finding.detail,
                                  key=finding.key))
            elif (finding.kind in CACHE_KINDS
                    and finding.cluster_id in self.controller.clusters):
                cache_flushes.add((finding.cluster_id, finding.node))
            elif (finding.kind in MIGRATION_KINDS
                    and finding.key is not None
                    and finding.cluster_id in self.controller.clusters):
                residue_aborts.add((finding.cluster_id, finding.node,
                                    finding.key[-1]))
            elif (finding.kind in DPU_KINDS
                    and finding.key is not None
                    and finding.cluster_id in self.controller.clusters):
                if finding.kind == "orphaned-dpu-session":
                    session_reaps.add((finding.cluster_id, finding.node,
                                       finding.key))
                else:
                    steer_dupes.add((finding.cluster_id, finding.node,
                                     finding.key))
            else:
                self.counters.add("repairs_skipped")
        applied_total = 0
        for cluster_id in sorted(per_cluster):
            if self.quarantine:
                self.controller.quarantined.add(cluster_id)
            applied, failed = self.controller.targeted_repair(
                cluster_id, per_cluster[cluster_id])
            applied_total += applied
            self.counters.add("repairs_applied", applied)
            if failed:
                self.counters.add("repairs_failed", len(failed))
        for cluster_id, node in sorted(cache_flushes):
            member = self.controller.clusters[cluster_id].find_member(node)
            cache = getattr(member.gateway, "flow_cache", None)
            if cache is not None:
                cache.clear()
                self.counters.add("caches_cleared")
                applied_total += 1
        for cluster_id, node, migration_id in sorted(residue_aborts):
            member = self.controller.clusters[cluster_id].find_member(node)
            state = getattr(member.gateway, "migration", None)
            if state is None:
                continue
            # Tear down the dead migration on this member and push its
            # stranded packets back through the surviving tables: the
            # crash happened before commit, so they still hold the
            # source binding and no connection is lost.
            stranded = state.abort(migration_id)
            for item in stranded:
                member.gateway.forward(item.packet)
            self.counters.add("residue_cleared")
            if stranded:
                self.counters.add("residue_replayed", len(stranded))
            applied_total += 1
        for cluster_id, node, vip in sorted(session_reaps):
            member = self.controller.clusters[cluster_id].find_member(node)
            sessions = getattr(member.gateway, "sessions", None)
            if sessions is None:
                continue
            reaped = sessions.drop_vip(vip)
            self.counters.add("dpu_sessions_cleared", reaped)
            applied_total += 1
        cleared: Set[Tuple[str, int, object]] = set()
        for cluster_id, _node, key in sorted(
                steer_dupes, key=lambda item: (item[0], item[1], str(item[2]))):
            vni, prefix = key[0], key[1]
            if (cluster_id, vni, prefix) in cleared:
                continue  # an earlier finding already withdrew cluster-wide
            cleared.add((cluster_id, vni, prefix))
            if (vni, prefix) in self.controller.desired_routes(cluster_id):
                # The withdraw must not step the table-size series
                # backwards: reuse the cluster's last recorded instant.
                sizes = self.controller.table_size_series.series(cluster_id)
                last = sizes.times[-1] if len(sizes) else 0.0
                self.controller.remove_route(cluster_id, vni, prefix, time=last)
            else:
                # Installed on the member but not in this cluster's
                # intent: withdraw the stray copy directly.
                member = self.controller.clusters[cluster_id].find_member(_node)
                member.gateway.remove_route(vni, prefix)
            self.counters.add("tier_duplicates_cleared")
            applied_total += 1
        # Probe-before-readmit for every cluster the cycle touched.
        for cluster_id in sorted(set(per_cluster)
                                 | {c for c, _n in cache_flushes}
                                 | {c for c, _n, _m in residue_aborts}
                                 | {c for c, _n, _v in session_reaps}
                                 | {c for c, _n, _k in steer_dupes}):
            self.controller._probe_gate(cluster_id)
        return applied_total
