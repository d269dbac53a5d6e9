"""Cross-layer invariant auditor (§6.1, taken past consistency checks).

The controller's ``consistency_check`` diffs its own intent store
against gateway tables, both ways — which is blind to everything that
diff cannot see: an intent store that drifted from the journal, lookup
structures that diverge from their own rule list, shadowed ACL rules,
broken peer chains, cross-tenant leaks, counter identities, and
poisoned flow-cache entries whose generation vector is still current.
``repro.audit`` closes those blind spots:

* :class:`~repro.audit.intent.IntentSnapshot` captures the desired state
  twice — from the live controller and independently from
  ``journal.materialize()`` — so the auditor never trusts a single
  source of truth;
* :mod:`~repro.audit.invariants` is the invariant library (route/VM
  equivalence, LPM-vs-oracle, shadow rules, chain termination, tenant
  isolation, counter conservation, flow-cache coherence);
* :class:`~repro.audit.scanner.AuditScanner` runs those invariants as a
  budgeted incremental sweep on the simulation engine, with seeded key
  sampling and a byte-stable findings log;
* :class:`~repro.audit.repair.RepairBridge` converts repairable findings
  into the controller's targeted-repair path (quarantine →
  ``targeted_repair`` → probe-before-readmit) and clears poisoned flow
  caches.
"""

from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding, FindingsLog
from .intent import IntentSnapshot, diff_snapshots
from .invariants import (
    ALL_INVARIANTS,
    AuditContext,
    ChainTermination,
    CounterConservation,
    FlowCacheCoherence,
    Invariant,
    LpmOracleEquivalence,
    RouteEquivalence,
    ShadowRules,
    TenantIsolation,
    VmEquivalence,
    tcam_shadow_findings,
)
from .repair import REPAIRABLE_KINDS, RepairBridge
from .sampling import sample_addresses, sample_route_keys
from .scanner import AuditConfig, AuditScanner

__all__ = [
    "Finding",
    "FindingsLog",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "IntentSnapshot",
    "diff_snapshots",
    "Invariant",
    "AuditContext",
    "ALL_INVARIANTS",
    "RouteEquivalence",
    "VmEquivalence",
    "LpmOracleEquivalence",
    "ShadowRules",
    "ChainTermination",
    "TenantIsolation",
    "CounterConservation",
    "FlowCacheCoherence",
    "tcam_shadow_findings",
    "sample_addresses",
    "sample_route_keys",
    "AuditConfig",
    "AuditScanner",
    "RepairBridge",
    "REPAIRABLE_KINDS",
]
