"""Property test: after any randomized interleaving of route/VM
mutations, tenant onboarding and offboarding, committed and aborted
transactions, snapshots, and a controller crash, the live controller's
``intent_snapshot()`` and the journal's ``materialize()`` are the same
state — and the same seed replays to a byte-identical journal. Every
snapshot after the first folds the journal tail into the checkpoint,
so each one is checked against the intent it must equal."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.audit.helpers import ip, make_controller, onboard_region, rich_tenant

from repro.audit import IntentSnapshot, diff_snapshots
from repro.core.controller import (
    Controller,
    RouteEntry,
    TransactionAborted,
    VmEntry,
)
from repro.core.journal import ControllerCrash, Journal, canonical_json
from repro.core.splitting import ClusterCapacity, TableSplitter
from repro.cluster.ecmp import VniSteeredBalancer
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.net.addr import Prefix
from repro.tables.errors import TableError
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope

#: Abstract op alphabet; indices are resolved against live desired state
#: so every drawn sequence is applicable.
OPS = ["install_route", "remove_route", "install_vm", "remove_vm",
       "txn_routes", "txn_aborted", "add_tenant", "remove_tenant", "snapshot"]

op_sequences = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=7)),
    min_size=0, max_size=12,
)


def assert_checkpoint_is_intent(ctrl):
    """Right after ``ctrl.snapshot()``: the journal's checkpoint text is
    the canonical intent, survives dump/load, and is sized without a
    render."""
    journal = ctrl.journal
    dump = journal.dump()
    header = dump.split(b"\n", 1)[0].decode()
    text = header.split("|", 2)[2].rsplit("|", 1)[0]
    assert text == canonical_json(ctrl.intent_snapshot())
    assert text == canonical_json(journal.materialize())
    assert Journal.load(dump).dump() == dump
    assert journal.snapshot_bytes == len(text)


def _refuse():
    raise TableError("side effect refused")


def apply_ops(ctrl, cluster_id, ops):
    """Drive the controller through *ops*, resolving each abstract op
    into a concrete valid mutation (no-op when nothing applies)."""
    txn_serial = [0]
    for kind, idx in ops:
        routes = ctrl._routes.get(cluster_id, {})
        vms = ctrl._vms.get(cluster_id, {})
        if kind == "install_route":
            prefix = Prefix.parse(f"10.{idx}.0.0/16")
            if (100, prefix) not in routes:
                ctrl.install_route(cluster_id, RouteEntry(
                    100, prefix, RouteAction(Scope.LOCAL)))
        elif kind == "remove_route":
            removable = sorted((v, p) for v, p in routes
                               if p.prefix_len == 16)
            if removable:
                vni, prefix = removable[idx % len(removable)]
                ctrl.remove_route(cluster_id, vni, prefix)
        elif kind == "install_vm":
            vm_ip = ip("192.168.10.0") + 10 + idx
            if (100, vm_ip, 4) not in vms:
                ctrl.install_vm(cluster_id, VmEntry(
                    100, vm_ip, 4, NcBinding(ip("10.1.1.11"))))
        elif kind == "remove_vm":
            removable = sorted(vms)
            if removable:
                vni, vm_ip, version = removable[idx % len(removable)]
                ctrl.remove_vm(cluster_id, vni, vm_ip, version)
        elif kind == "txn_routes":
            serial = txn_serial[0]
            txn_serial[0] += 1
            with ctrl.transaction(cluster_id) as txn:
                for j in range(1 + idx % 3):
                    txn.install_route(RouteEntry(
                        100, Prefix.parse(f"10.20{serial % 10}.{j}.0/24"),
                        RouteAction(Scope.LOCAL)))
        elif kind == "txn_aborted":
            # Journalled as txn + txn-abort: replay and fold skip it.
            try:
                with ctrl.transaction(cluster_id) as txn:
                    txn.install_route(RouteEntry(
                        100, Prefix.parse(f"10.30.{idx}.0/24"),
                        RouteAction(Scope.LOCAL)))
                    txn.stage_side_effect("refused", _refuse, lambda: None)
            except TransactionAborted:
                pass
        elif kind == "add_tenant":
            vni = 200 + idx
            if vni not in ctrl.plan.assignments:
                ctrl.add_tenant(*rich_tenant(
                    vni, f"172.{16 + idx}.0.0/16", f"172.{16 + idx}.0.2",
                    "10.1.3.11"))
        elif kind == "remove_tenant":
            removable = sorted(v for v in ctrl.plan.assignments if v != 100)
            if removable:
                ctrl.remove_tenant(removable[idx % len(removable)])
        elif kind == "snapshot":
            ctrl.snapshot()
            assert_checkpoint_is_intent(ctrl)


def run_scenario(ops, crash_at):
    """Returns (controller, cluster_id, crashed) after applying *ops*
    with a crash armed at mutation *crash_at* (None = no crash)."""
    ctrl = make_controller()
    cluster_id, _routes, _vms = onboard_region(ctrl)
    specs = []
    if crash_at is not None:
        specs.append(FaultSpec(FaultKind.CONTROLLER_CRASH,
                               at_mutations=(crash_at,)))
    FaultInjector(FaultPlan(seed=13, specs=specs)).arm_controller(ctrl)
    crashed = False
    try:
        apply_ops(ctrl, cluster_id, ops)
    except (ControllerCrash, TransactionAborted):
        crashed = True
    return ctrl, cluster_id, crashed


def recover(crashed_ctrl):
    ctrl = Controller(
        TableSplitter(ClusterCapacity(routes=200, vms=2000, traffic_bps=1e13)),
        VniSteeredBalancer(),
        clusters=crashed_ctrl.clusters,
    )
    ctrl.recover(crashed_ctrl.journal)
    return ctrl


class TestJournalEquivalence:
    @given(op_sequences)
    @settings(max_examples=40, deadline=None)
    def test_live_controller_matches_materialized_journal(self, ops):
        ctrl, _cluster_id, _crashed = run_scenario(ops, crash_at=None)
        live = IntentSnapshot.from_controller(ctrl)
        replayed = IntentSnapshot.from_journal(ctrl.journal)
        assert diff_snapshots(live, replayed) == []
        assert live.canonical() == replayed.canonical()

    @given(op_sequences, st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_crash_recovery_restores_journal_state(self, ops, crash_at):
        ctrl, cluster_id, crashed = run_scenario(ops, crash_at=crash_at)
        recovered = recover(ctrl) if crashed else ctrl
        live = canonical_json(recovered.intent_snapshot())
        replayed = canonical_json(ctrl.journal.materialize())
        assert live == replayed
        # After recovery the gateways converge back onto the intent.
        assert recovered.consistency_check(cluster_id) == []
        # A checkpoint after the crash folds a tail that may hold an
        # unterminated txn; it still equals the recovered intent.
        recovered.snapshot()
        assert_checkpoint_is_intent(recovered)

    @given(op_sequences, st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_same_ops_same_crash_byte_identical_journal(self, ops, crash_at):
        a = run_scenario(ops, crash_at=crash_at)[0].journal.dump()
        b = run_scenario(ops, crash_at=crash_at)[0].journal.dump()
        assert a == b
