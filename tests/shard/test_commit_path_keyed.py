"""The two-phase commit costs O(batch): between a ``with ...transaction()``
exit and its return — commit *or* abort — no member table is enumerated.
Every pre-image is a keyed read (``VxlanRoutingTable.get``,
``VmNcTable.lookup``), so these tests make enumeration raise."""

import pytest

from tests.faults.helpers import make_controller
from tests.faults.helpers import onboard as onboard_single
from tests.shard.helpers import (SHARD_VNIS, failing_install, ip, make_sharded,
                                 onboard, stage_peer_chain, subnet_of)

from repro.core.controller import RouteEntry, TransactionAborted, VmEntry
from repro.core.journal import Journal
from repro.net.addr import Prefix
from repro.tables.bittrie import GenericLpmTrie
from repro.tables.errors import TableError
from repro.tables.lpm import LpmTrie
from repro.tables.vm_nc import NcBinding, VmNcTable
from repro.tables.vxlan_routing import RouteAction, Scope, VxlanRoutingTable


@pytest.fixture
def no_enumeration(monkeypatch):
    """Arm inside the test, after set-up: from then on any table walk
    fails the test. Returns the disarm callable for the final checks."""
    def arm():
        def boom(self):
            raise AssertionError(f"{type(self).__name__}.items() on the commit path")
        for cls in (VxlanRoutingTable, VmNcTable, GenericLpmTrie, LpmTrie):
            monkeypatch.setattr(cls, "items", boom)
        return monkeypatch.undo
    return arm


def batch(txn, vni):
    txn.install_route(RouteEntry(vni, Prefix.parse("10.50.0.0/16"),
                                 RouteAction(Scope.LOCAL)))
    # Replaces an installed route: the undo pre-image is a real action.
    txn.install_route(RouteEntry(vni, Prefix.parse("192.168.10.0/24"),
                                 RouteAction(Scope.SERVICE, target="snat")))
    txn.install_route(RouteEntry(vni, Prefix.parse("fd00:50::/32"),
                                 RouteAction(Scope.LOCAL)))
    txn.install_vm(VmEntry(vni, ip("192.168.10.7"), 4, NcBinding(ip("10.1.1.17"))))
    txn.remove_vm(vni, ip("192.168.10.2"), 4)


class TestSingleClusterTransaction:
    def test_commit_reads_members_by_key(self, no_enumeration):
        ctrl = make_controller()
        ctrl.journal = Journal()
        cluster_id, _routes, _vms = onboard_single(ctrl)
        disarm = no_enumeration()
        with ctrl.transaction(cluster_id) as txn:
            batch(txn, 100)
        with ctrl.transaction(cluster_id) as txn:
            txn.remove_route(100, Prefix.parse("10.50.0.0/16"))
        disarm()
        assert ctrl.counters["txns_committed"] == 2
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.journal.materialize() == ctrl.intent_snapshot()

    def test_abort_unwinds_members_by_key(self, no_enumeration):
        ctrl = make_controller()
        ctrl.journal = Journal()
        cluster_id, _routes, _vms = onboard_single(ctrl)
        before = ctrl.intent_snapshot()
        # The last member (hot backup) fails on the third op, so every
        # earlier member is fully prepared and must be unwound.
        victim = ctrl.clusters[cluster_id].all_members()[-1]
        calls = []

        def fail_third(vni, prefix, action, replace=False):
            calls.append(prefix)
            if len(calls) == 3:
                raise TableError("injected gateway agent failure")
            return original(vni, prefix, action, replace=replace)

        original = victim.gateway.install_route
        victim.gateway.install_route = fail_third
        disarm = no_enumeration()
        try:
            with pytest.raises(TransactionAborted):
                with ctrl.transaction(cluster_id) as txn:
                    batch(txn, 100)
        finally:
            victim.gateway.install_route = original
        disarm()
        assert ctrl.counters["txns_aborted"] == 1
        assert ctrl.counters["txn_rollback_failures"] == 0
        assert ctrl.intent_snapshot() == before
        assert ctrl.consistency_check(cluster_id) == []
        assert ctrl.journal.materialize() == before


class TestCrossShardTransaction:
    def region(self):
        sharded = make_sharded()
        for vni in SHARD_VNIS:
            onboard(sharded, vni, subnet=str(subnet_of(vni)))
        return sharded

    def test_commit_reads_members_by_key(self, no_enumeration):
        sharded = self.region()
        a, b = SHARD_VNIS[0], SHARD_VNIS[2]
        disarm = no_enumeration()
        with sharded.cross_transaction() as xtxn:
            stage_peer_chain(xtxn, a, b)
            xtxn.install_vm(VmEntry(b, ip("192.168.10.9"), 4,
                                    NcBinding(ip("10.1.1.99"))))
        with sharded.cross_transaction() as xtxn:
            xtxn.remove_route(a, subnet_of(b))
            xtxn.remove_route(b, subnet_of(a))
        disarm()
        assert sharded.counters["xtxns_committed"] == 2
        assert sharded.consistency_check() == {}
        assert sharded.in_doubt() == {}

    def test_abort_unwinds_every_shard_by_key(self, no_enumeration):
        sharded = self.region()
        a, b = SHARD_VNIS[0], SHARD_VNIS[2]
        before = sharded.intent_snapshot()
        victim = sharded.shard_for(b).controller.clusters[
            sharded.cluster_of(b)].members()[1]
        original = victim.gateway.install_route
        victim.gateway.install_route = failing_install
        disarm = no_enumeration()
        try:
            with pytest.raises(TransactionAborted):
                with sharded.cross_transaction() as xtxn:
                    stage_peer_chain(xtxn, a, b)
        finally:
            victim.gateway.install_route = original
        disarm()
        assert sharded.counters["xtxns_aborted"] == 1
        assert sharded.intent_snapshot() == before
        assert sharded.consistency_check() == {}
        assert sharded.in_doubt() == {}
