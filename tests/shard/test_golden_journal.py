"""Golden journal bytes: a fixed single-shard + cross-shard op sequence
must journal byte for byte what it journalled before the commit path
was rebuilt (typed staged ops, shared prepare/unwind engine, snapshot
held as text, arithmetic ``format_ip``).

``golden_journals.json`` holds each shard's ``Journal.dump()`` as
captured from commit 0d8f6ff. To re-capture after an *intended* format
change: ``PYTHONPATH=src:. python tests/shard/test_golden_journal.py``.
"""

import json
from pathlib import Path

import pytest

from tests.shard.helpers import (SHARD_VNIS, failing_install, ip, make_sharded,
                                 onboard, stage_peer_chain, subnet_of)

from repro.core.controller import RouteEntry, TransactionAborted, VmEntry
from repro.net.addr import Prefix
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope

GOLDEN = Path(__file__).with_name("golden_journals.json")


def run_scenario():
    """Every journalled shape once: single ops, a committed and an
    aborted ``transaction`` (installs, a replace, removes, IPv6, VMs), a
    committed and an aborted cross-shard chain, the degenerate
    one-cluster ``cross_transaction``, a cross-shard teardown, and a
    snapshot in the middle so SNAP headers and pruned tails are covered.
    Small segments force rotations."""
    sharded = make_sharded(segment_bytes=512)
    for vni in SHARD_VNIS:
        onboard(sharded, vni, subnet=str(subnet_of(vni)))
    a, b, c, d = SHARD_VNIS
    sharded.install_route(RouteEntry(a, Prefix.parse("172.16.0.0/12"),
                                     RouteAction(Scope.INTERNET, target="igw-1")))
    sharded.install_vm(VmEntry(a, ip("192.168.10.3"), 4, NcBinding(ip("10.1.1.12"))))
    with sharded.transaction(a) as txn:
        txn.install_route(RouteEntry(a, Prefix.parse("10.200.0.0/16"),
                                     RouteAction(Scope.IDC, target="idc-7")))
        txn.install_route(RouteEntry(a, Prefix.parse("fd00:1::/32"),
                                     RouteAction(Scope.LOCAL)))
        txn.install_route(RouteEntry(a, Prefix.parse("172.16.0.0/12"),
                                     RouteAction(Scope.SERVICE, target="snat")))
        txn.install_vm(VmEntry(a, 0xFD000001 << 96 | 7, 6,
                               NcBinding(ip("10.1.1.13"))))
        txn.remove_vm(a, ip("192.168.10.3"), 4)
    # A member fault mid-prepare: the txn record is followed by txn-abort.
    ctl = sharded.shard_for(b).controller
    victim = ctl.clusters[sharded.cluster_of(b)].members()[1]
    original = victim.gateway.install_route
    victim.gateway.install_route = failing_install
    try:
        with pytest.raises(TransactionAborted):
            with sharded.transaction(b) as txn:
                txn.install_vm(VmEntry(b, ip("192.168.10.4"), 4,
                                       NcBinding(ip("10.1.1.14"))))
                txn.install_route(RouteEntry(b, Prefix.parse("10.201.0.0/16"),
                                             RouteAction(Scope.LOCAL)))
        with pytest.raises(TransactionAborted):
            with sharded.cross_transaction() as xtxn:
                stage_peer_chain(xtxn, a, b)
    finally:
        victim.gateway.install_route = original
    with sharded.cross_transaction() as xtxn:
        stage_peer_chain(xtxn, a, c)
    sharded.snapshot("s02")
    with sharded.cross_transaction() as xtxn:  # degenerate: one cluster
        xtxn.install_route(RouteEntry(d, Prefix.parse("10.99.0.0/16"),
                                      RouteAction(Scope.CROSS_REGION, target="r2")))
        xtxn.remove_vm(d, ip("192.168.10.2"), 4)
    with sharded.cross_transaction() as xtxn:
        xtxn.remove_route(a, subnet_of(c))
        xtxn.remove_route(c, subnet_of(c), owner=a)
        xtxn.install_vm(VmEntry(c, ip("192.168.10.9"), 4,
                                NcBinding(ip("10.1.1.99"))))
    with sharded.transaction(a) as txn:
        txn.remove_route(a, Prefix.parse("fd00:1::/32"))
        txn.remove_route(a, Prefix.parse("172.16.0.0/12"))
    sharded.remove_route(a, Prefix.parse("10.200.0.0/16"))
    sharded.remove_tenant(b)
    return sharded


def dumps_of(sharded):
    return {sid: shard.journal.dump().decode("utf-8")
            for sid, shard in sorted(sharded.shards.items())}


def test_journal_dumps_match_the_golden_bytes():
    sharded = run_scenario()
    golden = json.loads(GOLDEN.read_text())
    dumps = dumps_of(sharded)
    assert sorted(dumps) == sorted(golden)
    for sid in dumps:
        assert dumps[sid].split("\n") == golden[sid].split("\n"), sid
    # The scenario really exercised what it claims to pin.
    all_ops = {r.op for shard in sharded.shards.values()
               for r in shard.journal.records(after_seq=-1)}
    assert {"txn", "txn-commit", "txn-abort", "xtxn-begin", "xtxn-commit",
            "xtxn-abort"} <= all_ops
    assert sharded.shards["s02"].journal.snapshot_seq >= 0
    assert sharded.consistency_check() == {}
    for shard in sharded.shards.values():
        assert shard.journal.materialize() == shard.controller.intent_snapshot()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(dumps_of(run_scenario()), indent=1,
                                 sort_keys=True) + "\n")
