"""The cross-shard 2PC crash matrix: a seeded CONTROLLER_CRASH at every
protocol stage — pre-prepare, between prepares, pre-commit-marker,
mid-commit — must recover to all-committed or all-aborted, with any
gateway residue withdrawn by recovery's member convergence and the
audit rescan clean."""

import json
import os

import pytest

from tests.shard.helpers import (SHARD_VNIS, ip, make_sharded, onboard,
                                 stage_peer_chain, subnet_of)

from repro.core.controller import VmEntry, vm_table
from repro.core.journal import ControllerCrash
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.shard import ShardedAuditDriver, ShardedController
from repro.tables.vm_nc import NcBinding

A, B = SHARD_VNIS[0], SHARD_VNIS[2]  # endpoints on shards s00 and s02


def armed_region(*specs, seed=11):
    sharded = make_sharded()
    for vni in SHARD_VNIS:
        onboard(sharded, vni, subnet=str(subnet_of(vni)))
    plan = FaultPlan(seed=seed, specs=list(specs))
    FaultInjector(plan).arm_sharded(sharded)
    return sharded, plan


def attempt_chain(sharded):
    """The canonical cross-shard batch: the A<->B peer chain plus one new
    VM binding per side, so a doomed prepare leaves route *and* VM
    residue for recovery to withdraw."""
    with sharded.cross_transaction() as xtxn:
        stage_peer_chain(xtxn, A, B)
        xtxn.install_vm(VmEntry(A, ip("192.168.10.200"), 4,
                                NcBinding(ip("10.1.1.50"))))
        xtxn.install_vm(VmEntry(B, ip("192.168.10.201"), 4,
                                NcBinding(ip("10.1.1.51"))))


def chain_keys_present(sharded):
    """Whether each endpoint's desired state holds its staged entries."""
    out = {}
    for vni in (A, B):
        ctl = sharded.shard_for(vni).controller
        cid = sharded.cluster_of(vni)
        routes = ctl._routes.get(cid, {})
        vms = ctl._vms.get(cid, {})
        peer = B if vni == A else A
        out[vni] = (
            (peer, subnet_of(peer)) in routes
            and (vni, ip("192.168.10.200") if vni == A
                 else ip("192.168.10.201"), 4) in vms
        )
    return out


def save_artifacts(name, sharded):
    """Drop every shard's journal + replayed state where CI can upload."""
    art_dir = os.environ.get("SHARD_ARTIFACT_DIR")
    if not art_dir:
        return
    os.makedirs(art_dir, exist_ok=True)
    for sid in sorted(sharded.shards):
        journal = sharded.shards[sid].journal
        with open(os.path.join(art_dir, f"{name}-{sid}.journal"), "wb") as fh:
            fh.write(journal.dump())
        with open(os.path.join(art_dir, f"{name}-{sid}.state.json"), "w") as fh:
            json.dump(journal.materialize(), fh, indent=2, sort_keys=True)


def recover_and_audit(sharded, name):
    """Recover, assert atomicity, run the audit to repair any residue,
    and assert the rescan is clean. Returns the recovered region."""
    save_artifacts(name, sharded)
    recovered, _writes = ShardedController.recover_from(sharded)
    present = chain_keys_present(recovered)
    assert present[A] == present[B], f"partial commit after {name}: {present}"
    assert recovered.in_doubt() == {}
    # Recovery's sync withdrew route and VM residue alike.
    assert recovered.consistency_check() == {}
    driver = ShardedAuditDriver(recovered)
    driver.full_scan()
    rescan = driver.full_scan()
    assert rescan == {}, f"residue survived repair after {name}: {rescan}"
    return recovered


class TestCrashMatrix:
    def test_pre_prepare_crash_aborts_everything(self):
        # The coordinator dies right after journalling xtxn-begin: no
        # participant prepared, so recovery finds nothing in doubt.
        sharded, plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_op="xtxn-begin",
                      max_fires=1))
        with pytest.raises(ControllerCrash, match="xtxn-begin"):
            attempt_chain(sharded)
        assert plan.injected(FaultKind.CONTROLLER_CRASH) == 1
        recovered = recover_and_audit(sharded, "crash-pre-prepare")
        assert chain_keys_present(recovered) == {A: False, B: False}
        assert recovered.counters["xtxn_resolved_abort"] == 0

    def test_crash_between_prepares_presumes_abort(self):
        # Death after the first participant (s00) prepared: its txn
        # record is in doubt, its gateways hold the batch. Presumed
        # abort; recovery itself withdraws the VM residue on s00.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, cluster="s00",
                      at_op="xtxn-prepare", max_fires=1))
        with pytest.raises(ControllerCrash, match="xtxn-prepare"):
            attempt_chain(sharded)
        assert list(sharded.in_doubt()) == ["s00"]

        save_artifacts("crash-between-prepares", sharded)
        recovered, _writes = ShardedController.recover_from(sharded)
        assert recovered.counters["xtxn_resolved_abort"] == 1
        assert chain_keys_present(recovered) == {A: False, B: False}
        driver = ShardedAuditDriver(recovered)
        assert driver.full_scan() == {}, "recovery withdraws the prepare residue"
        assert driver.repairs_applied() == 0

    def test_recovery_alone_withdraws_prepare_vm_residue(self):
        # The between-prepares crash leaves s00's members holding the
        # doomed batch's VM binding; recover_from converges them with no
        # audit pass.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, cluster="s00",
                      at_op="xtxn-prepare", max_fires=1))
        with pytest.raises(ControllerCrash, match="xtxn-prepare"):
            attempt_chain(sharded)
        key = (A, ip("192.168.10.200"), 4)
        assert any(f.kind == "extra-vm" and f.key == key
                   for f in sharded.consistency_check()["s00"])
        recovered, writes = ShardedController.recover_from(sharded)
        assert writes >= 1
        assert recovered.consistency_check() == {}
        members = recovered.shard_for(A).controller.clusters[
            recovered.cluster_of(A)].all_members()
        assert all(vm_table(m.gateway).lookup(*key) is None for m in members)

    def test_pre_commit_marker_crash_aborts_both_shards(self):
        # Both participants prepared, the coordinator dies before the
        # xtxn-commit record: without the durable decision, recovery
        # presumes abort on every shard.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_op="xtxn-decide",
                      max_fires=1))
        with pytest.raises(ControllerCrash, match="xtxn-decide"):
            attempt_chain(sharded)
        assert sorted(sharded.in_doubt()) == ["s00", "s02"]

        recovered, _writes = ShardedController.recover_from(sharded)
        assert recovered.counters["xtxn_resolved_abort"] == 2
        assert chain_keys_present(recovered) == {A: False, B: False}
        driver = ShardedAuditDriver(recovered)
        driver.full_scan()
        assert driver.full_scan() == {}

    def test_mid_commit_crash_resolves_as_committed(self):
        # The decision is durable; death before any participant marks its
        # prepare committed. Recovery finds the xtxn-commit record and
        # finishes the job on every shard.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_op="xtxn-complete",
                      max_fires=1))
        with pytest.raises(ControllerCrash, match="xtxn-complete"):
            attempt_chain(sharded)

        recovered = recover_and_audit(sharded, "crash-mid-commit")
        assert recovered.counters["xtxn_resolved_commit"] == 2
        assert chain_keys_present(recovered) == {A: True, B: True}

    def test_mid_commit_crash_on_second_participant(self):
        # The first participant already journalled txn-commit and folded
        # its ops; the second is still in doubt. Recovery must converge
        # on committed — the one outcome both journals agree on.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, cluster="s02",
                      at_op="xtxn-complete", max_fires=1))
        with pytest.raises(ControllerCrash, match="xtxn-complete"):
            attempt_chain(sharded)
        assert list(sharded.in_doubt()) == ["s02"]

        recovered = recover_and_audit(sharded, "crash-mid-commit-partial")
        assert recovered.counters["xtxn_resolved_commit"] == 1
        assert chain_keys_present(recovered) == {A: True, B: True}

    def test_double_crash_during_recovery_window_is_idempotent(self):
        # Crash mid-commit, recover, then recover the *recovered* region
        # again: resolution markers are already terminal, so the second
        # pass resolves nothing and changes nothing.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_op="xtxn-complete",
                      max_fires=1))
        with pytest.raises(ControllerCrash):
            attempt_chain(sharded)
        once, _ = ShardedController.recover_from(sharded)
        intents = once.intent_snapshot()
        twice, _ = ShardedController.recover_from(once)
        assert twice.counters["xtxn_resolved_commit"] == 0
        assert twice.counters["xtxn_resolved_abort"] == 0
        assert twice.intent_snapshot() == intents

    def test_unrelated_shards_untouched_by_crash(self):
        # s01/s03 never participate: their journals and intent are
        # byte-identical before and after the crash + recovery.
        sharded, _plan = armed_region(
            FaultSpec(FaultKind.CONTROLLER_CRASH, at_op="xtxn-decide",
                      max_fires=1))
        before = {sid: sharded.shards[sid].journal.appends
                  for sid in ("s01", "s03")}
        intents = {sid: sharded.shards[sid].controller.intent_snapshot()
                   for sid in ("s01", "s03")}
        with pytest.raises(ControllerCrash):
            attempt_chain(sharded)
        recovered, _ = ShardedController.recover_from(sharded)
        for sid in ("s01", "s03"):
            assert sharded.shards[sid].journal.appends == before[sid]
            assert recovered.shards[sid].controller.intent_snapshot() == \
                intents[sid]
