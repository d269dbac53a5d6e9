"""The controller's one diff and one push, held to independent oracles.

``consistency_check``, member convergence (``recover``/``resync_member``)
and the audit's route/VM equivalence all read members through the same
keyed diff, so a bug there would agree with itself. The property test
below compares them against a brute-force diff written here — decoded
``intent_snapshot()`` against every member's ``items()`` readback —
after every step of a random mix of single ops, transactions and direct
member corruption (hot backup included). The second test pins the
member surface the diff and push rely on, once per member kind.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.audit.helpers import make_controller, onboard_region

from repro.audit import AuditContext, IntentSnapshot, RouteEquivalence, VmEquivalence
from repro.cluster.cluster import GatewayCluster
from repro.cluster.ecmp import VniSteeredBalancer
from repro.core.controller import Controller, RouteEntry, VmEntry
from repro.core.journal import (Journal, decode_action, decode_binding,
                                parse_route_key, parse_vm_key)
from repro.core.splitting import ClusterCapacity, TableSplitter
from repro.core.xgw_h import XgwH
from repro.dpu.device import DpuDevice
from repro.faults import FaultInjector, FaultPlan, FaultyGateway
from repro.net.addr import Prefix
from repro.tables.errors import TableError
from repro.tables.vm_nc import NcBinding
from repro.tables.vxlan_routing import RouteAction, Scope
from repro.x86.gateway import XgwX86


def ip(text):
    return int(ipaddress.ip_address(text))


VNIS = (100, 101)
PREFIXES = tuple(Prefix.parse(p) for p in
                 ("10.0.0.0/16", "10.1.0.0/16", "10.1.2.0/24", "0.0.0.0/0",
                  "fd00::/64"))
ACTIONS = (RouteAction(Scope.LOCAL), RouteAction(Scope.INTERNET, target="inet"),
           RouteAction(Scope.SERVICE, target="svc"))
VM_ADDRS = ((ip("192.168.10.2"), 4), (ip("192.168.10.3"), 4),
            (ip("192.168.10.4"), 4), (ip("fd00::2"), 6))
BINDINGS = tuple(NcBinding(ip(f"10.1.1.{n}")) for n in (11, 12, 13))


# -- the test-local oracle ----------------------------------------------------

def _raw(gw):
    return gw.wrapped if isinstance(gw, FaultyGateway) else gw


def readback(gw):
    """Every route and VM binding one member holds, by full enumeration."""
    gw = _raw(gw)
    routes = {(vni, prefix): action for vni, prefix, action in gw.tables.routing.items()}
    table = gw.split_vm_nc if isinstance(gw, XgwH) else gw.tables.vm_nc
    vms = {(vni, vm_ip, ver): binding for vni, vm_ip, ver, binding in table.items()}
    return routes, vms


def brute_force(ctrl, cluster_id):
    """``{(node, kind, key)}``: decoded intent vs every member's readback."""
    state = ctrl.intent_snapshot()
    desired = (
        ("route", {parse_route_key(k): decode_action(v)
                   for k, v in state["routes"].get(cluster_id, {}).items()}),
        ("vm", {parse_vm_key(k): decode_binding(v)
                for k, v in state["vms"].get(cluster_id, {}).items()}),
    )
    out = set()
    for member in ctrl.clusters[cluster_id].all_members():
        for (noun, want), have in zip(desired, readback(member.gateway)):
            for key in set(want) | set(have):
                if key not in have:
                    out.add((member.name, f"missing-{noun}", key))
                elif key not in want:
                    out.add((member.name, f"extra-{noun}", key))
                elif have[key] != want[key]:
                    out.add((member.name, f"corrupt-{noun}", key))
    return out


def checked(ctrl, cluster_id):
    """consistency_check and the audit's equivalence pair must both equal
    the brute-force diff; returns it."""
    expect = brute_force(ctrl, cluster_id)
    found = {(f.node, f.kind, f.key) for f in ctrl.consistency_check(cluster_id)}
    assert found == expect
    ctx = AuditContext(intent=IntentSnapshot.from_controller(ctrl), cluster_id=cluster_id)
    audited = {(f.node, f.kind, f.key)
               for member in ctrl.clusters[cluster_id].all_members()
               for inv in (RouteEquivalence(), VmEquivalence())
               for f in inv.check(ctx, member)}
    assert audited == expect
    return expect


def recovered(ctrl):
    """``(fresh, writes)``: a new controller rebuilt from *ctrl*'s journal
    over the same (surviving) clusters, and the writes its sync took."""
    fresh = Controller(ctrl.splitter, VniSteeredBalancer(), clusters=dict(ctrl.clusters))
    fresh.set_cluster_factory(ctrl._cluster_factory)
    return fresh, fresh.recover(ctrl.journal)


# -- the random walk -----------------------------------------------------------

route_key = st.tuples(st.sampled_from(VNIS), st.sampled_from(PREFIXES))
vm_key = st.tuples(st.sampled_from(VNIS), st.sampled_from(VM_ADDRS))
member_ix = st.integers(min_value=0, max_value=7)
staged = st.one_of(
    st.tuples(st.just("install_route"), route_key, st.sampled_from(ACTIONS)),
    st.tuples(st.just("install_vm"), vm_key, st.sampled_from(BINDINGS)),
    st.tuples(st.just("remove_route"), route_key),
    st.tuples(st.just("remove_vm"), vm_key),
)
steps = st.one_of(
    staged,
    st.tuples(st.just("txn"), st.lists(staged, min_size=1, max_size=4)),
    st.tuples(st.just("put_route"), member_ix, route_key, st.sampled_from(ACTIONS)),
    st.tuples(st.just("put_vm"), member_ix, vm_key, st.sampled_from(BINDINGS)),
    st.tuples(st.just("drop_route"), member_ix, st.integers(0, 20)),
    st.tuples(st.just("drop_vm"), member_ix, st.integers(0, 20)),
    st.tuples(st.just("converge"),
              st.sampled_from(("targeted_repair", "recover", "resync_member"))),
)


def _staged_args(op):
    name = op[0]
    if name == "install_route":
        (vni, prefix), action = op[1], op[2]
        return name, (RouteEntry(vni, prefix, action),)
    if name == "install_vm":
        (vni, (vm_ip, version)), binding = op[1], op[2]
        return name, (VmEntry(vni, vm_ip, version, binding),)
    if name == "remove_route":
        return name, op[1]
    vni, (vm_ip, version) = op[1]
    return name, (vni, vm_ip, version)


def _present(ctrl, cluster_id, op):
    """Whether a remove op names an entry the desired state holds."""
    name, args = _staged_args(op)
    if name == "remove_route":
        return tuple(args) in ctrl.desired_routes(cluster_id)
    if name == "remove_vm":
        return tuple(args) in {(vm.vni, vm.vm_ip, vm.version)
                               for vm in ctrl.vm_entries(cluster_id)}
    return True


def _member(ctrl, cluster_id, ix):
    members = ctrl.clusters[cluster_id].all_members()
    return members[ix % len(members)]


def apply_step(ctrl, cluster_id, step):
    """Run one step; returns the controller to continue with."""
    name = step[0]
    if name in ("install_route", "install_vm", "remove_route", "remove_vm"):
        method, args = _staged_args(step)
        try:
            getattr(ctrl, method)(cluster_id, *args)
        except TableError:
            pass  # unknown removal, or a member missing what it withdraws
    elif name == "txn":
        ops, seen = [], set()
        for op in step[1]:
            name_args = _staged_args(op)
            key = tuple(op[1])
            if key in seen or not _present(ctrl, cluster_id, op):
                continue
            seen.add(key)
            ops.append(name_args)
        try:
            with ctrl.transaction(cluster_id) as txn:
                for method, args in ops:
                    getattr(txn, method)(*args)
        except TableError:
            pass  # a corrupted member made the prepare fail; rolled back
    elif name == "put_route":
        gw = _member(ctrl, cluster_id, step[1]).gateway
        (vni, prefix), action = step[2], step[3]
        gw.install_route(vni, prefix, action, replace=True)
    elif name == "put_vm":
        gw = _member(ctrl, cluster_id, step[1]).gateway
        (vni, (vm_ip, version)), binding = step[2], step[3]
        gw.install_vm(vni, vm_ip, version, binding, replace=True)
    elif name in ("drop_route", "drop_vm"):
        gw = _member(ctrl, cluster_id, step[1]).gateway
        routes, vms = readback(gw)
        keys = sorted(routes if name == "drop_route" else vms, key=str)
        if keys:
            key = keys[step[2] % len(keys)]
            (gw.remove_route if name == "drop_route" else gw.remove_vm)(*key)
    else:
        mode = step[1]
        if mode == "targeted_repair":
            ctrl.targeted_repair(cluster_id)
        elif mode == "recover":
            ctrl, _writes = recovered(ctrl)
        else:
            for member in ctrl.clusters[cluster_id].all_members():
                ctrl.resync_member(cluster_id, member.name)
        assert checked(ctrl, cluster_id) == set()
    return ctrl


class TestConvergenceOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(steps, min_size=1, max_size=25),
           st.sampled_from(("targeted_repair", "recover", "resync_member")))
    def test_diff_matches_brute_force_and_converges(self, walk, final):
        ctrl = make_controller(hybrid=True)
        cluster_id, _routes, _vms = onboard_region(ctrl)
        assert checked(ctrl, cluster_id) == set()
        for step in walk:
            ctrl = apply_step(ctrl, cluster_id, step)
            checked(ctrl, cluster_id)
        apply_step(ctrl, cluster_id, ("converge", final))


# -- every member kind through the one diff and push ----------------------------

def _xgw_h(cid):
    return GatewayCluster(cid, [(f"{cid}-gw0", XgwH(gateway_ip=10)),
                                (f"{cid}-gw1", XgwH(gateway_ip=11))])


def _hybrid(cid):
    return GatewayCluster(cid, [(f"{cid}-gw0", XgwH(gateway_ip=10)),
                                (f"{cid}-x86", XgwX86(gateway_ip=19))])


def _dpu(cid):
    # One single-device cluster per DPU, as TierPlanner adopts it.
    return GatewayCluster(cid, [(cid, DpuDevice(cid, gateway_ip=0x0A00F000))])


def _faulty(cid):
    return FaultInjector(FaultPlan(seed=1)).arm_cluster(_xgw_h(cid), cid)


@pytest.mark.parametrize("build", [_xgw_h, _hybrid, _dpu, _faulty],
                         ids=["xgw-h", "hybrid-x86", "dpu", "faulty-xgw-h"])
def test_every_member_kind_converges(build):
    cid = "c0"
    cluster = build(cid)
    ctrl = Controller(TableSplitter(ClusterCapacity(routes=50, vms=50, traffic_bps=1e12)),
                      VniSteeredBalancer(), journal=Journal())
    ctrl.adopt_cluster(cid, cluster)
    net_a, net_b = Prefix.parse("10.0.0.0/16"), Prefix.parse("10.1.0.0/16")
    vm_a, vm_b = ip("192.168.10.2"), ip("192.168.10.3")
    ctrl.install_route(cid, RouteEntry(100, net_a, RouteAction(Scope.LOCAL)))
    ctrl.install_vm(cid, VmEntry(100, vm_a, 4, BINDINGS[0]))
    with ctrl.transaction(cid) as txn:
        txn.install_route(RouteEntry(100, net_b, RouteAction(Scope.LOCAL)))
        txn.install_vm(VmEntry(100, vm_b, 4, BINDINGS[1]))
    ctrl.remove_route(cid, 100, net_b)
    assert checked(ctrl, cid) == set()

    def corrupt():
        gw = cluster.members()[0].gateway
        gw.remove_route(100, net_a)
        gw.install_route(100, net_b, RouteAction(Scope.INTERNET, target="inet"))
        gw.install_vm(100, vm_a, 4, BINDINGS[2], replace=True)
        gw.remove_vm(100, vm_b, 4)
        gw.install_vm(100, ip("192.168.10.9"), 4, BINDINGS[0])
        name = cluster.members()[0].name
        return {(name, "missing-route", (100, net_a)),
                (name, "extra-route", (100, net_b)),
                (name, "corrupt-vm", (100, vm_a, 4)),
                (name, "missing-vm", (100, vm_b, 4)),
                (name, "extra-vm", (100, ip("192.168.10.9"), 4))}

    expect = corrupt()
    assert checked(ctrl, cid) == expect
    assert ctrl.targeted_repair(cid) == (len(expect), [])
    assert checked(ctrl, cid) == set()

    # Recovery and member resync converge with one write per divergent key.
    expect = corrupt()
    fresh, writes = recovered(ctrl)
    assert writes == len(expect)
    assert checked(fresh, cid) == set()
    expect = corrupt()
    assert fresh.resync_member(cid, cluster.members()[0].name) == len(expect)
    assert checked(fresh, cid) == set()
