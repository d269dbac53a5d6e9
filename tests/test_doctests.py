"""Run the executable examples embedded in module docstrings.

Keeps the documentation honest: the ``>>>`` snippets on public APIs must
actually work.
"""

import doctest

import pytest

import repro.audit.findings
import repro.audit.intent
import repro.audit.sampling
import repro.audit.scanner
import repro.cluster.ecmp
import repro.core.compression
import repro.dataplane.columnar
import repro.dataplane.columnar.batch
import repro.dataplane.columnar.compiler
import repro.dataplane.flowcache
import repro.dataplane.migration
import repro.core.economics
import repro.fuzz.corpus
import repro.fuzz.generator
import repro.fuzz.minimizer
import repro.core.occupancy
import repro.net.addr
import repro.net.checksum
import repro.net.flow
import repro.shard.router
import repro.shard.shard
import repro.sim.engine
import repro.sim.rand
import repro.tables.alpm
import repro.tables.bittrie
import repro.tables.compress
import repro.tables.cuckoo
import repro.tables.lpm
import repro.tables.meter
import repro.tables.counter
import repro.tables.snat
import repro.tables.vm_nc
import repro.tables.vxlan_routing
import repro.dpu.budget
import repro.dpu.device
import repro.dpu.planner
import repro.offload.detector
import repro.offload.parity
import repro.offload.budget
import repro.offload.sketch
import repro.telemetry.stats
import repro.telemetry.timeseries
import repro.tofino.chip
import repro.tofino.parser
import repro.tofino.phv
import repro.tofino.pipeline
import repro.workloads.pcap
import repro.x86.cpu
import repro.x86.spray

MODULES = [
    repro.net.addr,
    repro.net.checksum,
    repro.net.flow,
    repro.sim.engine,
    repro.sim.rand,
    repro.tables.bittrie,
    repro.tables.lpm,
    repro.tables.alpm,
    repro.tables.compress,
    repro.tables.cuckoo,
    repro.tables.meter,
    repro.tables.counter,
    repro.tables.snat,
    repro.tables.vm_nc,
    repro.tables.vxlan_routing,
    repro.dataplane.columnar,
    repro.dataplane.columnar.batch,
    repro.dataplane.columnar.compiler,
    repro.dataplane.flowcache,
    repro.dataplane.migration,
    repro.fuzz.generator,
    repro.fuzz.minimizer,
    repro.fuzz.corpus,
    repro.offload.detector,
    repro.offload.parity,
    repro.offload.budget,
    repro.offload.sketch,
    repro.dpu.budget,
    repro.dpu.device,
    repro.dpu.planner,
    repro.telemetry.stats,
    repro.telemetry.timeseries,
    repro.tofino.chip,
    repro.tofino.parser,
    repro.tofino.phv,
    repro.tofino.pipeline,
    repro.x86.cpu,
    repro.x86.spray,
    repro.workloads.pcap,
    repro.cluster.ecmp,
    repro.core.occupancy,
    repro.core.compression,
    repro.core.economics,
    repro.audit.findings,
    repro.audit.sampling,
    repro.audit.intent,
    repro.audit.scanner,
    repro.shard.router,
    repro.shard.shard,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"


def test_doctests_actually_exist():
    """At least half the listed modules carry executable examples."""
    with_examples = sum(
        1 for module in MODULES
        if doctest.DocTestFinder().find(module) and any(
            test.examples for test in doctest.DocTestFinder().find(module)
        )
    )
    assert with_examples >= len(MODULES) // 2
