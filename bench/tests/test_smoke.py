"""Smoke test of the benchmark harness at the ``--quick`` scale.

Run with ``python -m pytest bench/tests -q`` (outside the tier-1
``testpaths``). Asserts the result schema, that every metric named in
``BENCHMARK.json`` is printed with its unit, that simulated-output
digests repeat run to run and move with the seed, and that generated
frames round-trip through ``Packet.from_bytes``.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_quick(workload, trace=0, seed=2021, hash_seed="0"):
    """One quick run in a fresh interpreter; returns (stdout lines,
    parsed last line, saved record)."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--quick", "--seconds", "0.2", "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    suffix = ".trace" if trace else ""
    with open(os.path.join(BENCH, "out", f"run_{workload}{suffix}.json")) as fh:
        record = json.load(fh)
    return lines, json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result, record = run_quick(workload)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert cell["value"] > 0, metric["name"]
        assert any(metric["name"] in line and line.endswith(metric["unit"])
                   for line in lines[:-1])
    assert {"python", "backend", "nproc", "platform", "commit", "scale",
            "seed"} <= set(record["fingerprint"])

    # Same seed, same simulated outputs, whatever order str hashing
    # gives sets and dicts; another seed, other outputs.
    assert run_quick(workload, hash_seed="1")[2]["digest"] == record["digest"]
    assert run_quick(workload, seed=7)[2]["digest"] != record["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _lines, result, record = run_quick(workload, trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    with open(os.path.join(BENCH, "out", f"trace_{workload}.json")) as fh:
        trace = json.load(fh)
    assert trace["spans"] and trace["columns"][0] == "name"
    # Layers this workload never touches are borrowed, and say so.
    native = set(result["metrics"]) - set(record["detail"]["borrowed"])
    assert native and "trace.overhead_pct" in native


def test_generated_frames_round_trip():
    import generators
    from repro.net.packet import Packet

    for cls in generators.DP_WORKLOADS.values():
        node = cls(3, generators.QUICK_SCALE)
        frames = {frame for _tag, burst in node.lap for frame in burst}
        assert frames
        for frame in frames:
            assert Packet.from_bytes(frame).to_bytes() == frame
    region = generators.CpRegion(3, generators.QUICK_SCALE)
    for frame in region.probe_frames(16)[0]:
        assert Packet.from_bytes(frame).to_bytes() == frame


def test_same_seed_same_inputs():
    import generators

    for cls in generators.DP_WORKLOADS.values():
        assert cls(5, generators.QUICK_SCALE).lap == cls(5, generators.QUICK_SCALE).lap
    a = generators.CpRegion(5, generators.QUICK_SCALE).round_ops(0)
    b = generators.CpRegion(5, generators.QUICK_SCALE).round_ops(0)
    assert a == b
