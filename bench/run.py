#!/usr/bin/env python3
"""The repo's benchmark: wire-to-wire and API-to-recovery, with
per-layer attribution. See ``bench/README.md`` for the protocol.

One run (what the driver calls)::

    python3 bench/run.py --workload dp_hot --seed 2021 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``. The exit code
is non-zero when a correctness check fails.

``--all`` runs every workload, untraced and traced, each in its own
fresh interpreter, and writes ``bench/out/results.json``; with
``--repeat N`` the untraced run is made N times, on seeds ``seed`` to
``seed + N - 1``. ``--selfcheck`` makes two such sets and compares them.
"""

import argparse
import json
import os
import subprocess
import sys

# Single process, single thread: pin BLAS/OpenMP pools before numpy loads.
os.environ.setdefault("OMP_NUM_THREADS", "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Workloads whose quick-scale traced run stands in for the layers a
#: workload never touches (``dp_tiers`` walks every data-plane layer).
LAYER_OWNERS = ("dp_tiers", "cp_churn")


def record_path(workload, trace):
    """Where one run leaves its full record (metrics, digest, detail)."""
    suffix = ".trace" if trace else ""
    return os.path.join(OUT_DIR, f"run_{workload}{suffix}.json")


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_one(args, spec):
    """One workload, one mode, in this interpreter."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("bench/run.py: src/repro not found — run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import controlplane
    import dataplane
    import generators
    from measure import fingerprint

    scale = generators.QUICK_SCALE if args.quick else generators.SCALE
    os.makedirs(OUT_DIR, exist_ok=True)

    def runner(name):
        return controlplane if name == "cp_churn" else dataplane

    if args.trace:
        trace_path = os.path.join(OUT_DIR, f"trace_{args.workload}.json")
        values, detail = runner(args.workload).run_traced(
            args.workload, args.seed, scale, trace_path)
        wanted = [m["name"] for m in spec["per_layer"]]
        borrowed = {}
        for owner in LAYER_OWNERS:
            missing = [name for name in wanted if name not in values]
            if owner == args.workload or not missing:
                continue
            stand_in, _detail = runner(owner).run_traced(
                owner, args.seed, generators.QUICK_SCALE)
            for name in missing:
                if name in stand_in:
                    values[name] = stand_in[name]
                    borrowed[name] = f"{owner}@quick"
        detail["borrowed"] = borrowed
        # A traced run raises on any failed check, so it has none here.
        result = {"correct": True, "attempted": detail["attempted"],
                  "failed": 0, "detail": detail}
        kinds = spec["per_layer"]
    else:
        expected = committed_digest(args.workload, args.seed, scale)
        result = runner(args.workload).run(
            args.workload, args.seed, scale, args.seconds, expected)
        values = result.pop("metrics")
        kinds = spec["end_to_end"]

    names = [m["name"] for m in kinds]
    if sorted(values) != sorted(names):
        sys.exit(f"metric set differs from BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in kinds}
    for name, cell in metrics.items():
        print(f"{args.workload:9s} {name:38s} {cell['value']:>16.6g} {cell['unit']}")
    for error in result.get("detail", {}).get("errors", ()):
        print(f"{args.workload}: CHECK FAILED: {error}", file=sys.stderr)

    record = dict(result, workload=args.workload, trace=int(args.trace),
                  seed=args.seed, seconds=args.seconds, metrics=metrics,
                  fingerprint=fingerprint(ROOT, scale, args.seed))
    with open(record_path(args.workload, args.trace), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args, spec, out_name="results.json"):
    """Every workload in fresh interpreters: ``--repeat`` untraced runs,
    each on its own seed, and one traced run on the first seed."""
    runs = []
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ([(args.seed + i, 0) for i in range(args.repeat)]
                            + [(args.seed, 1)]):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            path = record_path(workload, trace)
            if os.path.exists(path):
                os.remove(path)     # never read an earlier invocation's record
            child = subprocess.run(cmd, cwd=ROOT)
            status = status or child.returncode
            if os.path.exists(path):
                with open(path) as fh:
                    runs.append(json.load(fh))
    fingerprints = [run.pop("fingerprint") for run in runs]
    path = os.path.join(OUT_DIR, out_name)
    with open(path, "w") as fh:
        json.dump({"fingerprint": fingerprints[0] if fingerprints else {},
                   "runs": runs}, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return status, path


def selfcheck(args, spec):
    """Two full sets of the same commit and seeds must agree within the
    benchmark's own bounds, with identical digests seed by seed."""
    import compare

    status_a, path_a = run_all(args, spec, "selfcheck_a.json")
    status_b, path_b = run_all(args, spec, "selfcheck_b.json")
    verdict = compare.compare(path_a, path_b, symmetric=True)
    return status_a or status_b or verdict


def committed_digest(workload, seed, scale):
    """The digest ``bench/expected.json`` commits for this run, if it
    commits one (it holds one seed at the default scale)."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        expected = json.load(fh)
    if seed != expected["seed"] or scale != expected["scale"]:
        return None
    return expected["digests"].get(workload)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: all five workloads in seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all / --selfcheck: untraced runs per "
                             "workload, one seed each from --seed up")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if args.selfcheck:
        return selfcheck(args, spec)
    if args.all:
        return run_all(args, spec)[0]
    if args.workload is None:
        parser.error("one of --workload, --all, --selfcheck is required")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
