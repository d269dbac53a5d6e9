#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --all``.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: each side's median and
quartiles over its runs, B's change against A in the metric's *worse*
direction, and the bound ``BENCHMARK.json`` fixes for it. A row reads

* ``ok``          B's median is not worse than A's by more than the bound;
* ``WORSE``       it is;
* ``DIFFERS``     (``--selfcheck`` only) B is *better* by more than the bound;
* ``unresolved``  the run-to-run spread of either side (interquartile
  range over median) is wider than the bound, so the medians cannot
  settle it — unless every run of B reads better than every run of A.

Results measured with a different column backend, scale factor or first
seed are not comparable and are refused. Exit code 0 only when every row
is ``ok`` and, seed by seed, the simulated-output digests of the two
files are identical.
"""

import json
import os
import statistics
import sys

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
MUST_MATCH = ("backend", "scale", "seed")


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    samples, digests = {}, {}
    for run in data["runs"]:
        if run["trace"]:
            continue
        for name, cell in run["metrics"].items():
            samples.setdefault((run["workload"], name), []).append(cell["value"])
        digests[run["workload"], run["seed"]] = run["digest"]
    return data["fingerprint"], samples, digests


def summary(values):
    """``(median, q1, q3)``; the quartiles of a single run are the run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(path_a, path_b, symmetric=False, out=sys.stdout):
    """Print the comparison; returns the exit status. *symmetric* (the
    self-check) also fails a row when B is *better* by more than the
    bound: two sets of one commit must agree, not just not regress."""
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    print_a, a, digests_a = load(path_a)
    print_b, b, digests_b = load(path_b)
    for key in MUST_MATCH:
        if print_a.get(key) != print_b.get(key):
            print(f"refusing to compare: {key} differs "
                  f"({print_a.get(key)!r} vs {print_b.get(key)!r})", file=out)
            return 2
    print(f"{'workload':9s} {'metric':16s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'worse by':>9s} {'bound':>6s}  verdict", file=out)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            med_a, q1_a, q3_a = summary(a[key])
            med_b, q1_b, q3_b = summary(b[key])
            lower = metric["better"] == "lower"
            worse_by = (med_b - med_a) / med_a * (1 if lower else -1)
            spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
            clean_win = (max(b[key]) < min(a[key]) if lower
                         else min(b[key]) > max(a[key]))
            if spread > metric["bound"] and not clean_win:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "WORSE"
            elif symmetric and -worse_by > metric["bound"]:
                verdict = "DIFFERS"
            else:
                verdict = "ok"
            if verdict != "ok":
                status = 1
            print(f"{workload:9s} {metric['name']:16s} "
                  f"{med_a:14.6g} [{q1_a:10.5g},{q3_a:10.5g}] "
                  f"{med_b:14.6g} [{q1_b:10.5g},{q3_b:10.5g}] "
                  f"{worse_by * 100:8.2f}% {metric['bound'] * 100:5.0f}%  {verdict}",
                  file=out)
    for workload, seed in sorted(set(digests_a) | set(digests_b)):
        if digests_a.get((workload, seed)) != digests_b.get((workload, seed)):
            print(f"{workload} seed {seed}: simulated-output digests differ", file=out)
            status = 1
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main())
