"""Small measurement helpers shared by the runners and the comparer."""

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys


def percentile(values, q):
    """Nearest-rank percentile *q* (0..100) of *values*."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def quiet(times):
    """The first quartile of the times one piece of work took each time
    it was repeated. The shared host only ever adds time (it runs every
    loop 1.1-1.5x slower for minutes at a stretch, see README), so the
    fast quarter repeats from run to run where the median does not; what
    the program itself costs at every repetition is in all of them."""
    return percentile(times, 25)


def peak_rss_mb():
    """``ru_maxrss`` of this interpreter, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


class Digest:
    """blake2b over simulated outputs, folded outside every timer."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def fold_bytes(self, data):
        self._hash.update(data)

    def fold(self, obj):
        self._hash.update(canonical(obj).encode())

    def hexdigest(self):
        return self._hash.hexdigest()


def fingerprint(root, scale, seed):
    """The environment a result was measured in; ``compare.py`` refuses
    to compare results whose backend, scale or seed differ."""
    from repro.dataplane.columnar import resolve_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"   # the driver's checkout is not a git repository
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "backend": resolve_backend().name,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
        "scale": scale,
        "seed": seed,
    }
