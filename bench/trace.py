"""Outside-in tracer: in-memory spans around the benchmark's calls into
each layer of ``repro``.

No span lives inside ``src/``: the harness wraps the public calls it
makes (``Packet.from_bytes``, ``PacketBatch.from_packets``,
``forward_batch``, ``install_route`` ...) and records name, start, end,
the span that caused it, and one trace id per burst or per control-plane
op batch. Spans stay in memory and are written out when the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover, so the per-layer numbers of a traced run add up to the
traced wall time instead of double counting nested calls.
"""

import json
from collections import Counter, defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, tracer.trace_id,
                             stack[-1] if stack else -1, perf_counter(), 0.0])
        stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        tracer = self.tracer
        tracer.spans[self.index][4] = end
        tracer._stack.pop()
        return False


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self):
        #: ``[name, trace_id, parent_index, start, end]`` per span.
        self.spans = []
        self.counts = Counter()
        self.trace_id = 0
        self._stack = []

    def new_trace(self):
        """Start a new trace id (one per burst / control-plane batch)."""
        self.trace_id += 1
        return self.trace_id

    def span(self, name):
        return _Span(self, name)

    def count(self, name, amount=1):
        self.counts[name] += amount

    # -- analysis ---------------------------------------------------------

    def totals(self):
        """``{name: {"count", "total_s", "self_s"}}`` over all spans; a
        name that never ran reads as zeros."""
        child_time = [0.0] * len(self.spans)
        for _name, _tid, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, _tid, _parent, start, end) in enumerate(self.spans):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        return out

    def root_wall_s(self):
        """Summed duration of the root spans — the traced wall time the
        self times must add up to."""
        return sum(end - start for _n, _t, parent, start, end in self.spans
                   if parent < 0)

    def dump(self, path, extra=None):
        payload = {
            "columns": ["name", "trace_id", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": self.counts,
            "totals": self.totals(),
            "root_wall_s": self.root_wall_s(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)
