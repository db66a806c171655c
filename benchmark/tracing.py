"""Spans around the package's layer calls, recorded from outside.

``Tracer.install`` replaces, in the namespace of ``coalgcert.cli``, each
public function the command-line front end calls with a wrapper that
records a span (name, start, end, parent) around the call.  cli.py then
makes the same calls in the same order, now traced.  Spans stay in memory
until ``dump`` writes them out.  Spans inside the program are not
recorded: ``refine`` is one span, with partition bookkeeping, key
evaluation and the functor code inside it.
"""

from __future__ import annotations

import json
import time

# name in coalgcert.cli -> span name; the span name's prefix is the layer
CLI_CALLS = {
    "parse_coalgebra": "coalgebra.parse",
    # cli._prepare: composite unfolding (desugar_composite) and the mode
    # check; only the check runs on a plain functor
    "_prepare": "coalgebra.unfold",
    "quotient": "coalgebra.quotient",
    "pretty_model": "coalgebra.pretty",
    "refine": "refiner.refine",
    "replay_trace": "refiner.replay",
    "build_certificates": "certdag.build",
    "serialize": "certdag.serialize",
    "check_certificates": "logic.check",
    "naive_bisimilarity": "oracle.bisim",
    "partition_key": "oracle.partition_key",
}
LAYERS = ("cli", "coalgebra", "refiner", "certdag", "logic", "oracle")


def span_cost(n=20_000):
    """Seconds that tracing adds to one call: N calls of a no-op through
    the wrapper ``Tracer.install`` puts in place, minus N bare calls, over N."""
    def noop():
        pass
    traced = Tracer()._wrap("trace.noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return (time.perf_counter() - t0 - bare) / n


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._open = []      # indices of the spans not yet ended
        self.results = {}    # span name -> (args, result) of its last call
        self._saved = {}

    def span(self, name, fn, *args, **kw):
        """Call fn inside a span named ``name``."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            result = fn(*args, **kw)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
        self.results[name] = (args, result)
        return result

    def _wrap(self, name, fn):
        if name == "refiner.refine":
            # cli's --verify re-runs refinement in naive mode
            def traced(*args, **kw):
                which = "refiner.naive" if kw.get("mode") == "naive" else name
                return self.span(which, fn, *args, **kw)
        else:
            def traced(*args, **kw):
                return self.span(name, fn, *args, **kw)
        return traced

    def install(self, cli):
        for attr, name in CLI_CALLS.items():
            self._saved[attr] = getattr(cli, attr)
            setattr(cli, attr, self._wrap(name, self._saved[attr]))

    def uninstall(self, cli):
        for attr, fn in self._saved.items():
            setattr(cli, attr, fn)
        self._saved.clear()

    def mark(self):
        return len(self.spans)

    def total(self, since, name):
        """Total duration of the spans named ``name`` recorded since ``since``."""
        return sum(e - s for n, s, e, _p in self.spans[since:] if n == name)

    def self_times(self, since):
        """Per-layer self time of the spans recorded since ``since``: each
        span's duration minus the time its child spans cover."""
        own = {}
        for i in range(since, len(self.spans)):
            name, start, end, parent = self.spans[i]
            own[i] = own.get(i, 0.0) + end - start
            if parent >= since:
                own[parent] = own.get(parent, 0.0) - (end - start)
        out = dict.fromkeys(LAYERS, 0.0)
        for i, t in own.items():
            layer = self.spans[i][0].split(".", 1)[0]
            if layer in out:
                out[layer] += t
        return out

    def dump(self, path, counters):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                       "counters": counters}, fh)
