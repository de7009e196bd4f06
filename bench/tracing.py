"""Outside-in spans around the public entry points of each elpcover module.

``Tracer.installed()`` swaps each traced function for a wrapper in every
loaded ``elpcover`` module that holds it (modules import each other's names
directly, so patching one namespace is not enough), and each traced method
on its class. Everything is restored on exit; the program's sources are
never edited.

A span is ``[name, start_ns, end_ns, parent, instance]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``instance`` the name of
the corpus instance it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" names a method.
SPAN_POINTS = (
    ("graph.parse", "graph", "parse_graph"),
    ("runner.solve_instance", "runner", "solve_instance"),
    ("runner.dump_json", "runner", "dump_json"),
    ("reductions.pipeline", "reductions", "run_pipeline"),
    ("elp.solve_elp", "elp", "solve_elp"),
    ("elp.separate", "elp", "separate_odd_cycle"),
    ("elp.alternate", "elp", "explore_alternate_bfs"),
    ("simplex.optimize", "simplex", "CoveringSimplex.optimize"),
    ("simplex.add_row", "simplex", "CoveringSimplex.add_ge_row"),
    ("cover.backtrack", "cover", "backtrack"),
    ("cover.certify", "cover", "certify"),
    ("cover.validate", "cover", "validate_cover"),
    ("oracles.exact_vc", "oracles", "exact_vc"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = ""
        self._stack: list[int] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def _counted(self, name, fn):
        """Counters taken at the span boundary, outside the span itself."""
        counts = self.counts
        if name == "simplex.optimize":

            @functools.wraps(fn)
            def optimize(engine, *args, **kwargs):
                before = engine.pivots
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    counts["simplex.pivots"] += engine.pivots - before

            return optimize
        if name == "elp.separate":

            @functools.wraps(fn)
            def separate(*args, **kwargs):
                found = fn(*args, **kwargs)
                counts["elp.separate_hits"] += found is not None
                return found

            return separate
        return fn

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for name, module, attr in SPAN_POINTS:
                owner = sys.modules[f"elpcover.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._counted(name, self._span(name, original)))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._counted(name, self._span(name, original))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "elpcover":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def total_seconds(self) -> dict:
        """Per span name: total duration, children included."""
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) / 1e9
        return dict(out)

    def self_seconds(self) -> Counter:
        """Per span name: total duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        """One JSON array per span: id, name, start_ns, end_ns, parent, instance."""
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps([i, *span]) + "\n")
