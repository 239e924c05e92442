"""Span tracing of graphcd from outside the package.

`Tracer.install()` replaces each traced function under every name it is
looked up by: the attribute of the module that defines it and the
global of each graphcd module that imported it (for example
`graphcd.cli.curvature_all`, `graphcd.verify.curvature_all` and
`graphcd.curvature.curvature_all`).  `uninstall()` puts the originals
back.  Spans (name, start, end, parent) are kept in memory; self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> span name.  The span name's prefix is the layer.
TRACED = {
    ("graph", "load_graph"): "graph.load_graph",
    ("graph", "ball2"): "graph.ball2",
    ("operators", "local_forms"): "operators.local_forms",
    ("operators", "laplacian"): "operators.kernel",
    ("operators", "laplacian_many"): "operators.kernel",
    ("operators", "gamma"): "operators.kernel",
    ("operators", "gamma_many"): "operators.kernel",
    ("operators", "gamma2"): "operators.kernel",
    ("operators", "gamma2_many"): "operators.kernel",
    ("curvature", "curvature_all"): "curvature.curvature_all",
    ("curvature", "curvature_at"): "curvature.pencil",
    ("curvature", "min_curvature"): "curvature.min_curvature",
    ("semigroup", "decompose"): "semigroup.decompose",
    ("semigroup", "heat_apply"): "semigroup.heat",
    ("semigroup", "heat_curve"): "semigroup.heat",
    ("semigroup", "heat_apply_columns"): "semigroup.heat",
    ("verify", "function_corpus"): "verify.corpus",
    ("verify", "run_verification"): "verify.sweep",
    ("verify", "resolve_K"): "verify.eval",
    ("verify", "gradient_estimate"): "verify.eval",
    ("verify", "cdn_bound"): "verify.eval",
    ("verify", "_integrate"): "verify.eval",
    ("verify", "_integrate_variance"): "verify.eval",
    ("verify", "_integrate_gamma2"): "verify.eval",
    ("cli", "main"): "cli.main",
    ("cli", "dumps_report"): "cli.report",
    ("cli", "_write"): "cli.report",
}


def _columns(fn_name, args):
    """Columns of work one operator or heat call does (a function is one).

    Operators take the function block second, heat calls fourth; a heat
    curve does one column per time.
    """
    if fn_name == "heat_curve":
        return len(args[2])
    shape = getattr(args[3] if fn_name.startswith("heat") else args[1], "shape", ())
    return shape[1] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(int)
        self._patched = []   # (module, attribute, original)

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()

    def _wrap(self, span_name, fn_name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        perf = time.perf_counter
        count_columns = span_name in ("operators.kernel", "semigroup.heat")
        quad = fn_name == "_integrate"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if count_columns:
                counts[span_name + "_columns"] += _columns(fn_name, args)
            elif quad:
                counts["verify.quad_nodes"] += 2 * args[2].panels + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if fn_name == "run_verification":
                counts["verify.records"] += len(result.records)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "graphcd" or name.startswith("graphcd.")]
        for (mod_name, fn_name), span_name in TRACED.items():
            original = getattr(sys.modules["graphcd." + mod_name], fn_name)
            wrapper = self._wrap(span_name, fn_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def self_times(self):
        """{span name: (summed self time, call count)}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name][0] += (t1 - t0) - c
            out[name][1] += 1
        return out

    def dump(self, path):
        """Spans as CSV, times relative to the first span's start."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0 - base:.9f},{t1 - base:.9f},{parent}\n")
