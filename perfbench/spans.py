"""Span recorder for the traced run.

`Tracer.install` replaces each traced curvkind function by a wrapper in every
curvkind module that imported it, so `cli.ric_l_matrix`,
`weights.second_kind_matrix` and `bochner.ricci_scalar` are all traced, and
wraps `PForm.to_dense` on its class.  Each call records a span: name, start,
end, parent span and op id.  Spans stay in memory until `write`;
`uninstall` puts the original functions back.  Nothing in the library is
edited.
"""

import csv
import math
import sys
import time
import tracemalloc

# (layer, attribute in that layer's module); the span name is
# "<layer>.<function>".
TRACED = (
    ("cli", "main"),
    ("model_spaces", "curvature_from_spec"),
    ("tensor_core", "validate_curvature"),
    ("tensor_core", "PForm.to_dense"),
    ("tensor_core", "canonical_s02_basis"),
    ("operators", "spectrum"),
    ("operators", "second_kind_matrix"),
    ("operators", "first_kind_matrix"),
    ("operators", "ricci_scalar"),
    ("bochner", "ric_l_matrix"),
    ("bochner", "form_s02_expansion"),
    ("bochner", "bochner_decomposition"),
    ("bochner", "ogiue_tachibana_term"),
    ("bochner", "ric_l_quadratic"),
    ("weights", "certify"),
    ("weights", "ric_l_lower_bound"),
    ("weights", "k_positivity_profile"),
)

SPAN_NAMES = tuple(f"{layer}.{attr.rpartition('.')[2]}" for layer, attr in TRACED)
ROOT = "bench.op"


def _ric_l_entries(R, p, *args, **kwargs):
    return math.comb(R.n, p) ** 2


def _matrix_dim(M, *args, **kwargs):
    return len(M)


# Counters taken from a call's arguments, outside its span.
PROBES = {"bochner.ric_l_matrix": _ric_l_entries, "operators.spectrum": _matrix_dim}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.probed = {name: [] for name in PROBES}
        self.missing = []
        self._stack = []
        self._restore = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        values = self.probed.get(name)

        def traced(*args, **kwargs):
            if probe is not None:
                values.append(probe(*args, **kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self, modules):
        """Wrap every traced name; `modules` maps layer name to module."""
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "curvkind" or key.startswith("curvkind."))]
        for (layer, attr), name in zip(TRACED, SPAN_NAMES):
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(modules[layer], owner, None) if owner else modules[layer]
            original = None if holder is None else vars(holder).get(fn_name)
            if not callable(original):
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            targets = [holder] if owner else [m for m in package if vars(m).get(fn_name) is original]
            for target in targets:
                setattr(target, fn_name, wrapper)
                self._restore.append((target, fn_name, original))

    def uninstall(self):
        for target, fn_name, original in reversed(self._restore):
            setattr(target, fn_name, original)
        self._restore.clear()

    def run_op(self, op_id, run):
        """Run one op under a root span carrying its op id."""
        self.op = op_id
        return self._wrap(ROOT, run)()

    def per_op(self, n_ops):
        """Calls and self seconds per op for every traced name."""
        duration = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, _, _, _, _) in enumerate(self.spans):
            if name in calls:
                calls[name] += 1
                self_s[name] += duration[i] - child[i]
        return ({k: v / n_ops for k, v in calls.items()},
                {k: v / n_ops for k, v in self_s.items()})

    def write(self, path):
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, op])


def traced_peak_bytes(run):
    """Run once under tracemalloc and return its allocation high-water mark."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
