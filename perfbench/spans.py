"""Span tracer that times netacorr's public functions from outside the package.

`Tracer.install` rebinds every public function of the layer modules in each
netacorr namespace that holds it (`experiments` and `cli` import by name), so
calls between modules pass through the wrappers too. Each call records one
span: function, start, end, parent span and whether it raised. Spans stay in
memory; `summary` turns them into per-layer metrics and `dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("graph", "deptest", "simulate", "inference", "experiments", "cli")


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "layer.fn"
        self.spans = []  # (span id, function id, start, end, parent span id, raised)
        self.perms = 0  # permutations run by deptest.permutation_test
        self.bad_p = []  # permutation p-values outside [1/(m+1), 1]
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def install(self):
        """Wrap every public function of the layer modules; undo with `uninstall`."""
        package = importlib.import_module("netacorr")
        modules = [importlib.import_module(f"netacorr.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for ns in [vars(package)] + [vars(m) for m in modules]:
            for name, obj in list(ns.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, name, obj))
                    ns[name] = hit[1]

    def uninstall(self):
        for ns, name, obj in reversed(self._undo):
            ns[name] = obj
        self._undo.clear()

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        observe = self._observe_permutation_test if qualname == "deptest.permutation_test" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, fid, start, end, parent, raised))
            if observe is not None:
                observe(out)
            return out

        return traced

    def _observe_permutation_test(self, res):
        self.perms += res.m_used
        if not 1.0 / (res.m_used + 1) <= res.p_perm <= 1.0:
            self.bad_p.append(res.p_perm)

    def self_times(self):
        """Per function: [calls, self seconds, spans that raised]."""
        child = defaultdict(float)
        for sid, _fid, start, end, parent, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0] for name in self.names}
        for sid, fid, start, end, _parent, raised in self.spans:
            row = out[self.names[fid]]
            row[0] += 1
            row[1] += end - start - child[sid]
            row[2] += int(raised)
        return out

    def summary(self, n_ops, op_wall_s):
        """Per-layer metrics for `n_ops` traced ops that took `op_wall_s` in all.

        `<layer>.<fn>.s`, `.calls` and `.share` are self seconds and calls
        per op and the share of op wall time;
        `<layer>.busy_s` is the layer's self seconds per op and `.share` its
        fraction of op wall time; `.errors` counts spans that raised.
        """
        m = {}
        busy = defaultdict(float)
        errors = defaultdict(int)
        for name, (calls, self_s, errs) in self.self_times().items():
            layer = name.split(".", 1)[0]
            m[f"{name}.s"] = self_s / n_ops
            m[f"{name}.calls"] = calls / n_ops
            m[f"{name}.share"] = self_s / op_wall_s
            busy[layer] += self_s
            errors[layer] += errs
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = busy[layer] / n_ops
            m[f"{layer}.share"] = busy[layer] / op_wall_s
            m[f"{layer}.errors"] = errors[layer]

        def get(name):  # a function a later refactor removes is called 0 times
            return m.get(name, 0.0)

        m["deptest.perms"] = self.perms / n_ops
        m["deptest.ms_per_kperm"] = (
            1e6 * get("deptest.permutation_test.s") * n_ops / self.perms if self.perms else 0.0)
        fits = get("inference.lmm_fit.calls")
        m["inference.ms_per_lmm_fit"] = 1e3 * get("inference.lmm_fit.s") / fits if fits else 0.0
        sims = get("simulate.direct_transmission.calls") + get("simulate.transmission_covariance.calls")
        m["simulate.operator_builds_per_sim"] = (
            get("simulate.transmission_operator.calls") / sims if sims else 0.0)
        for runner in ("experiments.run_spurious_regression_experiment",
                       "experiments.run_gls_correction_experiment", "cli.main"):
            m[f"{runner}.self_s"] = get(f"{runner}.s")
        m["trace.spans_per_op"] = len(self.spans) / n_ops
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "fn", "start", "end", "parent", "raised"],
                       "spans": self.spans}, fh)


def setup_metrics(path):
    """Generator metrics from the spans that one traced set-up dumped to `path`.

    `graph.generate_random_network.s` is inclusive (it covers the
    connectivity retries); `graph.connect_attempts_per_network` counts
    `is_connected` calls per generated network.
    """
    with open(path) as fh:
        doc = json.load(fh)
    calls = defaultdict(int)
    incl = defaultdict(float)
    for _sid, fid, start, end, _parent, _raised in doc["spans"]:
        calls[doc["names"][fid]] += 1
        incl[doc["names"][fid]] += end - start
    nets = calls["graph.generate_random_network"]
    return {
        "graph.generate_random_network.s": incl["graph.generate_random_network"],
        "graph.connect_attempts_per_network": calls["graph.is_connected"] / nets if nets else 0.0,
    }
