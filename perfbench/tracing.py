"""Spans around pdakit's public functions, recorded from outside the library.

A traced run replaces each function listed in TARGETS by a wrapper in
every loaded pdakit module that bound it (``verify`` is bound in
``pda``, ``graph``, ``neural.net``, the package namespace, and ``cli``
when loaded), so calls from inside the library are seen too.  Methods
are wrapped on their class.  Each wrapper records a span (name, start,
end, parent span, op) in memory; counters read the call's arguments and
result after the span closes, and the time they take is booked as a
child span so it never counts as the function's self time.
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

COUNT_SPAN = "trace.count"


def _verify(args, kwargs, result):
    grid = np.asarray(args[0])
    _, sizes = np.unique(grid[grid != 0], return_counts=True)
    return {"cells": grid.size, "pairs": int((sizes * (sizes - 1) // 2).sum())}


def _greedy(args, kwargs, result):
    return {"edges": len(result.edges), "colors": result.n_colors}


def _rollout(args, kwargs, result):
    return {"steps": len(result.edges), "valid": int(result.reward == 1)}


def _feasible(args, kwargs, result):
    return {"pruned": int(result.size - result.sum()), "offered": int(result.size)}


def _supervised(args, kwargs, result):
    return {"steps": sum(len(edges) for edges, _ in args[0])}


def _clip(args, kwargs, result):
    return {"grad_norm": float(result)}


def _place(args, kwargs, result):
    return {"packets_cached": sum(len(cache) for cache in result)}


def _deliver(args, kwargs, result):
    size = len(result.broadcasts[0].payload) if result.broadcasts else 0
    cells = sum(len(b.contributors) for b in result.broadcasts)
    return {"broadcasts": result.packets_sent, "bytes_xored": cells * size}


def _decode(args, kwargs, result):
    k, p = args[0], args[4]
    grid = np.asarray(getattr(p, "grid", p))
    return {"rows_decoded": int((grid[:, k] != 0).sum())}


# (layer, module, attribute, counter).  The counter's keys become
# `<layer>.<attribute>.<key>` sums, except those REPORTED turns into ratios.
TARGETS = (
    ("pda", "pdakit.pda", "verify", _verify),
    ("pda", "pdakit.pda", "canonicalize_colors", None),
    ("pda", "pdakit.pda", "construct_mn_pda", None),
    ("pda", "pdakit.pda", "Pda.from_grid", None),
    ("pda", "pdakit.pda", "pda_to_text", None),
    ("pda", "pdakit.pda", "pda_from_text", None),
    ("graph", "pdakit.graph", "greedy_strong_color", _greedy),
    ("graph", "pdakit.graph", "graph_to_pda", None),
    ("graph", "pdakit.graph", "is_strong_coloring", None),
    ("graph", "pdakit.graph", "subsample", None),
    ("seqcodec", "pdakit.seqcodec", "default_star_pattern", None),
    ("seqcodec", "pdakit.seqcodec", "placement_to_adjacency", None),
    ("seqcodec", "pdakit.seqcodec", "extract_edge_sequence", None),
    ("seqcodec", "pdakit.seqcodec", "assemble_array", None),
    ("seqcodec", "pdakit.seqcodec", "read_corpus", None),
    ("neural", "pdakit.neural.net", "rollout", _rollout),
    ("neural", "pdakit.neural.net", "FeasibilityTracker.feasible", _feasible),
    ("neural", "pdakit.neural.net", "supervised_loss", _supervised),
    ("neural", "pdakit.neural.net", "reinforce_objective_and_grad", None),
    ("neural", "pdakit.neural.params", "clip_grads", _clip),
    ("neural", "pdakit.neural.params", "ModelParams.apply_step", None),
    ("neural", "pdakit.neural.train", "greedy_valid_rate", None),
    ("cachesim", "pdakit.cachesim", "FileLibrary.random", None),
    ("cachesim", "pdakit.cachesim", "place", _place),
    ("cachesim", "pdakit.cachesim", "deliver", _deliver),
    ("cachesim", "pdakit.cachesim", "decode", _decode),
    ("cachesim", "pdakit.cachesim", "run_round", None),
)

# Counter sums reported as they are, with their unit.
COUNTS = {
    "pda.verify.cells": "count",
    "pda.verify.pairs": "count",
    "graph.greedy_strong_color.edges": "count",
    "graph.greedy_strong_color.colors": "count",
    "neural.rollout.steps": "count",
    "neural.supervised_loss.steps": "count",
    "cachesim.place.packets_cached": "count",
    "cachesim.deliver.broadcasts": "count",
    "cachesim.deliver.bytes_xored": "B",
    "cachesim.decode.rows_decoded": "count",
}

# Reported ratios: name -> (numerator sum, denominator sum, unit).
RATIOS = {
    "neural.rollout.valid_ratio": ("neural.rollout.valid", "neural.rollout.calls", "ratio"),
    "neural.FeasibilityTracker.feasible.pruned_ratio": (
        "neural.FeasibilityTracker.feasible.pruned",
        "neural.FeasibilityTracker.feasible.offered",
        "ratio",
    ),
    "neural.clip_grads.grad_norm": ("neural.clip_grads.grad_norm", "neural.clip_grads.calls", "norm"),
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, _, attr, _ in TARGETS:
        name = f"{layer}.{attr}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTS)
    units.update({name: unit for name, (_, _, unit) in RATIOS.items()})
    units["trace.overhead_ratio"] = "ratio"
    return units


def _pdakit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pdakit" or name.startswith("pdakit."))]


class Tracer:
    """Patches TARGETS on start() and keeps their spans in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op]
        self.sums = {}
        self.op = -1
        self._stack = []
        self._undo = []      # (owner, attribute, original raw value)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._count(name, counter, args, kwargs, result, parent)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _count(self, name, counter, args, kwargs, result, parent):
        t0 = time.perf_counter()
        sums = self.sums
        sums[name + ".calls"] = sums.get(name + ".calls", 0) + 1
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        self.spans.append([COUNT_SPAN, t0, time.perf_counter(), parent, self.op])

    def start(self):
        """Replace every target in every loaded pdakit module and class."""
        modules = _pdakit_modules()
        for layer, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    patched = self._wrap(name, raw, counter)
                self._undo.append((owner, meth, raw))
                setattr(owner, meth, patched)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def restore(self):
        """Put every original back; raise if a wrapper is still reachable."""
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        for m in _pdakit_modules():
            for key, value in vars(m).items():
                inner = getattr(value, "__dict__", {}) if isinstance(value, type) else {}
                for v in [value, *inner.values()]:
                    v = getattr(v, "__func__", v)
                    if hasattr(v, "__perfbench_original__"):
                        raise RuntimeError(f"{m.__name__}.{key} is still patched")

    def metrics(self):
        """Per-layer metrics from the recorded spans (overhead ratio excluded)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, own = {}, {}
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
            own[name] = own.get(name, 0.0) + (t1 - t0 - child[idx])
        out = {}
        for layer, _, attr, _ in TARGETS:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = self.sums.get(name + ".calls", 0)
            out[f"{name}.ms"] = busy.get(name, 0.0) * 1000.0
            out[f"{name}.self_ms"] = own.get(name, 0.0) * 1000.0
        for name in COUNTS:
            out[name] = self.sums.get(name, 0)
        for name, (num, den, _) in RATIOS.items():
            d = self.sums.get(den, 0)
            out[name] = self.sums.get(num, 0) / d if d else 0.0
        return out

    def write_spans(self, path):
        """One CSV line per span: name, start and end in ms, parent index, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_ms,end_ms,parent,op\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name},{(t0 - origin) * 1e3:.4f},{(t1 - origin) * 1e3:.4f},{parent},{op}\n")
