"""Per-layer tracing by rebinding surfhom's public functions.

``Tracer.install`` wraps every public function of the seven layer
modules, plus the methods in ``METHODS``, and rebinds each wrapped name
in every loaded ``surfhom`` module that holds it.  The rebinding matters
because ``homology`` and ``minima`` import ``smith_normal_form``,
``det_int`` and friends by name, so patching ``zlattice`` alone would
miss their calls.  ``uninstall`` puts every original back.

A span is one call of a wrapped function.  Spans are aggregated in
memory as they close, per function and per size tag: calls, total
seconds and self seconds (the span minus the time covered by the
wrapped calls it made).  Nothing is written until ``dump``.
"""

import importlib
import sys
from math import comb
from time import perf_counter

LAYERS = ("ribbon", "zlattice", "homology", "minima", "catalog", "cli", "hyperbolic")

# Methods traced besides the module-level functions.  Building a
# SurfaceHomology is what ``homology.builds`` counts.
METHODS = {
    "homology": {"SurfaceHomology": ("__init__", "class_of_walk", "pair")},
}

_MARK = "_perfbench_original"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_cells(counters, args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    counters["zlattice.smith_normal_form.cells"] += len(A) * (len(A[0]) if len(A) else 0)


def _count_emitted(counters, args, kwargs, result):
    counters["minima.cycles_emitted"] += len(result)


def _count_procedure(counters, args, kwargs, result):
    counters["minima.procedure.events"] += len(result.events)
    counters["minima.procedure.selected"] += len(result.selected)


def _count_subsets_global(counters, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "basis"))
    counters["minima.search.subsets"] += comb(len(_arg(args, kwargs, 1, "candidates")), n)


def _count_subsets_lemma(counters, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "trace").selected)
    counters["minima.search.subsets"] += comb(len(_arg(args, kwargs, 1, "candidates")), n)


# Counters read from a call's arguments or result, keyed by span name.
HOOKS = {
    "zlattice.smith_normal_form": _count_cells,
    "minima.enumerate_cycles": _count_emitted,
    "minima.successive_minima_I": _count_procedure,
    "minima.successive_minima_II": _count_procedure,
    "minima.is_globally_minimal": _count_subsets_global,
    "minima.verify_lemma_procI_minimal": _count_subsets_lemma,
}

COUNTERS = (
    "zlattice.smith_normal_form.cells",
    "minima.cycles_emitted",
    "minima.procedure.events",
    "minima.procedure.selected",
    "minima.search.subsets",
)


class Tracer:
    """Aggregated spans for one traced pass; ``tag`` labels the current item."""

    def __init__(self):
        self.tag = None
        self.stats = {}  # (span name, tag) -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child = []  # per open span: seconds covered by its children
        self._bound = []  # (namespace, attribute, original) in rebinding order

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        child = self._child
        stats = self.stats
        counters = self.counters

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                rec = stats.get((name, self.tag))
                if rec is None:
                    rec = stats[(name, self.tag)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"surfhom.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [m for n, m in sys.modules.items() if n == "surfhom" or n.startswith("surfhom.")]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bound.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._bound.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self):
        while self._bound:
            ns, attr, original = self._bound.pop()
            setattr(ns, attr, original)

    def dump(self):
        """Plain-data form: {"spans": [[name, tag, calls, total, self]], "counters": {...}}."""
        return {
            "spans": [[n, t, *rec] for (n, t), rec in sorted(self.stats.items(), key=str)],
            "counters": dict(self.counters),
        }


def leftover_wrappers():
    """Every (namespace, attribute) in loaded surfhom modules still bound to a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "surfhom" and not name.startswith("surfhom."):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{name}.{attr}")
            if isinstance(obj, type) and obj.__module__ == name:
                found += [f"{name}.{attr}.{m}" for m, v in vars(obj).items() if hasattr(v, _MARK)]
    return found


def merge(dumps):
    """Sum several ``dump`` results (a traced pass may span several processes)."""
    spans = {}
    counters = dict.fromkeys(COUNTERS, 0)
    for d in dumps:
        for name, tag, calls, total, self_s in d["spans"]:
            rec = spans.setdefault((name, tag), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"spans": [[n, t, *rec] for (n, t), rec in sorted(spans.items(), key=str)],
            "counters": counters}


def per_layer(dump, size_tags):
    """The per-layer metrics of one traced pass, as {name: value}."""
    calls, self_s = {}, {}
    tagged_self, tagged_calls = {}, {}
    for name, tag, n, _total, s in dump["spans"]:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + s
        if tag is not None:
            tagged_calls[(name, tag)] = tagged_calls.get((name, tag), 0) + n
            tagged_self[(name, tag)] = tagged_self.get((name, tag), 0.0) + s
    counters = dump["counters"]

    def layer_sum(table, layer, tag=None):
        return sum(v for k, v in table.items()
                   if (k if tag is None else k[0]).startswith(layer + ".")
                   and (tag is None or k[1] == tag))

    builds = calls.get("homology.SurfaceHomology.__init__", 0)
    lookups = calls.get("homology.homology", 0)
    events = counters["minima.procedure.events"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_sum(self_s, layer)
        out[f"{layer}.calls"] = layer_sum(calls, layer)
    out.update({
        "minima.enumerate_cycles.self_s": self_s.get("minima.enumerate_cycles", 0.0),
        "minima.cycles_emitted": counters["minima.cycles_emitted"],
        "ribbon.canonical_walk.calls": calls.get("ribbon.canonical_walk", 0),
        "homology.builds": builds,
        "homology.cache_hit_ratio": 1 - builds / lookups if lookups else 0.0,
        "zlattice.smith_normal_form.self_s": self_s.get("zlattice.smith_normal_form", 0.0),
        "zlattice.smith_normal_form.calls": calls.get("zlattice.smith_normal_form", 0),
        "zlattice.smith_normal_form.cells": counters["zlattice.smith_normal_form.cells"],
        "zlattice.det_int.calls": calls.get("zlattice.det_int", 0),
        "zlattice.det_int.self_s": self_s.get("zlattice.det_int", 0.0),
        "zlattice.oracle.calls": calls.get("zlattice.in_span", 0)
        + calls.get("zlattice.is_partial_basis", 0),
        "minima.search.self_s": self_s.get("minima.is_globally_minimal", 0.0)
        + self_s.get("minima.verify_lemma_procI_minimal", 0.0),
        "minima.search.subsets": counters["minima.search.subsets"],
        "minima.procedure.events": events,
        "minima.procedure.selected": counters["minima.procedure.selected"],
        "minima.select_ratio": counters["minima.procedure.selected"] / events if events else 0.0,
        "catalog.load_example.self_s": self_s.get("catalog.load_example", 0.0),
    })
    for tag in size_tags:
        out[f"homology.self_s.{tag}"] = layer_sum(tagged_self, "homology", tag)
        out[f"homology.builds.{tag}"] = tagged_calls.get(("homology.SurfaceHomology.__init__", tag), 0)
        out[f"zlattice.smith_normal_form.self_s.{tag}"] = tagged_self.get(
            ("zlattice.smith_normal_form", tag), 0.0)
    return out
