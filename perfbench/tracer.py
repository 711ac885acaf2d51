"""Span tracer that wraps the library's layer boundaries from outside.

Installing a ``Tracer`` replaces, in every loaded ``branchvi`` module, each
binding of a public function defined in one of the layer modules with one
shared wrapper. The wrapper records a span only when the call crosses a
module boundary (the caller's module differs from the callee's defining
module), so intra-module helper calls count as the callee's own work. The
callable fields of a ``HbdModel`` instance and ``RngStream.generator`` are
wrapped too and always record a span. A span's layer is the callee's
defining module.

Spans live in flat in-memory arrays (name id, start, end, parent) and are
written out only when the run ends. A function that a later version of the
library no longer defines is simply never wrapped, so its layer reports
zero calls rather than failing.

A few layers carry counters (bytes for ``trees``, parameter and non-zero
gradient counts for ``optim``, observation rows for ``amortize``). Counting
happens after the callee's span has closed and is itself recorded as a span
of the pseudo-layer ``tracer``, so its cost lands in no library layer's
self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("rng", "gaussmath", "families", "models", "estimators", "amortize",
          "trees", "optim", "training", "metrics", "data")
TRACER_LAYER = "tracer"


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(v.nbytes for v in obj.values() if isinstance(v, np.ndarray))
    return 0


def _count_trees(counters, args, kwargs, result):
    """Bytes of every array or array dict passed in or returned."""
    total = _nbytes(result)
    for a in (*args, *kwargs.values()):
        total += _nbytes(a)
    counters["trees.bytes"] += total


def _count_optim(counters, args, kwargs, result):
    """First two array arguments are (parameters, gradients) of the update."""
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    if len(arrays) < 2 or arrays[1].size == 0:
        return
    counters["optim.updates"] += 1
    counters["optim.params"] += arrays[0].size
    counters["optim.nonzero_grad_frac"] += np.count_nonzero(arrays[1]) / arrays[1].size


def _rows(obj) -> int:
    if hasattr(obj, "x") and hasattr(obj, "y") and getattr(obj.x, "ndim", 0) == 2:
        return int(obj.x.shape[0])
    if isinstance(obj, (list, tuple)):
        return sum(_rows(o) for o in obj)
    return 0


def _count_amortize(counters, args, kwargs, result):
    """Observation rows (BranchData arguments) handed to the network."""
    counters["amortize.rows"] += sum(_rows(a) for a in (*args, *kwargs.values()))


_COUNTERS = {"trees": _count_trees, "optim": _count_optim, "amortize": _count_amortize}


class Tracer:
    def __init__(self):
        self.names: list = []        # name id -> (layer, qualified name)
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.reset_counters()
        self._saved: list = []       # (owner, attribute, original) to restore

    # -- span store -----------------------------------------------------

    def _intern(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def reset_counters(self) -> None:
        self.counters = {"trees.bytes": 0, "optim.updates": 0, "optim.params": 0,
                         "optim.nonzero_grad_frac": 0.0, "amortize.rows": 0}

    def mark(self) -> int:
        """Index of the next span; spans of one phase form a contiguous range."""
        return len(self.start)

    def _wrap(self, fn, layer: str, name: str, home: str | None):
        """Wrapper recording a span; ``home`` set means skip same-module callers."""
        nid = self._intern(layer, name)
        count = _COUNTERS.get(layer)
        tid = self._intern(TRACER_LAYER, "count." + layer) if count is not None else -1
        ids, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                          self.end, self._stack)
        clock = time.perf_counter
        getframe = sys._getframe
        tracer = self

        def wrapper(*args, **kwargs):
            if home is not None and getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                t0 = clock()
                count(tracer.counters, args, kwargs, result)
                ids.append(tid)
                parent.append(stack[-1])
                start.append(t0)
                end.append(clock())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self, model=None) -> None:
        """Wrap layer functions in every loaded branchvi module, plus the model."""
        pkg_modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "branchvi" or n.startswith("branchvi."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"branchvi.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}",
                                                         home=mod.__name__))
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        rng_mod = sys.modules.get("branchvi.rng")
        stream = getattr(rng_mod, "RngStream", None)
        if stream is not None and "generator" in vars(stream):
            orig = vars(stream)["generator"]
            self._saved.append((stream, "generator", orig))
            setattr(stream, "generator",
                    self._wrap(orig, "rng", "rng.RngStream.generator", home=None))
        if model is not None and dataclasses.is_dataclass(model):
            for f in dataclasses.fields(model):
                val = getattr(model, f.name)
                if callable(val):
                    self._saved.append((model, f.name, val))
                    setattr(model, f.name,
                            self._wrap(val, "models", f"models.HbdModel.{f.name}", home=None))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time its direct children cover."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        return own

    def summarize(self, lo: int, hi: int, own: np.ndarray) -> dict:
        """Per-layer and per-function call counts and self seconds over spans [lo, hi).

        A layer's ``total_s`` sums the spans whose parent lies in another
        layer, so a layer re-entering itself is not counted twice.
        """
        layer_names = sorted({layer for layer, _ in self.names})
        layer_idx = {name: k for k, name in enumerate(layer_names)}
        layer_of_name = np.array([layer_idx[layer] for layer, _ in self.names], dtype=np.int64)
        all_ids = np.frombuffer(self.name_id, dtype=np.int64)
        ids = all_ids[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=float)[lo:hi]
               - np.frombuffer(self.start, dtype=float)[lo:hi])
        own = own[lo:hi]
        span_layer = layer_of_name[ids]
        parent_layer = np.where(parent >= 0, layer_of_name[all_ids[np.maximum(parent, 0)]], -1)
        outer = span_layer != parent_layer
        layers: dict = {}
        functions: dict = {}
        for nid in np.unique(ids):
            sel = ids == nid
            layer, name = self.names[nid]
            calls = int(sel.sum())
            self_s = float(own[sel].sum())
            functions[name] = {"layer": layer, "calls": calls, "self_s": self_s}
            agg = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += calls
            agg["self_s"] += self_s
            agg["total_s"] += float(dur[sel & outer].sum())
        return {"layers": layers, "functions": functions}

    def write_spans(self, path: str) -> None:
        """All spans as arrays: name_id (index into ``names``), parent, start, end."""
        np.savez_compressed(path, name_id=np.frombuffer(self.name_id, dtype=np.int64),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))
