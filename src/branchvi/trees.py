"""Named parameter trees: flat views, and containers rebuilt around new arrays.

A parameter tree is an ordered dict name -> float64 array whose insertion
order is the flat packing order. ``training.params_to_tree`` names a
container's own arrays; ``tree_rebind`` copies the container around other
arrays for those names, such as views into one flat vector.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


def tree_flatten(tree: dict) -> np.ndarray:
    if not tree:
        return np.zeros(0)
    return np.concatenate([np.asarray(v, dtype=float).ravel() for v in tree.values()])


def tree_views(shapes: dict, vec: np.ndarray) -> dict:
    """name -> view into ``vec`` of the given shape, packed in dict order.

    Writes through a view land in ``vec``; the shapes must cover it exactly.
    """
    out = {}
    pos = 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = vec[pos:pos + size].reshape(shape)
        pos += size
    if pos != vec.size:
        raise ValueError(f"vector has {vec.size} entries, shapes want {pos}")
    return out


def tree_rebind(obj, old: dict, new: dict):
    """A copy of ``obj`` holding ``new[k]`` wherever ``obj`` held the array ``old[k]``.

    Arrays are matched by identity, and each one of ``old`` must occur. The
    dataclasses and lists on the way are rebuilt, dataclasses through
    ``dataclasses.replace`` so that their constructors check the new arrays;
    ``obj`` itself is left as it was.
    """
    key = {id(a): k for k, a in old.items()}
    unseen = set(old)

    def walk(o):
        if isinstance(o, np.ndarray) and id(o) in key:
            unseen.discard(key[id(o)])
            return new[key[id(o)]]
        if isinstance(o, list):
            return [walk(v) for v in o]
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.replace(
                o, **{f.name: walk(getattr(o, f.name)) for f in dataclasses.fields(o)})
        return o

    out = walk(obj)
    if unseen:
        raise ValueError(f"{type(obj).__name__} does not hold the arrays {sorted(unseen)}")
    return out


# Unused by the library: kept because perfbench/tests/test_smoke.py deletes it.
def tree_zeros_like(tree: dict) -> dict:
    return {name: np.zeros_like(arr) for name, arr in tree.items()}
