"""Flat views over named parameter trees.

A parameter tree is an ordered dict name -> float64 array. The flat packing
order is the dict's own insertion order, which every container builds
deterministically, so flatten/unflatten round-trip and align with gradients
produced under the same keys.
"""

from __future__ import annotations

import math

import numpy as np


def tree_flatten(tree: dict) -> np.ndarray:
    if not tree:
        return np.zeros(0)
    return np.concatenate([np.asarray(v, dtype=float).ravel() for v in tree.values()])


def tree_unflatten(template: dict, vec: np.ndarray) -> dict:
    out = {}
    pos = 0
    for name, arr in template.items():
        size = arr.size
        out[name] = vec[pos:pos + size].reshape(arr.shape).copy()
        pos += size
    if pos != vec.size:
        raise ValueError(f"vector has {vec.size} entries, template wants {pos}")
    return out


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


def tree_zeros_like(tree: dict) -> dict:
    return {name: np.zeros_like(arr) for name, arr in tree.items()}
