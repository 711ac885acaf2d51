"""Perturbed parameters and finite differences over a container's flat vector."""

import numpy as np

from branchvi.rng import RngStream
from branchvi.training import params_to_tree
from branchvi.trees import tree_flatten, tree_rebind, tree_views


def flat_copy(obj, tree=None):
    """(copy, flat): a copy of ``obj`` whose arrays are views into the new vector ``flat``.

    ``tree`` names the arrays to bind (``params_to_tree(obj)`` by default)
    and gives their packing order.
    """
    tree = params_to_tree(obj) if tree is None else tree
    flat = tree_flatten(tree)
    return tree_rebind(obj, tree, tree_views({k: a.shape for k, a in tree.items()}, flat)), flat


def perturb(params, seed, scale):
    """A copy of ``params`` with N(0, scale^2) noise from RngStream(seed) on every value."""
    copy, flat = flat_copy(params)
    flat += RngStream(seed).generator().standard_normal(flat.size) * scale
    return copy


def flat_grads(grads) -> np.ndarray:
    """A gradient container packed in the order of ``params_to_tree``."""
    return tree_flatten(params_to_tree(grads))


def central_differences(obj, value, h, tree=None):
    """(value(+h) - value(-h)) / 2h for every flat coordinate of ``obj``, in order.

    ``value`` takes a copy of ``obj`` whose arrays are views into one vector;
    each coordinate moves by +-h and returns to its value before the next.
    """
    copy, flat = flat_copy(obj, tree)
    fds = np.empty(flat.size)
    for j in range(flat.size):
        x = flat[j]
        flat[j] = x + h
        vp = value(copy)
        flat[j] = x - h
        vm = value(copy)
        flat[j] = x
        fds[j] = (vp - vm) / (2 * h)
    return fds
