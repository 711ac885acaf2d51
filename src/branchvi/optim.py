"""Adam with a piecewise-constant step-drop schedule.

The optimizer maximizes the ELBO; internally the update runs as descent on
the negated gradient (sign handled here, callers pass ascent gradients).
A step updates the moments and the parameter vector in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradientError


@dataclass
class AdamState:
    m: np.ndarray
    s: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # Two scratch vectors of the parameters' size, kept across steps so a
    # step allocates nothing (adam_step creates them on first use).
    work: tuple | None = field(default=None, init=False, repr=False, compare=False)


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float):
    """One bias-corrected ascent step; rejects non-finite gradients.

    Updates ``state`` (m, s, t) and ``params`` in place and returns them. The
    arithmetic is that of descent on -grads, op for op: the negation is
    folded into the signs of the m update, which is bitwise the same.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = grads.sum()
    if not np.isfinite(total):  # then scan for the first non-finite entry
        bad = np.flatnonzero(~np.isfinite(grads))
        if bad.size:
            raise NonFiniteGradientError(f"non-finite gradient at flat index {int(bad[0])}")
    if state.work is None or state.work[0].shape != params.shape:
        state.work = (np.empty_like(params), np.empty_like(params))
    u, v = state.work
    t = state.t + 1
    m, s = state.m, state.s
    m *= state.beta1
    m -= np.multiply(grads, 1.0 - state.beta1, out=u)
    s *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=u)
    s += np.multiply(u, grads, out=u)
    np.divide(m, 1.0 - state.beta1 ** t, out=u)
    u *= lr
    np.divide(s, 1.0 - state.beta2 ** t, out=v)
    np.sqrt(v, out=v)
    v += state.eps
    params -= np.divide(u, v, out=u)
    state.t = t
    return state, params


@dataclass
class LrSchedule:
    base: float
    drop_every: int = 50_000
    drop_factor: float = 0.1
    max_drops: int = 3

    def __post_init__(self):
        if self.drop_every <= 0:
            raise ValueError("drop_every must be positive")


def lr_at(sched: LrSchedule, t: int) -> float:
    """lr(t) = base * drop_factor ** min(floor(t / drop_every), max_drops)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    drops = min(t // sched.drop_every, sched.max_drops)
    return sched.base * sched.drop_factor ** drops
