"""Adam with a piecewise-constant step-drop schedule, dense or lazy by rows.

The optimizer maximizes the ELBO; internally the update runs as descent on
the negated gradient (sign handled here, callers pass ascent gradients).
A step updates the moments and the parameter vector in place.

A parameter vector may end in a matrix W whose rows only some steps touch
(a subsampled branch family's locals). A lazy step updates only the touched
rows; a row remembers in ``tau`` the step of its last update, and when it is
next touched it first takes the zero-gradient steps it missed, in closed
form (see ``catch_up``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradientError


# Kingma & Ba's defaults. They are fixed: no checkpoint stores them, so a
# resumed run could not otherwise be told which values it ran with.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    s: np.ndarray
    t: int = 0
    # Step of each W row's last update (int64, one per row), or None when the
    # parameters have no lazily updated rows.
    tau: np.ndarray | None = None
    # Two scratch vectors, kept across steps so a step allocates nothing
    # (adam_step creates them on first use): one slice long for a dense step,
    # the gradient's size for a lazy one.
    work: tuple | None = field(default=None, init=False, repr=False, compare=False)


# A dense step runs _update over consecutive slices of this many entries, so
# the six vectors it streams (m, s, p, g and the scratch) stay in cache. Every
# op is elementwise, so the slicing is bitwise the same as one pass.
_SLICE = 16384


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params))


def _check_finite(grads, where):
    """Raise for the first non-finite entry; ``where`` maps its index in
    ``grads`` to its flat parameter index.

    g.g is finite whenever every entry is, so one dot product clears the
    common case. Only a non-finite g.g (a nan/inf entry, or finite entries
    whose squares overflow, which must not raise) runs the exact search.
    """
    if math.isfinite(float(np.dot(grads, grads))):
        return
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:
        raise NonFiniteGradientError(f"non-finite gradient at flat index {int(where(bad[0]))}")


def _scratch(state: AdamState, size: int):
    if state.work is None or state.work[0].size != size:
        state.work = (np.empty(size), np.empty(size))
    return state.work


def _update(t, lr, m, s, p, g, u, v):
    """The dense bias-corrected update of (m, s, p) by g, with scratch u, v.

    Descent on -g op for op: the negation is folded into the signs of the m
    update, which is bitwise the same.
    """
    m *= BETA1
    m -= np.multiply(g, 1.0 - BETA1, out=u)
    s *= BETA2
    np.multiply(g, 1.0 - BETA2, out=u)
    s += np.multiply(u, g, out=u)
    np.divide(m, 1.0 - BETA1 ** t, out=u)
    u *= lr
    np.divide(s, 1.0 - BETA2 ** t, out=v)
    np.sqrt(v, out=v)
    v += EPS
    p -= np.divide(u, v, out=u)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float,
              rows=None, width: int = 0, schedule: LrSchedule | None = None):
    """One bias-corrected ascent step; rejects non-finite gradients.

    Updates ``state`` (m, s, t, tau) and ``params`` in place and returns them.
    Without ``rows`` every entry takes the dense step (and every row of W, if
    ``state.tau`` is set, counts as updated now).

    With ``rows``, the sorted indices of the touched rows of W (the
    ``(state.tau.size, width)`` matrix that ends ``params``), ``grads`` holds
    the gradient of the entries before W followed by the gradient rows of
    W[rows]. The entries before W take the dense step. A touched row first
    catches up the zero-gradient steps it missed since step tau_i (lrs from
    ``schedule``), then takes the dense update. Every other row, its moments
    and its tau stay as they are.
    """
    t = state.t + 1
    if rows is None:
        _check_finite(grads, lambda j: j)
        u, v = _scratch(state, min(grads.size, _SLICE))
        for a in range(0, grads.size, _SLICE):
            sl, n = slice(a, a + _SLICE), min(_SLICE, grads.size - a)
            _update(t, lr, state.m[sl], state.s[sl], params[sl], grads[sl],
                    u[:n], v[:n])
        if state.tau is not None:
            state.tau[:] = t
        state.t = t
        return state, params
    # the flat indices of the entries before W, then of W[rows] row by row
    head = params.size - state.tau.size * width
    idx = np.concatenate((np.arange(head),
                          (rows[:, None] * width + (head + np.arange(width))).ravel()))
    _check_finite(grads, idx.__getitem__)
    u, v = _scratch(state, grads.size)
    p, m, s = params[idx], state.m[idx], state.s[idx]
    tau = state.tau[rows]
    k = np.where(tau > 0, t - 1 - tau, 0)  # a never-updated row has m = s = 0
    if k.any():
        catch_up(schedule, *(a[head:].reshape(-1, width) for a in (p, m, s)), tau, k)
    _update(t, lr, m, s, p, grads, u, v)
    params[idx], state.m[idx], state.s[idx] = p, m, s
    state.tau[rows] = t
    state.t = t
    return state, params


def catch_up(schedule: LrSchedule, p, m, s, tau, k) -> None:
    """Apply to rows (p, m, s) the k zero-gradient steps after step tau, in place.

    Row i last moved at step tau_i and missed steps tau_i + 1 .. tau_i + k_i.
    With g = 0 a step scales m by b1 = BETA1 and s by b2 = BETA2, so after j
    of them m / sqrt(s) = r^j m_i / sqrt(s_i) with r = b1 / sqrt(b2), and

        p_i -= F_i m_i / sqrt(s_i),  F_i = sum_{j=1..k_i} r^j w(tau_i + j),
        w(u) = lr(u) sqrt(1 - b2^u) / (1 - b1^u),  lr(u) = lr_at(schedule, u - 1),

    then m_i *= b1^k_i and s_i *= b2^k_i. This is dense Adam's k_i steps with
    eps dropped from them (exact up to rounding while |m| / sqrt(s) >> eps).
    F's sum stops at the first j with r^j < 2^-60 (the 397 entries of
    ``_catch_up_tables``' first table, built on the first catch-up).
    w is a function of u and the schedule alone, so a resumed run recomputes
    the same values. Rows with k_i = 0, and entries with s = 0 (never a
    non-zero gradient, so m = 0), stay as they are.
    """
    rj, bias = _catch_up_tables()
    n = np.minimum(k, rj.size)                              # terms per row
    j = np.arange(1, int(n.max()) + 1)
    U = tau[:, None] + j                                    # the missed steps (rows, terms)
    # lr(u) = lr_at(schedule, u - 1): the earliest entry's rate, overwritten
    # by each later drop's rate from its first step on
    lo, hi = int(U.min()) - 1, int(U.max()) - 1
    lr = np.full(U.shape, lr_at(schedule, lo))
    for d in range(lo // schedule.drop_every + 1,
                   min(hi // schedule.drop_every, schedule.max_drops) + 1):
        lr[U > d * schedule.drop_every] = lr_at(schedule, d * schedule.drop_every)
    w = np.where(j <= n[:, None], rj[:j.size], 0.0)         # row i sums its first n_i terms
    w *= lr
    w *= bias[np.minimum(U, bias.size - 1)]
    F = w.sum(axis=1)
    step = np.sqrt(s)
    np.divide(m, step, out=step, where=step > 0)            # 0 where s = 0 (so m = 0)
    step *= F[:, None]
    p -= step
    m *= BETA1 ** k[:, None]
    s *= BETA2 ** k[:, None]


@functools.cache
def _catch_up_tables() -> tuple[np.ndarray, np.ndarray]:
    """r^j for j = 1, 2, ... while r^j >= 2^-60, r = BETA1 / sqrt(BETA2) (397
    terms), and sqrt(1 - BETA2^u) / (1 - BETA1^u) for u = 0 .. L, where L is
    the first step from which both BETA^u <= 2^-55, so the factor is exactly 1
    for every u >= L (38,106 entries; entry 0 is unused). Read-only, built
    once per process on first use: only lazy runs read them."""
    r = BETA1 / math.sqrt(BETA2)
    rj = np.exp(np.arange(1, int(-60.0 // math.log2(r)) + 2) * math.log(r))
    u = np.arange(1, math.ceil(-55.0 / math.log2(max(BETA1, BETA2))) + 1)
    bias = np.zeros(u.size + 1)
    bias[1:] = np.sqrt(-np.expm1(u * math.log(BETA2))) / -np.expm1(u * math.log(BETA1))
    for a in (rj, bias):
        a.setflags(write=False)
    return rj, bias


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
