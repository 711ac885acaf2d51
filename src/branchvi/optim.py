"""Adam with a piecewise-constant step-drop schedule, dense or lazy by rows.

The optimizer maximizes the ELBO; internally the update runs as descent on
the negated gradient (sign handled here, callers pass ascent gradients).
A step updates the moments and the parameter vector in place.

The dense step is Kingma & Ba's (2015, section 2) efficient form: with
alpha_t = lr sqrt(1 - b2^t) / (1 - b1^t) and eps_t = eps sqrt(1 - b2^t),

    p -= alpha_t m / (sqrt(s) + eps_t),

which is the textbook lr m_hat / (sqrt(s_hat) + eps) (m_hat = m / (1 - b1^t),
s_hat = s / (1 - b2^t)) with numerator and denominator multiplied by
sqrt(1 - b2^t): the same update in exact arithmetic, different by rounding
only, and with one vector divide instead of three. alpha_t is the
catch-up's factor w(t) (see ``catch_up``).

The gradient is passed as the container's arrays in the flat layout order
(``list(training.params_to_tree(grads).values())``), so no step copies it
into one flat vector first.

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


# A dense step runs _update over slices of at most this many entries, so the
# six vectors it streams (m, s, p, g and the scratch) stay in cache. Every op
# is elementwise, so any slicing is bitwise the same as one pass.
_SLICE = 16384


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params))


def _check_finite(grads, where):
    """Raise for the first non-finite entry of the 1-D arrays ``grads``;
    ``where`` maps an index into their concatenation to its flat parameter
    index.

    g.g is finite whenever every entry of g is, so one dot product per array
    clears the common case. Only a non-finite g.g (a nan/inf entry, or finite
    entries whose squares overflow, which must not raise) runs the exact
    search.
    """
    pos = 0
    for g in grads:
        if not math.isfinite(float(np.dot(g, g))):
            bad = np.flatnonzero(~np.isfinite(g))
            if bad.size:
                raise NonFiniteGradientError(
                    f"non-finite gradient at flat index {int(where(pos + bad[0]))}")
        pos += g.size


def _scratch(state: AdamState, size: int):
    if state.work is None or state.work[0].size != size:
        state.work = (np.empty(size), np.empty(size))
    return state.work


def _factors(t, lr):
    """Step t's (alpha_t, eps_t): lr sqrt(1 - b2^t) / (1 - b1^t), eps sqrt(1 - b2^t)."""
    root = math.sqrt(1.0 - BETA2 ** t)
    return lr * root / (1.0 - BETA1 ** t), EPS * root


def _update(alpha, eps, m, s, p, g, u, v):
    """The dense update of (m, s, p) by g at step factors (alpha, eps), with
    scratch u, v. ``g`` may be ``v`` itself: v is first written after g's
    last read.

    Descent on -g op for op: the negation is folded into the signs of the m
    update, which is bitwise the same.
    """
    m *= BETA1
    m -= np.multiply(g, 1.0 - BETA1, out=u)
    s *= BETA2
    np.multiply(g, 1.0 - BETA2, out=u)
    s += np.multiply(u, g, out=u)
    np.sqrt(s, out=v)
    v += eps
    np.divide(m, v, out=u)
    u *= alpha
    p -= u


def _dense(state, params, grads, alpha, eps):
    """The dense step over the flat (params, m, s), in slices of at most _SLICE.

    An array of at least _SLICE entries is read in place, slice by slice. A
    run of smaller arrays is gathered into the scratch v, up to _SLICE
    entries a slice, and that slice's update reads its gradient from v.
    """
    u, v = _scratch(state, min(params.size, _SLICE))
    pos = fill = 0  # flat index of the next gradient entry; entries gathered in v

    def update(end, g):  # the entries end - g.size .. end - 1 by g
        sl, n = slice(end - g.size, end), g.size
        _update(alpha, eps, state.m[sl], state.s[sl], params[sl], g, u[:n], v[:n])

    for g in grads:
        if fill and fill + g.size > _SLICE:
            update(pos, v[:fill])
            fill = 0
        if g.size >= _SLICE:
            for a in range(0, g.size, _SLICE):
                update(pos + min(a + _SLICE, g.size), g[a:a + _SLICE])
        else:
            v[fill:fill + g.size] = g
            fill += g.size
        pos += g.size
    if fill:
        update(pos, v[:fill])


def adam_step(state: AdamState, params: np.ndarray, grads, lr: float,
              rows=None, width: int = 0, schedule: LrSchedule | None = None):
    """One bias-corrected ascent step; rejects non-finite gradients.

    ``grads`` is a list of arrays whose concatenation (each raveled, in
    order) is the gradient; a gradient container's
    ``list(params_to_tree(grads).values())``. Updates ``state`` (m, s, t,
    tau) and ``params`` in place and returns them; a rejected gradient
    writes nothing. Without ``rows`` every entry takes the dense step (and
    every row of W, if ``state.tau`` is set, counts as updated now).

    With ``rows``, the sorted indices of the touched rows of W (the
    ``(state.tau.size, width)`` matrix that ends ``params``), the gradient
    holds that of the entries before W followed by the gradient rows of
    W[rows]. The entries before W take the dense step. A touched row first
    catches up the zero-gradient steps it missed since step tau_i (lrs from
    ``schedule``), then takes the dense update. Every other row, its moments
    and its tau stay as they are.
    """
    t = state.t + 1
    alpha, eps = _factors(t, lr)
    grads = [np.ravel(g) for g in grads]
    if rows is None:
        size = sum(g.size for g in grads)
        if size != params.size:
            raise ValueError(f"gradient has {size} entries, the parameters {params.size}")
        _check_finite(grads, lambda j: j)
        _dense(state, params, grads, alpha, eps)
        if state.tau is not None:
            state.tau[:] = t
        state.t = t
        return state, params
    g = np.concatenate(grads)
    # the flat indices of the entries before W, then of W[rows] row by row
    head = params.size - state.tau.size * width
    idx = np.concatenate((np.arange(head),
                          (rows[:, None] * width + (head + np.arange(width))).ravel()))
    _check_finite([g], idx.__getitem__)
    u, v = _scratch(state, g.size)
    p, m, s = params[idx], state.m[idx], state.s[idx]
    tau = state.tau[rows]
    k = np.where(tau > 0, t - 1 - tau, 0)  # a never-updated row has m = s = 0
    if k.any():
        catch_up(schedule, *(a[head:].reshape(-1, width) for a in (p, m, s)), tau, k)
    _update(alpha, eps, m, s, p, g, u, v)
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
    eps dropped from them (exact up to rounding while |m| / sqrt(s) >> eps):
    w(u) is the dense step's alpha_u, so with eps = 0 each missed step moves
    p by w(u) m / sqrt(s).
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
