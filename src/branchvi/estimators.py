"""ELBO estimators and their reparameterized total gradients.

Four estimators share one noise discipline: a call derives child streams
from its root stream for (0) minibatch selection, (1) global noise, and
(2) local noise. Noise is pre-drawn as arrays indexed by (MC copy, position
in the sorted batch), so results never depend on the order in which branch
terms are evaluated, and a full-batch subsampled call is bitwise identical
to the non-subsampled one. One minibatch is drawn per call and shared by
all MC copies; the value and gradients are the average over copies.

Gradients are "total" reparameterized gradients: the log-density of each
factor at its own sample is expressed through the sampling noise, so the
only q-dependence left is the log-determinant of the factor diagonals and
no matrix inversion is needed. Each estimator's gradient is a container of
its parameters' type (laid out by ``training.params_to_tree``), or None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amortize import AmortNet, AmortParams, net_backward_batch, net_forward_batch, net_rows
from .data import BranchDataset
from .errors import EstimatorError, MalformedParamsError
from .families import (
    BranchParams,
    JointFamily,
    factor_draw_batch,
    factor_grad,
    joint_draw_batch,
    joint_factors,
    local_draw_rows,
    local_grad_rows,
    local_theta_grad,
)
from .models import HbdModel
from .rng import RngStream
from .trees import tree_rebind

_STREAM_BATCH = 0
_STREAM_GLOBAL = 1
_STREAM_LOCAL = 2

DEFAULT_N_MC = 10


@dataclass
class ElboEstimate:
    value: float       # nats
    n_mc: int
    batch: np.ndarray  # branch indices used (full range when not subsampled)


@dataclass
class MinibatchSampler:
    """Uniform without replacement; every index has inclusion probability batch_size/N."""

    n_branches: int
    batch_size: int

    def __post_init__(self):
        if not 1 <= self.batch_size <= self.n_branches:
            raise MalformedParamsError("batch_size must be in [1, n_branches]")

    def sample(self, rng: RngStream) -> np.ndarray:
        if self.batch_size == self.n_branches:
            # Only one possible batch; no randomness consumed, which keeps the
            # full-batch path bitwise identical to the non-subsampled estimator.
            return np.arange(self.n_branches)
        gen = rng.generator()
        return np.sort(gen.choice(self.n_branches, size=self.batch_size, replace=False))


def _log_prior_grad(model, THETA):
    """The prior's values (M,) and gradients (M, D); raises for the first
    non-finite copy."""
    lp, G = model.log_prior_grad(THETA)
    bad = ~np.isfinite(lp)
    if bad.any():
        m = int(np.argmax(bad))
        raise EstimatorError(f"non-finite prior log-density at MC copy {m}", copy=m)
    return lp, G


def _check_branch_finite(values, batch):
    """values (M, B): raise for the first non-finite (copy, batch position)."""
    bad = ~np.isfinite(values)
    if bad.any():
        m, pos = (int(k) for k in np.argwhere(bad)[0])
        branch = int(batch[pos])
        raise EstimatorError(
            f"non-finite branch log-density at branch {branch}, MC copy {m}",
            branch=branch, copy=m)


# ---------------------------------------------------------------------------
# Joint estimator.


def joint_elbo(model: HbdModel, fam: JointFamily, data: BranchDataset,
               rng: RngStream, n_mc: int = DEFAULT_N_MC, want_grad: bool = True):
    """Single-family estimate: average over n_mc draws of log p - log q.

    All copies go through one batched draw, one model call and one backward
    pass per factor of ``joint_factors``, each factor's gradient in its place.
    """
    N = data.n_branches
    if fam.n_branches != N:
        raise MalformedParamsError(f"family built for {fam.n_branches} branches, data has {N}")
    D = fam.global_dim
    EPS = rng.child(_STREAM_GLOBAL).normal((n_mc, fam.total_dim))
    X, logq, auxs = joint_draw_batch(fam, EPS)
    THETA, Z = X[:, :D], X[:, D:].reshape(n_mc, N, fam.local_dim)
    batch = np.arange(N)
    obs = data.batch(batch)
    if want_grad:
        lbs, GT, GZ = model.log_branch_grad(THETA, Z, obs)
    else:
        lbs = model.log_branch_vals(THETA, Z, obs)
    _check_branch_finite(lbs, batch)
    lp, G_prior = _log_prior_grad(model, THETA)
    value = float(np.sum(lp + lbs.sum(axis=1) - logq)) / n_mc
    if not want_grad:
        return ElboEstimate(value, n_mc, batch), None
    G = np.concatenate([G_prior + GT.sum(axis=1), GZ.reshape(n_mc, -1)], axis=1)
    factors, grads = {}, {}
    for (prefix, v, start, stop), aux in zip(joint_factors(fam), auxs):
        factors[prefix] = v
        grads[prefix] = factor_grad(v, aux, EPS[:, start:stop], G[:, start:stop], n_mc)
    return ElboEstimate(value, n_mc, batch), tree_rebind(fam, factors, grads)


# ---------------------------------------------------------------------------
# Branch-family estimators (shared core).


def _branch_core(model, v, rows, structure, gamma, obs, batch, scale, rng, n_mc,
                 want_grad):
    """Common machinery for branch / subsampled / amortized estimates.

    rows (B, P_w) are the batch's packed locals (BranchParams.W layout) with
    the family's structure and gamma, and obs the batch's observations. All
    copies and branches go through one batched draw, one model call and one
    backward pass. Returns (value, v's gradient as a factor like v, gradient
    rows (B, P_w) summed over copies), the last two None without ``want_grad``.
    """
    D = model.global_dim
    dz = model.local_dim
    eps_glob = rng.child(_STREAM_GLOBAL).normal((n_mc, D))
    eps_loc = rng.child(_STREAM_LOCAL).normal((n_mc, len(batch), dz))
    THETA, logq_v, aux_v = factor_draw_batch(v, eps_glob)
    Z, logq_w, aux_w = local_draw_rows(rows, structure, gamma, THETA, eps_loc)
    if want_grad:
        lbs, GT, GZ = model.log_branch_grad(THETA, Z, obs)
    else:
        lbs = model.log_branch_vals(THETA, Z, obs)
    _check_branch_finite(lbs, batch)

    lp, G_prior = _log_prior_grad(model, THETA)
    value = float(np.sum(lp - logq_v) + scale * np.sum(lbs - logq_w)) / n_mc
    if not want_grad:
        return value, None, None
    G_THETA = G_prior + scale * (GT + local_theta_grad(rows, structure, GZ, D)).sum(axis=1)
    G_rows = local_grad_rows(rows, structure, gamma, aux_w, THETA, eps_loc, GZ, scale, n_mc)
    return value, factor_grad(v, aux_v, eps_glob, G_THETA, n_mc), G_rows


def branch_elbo(model: HbdModel, params: BranchParams, data: BranchDataset,
                rng: RngStream, n_mc: int = DEFAULT_N_MC, want_grad: bool = True):
    """Full-sum branch estimate; one theta draw shared by all branches per
    copy. The gradient is a BranchParams whose W covers all N rows."""
    N = data.n_branches
    if params.n_branches != N:
        raise MalformedParamsError(f"params hold {params.n_branches} branches, data has {N}")
    return _branch_params_core(model, params, data, np.arange(N), 1.0, rng, n_mc,
                               want_grad)


def subsampled_branch_elbo(model: HbdModel, params: BranchParams, data: BranchDataset,
                           sampler: MinibatchSampler, rng: RngStream,
                           n_mc: int = DEFAULT_N_MC, want_grad: bool = True):
    """Minibatched branch estimate; local terms reweighted by N/|B|.

    Unbiased for the branch ELBO. With batch_size == N this reduces bitwise
    to branch_elbo (same streams, same arithmetic). The gradient is a
    BranchParams whose W (len(est.batch), P_w) holds the gradient rows of
    W[est.batch] only; every other row's gradient is zero.
    """
    N = data.n_branches
    if sampler.n_branches != N:
        raise MalformedParamsError("sampler branch count must match the data")
    if params.n_branches != N:
        raise MalformedParamsError(f"params hold {params.n_branches} branches, data has {N}")
    batch = sampler.sample(rng.child(_STREAM_BATCH))
    scale = N / len(batch)
    return _branch_params_core(model, params, data, batch, scale, rng, n_mc, want_grad)


def _branch_params_core(model, params, data, batch, scale, rng, n_mc, want_grad):
    """Branch estimate over ``batch``; only the batch rows of W are touched.

    The gradient's W holds the gradient rows (len(batch), P_w) of W[batch],
    row j for branch batch[j]; at batch = arange(N) they are the whole of
    W's gradient.
    """
    value, g_v, G_rows = _branch_core(model, params.v, params.W[batch], params.structure,
                                      params.gamma, data.batch(batch), batch, scale, rng,
                                      n_mc, want_grad)
    grads = BranchParams(params.structure, params.global_dim, params.local_dim, g_v,
                         G_rows / n_mc) if want_grad else None
    return ElboEstimate(value, n_mc, np.asarray(batch)), grads


# ---------------------------------------------------------------------------
# Amortized estimator.


def amortized_elbo(model: HbdModel, v, net: AmortNet, data: BranchDataset,
                   sampler: MinibatchSampler, rng: RngStream,
                   n_mc: int = DEFAULT_N_MC, want_grad: bool = True):
    """Subsampled branch estimate with w_i emitted by the network.

    Only valid for symmetric targets. The network makes one forward pass
    over the batch's stacked observations per call (w_i does not condition
    on theta), and gradients flow back into it through one backward pass
    with the MC-averaged gradient rows, and into v through the usual
    reparameterized path; the gradient is an AmortParams of the two. Without
    ``want_grad`` the rows come from the chunked, tape-free ``net_rows``.
    """
    if not model.symmetric:
        raise MalformedParamsError("amortized families require a symmetric model")
    N = data.n_branches
    if sampler.n_branches != N:
        raise MalformedParamsError("sampler branch count must match the data")
    batch = sampler.sample(rng.child(_STREAM_BATCH))
    scale = N / len(batch)

    obs = data.batch(batch)
    if want_grad:
        rows, tape = net_forward_batch(net, obs, batch)
    else:
        rows = net_rows(net, data, batch)
    value, g_v, G_rows = _branch_core(model, v, rows, net.structure, net.gamma, obs,
                                      batch, scale, rng, n_mc, want_grad)
    grads = (AmortParams(g_v, net_backward_batch(net, tape, G_rows / n_mc))
             if want_grad else None)
    return ElboEstimate(value, n_mc, batch), grads
