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
no matrix inversion is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amortize import AmortNet, net_backward, net_forward
from .data import BranchDataset
from .errors import EstimatorError, MalformedParamsError
from .families import (
    BranchParams,
    JointFamily,
    factor_draw_batch,
    factor_grad_accum,
    factor_tree,
    joint_backward,
    joint_draw,
    local_draw_batch,
    local_grad_accum,
    pack_local_grad,
)
from .models import HbdModel
from .rng import RngStream
from .trees import tree_add_, tree_scale_

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


def _require_finite(value, what, branch=None):
    if not np.isfinite(value):
        raise EstimatorError(f"non-finite {what}" +
                             (f" at branch {branch}" if branch is not None else ""),
                             branch=branch)


# ---------------------------------------------------------------------------
# Joint estimator.


def joint_elbo(model: HbdModel, fam: JointFamily, data: BranchDataset,
               rng: RngStream, n_mc: int = DEFAULT_N_MC, want_grad: bool = True,
               workers: int = 1):
    """Single-family estimate: average over n_mc draws of log p - log q."""
    N = data.n_branches
    if fam.n_branches != N:
        raise MalformedParamsError(f"family built for {fam.n_branches} branches, data has {N}")
    eps_all = rng.child(_STREAM_GLOBAL).normal((n_mc, fam.total_dim))
    draws = [joint_draw(fam, eps_all[m]) for m in range(n_mc)]

    def term(m, i):
        if want_grad:
            out = model.log_branch_grad(draws[m].theta, draws[m].z[i], data.branches[i])
        else:
            out = (model.log_branch(draws[m].theta, draws[m].z[i], data.branches[i]),
                   None, None)
        _require_finite(out[0], "branch log-density", branch=i)
        return out

    if workers > 1 and N > 1:
        from concurrent.futures import ThreadPoolExecutor

        grid = [(m, i) for m in range(n_mc) for i in range(N)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(lambda mi: term(*mi), grid))
        results = [flat[m * N:(m + 1) * N] for m in range(n_mc)]
    else:
        results = [[term(m, i) for i in range(N)] for m in range(n_mc)]

    value = 0.0
    grads = None
    for m in range(n_mc):
        draw = draws[m]
        lp, g_theta = model.log_prior_grad(draw.theta)
        _require_finite(lp, "prior log-density")
        g_z = np.empty_like(draw.z)
        for i in range(N):
            lb, gt, gz = results[m][i]
            lp += lb
            if want_grad:
                g_theta = g_theta + gt
                g_z[i] = gz
        value += lp - draw.logq
        if want_grad:
            tree = joint_backward(fam, draw, g_theta, g_z, ent_weight=1.0)
            grads = tree if grads is None else tree_add_(grads, tree)
    value /= n_mc
    if want_grad:
        tree_scale_(grads, 1.0 / n_mc)
    return ElboEstimate(float(value), n_mc, np.arange(N)), grads


# ---------------------------------------------------------------------------
# Branch-family estimators (shared core).


def _branch_core(model, v, data, batch, scale, local_of, on_local_grad,
                 rng, n_mc, want_grad, workers: int = 1):
    """Common machinery for branch / subsampled / amortized estimates.

    local_of(pos, i) returns the LocalParams for branch i; on_local_grad
    receives (pos, i, g_mu, g_A, g_raw) sums over MC copies when gradients
    are requested. Branch terms are independent given the pre-drawn noise,
    so with workers > 1 they evaluate on a thread pool; the reduction
    always runs in batch-position order, making results identical for
    every worker count. Returns (value, g_v_tree or None).
    """
    D = model.global_dim
    dz = model.local_dim
    eps_glob = rng.child(_STREAM_GLOBAL).normal((n_mc, D))
    eps_loc = rng.child(_STREAM_LOCAL).normal((n_mc, len(batch), dz))
    THETA, logq_v, aux_v = factor_draw_batch(v, eps_glob)

    def branch_task(pos):
        i = batch[pos]
        w = local_of(pos, i)
        EPS = eps_loc[:, pos]
        Z, logqs, aux_w = local_draw_batch(w, THETA, EPS)
        lbs = np.empty(n_mc)
        if not want_grad:
            for m in range(n_mc):
                lbs[m] = model.log_branch(THETA[m], Z[m], data.branches[i])
            _check_branch_finite(lbs, i)
            return float(np.sum(lbs - logqs)), None, None
        GT = np.empty((n_mc, D))
        GZ = np.empty((n_mc, dz))
        for m in range(n_mc):
            lbs[m], GT[m], GZ[m] = model.log_branch_grad(THETA[m], Z[m], data.branches[i])
        _check_branch_finite(lbs, i)
        g_theta_contrib = scale * GT
        if w.A is not None:
            g_theta_contrib = g_theta_contrib + scale * (GZ @ w.A)
        local_grads = local_grad_accum(w, aux_w, EPS, THETA, GZ, scale, n_mc)
        return float(np.sum(lbs - logqs)), g_theta_contrib, local_grads

    if workers > 1 and len(batch) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(branch_task, range(len(batch))))
    else:
        results = [branch_task(pos) for pos in range(len(batch))]

    value = 0.0
    G_THETA = np.zeros((n_mc, D)) if want_grad else None
    for m in range(n_mc):
        lp, g_prior = model.log_prior_grad(THETA[m])
        _require_finite(lp, "prior log-density")
        value += lp - logq_v[m]
        if want_grad:
            G_THETA[m] = g_prior
    for pos, i in enumerate(batch):
        term_val, g_theta_contrib, local_grads = results[pos]
        value += scale * term_val
        if want_grad:
            G_THETA += g_theta_contrib
            on_local_grad(pos, i, *local_grads)
    value = float(value) / n_mc
    if not want_grad:
        return value, None
    g_v_mean, g_v_raw = factor_grad_accum(v, aux_v, eps_glob, G_THETA, ent_total=n_mc)
    vtree = factor_tree("v", v)
    keys = list(vtree.keys())
    g_v = {keys[0]: g_v_mean / n_mc, keys[1]: g_v_raw / n_mc}
    return value, g_v


def _check_branch_finite(values, branch):
    if not np.all(np.isfinite(values)):
        raise EstimatorError(f"non-finite branch log-density at branch {branch}",
                             branch=branch)


def branch_elbo(model: HbdModel, params: BranchParams, data: BranchDataset,
                rng: RngStream, n_mc: int = DEFAULT_N_MC, want_grad: bool = True,
                workers: int = 1):
    """Full-sum branch estimate; one theta draw shared by all branches per copy."""
    N = data.n_branches
    if params.n_branches != N:
        raise MalformedParamsError(f"params hold {params.n_branches} branches, data has {N}")
    return _branch_params_core(model, params, data, np.arange(N), 1.0, rng, n_mc,
                               want_grad, workers)


def subsampled_branch_elbo(model: HbdModel, params: BranchParams, data: BranchDataset,
                           sampler: MinibatchSampler, rng: RngStream,
                           n_mc: int = DEFAULT_N_MC, want_grad: bool = True,
                           workers: int = 1):
    """Minibatched branch estimate; local terms reweighted by N/|B|.

    Unbiased for the branch ELBO. With batch_size == N this reduces bitwise
    to branch_elbo (same streams, same arithmetic).
    """
    N = data.n_branches
    if sampler.n_branches != N:
        raise MalformedParamsError("sampler branch count must match the data")
    if params.n_branches != N:
        raise MalformedParamsError(f"params hold {params.n_branches} branches, data has {N}")
    batch = sampler.sample(rng.child(_STREAM_BATCH))
    scale = N / len(batch)
    return _branch_params_core(model, params, data, batch, scale, rng, n_mc,
                               want_grad, workers)


def _branch_params_core(model, params, data, batch, scale, rng, n_mc, want_grad,
                        workers: int = 1):
    """Branch estimate over ``batch``; only the batch rows of W are touched.

    The local gradient of branch i lands in row i of a zeroed (N, P_w)
    buffer, which is the ``w`` entry of the gradient tree.
    """
    G = np.zeros_like(params.W) if want_grad else None

    def on_local_grad(pos, i, g_mu, g_A, g_raw):
        G[i] += pack_local_grad(g_mu, g_A, g_raw)

    value, g_v = _branch_core(model, params.v, data, batch, scale,
                              lambda pos, i: params.local(i), on_local_grad,
                              rng, n_mc, want_grad, workers)
    if want_grad:
        G[batch] /= n_mc
        g_v["w"] = G
    return ElboEstimate(value, n_mc, np.asarray(batch)), g_v


# ---------------------------------------------------------------------------
# Amortized estimator.


def amortized_elbo(model: HbdModel, v, net: AmortNet, data: BranchDataset,
                   sampler: MinibatchSampler, rng: RngStream,
                   n_mc: int = DEFAULT_N_MC, want_grad: bool = True,
                   workers: int = 1):
    """Subsampled branch estimate with w_i emitted by the network.

    Only valid for symmetric targets. The network runs once per sampled
    branch per call (w_i does not condition on theta); gradients flow into
    the network through one backward pass per branch with the MC-averaged
    upstream gradient, and into v through the usual reparameterized path.
    """
    if not model.symmetric:
        raise MalformedParamsError("amortized families require a symmetric model")
    N = data.n_branches
    if sampler.n_branches != N:
        raise MalformedParamsError("sampler branch count must match the data")
    batch = sampler.sample(rng.child(_STREAM_BATCH))
    scale = N / len(batch)

    locals_cache = []
    raw_grads = []
    for i in batch:
        w, tape = net_forward(net, data.branches[i])
        locals_cache.append((w, tape))
        raw_grads.append(None)

    def on_local_grad(pos, i, g_mu, g_A, g_raw):
        g = pack_local_grad(g_mu, g_A, g_raw)
        raw_grads[pos] = g if raw_grads[pos] is None else raw_grads[pos] + g

    value, g_v = _branch_core(model, v, data, batch, scale,
                              lambda pos, i: locals_cache[pos][0], on_local_grad,
                              rng, n_mc, want_grad, workers)
    if not want_grad:
        return ElboEstimate(value, n_mc, batch), None
    from .amortize import net_to_tree
    grads = dict(g_v)
    for k, a in net_to_tree(net).items():
        grads[f"net.{k}"] = np.zeros_like(a)
    for pos in range(len(batch)):
        gtree = net_backward(net, locals_cache[pos][1], raw_grads[pos] / n_mc)
        for k, a in gtree.items():
            grads[f"net.{k}"] += a
    return ElboEstimate(value, n_mc, batch), grads
