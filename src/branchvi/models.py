"""Concrete hierarchical targets exposed through a black-box interface.

Every model is a bundle of callables over a global latent theta and
per-branch locals z_i. The branch terms are batched over MC copies and
batch branches: with THETA (M, D), Z (M, B, dz) and the batch's
observations (a ``BranchBatch``),

    log_prior(THETA)                      log p(theta)                      (M,)
    log_prior_grad(THETA)                 the same plus its gradient        (M, D)
    log_branch_vals(THETA, Z, obs)        log p(z_i, y_i | theta, x_i)      (M, B)
    log_branch_grad(THETA, Z, obs)        the same plus g_theta (M, B, D), g_z (M, B, dz)
    log_obs_vals(THETA, Z, obs)           log p(y_i | theta, z_i, x_i)      (M, B)

Entry (m, j) depends only on copy m's theta, z_j and branch j's rows, and
is bitwise the same whatever else the batch holds; prior entry m depends
only on copy m. Estimators only ever touch this surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BranchBatch, BranchDataset, from_branches
from .errors import InvalidDataError
from .gaussmath import (
    LOG_2PI,
    GaussianSpec,
    UnconstrainedChol,
    diag_transform_grad,
    dot_last,
    packed_diag_indices,
    spec_from_moments,
    tril_map,
    tril_map_raw,
    tril_size,
    tril_solve,
)
from .rng import RngStream


@dataclass
class HbdModel:
    """Two-level hierarchical target with analytic gradients."""

    global_dim: int
    local_dim: int
    symmetric: bool
    log_prior: Callable             # THETA (M, D) -> (M,)
    log_prior_grad: Callable        # THETA -> (values (M,), grads (M, D))
    log_branch_vals: Callable       # (THETA, Z, BranchBatch) -> (M, B)
    log_branch_grad: Callable       # (THETA, Z, BranchBatch) -> (vals, g_theta, g_z)
    log_obs_vals: Callable          # (THETA, Z, BranchBatch) -> (M, B)


def _rows_dot(obs: BranchBatch, Z):
    """x_r . z_{seg(r)} for every copy and row: (M, n)."""
    return dot_last(np.take(Z, obs.seg, axis=1), obs.x)


def _rows_grad(obs: BranchBatch, resid):
    """sum over branch j's rows of x_r * resid_r for every copy: (M, B, x_dim)."""
    return obs.segment_sum(obs.xt * resid[:, None, :]).transpose(0, 2, 1)


@dataclass
class SyntheticConfig:
    dim: int                 # theta and z_i dimension (covariates share it)
    n_branches: int
    obs_per_branch: tuple    # n_i, length n_branches

    def __post_init__(self):
        self.obs_per_branch = tuple(int(v) for v in self.obs_per_branch)
        if self.n_branches <= 0:
            raise InvalidDataError("n_branches must be positive")
        if len(self.obs_per_branch) != self.n_branches:
            raise InvalidDataError("obs_per_branch must have length n_branches")
        if any(n <= 0 for n in self.obs_per_branch):
            raise InvalidDataError("each branch needs at least one observation")


# ---------------------------------------------------------------------------
# Synthetic hierarchical regression:
#   theta ~ N(0, I),  z_i ~ N(theta, I),  y_ij ~ N(x_ij' z_i, 1)


def synthetic_model(D: int) -> HbdModel:
    """Hierarchical linear regression with unit covariances throughout."""

    def log_prior(THETA):
        return -0.5 * np.einsum("md,md->m", THETA, THETA) - 0.5 * D * LOG_2PI

    def log_prior_grad(THETA):
        return log_prior(THETA), -THETA

    def _parts(THETA, Z, obs: BranchBatch):
        R = Z - THETA[:, None, :]
        resid = obs.y - _rows_dot(obs, Z)
        vals = (-0.5 * np.einsum("mbk,mbk->mb", R, R) - 0.5 * obs.segment_sum(resid * resid)
                - 0.5 * (D + obs.counts) * LOG_2PI)
        return vals, R, resid

    def log_branch_vals(THETA, Z, obs: BranchBatch):
        return _parts(THETA, Z, obs)[0]

    def log_branch_grad(THETA, Z, obs: BranchBatch):
        vals, R, resid = _parts(THETA, Z, obs)
        return vals, R, -R + _rows_grad(obs, resid)

    def log_obs_vals(THETA, Z, obs: BranchBatch):
        resid = obs.y - _rows_dot(obs, Z)
        return -0.5 * obs.segment_sum(resid * resid) - 0.5 * obs.counts * LOG_2PI

    return HbdModel(D, D, True, log_prior, log_prior_grad,
                    log_branch_vals, log_branch_grad, log_obs_vals)


@dataclass
class SyntheticLatents:
    theta: np.ndarray
    z: np.ndarray  # (N, D)


def synthetic_forward_sample(config: SyntheticConfig, rng: RngStream):
    """Forward-sample a dataset; covariates are i.i.d. standard normal."""
    D = config.dim
    gen = rng.generator()
    theta = gen.standard_normal(D)
    branches = []
    zs = np.empty((config.n_branches, D))
    for i, n_i in enumerate(config.obs_per_branch):
        z = theta + gen.standard_normal(D)
        x = gen.standard_normal((n_i, D))
        y = x @ z + gen.standard_normal(n_i)
        zs[i] = z
        branches.append((x, y))
    return from_branches(branches, D), SyntheticLatents(theta, zs)


@dataclass
class SyntheticOracle:
    """Closed-form posterior and marginal likelihood for the synthetic model."""

    posterior_global: GaussianSpec
    posterior_local: Callable     # (theta, i) -> GaussianSpec
    log_marginal: float


def synthetic_oracle(data: BranchDataset) -> SyntheticOracle:
    """Exact posterior over theta, conditionals over z_i, and log p(y | x).

    Everything comes from per-branch statistics G_i = X_i'X_i, b_i = X_i'y_i
    and y_i'y_i of the (n_i, D) covariates X_i, through K_i = I + G_i
    (Woodbury and the matrix determinant lemma on I + X_i X_i'):
      theta | y, x   precision I + sum_i G_i K_i^{-1}, linear term sum_i K_i^{-1} b_i
      z_i | theta    N(K_i^{-1} (b_i + theta), K_i^{-1})
      log p(y | x)   sum_i [-(y_i'y_i - b_i'K_i^{-1}b_i)/2 - log|K_i|/2 - n_i log(2 pi)/2]
                     + lin' prec^{-1} lin / 2 - log|prec| / 2
    Cost O(sum n_i D^2 + N D^3); branches with no rows contribute nothing.
    """
    eye = np.eye(data.covariate_dim)
    G = data.segment_sum(data.xt[:, None, :] * data.xt[None, :, :]).transpose(2, 0, 1)
    b = data.segment_sum(data.xt * data.y).T                      # (N, D)
    K = eye + G
    Kinv = np.linalg.inv(K)
    Kinv = 0.5 * (Kinv + Kinv.transpose(0, 2, 1))
    Kinv_b = np.einsum("nij,nj->ni", Kinv, b)
    prec = eye + np.einsum("nij,njk->ik", G, Kinv)
    lin = Kinv_b.sum(axis=0)
    cov_theta = np.linalg.inv(prec)
    cov_theta = 0.5 * (cov_theta + cov_theta.T)
    posterior_global = spec_from_moments(cov_theta @ lin, cov_theta)

    def posterior_local(theta, i):
        return spec_from_moments(Kinv[i] @ (b[i] + theta), Kinv[i])

    log_marginal = float(
        -0.5 * (data.y @ data.y - np.einsum("ni,ni->", b, Kinv_b))
        - 0.5 * np.linalg.slogdet(K)[1].sum() - 0.5 * data.y.size * LOG_2PI
        + 0.5 * lin @ posterior_global.mean - 0.5 * np.linalg.slogdet(prec)[1])
    return SyntheticOracle(posterior_global, posterior_local, log_marginal)


# ---------------------------------------------------------------------------
# Bernoulli preference model:
#   theta = [theta_mu, theta_sigma],  z_i ~ N(theta_mu, Sigma(theta)),
#   y_ij ~ Bernoulli(sigmoid(x_ij' z_i)),  Sigma(theta) = tril(theta_sigma)' tril(theta_sigma)


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, neither of which
    # overflows: min(x, -x) = -|x| is -x on the first side and x on the other,
    # and unlike -|x| it keeps a nan's sign.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def preference_global_dim(D: int) -> int:
    return D + tril_size(D)


def preference_model(D: int, gamma: float = 1.0) -> HbdModel:
    """Binary preference model with a latent covariance emitted by theta.

    theta stacks a D-dim location with the packed D(D+1)/2 factor vector;
    the factor realizes through the same diagonal map as variational
    factors (gamma defaults to 1). Observations must be 0/1.
    """
    gdim = preference_global_dim(D)
    dpos = packed_diag_indices(D)
    rows, cols = np.tril_indices(D)

    def _check_binary(y):
        if y.size and not np.all((y == 0.0) | (y == 1.0)):
            raise InvalidDataError("preference model requires binary observations")

    def log_prior(THETA):
        return -0.5 * np.einsum("md,md->m", THETA, THETA) - 0.5 * gdim * LOG_2PI

    def log_prior_grad(THETA):
        return log_prior(THETA), -THETA

    def _local_parts(THETA, Z):
        # log N(z | mu, L'L) per (copy, branch). Sigma^{-1} r comes from two
        # triangular solves by substitution, which keeps every (copy, branch)
        # entry independent of the batch size.
        L = tril_map_raw(THETA[:, D:], D, gamma)                 # (M, D, D)
        R = Z - THETA[:, None, :D]                               # (M, B, D)
        T = tril_solve(L, R, trans=True)                         # L' t = r
        U = tril_solve(L, T)                                     # L u = t
        logdet = np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        vals = (-0.5 * np.einsum("mbk,mbk->mb", T, T) - logdet[:, None]
                - 0.5 * D * LOG_2PI)
        return vals, L, U

    def _obs_term(Z, obs: BranchBatch):
        # Each branch's per-observation terms are summed in sorted order
        # (one sort per branch), so the sum is exactly invariant to
        # permuting the observations within the branch.
        _check_binary(obs.y)
        eta = _rows_dot(obs, Z)
        per_obs = obs.y * eta - _softplus(eta)
        return obs.segment_sum(obs.segment_sort(per_obs)), eta

    def log_branch_vals(THETA, Z, obs: BranchBatch):
        return _local_parts(THETA, Z)[0] + _obs_term(Z, obs)[0]

    def log_branch_grad(THETA, Z, obs: BranchBatch):
        vals, L, U = _local_parts(THETA, Z)
        obs_vals, eta = _obs_term(Z, obs)
        resid = obs.y - _sigmoid(eta)
        # d/dL of -0.5 t't - log det L is tril(L u u') - diag(1/L_kk).
        LU = np.einsum("mij,mbj->mbi", L, U)
        graw = LU[..., rows] * U[..., cols]
        inv_diag = 1.0 / np.diagonal(L, axis1=1, axis2=2)
        graw[..., dpos] -= inv_diag[:, None, :]
        graw[..., dpos] *= diag_transform_grad(THETA[:, None, D + dpos], gamma)
        g_z = -U + _rows_grad(obs, resid)
        return vals + obs_vals, np.concatenate([U, graw], axis=2), g_z

    def log_obs_vals(THETA, Z, obs: BranchBatch):
        return _obs_term(Z, obs)[0]

    return HbdModel(gdim, D, True, log_prior, log_prior_grad,
                    log_branch_vals, log_branch_grad, log_obs_vals)


@dataclass
class PreferenceConfig:
    dim: int                 # covariate / z dimension
    n_branches: int
    obs_per_branch: tuple
    gamma: float = 1.0

    def __post_init__(self):
        self.obs_per_branch = tuple(int(v) for v in self.obs_per_branch)
        if self.n_branches <= 0:
            raise InvalidDataError("n_branches must be positive")
        if len(self.obs_per_branch) != self.n_branches:
            raise InvalidDataError("obs_per_branch must have length n_branches")
        if any(n < 0 for n in self.obs_per_branch):
            raise InvalidDataError("observation counts must be non-negative")


def preference_forward_sample(config: PreferenceConfig, rng: RngStream):
    """Forward-sample preference data; covariates i.i.d. standard normal."""
    D = config.dim
    gen = rng.generator()
    theta = gen.standard_normal(preference_global_dim(D))
    Lfac = tril_map(UnconstrainedChol(theta[D:], D, config.gamma))
    branches = []
    zs = np.empty((config.n_branches, D))
    for i, n_i in enumerate(config.obs_per_branch):
        # z ~ N(mu, L'L): draw via the upper factor L'.
        z = theta[:D] + Lfac.T @ gen.standard_normal(D)
        x = gen.standard_normal((n_i, D))
        y = (gen.random(n_i) < _sigmoid(x @ z)).astype(float)
        zs[i] = z
        branches.append((x, y))
    return from_branches(branches, D), SyntheticLatents(theta, zs)
