"""The nine Gaussian variational families: {dense, block, diag} x {joint, branch, amortized}.

Joint families couple theta with all locals in one Gaussian (dense), two
independent blocks (block), or per-coordinate factors (diag). Branch
families factor as q_v(theta) prod_i q_{w_i}(z_i | theta) where the dense
conditional mean is affine in theta (mu_i + A_i theta); block and diag
branch conditionals carry no A_i, so their locals ignore theta by
construction. Amortized families reuse BranchParams locals emitted by a
network (see amortize).

All sampling is reparameterized and the log-density at a sample reuses the
sampling noise, so gradients of estimate = log p - log q reduce to the path
term plus a log-det term on the factor diagonals; no matrix inversion is
ever needed during training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedParamsError
from .gaussmath import (
    GaussianSpec,
    UnconstrainedChol,
    LOG_2PI,
    diag_transform,
    diag_transform_grad,
    dot_last,
    mvn_draw_batch,
    spec_from_moments,
    tril_map,
    tril_map_backward,
    tril_map_backward_raw,
    tril_map_raw,
    tril_size,
    tril_unmap_raw,
)

STRUCTURES = ("dense", "block", "diag")
KINDS = ("joint", "branch", "amortized")


@dataclass
class DiagGaussian:
    """d independent (mean, raw-scale) pairs; scale realizes through psi."""

    mean: np.ndarray
    scale_raw: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.scale_raw = np.asarray(self.scale_raw, dtype=float)
        if self.mean.shape != self.scale_raw.shape or self.mean.ndim != 1:
            raise MalformedParamsError("mean and scale_raw must be equal-length vectors")

    @property
    def dim(self) -> int:
        return self.mean.size

    def scales(self) -> np.ndarray:
        return diag_transform(self.scale_raw, self.gamma)


def local_param_size(structure: str, global_dim: int, local_dim: int) -> int:
    if structure == "dense":
        return local_dim + local_dim * global_dim + tril_size(local_dim)
    if structure == "block":
        return local_dim + tril_size(local_dim)
    if structure == "diag":
        return 2 * local_dim
    raise MalformedParamsError(f"unknown structure {structure!r}")


@dataclass
class BranchParams:
    """Global factor v plus every branch's local parameters stacked in W.

    Row i of W is branch i's locals, packed as [mu | A row-major | raw] for
    dense, [mu | raw] for block and [mu | scale_raw] for diag: mu (dz,), A
    (dz, D), raw the row-major packed Cholesky vector of UnconstrainedChol
    (tril(dz),) and scale_raw (dz,). The properties below are views, so
    writes through them land in W.
    """

    structure: str
    global_dim: int
    local_dim: int
    v: object             # GaussianSpec (dense/block) or DiagGaussian (diag)
    W: np.ndarray         # (n_branches, local_param_size)

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise MalformedParamsError(f"unknown structure {self.structure!r}")
        self.W = np.asarray(self.W, dtype=float)
        width = local_param_size(self.structure, self.global_dim, self.local_dim)
        if self.W.ndim != 2 or self.W.shape[1] != width:
            raise MalformedParamsError(
                f"W has shape {self.W.shape}, {self.structure} locals need (N, {width})")

    @property
    def n_branches(self) -> int:
        return self.W.shape[0]

    @property
    def gamma(self) -> float:
        return factor_gamma(self.v)

    @property
    def mu(self) -> np.ndarray:
        return self.W[:, :self.local_dim]

    @property
    def A(self) -> np.ndarray | None:
        """(N, dz, D) coupling matrices; None outside dense."""
        if self.structure != "dense":
            return None
        dz, D = self.local_dim, self.global_dim
        return self.W[:, dz:dz + dz * D].reshape(-1, dz, D)

    @property
    def raw(self) -> np.ndarray | None:
        """(N, tril(dz)) packed Cholesky vectors; None for diag."""
        if self.structure == "diag":
            return None
        return self.W[:, self.W.shape[1] - tril_size(self.local_dim):]

    @property
    def scale_raw(self) -> np.ndarray | None:
        """(N, dz) raw diagonal scales; None outside diag."""
        return self.W[:, self.local_dim:] if self.structure == "diag" else None


@dataclass
class JointFamily:
    structure: str
    global_dim: int
    local_dim: int
    n_branches: int
    spec: GaussianSpec | None = None          # dense: one factor over (theta, z)
    theta_spec: GaussianSpec | None = None    # block
    locals_spec: GaussianSpec | None = None   # block (absent when N == 0)
    diag: DiagGaussian | None = None          # diag

    @property
    def total_dim(self) -> int:
        return self.global_dim + self.n_branches * self.local_dim


# ---------------------------------------------------------------------------
# Initialization: means 0, raw scales 0 (unit scale after psi), A = 0.


def init_joint(structure, global_dim, local_dim, n_branches, gamma: float = 1.0) -> JointFamily:
    P = global_dim + n_branches * local_dim
    if structure == "dense":
        return JointFamily(structure, global_dim, local_dim, n_branches,
                           spec=_zero_spec(P, gamma))
    if structure == "block":
        Z = n_branches * local_dim
        return JointFamily(structure, global_dim, local_dim, n_branches,
                           theta_spec=_zero_spec(global_dim, gamma),
                           locals_spec=_zero_spec(Z, gamma) if Z else None)
    if structure == "diag":
        return JointFamily(structure, global_dim, local_dim, n_branches,
                           diag=DiagGaussian(np.zeros(P), np.zeros(P), gamma))
    raise MalformedParamsError(f"unknown structure {structure!r}")


def init_branch(structure, global_dim, local_dim, n_branches, gamma: float = 1.0) -> BranchParams:
    if structure == "diag":
        v = DiagGaussian(np.zeros(global_dim), np.zeros(global_dim), gamma)
    else:
        v = _zero_spec(global_dim, gamma)
    W = np.zeros((n_branches, local_param_size(structure, global_dim, local_dim)))
    return BranchParams(structure, global_dim, local_dim, v, W)


def _zero_spec(dim, gamma):
    return GaussianSpec(np.zeros(dim), UnconstrainedChol(np.zeros(tril_size(dim)), dim, gamma))


# ---------------------------------------------------------------------------
# Joint -> branch conversion and assembly.


def joint_to_branch(fam: JointFamily) -> BranchParams:
    """Re-express a joint family in branch form.

    Dense: q_v is the theta marginal and each conditional q(z_i | theta)
    comes from the Gaussian conditioning identities
        mean = mu_i + S_ti' St^{-1} (theta - mu_t),  cov = S_ii - S_ti' St^{-1} S_ti,
    so the branch density equals the joint's marginal-times-conditionals
    with any cross-branch conditional coupling dropped; when the joint has
    none (conditional independence of the z_i given theta), densities are
    pointwise equal. Block and diag convert by regrouping with A_i = 0.
    """
    D, dz, N = fam.global_dim, fam.local_dim, fam.n_branches
    if fam.structure == "dense":
        gamma = fam.spec.chol.gamma
        L = tril_map(fam.spec.chol)
        cov = L @ L.T
        mu = fam.spec.mean
        St = cov[:D, :D]
        bp = init_branch("dense", D, dz, N, gamma)
        bp.v = spec_from_moments(mu[:D], St, gamma)
        S = cov[:D, D:].reshape(D, N, dz).transpose(1, 0, 2)      # (N, D, dz): S_ti
        A = S.transpose(0, 2, 1) @ np.linalg.inv(St)             # (N, dz, D)
        bp.mu[:] = mu[D:].reshape(N, dz) - A @ mu[:D]
        bp.A[:] = A
        bp.raw[:] = _chol_raw(_diag_blocks(cov[D:, D:], N, dz) - A @ S, gamma)
        return bp
    if fam.structure == "block":
        gamma = fam.theta_spec.chol.gamma
        bp = init_branch("block", D, dz, N, gamma)
        bp.v = GaussianSpec(fam.theta_spec.mean.copy(),
                            UnconstrainedChol(fam.theta_spec.chol.raw.copy(), D, gamma))
        if N:
            Lz = tril_map(fam.locals_spec.chol)
            bp.mu[:] = fam.locals_spec.mean.reshape(N, dz)
            bp.raw[:] = _chol_raw(_diag_blocks(Lz @ Lz.T, N, dz), gamma)
        return bp
    bp = init_branch("diag", D, dz, N, fam.diag.gamma)
    bp.v = DiagGaussian(fam.diag.mean[:D].copy(), fam.diag.scale_raw[:D].copy(),
                        fam.diag.gamma)
    bp.mu[:] = fam.diag.mean[D:].reshape(N, dz)
    bp.scale_raw[:] = fam.diag.scale_raw[D:].reshape(N, dz)
    return bp


def _diag_blocks(cov, N, dz):
    """The N (dz, dz) diagonal blocks of an (N dz, N dz) matrix."""
    i = np.arange(N)
    return cov.reshape(N, dz, N, dz)[i, :, i, :]


def _chol_raw(C, gamma):
    """Packed Cholesky rows of a stack of covariances, symmetrized first."""
    return tril_unmap_raw(np.linalg.cholesky(0.5 * (C + C.transpose(0, 2, 1))), gamma)


def assemble_joint(params: BranchParams):
    """Mean and covariance of the Gaussian over (theta, z) implied by branch params."""
    D, dz, N = params.global_dim, params.local_dim, params.n_branches
    if isinstance(params.v, DiagGaussian):
        mu_t, cov_t = params.v.mean, np.diag(params.v.scales() ** 2)
    else:
        mu_t, cov_t = params.v.mean, params.v.cov()
    As = params.A if params.A is not None else np.zeros((N, dz, D))
    if params.structure == "diag":
        Cs = np.zeros((N, dz, dz))
        idx = np.arange(dz)
        Cs[:, idx, idx] = diag_transform(params.scale_raw, params.gamma) ** 2
    else:
        Lw = tril_map_raw(params.raw, dz, params.gamma)
        Cs = Lw @ Lw.transpose(0, 2, 1)
    # Cov(z_i, theta) = A_i cov_t and Cov(z_i, z_j) = A_i cov_t A_j' + [i == j] C_i.
    AC = (As @ cov_t).reshape(N * dz, D)
    cov_z = AC @ As.reshape(N * dz, D).T
    blocks = cov_z.reshape(N, dz, N, dz)
    blocks[np.arange(N), :, np.arange(N), :] += Cs
    mean = np.concatenate([mu_t, (params.mu + As @ mu_t).ravel()])
    cov = np.block([[cov_t, AC.T], [AC, cov_z]])
    return mean, cov


# ---------------------------------------------------------------------------
# Parameter counting and tree views.


def family_param_count(kind, structure, n_branches, global_dim, local_dim,
                       net_param_count: int = 0) -> int:
    """Exact free-parameter counts for reports.

    Branch counts grow linearly in the number of branches; amortized counts
    are v plus the network and do not depend on it.
    """
    if kind not in KINDS or structure not in STRUCTURES:
        raise MalformedParamsError(f"unknown kind/structure {kind!r}/{structure!r}")
    D, dz, N = global_dim, local_dim, n_branches
    if kind == "joint":
        P = D + N * dz
        if structure == "dense":
            return P + tril_size(P)
        if structure == "block":
            Z = N * dz
            return D + tril_size(D) + Z + tril_size(Z)
        return 2 * P
    v = 2 * D if structure == "diag" else D + tril_size(D)
    per = local_param_size(structure, D, dz)
    if kind == "branch":
        return v + N * per
    return v + net_param_count


def factor_gamma(v) -> float:
    return v.gamma if isinstance(v, DiagGaussian) else v.chol.gamma


def factor_tree(prefix, v) -> dict:
    if isinstance(v, DiagGaussian):
        return {f"{prefix}.mean": v.mean, f"{prefix}.scale_raw": v.scale_raw}
    return {f"{prefix}.mean": v.mean, f"{prefix}.raw": v.chol.raw}


def joint_factors(fam: JointFamily) -> list:
    """The factors of a joint family as (prefix, factor, start, stop) slices of x = (theta, z).

    Dense and diag have one factor over all of x; block has theta, then the
    stacked locals when there are any. The prefixes name the tree keys.
    """
    if fam.structure == "block":
        out = [("theta", fam.theta_spec, 0, fam.global_dim)]
        if fam.locals_spec is not None:
            out.append(("locals", fam.locals_spec, fam.global_dim, fam.total_dim))
        return out
    return [("q", fam.spec if fam.structure == "dense" else fam.diag, 0, fam.total_dim)]


# ---------------------------------------------------------------------------
# Batched draws and backward passes: over MC copies for a global or joint
# factor, over (MC copy, batch branch) for branch locals. Every factor draw
# returns (X, logqs, aux); the backward pass takes aux back with the noise and
# the upstream gradient on the samples, plus the total weight on the -log q
# terms, and returns gradients on the factor's parameters. Gradients enter the
# parameter updates only as sums over copies, so the per-copy outer products
# collapse into single contractions.


def factor_draw_batch(v, EPS):
    """Rows of EPS are independent copies; returns (X, logqs, aux)."""
    if isinstance(v, DiagGaussian):
        s = v.scales()
        X = v.mean + s * EPS
        logqs = (-0.5 * np.einsum("ij,ij->i", EPS, EPS)
                 - float(np.sum(np.log(s))) - 0.5 * v.dim * LOG_2PI)
        return X, logqs, s
    return mvn_draw_batch(v, EPS)


def factor_grad_accum(v, aux, EPS, G, ent_total):
    """Sum over copies of the factor gradients; ent_total weights -log q."""
    if isinstance(v, DiagGaussian):
        g_mean = G.sum(axis=0)
        g_raw = ((G * EPS).sum(axis=0) + ent_total / aux) \
            * diag_transform_grad(v.scale_raw, v.gamma)
        return g_mean, g_raw
    g_mean = G.sum(axis=0)
    GL = np.tril(G.T @ EPS)
    idx = np.arange(v.dim)
    GL[idx, idx] += ent_total / np.diag(aux)
    return g_mean, tril_map_backward(v.chol, GL)


def joint_draw_batch(fam: JointFamily, EPS):
    """Draws of x = (theta, z) for every row of EPS (M, total_dim).

    Returns X (M, total_dim), the log-densities (M,) and one aux per factor
    of ``joint_factors``, in its order.
    """
    X = np.empty_like(EPS)
    logqs = np.zeros(EPS.shape[0])
    auxs = []
    for _, v, start, stop in joint_factors(fam):
        X[:, start:stop], logq, aux = factor_draw_batch(v, EPS[:, start:stop])
        logqs += logq
        auxs.append(aux)
    return X, logqs, auxs


def local_draw_rows(rows, structure, gamma, THETA, EPS):
    """Locals of a batch of branches for every MC copy.

    rows (B, P_w) are packed locals (the layout of BranchParams.W), THETA
    (M, D) the copies' global draws and EPS (M, B, dz) the local noise.
    Returns Z (M, B, dz) with z = mu + A theta + L eps, the conditional
    log-densities (M, B), and the factor state (L (B, dz, dz), or the
    scales (B, dz) for diag) that local_grad_rows takes back.
    """
    dz = EPS.shape[2]
    mu = rows[:, :dz]
    const = -0.5 * np.einsum("mbk,mbk->mb", EPS, EPS) - 0.5 * dz * LOG_2PI
    if structure == "diag":
        s = diag_transform(rows[:, dz:], gamma)
        return mu + s * EPS, const - np.sum(np.log(s), axis=1), s
    L = tril_map_raw(rows[:, -tril_size(dz):], dz, gamma)
    mean = mu
    if structure == "dense":
        mean = mu + dot_last(_rows_A(rows, dz, THETA.shape[1])[None], THETA[:, None, None, :])
    Z = mean + dot_last(L[None], EPS[:, :, None, :])
    logdet = np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    return Z, const - logdet, L


def local_grad_rows(rows, structure, gamma, aux, THETA, EPS, GZ, scale, n_mc):
    """Copy-summed gradient rows (B, P_w) of the batch's locals.

    GZ (M, B, dz) is the upstream gradient on Z; each copy's sample term
    and its -log q term carry ``scale``. The row layout is that of ``rows``.
    """
    dz = EPS.shape[2]
    G = np.empty_like(rows)
    G[:, :dz] = scale * GZ.sum(axis=0)
    if structure == "diag":
        G[:, dz:] = (((scale * GZ * EPS).sum(axis=0) + n_mc * scale / aux)
                     * diag_transform_grad(rows[:, dz:], gamma))
        return G
    if structure == "dense":
        D = THETA.shape[1]
        G[:, dz:dz + dz * D] = scale * np.einsum("mbk,md->bkd", GZ, THETA).reshape(-1, dz * D)
    GL = scale * np.einsum("mbk,mbl->bkl", GZ, EPS)
    idx = np.arange(dz)
    GL[:, idx, idx] += n_mc * scale / aux[:, idx, idx]
    T = tril_size(dz)
    G[:, -T:] = tril_map_backward_raw(rows[:, -T:], GL, dz, gamma)
    return G


def local_theta_grad(rows, structure, GZ, D):
    """The part of d/dtheta that flows through z = mu + A theta: (M, B, D)."""
    if structure != "dense":
        return 0.0
    At = _rows_A(rows, GZ.shape[2], D).transpose(0, 2, 1)
    return dot_last(At[None], GZ[:, :, None, :])


def _rows_A(rows, dz, D):
    return rows[:, dz:dz + dz * D].reshape(-1, dz, D)
