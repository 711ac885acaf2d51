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
    spec_from_moments,
    tril_map,
    tril_map_backward,
    tril_size,
    tril_unmap,
)
from .rng import RngStream

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


@dataclass
class LocalParams:
    """Parameters of one conditional q(z_i | theta).

    Dense: (mu, A, chol); block: (mu, chol); diag: (mu, scale_raw).
    """

    mu: np.ndarray
    A: np.ndarray | None = None
    chol: UnconstrainedChol | None = None
    scale_raw: np.ndarray | None = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if (self.chol is None) == (self.scale_raw is None):
            raise MalformedParamsError("exactly one of chol / scale_raw must be set")
        if self.A is not None and self.scale_raw is not None:
            raise MalformedParamsError("A is only valid for dense conditionals")


def local_param_size(structure: str, global_dim: int, local_dim: int) -> int:
    if structure == "dense":
        return local_dim + local_dim * global_dim + tril_size(local_dim)
    if structure == "block":
        return local_dim + tril_size(local_dim)
    if structure == "diag":
        return 2 * local_dim
    raise MalformedParamsError(f"unknown structure {structure!r}")


def unpack_local(raw: np.ndarray, structure: str, global_dim: int, local_dim: int,
                 gamma: float = 1.0) -> LocalParams:
    """Raw layout: mu, then A row-major (dense only), then covariance entries.

    The fields are views into ``raw``.
    """
    dz, D = local_dim, global_dim
    mu = raw[:dz]
    if structure == "dense":
        A = raw[dz:dz + dz * D].reshape(dz, D)
        chol = UnconstrainedChol(raw[dz + dz * D:], dz, gamma)
        return LocalParams(mu, A=A, chol=chol)
    if structure == "block":
        return LocalParams(mu, chol=UnconstrainedChol(raw[dz:], dz, gamma))
    return LocalParams(mu, scale_raw=raw[dz:])


def pack_local_grad(g_mu, g_A, g_raw) -> np.ndarray:
    """Inverse of unpack_local for gradients (raw covariance space)."""
    parts = [g_mu]
    if g_A is not None:
        parts.append(g_A.ravel())
    parts.append(g_raw)
    return np.concatenate(parts)


@dataclass
class BranchParams:
    """Global factor v plus every branch's local parameters stacked in W.

    Row i of W is branch i's locals in the packed order of ``unpack_local``:
    [mu | A row-major | raw] for dense, [mu | raw] for block and
    [mu | scale_raw] for diag. The properties below and ``local(i)`` are
    views, so writes through them land in W.
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

    def local(self, i) -> LocalParams:
        """Branch i's LocalParams as views into row i of W."""
        return unpack_local(self.W[i], self.structure, self.global_dim, self.local_dim,
                            self.gamma)


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
# Factor-level draws and backward passes.
#
# Every factor draw returns (x, logq, aux); the backward pass maps an
# upstream gradient g_x on the sample plus an entropy weight (the scale on
# the -log q term in the estimate) to gradients on (mean, raw).


def _dense_draw(spec: GaussianSpec, eps):
    L = tril_map(spec.chol)
    x = spec.mean + L @ eps
    logq = -0.5 * float(eps @ eps) - float(np.sum(np.log(np.diag(L)))) - 0.5 * spec.dim * LOG_2PI
    return x, logq, L


def _dense_backward(spec: GaussianSpec, L, eps, g_x, ent_weight):
    gL = np.tril(np.outer(g_x, eps))
    idx = np.arange(spec.dim)
    gL[idx, idx] += ent_weight / np.diag(L)
    return g_x.copy(), tril_map_backward(spec.chol, gL)


def _diag_draw(dg: DiagGaussian, eps):
    s = dg.scales()
    x = dg.mean + s * eps
    logq = -0.5 * float(eps @ eps) - float(np.sum(np.log(s))) - 0.5 * dg.dim * LOG_2PI
    return x, logq, s


def _diag_backward(dg: DiagGaussian, s, eps, g_x, ent_weight):
    graw = (g_x * eps + ent_weight / s) * diag_transform_grad(dg.scale_raw, dg.gamma)
    return g_x.copy(), graw


def factor_draw(v, eps):
    if isinstance(v, DiagGaussian):
        return _diag_draw(v, eps)
    return _dense_draw(v, eps)


def factor_backward(v, aux, eps, g_x, ent_weight):
    """Returns (g_mean, g_raw) for the factor's (mean, raw) parameters."""
    if isinstance(v, DiagGaussian):
        return _diag_backward(v, aux, eps, g_x, ent_weight)
    return _dense_backward(v, aux, eps, g_x, ent_weight)


# ---------------------------------------------------------------------------
# Branch-family sampling.


def branch_sample_global(params: BranchParams, rng: RngStream):
    """theta ~ q_v with its log-density."""
    eps = rng.normal(params.global_dim)
    theta, logq, _ = factor_draw(params.v, eps)
    return theta, logq


def local_draw(w: LocalParams, theta, eps):
    """z = mu + A theta + L eps (A term absent outside dense); logq from eps."""
    if w.scale_raw is not None:
        dg = DiagGaussian(w.mu, w.scale_raw)
        z, logq, s = _diag_draw(dg, eps)
        return z, logq, s
    L = tril_map(w.chol)
    mean = w.mu + (w.A @ theta if w.A is not None else 0.0)
    z = mean + L @ eps
    d = w.chol.dim
    logq = -0.5 * float(eps @ eps) - float(np.sum(np.log(np.diag(L)))) - 0.5 * d * LOG_2PI
    return z, logq, L


def branch_sample_local(w: LocalParams, theta, rng: RngStream):
    """z_i ~ q_{w_i}(. | theta) with its conditional log-density."""
    dim = w.mu.size
    eps = rng.normal(dim)
    z, logq, _ = local_draw(w, theta, eps)
    return z, logq


# ---------------------------------------------------------------------------
# Joint-family sampling.


@dataclass
class JointDraw:
    theta: np.ndarray
    z: np.ndarray          # (N, local_dim)
    logq: float
    eps: np.ndarray        # full noise vector, length total_dim
    aux: object            # structure-dependent factor state


def joint_draw(fam: JointFamily, eps) -> JointDraw:
    D, dz, N = fam.global_dim, fam.local_dim, fam.n_branches
    if fam.structure == "dense":
        x, logq, L = _dense_draw(fam.spec, eps)
        return JointDraw(x[:D], x[D:].reshape(N, dz), logq, eps, L)
    if fam.structure == "block":
        theta, lq1, Lt = _dense_draw(fam.theta_spec, eps[:D])
        if fam.locals_spec is not None:
            zflat, lq2, Lz = _dense_draw(fam.locals_spec, eps[D:])
        else:
            zflat, lq2, Lz = np.zeros(0), 0.0, None
        return JointDraw(theta, zflat.reshape(N, dz), lq1 + lq2, eps, (Lt, Lz))
    x, logq, s = _diag_draw(fam.diag, eps)
    return JointDraw(x[:D], x[D:].reshape(N, dz), logq, eps, s)


def joint_sample_logq(fam: JointFamily, rng: RngStream):
    """One reparameterized draw of (theta, z) with its joint log-density."""
    draw = joint_draw(fam, rng.normal(fam.total_dim))
    return draw.theta, draw.z, draw.logq


def joint_backward(fam: JointFamily, draw: JointDraw, g_theta, g_z, ent_weight=1.0) -> dict:
    """Gradient tree of (g . sample) - ent_weight * log q, keys as in to_tree."""
    D = fam.global_dim
    g_full = np.concatenate([g_theta, np.asarray(g_z).ravel()])
    if fam.structure == "dense":
        g_mean, g_raw = _dense_backward(fam.spec, draw.aux, draw.eps, g_full, ent_weight)
        return {"q.mean": g_mean, "q.raw": g_raw}
    if fam.structure == "block":
        Lt, Lz = draw.aux
        g_mt, g_rt = _dense_backward(fam.theta_spec, Lt, draw.eps[:D], g_theta, ent_weight)
        out = {"theta.mean": g_mt, "theta.raw": g_rt}
        if fam.locals_spec is not None:
            g_mz, g_rz = _dense_backward(fam.locals_spec, Lz, draw.eps[D:],
                                         g_full[D:], ent_weight)
            out["locals.mean"] = g_mz
            out["locals.raw"] = g_rz
        return out
    g_mean, g_raw = _diag_backward(fam.diag, draw.aux, draw.eps, g_full, ent_weight)
    return {"q.mean": g_mean, "q.scale_raw": g_raw}


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
        St_inv = np.linalg.inv(St)
        for i in range(N):
            s = slice(D + i * dz, D + (i + 1) * dz)
            S_ti = cov[:D, s]                      # (D, dz)
            A = S_ti.T @ St_inv                    # (dz, D)
            cond_cov = cov[s, s] - A @ S_ti
            cond_cov = 0.5 * (cond_cov + cond_cov.T)
            bp.mu[i] = mu[s] - A @ mu[:D]
            bp.A[i] = A
            bp.raw[i] = tril_unmap(np.linalg.cholesky(cond_cov), gamma).raw
        return bp
    if fam.structure == "block":
        gamma = fam.theta_spec.chol.gamma
        bp = init_branch("block", D, dz, N, gamma)
        bp.v = GaussianSpec(fam.theta_spec.mean.copy(),
                            UnconstrainedChol(fam.theta_spec.chol.raw.copy(), D, gamma))
        if N:
            Lz = tril_map(fam.locals_spec.chol)
            cov_z = Lz @ Lz.T
            bp.mu[:] = fam.locals_spec.mean.reshape(N, dz)
            for i in range(N):
                s = slice(i * dz, (i + 1) * dz)
                blk = 0.5 * (cov_z[s, s] + cov_z[s, s].T)
                bp.raw[i] = tril_unmap(np.linalg.cholesky(blk), gamma).raw
        return bp
    bp = init_branch("diag", D, dz, N, fam.diag.gamma)
    bp.v = DiagGaussian(fam.diag.mean[:D].copy(), fam.diag.scale_raw[:D].copy(),
                        fam.diag.gamma)
    bp.mu[:] = fam.diag.mean[D:].reshape(N, dz)
    bp.scale_raw[:] = fam.diag.scale_raw[D:].reshape(N, dz)
    return bp


def assemble_joint(params: BranchParams):
    """Mean and covariance of the Gaussian over (theta, z) implied by branch params."""
    D, dz, N = params.global_dim, params.local_dim, params.n_branches
    P = D + N * dz
    if isinstance(params.v, DiagGaussian):
        mu_t, cov_t = params.v.mean, np.diag(params.v.scales() ** 2)
    else:
        mu_t, cov_t = params.v.mean, params.v.cov()
    mean = np.zeros(P)
    cov = np.zeros((P, P))
    mean[:D] = mu_t
    cov[:D, :D] = cov_t
    As = params.A if params.A is not None else np.zeros((N, dz, D))
    Cs = []
    for i in range(N):
        wi = params.local(i)
        if wi.scale_raw is not None:
            C = np.diag(diag_transform(wi.scale_raw) ** 2)
        else:
            Lw = tril_map(wi.chol)
            C = Lw @ Lw.T
        Cs.append(C)
    for i in range(N):
        s = slice(D + i * dz, D + (i + 1) * dz)
        mean[s] = params.mu[i] + As[i] @ mu_t
        cov[:D, s] = cov_t @ As[i].T
        cov[s, :D] = As[i] @ cov_t
        for j in range(N):
            sj = slice(D + j * dz, D + (j + 1) * dz)
            cov[s, sj] = As[i] @ cov_t @ As[j].T
        cov[s, s] += Cs[i]
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


def factor_from_tree(prefix, tree: dict, structure: str, dim: int, gamma: float):
    """Inverse of factor_tree: the global factor of a branch or amortized family."""
    if structure == "diag":
        return DiagGaussian(tree[f"{prefix}.mean"], tree[f"{prefix}.scale_raw"], gamma)
    return GaussianSpec(tree[f"{prefix}.mean"],
                        UnconstrainedChol(tree[f"{prefix}.raw"], dim, gamma))


def branch_to_tree(params: BranchParams) -> dict:
    """Three entries for any number of branches: v.mean, v.raw|v.scale_raw, w.

    Flattened, ``w`` gives each branch's locals in turn, so the flat order is
    the same as that of the per-branch ``w.%06d.*`` keys of earlier versions.
    """
    tree = factor_tree("v", params.v)
    tree["w"] = params.W
    return tree


def branch_from_tree(params: BranchParams, tree: dict) -> BranchParams:
    """Rebuild with the same shapes/structure but arrays taken from ``tree``."""
    v = factor_from_tree("v", tree, params.structure, params.global_dim, params.gamma)
    return BranchParams(params.structure, params.global_dim, params.local_dim, v, tree["w"])


def joint_to_tree(fam: JointFamily) -> dict:
    if fam.structure == "dense":
        return {"q.mean": fam.spec.mean, "q.raw": fam.spec.chol.raw}
    if fam.structure == "block":
        tree = {"theta.mean": fam.theta_spec.mean, "theta.raw": fam.theta_spec.chol.raw}
        if fam.locals_spec is not None:
            tree["locals.mean"] = fam.locals_spec.mean
            tree["locals.raw"] = fam.locals_spec.chol.raw
        return tree
    return {"q.mean": fam.diag.mean, "q.scale_raw": fam.diag.scale_raw}


def joint_from_tree(fam: JointFamily, tree: dict) -> JointFamily:
    if fam.structure == "dense":
        g = fam.spec.chol.gamma
        spec = GaussianSpec(tree["q.mean"],
                            UnconstrainedChol(tree["q.raw"], fam.total_dim, g))
        return JointFamily("dense", fam.global_dim, fam.local_dim, fam.n_branches, spec=spec)
    if fam.structure == "block":
        g = fam.theta_spec.chol.gamma
        theta = GaussianSpec(tree["theta.mean"],
                             UnconstrainedChol(tree["theta.raw"], fam.global_dim, g))
        locs = None
        if fam.locals_spec is not None:
            Z = fam.n_branches * fam.local_dim
            locs = GaussianSpec(tree["locals.mean"],
                                UnconstrainedChol(tree["locals.raw"], Z, g))
        return JointFamily("block", fam.global_dim, fam.local_dim, fam.n_branches,
                           theta_spec=theta, locals_spec=locs)
    dg = DiagGaussian(tree["q.mean"], tree["q.scale_raw"], fam.diag.gamma)
    return JointFamily("diag", fam.global_dim, fam.local_dim, fam.n_branches, diag=dg)


# ---------------------------------------------------------------------------
# Batched (over MC copies) draw/accumulate helpers used by the estimators.
# Gradients enter the parameter updates only as sums over copies, so the
# per-copy outer products collapse into single matmuls.


def factor_draw_batch(v, EPS):
    """Rows of EPS are independent copies; returns (X, logqs, aux)."""
    if isinstance(v, DiagGaussian):
        s = v.scales()
        X = v.mean + s * EPS
        logqs = (-0.5 * np.einsum("ij,ij->i", EPS, EPS)
                 - float(np.sum(np.log(s))) - 0.5 * v.dim * LOG_2PI)
        return X, logqs, s
    L = tril_map(v.chol)
    X = v.mean + EPS @ L.T
    logqs = (-0.5 * np.einsum("ij,ij->i", EPS, EPS)
             - float(np.sum(np.log(np.diag(L)))) - 0.5 * v.dim * LOG_2PI)
    return X, logqs, L


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


def local_draw_batch(w: LocalParams, THETA, EPS):
    """Copies of z = mu + A theta + L eps with per-copy conditional log-densities."""
    if w.scale_raw is not None:
        dg = DiagGaussian(w.mu, w.scale_raw)
        return factor_draw_batch(dg, EPS)
    L = tril_map(w.chol)
    mean = w.mu + (THETA @ w.A.T if w.A is not None else 0.0)
    Z = mean + EPS @ L.T
    d = w.chol.dim
    logqs = (-0.5 * np.einsum("ij,ij->i", EPS, EPS)
             - float(np.sum(np.log(np.diag(L)))) - 0.5 * d * LOG_2PI)
    return Z, logqs, L


def local_grad_accum(w: LocalParams, aux, EPS, THETA, GZ, scale, n_mc):
    """Copy-summed local gradients; each copy's -log q term carries ``scale``."""
    if w.scale_raw is not None:
        dg = DiagGaussian(w.mu, w.scale_raw)
        g_mu, g_raw = factor_grad_accum(dg, aux, EPS, scale * GZ, n_mc * scale)
        return g_mu, None, g_raw
    g_mu = scale * GZ.sum(axis=0)
    g_A = scale * (GZ.T @ THETA) if w.A is not None else None
    GL = scale * np.tril(GZ.T @ EPS)
    idx = np.arange(w.chol.dim)
    GL[idx, idx] += n_mc * scale / np.diag(aux)
    return g_mu, g_A, tril_map_backward(w.chol, GL)
