"""Gaussian and triangular-factor primitives.

Covariances are carried as unconstrained vectors that map to lower-triangular
Cholesky factors: off-diagonal entries pass through unchanged, diagonal
entries go through the positive map

    psi(x) = (x + sqrt(x^2 + 4*gamma)) / 2,   gamma > 0,

which behaves like x for large positive x and like -gamma/x for large
negative x, decaying to zero much more slowly than exp or softplus. Sampling
and density evaluation share the same standard-normal noise so that the
log-density at the sample never needs a triangular solve:

    x = mean + L @ eps   =>   log q(x) = -||eps||^2/2 - sum(log diag L) - d/2 log(2 pi).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MalformedParamsError

LOG_2PI = float(np.log(2.0 * np.pi))


def diag_transform(x, gamma: float = 1.0):
    """psi(x) = (x + sqrt(x^2 + 4 gamma)) / 2; positive, increasing, psi(x)psi(-x) = gamma.

    The negative branch uses the conjugate form 2 gamma / (sqrt(x^2+4g) - x),
    which avoids the cancellation the direct formula hits for large -x.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(x * x + 4.0 * gamma)
    denom = np.where(x >= 0.0, 1.0, s - x)
    return np.where(x >= 0.0, 0.5 * (x + s), 2.0 * gamma / denom)


def diag_transform_grad(x, gamma: float = 1.0):
    """d psi / d x = (1 + x / sqrt(x^2 + 4 gamma)) / 2, always in (0, 1)."""
    x = np.asarray(x, dtype=float)
    s = np.sqrt(x * x + 4.0 * gamma)
    denom = np.where(x >= 0.0, 1.0, s - x)
    return np.where(x >= 0.0, 0.5 * (1.0 + x / s), 2.0 * gamma / (s * denom))


def diag_transform_inv(y, gamma: float = 1.0):
    """Inverse of psi on y > 0:  x = y - gamma / y."""
    y = np.asarray(y, dtype=float)
    return y - gamma / y


def dot_last(a, b):
    """sum_k a[..., k] * b[..., k] under broadcasting, added in k order.

    For the many short products of a batch this is faster than einsum, and
    each entry's value does not depend on the other entries (a BLAS
    product's can).
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def tril_size(dim: int) -> int:
    return dim * (dim + 1) // 2


@functools.lru_cache(maxsize=None)
def _tril_indices(dim: int):
    return np.tril_indices(dim)


def packed_diag_indices(dim: int) -> np.ndarray:
    """Positions of the diagonal entries inside the row-major packed vector."""
    k = np.arange(dim)
    return k * (k + 3) // 2


@dataclass
class UnconstrainedChol:
    """Unconstrained parameter vector for one lower-triangular factor.

    ``raw`` is packed row-major: (0,0), (1,0), (1,1), (2,0), ...
    """

    raw: np.ndarray
    dim: int
    gamma: float = 1.0

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=float)
        if self.raw.shape != (tril_size(self.dim),):
            raise MalformedParamsError(
                f"raw has shape {self.raw.shape}, expected ({tril_size(self.dim)},) for dim {self.dim}"
            )
        if self.gamma <= 0:
            raise MalformedParamsError("gamma must be positive")


def tril_map(u: UnconstrainedChol) -> np.ndarray:
    """Realize the lower-triangular factor with strictly positive diagonal."""
    return tril_map_raw(u.raw, u.dim, u.gamma)


def tril_map_raw(raw: np.ndarray, dim: int, gamma: float = 1.0) -> np.ndarray:
    """tril_map over a stack of packed vectors: raw (..., tril(dim)) -> (..., dim, dim)."""
    L = np.zeros(raw.shape[:-1] + (dim, dim))
    rows, cols = _tril_indices(dim)
    L[..., rows, cols] = raw
    idx = np.arange(dim)
    L[..., idx, idx] = diag_transform(raw[..., packed_diag_indices(dim)], gamma)
    return L


def tril_unmap(L: np.ndarray, gamma: float = 1.0) -> UnconstrainedChol:
    """Invert tril_map for a factor with positive diagonal."""
    return UnconstrainedChol(tril_unmap_raw(L, gamma), L.shape[-1], gamma)


def tril_unmap_raw(L: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """tril_unmap over a stack of factors: L (..., d, d) -> packed raw (..., tril(d))."""
    d = L.shape[-1]
    if L.ndim < 2 or L.shape[-2] != d:
        raise MalformedParamsError("tril_unmap expects square matrices")
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    if np.any(diag <= 0):
        raise MalformedParamsError("tril_unmap requires a strictly positive diagonal")
    rows, cols = _tril_indices(d)
    raw = L[..., rows, cols]
    raw[..., packed_diag_indices(d)] = diag_transform_inv(diag, gamma)
    return raw


def tril_map_backward(u: UnconstrainedChol, grad_L: np.ndarray) -> np.ndarray:
    """Pull a gradient on the realized factor back to the raw vector.

    Off-diagonal entries chain with factor 1, diagonal entries with psi'.
    Only the lower triangle of ``grad_L`` is read.
    """
    return tril_map_backward_raw(u.raw, grad_L, u.dim, u.gamma)


def tril_map_backward_raw(raw: np.ndarray, grad_L: np.ndarray, dim: int,
                          gamma: float = 1.0) -> np.ndarray:
    """tril_map_backward over stacks: raw (..., tril(dim)), grad_L (..., dim, dim)."""
    rows, cols = _tril_indices(dim)
    graw = grad_L[..., rows, cols]
    dpos = packed_diag_indices(dim)
    graw[..., dpos] *= diag_transform_grad(raw[..., dpos], gamma)
    return graw


@dataclass
class GaussianSpec:
    """Multivariate normal factor: mean plus unconstrained Cholesky vector."""

    mean: np.ndarray
    chol: UnconstrainedChol

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.shape != (self.chol.dim,):
            raise MalformedParamsError(
                f"mean has shape {self.mean.shape}, chol dim is {self.chol.dim}"
            )

    @property
    def dim(self) -> int:
        return self.chol.dim

    def cov(self) -> np.ndarray:
        L = tril_map(self.chol)
        return L @ L.T


def tril_solve(L: np.ndarray, R: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve L t = r (L' t = r with ``trans``) by substitution for every row.

    L (M, d, d) is lower triangular and R (M, B, d) holds B right-hand sides
    per copy m, each solved against L[m]. An entry of the result depends only
    on its own row and L[m], never on B.
    """
    d = L.shape[-1]
    T = np.empty_like(R)
    for k in (range(d - 1, -1, -1) if trans else range(d)):
        if trans:
            coef, done = L[:, k + 1:, k], T[..., k + 1:]
        else:
            coef, done = L[:, k, :k], T[..., :k]
        acc = R[..., k] - np.einsum("mj,mbj->mb", coef, done)
        T[..., k] = acc / L[:, k, k][:, None]
    return T


def spec_from_moments(mean: np.ndarray, cov: np.ndarray, gamma: float = 1.0) -> GaussianSpec:
    """Build a spec whose realized covariance equals ``cov`` (via Cholesky)."""
    L = np.linalg.cholesky(cov)
    return GaussianSpec(np.asarray(mean, dtype=float), tril_unmap(L, gamma))


def mvn_draw_batch(spec: GaussianSpec, EPS: np.ndarray):
    """Deterministic reparameterized draws from given noise, one per row of EPS (M, dim).

    Returns (X (M, dim), logpdfs (M,), L). The logpdfs reuse ``EPS``
    directly, so no solve is performed and each value is exact at its sample.
    """
    L = tril_map(spec.chol)
    X = spec.mean + EPS @ L.T
    logqs = (-0.5 * np.einsum("ij,ij->i", EPS, EPS)
             - float(np.sum(np.log(np.diag(L)))) - 0.5 * spec.dim * LOG_2PI)
    return X, logqs, L


def mvn_logpdf(spec: GaussianSpec, x: np.ndarray) -> float:
    """Exact log-density at an arbitrary point (triangular solve)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise MalformedParamsError(f"x has shape {x.shape}, expected ({spec.dim},)")
    L = tril_map(spec.chol)
    t = tril_solve(L[None], (x - spec.mean)[None, None])[0, 0]
    return -0.5 * float(t @ t) - float(np.sum(np.log(np.diag(L)))) - 0.5 * spec.dim * LOG_2PI
