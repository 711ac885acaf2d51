"""Amortization network mapping branch observations to local parameters.

Pipeline per branch: a feature MLP embeds each (x_ij, y_ij) pair, the
embeddings and their elementwise squares are mean-pooled over observations
(order-invariant by construction) and concatenated, and a parameter MLP
maps the pooled vector to the raw local parameter vector: one row in the
layout of BranchParams.W. The net runs over a whole batch of branches at
once (one feature-MLP pass over the stacked observation rows, one param-MLP
pass over the pooled rows). Forward and backward passes are written out by
hand; the tape carries exactly the activations the backward pass needs.

Every forward product runs on fixed blocks of rows (one stacked BLAS call
per layer; FEAT_BLOCK_ROWS for the feature MLP, PARAM_BLOCK_ROWS for the
parameter MLP), so a row's output is bitwise independent of the batch
around it; the exact permutation and duplication invariance of the net, and
the equality of chunked and one-pass no-grad forwards, rest on this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import BranchBatch, BranchDataset
from .errors import InvalidDataError, MalformedParamsError
from .families import init_branch, local_param_size
from .rng import RngStream

# std of a standard normal truncated to (-2, 2); draws are rescaled by it so
# the realized std equals the requested one.
_TRUNC_STD = 0.87962566103423978

# The leaky-ReLU slope of every hidden layer. It is fixed: no checkpoint
# stores it, so a reloaded net could not otherwise be told which it had.
SLOPE = 0.01


@dataclass
class MlpWeights:
    """Fully-connected stack; leaky-ReLU after every layer except the last."""

    weights: list           # (out, in) matrices
    biases: list            # (out,) vectors

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise MalformedParamsError("an MLP needs one or more layers of paired "
                                       "weights and biases")
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise MalformedParamsError(
                    f"layer {l} has weights {W.shape} and biases {b.shape}")
        for l in range(1, len(self.weights)):
            if self.weights[l].shape[1] != self.weights[l - 1].shape[0]:
                raise MalformedParamsError(f"layer {l} input width does not chain")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


# Rows per BLAS call in mlp_forward. A GEMM kernel's reduction order can
# depend on the number of rows it is given (einsum's does not, but it is
# several times slower), so every call of one MLP gets exactly this many.
# The feature MLP sees hundreds of observation rows a batch (its 64 -> 128
# layer is about 15% slower on 32-row blocks); the parameter MLP sees one
# pooled row per branch, tens a batch, so a smaller block pads less.
FEAT_BLOCK_ROWS = 64
PARAM_BLOCK_ROWS = 32


def mlp_forward(mlp: MlpWeights, H: np.ndarray, block_rows: int):
    """Rows of H are independent inputs; returns (output, cache).

    The rows are zero-padded once to whole blocks of ``block_rows`` rows and
    every layer is one stacked product over the (blocks, block_rows, width)
    array; the output and the cached activations are the first n rows.
    """
    n = H.shape[0]
    n_layers = len(mlp.weights)
    X = np.zeros((-(-n // block_rows), block_rows, H.shape[1]))
    X.reshape(-1, H.shape[1])[:n] = H
    inputs, masks = [], []
    for l, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(X.reshape(-1, X.shape[2])[:n])
        X = np.matmul(X, W.T)
        X += b
        if l < n_layers - 1:
            mask = X >= 0
            masks.append(mask.reshape(-1, mask.shape[2])[:n])
            X *= _leaky_gain(mask)
        else:
            masks.append(None)
    return X.reshape(-1, X.shape[2])[:n], (inputs, masks)


def _leaky_gain(mask):
    """1 where ``mask``, else SLOPE. As SLOPE lies in [0, 1], a * gain is
    bitwise np.where(mask, a, SLOPE * a) without np.where's per-element
    branch."""
    return np.maximum(mask, SLOPE)


def mlp_backward(mlp: MlpWeights, cache, g_out: np.ndarray, input_grad: bool = True):
    """Exact reverse pass; returns (g_weights, g_biases, g_input).

    Without ``input_grad`` the first layer's input gradient is not formed
    and g_input is None.
    """
    inputs, masks = cache
    n_layers = len(mlp.weights)
    gW = [None] * n_layers
    gb = [None] * n_layers
    g = g_out
    for l in range(n_layers - 1, -1, -1):
        if masks[l] is not None:
            g = g * _leaky_gain(masks[l])
        gW[l] = g.T @ inputs[l]
        gb[l] = g.sum(axis=0)
        g = g @ mlp.weights[l] if l or input_grad else None
    return gW, gb, g


# ---------------------------------------------------------------------------
# The network.


@dataclass
class AmortArch:
    feat_widths: tuple = (64, 64, 64, 128)
    param_widths: tuple = (256, 256, 256)


@dataclass
class AmortNet:
    feat: MlpWeights
    param: MlpWeights
    structure: str
    global_dim: int
    local_dim: int
    x_dim: int

    def __post_init__(self):
        if self.feat.in_dim != self.x_dim + 1:
            raise MalformedParamsError(
                f"feature-net input width {self.feat.in_dim} != x_dim + 1 = {self.x_dim + 1}")
        if self.param.in_dim != 2 * self.feat.out_dim:
            raise MalformedParamsError(
                "param-net input must be twice the embedding width (means of E and E^2)")
        want = local_param_size(self.structure, self.global_dim, self.local_dim)
        if self.param.out_dim != want:
            raise MalformedParamsError(
                f"param-net emits {self.param.out_dim} values, family wants {want}")


def _truncated_normal(gen, shape, std):
    out = gen.standard_normal(shape)
    for _ in range(100):
        bad = np.abs(out) > 2.0
        if not bad.any():
            break
        out[bad] = gen.standard_normal(int(bad.sum()))
    return out * (std / _TRUNC_STD)


def net_init(structure: str, global_dim: int, local_dim: int, x_dim: int,
             rng: RngStream, arch: AmortArch = AmortArch()) -> AmortNet:
    """Truncated-normal init (|draw| <= 2 std, rescaled so the realized std is
    exactly sqrt(1/fan_in)); the final output layer uses std 0.001 so the
    emitted conditionals start out almost standard normal. Biases are zero.
    """
    gen = rng.generator()
    out_dim = local_param_size(structure, global_dim, local_dim)

    def build(widths, in_dim, final_small):
        Ws, bs = [], []
        for l, width in enumerate(widths):
            std = 0.001 if (final_small and l == len(widths) - 1) else np.sqrt(1.0 / in_dim)
            Ws.append(_truncated_normal(gen, (width, in_dim), std))
            bs.append(np.zeros(width))
            in_dim = width
        return MlpWeights(Ws, bs)

    feat = build(arch.feat_widths, x_dim + 1, final_small=False)
    param = build((*arch.param_widths, out_dim), 2 * arch.feat_widths[-1], final_small=True)
    return AmortNet(feat, param, structure, global_dim, local_dim, x_dim)


@dataclass
class NetTape:
    """Activations of one batched forward pass that its backward pass needs."""

    feat_cache: tuple
    embed: np.ndarray      # (n, K) embeddings of the batch's observation rows
    param_cache: tuple
    obs: BranchBatch       # the batch the pass ran over


def net_forward_batch(net: AmortNet, obs: BranchBatch, branches):
    """Packed local rows (B, P_w) (the BranchParams.W layout) and one tape.

    One feature-MLP pass over all observation rows of ``obs``, a sorted-sum
    mean per branch, and one param-MLP pass over the B pooled rows. Both
    MLPs are row-stable, so a branch's row is bitwise the same alone and
    inside any batch. ``branches`` (B,) are the dataset indices of the batch
    positions; the error for an empty branch names its index.
    """
    empty = np.flatnonzero(obs.counts == 0)
    if empty.size:
        raise InvalidDataError(
            f"cannot amortize an empty branch (branch {int(branches[empty[0]])})")
    H = np.concatenate([obs.x, obs.y[:, None]], axis=1)
    E, feat_cache = mlp_forward(net.feat, H, FEAT_BLOCK_ROWS)
    # Each branch's rows of E sorted per column; summing in sorted order makes
    # the means bitwise invariant to observation order (float addition is not
    # associative otherwise). E^2 is summed in E's sorted order, which is as
    # much a function of the multiset (equal E give equal E^2). One sort per
    # branch, as in BranchBatch.segment_sort: numpy has no segmented sort, and
    # a whole-batch lexsort by (branch, value) is several times slower. The
    # sums stay per branch: np.add.reduceat over S is not bitwise S.sum(axis=0).
    K = E.shape[1]
    pooled = np.empty((obs.n_branches, 2 * K))
    for j, (s, c) in enumerate(zip(obs.starts.tolist(), obs.counts.tolist())):
        S = E[s:s + c].copy()
        S.sort(axis=0)
        S.sum(axis=0, out=pooled[j, :K])
        np.multiply(S, S, out=S)
        S.sum(axis=0, out=pooled[j, K:])
    pooled /= obs.counts[:, None]
    out, param_cache = mlp_forward(net.param, pooled, PARAM_BLOCK_ROWS)
    return out, NetTape(feat_cache, E, param_cache, obs)


def net_backward_batch(net: AmortNet, tape: NetTape, G: np.ndarray) -> AmortNet:
    """Gradient of sum_j G[j] . row_j: an AmortNet of weight and bias gradients.

    One reverse pass: each branch's pooled gradient spreads evenly over its
    observation rows, and the sum over branches happens inside the weight
    gradients' matmuls.
    """
    gW_p, gb_p, g_pooled = mlp_backward(net.param, tape.param_cache, G)
    K = tape.embed.shape[1]
    gq = g_pooled / tape.obs.counts[:, None]
    g_E = gq[:, K:][tape.obs.seg]
    g_E *= 2.0 * tape.embed
    g_E += gq[:, :K][tape.obs.seg]
    gW_f, gb_f, _ = mlp_backward(net.feat, tape.feat_cache, g_E, input_grad=False)
    return replace(net, feat=MlpWeights(gW_f, gb_f), param=MlpWeights(gW_p, gb_p))


# Observation rows per chunk of ``net_rows``: bounds a no-grad forward's
# activations to a few MB whatever the number of branches.
_CHUNK_ROWS = 2048


def net_rows(net: AmortNet, data: BranchDataset, idx) -> np.ndarray:
    """Packed local rows (len(idx), P_w) of branches ``idx``; no tape kept.

    Runs net_forward_batch over consecutive chunks of ``idx`` holding at most
    _CHUNK_ROWS observation rows (a larger branch is a chunk of its own) and
    drops each chunk's tape. By row stability the rows are bitwise those of
    one pass over all of ``idx``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    counts = data.counts[idx]
    ends = np.cumsum(counts)
    out = np.empty((idx.size, net.param.out_dim))
    start = 0
    while start < idx.size:
        limit = ends[start] - counts[start] + _CHUNK_ROWS
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        chunk = idx[start:stop]
        out[start:stop] = net_forward_batch(net, data.batch(chunk), chunk)[0]
        start = stop
    return out


def net_to_tree(net: AmortNet) -> dict:
    tree = {}
    for name, mlp in (("feat", net.feat), ("param", net.param)):
        for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            tree[f"{name}.{l}.W"] = w
            tree[f"{name}.{l}.b"] = b
    return tree


def net_param_count(net: AmortNet) -> int:
    return sum(arr.size for arr in net_to_tree(net).values())


# ---------------------------------------------------------------------------
# Amortized family container: a global factor plus the shared network.


@dataclass
class AmortParams:
    v: object           # GaussianSpec (dense/block) or DiagGaussian (diag)
    net: AmortNet

    @property
    def structure(self) -> str:
        return self.net.structure

    @property
    def global_dim(self) -> int:
        return self.net.global_dim

    @property
    def local_dim(self) -> int:
        return self.net.local_dim


def init_amortized(structure: str, global_dim: int, local_dim: int, x_dim: int,
                   rng: RngStream, arch: AmortArch = AmortArch(),
                   gamma: float = 1.0) -> AmortParams:
    v = init_branch(structure, global_dim, local_dim, 0, gamma).v
    net = net_init(structure, global_dim, local_dim, x_dim, rng, arch)
    return AmortParams(v, net)
