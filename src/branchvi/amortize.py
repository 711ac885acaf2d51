"""Amortization network mapping branch observations to local parameters.

Pipeline per branch: a feature MLP embeds each (x_ij, y_ij) pair, the
embedding is concatenated with its elementwise square, the augmented
vectors are mean-pooled over observations (order-invariant by
construction), and a parameter MLP maps the pooled vector to the raw local
parameter vector, which unpacks into LocalParams. Forward and backward
passes are written out by hand; the tape carries exactly the activations
the backward pass needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import BranchData
from .errors import InvalidDataError, MalformedParamsError
from .families import (
    factor_from_tree,
    factor_gamma,
    factor_tree,
    init_branch,
    local_param_size,
    unpack_local,
)
from .rng import RngStream

# std of a standard normal truncated to (-2, 2); draws are rescaled by it so
# the realized std equals the requested one.
_TRUNC_STD = 0.87962566103423978


@dataclass
class MlpWeights:
    """Fully-connected stack; leaky-ReLU after every layer except the last."""

    weights: list           # (out, in) matrices
    biases: list            # (out,) vectors
    slope: float = 0.01

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise MalformedParamsError("weights and biases must pair up")
        for l in range(1, len(self.weights)):
            if self.weights[l].shape[1] != self.weights[l - 1].shape[0]:
                raise MalformedParamsError(f"layer {l} input width does not chain")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


def mlp_forward(mlp: MlpWeights, H: np.ndarray, row_stable: bool = False):
    """Rows of H are independent inputs; returns (output, cache).

    With ``row_stable`` the matmul runs through einsum, whose per-row
    reduction order does not depend on the number of rows; BLAS GEMM kernels
    do, which would make a row's output differ bitwise between batch sizes.
    Required wherever exact permutation/duplication invariance is promised.
    """
    n_layers = len(mlp.weights)
    inputs, masks = [], []
    for l, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(H)
        if row_stable:
            a = np.einsum("ij,kj->ik", H, W) + b
        else:
            a = H @ W.T + b
        if l < n_layers - 1:
            mask = a >= 0
            masks.append(mask)
            H = np.where(mask, a, mlp.slope * a)
        else:
            masks.append(None)
            H = a
    return H, (inputs, masks)


def mlp_backward(mlp: MlpWeights, cache, g_out: np.ndarray):
    """Exact reverse pass; returns (g_weights, g_biases, g_input)."""
    inputs, masks = cache
    n_layers = len(mlp.weights)
    gW = [None] * n_layers
    gb = [None] * n_layers
    g = g_out
    for l in range(n_layers - 1, -1, -1):
        if masks[l] is not None:
            g = np.where(masks[l], g, mlp.slope * g)
        gW[l] = g.T @ inputs[l]
        gb[l] = g.sum(axis=0)
        g = g @ mlp.weights[l]
    return gW, gb, g


# ---------------------------------------------------------------------------
# The network.


@dataclass
class AmortArch:
    feat_widths: tuple = (64, 64, 64, 128)
    param_widths: tuple = (256, 256, 256)
    slope: float = 0.01


@dataclass
class AmortNet:
    feat: MlpWeights
    param: MlpWeights
    structure: str
    global_dim: int
    local_dim: int
    x_dim: int
    gamma: float = 1.0

    def __post_init__(self):
        if self.param.in_dim != 2 * self.feat.out_dim:
            raise MalformedParamsError(
                "param-net input must be twice the embedding width (square concat)")
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
             rng: RngStream, arch: AmortArch = AmortArch(), gamma: float = 1.0) -> AmortNet:
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
        return MlpWeights(Ws, bs, arch.slope)

    feat = build(arch.feat_widths, x_dim + 1, final_small=False)
    param = build((*arch.param_widths, out_dim), 2 * arch.feat_widths[-1], final_small=True)
    return AmortNet(feat, param, structure, global_dim, local_dim, x_dim, gamma)


@dataclass
class NetTape:
    feat_cache: tuple
    embed: np.ndarray      # (n, K)
    param_cache: tuple
    n_obs: int


def net_forward(net: AmortNet, d: BranchData):
    """Emit the local parameters for one branch; tape retained for backward."""
    if d.n == 0:
        raise InvalidDataError("cannot amortize an empty branch")
    H = np.concatenate([d.x, d.y[:, None]], axis=1)
    E, feat_cache = mlp_forward(net.feat, H, row_stable=True)
    aug = np.concatenate([E, E * E], axis=1)
    # Summing each dimension in sorted order makes the mean bitwise invariant
    # to observation order (float addition is not associative otherwise).
    pooled = np.sort(aug, axis=0).sum(axis=0) / d.n
    out, param_cache = mlp_forward(net.param, pooled[None, :])
    raw = out[0]
    w = unpack_local(raw, net.structure, net.global_dim, net.local_dim, net.gamma)
    return w, NetTape(feat_cache, E, param_cache, d.n)


def net_backward(net: AmortNet, tape: NetTape, g_raw: np.ndarray) -> dict:
    """Gradients of (g_raw . raw output) with respect to all weights/biases."""
    gW_p, gb_p, g_pooled = mlp_backward(net.param, tape.param_cache, g_raw[None, :])
    K = tape.embed.shape[1]
    g_aug = np.tile(g_pooled[0] / tape.n_obs, (tape.n_obs, 1))
    g_E = g_aug[:, :K] + 2.0 * tape.embed * g_aug[:, K:]
    gW_f, gb_f, _ = mlp_backward(net.feat, tape.feat_cache, g_E)
    tree = {}
    for l, (w, b) in enumerate(zip(gW_f, gb_f)):
        tree[f"feat.{l}.W"] = w
        tree[f"feat.{l}.b"] = b
    for l, (w, b) in enumerate(zip(gW_p, gb_p)):
        tree[f"param.{l}.W"] = w
        tree[f"param.{l}.b"] = b
    return tree


def net_to_tree(net: AmortNet) -> dict:
    tree = {}
    for l, (w, b) in enumerate(zip(net.feat.weights, net.feat.biases)):
        tree[f"feat.{l}.W"] = w
        tree[f"feat.{l}.b"] = b
    for l, (w, b) in enumerate(zip(net.param.weights, net.param.biases)):
        tree[f"param.{l}.W"] = w
        tree[f"param.{l}.b"] = b
    return tree


def net_from_tree(net: AmortNet, tree: dict) -> AmortNet:
    feat = MlpWeights([tree[f"feat.{l}.W"] for l in range(len(net.feat.weights))],
                      [tree[f"feat.{l}.b"] for l in range(len(net.feat.weights))],
                      net.feat.slope)
    param = MlpWeights([tree[f"param.{l}.W"] for l in range(len(net.param.weights))],
                       [tree[f"param.{l}.b"] for l in range(len(net.param.weights))],
                       net.param.slope)
    return AmortNet(feat, param, net.structure, net.global_dim, net.local_dim,
                    net.x_dim, net.gamma)


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
    net = net_init(structure, global_dim, local_dim, x_dim, rng, arch, gamma)
    return AmortParams(v, net)


def amort_to_tree(params: AmortParams) -> dict:
    tree = factor_tree("v", params.v)
    for k, a in net_to_tree(params.net).items():
        tree[f"net.{k}"] = a
    return tree


def amort_from_tree(params: AmortParams, tree: dict) -> AmortParams:
    v = factor_from_tree("v", tree, params.structure, params.global_dim,
                         factor_gamma(params.v))
    net_tree = {k[len("net."):]: a for k, a in tree.items() if k.startswith("net.")}
    return AmortParams(v, net_from_tree(params.net, net_tree))
