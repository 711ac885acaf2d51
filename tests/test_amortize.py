import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branchvi import amortize
from branchvi.amortize import (
    AmortArch,
    MlpWeights,
    mlp_backward,
    mlp_forward,
    net_backward_batch,
    net_forward_batch,
    net_init,
    net_param_count,
    net_rows,
    net_to_tree,
)
from branchvi.data import from_branches
from branchvi.errors import InvalidDataError, MalformedParamsError
from branchvi.families import local_param_size
from branchvi.gaussmath import tril_map_raw, tril_size
from branchvi.rng import RngStream
from branchvi.trees import tree_flatten
from helpers import central_differences

TINY = AmortArch(feat_widths=(3, 3), param_widths=(4, 4), slope=0.01)


def _branch(seed, n=5, x_dim=2):
    gen = RngStream(seed).generator()
    return gen.standard_normal((n, x_dim)), gen.standard_normal(n)


def _row(net, x, y):
    """The packed local row (P_w,) the net emits for one branch, and its tape."""
    rows, tape = net_forward_batch(net, from_branches([(x, y)], x.shape[1]), [0])
    return rows[0], tape


class TestNetForward:
    def test_permutation_invariance_bitwise(self):
        net = net_init("dense", 2, 2, 2, RngStream(70), TINY)
        x, y = _branch(71, n=7)
        w0, _ = _row(net, x, y)
        gen = RngStream(72).generator()
        for _ in range(5):
            perm = gen.permutation(7)
            w1, _ = _row(net, x[perm], y[perm])
            assert np.array_equal(w0, w1)

    def test_duplication_invariance(self):
        net = net_init("block", 1, 2, 2, RngStream(73), TINY)
        x, y = _branch(74, n=1)
        w1, _ = _row(net, x, y)
        w2, _ = _row(net, np.vstack([x, x]), np.concatenate([y, y]))
        assert np.array_equal(w1, w2)

    def test_zero_weights_emit_standard_normal(self):
        out_dim = local_param_size("dense", 2, 2)
        feat = MlpWeights([np.zeros((3, 3)), np.zeros((4, 3))],
                          [np.zeros(3), np.zeros(4)])
        param = MlpWeights([np.zeros((4, 8)), np.zeros((out_dim, 4))],
                           [np.zeros(4), np.zeros(out_dim)])
        from branchvi.amortize import AmortNet

        net = AmortNet(feat, param, "dense", 2, 2, 2)
        row = _row(net, *_branch(75))[0]   # [mu | A | raw], all zero
        assert row.shape == (out_dim,) and np.all(row == 0)
        assert np.allclose(tril_map_raw(row[-tril_size(2):], 2), np.eye(2))

    def test_branches_processed_independently(self):
        net = net_init("diag", 1, 2, 2, RngStream(77), TINY)
        b1, b2 = _branch(78, n=3), _branch(79, n=6)
        w_alone, _ = _row(net, *b1)
        _row(net, *b2)  # interleaved work must not affect b1's output
        w_again, _ = _row(net, *b1)
        assert np.array_equal(w_alone, w_again)


class TestNetBackward:
    def test_matches_central_differences(self):
        net = net_init("dense", 1, 1, 1, RngStream(80), TINY)
        b = _branch(81, n=2, x_dim=1)
        upstream = RngStream(82).normal(local_param_size("dense", 1, 1))

        def value(n):
            return float(upstream @ _row(n, *b)[0])

        _, tape = _row(net, *b)
        grads = net_backward_batch(net, tape, upstream[None, :])
        tree = net_to_tree(net)
        fds = central_differences(net, value, 1e-6, tree)
        for j, (fd, g) in enumerate(zip(fds, tree_flatten(net_to_tree(grads)))):
            assert g == pytest.approx(fd, rel=1e-4, abs=1e-7), j

    def test_zero_upstream_gives_zero_grads(self):
        net = net_init("dense", 1, 1, 1, RngStream(83), TINY)
        _, tape = _row(net, *_branch(84, n=3, x_dim=1))
        grads = net_backward_batch(net, tape, np.zeros((1, local_param_size("dense", 1, 1))))
        assert all(np.all(g == 0) for g in net_to_tree(grads).values())

    def test_duplicated_observation_gradient_matches_single(self):
        net = net_init("block", 1, 1, 1, RngStream(85), TINY)
        x, y = _branch(86, n=1, x_dim=1)
        upstream = RngStream(87).normal((1, local_param_size("block", 1, 1)))
        _, tape1 = _row(net, x, y)
        _, tape2 = _row(net, np.vstack([x, x]), np.concatenate([y, y]))
        g1 = net_to_tree(net_backward_batch(net, tape1, upstream))
        g2 = net_to_tree(net_backward_batch(net, tape2, upstream))
        for key in g1:
            assert np.allclose(g1[key], g2[key], atol=1e-12), key

    def test_mlp_shapes_validated(self):
        with pytest.raises(MalformedParamsError):
            MlpWeights([np.zeros((3, 2)), np.zeros((4, 5))], [np.zeros(3), np.zeros(4)])

    @pytest.mark.parametrize("slope", [-0.01, 1.5, np.nan])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(MalformedParamsError, match="slope"):
            MlpWeights([np.zeros((3, 2))], [np.zeros(3)], slope)

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    def test_leaky_gain_matches_where_bitwise(self, slope):
        gen = RngStream(89).generator()
        a = np.concatenate([gen.standard_normal(200) * 10.0 ** gen.integers(-310, 300, 200),
                            [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore"):  # 0 * inf at slope 0, on both sides
            want = np.where(a >= 0, a, slope * a)
            got = a * amortize._leaky_gain(a >= 0, slope)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _ragged(seed, x_dim=2):
    """Branches with n_i = 1 and n_i >= 50 among them."""
    return from_branches([_branch(seed + k, n=n, x_dim=x_dim)
                          for k, n in enumerate((1, 57, 4, 1, 50, 9))], x_dim)


class TestBatchedNet:
    def test_rows_bitwise_alone_in_batch_and_reordered(self):
        net = net_init("dense", 2, 2, 2, RngStream(160))
        data = _ragged(161)
        idx = np.arange(data.n_branches)
        rows, _ = net_forward_batch(net, data.batch(idx), idx)
        order = np.array([4, 0, 5, 2, 1, 3])
        rows_perm, _ = net_forward_batch(net, data.batch(order), order)
        for i in idx:
            part = data.batch([i])
            alone = _row(net, part.x, part.y)[0]
            assert np.array_equal(rows[i], alone), i
            assert np.array_equal(rows_perm[np.flatnonzero(order == i)[0]], alone), i
            assert np.array_equal(net_forward_batch(net, data.batch([i]), [i])[0][0], alone), i

    def test_chunked_rows_equal_one_pass(self, monkeypatch):
        net = net_init("block", 1, 2, 2, RngStream(162))
        data = _ragged(163)
        idx = np.array([5, 1, 0, 4, 3, 2])
        whole, _ = net_forward_batch(net, data.batch(idx), idx)
        for budget in (1, 3, 60, 10_000):
            monkeypatch.setattr(amortize, "_CHUNK_ROWS", budget)
            assert np.array_equal(net_rows(net, data, idx), whole), budget

    def test_backward_is_sum_of_per_branch_passes(self):
        net = net_init("dense", 2, 2, 2, RngStream(164))
        data = _ragged(165)
        idx = np.arange(data.n_branches)
        G = RngStream(166).normal((idx.size, local_param_size("dense", 2, 2)))
        _, tape = net_forward_batch(net, data.batch(idx), idx)
        batched = net_to_tree(net_backward_batch(net, tape, G))
        summed = None
        for i in idx:
            part = data.batch([i])
            g = net_to_tree(net_backward_batch(net, _row(net, part.x, part.y)[1], G[i:i + 1]))
            summed = g if summed is None else {k: summed[k] + g[k] for k in g}
        for key in summed:
            scale = max(np.max(np.abs(summed[key])), 1e-300)
            assert np.max(np.abs(batched[key] - summed[key])) <= 1e-12 * scale, key

    def test_backward_matches_central_differences(self):
        net = net_init("dense", 1, 1, 1, RngStream(167), TINY)
        data = from_branches([_branch(168, n=1, x_dim=1), _branch(169, n=3, x_dim=1)], 1)
        idx = [1, 0]
        obs = data.batch(idx)
        G = RngStream(170).normal((2, local_param_size("dense", 1, 1)))
        _, tape = net_forward_batch(net, obs, idx)
        grads = net_backward_batch(net, tape, G)
        tree = net_to_tree(net)
        fds = central_differences(
            net, lambda n: float(np.sum(G * net_forward_batch(n, obs, idx)[0])), 1e-6, tree)
        for j, (fd, g) in enumerate(zip(fds, tree_flatten(net_to_tree(grads)))):
            assert g == pytest.approx(fd, rel=1e-4, abs=1e-7), j

    def test_empty_branch_in_batch_names_it(self):
        net = net_init("diag", 1, 1, 1, RngStream(171), TINY)
        data = from_branches([_branch(172, n=2, x_dim=1), (np.zeros((0, 1)), np.zeros(0))], 1)
        with pytest.raises(InvalidDataError, match="empty branch.*branch 1"):
            net_forward_batch(net, data.batch([0, 1]), [0, 1])
        with pytest.raises(InvalidDataError, match="empty branch.*branch 1"):
            net_rows(net, data, [0, 1])


def _default_layers():
    """(W, b) of every layer of a default-architecture net (D = 2, dense)."""
    net = net_init("dense", 2, 2, 2, RngStream(180))
    return list(zip(net.feat.weights + net.param.weights, net.feat.biases + net.param.biases))


class TestRowStability:
    @pytest.mark.parametrize("layer", range(8))
    def test_row_same_alone_and_at_every_block_position(self, layer):
        W, b = _default_layers()[layer]
        one = MlpWeights([W], [b])
        gen = RngStream(181 + layer).generator()
        row = gen.standard_normal(W.shape[1])
        # layers 0-3 are the feature MLP's, 4-7 the parameter MLP's
        block = amortize.FEAT_BLOCK_ROWS if layer < 4 else amortize.PARAM_BLOCK_ROWS
        alone = mlp_forward(one, row[None, :], block)[0][0]
        n = 2 * block + 3  # two whole blocks and a partial one
        for p in range(block):
            H = gen.standard_normal((n, W.shape[1]))
            at = (p, block + p, 2 * block + p % 3)
            H[list(at)] = row
            out = mlp_forward(one, H, block)[0]
            for j in at:
                assert np.array_equal(out[j], alone), (W.shape, j)


def test_bitwise_batch_properties_under_two_blas_threads():
    """The bitwise row properties also hold when OpenBLAS splits a product
    over two threads. OpenBLAS fixes its thread count when it loads, so the
    tests run again in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ids = [f"{__file__}::{name}" for name in
           ("TestBatchedNet", "TestRowStability",
            "TestNetForward::test_permutation_invariance_bitwise",
            "TestNetForward::test_duplication_invariance")]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout


class TestNetInit:
    def test_hidden_std_matches_fan_in_rule(self):
        arch = AmortArch(feat_widths=(64, 64, 64, 128), param_widths=(256, 256, 256))
        net = net_init("diag", 2, 2, 63, RngStream(88), arch)
        # fan_in = 64 for the second feat layer; 10^4 samples via repeated init
        draws = np.concatenate([net.feat.weights[1].ravel(),
                                net.feat.weights[2].ravel()])
        assert draws.size >= 8192
        target = np.sqrt(1.0 / 64)
        assert abs(draws.std() - target) / target < 0.10
        assert np.abs(draws).max() <= 2.0 * target / 0.87962566103423978 + 1e-12

    def test_final_layer_small_and_biases_zero(self):
        net = net_init("dense", 2, 2, 2, RngStream(89))
        assert np.abs(net.param.weights[-1]).max() < 0.01
        assert all(np.all(b == 0) for b in net.feat.biases + net.param.biases)

    def test_near_standard_normal_output_at_init(self):
        net = net_init("dense", 2, 2, 2, RngStream(90))
        gen = RngStream(91).generator()
        for _ in range(10):
            raw, _ = _row(net, gen.standard_normal((8, 2)), gen.standard_normal(8))
            assert np.max(np.abs(raw)) < 0.05

    def test_same_seed_identical(self):
        n1 = net_init("dense", 2, 2, 3, RngStream(92))
        n2 = net_init("dense", 2, 2, 3, RngStream(92))
        assert np.array_equal(tree_flatten(net_to_tree(n1)), tree_flatten(net_to_tree(n2)))

    def test_default_architecture_widths(self):
        net = net_init("diag", 3, 3, 9, RngStream(93))
        assert [w.shape[0] for w in net.feat.weights] == [64, 64, 64, 128]
        assert [w.shape[0] for w in net.param.weights] == [256, 256, 256,
                                                           local_param_size("diag", 3, 3)]
        assert net.param.weights[0].shape[1] == 2 * 128  # embedding concat its square


class TestPacking:
    def test_param_count(self):
        net = net_init("dense", 1, 1, 1, RngStream(95), TINY)
        n_by_hand = sum(w.size + b.size for w, b in
                        zip(net.feat.weights + net.param.weights,
                            net.feat.biases + net.param.biases))
        assert net_param_count(net) == n_by_hand
