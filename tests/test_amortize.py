import numpy as np
import pytest

from branchvi.amortize import (
    AmortArch,
    MlpWeights,
    mlp_backward,
    mlp_forward,
    net_backward,
    net_forward,
    net_init,
    net_param_count,
    net_to_tree,
)
from branchvi.data import BranchData
from branchvi.errors import InvalidDataError, MalformedParamsError
from branchvi.families import local_param_size, pack_local_grad, unpack_local
from branchvi.rng import RngStream
from branchvi.trees import tree_flatten

TINY = AmortArch(feat_widths=(3, 3), param_widths=(4, 4), slope=0.01)


def _branch(seed, n=5, x_dim=2):
    gen = RngStream(seed).generator()
    return BranchData(gen.standard_normal((n, x_dim)), gen.standard_normal(n))


class TestNetForward:
    def test_permutation_invariance_bitwise(self):
        net = net_init("dense", 2, 2, 2, RngStream(70), TINY)
        b = _branch(71, n=7)
        w0, _ = net_forward(net, b)
        gen = RngStream(72).generator()
        for _ in range(5):
            perm = gen.permutation(7)
            w1, _ = net_forward(net, BranchData(b.x[perm], b.y[perm]))
            assert np.array_equal(w0.mu, w1.mu)
            assert np.array_equal(w0.A, w1.A)
            assert np.array_equal(w0.chol.raw, w1.chol.raw)

    def test_duplication_invariance(self):
        net = net_init("block", 1, 2, 2, RngStream(73), TINY)
        b = _branch(74, n=1)
        dup = BranchData(np.vstack([b.x, b.x]), np.concatenate([b.y, b.y]))
        w1, _ = net_forward(net, b)
        w2, _ = net_forward(net, dup)
        assert np.array_equal(w1.mu, w2.mu)
        assert np.array_equal(w1.chol.raw, w2.chol.raw)

    def test_zero_weights_emit_standard_normal(self):
        out_dim = local_param_size("dense", 2, 2)
        feat = MlpWeights([np.zeros((3, 3)), np.zeros((4, 3))],
                          [np.zeros(3), np.zeros(4)])
        param = MlpWeights([np.zeros((4, 8)), np.zeros((out_dim, 4))],
                           [np.zeros(4), np.zeros(out_dim)])
        from branchvi.amortize import AmortNet

        net = AmortNet(feat, param, "dense", 2, 2, 2)
        w, _ = net_forward(net, _branch(75))
        assert np.all(w.mu == 0) and np.all(w.A == 0) and np.all(w.chol.raw == 0)
        from branchvi.gaussmath import tril_map

        assert np.allclose(tril_map(w.chol), np.eye(2))

    def test_empty_branch_rejected(self):
        net = net_init("diag", 1, 1, 1, RngStream(76), TINY)
        with pytest.raises(InvalidDataError):
            net_forward(net, BranchData(np.zeros((0, 1)), np.zeros(0)))

    def test_branches_processed_independently(self):
        net = net_init("diag", 1, 2, 2, RngStream(77), TINY)
        b1, b2 = _branch(78, n=3), _branch(79, n=6)
        w_alone, _ = net_forward(net, b1)
        net_forward(net, b2)  # interleaved work must not affect b1's output
        w_again, _ = net_forward(net, b1)
        assert np.array_equal(w_alone.mu, w_again.mu)


class TestNetBackward:
    def test_matches_central_differences(self):
        net = net_init("dense", 1, 1, 1, RngStream(80), TINY)
        b = _branch(81, n=2, x_dim=1)
        upstream = RngStream(82).normal(local_param_size("dense", 1, 1))

        def value(n):
            w, _ = net_forward(n, b)
            raw = pack_local_grad(w.mu, w.A, w.chol.raw)
            return float(upstream @ raw)

        _, tape = net_forward(net, b)
        grads = net_backward(net, tape, upstream)
        tree = net_to_tree(net)
        h = 1e-6
        from branchvi.amortize import net_from_tree

        for key in tree:
            flat_idx = np.unravel_index(range(tree[key].size), tree[key].shape)
            for j in range(tree[key].size):
                tp = {k: v.copy() for k, v in tree.items()}
                tm = {k: v.copy() for k, v in tree.items()}
                tp[key].flat[j] += h
                tm[key].flat[j] -= h
                fd = (value(net_from_tree(net, tp)) - value(net_from_tree(net, tm))) / (2 * h)
                assert grads[key].flat[j] == pytest.approx(fd, rel=1e-4, abs=1e-7), key

    def test_zero_upstream_gives_zero_grads(self):
        net = net_init("dense", 1, 1, 1, RngStream(83), TINY)
        _, tape = net_forward(net, _branch(84, n=3, x_dim=1))
        grads = net_backward(net, tape, np.zeros(local_param_size("dense", 1, 1)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_duplicated_observation_gradient_matches_single(self):
        net = net_init("block", 1, 1, 1, RngStream(85), TINY)
        b = _branch(86, n=1, x_dim=1)
        dup = BranchData(np.vstack([b.x, b.x]), np.concatenate([b.y, b.y]))
        upstream = RngStream(87).normal(local_param_size("block", 1, 1))
        _, tape1 = net_forward(net, b)
        _, tape2 = net_forward(net, dup)
        g1 = net_backward(net, tape1, upstream)
        g2 = net_backward(net, tape2, upstream)
        for key in g1:
            assert np.allclose(g1[key], g2[key], atol=1e-12), key

    def test_mlp_shapes_validated(self):
        with pytest.raises(MalformedParamsError):
            MlpWeights([np.zeros((3, 2)), np.zeros((4, 5))], [np.zeros(3), np.zeros(4)])


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
            b = BranchData(gen.standard_normal((8, 2)), gen.standard_normal(8))
            w, _ = net_forward(net, b)
            raw = pack_local_grad(w.mu, w.A, w.chol.raw)
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
    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_unpack_pack_roundtrip(self, structure):
        D, dz = 3, 2
        size = local_param_size(structure, D, dz)
        raw = RngStream(94).normal(size)
        w = unpack_local(raw, structure, D, dz)
        parts = [w.mu]
        if w.A is not None:
            parts.append(w.A.ravel())
        parts.append(w.chol.raw if w.chol is not None else w.scale_raw)
        assert np.array_equal(np.concatenate(parts), raw)

    def test_param_count(self):
        net = net_init("dense", 1, 1, 1, RngStream(95), TINY)
        n_by_hand = sum(w.size + b.size for w, b in
                        zip(net.feat.weights + net.param.weights,
                            net.feat.biases + net.param.biases))
        assert net_param_count(net) == n_by_hand
