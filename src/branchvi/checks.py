"""Fast self-diagnostic suite behind the ``check`` subcommand.

Each check prints one PASS/FAIL line with its time; the suite is meant to
finish in well under a minute and to catch corrupted math (a flipped gamma,
a broken gradient) rather than to re-run the full test suite.
"""

from __future__ import annotations

import time

import numpy as np

from . import amortize, gaussmath
from .amortize import AmortArch, MlpWeights, init_amortized, mlp_forward, net_forward_batch
from .data import from_branches
from .estimators import MinibatchSampler, branch_elbo, joint_elbo, subsampled_branch_elbo
from .families import init_branch, init_joint
from .models import SyntheticConfig, synthetic_forward_sample, synthetic_model
from .optim import LrSchedule, lr_at
from .rng import RngStream
from .training import params_to_tree
from .trees import tree_flatten, tree_rebind, tree_views


def _check_diag_transform():
    gen = RngStream(101).generator()
    x = gen.uniform(-50, 50, size=2000)
    for gamma in (0.5, 1.0, 2.0):
        y = gaussmath.diag_transform(x, gamma)
        if not np.all(y > 0):
            return False
        if not np.allclose(y * gaussmath.diag_transform(-x, gamma), gamma,
                           rtol=1e-9, atol=1e-12):
            return False
    xs = np.sort(x)
    return bool(np.all(np.diff(gaussmath.diag_transform(xs, 1.0)) > 0))


def _check_diag_transform_grad():
    xs = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    h = 1e-6
    fd = (gaussmath.diag_transform(xs + h, 1.0) - gaussmath.diag_transform(xs - h, 1.0)) / (2 * h)
    return bool(np.allclose(fd, gaussmath.diag_transform_grad(xs, 1.0), rtol=1e-5))


def _check_tril_roundtrip():
    gen = RngStream(102).generator()
    for d in (1, 3, 5):
        raw = gen.standard_normal(d * (d + 1) // 2)
        u = gaussmath.UnconstrainedChol(raw, d)
        L = gaussmath.tril_map(u)
        if np.any(np.diag(L) <= 0):
            return False
        back = gaussmath.tril_unmap(L, 1.0)
        if not np.allclose(back.raw, raw, atol=1e-12):
            return False
    return True


def _check_sample_density_consistency():
    gen = RngStream(103).generator()
    d = 4
    spec = gaussmath.GaussianSpec(
        gen.standard_normal(d),
        gaussmath.UnconstrainedChol(gen.standard_normal(d * (d + 1) // 2), d))
    X, logqs, _ = gaussmath.mvn_draw_batch(spec, RngStream(103).normal((50, d)))
    return all(abs(lq - gaussmath.mvn_logpdf(spec, x)) <= 1e-10 for x, lq in zip(X, logqs))


def _small_problem():
    cfg = SyntheticConfig(2, 4, (3, 3, 3, 3))
    data, _ = synthetic_forward_sample(cfg, RngStream(104))
    model = synthetic_model(2)
    return model, data


def _gradient_matches_differences(params, estimate):
    """Central differences of ``estimate(params, want_grad)`` on 12 random
    coordinates of perturbed ``params`` (views into one flat vector, moved
    an entry at a time) against its gradient, to 1e-3."""
    tree = params_to_tree(params)
    flat = tree_flatten(tree)
    flat += RngStream(105).generator().standard_normal(flat.size) * 0.2
    params = tree_rebind(params, tree, tree_views({k: a.shape for k, a in tree.items()}, flat))
    _, grads = estimate(params, True)
    gflat = np.concatenate([grads[k].ravel() for k in tree])
    h = 1e-5
    gen = RngStream(107).generator()
    for j in gen.choice(flat.size, size=min(12, flat.size), replace=False):
        x = flat[j]
        flat[j] = x + h
        vp, _ = estimate(params, False)
        flat[j] = x - h
        vm, _ = estimate(params, False)
        flat[j] = x
        fd = (vp.value - vm.value) / (2 * h)
        if abs(fd - gflat[j]) / max(abs(fd), 1e-6) > 1e-3:
            return False
    return True


def _check_branch_gradient():
    model, data = _small_problem()
    return _gradient_matches_differences(
        init_branch("dense", 2, 2, 4),
        lambda p, g: branch_elbo(model, p, data, RngStream(106), n_mc=2, want_grad=g))


def _check_joint_gradients():
    model, data = _small_problem()
    return all(_gradient_matches_differences(
        init_joint(structure, 2, 2, 4),
        lambda p, g: joint_elbo(model, p, data, RngStream(106), n_mc=2, want_grad=g))
        for structure in ("dense", "block"))


def _check_full_batch_bitwise():
    model, data = _small_problem()
    params = init_branch("dense", 2, 2, 4)
    e1, g1 = branch_elbo(model, params, data, RngStream(108), n_mc=3)
    e2, g2 = subsampled_branch_elbo(model, params, data, MinibatchSampler(4, 4),
                                    RngStream(108), n_mc=3)
    return e1.value == e2.value and all(np.array_equal(g1[k], g2[k]) for k in g1)


def _check_subsampling_unbiased():
    model, data = _small_problem()
    params = init_branch("dense", 2, 2, 4)
    sampler = MinibatchSampler(4, 2)
    full = np.array([branch_elbo(model, params, data, RngStream(109, k), n_mc=1,
                                 want_grad=False)[0].value for k in range(1500)])
    sub = np.array([subsampled_branch_elbo(model, params, data, sampler,
                                           RngStream(110, k), n_mc=1,
                                           want_grad=False)[0].value for k in range(1500)])
    se = np.sqrt(full.var() / full.size + sub.var() / sub.size)
    return abs(full.mean() - sub.mean()) < 4.0 * se


def _check_net_invariance():
    """Exact order invariance of one branch's local row, the row bitwise the
    same alone and inside a batch, and every default-architecture layer's
    output row the same alone and at each position of its MLP's GEMM
    block."""
    ap = init_amortized("dense", 2, 2, 2, RngStream(111), AmortArch((4, 4), (5, 5)))
    gen = RngStream(112).generator()
    x, y = gen.standard_normal((6, 2)), gen.standard_normal(6)
    perm = gen.permutation(6)
    other = (gen.standard_normal((3, 2)), gen.standard_normal(3))
    data = from_branches([other, (x, y), (x[perm], y[perm])], 2)
    in_batch = net_forward_batch(ap.net, data, [0, 1, 2])[0]
    alone = net_forward_batch(ap.net, data.batch([1]), [1])[0][0]
    permuted = net_forward_batch(ap.net, data.batch([2]), [2])[0][0]
    if not (np.array_equal(in_batch[1], alone) and np.array_equal(in_batch[2], alone)
            and np.array_equal(permuted, alone)):
        return False
    net = init_amortized("dense", 2, 2, 2, RngStream(113)).net
    for mlp, block in ((net.feat, amortize.FEAT_BLOCK_ROWS),
                       (net.param, amortize.PARAM_BLOCK_ROWS)):
        for W, bias in zip(mlp.weights, mlp.biases):
            layer = MlpWeights([W], [bias])
            row = gen.standard_normal(W.shape[1])
            H = gen.standard_normal((block, W.shape[1]))
            want = mlp_forward(layer, row[None, :], block)[0][0]
            for p in range(block):
                H[p] = row
                if not np.array_equal(mlp_forward(layer, H, block)[0][p], want):
                    return False
                H[p] = gen.standard_normal(W.shape[1])
    return True


def _check_schedule():
    sched = LrSchedule(1e-3, 50_000, 0.1, 3)
    return (lr_at(sched, 0) == 1e-3 and abs(lr_at(sched, 50_000) - 1e-4) < 1e-18
            and abs(lr_at(sched, 150_000) - 1e-6) < 1e-20)


CHECKS = [
    ("diag-transform identities", _check_diag_transform),
    ("diag-transform gradient", _check_diag_transform_grad),
    ("tril round-trip", _check_tril_roundtrip),
    ("sample/density consistency", _check_sample_density_consistency),
    ("branch estimator gradient", _check_branch_gradient),
    ("joint estimator gradient (dense, block)", _check_joint_gradients),
    ("full-batch bitwise equality", _check_full_batch_bitwise),
    ("subsampling unbiasedness", _check_subsampling_unbiased),
    ("net permutation invariance", _check_net_invariance),
    ("step-drop schedule", _check_schedule),
]


def run_checks(out=print) -> int:
    """Run the suite, one ``PASS|FAIL name (t ms)`` line per check; returns
    the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, note = fn(), ""
        except Exception as exc:  # a crash is a failure with context
            ok, note = False, f" (exception: {exc})"
        ms = (time.perf_counter() - t0) * 1e3
        out(f"{'PASS' if ok else 'FAIL'} {name} ({ms:.1f} ms){note}")
        failures += not ok
    return failures
