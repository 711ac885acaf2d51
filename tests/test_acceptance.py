"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
while they execute. Tolerances are pinned here; training settings were
calibrated once and are fixed (documented inline).
"""

import time

import numpy as np

from branchvi.amortize import (
    AmortArch,
    init_amortized,
    net_backward_batch,
    net_forward_batch,
    net_param_count,
    net_to_tree,
)
from branchvi.data import RatingsTable, from_branches, preprocess, split
from branchvi.estimators import (
    MinibatchSampler,
    amortized_elbo,
    branch_elbo,
    joint_elbo,
    subsampled_branch_elbo,
)
from branchvi.families import (
    BranchParams,
    JointFamily,
    factor_draw_batch,
    factor_grad,
    family_param_count,
    init_branch,
    init_joint,
    joint_to_branch,
)
from branchvi.gaussmath import (
    GaussianSpec,
    UnconstrainedChol,
    diag_transform,
    diag_transform_grad,
    mvn_logpdf,
    tril_map,
    tril_map_backward,
    tril_size,
    tril_unmap,
)
from branchvi.metrics import evaluate
from branchvi.models import (
    SyntheticConfig,
    preference_model,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from branchvi.optim import LrSchedule
from branchvi.rng import RngStream
from branchvi.training import train
from branchvi.trees import tree_flatten
from helpers import central_differences, flat_grads, perturb


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _mc_elbo(estimate_fn, reps, stream):
    vals = np.array([estimate_fn(RngStream(stream, k)) for k in range(reps)])
    return vals.mean(), vals.std() / np.sqrt(reps)


def test_criterion_1_oracle_exactness():
    # Dense branch training must recover the exact log-marginal: the family
    # contains the posterior, so the converged EMA pins the oracle value.
    t0 = time.perf_counter()
    D, N, n_i = 3, 10, 20
    cfg = SyntheticConfig(D, N, (n_i,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(2026))
    model = synthetic_model(D)
    oracle = synthetic_oracle(data)
    sched = LrSchedule(base=1e-2, drop_every=15_000, drop_factor=0.1, max_drops=2)
    res = train(model, init_branch("dense", D, D, N), data, kind="branch",
                schedule=sched, iters=50_000, rng=RngStream(1), n_mc=10,
                trace_every=10_000)
    gap = abs(res.ema - oracle.log_marginal)
    elapsed = time.perf_counter() - t0
    _report(1, "oracle exactness", gap < 0.05 and elapsed < 600,
            f"|EMA - logZ| = {gap:.4f} nats (tol 0.05), {elapsed:.0f}s (limit 600)")


def test_criterion_2_kl_ordering():
    t0 = time.perf_counter()
    D, N, n_i = 1, 3, 5
    cfg = SyntheticConfig(D, N, (n_i,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(12))
    model = synthetic_model(D)
    logZ = synthetic_oracle(data).log_marginal
    sched = LrSchedule(base=1e-2, drop_every=6000, drop_factor=0.1, max_drops=2)

    res_joint = train(model, init_joint("dense", D, D, N), data, kind="joint",
                      schedule=sched, iters=15_000, rng=RngStream(31), n_mc=10,
                      trace_every=0)
    res_branch = train(model, init_branch("dense", D, D, N), data, kind="branch",
                       schedule=sched, iters=15_000, rng=RngStream(32), n_mc=10,
                       trace_every=0)
    res_diag = train(model, init_branch("diag", D, D, N), data, kind="branch",
                     schedule=sched, iters=15_000, rng=RngStream(33), n_mc=10,
                     trace_every=0)

    ej, _ = _mc_elbo(lambda r: joint_elbo(model, res_joint.params, data, r, n_mc=1,
                                          want_grad=False)[0].value, 4000, 41)
    eb, _ = _mc_elbo(lambda r: branch_elbo(model, res_branch.params, data, r, n_mc=1,
                                           want_grad=False)[0].value, 4000, 42)
    ed, _ = _mc_elbo(lambda r: branch_elbo(model, res_diag.params, data, r, n_mc=1,
                                           want_grad=False)[0].value, 4000, 43)
    kl_joint, kl_branch, kl_diag = logZ - ej, logZ - eb, logZ - ed
    elapsed = time.perf_counter() - t0
    ok = (kl_branch <= kl_joint + 0.02) and (kl_diag >= kl_branch - 0.02) \
        and elapsed < 600
    _report(2, "branch/joint KL ordering", ok,
            f"KL joint {kl_joint:.4f}, branch {kl_branch:.4f}, diag {kl_diag:.4f}; "
            f"{elapsed:.0f}s (limit 600)")


def test_criterion_3_conversion_equivalence():
    t0 = time.perf_counter()
    D, dz, N = 2, 2, 3
    P = D + N * dz
    gen = RngStream(600).generator()
    L = np.tril(gen.standard_normal((P, P)) * 0.5)
    L[np.arange(P), np.arange(P)] = np.abs(np.diag(L)) + 0.6
    for i in range(N):
        for j in range(N):
            if i != j:
                L[D + i * dz:D + (i + 1) * dz, D + j * dz:D + (j + 1) * dz] = 0.0
    fam = JointFamily("dense", D, dz, N,
                      spec=GaussianSpec(gen.standard_normal(P), tril_unmap(np.tril(L))))
    bp = joint_to_branch(fam)

    cov = fam.spec.cov()
    theta_mean_err = float(np.max(np.abs(bp.v.mean - fam.spec.mean[:D])))
    theta_cov_err = float(np.max(np.abs(bp.v.cov() - cov[:D, :D])))

    worst = 0.0
    for _ in range(100):
        x = fam.spec.mean + gen.standard_normal(P) * 1.3
        theta = x[:D]
        lq = mvn_logpdf(bp.v, theta)
        for i in range(bp.n_branches):
            z = x[D + i * dz:D + (i + 1) * dz]
            chol = UnconstrainedChol(bp.raw[i], dz, bp.gamma)
            lq += mvn_logpdf(GaussianSpec(bp.mu[i] + bp.A[i] @ theta, chol), z)
        worst = max(worst, abs(lq - mvn_logpdf(fam.spec, x)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and theta_mean_err < 1e-12 and theta_cov_err < 1e-12
    _report(3, "joint-to-branch equivalence", ok,
            f"max |logq delta| {worst:.2e} (tol 1e-9), theta-marginal err "
            f"{max(theta_mean_err, theta_cov_err):.2e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_4_subsampling_unbiasedness():
    t0 = time.perf_counter()
    D, N, n_i = 1, 10, 3
    cfg = SyntheticConfig(D, N, (n_i,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(700))
    model = synthetic_model(D)
    params = perturb(init_branch("dense", D, D, N), 701, 0.3)
    sampler = MinibatchSampler(N, 3)
    R = 20_000
    full = np.array([branch_elbo(model, params, data, RngStream(702, k), n_mc=1,
                                 want_grad=False)[0].value for k in range(R)])
    sub = np.array([subsampled_branch_elbo(model, params, data, sampler,
                                           RngStream(703, k), n_mc=1,
                                           want_grad=False)[0].value
                    for k in range(R)])
    se = np.sqrt(full.var() / R + sub.var() / R)
    mean_gap = abs(full.mean() - sub.mean())

    e1, g1 = branch_elbo(model, params, data, RngStream(704), n_mc=4)
    e2, g2 = subsampled_branch_elbo(model, params, data, MinibatchSampler(N, N),
                                    RngStream(704), n_mc=4)
    bitwise = e1.value == e2.value and np.array_equal(flat_grads(g1), flat_grads(g2))
    elapsed = time.perf_counter() - t0
    ok = mean_gap < 3 * se and bitwise and elapsed < 300
    _report(4, "subsampled estimator unbiasedness", ok,
            f"mean gap {mean_gap:.4f} vs 3se {3 * se:.4f}; full-batch bitwise "
            f"{'ok' if bitwise else 'BROKEN'}; {elapsed:.0f}s (limit 300)")


def test_criterion_5_amortization_adequacy():
    # Amortized dense must come within 2% (of |logZ|) of the trained branch
    # family's gap to the oracle, with an N-independent parameter count.
    t0 = time.perf_counter()
    D, N, n_i = 2, 200, 10
    cfg = SyntheticConfig(D, N, (n_i,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(7))
    model = synthetic_model(D)
    logZ = synthetic_oracle(data).log_marginal

    sched_b = LrSchedule(base=1e-2, drop_every=4000, drop_factor=0.1, max_drops=1)
    res_b = train(model, init_branch("dense", D, D, N), data, kind="branch",
                  schedule=sched_b, iters=6000, rng=RngStream(1), batch_size=50,
                  n_mc=5, trace_every=0)
    ap = init_amortized("dense", D, D, D, RngStream(2))
    sched_a = LrSchedule(base=3e-3, drop_every=4000, drop_factor=0.1, max_drops=1)
    res_a = train(model, ap, data, kind="amortized", schedule=sched_a, iters=6000,
                  rng=RngStream(1), batch_size=25, n_mc=5, trace_every=0)

    gap_branch = logZ - res_b.ema
    gap_amort = logZ - res_a.ema
    bar = gap_branch + 0.02 * abs(logZ)

    net_count = net_param_count(ap.net)
    amort_counts = {family_param_count("amortized", "dense", n, D, D, net_count)
                    for n in (10, 200, 5000)}
    branch_counts = [family_param_count("branch", "dense", n, D, D)
                     for n in (10, 200, 5000)]
    slopes = np.diff(branch_counts) / np.diff([10, 200, 5000])
    counts_ok = len(amort_counts) == 1 and np.all(slopes == slopes[0]) and slopes[0] > 0

    elapsed = time.perf_counter() - t0
    ok = gap_amort <= bar and counts_ok and elapsed < 1800
    _report(5, "amortization adequacy", ok,
            f"gap amortized {gap_amort:.1f} vs bar {bar:.1f} nats "
            f"(branch gap {gap_branch:.1f}, 2% of |logZ| = {0.02 * abs(logZ):.1f}); "
            f"params amortized {amort_counts} constant, branch slope {slopes[0]:.0f}/branch; "
            f"{elapsed:.0f}s (limit 1800)")


def test_criterion_6_gradient_integrity():
    t0 = time.perf_counter()
    failures = []

    # diag transform (non-stochastic, 1e-4)
    h = 1e-5
    for x in (-7.0, -1.0, 0.0, 0.5, 4.0):
        fd = (diag_transform(x + h) - diag_transform(x - h)) / (2 * h)
        if abs(fd - diag_transform_grad(x)) / max(abs(fd), 1e-9) > 1e-4:
            failures.append(f"psi'({x})")

    # tril map pullback (1e-4)
    gen = RngStream(800).generator()
    u = UnconstrainedChol(gen.standard_normal(tril_size(3)), 3)
    G = np.tril(gen.standard_normal((3, 3)))
    graw = tril_map_backward(u, G)
    for j in range(u.raw.size):
        up = u.raw.copy(); up[j] += h
        um = u.raw.copy(); um[j] -= h
        fd = float(np.sum(G * (tril_map(UnconstrainedChol(up, 3))
                               - tril_map(UnconstrainedChol(um, 3))))) / (2 * h)
        if abs(fd - graw[j]) / max(abs(fd), 1e-9) > 1e-4:
            failures.append(f"tril[{j}]")

    # Gaussian sampling path: d/dparams <u, x(eps)> - logq  (1e-4)
    d = 3
    spec = GaussianSpec(gen.standard_normal(d),
                        UnconstrainedChol(gen.standard_normal(tril_size(d)), d))
    eps = gen.standard_normal(d)
    uvec = gen.standard_normal(d)

    def path_value(mean, raw):
        s = GaussianSpec(mean, UnconstrainedChol(raw, d))
        X, logqs, _ = factor_draw_batch(s, eps[None])
        return float(uvec @ X[0]) - logqs[0]

    _, _, aux = factor_draw_batch(spec, eps[None])
    g = factor_grad(spec, aux, eps[None], uvec[None], 1)
    g_mean, g_raw = g.mean, g.chol.raw
    for j in range(d):
        mp, mm = spec.mean.copy(), spec.mean.copy()
        mp[j] += h; mm[j] -= h
        fd = (path_value(mp, spec.chol.raw) - path_value(mm, spec.chol.raw)) / (2 * h)
        if abs(fd - g_mean[j]) / max(abs(fd), 1e-9) > 1e-4:
            failures.append(f"gauss-mean[{j}]")
    for j in range(spec.chol.raw.size):
        rp, rm = spec.chol.raw.copy(), spec.chol.raw.copy()
        rp[j] += h; rm[j] -= h
        fd = (path_value(spec.mean, rp) - path_value(spec.mean, rm)) / (2 * h)
        if abs(fd - g_raw[j]) / max(abs(fd), 1e-9) > 1e-4:
            failures.append(f"gauss-raw[{j}]")

    # MLP forward/backward (1e-4)
    ap = init_amortized("dense", 1, 1, 1, RngStream(801), AmortArch((3, 3), (4, 4)))
    b = from_branches([(gen.standard_normal((2, 1)), gen.standard_normal(2))], 1)
    upstream = gen.standard_normal(1 + 1 + 1)
    _, tape = net_forward_batch(ap.net, b, [0])
    net_grads = net_backward_batch(ap.net, tape, upstream[None, :])
    tree = net_to_tree(ap.net)
    fds = central_differences(
        ap.net, lambda n: float(upstream @ net_forward_batch(n, b, [0])[0][0]), h, tree)
    for j, (fd, g) in enumerate(zip(fds, tree_flatten(net_to_tree(net_grads)))):
        if abs(fd - g) / max(abs(fd), 1e-7) > 1e-4:
            failures.append(f"net[{j}]")

    # all four estimators end to end with common random numbers (1e-3)
    cfg = SyntheticConfig(1, 2, (2, 2))
    data, _ = synthetic_forward_sample(cfg, RngStream(802))
    model = synthetic_model(1)

    def check_estimator(label, params, run):
        est, grads = run(params, want_grad=True)
        if isinstance(grads, BranchParams):  # W holds the gradient rows of W[est.batch]
            G = np.zeros_like(params.W)
            G[est.batch] = grads.W
            grads.W = G
        fds = central_differences(params, lambda p: run(p, want_grad=False)[0].value, h)
        for j, (fd, g) in enumerate(zip(fds, flat_grads(grads))):
            if abs(fd - g) / max(abs(fd), 1e-6) > 1e-3:
                failures.append(f"{label}[{j}]")

    bp = perturb(init_branch("dense", 1, 1, 2), 803, 0.3)
    check_estimator("branch", bp,
                    lambda p, want_grad: branch_elbo(model, p, data, RngStream(804),
                                                     n_mc=3, want_grad=want_grad))
    sampler = MinibatchSampler(2, 1)
    check_estimator("subsampled", bp,
                    lambda p, want_grad: subsampled_branch_elbo(
                        model, p, data, sampler, RngStream(805), n_mc=3,
                        want_grad=want_grad))
    jf = perturb(init_joint("dense", 1, 1, 2), 806, 0.3)
    check_estimator("joint", jf,
                    lambda p, want_grad: joint_elbo(model, p, data, RngStream(807),
                                                    n_mc=3, want_grad=want_grad))
    ap2 = perturb(init_amortized("dense", 1, 1, 1, RngStream(808),
                                 AmortArch((3, 3), (4, 4))), 809, 0.2)
    check_estimator("amortized", ap2,
                    lambda p, want_grad: amortized_elbo(
                        model, p.v, p.net, data, MinibatchSampler(2, 2),
                        RngStream(810), n_mc=2, want_grad=want_grad))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    _report(6, "gradient integrity", ok,
            f"{len(failures)} mismatches {failures[:5]}; {elapsed:.0f}s (limit 120)")


def test_criterion_7_permutation_size_invariance():
    t0 = time.perf_counter()
    gen = RngStream(900).generator()
    ap = init_amortized("dense", 2, 2, 2, RngStream(901), AmortArch((4, 4), (5, 5)))
    x, y = gen.standard_normal((9, 2)), gen.standard_normal(9)

    def net_row(x, y):  # the packed locals the net emits for one branch
        return net_forward_batch(ap.net, from_branches([(x, y)], 2), [0])[0][0]

    w0 = net_row(x, y)
    perms = [gen.permutation(9) for _ in range(10)]
    perm_ok = all(np.array_equal(net_row(x[p], y[p]), w0) for p in perms)
    dup_ok = np.array_equal(net_row(x[:1], y[:1]),
                            net_row(np.vstack([x[:1]] * 2), np.repeat(y[:1], 2)))

    model = preference_model(3)
    x, y = gen.standard_normal((15, 3)), (gen.random(15) < 0.5).astype(float)
    theta = gen.standard_normal(model.global_dim)
    z = gen.standard_normal(3)

    def pref_value(x, y):  # log p(z, y | theta, x) of one branch
        return model.log_branch_vals(theta[None], z[None, None],
                                     from_branches([(x, y)], 3))[0, 0]

    base = pref_value(x, y)
    pref_ok = all(pref_value(x[p], y[p]) == base
                  for p in (gen.permutation(15) for _ in range(10)))
    elapsed = time.perf_counter() - t0
    ok = perm_ok and dup_ok and pref_ok
    _report(7, "permutation/size invariance", ok,
            f"net permutation {'exact' if perm_ok else 'BROKEN'}, duplication "
            f"{'exact' if dup_ok else 'BROKEN'}, preference log-density "
            f"{'exact' if pref_ok else 'BROKEN'}; {elapsed:.1f}s")


def test_criterion_8_metrics_identities():
    t0 = time.perf_counter()
    cfg = SyntheticConfig(1, 2, (4, 4))
    data, _ = synthetic_forward_sample(cfg, RngStream(1000))
    parts = split(data, 0.25, RngStream(1001))
    model = synthetic_model(1)
    params = perturb(init_branch("dense", 1, 1, 2), 1002, 0.4)

    rep1 = evaluate(model, params, parts, k=1, rng=RngStream(1003))
    k1_ok = rep1.train_ll == rep1.train_elbo

    reps = 200
    diffs = np.empty(reps)
    for r in range(reps):
        rep = evaluate(model, params, parts, k=100, rng=RngStream(1004, r))
        diffs[r] = rep.train_ll - rep.train_elbo
    se = diffs.std() / np.sqrt(reps)
    jensen_ok = diffs.mean() >= -3 * se

    pref = preference_model(1)
    gen = RngStream(1005).generator()
    from branchvi.data import SplitDataset

    train_ds = from_branches([(gen.standard_normal((2, 1)), np.array([0.0, 1.0]))
                              for _ in range(2)], 1)
    test_ds = from_branches([(np.zeros((4, 1)), (gen.random(4) < 0.5).astype(float))
                             for _ in range(2)], 1)
    half = evaluate(pref, init_branch("dense", pref.global_dim, 1, 2),
                    SplitDataset(train_ds, test_ds), k=10, rng=RngStream(1006))
    half_ok = half.test_ll == 8 * np.log(0.5)

    elapsed = time.perf_counter() - t0
    ok = k1_ok and jensen_ok and half_ok and elapsed < 120
    _report(8, "metrics identities", ok,
            f"K=1 equality {'exact' if k1_ok else 'BROKEN'}; Jensen mean diff "
            f"{diffs.mean():.4f} >= -3se {-3 * se:.4f}; half-predictor "
            f"{'exact' if half_ok else 'BROKEN'}; {elapsed:.0f}s (limit 120)")


def test_criterion_9_preprocessing_fidelity():
    t0 = time.perf_counter()
    table = RatingsTable(["a", "a", "a", "b", "b", "c"],
                         [f"i{k}" for k in range(6)],
                         np.array([3.0, 3.5, 5.0, 1.0, 4.0, 2.0]),
                         np.arange(12, dtype=float).reshape(6, 2))
    ds = preprocess(table, max_ratings_per_user=1000, threshold=3.0)
    binarize_ok = (ds.counts.tolist() == [3, 2, 1]
                   and ds.y.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0])

    heavy = preprocess(table, max_ratings_per_user=2, threshold=3.0)
    heavy_ok = heavy.n_branches == 2  # user "a" (3 ratings) dropped entirely

    gen = RngStream(1100).generator()
    tenths = from_branches([(gen.standard_normal((10, 2)), gen.standard_normal(10))
                            for _ in range(5)], 2)
    parts = split(tenths, 0.1, RngStream(1101))
    split_ok = (parts.train.counts.tolist() == [9] * 5
                and parts.test.counts.tolist() == [1] * 5)

    elapsed = time.perf_counter() - t0
    ok = binarize_ok and heavy_ok and split_ok
    _report(9, "preprocessing fidelity", ok,
            f"binarization {'ok' if binarize_ok else 'BROKEN'}, heavy-user drop "
            f"{'ok' if heavy_ok else 'BROKEN'}, one-tenth split "
            f"{'ok' if split_ok else 'BROKEN'}; {elapsed:.1f}s")
