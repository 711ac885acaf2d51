import dataclasses

import numpy as np
import pytest

from branchvi.amortize import (
    AmortArch,
    init_amortized,
    net_forward_batch,
)
from branchvi.data import BranchDataset, from_branches
from branchvi.errors import EstimatorError, MalformedParamsError
from branchvi.estimators import (
    _STREAM_GLOBAL,
    DEFAULT_N_MC,
    MinibatchSampler,
    amortized_elbo,
    branch_elbo,
    joint_elbo,
    subsampled_branch_elbo,
)
from branchvi.families import (
    JointFamily,
    assemble_joint,
    init_branch,
    init_joint,
    joint_to_branch,
)
from branchvi.gaussmath import (LOG_2PI, GaussianSpec, UnconstrainedChol, mvn_logpdf,
                               spec_from_moments, tril_map, tril_map_raw, tril_unmap,
                               tril_unmap_raw)
from branchvi.models import (
    SyntheticConfig,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from branchvi.rng import RngStream
from branchvi.training import params_to_tree
from helpers import central_differences, flat_grads, perturb


def _problem(D, N, n, seed):
    cfg = SyntheticConfig(D, N, (n,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(seed))
    return synthetic_model(D), data


def _oracle_matched_branch(data, oracle):
    """The synthetic model's exact posterior as a dense branch family.

    v is the theta posterior; row i holds z_i | theta = N(C_i (b_i + theta), C_i)
    with C_i = (I + X_i'X_i)^{-1} and b_i = X_i'y_i: mu_i = C_i b_i, A_i = C_i.
    """
    D = data.covariate_dim
    G = data.segment_sum(data.xt[:, None, :] * data.xt[None, :, :]).transpose(2, 0, 1)
    b = data.segment_sum(data.xt * data.y).T                      # (N, D)
    C = np.linalg.inv(np.eye(D) + G)
    C = 0.5 * (C + C.transpose(0, 2, 1))
    params = init_branch("dense", D, D, data.n_branches)
    params.v = oracle.posterior_global
    params.mu[:] = np.einsum("nij,nj->ni", C, b)
    params.A[:] = C
    params.raw[:] = tril_unmap_raw(np.linalg.cholesky(C))
    return params


class TestDefaults:
    def test_n_mc_default_is_ten(self):
        assert DEFAULT_N_MC == 10


class TestMinibatchSampler:
    def test_full_batch_consumes_no_rng(self):
        s = MinibatchSampler(5, 5)
        assert np.array_equal(s.sample(RngStream(0)), np.arange(5))

    def test_inclusion_frequencies(self):
        s = MinibatchSampler(10, 3)
        counts = np.zeros(10)
        reps = 10_000
        for k in range(reps):
            counts[s.sample(RngStream(200, k))] += 1
        p = 3 / 10
        sd = np.sqrt(reps * p * (1 - p))
        assert np.all(np.abs(counts - reps * p) < 3 * sd)

    def test_batch_validation(self):
        with pytest.raises(MalformedParamsError):
            MinibatchSampler(4, 5)
        with pytest.raises(MalformedParamsError):
            MinibatchSampler(4, 0)


class TestJointElbo:
    def test_oracle_matched_zero_variance(self):
        model, data = _problem(1, 1, 3, seed=300)
        oracle = synthetic_oracle(data)
        bp = _oracle_matched_branch(data, oracle)
        mean, cov = assemble_joint(bp)
        fam = JointFamily("dense", 1, 1, 1, spec=spec_from_moments(mean, cov))
        vals = np.array([joint_elbo(model, fam, data, RngStream(301, k), n_mc=1,
                                    want_grad=False)[0].value for k in range(1000)])
        assert vals.var() < 1e-20
        assert vals.mean() == pytest.approx(oracle.log_marginal, abs=1e-8)

    def test_elbo_below_log_marginal(self):
        model, data = _problem(1, 2, 3, seed=302)
        oracle = synthetic_oracle(data)
        fam = perturb(init_joint("dense", 1, 1, 2), 303, 0.3)
        vals = np.array([joint_elbo(model, fam, data, RngStream(304, k), n_mc=1,
                                    want_grad=False)[0].value for k in range(10_000)])
        se = vals.std() / np.sqrt(vals.size)
        assert vals.mean() <= oracle.log_marginal + 3 * se

    def test_gradient_matches_finite_differences(self):
        model, data = _problem(1, 2, 2, seed=305)
        for structure in ("dense", "block", "diag"):
            fam = perturb(init_joint(structure, 1, 1, 2), 306, 0.3)
            est, grads = joint_elbo(model, fam, data, RngStream(307), n_mc=3)
            gflat = flat_grads(grads)
            fds = central_differences(fam, lambda f: joint_elbo(
                model, f, data, RngStream(307), n_mc=3, want_grad=False)[0].value, 1e-5)
            for j, fd in enumerate(fds):
                assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-7)

    @pytest.mark.parametrize("structure", ["dense", "block", "diag"])
    def test_value_is_the_copy_mean_of_log_p_minus_log_q(self, structure):
        # log q(x) from the factor densities at x, not from the sampling noise
        D, N, n_mc = 2, 3, 6
        model, data = _problem(D, N, 4, seed=309)
        fam = perturb(init_joint(structure, D, D, N), 310, 0.3)
        est, _ = joint_elbo(model, fam, data, RngStream(311), n_mc=n_mc)
        EPS = RngStream(311).child(_STREAM_GLOBAL).normal((n_mc, fam.total_dim))
        terms = []
        for eps in EPS:
            if structure == "diag":
                sd = fam.diag.scales()
                x = fam.diag.mean + sd * eps
                logq = float(np.sum(-0.5 * ((x - fam.diag.mean) / sd) ** 2 - np.log(sd)
                                    - 0.5 * LOG_2PI))
            else:
                specs = [fam.spec] if structure == "dense" else [fam.theta_spec,
                                                                 fam.locals_spec]
                parts, logq, start = [], 0.0, 0
                for spec in specs:
                    part = spec.mean + tril_map(spec.chol) @ eps[start:start + spec.dim]
                    parts.append(part)
                    logq += mvn_logpdf(spec, part)
                    start += spec.dim
                x = np.concatenate(parts)
            theta, z = x[:D], x[D:].reshape(N, D)
            log_p = (model.log_prior(theta[None])[0]
                     + model.log_branch_vals(theta[None], z[None], data)[0].sum())
            terms.append(log_p - logq)
        assert est.value == pytest.approx(np.mean(terms), rel=0, abs=1e-10)

    def test_branch_count_mismatch(self):
        model, data = _problem(1, 2, 2, seed=308)
        with pytest.raises(MalformedParamsError):
            joint_elbo(model, init_joint("dense", 1, 1, 3), data, RngStream(0))


class TestBranchElbo:
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_oracle_matched_estimate_is_log_marginal(self, D):
        # At the exact posterior, log p(y, theta, z) - log q(theta, z) = log p(y)
        # at every draw; branch 1's rows are dropped, so it has none.
        full, _ = synthetic_forward_sample(
            SyntheticConfig(D, 40, tuple(2 + i % 5 for i in range(40))), RngStream(350 + D))
        keep = np.repeat(np.arange(40) != 1, full.counts)
        counts = full.counts.copy()
        counts[1] = 0
        data = BranchDataset(full.x[keep], full.y[keep], counts)
        model, oracle = synthetic_model(D), synthetic_oracle(data)
        params = _oracle_matched_branch(data, oracle)
        for k in range(50):
            est, _ = branch_elbo(model, params, data, RngStream(354, k), n_mc=1,
                                 want_grad=False)
            assert est.value == pytest.approx(oracle.log_marginal, rel=1e-9, abs=0)

    def test_zero_branches_matches_negative_kl(self):
        # estimate reduces to E[log p(theta) - log q_v(theta)] = -KL(q_v || prior)
        model = synthetic_model(2)
        data = from_branches([], 2)
        params = init_branch("dense", 2, 2, 0)
        params = perturb(params, 310, 0.3)
        L = tril_map(params.v.chol)
        cov = L @ L.T
        mu = params.v.mean
        kl = 0.5 * (np.trace(cov) + mu @ mu - 2 - np.linalg.slogdet(cov)[1])
        vals = np.array([branch_elbo(model, params, data, RngStream(311, k), n_mc=1,
                                     want_grad=False)[0].value for k in range(20_000)])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - (-kl)) < 3 * se

    def test_matches_joint_after_conversion_pointwise(self):
        # fixed noise: branch estimate equals the converted joint's estimate
        model, data = _problem(1, 3, 2, seed=312)
        gen = RngStream(313).generator()
        P = 1 + 3
        L = np.tril(gen.standard_normal((P, P)) * 0.5)
        L[np.arange(P), np.arange(P)] = np.abs(np.diag(L)) + 0.6
        for i in range(3):
            for j in range(3):
                if i != j:
                    L[1 + i, 1 + j] = 0.0
        fam = JointFamily("dense", 1, 1, 3,
                          spec=GaussianSpec(gen.standard_normal(P), tril_unmap(L)))
        bp = joint_to_branch(fam)
        # the single-sample estimate is log p(x) - log q(x); with equal
        # densities at every point the estimates agree pointwise for any
        # shared sample, so checking density equality covers the estimator
        for k in range(100):
            x = fam.spec.mean + gen.standard_normal(P)
            theta = x[:1]
            lq_branch = mvn_logpdf(bp.v, theta)
            for i in range(bp.n_branches):
                spec = GaussianSpec(bp.mu[i] + bp.A[i] @ theta,
                                    UnconstrainedChol(bp.raw[i], 1, bp.gamma))
                lq_branch += mvn_logpdf(spec, x[1 + i:2 + i])
            assert abs(lq_branch - mvn_logpdf(fam.spec, x)) < 1e-9

    def test_matches_joint_after_conversion_in_distribution(self):
        model, data = _problem(1, 2, 2, seed=315)
        gen = RngStream(316).generator()
        P = 3
        L = np.tril(gen.standard_normal((P, P)) * 0.4)
        L[np.arange(P), np.arange(P)] = np.abs(np.diag(L)) + 0.7
        L[1, 2] = L[2, 1] = 0.0
        fam = JointFamily("dense", 1, 1, 2,
                          spec=GaussianSpec(gen.standard_normal(P) * 0.5, tril_unmap(L)))
        bp = joint_to_branch(fam)
        R = 20_000
        vj = np.array([joint_elbo(model, fam, data, RngStream(317, k), n_mc=1,
                                  want_grad=False)[0].value for k in range(R)])
        vb = np.array([branch_elbo(model, bp, data, RngStream(318, k), n_mc=1,
                                   want_grad=False)[0].value for k in range(R)])
        se = np.sqrt(vj.var() / R + vb.var() / R)
        assert abs(vj.mean() - vb.mean()) < 3 * se

    def test_deterministic_under_fixed_stream(self):
        model, data = _problem(2, 3, 4, seed=319)
        params = perturb(init_branch("block", 2, 2, 3), 320, 0.3)
        e1, g1 = branch_elbo(model, params, data, RngStream(321), n_mc=5)
        e2, g2 = branch_elbo(model, params, data, RngStream(321), n_mc=5)
        assert e1.value == e2.value
        t1, t2 = params_to_tree(g1), params_to_tree(g2)
        assert all(np.array_equal(t1[k], t2[k]) for k in t1)

    def test_non_finite_density_raises_with_branch(self):
        model, data = _problem(1, 3, 2, seed=325)
        params = init_branch("dense", 1, 1, 3)
        params.mu[2] = np.nan
        with pytest.raises(EstimatorError) as exc:
            branch_elbo(model, params, data, RngStream(326))
        assert exc.value.branch == 2


class TestSubsampledBranchElbo:
    def test_full_batch_is_bitwise_identical(self):
        model, data = _problem(2, 5, 3, seed=330)
        params = perturb(init_branch("dense", 2, 2, 5), 331, 0.3)
        e1, g1 = branch_elbo(model, params, data, RngStream(332), n_mc=4)
        e2, g2 = subsampled_branch_elbo(model, params, data, MinibatchSampler(5, 5),
                                        RngStream(332), n_mc=4)
        assert e1.value == e2.value
        t1, t2 = params_to_tree(g1), params_to_tree(g2)
        assert list(t1) == list(t2)
        assert all(np.array_equal(t1[k], t2[k]) for k in t1)

    def test_unbiased_against_full_estimate(self):
        model, data = _problem(1, 10, 2, seed=333)
        params = perturb(init_branch("dense", 1, 1, 10), 334, 0.3)
        sampler = MinibatchSampler(10, 3)
        R = 4000
        full = np.array([branch_elbo(model, params, data, RngStream(335, k), n_mc=1,
                                     want_grad=False)[0].value for k in range(R)])
        sub = np.array([subsampled_branch_elbo(model, params, data, sampler,
                                               RngStream(336, k), n_mc=1,
                                               want_grad=False)[0].value
                        for k in range(R)])
        se = np.sqrt(full.var() / R + sub.var() / R)
        assert abs(full.mean() - sub.mean()) < 3 * se

    def test_gradient_matches_finite_differences(self):
        model, data = _problem(1, 4, 2, seed=337)
        params = perturb(init_branch("dense", 1, 1, 4), 338, 0.3)
        sampler = MinibatchSampler(4, 2)
        est, grads = subsampled_branch_elbo(model, params, data, sampler,
                                            RngStream(339), n_mc=3)
        assert grads.W.shape == (2, params.W.shape[1])  # the batch's rows only
        G = np.zeros_like(params.W)
        G[est.batch] = grads.W
        grads.W = G
        gflat = flat_grads(grads)
        fds = central_differences(params, lambda p: subsampled_branch_elbo(
            model, p, data, sampler, RngStream(339), n_mc=3, want_grad=False)[0].value, 1e-5)
        for j, fd in enumerate(fds):
            assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-7)


@pytest.mark.parametrize("want_grad", [True, False])
@pytest.mark.parametrize("kind", ["branch", "joint"])
def test_non_finite_prior_names_the_first_copy(kind, want_grad):
    model, data = _problem(1, 3, 2, seed=327)

    def log_prior_grad(THETA):
        lp, g = model.log_prior_grad(THETA)
        lp[2], lp[3] = np.nan, np.inf
        return lp, g

    bad = dataclasses.replace(model, log_prior_grad=log_prior_grad)
    with pytest.raises(EstimatorError) as exc:
        if kind == "branch":
            branch_elbo(bad, init_branch("dense", 1, 1, 3), data, RngStream(328), n_mc=4,
                        want_grad=want_grad)
        else:
            joint_elbo(bad, init_joint("dense", 1, 1, 3), data, RngStream(328), n_mc=4,
                       want_grad=want_grad)
    assert exc.value.copy == 2 and exc.value.branch is None
    assert "MC copy 2" in str(exc.value)


@pytest.mark.parametrize("structure", ["dense", "block", "diag"])
@pytest.mark.parametrize("kind", ["joint", "branch", "amortized"])
def test_gradient_is_a_container_of_the_parameters_type(kind, structure):
    # a branch gradient's W holds the rows of W[est.batch] only
    model, data = _problem(2, 3, 2, seed=329)
    sampler = MinibatchSampler(3, 2)
    if kind == "joint":
        params = init_joint(structure, 2, 2, 3)
        runs = [(lambda: joint_elbo(model, params, data, RngStream(330), n_mc=2), None)]
    elif kind == "branch":
        params = init_branch(structure, 2, 2, 3)
        runs = [(lambda: branch_elbo(model, params, data, RngStream(330), n_mc=2), 3),
                (lambda: subsampled_branch_elbo(model, params, data, sampler, RngStream(330),
                                                n_mc=2), 2)]
    else:
        params = init_amortized(structure, 2, 2, 2, RngStream(331), AmortArch((3, 3), (4, 4)))
        runs = [(lambda: amortized_elbo(model, params.v, params.net, data, sampler,
                                        RngStream(330), n_mc=2), None)]
    shapes = {k: a.shape for k, a in params_to_tree(params).items()}
    for run, rows in runs:
        est, grads = run()
        assert type(grads) is type(params)
        gtree = params_to_tree(grads)
        assert list(gtree) == list(shapes)
        if rows is not None:
            assert est.batch.size == rows
            shapes["w"] = (rows, shapes["w"][1])
        assert {k: g.shape for k, g in gtree.items()} == shapes


class TestEstimatorUnbiasedness:
    def test_against_gauss_hermite_quadrature(self):
        # D=1, N=1, n=1: ELBO(q) by 2-d Gauss-Hermite vs estimator MC means
        model, data = _problem(1, 1, 1, seed=340)
        params = perturb(init_branch("dense", 1, 1, 1), 341, 0.4)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        norm_w = weights / np.sqrt(2 * np.pi)
        L0 = tril_map(params.v.chol)[0, 0]
        mu0 = params.v.mean[0]
        L1 = tril_map_raw(params.raw, 1, params.gamma)[0, 0, 0]
        elbo_quad = 0.0
        for a, wa in zip(nodes, norm_w):
            theta = np.array([mu0 + L0 * a])
            logq_t = -0.5 * a * a - np.log(L0) - 0.5 * np.log(2 * np.pi)
            inner = 0.0
            for b, wb in zip(nodes, norm_w):
                z = params.mu[0] + params.A[0] @ theta + L1 * b
                logq_z = -0.5 * b * b - np.log(L1) - 0.5 * np.log(2 * np.pi)
                lp = (model.log_prior(theta[None])[0]
                      + model.log_branch_vals(theta[None], z[None, None], data)[0, 0])
                inner += wb * (lp - logq_t - logq_z)
            elbo_quad += wa * inner
        R = 20_000
        vb = np.array([branch_elbo(model, params, data, RngStream(342, k), n_mc=1,
                                   want_grad=False)[0].value for k in range(R)])
        se = vb.std() / np.sqrt(R)
        assert abs(vb.mean() - elbo_quad) < 3 * se
        # joint family over the same distribution
        mean, cov = assemble_joint(params)
        fam = JointFamily("dense", 1, 1, 1, spec=spec_from_moments(mean, cov))
        vj = np.array([joint_elbo(model, fam, data, RngStream(343, k), n_mc=1,
                                  want_grad=False)[0].value for k in range(R)])
        sej = vj.std() / np.sqrt(R)
        assert abs(vj.mean() - elbo_quad) < 3 * sej


class TestAmortizedElbo:
    def test_requires_symmetric_model(self):
        model, data = _problem(1, 2, 2, seed=350)
        model.symmetric = False
        ap = init_amortized("dense", 1, 1, 1, RngStream(351),
                            AmortArch((3, 3), (4, 4)))
        with pytest.raises(MalformedParamsError):
            amortized_elbo(model, ap.v, ap.net, data, MinibatchSampler(2, 1),
                           RngStream(352))

    def test_frozen_net_equals_subsampled_branch(self):
        model, data = _problem(1, 3, 3, seed=353)
        ap = init_amortized("dense", 1, 1, 1, RngStream(354),
                            AmortArch((3, 3), (4, 4)))
        ap = perturb(ap, 355, 0.2)
        params = init_branch("dense", 1, 1, 3)
        params.v = ap.v
        params.W[:] = net_forward_batch(ap.net, data, np.arange(3))[0]
        sampler = MinibatchSampler(3, 2)
        for k in range(20):
            ea, _ = amortized_elbo(model, ap.v, ap.net, data, sampler,
                                   RngStream(356, k), n_mc=2, want_grad=False)
            eb, _ = subsampled_branch_elbo(model, params, data, sampler,
                                           RngStream(356, k), n_mc=2, want_grad=False)
            assert abs(ea.value - eb.value) < 1e-9
            assert np.array_equal(ea.batch, eb.batch)

    def test_observation_permutation_leaves_estimate_invariant(self):
        model, data = _problem(2, 2, 5, seed=357)
        ap = init_amortized("dense", 2, 2, 2, RngStream(358),
                            AmortArch((3, 3), (4, 4)))
        sampler = MinibatchSampler(2, 2)
        e0, _ = amortized_elbo(model, ap.v, ap.net, data, sampler, RngStream(359),
                               n_mc=2, want_grad=False)
        gen = RngStream(360).generator()
        perm_branches = []
        for i in range(data.n_branches):
            b = data.batch([i])
            p = gen.permutation(b.y.size)
            perm_branches.append((b.x[p], b.y[p]))
        data_p = from_branches(perm_branches, data.covariate_dim)
        e1, _ = amortized_elbo(model, ap.v, ap.net, data_p, sampler, RngStream(359),
                               n_mc=2, want_grad=False)
        # w_i identical bitwise; log_branch of the synthetic model sums in a
        # different order, so allow float-reassociation slack
        assert e1.value == pytest.approx(e0.value, abs=1e-9)

    def test_end_to_end_gradient(self):
        model, data = _problem(1, 2, 2, seed=361)
        ap = init_amortized("dense", 1, 1, 1, RngStream(362),
                            AmortArch((3, 3), (4, 4)))
        ap = perturb(ap, 363, 0.2)
        sampler = MinibatchSampler(2, 2)
        est, grads = amortized_elbo(model, ap.v, ap.net, data, sampler,
                                    RngStream(364), n_mc=2)
        gflat = flat_grads(grads)
        fds = central_differences(ap, lambda a: amortized_elbo(
            model, a.v, a.net, data, sampler, RngStream(364), n_mc=2,
            want_grad=False)[0].value, 1e-5)
        for j, fd in enumerate(fds):
            assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-7)
