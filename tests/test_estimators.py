import numpy as np
import pytest

from branchvi.amortize import (
    AmortArch,
    amort_from_tree,
    amort_to_tree,
    init_amortized,
    net_forward,
)
from branchvi.data import BranchData, BranchDataset
from branchvi.errors import EstimatorError, MalformedParamsError
from branchvi.estimators import (
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
    branch_from_tree,
    branch_to_tree,
    init_branch,
    init_joint,
    joint_from_tree,
    joint_to_branch,
    joint_to_tree,
)
from branchvi.gaussmath import GaussianSpec, spec_from_moments, tril_map, tril_unmap
from branchvi.models import (
    SyntheticConfig,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from branchvi.rng import RngStream
from branchvi.trees import tree_flatten, tree_unflatten


def _problem(D, N, n, seed):
    cfg = SyntheticConfig(D, N, (n,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(seed))
    return synthetic_model(D, N, (n,) * N), data


def _perturb(params, to_tree, from_tree, seed, scale=0.3):
    tree = to_tree(params)
    flat = tree_flatten(tree)
    flat = flat + RngStream(seed).generator().standard_normal(flat.size) * scale
    return from_tree(params, tree_unflatten(tree, flat))


def _oracle_matched_branch(data, oracle):
    D = data.covariate_dim
    params = init_branch("dense", D, D, data.n_branches)
    params.v = oracle.posterior_global
    for i, b in enumerate(data.branches):
        C = np.linalg.inv(np.eye(D) + b.x.T @ b.x)
        C = 0.5 * (C + C.T)
        w = params.local(i)
        w.mu[:] = C @ (b.x.T @ b.y)
        w.A[:] = C
        w.chol.raw[:] = tril_unmap(np.linalg.cholesky(C)).raw
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
        fam = _perturb(init_joint("dense", 1, 1, 2), joint_to_tree, joint_from_tree, 303)
        vals = np.array([joint_elbo(model, fam, data, RngStream(304, k), n_mc=1,
                                    want_grad=False)[0].value for k in range(10_000)])
        se = vals.std() / np.sqrt(vals.size)
        assert vals.mean() <= oracle.log_marginal + 3 * se

    def test_gradient_matches_finite_differences(self):
        model, data = _problem(1, 2, 2, seed=305)
        for structure in ("dense", "block", "diag"):
            fam = _perturb(init_joint(structure, 1, 1, 2), joint_to_tree,
                           joint_from_tree, 306)
            template = joint_to_tree(fam)
            est, grads = joint_elbo(model, fam, data, RngStream(307), n_mc=3)
            gflat = np.concatenate([grads[k].ravel() for k in template])
            flat = tree_flatten(template)
            h = 1e-5
            for j in range(flat.size):
                fp, fm = flat.copy(), flat.copy()
                fp[j] += h
                fm[j] -= h
                vp, _ = joint_elbo(model, joint_from_tree(fam, tree_unflatten(template, fp)),
                                   data, RngStream(307), n_mc=3, want_grad=False)
                vm, _ = joint_elbo(model, joint_from_tree(fam, tree_unflatten(template, fm)),
                                   data, RngStream(307), n_mc=3, want_grad=False)
                fd = (vp.value - vm.value) / (2 * h)
                assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-7)

    def test_branch_count_mismatch(self):
        model, data = _problem(1, 2, 2, seed=308)
        with pytest.raises(MalformedParamsError):
            joint_elbo(model, init_joint("dense", 1, 1, 3), data, RngStream(0))


class TestBranchElbo:
    def test_zero_branches_matches_negative_kl(self):
        # estimate reduces to E[log p(theta) - log q_v(theta)] = -KL(q_v || prior)
        model = synthetic_model(2, 1, [1])
        data = BranchDataset([], 2)
        params = init_branch("dense", 2, 2, 0)
        params = _perturb(params, branch_to_tree, branch_from_tree, 310)
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
        from branchvi.gaussmath import mvn_logpdf

        for k in range(100):
            x = fam.spec.mean + gen.standard_normal(P)
            theta = x[:1]
            lq_branch = mvn_logpdf(GaussianSpec(bp.v.mean, bp.v.chol), theta)
            for i in range(bp.n_branches):
                w = bp.local(i)
                z = x[1 + i:2 + i]
                lq_branch += mvn_logpdf(GaussianSpec(w.mu + w.A @ theta, w.chol), z)
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
        params = _perturb(init_branch("block", 2, 2, 3), branch_to_tree,
                          branch_from_tree, 320)
        e1, g1 = branch_elbo(model, params, data, RngStream(321), n_mc=5)
        e2, g2 = branch_elbo(model, params, data, RngStream(321), n_mc=5)
        assert e1.value == e2.value
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    def test_worker_count_does_not_change_results(self):
        model, data = _problem(2, 4, 3, seed=322)
        params = _perturb(init_branch("dense", 2, 2, 4), branch_to_tree,
                          branch_from_tree, 323)
        e1, g1 = branch_elbo(model, params, data, RngStream(324), n_mc=4)
        e2, g2 = branch_elbo(model, params, data, RngStream(324), n_mc=4, workers=3)
        assert e1.value == e2.value
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    def test_non_finite_density_raises_with_branch(self):
        model, data = _problem(1, 3, 2, seed=325)
        params = init_branch("dense", 1, 1, 3)
        params.local(2).mu[:] = np.nan
        with pytest.raises(EstimatorError) as exc:
            branch_elbo(model, params, data, RngStream(326))
        assert exc.value.branch == 2


class TestSubsampledBranchElbo:
    def test_full_batch_is_bitwise_identical(self):
        model, data = _problem(2, 5, 3, seed=330)
        params = _perturb(init_branch("dense", 2, 2, 5), branch_to_tree,
                          branch_from_tree, 331)
        e1, g1 = branch_elbo(model, params, data, RngStream(332), n_mc=4)
        e2, g2 = subsampled_branch_elbo(model, params, data, MinibatchSampler(5, 5),
                                        RngStream(332), n_mc=4)
        assert e1.value == e2.value
        assert set(g1) == set(g2)
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    def test_unbiased_against_full_estimate(self):
        model, data = _problem(1, 10, 2, seed=333)
        params = _perturb(init_branch("dense", 1, 1, 10), branch_to_tree,
                          branch_from_tree, 334)
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
        params = _perturb(init_branch("dense", 1, 1, 4), branch_to_tree,
                          branch_from_tree, 338)
        sampler = MinibatchSampler(4, 2)
        template = branch_to_tree(params)
        est, grads = subsampled_branch_elbo(model, params, data, sampler,
                                            RngStream(339), n_mc=3)
        gflat = np.concatenate([grads[k].ravel() for k in template])
        flat = tree_flatten(template)
        h = 1e-5
        for j in range(flat.size):
            fp, fm = flat.copy(), flat.copy()
            fp[j] += h
            fm[j] -= h
            vp, _ = subsampled_branch_elbo(
                model, branch_from_tree(params, tree_unflatten(template, fp)), data,
                sampler, RngStream(339), n_mc=3, want_grad=False)
            vm, _ = subsampled_branch_elbo(
                model, branch_from_tree(params, tree_unflatten(template, fm)), data,
                sampler, RngStream(339), n_mc=3, want_grad=False)
            fd = (vp.value - vm.value) / (2 * h)
            assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-7)


class TestEstimatorUnbiasedness:
    def test_against_gauss_hermite_quadrature(self):
        # D=1, N=1, n=1: ELBO(q) by 2-d Gauss-Hermite vs estimator MC means
        model, data = _problem(1, 1, 1, seed=340)
        params = _perturb(init_branch("dense", 1, 1, 1), branch_to_tree,
                          branch_from_tree, 341, scale=0.4)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        norm_w = weights / np.sqrt(2 * np.pi)
        L0 = tril_map(params.v.chol)[0, 0]
        mu0 = params.v.mean[0]
        w0 = params.local(0)
        L1 = tril_map(w0.chol)[0, 0]
        elbo_quad = 0.0
        for a, wa in zip(nodes, norm_w):
            theta = np.array([mu0 + L0 * a])
            logq_t = -0.5 * a * a - np.log(L0) - 0.5 * np.log(2 * np.pi)
            inner = 0.0
            for b, wb in zip(nodes, norm_w):
                z = w0.mu + w0.A @ theta + L1 * b
                logq_z = -0.5 * b * b - np.log(L1) - 0.5 * np.log(2 * np.pi)
                lp = model.log_prior(theta) + model.log_branch(theta, z, data.branches[0])
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
        ap = _perturb(ap, amort_to_tree, amort_from_tree, 355, scale=0.2)
        params = init_branch("dense", 1, 1, 3)
        params.v = ap.v
        for i in range(3):
            w, _ = net_forward(ap.net, data.branches[i])
            row = params.local(i)
            row.mu[:], row.A[:], row.chol.raw[:] = w.mu, w.A, w.chol.raw
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
        for b in data.branches:
            p = gen.permutation(b.n)
            perm_branches.append(BranchData(b.x[p], b.y[p]))
        data_p = BranchDataset(perm_branches, data.covariate_dim)
        e1, _ = amortized_elbo(model, ap.v, ap.net, data_p, sampler, RngStream(359),
                               n_mc=2, want_grad=False)
        # w_i identical bitwise; log_branch of the synthetic model sums in a
        # different order, so allow float-reassociation slack
        assert e1.value == pytest.approx(e0.value, abs=1e-9)

    def test_end_to_end_gradient(self):
        model, data = _problem(1, 2, 2, seed=361)
        ap = init_amortized("dense", 1, 1, 1, RngStream(362),
                            AmortArch((3, 3), (4, 4)))
        ap = _perturb(ap, amort_to_tree, amort_from_tree, 363, scale=0.2)
        sampler = MinibatchSampler(2, 2)
        template = amort_to_tree(ap)
        est, grads = amortized_elbo(model, ap.v, ap.net, data, sampler,
                                    RngStream(364), n_mc=2)
        gflat = np.concatenate([grads[k].ravel() for k in template])
        flat = tree_flatten(template)
        h = 1e-5
        for j in range(flat.size):
            fp, fm = flat.copy(), flat.copy()
            fp[j] += h
            fm[j] -= h
            ap_p = amort_from_tree(ap, tree_unflatten(template, fp))
            ap_m = amort_from_tree(ap, tree_unflatten(template, fm))
            vp, _ = amortized_elbo(model, ap_p.v, ap_p.net, data, sampler,
                                   RngStream(364), n_mc=2, want_grad=False)
            vm, _ = amortized_elbo(model, ap_m.v, ap_m.net, data, sampler,
                                   RngStream(364), n_mc=2, want_grad=False)
            fd = (vp.value - vm.value) / (2 * h)
            assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-7)
