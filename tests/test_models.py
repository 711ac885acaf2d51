import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import branchvi

from branchvi.data import BranchDataset, from_branches
from branchvi.errors import InvalidDataError
from branchvi.gaussmath import LOG_2PI, UnconstrainedChol, dot_last, mvn_logpdf, tril_map
from branchvi.models import (
    PreferenceConfig,
    SyntheticConfig,
    _sigmoid,
    _softplus,
    preference_forward_sample,
    preference_global_dim,
    preference_model,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from branchvi.rng import RngStream


def _fd_grads(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _branch(x, y):
    """One branch's rows as a dataset of one branch."""
    return from_branches([(x, y)], x.shape[1])


def _one(fn, theta, z, d):
    """A batched term (log_branch_vals or log_obs_vals) for one copy and one branch."""
    return float(fn(np.asarray(theta, dtype=float)[None],
                    np.asarray(z, dtype=float)[None, None], d)[0, 0])


def _grad_one(m, theta, z, d):
    """log_branch_grad for one copy and one branch."""
    vals, gt, gz = m.log_branch_grad(theta[None], z[None, None], d)
    return vals[0, 0], gt[0, 0], gz[0, 0]


class TestSyntheticModel:
    def test_prior_at_zero(self):
        m = synthetic_model(2)
        assert m.log_prior(np.zeros((1, 2)))[0] == pytest.approx(-1.837877, abs=1e-6)
        assert m.log_prior(np.zeros((1, 2)))[0] == pytest.approx(-LOG_2PI)

    def test_branch_at_zero(self):
        m = synthetic_model(1)
        d = _branch(np.array([[1.0]]), np.array([0.0]))
        # log N(0|0,1) + log N(0|0,1)
        assert _one(m.log_branch_vals, np.zeros(1), np.zeros(1), d) == pytest.approx(
            -1.837877, abs=1e-6)

    def test_gradients_match_central_differences(self):
        gen = RngStream(10).generator()
        m = synthetic_model(3)
        d = _branch(gen.standard_normal((5, 3)), gen.standard_normal(5))
        theta = gen.standard_normal(3)
        z = gen.standard_normal(3)
        val, gt, gz = _grad_one(m, theta, z, d)
        assert val == pytest.approx(_one(m.log_branch_vals, theta, z, d))
        fd_t = _fd_grads(lambda t: _one(m.log_branch_vals, t, z, d), theta)
        fd_z = _fd_grads(lambda u: _one(m.log_branch_vals, theta, u, d), z)
        assert np.allclose(gt, fd_t, rtol=1e-5, atol=1e-8)
        assert np.allclose(gz, fd_z, rtol=1e-5, atol=1e-8)
        vp, gp = m.log_prior_grad(theta[None])
        fd_p = _fd_grads(lambda t: m.log_prior(t[None])[0], theta)
        assert np.allclose(gp[0], fd_p, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("make", [synthetic_model, preference_model])
    def test_prior_is_batched_over_copies(self, make):
        m = make(2)
        THETA = RngStream(12).generator().standard_normal((5, m.global_dim))
        vals, grads = m.log_prior_grad(THETA)
        assert vals.shape == (5,) and grads.shape == THETA.shape
        assert np.array_equal(vals, m.log_prior(THETA))
        for j, theta in enumerate(THETA):
            assert np.array_equal(m.log_prior(theta[None])[0], vals[j])
            want = -0.5 * float(theta @ theta) - 0.5 * m.global_dim * LOG_2PI
            assert vals[j] == pytest.approx(want, rel=1e-14)
            assert np.array_equal(grads[j], -theta)

    def test_log_obs_plus_local_prior_is_log_branch(self):
        gen = RngStream(11).generator()
        m = synthetic_model(2)
        d = _branch(gen.standard_normal((4, 2)), gen.standard_normal(4))
        theta, z = gen.standard_normal(2), gen.standard_normal(2)
        local_prior = -0.5 * float((z - theta) @ (z - theta)) - LOG_2PI
        assert _one(m.log_branch_vals, theta, z, d) == pytest.approx(
            local_prior + _one(m.log_obs_vals, theta, z, d), rel=1e-12)

    def test_branch_marginalizes_to_gaussian_quadrature(self):
        # integral over z of exp(log_branch) must equal N(y | x theta, 1 + x^2)
        m = synthetic_model(1)
        gen = RngStream(12).generator()
        for _ in range(20):
            theta, x, y = gen.standard_normal(3) * 1.5
            d = _branch(np.array([[x]]), np.array([y]))
            val, _ = quad(lambda z: np.exp(_one(m.log_branch_vals, np.array([theta]),
                                                np.array([z]), d)),
                          -12, 12)
            var = 1.0 + x * x
            ref = np.exp(-0.5 * (y - x * theta) ** 2 / var) / np.sqrt(2 * np.pi * var)
            assert val == pytest.approx(ref, abs=1e-6)


class TestForwardSampling:
    def test_reproducible(self):
        cfg = SyntheticConfig(2, 3, (4, 5, 6))
        d1, l1 = synthetic_forward_sample(cfg, RngStream(5))
        d2, l2 = synthetic_forward_sample(cfg, RngStream(5))
        assert np.array_equal(l1.theta, l2.theta)
        assert np.array_equal(d1.counts, d2.counts)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)

    @pytest.mark.parametrize("sample, config", [
        (synthetic_forward_sample, SyntheticConfig(2, 3, (4, 5, 6))),
        (preference_forward_sample, PreferenceConfig(2, 3, (4, 5, 6))),
    ])
    def test_columns_follow_the_column_draw_order(self, sample, config):
        # theta first, then whole columns: the (N, D) z noise, the (n, D)
        # covariates and the n noises (synthetic) or uniforms (preference)
        # behind y.
        data, lat = sample(config, RngStream(5))
        gen = RngStream(5).generator()
        assert np.array_equal(lat.theta, gen.standard_normal(lat.theta.size))
        noise = gen.standard_normal((3, 2))
        if sample is synthetic_forward_sample:
            assert np.array_equal(lat.z, lat.theta + noise)
        else:
            Lfac = tril_map(UnconstrainedChol(lat.theta[2:], 2, config.gamma))
            assert np.array_equal(lat.z, lat.theta[:2] + noise @ Lfac)
        assert data.counts.tolist() == [4, 5, 6]
        assert np.array_equal(data.x, gen.standard_normal((15, 2)))
        eta = dot_last(data.x, np.repeat(lat.z, data.counts, axis=0))
        if sample is synthetic_forward_sample:
            assert np.array_equal(data.y, eta + gen.standard_normal(15))
        else:
            assert np.array_equal(data.y, (gen.random(15) < _sigmoid(eta)).astype(float))

    def test_observation_mean_is_zero(self):
        # E[y] = 0 marginally; CLT bound over 10^5 draws
        cfg = SyntheticConfig(1, 100, (10,) * 100)
        ys = []
        for rep in range(100):
            data, _ = synthetic_forward_sample(cfg, RngStream(13, rep))
            ys.append(data.y)
        ys = np.concatenate(ys)
        assert ys.size == 100_000
        se = ys.std() / np.sqrt(ys.size)
        assert abs(ys.mean()) < 3 * se

    def test_shape_validation(self):
        with pytest.raises(InvalidDataError):
            SyntheticConfig(2, 3, (4, 5))
        with pytest.raises(InvalidDataError):
            SyntheticConfig(2, 0, ())


class TestSyntheticOracle:
    def test_single_obs_marginal(self):
        # N=1, n=1, D=1, x=1, y=0: marginal variance 1 + 2 = 3
        ds = _branch(np.array([[1.0]]), np.array([0.0]))
        o = synthetic_oracle(ds)
        assert o.log_marginal == pytest.approx(-0.5 * np.log(2 * np.pi * 3.0), rel=1e-12)

    def test_zero_covariate_recovers_prior(self):
        ds = _branch(np.array([[0.0]]), np.array([0.7]))
        o = synthetic_oracle(ds)
        assert np.allclose(o.posterior_global.mean, 0.0, atol=1e-12)
        assert np.allclose(o.posterior_global.cov(), 1.0, atol=1e-12)

    def test_posterior_local_moments(self):
        gen = RngStream(14).generator()
        ds = _branch(gen.standard_normal((3, 2)), gen.standard_normal(3))
        o = synthetic_oracle(ds)
        theta = gen.standard_normal(2)
        spec = o.posterior_local(theta, 0)
        prec = np.eye(2) + ds.x.T @ ds.x
        cov = np.linalg.inv(prec)
        assert np.allclose(spec.cov(), cov, atol=1e-10)
        assert np.allclose(spec.mean, cov @ (ds.x.T @ ds.y + theta), atol=1e-10)

    def test_marginal_against_importance_sampling(self):
        cfg = SyntheticConfig(1, 2, (2, 2))
        data, _ = synthetic_forward_sample(cfg, RngStream(15))
        o = synthetic_oracle(data)
        gen = RngStream(16).generator()
        K = 2_000_000
        theta = gen.standard_normal(K)
        logw = np.zeros(K)
        for i in range(data.n_branches):
            b = data.batch([i])
            z = theta + gen.standard_normal(K)
            resid = b.y[None, :] - np.outer(z, b.x[:, 0])
            logw += -0.5 * np.sum(resid**2, axis=1) - 0.5 * b.y.size * LOG_2PI
        top = logw.max()
        w = np.exp(logw - top)
        est = top + np.log(w.mean())
        # delta-method standard error on the log estimate
        se = w.std() / (w.mean() * np.sqrt(K))
        assert abs(est - o.log_marginal) < 3 * se

    def test_elbo_identity_by_quadrature(self):
        # log Z = ELBO(q) + KL(q || posterior) for a q over theta, D=1
        cfg = SyntheticConfig(1, 2, (2, 3))
        data, _ = synthetic_forward_sample(cfg, RngStream(17))
        o = synthetic_oracle(data)

        def log_lik(theta):  # log p(y | x, theta), z marginalized per branch
            total = 0.0
            for i in range(data.n_branches):
                b = data.batch([i])
                C = np.eye(b.y.size) + b.x @ b.x.T
                r = b.y - b.x[:, 0] * theta
                total += (-0.5 * r @ np.linalg.solve(C, r)
                          - 0.5 * np.linalg.slogdet(C)[1] - 0.5 * b.y.size * LOG_2PI)
            return total

        def log_prior(theta):
            return -0.5 * theta * theta - 0.5 * LOG_2PI

        mu_q, sd_q = 0.3, 1.4  # an arbitrary Gaussian over theta

        def log_q(theta):
            return -0.5 * ((theta - mu_q) / sd_q) ** 2 - np.log(sd_q) - 0.5 * LOG_2PI

        def log_post(theta):
            return mvn_logpdf(o.posterior_global, np.array([theta]))

        q_pdf = lambda t: np.exp(log_q(t))
        elbo, _ = quad(lambda t: q_pdf(t) * (log_prior(t) + log_lik(t) - log_q(t)),
                       mu_q - 12 * sd_q, mu_q + 12 * sd_q, limit=200)
        kl, _ = quad(lambda t: q_pdf(t) * (log_q(t) - log_post(t)),
                     mu_q - 12 * sd_q, mu_q + 12 * sd_q, limit=200)
        assert elbo + kl == pytest.approx(o.log_marginal, abs=1e-4)


def _dense_oracle(data):
    """Reference oracle from the joint Gaussian of u = (theta, z_1..z_N) and y.

    theta ~ N(0, I) and z_i = theta + eta_i give Cov(u) = 11' (x) I + diag(0, I, ..);
    y = H u + noise with branch i's rows X_i in z_i's columns, so y ~ N(0, S) with
    the dense (sum n_i)^2 covariance S = H Cov(u) H' + I. Conditioning the joint
    gives the posteriors. O((sum n_i)^3): small instances only.
    Returns (log_marginal, theta mean, theta cov, local(theta, i) -> (mean, cov)).
    """
    D, N = data.covariate_dim, data.n_branches
    cov_u = np.kron(np.ones((N + 1, N + 1)) + np.diag([0.0] + [1.0] * N), np.eye(D))
    H = np.zeros((data.n_obs, (N + 1) * D))
    for i, (s, n) in enumerate(zip(data.starts, data.counts)):
        H[s:s + n, (i + 1) * D:(i + 2) * D] = data.x[s:s + n]
    y = data.y
    S = H @ cov_u @ H.T + np.eye(data.n_obs)
    log_marginal = (-0.5 * y @ np.linalg.solve(S, y) - 0.5 * np.linalg.slogdet(S)[1]
                    - 0.5 * data.n_obs * LOG_2PI)
    gain = np.linalg.solve(S, H @ cov_u).T
    mean_u = gain @ y
    cov_post = cov_u - gain @ H @ cov_u
    t = slice(0, D)

    def local(theta, i):
        z = slice((i + 1) * D, (i + 2) * D)
        reg = np.linalg.solve(cov_post[t, t], cov_post[t, z]).T
        return (mean_u[z] + reg @ (theta - mean_u[t]),
                cov_post[z, z] - reg @ cov_post[t, z])

    return log_marginal, mean_u[t], cov_post[t, t], local


class TestOracleAgainstDenseReference:
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_ragged_branches_with_an_empty_one(self, D):
        gen = RngStream(18, D).generator()
        counts = [3, 0, 7, 1, 4, 2]
        data = from_branches([(gen.standard_normal((n, D)), gen.standard_normal(n) * 2.0)
                              for n in counts], D)
        o = synthetic_oracle(data)
        log_marginal, mean, cov, local = _dense_oracle(data)
        assert o.log_marginal == pytest.approx(log_marginal, rel=1e-10)
        assert np.allclose(o.posterior_global.mean, mean, rtol=0, atol=1e-10)
        assert np.allclose(o.posterior_global.cov(), cov, rtol=0, atol=1e-10)
        theta = gen.standard_normal(D)
        for i in range(len(counts)):
            spec = o.posterior_local(theta, i)
            ref_mean, ref_cov = local(theta, i)
            assert np.allclose(spec.mean, ref_mean, rtol=0, atol=1e-10)
            assert np.allclose(spec.cov(), ref_cov, rtol=0, atol=1e-10)
        # the empty branch keeps its prior given theta
        assert np.allclose(o.posterior_local(theta, 1).mean, theta, rtol=0, atol=1e-12)

    def test_many_branches_in_small_memory(self):
        cfg = SyntheticConfig(2, 20_000, (10,) * 20_000)
        data, _ = synthetic_forward_sample(cfg, RngStream(19))
        tracemalloc.start()
        try:
            o = synthetic_oracle(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(o.log_marginal)
        assert peak < 50e6

    def test_oracle_does_not_import_scipy(self):
        code = (
            "import sys, numpy as np\n"
            "from branchvi.models import SyntheticConfig, synthetic_forward_sample, "
            "synthetic_oracle\n"
            "from branchvi.rng import RngStream\n"
            "data, _ = synthetic_forward_sample(SyntheticConfig(2, 3, (4, 5, 6)), "
            "RngStream(1))\n"
            "o = synthetic_oracle(data)\n"
            "o.posterior_local(np.zeros(2), 1).cov()\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(branchvi.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestPreferenceModel:
    def test_example_values(self):
        m = preference_model(1)
        d = _branch(np.array([[0.0]]), np.array([1.0]))
        # log N(0 | 0, psi(0)^2) + log(1/2)
        assert _one(m.log_branch_vals, np.zeros(2), np.zeros(1), d) == pytest.approx(
            -0.918939 - 0.693147, abs=1e-6)

    def test_dims(self):
        m = preference_model(3)
        assert m.global_dim == preference_global_dim(3) == 3 + 6
        assert m.local_dim == 3
        assert m.symmetric

    def test_log_sigmoid_stability(self):
        m = preference_model(1)
        d = _branch(np.array([[1.0]]), np.array([1.0]))
        val = _one(m.log_obs_vals, np.zeros(2), np.array([-40.0]), d)
        assert val == pytest.approx(-40.0, abs=1e-12)
        val = _one(m.log_obs_vals, np.zeros(2), np.array([700.0]), d)
        assert np.isfinite(val)

    def test_rejects_non_binary(self):
        m = preference_model(1)
        d = _branch(np.array([[1.0]]), np.array([0.5]))
        with pytest.raises(InvalidDataError):
            _one(m.log_branch_vals, np.zeros(2), np.zeros(1), d)

    def test_gradients_match_central_differences(self):
        gen = RngStream(18).generator()
        D = 2
        m = preference_model(D)
        d = _branch(gen.standard_normal((6, D)), (gen.random(6) < 0.5).astype(float))
        theta = gen.standard_normal(m.global_dim) * 0.5
        z = gen.standard_normal(D)
        val, gt, gz = _grad_one(m, theta, z, d)
        assert val == pytest.approx(_one(m.log_branch_vals, theta, z, d))
        fd_t = _fd_grads(lambda t: _one(m.log_branch_vals, t, z, d), theta)
        fd_z = _fd_grads(lambda u: _one(m.log_branch_vals, theta, u, d), z)
        assert np.allclose(gt, fd_t, rtol=1e-4, atol=1e-7)
        assert np.allclose(gz, fd_z, rtol=1e-4, atol=1e-7)

    def test_permutation_invariance_exact(self):
        gen = RngStream(19).generator()
        m = preference_model(3)
        d = _branch(gen.standard_normal((20, 3)), (gen.random(20) < 0.4).astype(float))
        theta = gen.standard_normal(m.global_dim)
        z = gen.standard_normal(3)
        base = _one(m.log_branch_vals, theta, z, d)
        for _ in range(10):
            perm = gen.permutation(20)
            dp = _branch(d.x[perm], d.y[perm])
            assert _one(m.log_branch_vals, theta, z, dp) == base  # exact equality

    def test_forward_sampling(self):
        cfg = PreferenceConfig(2, 4, (5, 5, 5, 5))
        d1, _ = preference_forward_sample(cfg, RngStream(20))
        d2, _ = preference_forward_sample(cfg, RngStream(20))
        assert np.array_equal(d1.y, d2.y) and d1.counts.tolist() == [5, 5, 5, 5]
        assert set(np.unique(d1.y)) <= {0.0, 1.0}


def _ragged_batch(model_kind, D, counts, seed):
    gen = RngStream(seed).generator()
    branches = []
    for n in counts:
        x = gen.standard_normal((n, D))
        y = (gen.standard_normal(n) if model_kind == "synthetic"
             else (gen.random(n) < 0.5).astype(float))
        branches.append((x, y))
    return from_branches(branches, D)


def _model_and_draws(model_kind, D, M, B, seed):
    m = synthetic_model(D) if model_kind == "synthetic" else preference_model(D, gamma=1.7)
    gen = RngStream(seed).generator()
    THETA = gen.standard_normal((M, m.global_dim)) * 0.5
    Z = gen.standard_normal((M, B, m.local_dim))
    return m, THETA, Z


@pytest.mark.parametrize("model_kind", ["synthetic", "preference"])
class TestBatchedSurface:
    COUNTS = (4, 0, 11, 1, 7)

    def test_matches_per_branch_terms_and_finite_differences(self, model_kind):
        D, M = 2, 3
        data = _ragged_batch(model_kind, D, self.COUNTS, seed=30)
        m, THETA, Z = _model_and_draws(model_kind, D, M, data.n_branches, seed=31)
        obs = data.batch(np.arange(data.n_branches))
        vals, gt, gz = m.log_branch_grad(THETA, Z, obs)
        assert vals.shape == (M, 5) and gt.shape == (M, 5, m.global_dim)
        assert gz.shape == (M, 5, D)
        assert np.array_equal(m.log_branch_vals(THETA, Z, obs), vals)
        obs_vals = m.log_obs_vals(THETA, Z, obs)
        for k in range(M):
            for b in range(data.n_branches):
                d, theta, z = data.batch([b]), THETA[k], Z[k, b]
                assert abs(vals[k, b] - _one(m.log_branch_vals, theta, z, d)) < 1e-12
                assert abs(obs_vals[k, b] - _one(m.log_obs_vals, theta, z, d)) < 1e-12
                fd_t = _fd_grads(lambda t: _one(m.log_branch_vals, t, z, d), theta)
                fd_z = _fd_grads(lambda u: _one(m.log_branch_vals, theta, u, d), z)
                assert np.allclose(gt[k, b], fd_t, rtol=1e-4, atol=1e-7)
                assert np.allclose(gz[k, b], fd_z, rtol=1e-4, atol=1e-7)
        assert np.all(obs_vals[:, 1] == 0.0)  # a branch without rows observes nothing

    def test_branch_term_is_bitwise_the_same_alone_and_in_a_batch(self, model_kind):
        D, M = 3, 4
        data = _ragged_batch(model_kind, D, (12, 0, 30, 9, 1, 17), seed=32)
        m, THETA, Z = _model_and_draws(model_kind, D, M, data.n_branches, seed=33)
        batched = m.log_branch_grad(THETA, Z, data.batch(np.arange(data.n_branches)))
        for b in range(data.n_branches):
            alone = m.log_branch_grad(THETA, Z[:, b:b + 1], data.batch([b]))
            for got, want in zip(alone, batched):
                assert np.array_equal(got[:, 0], want[:, b])
        # a sub-batch gathered from the concatenation gives the same bits
        sub = [5, 2, 3]
        part = m.log_branch_grad(THETA, Z[:, sub], data.batch(sub))
        for got, want in zip(part, batched):
            assert np.array_equal(got, want[:, sub])


def test_batched_preference_value_is_bitwise_invariant_to_permuting_a_branch():
    D, M = 3, 2
    data = _ragged_batch("preference", D, (6, 25, 3), seed=34)
    m, THETA, Z = _model_and_draws("preference", D, M, 3, seed=35)
    base = m.log_branch_grad(THETA, Z, data.batch(np.arange(3)))[0]
    gen = RngStream(36).generator()
    for _ in range(5):
        p = gen.permutation(25)
        rows = np.concatenate([np.arange(6), 6 + p, np.arange(31, 34)])  # branch 1 permuted
        obs = BranchDataset(data.x[rows], data.y[rows], data.counts)
        assert np.array_equal(m.log_branch_grad(THETA, Z, obs)[0], base)
        assert np.array_equal(m.log_branch_vals(THETA, Z, obs), base)


def _per_row_synthetic(THETA, Z, data):
    """The synthetic terms written out row by row from the residuals
    y_r - x_r'z: (branch values, obs values, g_theta, g_z)."""
    M, B, D = Z.shape
    obs = np.zeros((M, B))
    g_obs = np.zeros((M, B, D))
    for j in range(B):
        s, n = int(data.starts[j]), int(data.counts[j])
        x, y = data.x[s:s + n], data.y[s:s + n]
        for k in range(M):
            resid = y - x @ Z[k, j]
            obs[k, j] = -0.5 * resid @ resid - 0.5 * n * LOG_2PI
            g_obs[k, j] = x.T @ resid
    R = Z - THETA[:, None, :]
    local = -0.5 * np.sum(R * R, axis=2) - 0.5 * D * LOG_2PI
    return local + obs, obs, R, g_obs - R


def _assert_close_by_scale(got, want, rel):
    """|got - want| <= rel * max|want|, entry by entry."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestSyntheticFromMoments:
    """The synthetic terms come from the batch's moments; the per-row
    residual form is the reference."""

    COUNTS = (4, 0, 11, 1, 7, 30, 0)

    def _data(self, D, seed, z_scale=0.0):
        # With z_scale > 0 the rows follow y = x'z_j + noise for a z_j of that
        # size, so |y| ~ z_scale while the residuals at z near z_j stay small.
        gen = RngStream(seed).generator()
        z_true = z_scale * gen.standard_normal((len(self.COUNTS), D))
        branches = []
        for j, n in enumerate(self.COUNTS):
            x = gen.standard_normal((n, D))
            branches.append((x, x @ z_true[j] + gen.standard_normal(n)))
        return from_branches(branches, D), z_true, gen

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_matches_the_per_row_residual_form(self, D):
        data, _, gen = self._data(D, seed=50 + D)
        m, M = synthetic_model(D), 3
        THETA = gen.standard_normal((M, D))
        Z = gen.standard_normal((M, data.n_branches, D))
        vals, gt, gz = m.log_branch_grad(THETA, Z, data)
        want_vals, want_obs, want_gt, want_gz = _per_row_synthetic(THETA, Z, data)
        assert np.allclose(vals, want_vals, rtol=1e-10, atol=0)
        assert np.array_equal(m.log_branch_vals(THETA, Z, data), vals)
        obs_vals = m.log_obs_vals(THETA, Z, data)
        assert np.allclose(obs_vals, want_obs, rtol=1e-10, atol=0)
        assert np.all(obs_vals[:, [1, 6]] == 0.0)           # the branches without rows
        assert np.array_equal(gt, want_gt)
        _assert_close_by_scale(gz, want_gz, 1e-10)

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_large_observation_offset(self, D):
        # |y| ~ 1e3 with residuals ~ 1: the expanded c - 2 b'z + z'G z cancels
        # about six digits, so the observation terms agree with the per-row
        # sum only to about 1e-9 relative (at most 3.3e-10 on these draws). The
        # branch values and g_z, both dominated by the prior's z - theta at
        # this z, stay within 1e-12 of their scale.
        data, z_true, gen = self._data(D, seed=60 + D, z_scale=1e3 / np.sqrt(D))
        assert 1e3 < np.abs(data.y).max() < 1e4
        m, M = synthetic_model(D), 3
        THETA = gen.standard_normal((M, D))
        Z = z_true[None] + 0.1 * gen.standard_normal((M, data.n_branches, D))
        vals, _, gz = m.log_branch_grad(THETA, Z, data)
        want_vals, want_obs, _, want_gz = _per_row_synthetic(THETA, Z, data)
        assert np.allclose(m.log_obs_vals(THETA, Z, data), want_obs, rtol=1e-8, atol=0)
        assert np.allclose(vals, want_vals, rtol=1e-12, atol=0)
        _assert_close_by_scale(gz, want_gz, 1e-12)


def _masked_sigmoid(x):
    """The sigmoid as a boolean-mask gather and scatter, one formula per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bitwise_the_masked_formula():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0])
    gen = np.random.default_rng(40)
    x = np.concatenate([special] + [gen.standard_normal(10 ** 4) * scale
                                    for scale in (1e-300, 1e-8, 1.0, 40.0, 800.0)])
    got, want = _sigmoid(x), _masked_sigmoid(x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[0] == got[1] == 0.5 and got[2] == 1.0 and got[3] == 0.0
    assert np.all(np.isnan(got[4:6])) and np.signbit(got[5]) and not np.signbit(got[4])
    X = x[14:].reshape(10, -1)  # the (M, n) shape the model passes
    assert np.array_equal(_sigmoid(X).view(np.int64), _masked_sigmoid(X).view(np.int64))


def _lexsort_obs_term(Z, obs):
    """The preference observation term summed after one lexsort of the whole
    batch by (branch, value)."""
    eta = dot_last(np.take(Z, obs.seg, axis=1), obs.x)
    per_obs = obs.y * eta - _softplus(eta)
    order = np.lexsort((per_obs, np.broadcast_to(obs.seg, per_obs.shape)), axis=-1)
    return obs.segment_sum(np.take_along_axis(per_obs, order, axis=-1))


class TestObsTermAgainstLexsort:
    @pytest.mark.parametrize("M", [1, 10])
    def test_ragged_batch_with_ties_and_an_empty_branch(self, M):
        D = 2
        gen = np.random.default_rng(41 + M)
        counts = np.array([5, 0, 13, 1, 8, 30, 2])
        # covariates on a coarse grid and repeated rows, so per-row terms tie
        x = gen.integers(-2, 3, size=(counts.sum(), D)).astype(float)
        x[10:14] = x[9]
        y = (gen.random(counts.sum()) < 0.5).astype(float)
        y[10:14] = y[9]
        obs = BranchDataset(x, y, counts)
        m = preference_model(D, gamma=1.3)
        THETA = gen.standard_normal((M, m.global_dim))
        Z = np.round(gen.standard_normal((M, counts.size, D)), 1)
        want = _lexsort_obs_term(Z, obs)
        assert np.array_equal(m.log_obs_vals(THETA, Z, obs), want)
        assert np.all(want[:, 1] == 0.0)

    def test_full_batch_of_2000_branches(self):
        D, M, N = 2, 2, 2000
        gen = np.random.default_rng(43)
        counts = gen.integers(0, 40, N)
        n = int(counts.sum())
        obs = BranchDataset(gen.standard_normal((n, D)),
                            (gen.random(n) < 0.5).astype(float), counts)
        m = preference_model(D)
        THETA = gen.standard_normal((M, m.global_dim)) * 0.5
        Z = gen.standard_normal((M, N, D))
        # With no rows the observation term is exactly 0, so this is the local term.
        no_rows = BranchDataset(np.zeros((0, D)), np.zeros(0), np.zeros(N, dtype=np.int64))
        local = m.log_branch_vals(THETA, Z, no_rows)
        want = local + _lexsort_obs_term(Z, obs)
        assert np.array_equal(m.log_branch_vals(THETA, Z, obs), want)
        assert np.array_equal(m.log_branch_grad(THETA, Z, obs)[0], want)
