import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import wilcoxon

from branchvi import metrics
from branchvi.amortize import AmortArch, AmortParams, init_amortized, net_rows
from branchvi.data import SplitDataset, from_branches, split
from branchvi.families import (BranchParams, JointFamily, assemble_joint, factor_draw_batch,
                               factor_gamma, init_branch, init_joint, joint_draw_batch,
                               local_draw_rows)
from branchvi.gaussmath import spec_from_moments
from branchvi.metrics import evaluate, log_mean_exp, write_report
from branchvi.models import (
    PreferenceConfig,
    SyntheticConfig,
    preference_forward_sample,
    preference_model,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from branchvi.rng import RngStream
from helpers import perturb
from test_estimators import _oracle_matched_branch


def _synthetic_setup(D=1, N=2, n=4, seed=500, test_fraction=0.25):
    cfg = SyntheticConfig(D, N, (n,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(seed))
    parts = split(data, test_fraction, RngStream(seed + 1))
    model = synthetic_model(D)
    return model, data, parts


def _loose_params(D, N, seed=501):
    return perturb(init_branch("dense", D, D, N), seed, 0.4)


class TestLogMeanExp:
    def test_single_element_identity(self):
        assert log_mean_exp(np.array([-3.7])) == -3.7

    def test_overflow_safe(self):
        vals = np.array([-700.0, 700.0])
        out = log_mean_exp(vals)
        assert np.isfinite(out)
        assert out == pytest.approx(700.0 - np.log(2.0), rel=1e-12)

    def test_matches_direct_in_safe_range(self):
        gen = RngStream(502).generator()
        vals = gen.standard_normal(100)
        assert log_mean_exp(vals) == pytest.approx(np.log(np.mean(np.exp(vals))),
                                                   rel=1e-12)


class TestEvaluate:
    def test_k1_train_ll_equals_train_elbo_exactly(self):
        model, data, parts = _synthetic_setup()
        params = _loose_params(1, 2)
        rep = evaluate(model, params, parts, k=1, rng=RngStream(503))
        assert rep.train_ll == rep.train_elbo

    def test_jensen_ordering_pointwise(self):
        model, data, parts = _synthetic_setup()
        params = _loose_params(1, 2)
        for k in (2, 10, 50):
            rep = evaluate(model, params, parts, k=k, rng=RngStream(504))
            assert rep.train_elbo <= rep.train_ll + 1e-12

    def test_oracle_matched_train_ll_equals_log_marginal(self):
        model, data, parts = _synthetic_setup(test_fraction=0.0)
        oracle = synthetic_oracle(data)
        params = _oracle_matched_branch(data, oracle)
        rep = evaluate(model, params, parts, k=50, rng=RngStream(505))
        assert rep.train_ll == pytest.approx(oracle.log_marginal, abs=1e-6)
        assert rep.train_elbo == pytest.approx(oracle.log_marginal, abs=1e-6)

    def test_oracle_matched_joint_train_ll_equals_log_marginal(self):
        # the exact posterior as one dense Gaussian over (theta, z)
        model, data, parts = _synthetic_setup(test_fraction=0.0)
        oracle = synthetic_oracle(data)
        spec = spec_from_moments(*assemble_joint(_oracle_matched_branch(data, oracle)))
        fam = JointFamily("dense", 1, 1, data.n_branches, spec=spec)
        rep = evaluate(model, fam, parts, k=50, rng=RngStream(505))
        assert rep.train_ll == pytest.approx(oracle.log_marginal, abs=1e-6)
        assert rep.train_elbo == pytest.approx(oracle.log_marginal, abs=1e-6)

    def test_half_predictor_test_ll(self):
        # zero covariates force sigmoid(0) = 1/2 for every test rating
        D, N = 1, 2
        model = preference_model(D)
        gen = RngStream(506).generator()
        train = from_branches([(gen.standard_normal((2, D)), np.array([0.0, 1.0]))
                               for _ in range(N)], D)
        test = from_branches([(np.zeros((3, D)), (gen.random(3) < 0.5).astype(float))
                              for _ in range(N)], D)
        parts = SplitDataset(train, test)
        params = init_branch("dense", model.global_dim, D, N)
        rep = evaluate(model, params, parts, k=20, rng=RngStream(508))
        assert rep.test_ll == pytest.approx(6 * np.log(0.5), abs=1e-12)
        assert rep.n_test == 6

    def test_monotone_in_k_wilcoxon(self):
        model, data, parts = _synthetic_setup(test_fraction=0.0)
        params = _loose_params(1, 2, seed=509)
        reps = 200
        lls = {}
        for k in (1, 10, 100):
            vals = np.empty(reps)
            for r in range(reps):
                vals[r] = evaluate(model, params, parts, k=k,
                                   rng=RngStream(510 + k, r)).train_ll
            lls[k] = vals
        for lo, hi in ((1, 10), (10, 100)):
            diffs = lls[hi] - lls[lo]
            stat = wilcoxon(diffs, alternative="greater")
            assert stat.pvalue < 0.01

    def test_jensen_at_k100_within_3_se(self):
        model, data, parts = _synthetic_setup(test_fraction=0.0)
        params = _loose_params(1, 2, seed=511)
        reps = 200
        diffs = np.empty(reps)
        for r in range(reps):
            rep = evaluate(model, params, parts, k=100, rng=RngStream(512, r))
            diffs[r] = rep.train_ll - rep.train_elbo
        se = diffs.std() / np.sqrt(reps)
        assert diffs.mean() >= -3 * se  # Jensen: ll >= elbo in expectation

    def test_amortized_skips_empty_train_branches_with_warning(self):
        D, N = 1, 3
        model = synthetic_model(D)
        gen = RngStream(513).generator()
        train_branches = [(gen.standard_normal((2, D)), gen.standard_normal(2)),
                          (np.zeros((0, D)), np.zeros(0)),
                          (gen.standard_normal((2, D)), gen.standard_normal(2))]
        test_branches = [(gen.standard_normal((1, D)), gen.standard_normal(1))
                         for _ in range(N)]
        parts = SplitDataset(from_branches(train_branches, D),
                             from_branches(test_branches, D))
        ap = init_amortized("dense", D, D, D, RngStream(514), AmortArch((3, 3), (4, 4)))
        with pytest.warns(UserWarning, match="empty train"):
            rep = evaluate(model, ap, parts, k=5, rng=RngStream(515))
        assert rep.skipped_branches == [1]
        assert rep.n_test == 2  # branch 1's test rating excluded

    def test_per_rating_normalization(self):
        model, data, parts = _synthetic_setup()
        params = _loose_params(1, 2, seed=516)
        rep = evaluate(model, params, parts, k=10, rng=RngStream(517))
        assert rep.train_ll_per_rating == pytest.approx(rep.train_ll / rep.n_train)
        assert rep.test_ll_per_rating == pytest.approx(rep.test_ll / rep.n_test)

    def test_report_files(self, tmp_path):
        model, data, parts = _synthetic_setup()
        params = _loose_params(1, 2, seed=518)
        rep = evaluate(model, params, parts, k=5, rng=RngStream(519))
        write_report(rep, tmp_path / "report.txt", tmp_path / "report.json")
        text = (tmp_path / "report.txt").read_text()
        assert "train_elbo = " in text and "k = 5" in text
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["k"] == 5
        assert blob["train_ll"] == rep.train_ll


# ---------------------------------------------------------------------------
# Chunked draws against one draw at a time.


def _per_draw_reference(model, q, parts, k, rng):
    """(test_ll, train_ll, train_elbo) from evaluate's K draws taken one at a
    time: one (1, D) theta and one (1, A, dz) local noise draw per draw, or one
    (1, total_dim) joint draw, then one call of each model callable."""
    train, test = parts.train, parts.test
    if isinstance(q, AmortParams):
        active = np.flatnonzero(train.counts > 0)
        rows = net_rows(q.net, train, active)
    else:
        active = np.arange(train.n_branches)
        rows = q.W if isinstance(q, BranchParams) else None
    train_obs, test_obs = train.batch(active), test.batch(active)
    D, dz = model.global_dim, model.local_dim
    gen = rng.generator()
    log_ratio, test_loglik = np.empty(k), np.empty(k)
    for j in range(k):
        if rows is None:
            X, logq, _ = joint_draw_batch(q, gen.standard_normal((1, q.total_dim)))
            THETA, Z = X[:, :D], X[:, D:].reshape(1, active.size, dz)
        else:
            THETA, logq, _ = factor_draw_batch(q.v, gen.standard_normal((1, D)))
            Z, logq_w, _ = local_draw_rows(rows, q.structure, factor_gamma(q.v), THETA,
                                           gen.standard_normal((1, active.size, dz)))
            logq = logq + np.sum(logq_w)
        lp = float(model.log_prior(THETA)[0]
                   + np.sum(model.log_branch_vals(THETA, Z, train_obs)))
        log_ratio[j] = lp - float(logq[0])
        test_loglik[j] = float(np.sum(model.log_obs_vals(THETA, Z, test_obs)))
    return log_mean_exp(test_loglik), log_mean_exp(log_ratio), float(np.mean(log_ratio))


def _counted(model):
    """A copy of ``model`` whose callables record the number of draws of each call."""
    calls = {name: [] for name in ("log_prior", "log_prior_grad", "log_branch_vals",
                                   "log_branch_grad", "log_obs_vals")}

    def wrap(name):
        fn = getattr(model, name)

        def counted(THETA, *args):
            calls[name].append(THETA.shape[0])
            return fn(THETA, *args)
        return counted

    return dataclasses.replace(model, **{name: wrap(name) for name in calls}), calls


_D, _N, _N_OBS, _GAMMA = 2, 4, 6, 1.5


def _reference_case(model_kind, kind, structure):
    if model_kind == "synthetic":
        data, _ = synthetic_forward_sample(SyntheticConfig(_D, _N, (_N_OBS,) * _N),
                                           RngStream(530))
        model = synthetic_model(_D)
    else:
        data, _ = preference_forward_sample(PreferenceConfig(_D, _N, (_N_OBS,) * _N),
                                            RngStream(531))
        model = preference_model(_D)
    parts = split(data, 0.25, RngStream(532))
    gdim, ldim = model.global_dim, model.local_dim
    if kind == "joint":
        q = init_joint(structure, gdim, ldim, _N, _GAMMA)
    elif kind == "branch":
        q = init_branch(structure, gdim, ldim, _N, _GAMMA)
    else:
        q = init_amortized(structure, gdim, ldim, _D, RngStream(533),
                           AmortArch((3, 3), (4, 4)), gamma=_GAMMA)
    return model, perturb(q, 534, 0.3), parts


_CASES = [(m, k, s) for m in ("synthetic", "preference")
          for k in ("joint", "branch", "amortized") for s in ("dense", "block", "diag")]


class TestChunkedAgainstPerDraw:
    K = 10

    def _check(self, model_kind, kind, structure, chunks, monkeypatch):
        model, q, parts = _reference_case(model_kind, kind, structure)
        if chunks:
            per_draw = (model.global_dim + _N * model.local_dim
                        + int(parts.train.counts.sum()) + int(parts.test.counts.sum()))
            monkeypatch.setattr(metrics, "_CHUNK_VALUES", 3 * per_draw)
        counted, calls = _counted(model)
        rep = evaluate(counted, q, parts, k=self.K, rng=RngStream(535))
        assert calls["log_prior"] == ([3, 3, 3, 1] if chunks else [self.K])
        ref = _per_draw_reference(model, q, parts, self.K, RngStream(535))
        got = (rep.test_ll, rep.train_ll, rep.train_elbo)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        if structure == "diag":
            # elementwise draws: a row's arithmetic does not see the others
            assert got == ref

    @pytest.mark.parametrize("model_kind,kind,structure", _CASES)
    def test_one_chunk_at_the_default_constant(self, model_kind, kind, structure,
                                               monkeypatch):
        self._check(model_kind, kind, structure, False, monkeypatch)

    @pytest.mark.parametrize("model_kind,kind,structure", _CASES)
    def test_chunks_of_three(self, model_kind, kind, structure, monkeypatch):
        self._check(model_kind, kind, structure, True, monkeypatch)


def _synth_full_shape():
    """synth-full's evaluate inputs: dense branch, D = 2, N = 200, n_i = 10,
    an 80/20 split."""
    D, N = 2, 200
    data, _ = synthetic_forward_sample(SyntheticConfig(D, N, (10,) * N), RngStream(536))
    return synthetic_model(D), _loose_params(D, N, seed=538), split(data, 0.2, RngStream(537))


def test_k_draws_make_one_call_of_each_model_callable_per_chunk():
    # A draw holds 2 + 200 * 2 noise values and 1600 + 400 rows, so at 2**13
    # values a chunk is m = 3 draws and K = 200 is 67 chunks (66 of 3, one of 2).
    model, params, parts = _synth_full_shape()
    counted, calls = _counted(model)
    evaluate(counted, params, parts, k=200, rng=RngStream(539))
    chunks = [3] * 66 + [2]
    assert calls == {"log_prior": chunks, "log_prior_grad": [], "log_branch_vals": chunks,
                     "log_branch_grad": [], "log_obs_vals": chunks}


def test_synth_full_shape_report_is_bitwise_the_per_draw_one():
    # theta = mean + EPS @ L.T can round differently over 3 rows than over
    # one, by an ulp of theta; at this size that stays below the last place
    # of log-ratios of -1e3 to -1e4 (at N = 4 it need not, so the grid above
    # checks the dense branch to 1e-12)
    model, params, parts = _synth_full_shape()
    rep = evaluate(model, params, parts, k=200, rng=RngStream(539))
    ref = _per_draw_reference(model, params, parts, 200, RngStream(539))
    assert (rep.test_ll, rep.train_ll, rep.train_elbo) == ref
