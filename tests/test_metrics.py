import json

import numpy as np
import pytest
from scipy.stats import wilcoxon

from branchvi.amortize import AmortArch, init_amortized
from branchvi.data import BranchData, BranchDataset, SplitDataset, split
from branchvi.families import branch_from_tree, branch_to_tree, init_branch
from branchvi.gaussmath import tril_unmap
from branchvi.metrics import evaluate, log_mean_exp, write_report
from branchvi.models import (
    SyntheticConfig,
    preference_model,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from branchvi.rng import RngStream
from branchvi.trees import tree_flatten, tree_unflatten


def _synthetic_setup(D=1, N=2, n=4, seed=500, test_fraction=0.25):
    cfg = SyntheticConfig(D, N, (n,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(seed))
    parts = split(data, test_fraction, RngStream(seed + 1))
    model = synthetic_model(D, N, (n,) * N)
    return model, data, parts


def _loose_params(D, N, seed=501):
    params = init_branch("dense", D, D, N)
    tree = branch_to_tree(params)
    flat = tree_flatten(tree)
    flat = flat + RngStream(seed).generator().standard_normal(flat.size) * 0.4
    return branch_from_tree(params, tree_unflatten(tree, flat))


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
        params = init_branch("dense", 1, 1, 2)
        params.v = oracle.posterior_global
        for i, b in enumerate(data.branches):
            C = np.linalg.inv(np.eye(1) + b.x.T @ b.x)
            w = params.local(i)
            w.mu[:] = C @ (b.x.T @ b.y)
            w.A[:] = C
            w.chol.raw[:] = tril_unmap(np.linalg.cholesky(C)).raw
        rep = evaluate(model, params, parts, k=50, rng=RngStream(505))
        assert rep.train_ll == pytest.approx(oracle.log_marginal, abs=1e-6)
        assert rep.train_elbo == pytest.approx(oracle.log_marginal, abs=1e-6)

    def test_half_predictor_test_ll(self):
        # zero covariates force sigmoid(0) = 1/2 for every test rating
        D, N = 1, 2
        model = preference_model(D, N, (2, 2))
        gen = RngStream(506).generator()
        train = BranchDataset([BranchData(gen.standard_normal((2, D)),
                                          np.array([0.0, 1.0])) for _ in range(N)], D)
        test = BranchDataset([BranchData(np.zeros((3, D)),
                                         (gen.random(3) < 0.5).astype(float))
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
        model = synthetic_model(D, N, (2, 2, 2))
        gen = RngStream(513).generator()
        train_branches = [BranchData(gen.standard_normal((2, D)), gen.standard_normal(2)),
                          BranchData(np.zeros((0, D)), np.zeros(0)),
                          BranchData(gen.standard_normal((2, D)), gen.standard_normal(2))]
        test_branches = [BranchData(gen.standard_normal((1, D)), gen.standard_normal(1))
                         for _ in range(N)]
        parts = SplitDataset(BranchDataset(train_branches, D),
                             BranchDataset(test_branches, D))
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
