import hashlib

import numpy as np
import pytest

from branchvi import families
from branchvi.amortize import AmortArch, init_amortized
from branchvi.errors import EstimatorError
from branchvi.families import init_branch, init_joint
from branchvi.models import SyntheticConfig, synthetic_forward_sample, synthetic_model
from branchvi.optim import LrSchedule
from branchvi.rng import RngStream
from branchvi.training import params_to_tree, train
from branchvi.trees import tree_flatten
from branchvi.families import branch_to_tree


def _setup(seed=700):
    cfg = SyntheticConfig(1, 3, (3, 3, 3))
    data, _ = synthetic_forward_sample(cfg, RngStream(seed))
    return synthetic_model(1, 3, (3, 3, 3)), data


def test_resume_matches_uninterrupted_run():
    model, data = _setup()
    sched = LrSchedule(1e-2, drop_every=100, drop_factor=0.1, max_drops=1)

    full = train(model, init_branch("dense", 1, 1, 3), data, kind="branch",
                 schedule=sched, iters=200, rng=RngStream(701), n_mc=3,
                 trace_every=50)

    first = train(model, init_branch("dense", 1, 1, 3), data, kind="branch",
                  schedule=sched, iters=100, rng=RngStream(701), n_mc=3,
                  trace_every=50)
    second = train(model, first.params, data, kind="branch", schedule=sched,
                   iters=200, rng=RngStream(701), n_mc=3, trace_every=50,
                   start_iter=100, adam=first.adam, ema=first.ema)

    assert second.ema == pytest.approx(full.ema, abs=1e-9)
    f_full = tree_flatten(branch_to_tree(full.params))
    f_resumed = tree_flatten(branch_to_tree(second.params))
    assert np.allclose(f_full, f_resumed, atol=1e-12)
    by_iter = {r.iter: r for r in full.records}
    for rec in second.records:
        assert rec.elbo == pytest.approx(by_iter[rec.iter].elbo, abs=1e-9)


def test_same_seed_reproduces_trajectory():
    model, data = _setup()
    sched = LrSchedule(1e-2)
    r1 = train(model, init_branch("diag", 1, 1, 3), data, kind="branch",
               schedule=sched, iters=50, rng=RngStream(702), n_mc=2, trace_every=10)
    r2 = train(model, init_branch("diag", 1, 1, 3), data, kind="branch",
               schedule=sched, iters=50, rng=RngStream(702), n_mc=2, trace_every=10)
    assert [r.elbo for r in r1.records] == [r.elbo for r in r2.records]


def test_subsampled_training_improves_elbo():
    model, data = _setup()
    sched = LrSchedule(1e-2)
    res = train(model, init_branch("dense", 1, 1, 3), data, kind="branch",
                schedule=sched, iters=800, rng=RngStream(703), n_mc=3,
                batch_size=2, trace_every=100)
    assert res.records[-1].ema_elbo > res.records[0].ema_elbo


def test_estimator_error_carries_iteration():
    model, data = _setup()
    # blow up the model after a few calls to exercise the error path
    calls = {"n": 0}
    orig = model.log_branch_grad

    def flaky(theta, z, d):
        calls["n"] += 1
        if calls["n"] > 20:
            return np.nan, np.zeros_like(theta), np.zeros_like(z)
        return orig(theta, z, d)

    model.log_branch_grad = flaky
    with pytest.raises(EstimatorError, match="iteration"):
        train(model, init_branch("dense", 1, 1, 3), data, kind="branch",
              schedule=LrSchedule(1e-2), iters=50, rng=RngStream(704), n_mc=2,
              trace_every=0)


def test_trace_record_fields_monotone_iter():
    model, data = _setup()
    res = train(model, init_branch("block", 1, 1, 3), data, kind="branch",
                schedule=LrSchedule(1e-3), iters=30, rng=RngStream(705), n_mc=2,
                trace_every=7)
    iters = [r.iter for r in res.records]
    assert iters == sorted(iters)
    assert iters[-1] == 29
    assert all(np.isfinite(r.ema_elbo) for r in res.records)


def test_small_instance_reaches_oracle_within_budget():
    # dense branch on D=1, N=1 must close to within 0.01 nats of the exact
    # log-marginal in at most 20k steps
    from branchvi.estimators import branch_elbo
    from branchvi.models import synthetic_oracle

    cfg = SyntheticConfig(1, 1, (5,))
    data, _ = synthetic_forward_sample(cfg, RngStream(710))
    model = synthetic_model(1, 1, (5,))
    logZ = synthetic_oracle(data).log_marginal
    sched = LrSchedule(1e-2, drop_every=8000, drop_factor=0.1, max_drops=2)
    res = train(model, init_branch("dense", 1, 1, 1), data, kind="branch",
                schedule=sched, iters=20_000, rng=RngStream(711), n_mc=10,
                trace_every=0)
    vals = np.array([branch_elbo(model, res.params, data, RngStream(712, k), n_mc=1,
                                 want_grad=False)[0].value for k in range(2000)])
    assert abs(vals.mean() - logZ) < 0.01


def test_subsampled_step_builds_locals_for_the_batch_only(monkeypatch):
    N, B = 5000, 4
    cfg = SyntheticConfig(1, N, (2,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(720))
    model = synthetic_model(1, N, (2,) * N)
    built = {"n": 0}
    orig = families.LocalParams.__post_init__

    def counting(self):
        built["n"] += 1
        orig(self)

    monkeypatch.setattr(families.LocalParams, "__post_init__", counting)
    train(model, init_branch("dense", 1, 1, N), data, kind="branch",
          schedule=LrSchedule(1e-2), iters=1, rng=RngStream(721), n_mc=2,
          batch_size=B, trace_every=0)
    assert built["n"] == B


def _digest(params) -> str:
    return hashlib.sha256(tree_flatten(params_to_tree(params)).tobytes()).hexdigest()


@pytest.mark.parametrize("kind", ["joint", "branch", "amortized"])
def test_train_leaves_input_params_unchanged(kind):
    model, data = _setup()
    if kind == "joint":
        params = init_joint("dense", 1, 1, 3)
    elif kind == "branch":
        params = init_branch("dense", 1, 1, 3)
    else:
        params = init_amortized("dense", 1, 1, 1, RngStream(722), AmortArch((3, 3), (4, 4)))
    before = _digest(params)
    res = train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=3,
                rng=RngStream(723), n_mc=2, batch_size=0 if kind == "joint" else 2,
                trace_every=0)
    assert _digest(params) == before
    assert _digest(res.params) != before
