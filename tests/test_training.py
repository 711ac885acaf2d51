import hashlib
import tracemalloc

import numpy as np
import pytest

from branchvi.amortize import AmortArch, init_amortized
from branchvi.errors import EstimatorError, InvalidDataError, MalformedParamsError
from branchvi.families import init_branch, init_joint
from branchvi.data import from_branches
from branchvi.models import (
    SyntheticConfig,
    preference_model,
    synthetic_forward_sample,
    synthetic_model,
)
from branchvi.optim import LrSchedule, adam_init, lr_at
from branchvi.rng import RngStream
from branchvi.estimators import branch_elbo
from branchvi.training import make_estimator, params_to_tree, train
from branchvi.trees import tree_flatten
from helpers import flat_copy, flat_grads
from test_optim import reference_adam_step


def _setup(seed=700):
    cfg = SyntheticConfig(1, 3, (3, 3, 3))
    data, _ = synthetic_forward_sample(cfg, RngStream(seed))
    return synthetic_model(1), data


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
    f_full = tree_flatten(params_to_tree(full.params))
    f_resumed = tree_flatten(params_to_tree(second.params))
    assert np.allclose(f_full, f_resumed, atol=1e-12)
    by_iter = {r.iter: r for r in full.records}
    for rec in second.records:
        assert rec.elbo == pytest.approx(by_iter[rec.iter].elbo, abs=1e-9)


def test_amortized_resume_matches_uninterrupted_run():
    model, data = _setup()
    sched = LrSchedule(1e-2, drop_every=100, drop_factor=0.1, max_drops=1)

    def fresh():
        return init_amortized("dense", 1, 1, 1, RngStream(706), AmortArch((3, 3), (4, 4)))

    common = dict(kind="amortized", schedule=sched, rng=RngStream(707), n_mc=3,
                  batch_size=2, trace_every=50)
    full = train(model, fresh(), data, iters=200, **common)
    first = train(model, fresh(), data, iters=100, **common)
    second = train(model, first.params, data, iters=200, start_iter=100,
                   adam=first.adam, ema=first.ema, **common)

    assert second.ema == pytest.approx(full.ema, abs=1e-9)
    f_full = tree_flatten(params_to_tree(full.params))
    f_resumed = tree_flatten(params_to_tree(second.params))
    assert np.allclose(f_full, f_resumed, atol=1e-12)
    by_iter = {r.iter: r for r in full.records}
    for rec in second.records:
        assert rec.elbo == pytest.approx(by_iter[rec.iter].elbo, abs=1e-9)


def test_train_leaves_callers_adam_state_unchanged():
    _check_callers_state_unchanged(batch_size=0)


def test_lazy_train_leaves_callers_adam_state_unchanged():
    _check_callers_state_unchanged(batch_size=2)


def _check_callers_state_unchanged(batch_size):
    model, data = _setup()
    sched = LrSchedule(1e-2)
    common = dict(kind="branch", schedule=sched, rng=RngStream(709), n_mc=2, trace_every=0,
                  batch_size=batch_size)
    first = train(model, init_branch("dense", 1, 1, 3), data, iters=20, **common)
    m, s, t, tau = first.adam.m.copy(), first.adam.s.copy(), first.adam.t, first.adam.tau.copy()
    flat = tree_flatten(params_to_tree(first.params))
    # read-only, so any write into the caller's arrays fails loudly
    for a in (first.adam.m, first.adam.s, first.adam.tau, first.params.W,
              first.params.v.mean, first.params.v.chol.raw):
        a.setflags(write=False)
    runs = [train(model, first.params, data, iters=40, start_iter=20, adam=first.adam,
                  **common) for _ in range(2)]
    assert first.adam.t == t
    assert np.array_equal(first.adam.m, m) and np.array_equal(first.adam.s, s)
    assert np.array_equal(first.adam.tau, tau)
    assert np.array_equal(tree_flatten(params_to_tree(first.params)), flat)
    assert runs[0].adam is not first.adam and runs[0].adam.t == 40
    assert not np.shares_memory(runs[0].params.W, first.params.W)
    assert np.array_equal(tree_flatten(params_to_tree(runs[0].params)),
                          tree_flatten(params_to_tree(runs[1].params)))


@pytest.mark.parametrize("kind", ["joint", "branch", "amortized"])
def test_result_params_are_views_of_one_vector(kind):
    model, data = _setup()
    if kind == "joint":
        params = init_joint("dense", 1, 1, 3)
    elif kind == "branch":
        params = init_branch("dense", 1, 1, 3)
    else:
        params = init_amortized("dense", 1, 1, 1, RngStream(740), AmortArch((3, 3), (4, 4)))
    res = train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=3,
                rng=RngStream(741), n_mc=2, batch_size=0 if kind == "joint" else 2,
                trace_every=0)
    arrays = list(params_to_tree(res.params).values())
    base = arrays[0].base
    assert base is not None and base.size == sum(a.size for a in arrays)
    assert all(a.base is base for a in arrays)


@pytest.mark.parametrize("kind, batch_size, needle", [
    ("joint", 2, "joint families cannot be subsampled"),
    ("branch", 4, r"--batch-size must be in \[0, 3\]"),
    ("amortized", 4, r"--batch-size must be in \[0, 3\]"),
])
def test_batch_size_checked_against_data_before_the_first_step(kind, batch_size, needle):
    # A joint family has no subsampled estimator, so B must be 0 or N; any
    # family's B is at most N. The library raises before it takes a step.
    model, data = _setup()
    params = {"joint": init_joint("dense", 1, 1, 3), "branch": init_branch("dense", 1, 1, 3),
              "amortized": init_amortized("dense", 1, 1, 1, RngStream(746),
                                          AmortArch((3, 3), (4, 4)))}[kind]
    seen = []
    with pytest.raises(InvalidDataError, match=needle):
        train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=3,
              rng=RngStream(747), n_mc=2, batch_size=batch_size, trace_every=1,
              on_record=seen.append)
    assert seen == []
    if kind == "joint":  # the full batch, as 0 or as N, trains
        for full in (0, 3):
            train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=1,
                  rng=RngStream(747), n_mc=2, batch_size=full, trace_every=0)


@pytest.mark.parametrize("kind, container", [
    ("joint", "branch"), ("joint", "amortized"), ("branch", "joint"),
    ("branch", "amortized"), ("amortized", "joint"), ("amortized", "branch")])
def test_kind_must_match_the_parameter_container(kind, container):
    model, data = _setup()
    params = {"joint": init_joint("dense", 1, 1, 3), "branch": init_branch("dense", 1, 1, 3),
              "amortized": init_amortized("dense", 1, 1, 1, RngStream(748),
                                          AmortArch((3, 3), (4, 4)))}[container]
    names = {"joint": "JointFamily", "branch": "BranchParams", "amortized": "AmortParams"}
    with pytest.raises(MalformedParamsError,
                       match=f"kind '{kind}' trains {names[kind]}, got {names[container]}"):
        train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=1,
              rng=RngStream(749), n_mc=2, trace_every=0)


def _reference_run(kind, model, params, data, sched, iters, rng, batch_size, n_mc):
    """train's dense trajectory, written with the functional reference Adam
    step copied into the parameters' flat vector after every step."""
    estimator = make_estimator(kind, model, data, batch_size, n_mc, params)
    params, flat = flat_copy(params)
    state = adam_init(flat.size)
    for t in range(iters):
        _, grads = estimator(params, rng.child(t))
        state, stepped = reference_adam_step(state, flat, flat_grads(grads),
                                             lr_at(sched, t))
        flat[:] = stepped
    return flat, state


@pytest.mark.parametrize("kind, batch_size", [("branch", 0), ("branch", 3), ("amortized", 2),
                                              ("joint", 0)])
def test_dense_runs_match_reference_adam_bitwise(kind, batch_size):
    # B = N branch runs, amortized and joint runs take the dense step every
    # iteration: 40 steps across an lr drop equal the reference bit for bit
    model, data = _setup()
    if kind == "branch":
        params = init_branch("dense", 1, 1, 3)
    elif kind == "joint":
        params = init_joint("dense", 1, 1, 3)
    else:
        params = init_amortized("dense", 1, 1, 1, RngStream(742), AmortArch((3, 3), (4, 4)))
    sched = LrSchedule(1e-2, drop_every=25, drop_factor=0.1, max_drops=1)
    res = train(model, params, data, kind=kind, schedule=sched, iters=40, rng=RngStream(743),
                batch_size=batch_size, n_mc=2, trace_every=0)
    flat, state = _reference_run(kind, model, params, data, sched, 40, RngStream(743),
                                 batch_size, 2)
    assert np.array_equal(tree_flatten(params_to_tree(res.params)), flat)
    assert np.array_equal(res.adam.m, state.m) and np.array_equal(res.adam.s, state.s)
    assert res.adam.t == 40


def test_lazy_step_leaves_rows_outside_the_batch_unchanged():
    N = 8
    cfg = SyntheticConfig(1, N, (3,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(744))
    model = synthetic_model(1)
    common = dict(kind="branch", schedule=LrSchedule(1e-2), rng=RngStream(745), n_mc=2,
                  batch_size=3, trace_every=0)
    first = train(model, init_branch("dense", 1, 1, N), data, iters=10, **common)
    step = train(model, first.params, data, iters=11, start_iter=10, adam=first.adam, **common)
    est, _ = make_estimator("branch", model, data, 3, 2, first.params)(
        first.params, RngStream(745).child(10))
    out = np.setdiff1d(np.arange(N), est.batch)
    width = first.params.W.shape[1]
    head = first.adam.m.size - N * width
    for new, old in ((step.params.W, first.params.W),
                     (step.adam.m[head:].reshape(N, width), first.adam.m[head:].reshape(N, width)),
                     (step.adam.s[head:].reshape(N, width), first.adam.s[head:].reshape(N, width))):
        assert np.array_equal(new[out], old[out])
        assert not np.array_equal(new[est.batch], old[est.batch])
    assert np.array_equal(step.adam.tau[out], first.adam.tau[out])
    assert np.all(step.adam.tau[est.batch] == 11)
    assert not np.array_equal(step.params.v.mean, first.params.v.mean)


def test_same_seed_reproduces_trajectory():
    model, data = _setup()
    sched = LrSchedule(1e-2)
    r1 = train(model, init_branch("diag", 1, 1, 3), data, kind="branch",
               schedule=sched, iters=50, rng=RngStream(702), n_mc=2, trace_every=10)
    r2 = train(model, init_branch("diag", 1, 1, 3), data, kind="branch",
               schedule=sched, iters=50, rng=RngStream(702), n_mc=2, trace_every=10)
    assert [r.elbo for r in r1.records] == [r.elbo for r in r2.records]


def test_subsampled_training_improves_elbo():
    # Full-data estimates before and after, with common random numbers (one
    # fixed stream, 2000 copies): record 0's EMA is a single 3-copy draw.
    model, data = _setup()
    sched = LrSchedule(1e-2)
    init = init_branch("dense", 1, 1, 3)
    res = train(model, init, data, kind="branch",
                schedule=sched, iters=800, rng=RngStream(703), n_mc=3,
                batch_size=2, trace_every=100)
    crn = RngStream(703, 1)
    before, _ = branch_elbo(model, init, data, crn, n_mc=2000, want_grad=False)
    after, _ = branch_elbo(model, res.params, data, crn, n_mc=2000, want_grad=False)
    assert after.value > before.value


@pytest.mark.parametrize("kind", ["branch", "amortized", "joint"])
def test_steps_after_the_first_build_no_seed_sequence_or_philox(monkeypatch, kind):
    # Streams re-position one thread-local generator; building a SeedSequence
    # or a Philox inside a step would cost more than the draws it serves.
    model, data = _setup()
    params = {"branch": init_branch("dense", 1, 1, 3),
              "amortized": init_amortized("dense", 1, 1, 1, RngStream(706),
                                          AmortArch((3, 3), (4, 4))),
              "joint": init_joint("dense", 1, 1, 3)}[kind]
    built = {"SeedSequence": 0, "Philox": 0}
    for name in built:
        def counting(*args, _name=name, _orig=getattr(np.random, name), **kwargs):
            built[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counting)
    RngStream(1).child(0).generator()
    assert built == {"SeedSequence": 1, "Philox": 1}  # the counters see the library's calls
    seen = []
    train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=6,
          rng=RngStream(709), n_mc=3, batch_size=0 if kind == "joint" else 2,
          trace_every=1, on_record=lambda rec: seen.append(dict(built)))
    assert len(seen) == 6 and all(counts == seen[0] for counts in seen)


@pytest.mark.parametrize("kind, batch_size", [("joint", 0), ("branch", 0), ("branch", 2),
                                              ("amortized", 2)])
def test_train_flattens_only_at_set_up(monkeypatch, kind, batch_size):
    # Adam reads the gradient container's arrays as they are; the one
    # flatten is the set-up copy of the caller's parameters.
    import branchvi.training as training

    model, data = _setup()
    params = {"branch": init_branch("dense", 1, 1, 3),
              "amortized": init_amortized("dense", 1, 1, 1, RngStream(706),
                                          AmortArch((3, 3), (4, 4))),
              "joint": init_joint("dense", 1, 1, 3)}[kind]
    calls = []

    def counting(tree, _orig=training.tree_flatten):
        calls.append(len(tree))
        return _orig(tree)

    monkeypatch.setattr(training, "tree_flatten", counting)
    train(model, params, data, kind=kind, schedule=LrSchedule(1e-2), iters=5,
          rng=RngStream(710), n_mc=2, batch_size=batch_size, trace_every=1)
    assert calls == [len(params_to_tree(params))]


def test_a_full_batch_run_builds_the_moments_once_and_a_step_only_its_own(monkeypatch):
    # The synthetic model reads its batch's cached moments: a full batch is
    # the dataset, so a run builds them once; a subsampled step builds them
    # from its own B branches, never from all N.
    import branchvi.data as bdata

    shapes = []

    def counting(obs, _orig=bdata._branch_moments):
        out = _orig(obs)
        shapes.append(out[0].shape)
        return out

    monkeypatch.setattr(bdata, "_branch_moments", counting)
    data, _ = synthetic_forward_sample(SyntheticConfig(2, 6, (3, 4, 2, 5, 3, 1)),
                                       RngStream(711))
    model = synthetic_model(2)
    for batch_size, want in ((0, [(6, 2, 2)]), (2, [(2, 2, 2)] * 5)):
        shapes.clear()
        train(model, init_branch("dense", 2, 2, 6), data, kind="branch",
              schedule=LrSchedule(1e-2), iters=5, rng=RngStream(712), n_mc=3,
              batch_size=batch_size, trace_every=1)
        assert shapes == want


def test_estimator_error_carries_iteration():
    model, data = _setup()
    # blow up one branch of one MC copy after a few calls to exercise the error path
    calls = {"n": 0}
    orig = model.log_branch_grad

    def flaky(THETA, Z, obs):
        calls["n"] += 1
        vals, g_theta, g_z = orig(THETA, Z, obs)
        if calls["n"] > 5:
            vals[1, 2] = np.nan
        return vals, g_theta, g_z

    model.log_branch_grad = flaky
    with pytest.raises(EstimatorError, match="iteration 5") as exc:
        train(model, init_branch("dense", 1, 1, 3), data, kind="branch",
              schedule=LrSchedule(1e-2), iters=50, rng=RngStream(704), n_mc=2,
              trace_every=0)
    assert "branch 2" in str(exc.value) and "MC copy 1" in str(exc.value)
    assert exc.value.branch == 2 and exc.value.copy == 1


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
    model = synthetic_model(1)
    logZ = synthetic_oracle(data).log_marginal
    sched = LrSchedule(1e-2, drop_every=8000, drop_factor=0.1, max_drops=2)
    res = train(model, init_branch("dense", 1, 1, 1), data, kind="branch",
                schedule=sched, iters=20_000, rng=RngStream(711), n_mc=10,
                trace_every=0)
    vals = np.array([branch_elbo(model, res.params, data, RngStream(712, k), n_mc=1,
                                 want_grad=False)[0].value for k in range(2000)])
    assert abs(vals.mean() - logZ) < 0.01


def test_subsampled_step_builds_locals_for_the_batch_only():
    # One step works on the batch's rows of W in one batched model call.
    N, B = 5000, 4
    cfg = SyntheticConfig(1, N, (2,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(720))
    model = synthetic_model(1)
    calls = []
    orig_grad = model.log_branch_grad

    def recording(THETA, Z, obs):
        calls.append(Z.shape)
        return orig_grad(THETA, Z, obs)

    model.log_branch_grad = recording
    train(model, init_branch("dense", 1, 1, N), data, kind="branch",
          schedule=LrSchedule(1e-2), iters=1, rng=RngStream(721), n_mc=2,
          batch_size=B, trace_every=0)
    assert calls == [(2, B, 1)]


def test_training_with_an_empty_branch_in_the_batch():
    # n_i = 0 is legal: the branch's observation term is 0, its local prior remains.
    gen = RngStream(730).generator()
    branches = [(gen.standard_normal((3, 1)), gen.standard_normal(3)),
                (np.zeros((0, 1)), np.zeros(0)),
                (gen.standard_normal((2, 1)), gen.standard_normal(2))]
    data = from_branches(branches, 1)
    for model in (synthetic_model(1), preference_model(1)):
        if model.global_dim == 2:
            data = from_branches([(x, (y > 0).astype(float)) for x, y in branches], 1)
        params = init_branch("dense", model.global_dim, 1, 3)
        res = train(model, params, data, kind="branch", schedule=LrSchedule(1e-2),
                    iters=200, rng=RngStream(731), n_mc=2, batch_size=2, trace_every=50)
        assert all(np.isfinite(r.elbo) for r in res.records)
        assert np.all(np.isfinite(res.params.W))
        # full-data estimates before and after, with common random numbers
        # (one fixed stream, 2000 copies): record 0's EMA is one 2-copy draw
        crn = RngStream(731, 1)
        before, _ = branch_elbo(model, params, data, crn, n_mc=2000, want_grad=False)
        after, _ = branch_elbo(model, res.params, data, crn, n_mc=2000, want_grad=False)
        assert after.value > before.value


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


@pytest.mark.parametrize("batch_size", [0, 3])
def test_full_batch_branch_estimator_is_branch_elbo_bitwise(batch_size):
    model, data = _setup()
    params = init_branch("dense", 1, 1, 3)
    params.W[:] = RngStream(724).generator().standard_normal(params.W.shape)
    est, grads = make_estimator("branch", model, data, batch_size, 4, params)(
        params, RngStream(725))
    ref, ref_grads = branch_elbo(model, params, data, RngStream(725), 4)
    assert est.value == ref.value
    assert np.array_equal(est.batch, ref.batch)
    tree, ref_tree = params_to_tree(grads), params_to_tree(ref_grads)
    assert list(tree) == list(ref_tree)
    for k in tree:
        assert np.array_equal(tree[k], ref_tree[k]), k


def _step_peaks(kind, n_branches, batch_size, iters=30):
    """The tracemalloc peak of each step after the first, in bytes.

    Each record (trace_every=1) reads the peak since the previous
    ``reset_peak`` less the memory still traced right after that reset, so
    the run's held state (the flat copy, Adam's m, s and tau: O(N)) never
    counts, only what a step allocates on top of it. numpy reports its
    array buffers to tracemalloc, so every array a step builds shows here.
    The first step's peak also holds train's set-up and is dropped.
    """
    data, _ = synthetic_forward_sample(
        SyntheticConfig(2, n_branches, (10,) * n_branches), RngStream(760, n_branches))
    params = (init_branch("dense", 2, 2, n_branches) if kind == "branch"
              else init_amortized("dense", 2, 2, 2, RngStream(761)))
    peaks, held = [], [0]

    def on_record(rec):
        peaks.append(tracemalloc.get_traced_memory()[1] - held[0])
        tracemalloc.reset_peak()
        held[0] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        train(synthetic_model(2), params, data, kind=kind, schedule=LrSchedule(1e-2),
              iters=iters, rng=RngStream(762), batch_size=batch_size, n_mc=10,
              trace_every=1, on_record=on_record)
    finally:
        tracemalloc.stop()
    return peaks[1:]


@pytest.mark.parametrize("kind, batch_size", [("branch", 10), ("amortized", 25)])
def test_a_step_allocates_the_same_at_n_100_and_100_000(kind, batch_size):
    # The paper's scaling claim, deterministically: a subsampled (lazy
    # branch) or amortized step costs O(|B|), so what it allocates must not
    # grow with N. About 27.8 KB a lazy branch step (B = 10) and 3.50 MB an
    # amortized one (B = 25) at both N; the slack, 1% + 1 KiB, is far below
    # one O(N) array at N = 10^5 (a copy of W alone is 7.2 MB). A lazy run
    # at N = 100 builds Adam's catch-up tables (1.5 MB, once per process)
    # in one of its steps, so it runs once before the measured ones. A peak
    # sees an O(N) array if it is alive at the step's own peak or larger
    # than it: at N = 10^5 a transient copy of x (16 MB) inside an amortized
    # step outgrows that step's 3.5 MB, where at N = 10^4 (1.6 MB) it hid.
    if kind == "branch":
        _step_peaks(kind, 100, batch_size)
    small = max(_step_peaks(kind, 100, batch_size))
    large = max(_step_peaks(kind, 100_000, batch_size))
    assert abs(large - small) <= 0.01 * small + 1024, (small, large)
