"""Training loop shared by the CLI and the experiment scripts.

The loop owns the single mutable parameter copy. Per-iteration randomness
derives from root.child(iteration), so a run resumed from a checkpoint
replays the remaining iterations on exactly the same noise as an
uninterrupted run. The trace keeps an online exponential moving average of
the estimate with smoothing 0.001.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .amortize import AmortParams, amort_from_tree, amort_to_tree
from .data import BranchDataset
from .errors import EstimatorError, MalformedParamsError, NonFiniteGradientError
from .estimators import MinibatchSampler, amortized_elbo, joint_elbo, subsampled_branch_elbo
from .families import (
    BranchParams,
    JointFamily,
    branch_from_tree,
    branch_to_tree,
    joint_from_tree,
    joint_to_tree,
)
from .models import HbdModel
from .optim import AdamState, LrSchedule, adam_init, adam_step, lr_at
from .rng import RngStream
from .trees import tree_flatten, tree_unflatten

EMA_SMOOTHING = 0.001


def params_to_tree(params) -> dict:
    if isinstance(params, JointFamily):
        return joint_to_tree(params)
    if isinstance(params, BranchParams):
        return branch_to_tree(params)
    if isinstance(params, AmortParams):
        return amort_to_tree(params)
    raise MalformedParamsError(f"unknown parameter container {type(params).__name__}")


def params_from_tree(params, tree: dict):
    if isinstance(params, JointFamily):
        return joint_from_tree(params, tree)
    if isinstance(params, BranchParams):
        return branch_from_tree(params, tree)
    if isinstance(params, AmortParams):
        return amort_from_tree(params, tree)
    raise MalformedParamsError(f"unknown parameter container {type(params).__name__}")


@dataclass
class TraceRecord:
    iter: int
    wall_seconds: float
    lr: float
    elbo: float
    ema_elbo: float


@dataclass
class TrainResult:
    params: object
    adam: AdamState
    ema: float
    records: list = field(default_factory=list)
    final_elbo: float = float("nan")


def make_estimator(kind: str, model: HbdModel, data: BranchDataset,
                   batch_size: int, n_mc: int):
    """Bind an estimator closure (params, rng) -> (estimate, grads)."""
    N = data.n_branches
    if kind == "joint":
        def run(params, rng):
            return joint_elbo(model, params, data, rng, n_mc)
        return run
    if batch_size <= 0 or batch_size > N:
        batch_size = N
    sampler = MinibatchSampler(N, batch_size)
    if kind == "branch":
        # At batch_size == N the sampler draws no randomness and the scale is
        # 1, so this is bitwise the full-sum branch_elbo.
        def run(params, rng):
            return subsampled_branch_elbo(model, params, data, sampler, rng, n_mc)
        return run
    if kind == "amortized":
        def run(params, rng):
            return amortized_elbo(model, params.v, params.net, data, sampler, rng, n_mc)
        return run
    raise MalformedParamsError(f"unknown family kind {kind!r}")


def train(model: HbdModel, params, data: BranchDataset, *, kind: str,
          schedule: LrSchedule, iters: int, rng: RngStream,
          batch_size: int = 0, n_mc: int = 10, trace_every: int = 100,
          start_iter: int = 0, adam: AdamState | None = None,
          ema: float | None = None, on_record=None) -> TrainResult:
    """Run the optimizer from start_iter to iters; returns final state.

    ``rng`` is the run-level stream; iteration t uses rng.child(t) so the
    trajectory is independent of how the run is segmented across resumes.
    """
    estimator = make_estimator(kind, model, data, batch_size, n_mc)
    template = params_to_tree(params)
    flat = tree_flatten(template)
    # adam_step updates its state in place: work on a copy so a caller's
    # state (a previous run's result, a loaded checkpoint) stays as it was.
    adam = adam_init(flat.size) if adam is None else replace(
        adam, m=np.array(adam.m, dtype=float), s=np.array(adam.s, dtype=float))
    records: list = []
    t_start = time.perf_counter()
    est_value = float("nan")
    for t in range(start_iter, iters):
        lr = lr_at(schedule, t)
        try:
            est, grads = estimator(params, rng.child(t))
        except EstimatorError as exc:
            raise EstimatorError(
                f"iteration {t}: {exc}", branch=exc.branch, copy=exc.copy) from exc
        est_value = float(est.value)
        ema = est_value if ema is None else (
            EMA_SMOOTHING * est_value + (1.0 - EMA_SMOOTHING) * ema)
        gflat = np.concatenate([grads[k].ravel() for k in template]) if template else np.zeros(0)
        try:
            adam, flat = adam_step(adam, flat, gflat, lr)
        except NonFiniteGradientError as exc:
            raise NonFiniteGradientError(f"iteration {t}: {exc}") from exc
        params = params_from_tree(params, tree_unflatten(template, flat))
        template = params_to_tree(params)
        if trace_every and (t % trace_every == 0 or t == iters - 1):
            rec = TraceRecord(t, time.perf_counter() - t_start, lr, est_value, ema)
            records.append(rec)
            if on_record is not None:
                on_record(rec)
    return TrainResult(params, adam, float("nan") if ema is None else ema,
                       records, est_value)
