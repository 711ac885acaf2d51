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

from .amortize import AmortParams, net_to_tree
from .data import BranchDataset
from .errors import (EstimatorError, InvalidDataError, MalformedParamsError,
                     NonFiniteGradientError)
from .estimators import MinibatchSampler, amortized_elbo, joint_elbo, subsampled_branch_elbo
from .families import BranchParams, JointFamily, factor_tree, joint_factors
from .models import HbdModel
from .optim import AdamState, LrSchedule, adam_init, adam_step, lr_at
from .rng import RngStream
from .trees import tree_flatten, tree_rebind, tree_views

EMA_SMOOTHING = 0.001


def params_to_tree(params) -> dict:
    """The container's own arrays by checkpoint key (``params.<key>``), in
    flat order: each joint factor's ``<prefix>.mean`` and ``.raw`` (or
    ``.scale_raw``); ``v.*`` then ``w`` (each branch's row of locals in
    turn) for a branch family; ``v.*`` then ``net.*`` for an amortized one.
    Gradients, containers of the same types, are laid out alike.
    """
    if isinstance(params, JointFamily):
        tree = {}
        for prefix, v, _, _ in joint_factors(params):
            tree.update(factor_tree(prefix, v))
        return tree
    if isinstance(params, BranchParams):
        return {**factor_tree("v", params.v), "w": params.W}
    if isinstance(params, AmortParams):
        return {**factor_tree("v", params.v),
                **{f"net.{k}": a for k, a in net_to_tree(params.net).items()}}
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


# The parameter container each family kind trains.
_CONTAINERS = {"joint": JointFamily, "branch": BranchParams, "amortized": AmortParams}


def make_estimator(kind: str, model: HbdModel, data: BranchDataset,
                   batch_size: int, n_mc: int, params):
    """Bind an estimator closure (params, rng) -> (estimate, grads).

    ``params`` must be the container ``kind`` trains (``_CONTAINERS``);
    anything else raises MalformedParamsError naming both. ``batch_size`` is
    0 (the full batch) to N, or 0 or N for a joint family, which has no
    subsampled estimator; anything else raises InvalidDataError.
    """
    if kind not in _CONTAINERS:
        raise MalformedParamsError(f"unknown family kind {kind!r}")
    if not isinstance(params, _CONTAINERS[kind]):
        raise MalformedParamsError(f"family kind {kind!r} trains {_CONTAINERS[kind].__name__}, "
                                   f"got {type(params).__name__}")
    N = data.n_branches
    if kind == "joint" and batch_size not in (0, N):
        raise InvalidDataError(f"joint families cannot be subsampled; --batch-size must be "
                               f"0 (full) or the dataset's {N} branches, got {batch_size}")
    if batch_size > N:
        raise InvalidDataError(f"--batch-size must be in [0, {N}] (the dataset's branches), "
                               f"got {batch_size}")
    if kind == "joint":
        def run(params, rng):
            return joint_elbo(model, params, data, rng, n_mc)
        return run
    sampler = MinibatchSampler(N, batch_size or N)  # 0 is the full batch
    if kind == "branch":
        # At batch_size == N the sampler draws no randomness and the scale is
        # 1, so this is bitwise the full-sum branch_elbo.
        def run(params, rng):
            return subsampled_branch_elbo(model, params, data, sampler, rng, n_mc)
        return run

    def run(params, rng):
        return amortized_elbo(model, params.v, params.net, data, sampler, rng, n_mc)
    return run


def train(model: HbdModel, params, data: BranchDataset, *, kind: str,
          schedule: LrSchedule, iters: int, rng: RngStream,
          batch_size: int = 0, n_mc: int = 10, trace_every: int = 100,
          start_iter: int = 0, adam: AdamState | None = None,
          ema: float | None = None, on_record=None) -> TrainResult:
    """Run the optimizer from start_iter to iters; returns final state.

    ``rng`` is the run-level stream; iteration t uses rng.child(t) so the
    trajectory is independent of how the run is segmented across resumes.

    The run holds one flat parameter vector in the order of
    ``params_to_tree``, and hands Adam each gradient as its arrays in that
    order, unflattened. The parameters it trains (and returns)
    have every array as a view into that vector; the caller's params and
    AdamState are copied in once and never written. A branch run with a batch
    smaller than N takes lazy-row Adam steps on W (see ``optim.adam_step``).
    """
    estimator = make_estimator(kind, model, data, batch_size, n_mc, params)
    tree = params_to_tree(params)
    flat = tree_flatten(tree)  # a copy of the caller's values
    params = tree_rebind(params, tree, tree_views({k: a.shape for k, a in tree.items()}, flat))
    lazy = isinstance(params, BranchParams) and 0 < batch_size < params.n_branches
    adam = _adam_copy(adam, flat.size, params)
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
        g = list(params_to_tree(grads).values())
        try:
            if lazy:
                adam_step(adam, flat, g, lr, rows=est.batch, width=params.W.shape[1],
                          schedule=schedule)
            else:
                adam_step(adam, flat, g, lr)
        except NonFiniteGradientError as exc:
            raise NonFiniteGradientError(f"iteration {t}: {exc}") from exc
        if trace_every and (t % trace_every == 0 or t == iters - 1):
            rec = TraceRecord(t, time.perf_counter() - t_start, lr, est_value, ema)
            records.append(rec)
            if on_record is not None:
                on_record(rec)
    return TrainResult(params, adam, float("nan") if ema is None else ema,
                       records, est_value)


def _adam_copy(adam: AdamState | None, n_params: int, params) -> AdamState:
    """The run's own optimizer state: fresh, or a copy of the caller's.

    A branch family's W rows carry tau; a state without it (an older
    checkpoint's) counts every row as updated at its step t.
    """
    if adam is None:
        out = adam_init(n_params)
    else:
        if adam.m.size != n_params or adam.s.size != n_params:
            raise MalformedParamsError(
                f"optimizer state holds {adam.m.size} moments, the parameters {n_params}")
        out = replace(adam, m=np.array(adam.m, dtype=float), s=np.array(adam.s, dtype=float))
    if isinstance(params, BranchParams):
        N = params.n_branches
        out.tau = (np.full(N, out.t, dtype=np.int64) if adam is None or adam.tau is None
                   else np.array(adam.tau, dtype=np.int64))
        if out.tau.shape != (N,):
            raise MalformedParamsError(f"optimizer tau has shape {out.tau.shape}, W has {N} rows")
    else:
        out.tau = None
    return out
