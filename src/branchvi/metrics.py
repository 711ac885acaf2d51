"""Posterior-sample metrics: test likelihood, train likelihood, train ELBO.

All three come from K fresh draws (theta^k, z^k) of the trained family:

  test-ll    log (1/K) sum_k p(y_test | x_test, z^k, theta^k)
  train-ll   log (1/K) sum_k p(y_train, z^k, theta^k | x_train) / q(z^k, theta^k)
  train-elbo (1/K) sum_k log of the same ratio

computed with overflow-safe log-mean-exp. Amortized families condition w_i
on TRAIN observations only, so test data never leaks into the sampler;
branches whose train part is empty are skipped with a warning (their w_i is
undefined).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .amortize import AmortParams, net_rows
from .data import SplitDataset
from .errors import MalformedParamsError
from .families import (BranchParams, JointFamily, factor_draw_batch, joint_draw_batch,
                       local_draw_rows)
from .models import HbdModel
from .rng import RngStream

DEFAULT_K = 10_000


@dataclass
class MetricReport:
    test_ll: float
    train_ll: float
    train_elbo: float
    k: int
    n_test: int
    n_train: int
    test_ll_per_rating: float
    train_ll_per_rating: float
    train_elbo_per_rating: float
    skipped_branches: list = field(default_factory=list)


def log_mean_exp(values: np.ndarray) -> float:
    """max-shifted log of the mean of exp; finite for spans of +-700."""
    values = np.asarray(values, dtype=float)
    top = float(np.max(values))
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.mean(np.exp(values - top))))


def evaluate(model: HbdModel, q, split: SplitDataset, k: int = DEFAULT_K,
             rng: RngStream | None = None) -> MetricReport:
    """Metric report from K posterior samples of the trained family ``q``.

    ``q`` may be a JointFamily, BranchParams, or AmortParams; amortized
    locals come from the network on each branch's train data, run once in
    bounded chunks (``net_rows``). Each draw makes one batched model call
    over the train branches and one over the test branches.
    """
    if k < 1:
        raise MalformedParamsError("k must be at least 1")
    if rng is None:
        rng = RngStream(0)
    train, test = split.train, split.test
    N = train.n_branches

    skipped: list = []
    rows = None                 # packed locals of the active branches (branch kinds)
    if isinstance(q, AmortParams):
        skipped = np.flatnonzero(train.counts == 0).tolist()
        active = np.flatnonzero(train.counts > 0)
        if skipped:
            warnings.warn(
                f"excluding {len(skipped)} branch(es) with empty train data "
                "from metrics (amortized locals undefined)")
        rows = net_rows(q.net, train, active)
        structure, gamma = q.net.structure, q.net.gamma
    elif isinstance(q, (BranchParams, JointFamily)):
        if q.n_branches != N:
            raise MalformedParamsError("family branch count must match the split")
        active = np.arange(N)
        if isinstance(q, BranchParams):
            rows, structure, gamma = q.W, q.structure, q.gamma
    else:
        raise MalformedParamsError(f"unsupported family container {type(q).__name__}")
    train_obs, test_obs = train.batch(active), test.batch(active)
    D, dz = model.global_dim, model.local_dim

    gen = rng.generator()
    log_ratio = np.empty(k)
    test_loglik = np.empty(k)
    for j in range(k):
        if rows is None:
            X, logq, _ = joint_draw_batch(q, gen.standard_normal((1, q.total_dim)))
            THETA, Z = X[:, :D], X[:, D:].reshape(1, N, dz)
        else:
            THETA, logq, _ = factor_draw_batch(q.v, gen.standard_normal((1, D)))
            Z, logq_w, _ = local_draw_rows(rows, structure, gamma, THETA,
                                           gen.standard_normal((1, active.size, dz)))
            logq = logq + np.sum(logq_w)
        lp = float(model.log_prior(THETA)[0]
                   + np.sum(model.log_branch_vals(THETA, Z, train_obs)))
        log_ratio[j] = lp - float(logq[0])
        test_loglik[j] = float(np.sum(model.log_obs_vals(THETA, Z, test_obs)))

    n_train = int(train_obs.counts.sum())
    n_test = int(test_obs.counts.sum())
    train_ll = log_mean_exp(log_ratio)
    train_elbo = float(np.mean(log_ratio))
    test_ll = log_mean_exp(test_loglik)
    return MetricReport(
        test_ll=test_ll, train_ll=train_ll, train_elbo=train_elbo, k=k,
        n_test=n_test, n_train=n_train,
        test_ll_per_rating=test_ll / n_test if n_test else 0.0,
        train_ll_per_rating=train_ll / n_train if n_train else 0.0,
        train_elbo_per_rating=train_elbo / n_train if n_train else 0.0,
        skipped_branches=skipped,
    )


def write_report(report: MetricReport, text_path, json_path) -> None:
    import json

    fields = asdict(report)
    with open(text_path, "w") as fh:
        for key, val in fields.items():
            if key == "skipped_branches":
                val = ",".join(str(v) for v in val)
            fh.write(f"{key} = {val}\n")
    with open(json_path, "w") as fh:
        json.dump(fields, fh, indent=2)
        fh.write("\n")
