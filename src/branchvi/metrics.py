"""Posterior-sample metrics: test likelihood, train likelihood, train ELBO.

All three come from K fresh draws (theta^k, z^k) of the trained family:

  test-ll    log (1/K) sum_k p(y_test | x_test, z^k, theta^k)
  train-ll   log (1/K) sum_k p(y_train, z^k, theta^k | x_train) / q(z^k, theta^k)
  train-elbo (1/K) sum_k log of the same ratio

computed with overflow-safe log-mean-exp. The K draws go in chunks of m
(the rule is in ``evaluate``), and each chunk makes one batched model call
per term, as the estimators do over MC copies. Amortized families condition
w_i on TRAIN observations only, so test data never leaks into the sampler;
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
from .families import (BranchParams, JointFamily, factor_draw_batch, factor_gamma,
                       joint_draw_batch, local_draw_rows)
from .models import HbdModel
from .rng import RngStream

DEFAULT_K = 10_000

# Values per chunk of draws in ``evaluate``: a draw holds D + A dz noise
# values and one model value per train and test row, so this bounds a
# chunk's temporaries whatever K is, as ``amortize._CHUNK_ROWS`` bounds the net's.
# 2**13 keeps them inside the heap a training run leaves free (m = 3 at
# N = 200, n_i = 10, D = 2); at 2**15 evaluating raised such a run's peak RSS.
_CHUNK_VALUES = 2 ** 13


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
    bounded chunks (``net_rows``). The draws go in chunks of
    m = max(1, _CHUNK_VALUES // (D + A dz + train rows + test rows)), A the
    number of active branches. A chunk is one (m, D + A dz) noise draw, row
    j holding draw j's theta noise then each z_i's, and one batched call of
    each model callable over the train branches or the test branches.
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
    elif isinstance(q, (BranchParams, JointFamily)):
        if q.n_branches != N:
            raise MalformedParamsError("family branch count must match the split")
        active = np.arange(N)
        if isinstance(q, BranchParams):
            rows = q.W
    else:
        raise MalformedParamsError(f"unsupported family container {type(q).__name__}")
    train_obs, test_obs = train.batch(active), test.batch(active)
    n_train = int(train_obs.counts.sum())
    n_test = int(test_obs.counts.sum())
    D, dz, A = model.global_dim, model.local_dim, active.size
    width = D + A * dz
    m = max(1, _CHUNK_VALUES // (width + n_train + n_test))

    gen = rng.generator()
    log_ratio = np.empty(k)
    test_loglik = np.empty(k)
    for start in range(0, k, m):
        M = min(m, k - start)
        EPS = gen.standard_normal((M, width))
        if rows is None:
            X, logq, _ = joint_draw_batch(q, EPS)
            THETA, Z = X[:, :D], X[:, D:].reshape(M, A, dz)
        else:
            THETA, logq, _ = factor_draw_batch(q.v, EPS[:, :D])
            Z, logq_w, _ = local_draw_rows(rows, q.structure, factor_gamma(q.v), THETA,
                                           EPS[:, D:].reshape(M, A, dz))
            logq = logq + logq_w.sum(axis=1)
        log_ratio[start:start + M] = (model.log_prior(THETA)
                                      + model.log_branch_vals(THETA, Z, train_obs).sum(axis=1)
                                      - logq)
        test_loglik[start:start + M] = model.log_obs_vals(THETA, Z, test_obs).sum(axis=1)

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
