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
from dataclasses import dataclass, field

import numpy as np

from .amortize import AmortParams, net_forward
from .data import SplitDataset
from .errors import MalformedParamsError
from .families import BranchParams, JointFamily, factor_draw, joint_draw, local_draw
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

    def to_dict(self) -> dict:
        return {
            "test_ll": self.test_ll,
            "train_ll": self.train_ll,
            "train_elbo": self.train_elbo,
            "k": self.k,
            "n_test": self.n_test,
            "n_train": self.n_train,
            "test_ll_per_rating": self.test_ll_per_rating,
            "train_ll_per_rating": self.train_ll_per_rating,
            "train_elbo_per_rating": self.train_elbo_per_rating,
            "skipped_branches": list(self.skipped_branches),
        }


def log_mean_exp(values: np.ndarray) -> float:
    """max-shifted log of the mean of exp; finite for spans of +-700."""
    values = np.asarray(values, dtype=float)
    top = float(np.max(values))
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.mean(np.exp(values - top))))


def _draw_assignment(q, model, active, rng_gen):
    """One (theta, {z_i}, log q) draw for any family container."""
    if isinstance(q, JointFamily):
        draw = joint_draw(q, rng_gen.standard_normal(q.total_dim))
        return draw.theta, draw.z, draw.logq
    theta, logq, _ = factor_draw(q.v, rng_gen.standard_normal(model.global_dim))
    zs = np.empty((len(active), model.local_dim))
    for pos, (i, w) in enumerate(active):
        z, lq, _ = local_draw(w, theta, rng_gen.standard_normal(model.local_dim))
        zs[pos] = z
        logq += lq
    return theta, zs, logq


def evaluate(model: HbdModel, q, split: SplitDataset, k: int = DEFAULT_K,
             rng: RngStream | None = None) -> MetricReport:
    """Metric report from K posterior samples of the trained family ``q``.

    ``q`` may be a JointFamily, BranchParams, or AmortParams; amortized
    locals come from net_forward on each branch's train data.
    """
    if k < 1:
        raise MalformedParamsError("k must be at least 1")
    if rng is None:
        rng = RngStream(0)
    train, test = split.train, split.test
    N = train.n_branches

    skipped: list = []
    if isinstance(q, AmortParams):
        active = []
        for i in range(N):
            if train.branches[i].n == 0:
                skipped.append(i)
                continue
            w, _ = net_forward(q.net, train.branches[i])
            active.append((i, w))
        if skipped:
            warnings.warn(
                f"excluding {len(skipped)} branch(es) with empty train data "
                "from metrics (amortized locals undefined)")
    elif isinstance(q, BranchParams):
        if q.n_branches != N:
            raise MalformedParamsError("family branch count must match the split")
        active = [(i, q.local(i)) for i in range(N)]
    elif isinstance(q, JointFamily):
        if q.n_branches != N:
            raise MalformedParamsError("family branch count must match the split")
        active = [(i, None) for i in range(N)]
    else:
        raise MalformedParamsError(f"unsupported family container {type(q).__name__}")

    gen = rng.generator()
    log_ratio = np.empty(k)
    test_loglik = np.empty(k)
    for j in range(k):
        theta, zs, logq = _draw_assignment(q, model, active, gen)
        lp = model.log_prior(theta)
        lt = 0.0
        for pos, (i, _) in enumerate(active):
            z = zs[pos]
            lp += model.log_branch(theta, z, train.branches[i])
            if test.branches[i].n:
                lt += model.log_obs(theta, z, test.branches[i])
        log_ratio[j] = lp - logq
        test_loglik[j] = lt

    active_idx = [i for i, _ in active]
    n_train = sum(train.branches[i].n for i in active_idx)
    n_test = sum(test.branches[i].n for i in active_idx)
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

    with open(text_path, "w") as fh:
        for key, val in report.to_dict().items():
            if key == "skipped_branches":
                val = ",".join(str(v) for v in val)
            fh.write(f"{key} = {val}\n")
    with open(json_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
