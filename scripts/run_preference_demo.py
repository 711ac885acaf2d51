#!/usr/bin/env python3
"""End-to-end preference-model demo on forward-sampled binary ratings:
generate, split, train an amortized dense family with minibatches, then
report sample-based metrics.

Usage: python scripts/run_preference_demo.py [--dim 3] [--branches 60]
       [--obs 15] [--iters 4000] [--batch 20] [--seed 0]
"""

import argparse
import time

from branchvi.amortize import init_amortized
from branchvi.data import split
from branchvi.metrics import evaluate
from branchvi.models import PreferenceConfig, preference_forward_sample, preference_model
from branchvi.optim import LrSchedule
from branchvi.rng import RngStream
from branchvi.training import train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--branches", type=int, default=60)
    ap.add_argument("--obs", type=int, default=15)
    ap.add_argument("--iters", type=int, default=4000)
    ap.add_argument("--batch", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = PreferenceConfig(args.dim, args.branches, (args.obs,) * args.branches)
    data, _ = preference_forward_sample(cfg, RngStream(args.seed, 0))
    parts = split(data, 0.1, RngStream(args.seed, 1))
    model = preference_model(args.dim)
    print(f"users {args.branches}, train ratings {parts.train.n_obs}, "
          f"test ratings {parts.test.n_obs}")

    params = init_amortized("dense", model.global_dim, model.local_dim,
                            data.covariate_dim, RngStream(args.seed, 2))
    sched = LrSchedule(base=1e-3, drop_every=max(args.iters // 2, 1),
                       drop_factor=0.1, max_drops=1)
    t0 = time.perf_counter()
    res = train(model, params, parts.train, kind="amortized", schedule=sched,
                iters=args.iters, rng=RngStream(args.seed, 3),
                batch_size=args.batch, n_mc=10, trace_every=max(args.iters // 8, 1),
                on_record=lambda r: print(
                    f"  iter {r.iter:6d}  lr {r.lr:.1e}  elbo {r.elbo:10.2f}  "
                    f"ema {r.ema_elbo:10.2f}"))
    print(f"trained in {time.perf_counter() - t0:.1f}s; final EMA {res.ema:.2f}")

    report = evaluate(model, res.params, parts, k=2000, rng=RngStream(args.seed, 4))
    print(f"test-ll {report.test_ll:.2f}  ({report.test_ll_per_rating:.4f}/rating)")
    print(f"train-ll {report.train_ll:.2f}  train-elbo {report.train_elbo:.2f}")


if __name__ == "__main__":
    main()
