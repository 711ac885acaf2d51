#!/usr/bin/env python3
"""Train the full family grid ({dense, block, diag} x {joint, branch, amortized})
on one synthetic instance and print each final EMA ELBO against the exact
log-marginal. Desk-scale rerun of the small synthetic comparison.

Usage: python scripts/run_synthetic_grid.py [--dim 2] [--branches 10]
       [--obs 20] [--iters 8000] [--seed 0]
"""

import argparse
import time

from branchvi.amortize import init_amortized
from branchvi.families import init_branch, init_joint
from branchvi.models import SyntheticConfig, synthetic_forward_sample, synthetic_model, synthetic_oracle
from branchvi.optim import LrSchedule
from branchvi.rng import RngStream
from branchvi.training import train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--branches", type=int, default=10)
    ap.add_argument("--obs", type=int, default=20)
    ap.add_argument("--iters", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    D, N = args.dim, args.branches
    cfg = SyntheticConfig(D, N, (args.obs,) * N)
    data, _ = synthetic_forward_sample(cfg, RngStream(args.seed, 0))
    model = synthetic_model(D)
    oracle = synthetic_oracle(data)
    print(f"instance: D={D} N={N} n_i={args.obs}   log p(y|x) = {oracle.log_marginal:.4f}")

    sched = LrSchedule(base=1e-2, drop_every=max(args.iters // 3, 1),
                       drop_factor=0.1, max_drops=2)
    for structure in ("dense", "block", "diag"):
        for kind in ("joint", "branch", "amortized"):
            if kind == "joint":
                params = init_joint(structure, D, D, N)
            elif kind == "branch":
                params = init_branch(structure, D, D, N)
            else:
                params = init_amortized(structure, D, D, D, RngStream(args.seed, 2))
            t0 = time.perf_counter()
            res = train(model, params, data, kind=kind, schedule=sched,
                        iters=args.iters, rng=RngStream(args.seed, 1),
                        batch_size=0, n_mc=10, trace_every=0)
            gap = oracle.log_marginal - res.ema
            print(f"{structure:>6s} {kind:>10s}: final EMA {res.ema:12.4f}  "
                  f"gap to oracle {gap:8.4f}  ({time.perf_counter() - t0:5.1f}s)")


if __name__ == "__main__":
    main()
