"""The three benchmark workloads and how their inputs are made from a seed.

Every workload is dense structure, D = 2, n_mc = 10, built through the CLI's
construction helpers (``cli.RunConfig``, ``cli.build_model``,
``cli.init_params``) so it survives changes to the model constructors'
signatures. Inputs come from the library's own forward samplers; the
benchmark seed is the only source of randomness.

One training *episode* is ``episode_iters`` iterations from the same initial
parameters with the same run stream, so every episode of a run computes the
same numbers; a run repeats episodes until its time budget is spent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

DIM = 2
N_MC = 10


@dataclass(frozen=True)
class Workload:
    name: str
    model: str              # synthetic | preference
    family: str             # branch | amortized
    n_branches: int
    obs: int                # fixed n_i, or 0 for ragged 5 + geometric(mean 15), capped
    batch_size: int         # 0 = full batch
    lr: float
    episode_iters: int
    test_fraction: float = 0.0
    eval_draws: int = 0     # K for metrics.evaluate; 0 = no eval / oracle
    oracle_repeats: int = 0
    min_timed: int = 110    # iterations the timing statistics pool: ten above p90
    cal_dense: bool = False  # calibration kernel adds dense linear algebra (worker.calibration_ms)


RAGGED_MIN, RAGGED_MEAN, RAGGED_CAP = 5, 15, 200

WORKLOADS = {
    w.name: w for w in (
        Workload("synth-full", "synthetic", "branch", n_branches=200, obs=10,
                 batch_size=0, lr=0.05, episode_iters=20, test_fraction=0.2,
                 eval_draws=200, oracle_repeats=3),
        Workload("synth-sub", "synthetic", "branch", n_branches=2000, obs=10,
                 batch_size=10, lr=0.05, episode_iters=20),
        Workload("pref-amortized", "preference", "amortized", n_branches=2000, obs=0,
                 batch_size=25, lr=0.001, episode_iters=120, cal_dense=True),
    )
}

# Tiny shapes for the benchmark's own smoke test: same code paths, seconds.
TINY = {
    "synth-full": dict(n_branches=12, episode_iters=4, eval_draws=8, oracle_repeats=1,
                       min_timed=4),
    "synth-sub": dict(n_branches=40, batch_size=4, episode_iters=4, min_timed=4),
    "pref-amortized": dict(n_branches=40, batch_size=10, episode_iters=30, min_timed=30),
}


def get(name: str, size: str = "full") -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if size == "tiny" else w


def obs_counts(w: Workload, seed: int):
    """n_i per branch; ragged counts come from the workload seed."""
    import numpy as np

    if w.obs:
        return (w.obs,) * w.n_branches
    gen = np.random.default_rng([seed, 7])
    n = RAGGED_MIN + gen.geometric(1.0 / RAGGED_MEAN, size=w.n_branches)
    return tuple(int(v) for v in np.minimum(n, RAGGED_CAP))


def shape(w: Workload) -> dict:
    """The workload's shape as recorded in the output."""
    out = dict(asdict(w), structure="dense", dim=DIM, n_mc=N_MC,
               batch_size=w.batch_size or w.n_branches)
    if not w.obs:
        out["obs"] = f"{RAGGED_MIN}+geometric(mean {RAGGED_MEAN}), cap {RAGGED_CAP}"
    return out
