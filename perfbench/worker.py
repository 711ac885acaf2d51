"""One benchmark workload in a fresh, single-threaded Python process.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  setup  import, make inputs, save/load them, build the model, init the
         parameters, run one iteration: reports only the set-up time.
  run    set-up, then training episodes until the time budget is spent
         (closed loop: the next iteration starts when the previous returns;
         the calibration kernel runs between iterations, off the clock),
         then the correctness checks, evaluate and the oracle where the
         workload has them.
  trace  set-up under the tracer, then pairs of one untraced and one traced
         episode for the time budget (and on synth-full one untraced and one
         traced evaluate), then per-layer metrics; traced results must equal
         the untraced ones bit for bit.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy can load them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, TRACER_LAYER, Tracer  # noqa: E402

CHECK_MC = 2           # MC copies of the full-data ELBO used by the check
SLACK_SIGMAS = 5.0     # oracle gate: allowed excess of train_elbo, in standard errors
SLACK_FLOOR = 0.5      # nats

# Host-speed calibration (see calibration_ms). Reported times are in
# reference milliseconds: milliseconds on a host where the kernel takes
# REF_CAL_MS. Both kernels take about that long on a quiet CPU.
CAL_LOOPS = 900        # interpreter kernel
CAL_DENSE_LOOPS = 200  # dense kernel: interpreter part ...
CAL_MATMULS = 4        # ... plus 64x256 @ 256x256 products
CAL_CHOLESKYS = 14     # ... plus 40x40 Cholesky factor-and-solves
REF_CAL_MS = 2.0
WARMUP_ITERS = 5       # first iterations of a run left out of its timing
CAL_REPEATS = 21       # kernel runs behind one set-up, evaluate or oracle reading

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# Glibc sysconf codes for the L2 and L3 cache sizes (not in os.sysconf_names).
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


class Ctx:
    """Everything set-up produces, plus the run's operation tally."""

    def __init__(self, w, seed):
        self.w, self.seed = w, seed
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}
        self.errors: list = []

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".strip())
        self.checks[name] = ok
        return ok


def import_library(src: Path):
    sys.path.insert(0, str(src))
    import branchvi

    if not Path(branchvi.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"branchvi imported from {branchvi.__file__}, not {src}")
    for layer in LAYERS + ("cli", "errors"):
        try:
            importlib.import_module(f"branchvi.{layer}")
        except ModuleNotFoundError:  # a layer a later version dropped reports zero
            pass


def library_errors():
    from branchvi import errors

    names = ("EstimatorError", "InvalidDataError", "MalformedParamsError",
             "NonFiniteGradientError")
    return tuple(getattr(errors, n) for n in names if hasattr(errors, n))


def environment(w, seed) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}

    def sysconf(code):
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus": CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "l2_cache_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_cache_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "workload": w.name,
        "shape": workloads.shape(w),
    }


# ---------------------------------------------------------------------------
# Set-up: the CLI's generate -> train path, in process.


def setup(ctx: Ctx, out_dir: Path) -> None:
    from branchvi import cli, data as bdata, models, optim
    from branchvi.rng import RngStream

    w, seed = ctx.w, ctx.seed
    n = workloads.obs_counts(w, seed)
    if w.model == "synthetic":
        ds, _ = models.synthetic_forward_sample(
            models.SyntheticConfig(workloads.DIM, w.n_branches, n), RngStream(seed, 0))
    else:
        ds, _ = models.preference_forward_sample(
            models.PreferenceConfig(workloads.DIM, w.n_branches, n), RngStream(seed, 0))
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        base = os.path.join(tmp, "data")
        if w.test_fraction:
            parts = bdata.split(ds, w.test_fraction, RngStream(seed, 1))
            bdata.save_dataset(parts.train, base + "_train")
            bdata.save_dataset(parts.test, base + "_test")
            train = bdata.load_dataset(base + "_train")
            ctx.split = bdata.SplitDataset(train, bdata.load_dataset(base + "_test"))
        else:
            bdata.save_dataset(ds, base)
            train = bdata.load_dataset(base)
            ctx.split = None
        ctx.data_bytes = sum(os.path.getsize(os.path.join(tmp, f)) for f in os.listdir(tmp))
    cfg = cli.RunConfig(model=w.model, family=w.family, structure="dense",
                        dim=workloads.DIM, n_branches=train.n_branches,
                        batch_size=w.batch_size, n_mc=workloads.N_MC, lr=w.lr,
                        seed=seed, iters=w.episode_iters, trace_every=1)
    cfg.validate()
    ctx.cfg, ctx.train = cfg, train
    ctx.model = cli.build_model(cfg, train)
    ctx.params0 = cli.init_params(cfg, ctx.model, train, RngStream(seed, 2))
    ctx.schedule = optim.LrSchedule(cfg.lr, cfg.drop_every, cfg.drop_factor, cfg.max_drops)


@functools.cache
def _dense_inputs():
    gen = np.random.default_rng(0)
    spd = gen.standard_normal((40, 40))
    return (gen.standard_normal((64, 256)), gen.standard_normal((256, 256)) * 0.05,
            spd @ spd.T + 40.0 * np.eye(40), np.ones((40, 2)))


def calibration_ms(dense: bool) -> float:
    """Milliseconds for a fixed slice of work like a workload's.

    On a shared host the CPU's speed swings by up to 2x in phases of seconds
    to minutes and in bursts shorter than an iteration. Dividing each
    iteration's time by the kernel time measured next to it removes the
    swing; the kernel uses no library code, so a change to the library moves
    the reference times as much as the raw ones. Kinds of work slow by
    different amounts, so the kernel mirrors the workload: interpreter and
    small-array numpy work, and with ``dense`` also dense linear algebra
    (matrix products and Cholesky solves, like an amortized net and the
    preference model's solves).
    """
    if dense:
        from scipy.linalg import cho_factor, cho_solve

        x, w, spd, rhs = _dense_inputs()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_DENSE_LOOPS if dense else CAL_LOOPS):
        acc += float(np.full(3, float(i)).sum()) + i * 0.5
    if dense:
        for _ in range(CAL_MATMULS):
            np.tanh(x @ w)
        for _ in range(CAL_CHOLESKYS):
            cho_solve(cho_factor(spd, lower=True), rhs)
    return (time.perf_counter() - t0) * 1e3


def episode(ctx: Ctx, iters: int | None = None, first_stamp: list | None = None,
            calibrate: bool = False) -> dict:
    """One closed-loop training run from the initial parameters.

    Returns per-iteration milliseconds (from train's on_record with
    trace_every = 1), the final parameters and their digest. A library error
    fails the remaining iterations. With ``calibrate`` the calibration kernel
    runs inside on_record after each iteration; its time is taken out of the
    iteration times and returned per iteration as ``cal_ms``.
    """
    from branchvi import training
    from branchvi.rng import RngStream

    iters = ctx.cfg.iters if iters is None else iters
    recs: list = []
    stamps: list = []   # wall_seconds without the kernel time before them
    cal_ms: list = []
    off_clock = [0.0]   # seconds spent in the kernel so far

    def on_record(rec):
        if first_stamp is not None and not recs:
            first_stamp.append(time.monotonic() - rec.wall_seconds)
        recs.append(rec)
        stamps.append(rec.wall_seconds - off_clock[0])
        if calibrate:
            t = time.perf_counter()
            cal_ms.append(calibration_ms(ctx.w.cal_dense))
            off_clock[0] += time.perf_counter() - t

    ctx.attempted += iters
    try:
        res = training.train(ctx.model, ctx.params0, ctx.train, kind=ctx.cfg.family,
                             schedule=ctx.schedule, iters=iters,
                             rng=RngStream(ctx.seed, 1), batch_size=ctx.cfg.batch_size,
                             n_mc=ctx.cfg.n_mc, trace_every=1, on_record=on_record)
    except library_errors() as exc:
        ctx.failed += iters - len(recs)
        ctx.errors.append(f"train: {type(exc).__name__}: {exc}")
        return {"ok": False, "iter_ms": []}
    elbos = np.array([r.elbo for r in recs] + [r.ema_elbo for r in recs])
    return {"ok": True, "iter_ms": list(np.diff(stamps, prepend=0.0) * 1e3), "cal_ms": cal_ms,
            "params": res.params, "digest": digest(res.params),
            "final_elbo": float(res.final_elbo), "finite": bool(np.all(np.isfinite(elbos)))}


def digest(obj) -> str:
    """sha256 over every array and scalar reachable through dataclass fields."""
    h = hashlib.sha256()

    def walk(o):
        if isinstance(o, np.ndarray):
            h.update(repr(o.shape).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            for f in dataclasses.fields(o):
                walk(getattr(o, f.name))
        elif isinstance(o, dict):
            for k, v in o.items():
                h.update(repr(k).encode())
                walk(v)
        elif isinstance(o, (list, tuple)):
            for v in o:
                walk(v)
        elif isinstance(o, (bool, int, float, str)) or o is None:
            h.update(repr(o).encode())

    walk(obj)
    return h.hexdigest()


def run_episodes(ctx: Ctx, seconds: float, first_stamp: list | None = None) -> list:
    """Calibrated episodes until ``seconds`` have passed, at least two
    episodes have run and they hold ``min_timed`` iterations after the
    warm-up."""
    eps: list = []
    t0 = time.perf_counter()
    while True:
        ep = episode(ctx, first_stamp=first_stamp if not eps else None, calibrate=True)
        eps.append(ep)
        if not ep["ok"]:
            break
        if (time.perf_counter() - t0 >= seconds
                and len(eps) >= 2
                and len(eps) * ctx.cfg.iters - WARMUP_ITERS >= ctx.w.min_timed):
            break
    return eps


def full_data_elbo(ctx: Ctx, params) -> float:
    """Full-batch ELBO estimate with a fixed stream (common random numbers)."""
    from branchvi import estimators
    from branchvi.rng import RngStream

    rng = RngStream(ctx.seed, 5)
    if ctx.cfg.family == "amortized":
        sampler = estimators.MinibatchSampler(ctx.train.n_branches, ctx.train.n_branches)
        est, _ = estimators.amortized_elbo(ctx.model, params.v, params.net, ctx.train,
                                           sampler, rng, CHECK_MC, want_grad=False)
    else:
        est, _ = estimators.branch_elbo(ctx.model, params, ctx.train, rng, CHECK_MC,
                                        want_grad=False)
    return float(est.value)


def guarded(ctx: Ctx, what: str, fn, *args):
    """Run one counted operation; a library error marks it failed."""
    ctx.attempted += 1
    try:
        return fn(*args)
    except library_errors() as exc:
        ctx.failed += 1
        ctx.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def check_training(ctx: Ctx, eps: list) -> None:
    good = [e for e in eps if e["ok"]]
    if not good:
        return
    ctx.check("elbo_finite", all(e["finite"] for e in good))
    ctx.check("episodes_identical",
              len({(e["digest"], e["final_elbo"]) for e in good}) == 1)
    before = guarded(ctx, "full_data_elbo(init)", full_data_elbo, ctx, ctx.params0)
    after = guarded(ctx, "full_data_elbo(final)", full_data_elbo, ctx, good[0]["params"])
    if before is not None and after is not None:
        ctx.full_elbo = (before, after)
        ctx.check("full_elbo_improves",
                  math.isfinite(before) and math.isfinite(after) and after > before,
                  f"(init {before!r}, final {after!r})")


def evaluate(ctx: Ctx, params):
    from branchvi import metrics
    from branchvi.rng import RngStream

    t0 = time.perf_counter()
    report = guarded(ctx, "evaluate", metrics.evaluate, ctx.model, params, ctx.split,
                     ctx.w.eval_draws, RngStream(ctx.seed, 3))
    return report, time.perf_counter() - t0


def oracle_gate(ctx: Ctx, report) -> dict:
    """Oracle timing and the gate train_elbo <= log p(y_train) + MC slack.

    The slack is SLACK_SIGMAS standard errors of the K-draw mean, with the
    log-ratio spread estimated from train_ll - train_elbo (= sigma^2 / 2 for
    a Gaussian log-ratio), floored at SLACK_FLOOR nats.
    """
    from branchvi import models

    times, oracle = [], None
    for _ in range(ctx.w.oracle_repeats):
        t0 = time.perf_counter()
        oracle = guarded(ctx, "synthetic_oracle", models.synthetic_oracle, ctx.train)
        times.append(time.perf_counter() - t0)
    out = {"oracle_s": float(np.median(times))}
    if oracle is None or report is None:
        return out
    log_p = float(oracle.log_marginal)
    sigma = math.sqrt(2.0 * max(report.train_ll - report.train_elbo, 0.0))
    slack = max(SLACK_SIGMAS * sigma / math.sqrt(report.k), SLACK_FLOOR)
    ctx.check("report_finite", all(math.isfinite(v) for v in
                                   (report.train_elbo, report.train_ll, report.test_ll)))
    ctx.check("oracle_finite", math.isfinite(log_p))
    ctx.check("elbo_below_oracle", report.train_elbo <= log_p + slack,
              f"(train_elbo {report.train_elbo!r}, log p {log_p!r}, slack {slack:.3g})")
    out.update(log_marginal=log_p, train_elbo=report.train_elbo, train_ll=report.train_ll,
               test_ll=report.test_ll, slack_nats=slack,
               elbo_gap_nats=log_p - report.train_elbo)
    return out


def local_cal(cal_ms: list) -> np.ndarray:
    """Per iteration, the mean of the three kernel times nearest to it.

    Kernel ``i`` runs right after iteration ``i``, so iteration ``i`` is
    bracketed by kernels ``i - 1`` and ``i``; kernel ``i + 1`` is the next
    one (the ends of an episode reuse their nearest kernel). One kernel run
    is a noisy reading of the host's speed; three of them, taken within two
    iterations, still follow short bursts of host load that a wider window
    would smooth away.
    """
    c = np.asarray(cal_ms, dtype=float)
    return (np.concatenate([c[:1], c[:-1]]) + c + np.concatenate([c[1:], c[-1:]])) / 3.0


def host_cal_ms(dense: bool) -> float:
    """The host's speed right now: median kernel time over CAL_REPEATS runs."""
    return float(np.median([calibration_ms(dense) for _ in range(CAL_REPEATS)]))


def timing(eps: list, min_timed: int) -> dict:
    """Iteration statistics in reference milliseconds, from the calmest episodes.

    Each iteration's time is scaled by REF_CAL_MS over the kernel time
    measured around it (``local_cal``), so a slow phase of the host, which
    slows the kernel and the iteration alike, cancels. Bursts of host load
    shorter than an iteration slip between the kernel runs and fatten the
    tail; they also make the kernel times within an episode vary. So the
    episodes are ranked by that variation (coefficient of variation of their
    kernel times) and the calmest are pooled until they hold ``min_timed``
    iterations. The first WARMUP_ITERS iterations of the run are left out.
    Raw percentiles are returned beside the reference ones.
    """
    ranked = []
    for k, e in enumerate(eps):
        skip = WARMUP_ITERS if k == 0 else 0
        c = np.asarray(e["cal_ms"])
        ranked.append((float(np.std(c) / np.mean(c)), np.asarray(e["iter_ms"])[skip:],
                       local_cal(c)[skip:]))
    ranked.sort(key=lambda r: r[0])
    used = []
    for r in ranked:
        used.append(r)
        if sum(u[1].size for u in used) >= min_timed:
            break
    raw = np.concatenate([u[1] for u in used])
    cal = np.concatenate([u[2] for u in used])
    ref = raw * REF_CAL_MS / cal
    p90 = float(np.percentile(ref, 90))
    return {"iters": int(ref.size), "episodes_used": len(used), "warmup_iters": WARMUP_ITERS,
            "cal_cv_used": [round(u[0], 4) for u in used],
            "train_iters_per_s": 1e3 / float(np.mean(ref)),
            "iter_ms_p50": float(np.median(ref)), "iter_ms_p90": p90,
            "above_p90": int(np.sum(ref > p90)),
            "raw_iter_ms_p50": float(np.median(raw)),
            "raw_iter_ms_p90": float(np.percentile(raw, 90)),
            "cal_ms_p50": float(np.median(cal)), "ref_cal_ms": REF_CAL_MS}


# ---------------------------------------------------------------------------
# Modes.


def setup_times(stamp: list, t0: float, cal_ms: float) -> dict:
    """Set-up time, raw and in reference seconds, given the kernel time after it."""
    if not stamp:
        return {"setup_s": None}
    raw = stamp[0] - t0
    return {"setup_s": raw * REF_CAL_MS / cal_ms, "setup_s_raw": raw}


def mode_setup(ctx, args) -> dict:
    setup(ctx, args.out_dir)
    stamp: list = []
    episode(ctx, iters=1, first_stamp=stamp)
    return setup_times(stamp, args.t0, host_cal_ms(ctx.w.cal_dense))


def mode_run(ctx, args) -> dict:
    setup(ctx, args.out_dir)
    stamp: list = []
    eps = run_episodes(ctx, args.seconds, first_stamp=stamp)
    good = [e for e in eps if e["ok"]]
    out = {"episodes": len(eps)}
    if good:
        out.update(setup_times(stamp, args.t0, float(np.median(good[0]["cal_ms"]))))
        out.update(timing(good, ctx.w.min_timed))
    check_training(ctx, eps)
    if hasattr(ctx, "full_elbo"):
        out["full_elbo_init"], out["full_elbo_final"] = ctx.full_elbo
    if ctx.w.eval_draws and good:
        cal_before = host_cal_ms(ctx.w.cal_dense)
        report, eval_s = evaluate(ctx, good[0]["params"])
        gate = oracle_gate(ctx, report)
        scale = REF_CAL_MS / (0.5 * (cal_before + host_cal_ms(ctx.w.cal_dense)))
        out["eval_draws_per_s"] = ctx.w.eval_draws / (eval_s * scale)
        gate["oracle_s"] *= scale
        out.update(gate)
    return out


def mode_trace(ctx, args) -> dict:
    """Traced set-up, then alternating untraced and traced episodes.

    Alternating pairs see the same host conditions, so the median ratio of
    their iteration medians is the tracing overhead.
    """
    tracer = Tracer()
    tracer.install()
    setup_lo = tracer.mark()
    setup(ctx, args.out_dir)
    setup_hi = tracer.mark()
    tracer.uninstall()

    plain, traced = [], []
    tracer.reset_counters()
    train_lo = tracer.mark()
    t0 = time.perf_counter()
    while True:
        plain.append(episode(ctx))
        tracer.install(model=ctx.model)
        traced.append(episode(ctx))
        tracer.uninstall()
        if not (plain[-1]["ok"] and traced[-1]["ok"]):
            break
        if (time.perf_counter() - t0 >= args.seconds
                and len(traced) * ctx.cfg.iters >= ctx.w.min_timed):
            break
    train_hi = tracer.mark()
    train_counters = dict(tracer.counters)
    check_training(ctx, plain)
    out: dict = {"episodes": len(plain) + len(traced)}
    if not all(e["ok"] for e in plain + traced):
        return out
    ctx.check("traced_params_bitwise", {e["digest"] for e in plain + traced} == {plain[0]["digest"]})
    ctx.check("traced_final_elbo_bitwise",
              {e["final_elbo"] for e in plain + traced} == {plain[0]["final_elbo"]})

    eval_range = None
    if ctx.w.eval_draws:
        report_u, _ = evaluate(ctx, plain[0]["params"])
        tracer.install(model=ctx.model)
        eval_lo = tracer.mark()
        report_t, _ = evaluate(ctx, plain[0]["params"])
        eval_range = (eval_lo, tracer.mark())
        tracer.uninstall()
        if report_u is not None and report_t is not None:
            ctx.check("traced_train_elbo_bitwise", report_t.train_elbo == report_u.train_elbo)
        oracle_gate(ctx, report_u)

    own = tracer.self_times()
    phases = {"setup": tracer.summarize(setup_lo, setup_hi, own),
              "train": tracer.summarize(train_lo, train_hi, own)}
    if eval_range:
        phases["eval"] = tracer.summarize(*eval_range, own)
    iters = sum(len(e["iter_ms"]) for e in traced)
    layers = phases["train"]["layers"]
    tracer_ms = layers.get(TRACER_LAYER, {}).get("self_s", 0.0) * 1e3 / iters
    lib_self_ms = sum(v["self_s"] for v in layers.values()) * 1e3 / iters - tracer_ms
    traced_ms = sum(sum(e["iter_ms"]) for e in traced) / iters
    ratios = [np.median(t["iter_ms"]) / np.median(u["iter_ms"]) for u, t in zip(plain, traced)]
    out["per_layer"] = per_layer(phases, train_counters, iters, ctx)
    # Self times partition the train spans, so library layers plus the
    # tracer's own counting should account for the traced iteration time.
    out["overhead"] = {
        "pairs": len(ratios),
        "untraced_iter_ms_p50": float(np.median(np.concatenate([e["iter_ms"] for e in plain]))),
        "traced_iter_ms_p50": float(np.median(np.concatenate([e["iter_ms"] for e in traced]))),
        "overhead_frac": float(np.median(ratios)) - 1.0,
        "traced_iter_ms_mean": traced_ms,
        "layer_self_ms_per_iter_sum": lib_self_ms,
        "tracer_ms_per_iter": tracer_ms,
        "accounted_frac": (lib_self_ms + tracer_ms) / traced_ms,
    }
    stem = args.out_dir / f"trace-{ctx.w.name}-seed{ctx.seed}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"env": environment(ctx.w, ctx.seed), "traced_iters": iters,
                   "eval_draws": ctx.w.eval_draws if eval_range else 0,
                   "overhead": out["overhead"], "counters": train_counters,
                   "phases": phases, "span_names": tracer.names}, fh, indent=1)
    tracer.write_spans(f"{stem}.spans.npz")
    out["trace_file"] = f"{stem}.json"
    return out


def per_layer(phases: dict, counters: dict, iters: int, ctx: Ctx) -> dict:
    train = phases["train"]["layers"]
    ev = phases.get("eval", {"layers": {}})["layers"]
    funcs = phases["setup"]["functions"]

    def get(table, layer, key):
        return table.get(layer, {}).get(key, 0)

    m = {}
    for layer in ("trees", "models", "families", "gaussmath", "amortize"):
        m[f"{layer}.calls_per_iter"] = get(train, layer, "calls") / iters
    for layer in ("trees", "optim", "models", "families", "gaussmath", "estimators",
                  "training", "amortize", "rng"):
        m[f"{layer}.self_ms_per_iter"] = get(train, layer, "self_s") * 1e3 / iters
    updates = max(counters["optim.updates"], 1)
    m["trees.bytes_per_iter"] = counters["trees.bytes"] / iters
    m["optim.params"] = counters["optim.params"] / updates
    m["optim.nonzero_grad_frac"] = counters["optim.nonzero_grad_frac"] / updates
    m["estimators.ms_per_iter"] = get(train, "estimators", "total_s") * 1e3 / iters
    m["amortize.rows_per_iter"] = counters["amortize.rows"] / iters
    m["rng.generators_per_iter"] = get(train, "rng", "calls") / iters
    draws = ctx.w.eval_draws if ev else 0
    for layer in ("models", "families"):
        m[f"{layer}.calls_per_draw"] = get(ev, layer, "calls") / draws if draws else 0.0
        m[f"{layer}.self_ms_per_draw"] = (get(ev, layer, "self_s") * 1e3 / draws
                                          if draws else 0.0)
    m["metrics.self_ms_per_draw"] = get(ev, "metrics", "self_s") * 1e3 / draws if draws else 0.0
    m["data.save_ms"] = funcs.get("data.save_dataset", {}).get("self_s", 0.0) * 1e3
    m["data.load_ms"] = funcs.get("data.load_dataset", {}).get("self_s", 0.0) * 1e3
    m["data.bytes"] = float(ctx.data_bytes)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the launcher just before this process started")
    p.add_argument("--src", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)
    import_library(args.src)
    w = workloads.get(args.workload, args.size)
    ctx = Ctx(w, args.seed)
    out = {"mode": args.mode, "workload": w.name}
    try:
        out.update({"setup": mode_setup, "run": mode_run, "trace": mode_trace}[args.mode](
            ctx, args))
    except library_errors() as exc:
        ctx.attempted += 1
        ctx.failed += 1
        ctx.errors.append(f"{type(exc).__name__}: {exc}")
    out.update(attempted=ctx.attempted, failed=ctx.failed, checks=ctx.checks,
               errors=ctx.errors, env=environment(w, args.seed),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
