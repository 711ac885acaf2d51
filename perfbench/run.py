"""branchvi benchmark: one command, one workload, every metric by name and unit.

    python3 perfbench/run.py --workload synth-full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src. Each
workload runs in fresh, single-threaded Python processes (BLAS/OpenMP pinned
to one thread): several set-up-only processes for the set-up time, then one
process that trains, checks the outputs and, on synth-full, evaluates and
runs the oracle. With --trace 1 one process alternates untraced and traced
episodes and reports the per-layer metrics instead. The last stdout line is
a JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 0 only when every check passed and no operation failed. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROCESSES = 4     # set-up-only processes; the run process adds one more sample
DEADLINE_S = 170.0      # whole command, under the 180 s limit

THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}

# name -> unit, in print order. The JSON line carries the first group on
# every workload; the synth-full-only group and failed_frac are printed above it.
END_TO_END = {"train_iters_per_s": "1/s", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}
SYNTH_FULL_ONLY = {"eval_draws_per_s": "1/s", "oracle_s": "s", "elbo_gap_nats": "nats"}
PER_LAYER = {
    "trees.calls_per_iter": "count", "trees.self_ms_per_iter": "ms",
    "trees.bytes_per_iter": "bytes",
    "optim.self_ms_per_iter": "ms", "optim.params": "count",
    "optim.nonzero_grad_frac": "ratio",
    "models.calls_per_iter": "count", "models.self_ms_per_iter": "ms",
    "families.calls_per_iter": "count", "families.self_ms_per_iter": "ms",
    "gaussmath.calls_per_iter": "count", "gaussmath.self_ms_per_iter": "ms",
    "estimators.ms_per_iter": "ms", "estimators.self_ms_per_iter": "ms",
    "training.self_ms_per_iter": "ms",
    "amortize.calls_per_iter": "count", "amortize.self_ms_per_iter": "ms",
    "amortize.rows_per_iter": "count",
    "rng.generators_per_iter": "count", "rng.self_ms_per_iter": "ms",
    "models.calls_per_draw": "count", "models.self_ms_per_draw": "ms",
    "families.calls_per_draw": "count", "families.self_ms_per_draw": "ms",
    "metrics.self_ms_per_draw": "ms",
    "data.save_ms": "ms", "data.load_ms": "ms", "data.bytes": "bytes",
}


def spawn(mode: str, args, deadline: float) -> dict:
    """Run worker.py in a fresh process; returns its JSON result."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise TimeoutError(f"no time left for the {mode} process")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
         "--t0", repr(t0), "--src", str(SRC), "--out-dir", str(OUT_DIR)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_env(env: dict) -> None:
    shape = env.pop("shape")
    for key, val in env.items():
        print(f"# env {key} = {val}")
    for key, val in shape.items():
        print(f"# shape {key} = {val}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="training time budget of the run process")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shapes for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if not (SRC / "branchvi" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'branchvi'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        setup_runs = []
        if not args.trace:
            n_setup = 1 if args.size == "tiny" else SETUP_PROCESSES
            setup_runs = [spawn("setup", args, deadline) for _ in range(n_setup)]
        result = spawn("trace" if args.trace else "run", args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in setup_runs + [result])
    failed = sum(r["failed"] for r in setup_runs + [result])
    print_env(result["env"])
    for name, ok in result["checks"].items():
        print(f"# check {name} = {'pass' if ok else 'FAIL'}")
    for err in result["errors"]:
        print(f"# error {err}")
    correct = failed == 0 and bool(result["checks"]) and all(result["checks"].values())

    if args.trace:
        for key, val in result.get("overhead", {}).items():
            print(f"# trace {key} = {fmt(val)}")
        if "trace_file" in result:
            print(f"# trace file = {os.path.relpath(result['trace_file'], ROOT)}")
        values = result.get("per_layer", {})
        table = PER_LAYER
    else:
        values = {k: result[k] for k in END_TO_END if k in result}
        valid = [r["setup_s"] for r in setup_runs + [result] if r.get("setup_s") is not None]
        if valid:
            values["setup_s"] = statistics.median(valid)
        raw = [r["setup_s_raw"] for r in setup_runs + [result] if "setup_s_raw" in r]
        print(f"# setup_s samples = {', '.join(f'{s:.4f}' for s in valid)} "
              f"(raw s: {', '.join(f'{s:.4f}' for s in raw)})")
        print(f"# timed iterations = {result.get('iters')} from the calmest "
              f"{result.get('episodes_used')} of {result.get('episodes')} episodes "
              f"({result.get('warmup_iters')} warm-up iterations left out), "
              f"{result.get('above_p90')} above p90; their kernel-time CVs "
              f"{result.get('cal_cv_used')}")
        print(f"# calibration kernel p50 = {fmt(result.get('cal_ms_p50'))} ms "
              f"(reference {fmt(result.get('ref_cal_ms'))} ms); raw iter_ms p50 "
              f"{fmt(result.get('raw_iter_ms_p50'))} ms, p90 "
              f"{fmt(result.get('raw_iter_ms_p90'))} ms")
        for k in ("full_elbo_init", "full_elbo_final", "log_marginal", "train_elbo",
                  "slack_nats"):
            if k in result:
                print(f"# {k} = {result[k]!r}")
        table = END_TO_END
        extra = {k: result[k] for k in SYNTH_FULL_ONLY if k in result}
        extra["failed_frac"] = failed / max(attempted, 1)
        for name, val in extra.items():
            print(f"metric {name} = {fmt(val)} {SYNTH_FULL_ONLY.get(name, 'ratio')}")
    missing = [k for k in table if k not in values]
    if missing:
        print(f"# missing metrics: {', '.join(missing)}")
        correct = False
    metrics = {k: {"value": values[k], "unit": u} for k, u in table.items() if k in values}
    for name, m in metrics.items():
        print(f"metric {name} = {fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
