"""Smoke tests for the benchmark: every workload at tiny size, both modes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == table
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace and workload == "synth-full":
        printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
        assert set(run.SYNTH_FULL_ONLY) | {"failed_frac"} <= printed
    if trace:
        assert any(ln.startswith("# trace overhead_frac") for ln in lines)


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_tolerates_missing_functions(monkeypatch):
    """A layer function the library no longer defines reports zero, not an error."""
    sys.path.insert(0, str(ROOT / "src"))
    import branchvi.trees
    import worker
    from tracer import Tracer

    monkeypatch.delattr(branchvi.trees, "tree_zeros_like")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    empty = {"layers": {}, "functions": {}}
    ctx = worker.Ctx(workloads.get("synth-sub", "tiny"), 0)
    ctx.data_bytes = 0
    metrics = worker.per_layer({"setup": empty, "train": empty}, tracer.counters, 1, ctx)
    assert set(metrics) == set(run.PER_LAYER)
    assert all(v == 0 for v in metrics.values())


def test_timing_cancels_a_uniform_host_slowdown():
    """A host that runs the iterations and the kernel 1.7x slower reads the same."""
    import worker

    def ep(scale, iters=60):
        return {"iter_ms": [40.0 * scale] * iters, "cal_ms": [worker.REF_CAL_MS * scale] * iters}

    quiet = worker.timing([ep(1.0), ep(1.0)], 110)
    slow = worker.timing([ep(1.7), ep(1.7)], 110)
    assert slow["raw_iter_ms_p50"] == pytest.approx(1.7 * quiet["raw_iter_ms_p50"])
    for key in ("iter_ms_p50", "iter_ms_p90", "train_iters_per_s"):
        assert slow[key] == pytest.approx(quiet[key])
    assert quiet["iter_ms_p50"] == pytest.approx(40.0)
    assert quiet["iters"] == 2 * 60 - worker.WARMUP_ITERS
