import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from branchvi import checks, gaussmath
from branchvi.checkpoint import load_tensors, save_tensors
from branchvi.cli import load_checkpoint, main, parse_config_file
from branchvi.data import load_dataset
from branchvi.errors import InvalidDataError
from branchvi.families import BranchParams, JointFamily


def _run(*argv):
    return main(list(argv))


V1_BRANCH_DENSE = Path(__file__).parent / "fixtures" / "v1_branch_dense"


def _read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_synthetic_outputs(self, tmp_path):
        out = tmp_path / "gen"
        rc = _run("generate", "--model", "synthetic", "--dim", "2", "--branches", "4",
                  "--obs", "6", "--seed", "11", "--out-dir", str(out))
        assert rc == 0
        data = load_dataset(str(out / "data"))
        assert data.n_branches == 4 and data.n_obs == 24
        oracle_text = (out / "oracle.txt").read_text()
        assert oracle_text.startswith("log_marginal = ")
        latents = load_tensors(out / "latents.nt")
        assert latents["theta"].shape == (2,)
        assert latents["z"].shape == (4, 2)
        manifest = (out / "manifest.txt").read_text()
        assert "command = generate" in manifest
        assert "seed = 11" in manifest
        assert "sha256.data.bin = " in manifest

    def test_seed_reproducibility_bitwise(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "3",
                 "--obs", "5", "--seed", "7", "--out-dir", str(out))
        assert (a / "data.bin").read_bytes() == (b / "data.bin").read_bytes()
        assert (a / "latents.nt").read_bytes() == (b / "latents.nt").read_bytes()

    def test_zero_branches_rejected(self, tmp_path):
        rc = _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "0",
                  "--obs", "5", "--out-dir", str(tmp_path / "x"))
        assert rc != 0

    def test_split_outputs(self, tmp_path):
        out = tmp_path / "gen"
        _run("generate", "--model", "preference", "--dim", "2", "--branches", "3",
             "--obs", "10", "--seed", "3", "--test-fraction", "0.1",
             "--out-dir", str(out))
        train = load_dataset(str(out / "data_train"))
        test = load_dataset(str(out / "data_test"))
        assert train.n_branches == test.n_branches == 3
        assert all(b.n == 1 for b in test.branches)
        assert not (out / "oracle.txt").exists()


class TestTrainEval:
    @pytest.fixture()
    def generated(self, tmp_path):
        out = tmp_path / "gen"
        _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "4",
             "--obs", "6", "--seed", "5", "--out-dir", str(out))
        return out

    def test_train_writes_trace_checkpoint_manifest(self, generated, tmp_path):
        run_dir = tmp_path / "run"
        rc = _run("train", "--model", "synthetic", "--family", "branch",
                  "--structure", "dense", "--dim", "1",
                  "--data", str(generated / "data"), "--iters", "120",
                  "--lr", "0.01", "--trace-every", "40", "--seed", "5",
                  "--out-dir", str(run_dir))
        assert rc == 0
        rows = _read_trace(run_dir / "trace.csv")
        assert list(rows[0].keys()) == ["iter", "wall_seconds", "lr", "elbo", "ema_elbo"]
        assert [int(r["iter"]) for r in rows] == [0, 40, 80, 119]
        params, it, ema, adam = load_checkpoint(run_dir / "checkpoint.nt")
        assert isinstance(params, BranchParams) and it == 120
        assert adam is not None and adam.t == 120

    def test_same_seed_trace_identical(self, generated, tmp_path):
        traces = []
        for name in ("r1", "r2"):
            run_dir = tmp_path / name
            _run("train", "--model", "synthetic", "--family", "branch",
                 "--structure", "diag", "--dim", "1",
                 "--data", str(generated / "data"), "--iters", "60",
                 "--trace-every", "20", "--seed", "9", "--out-dir", str(run_dir))
            rows = _read_trace(run_dir / "trace.csv")
            traces.append([(r["iter"], r["lr"], r["elbo"], r["ema_elbo"]) for r in rows])
        assert traces[0] == traces[1]

    def test_resume_reproduces_trace(self, generated, tmp_path):
        full_dir = tmp_path / "full"
        _run("train", "--model", "synthetic", "--family", "branch",
             "--structure", "dense", "--dim", "1", "--data", str(generated / "data"),
             "--iters", "100", "--trace-every", "25", "--seed", "2",
             "--out-dir", str(full_dir))
        part_dir = tmp_path / "part"
        _run("train", "--model", "synthetic", "--family", "branch",
             "--structure", "dense", "--dim", "1", "--data", str(generated / "data"),
             "--iters", "50", "--trace-every", "25", "--seed", "2",
             "--out-dir", str(part_dir))
        _run("train", "--model", "synthetic", "--family", "branch",
             "--structure", "dense", "--dim", "1", "--data", str(generated / "data"),
             "--iters", "100", "--trace-every", "25", "--seed", "2",
             "--out-dir", str(part_dir), "--resume", str(part_dir / "checkpoint.nt"))
        full_rows = {r["iter"]: r for r in _read_trace(full_dir / "trace.csv")}
        part_rows = {r["iter"]: r for r in _read_trace(part_dir / "trace.csv")}
        shared = set(full_rows) & set(part_rows)
        assert {"0", "25", "50", "75", "99"} <= shared
        for it in shared:
            assert float(part_rows[it]["elbo"]) == pytest.approx(
                float(full_rows[it]["elbo"]), abs=1e-9)
            assert float(part_rows[it]["ema_elbo"]) == pytest.approx(
                float(full_rows[it]["ema_elbo"]), abs=1e-9)

    def test_eval_writes_reports(self, generated, tmp_path):
        run_dir = tmp_path / "run"
        _run("train", "--model", "synthetic", "--family", "branch",
             "--structure", "dense", "--dim", "1", "--data", str(generated / "data"),
             "--iters", "80", "--seed", "5", "--out-dir", str(run_dir))
        eval_dir = tmp_path / "eval"
        rc = _run("eval", "--model", "synthetic", "--dim", "1",
                  "--data", str(generated / "data"),
                  "--checkpoint", str(run_dir / "checkpoint.nt"),
                  "--k-samples", "50", "--seed", "5", "--out-dir", str(eval_dir))
        assert rc == 0
        blob = json.loads((eval_dir / "report.json").read_text())
        assert blob["k"] == 50
        assert blob["train_elbo"] <= blob["train_ll"] + 1e-12

    def test_eval_missing_checkpoint_errors(self, generated, tmp_path):
        rc = _run("eval", "--model", "synthetic", "--dim", "1",
                  "--data", str(generated / "data"),
                  "--checkpoint", str(tmp_path / "nope.nt"),
                  "--out-dir", str(tmp_path / "e"))
        assert rc != 0

    def test_joint_rejects_subsampling(self, generated, tmp_path):
        rc = _run("train", "--model", "synthetic", "--family", "joint",
                  "--structure", "dense", "--dim", "1",
                  "--data", str(generated / "data"), "--iters", "10",
                  "--batch-size", "2", "--branches", "4",
                  "--out-dir", str(tmp_path / "j"))
        assert rc != 0

    def test_amortized_training_runs(self, generated, tmp_path):
        run_dir = tmp_path / "am"
        rc = _run("train", "--model", "synthetic", "--family", "amortized",
                  "--structure", "dense", "--dim", "1",
                  "--data", str(generated / "data"), "--iters", "30",
                  "--batch-size", "2", "--seed", "5", "--out-dir", str(run_dir))
        assert rc == 0
        params, _, _, _ = load_checkpoint(run_dir / "checkpoint.nt")
        from branchvi.amortize import AmortParams

        assert isinstance(params, AmortParams)


    def test_eval_finds_test_split_beside_train_file(self, tmp_path):
        gen_dir = tmp_path / "runs_train"
        _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "3",
             "--obs", "10", "--seed", "4", "--test-fraction", "0.2",
             "--out-dir", str(gen_dir))
        train_dir = tmp_path / "t"
        _run("train", "--model", "synthetic", "--family", "branch", "--dim", "1",
             "--data", str(gen_dir / "data_train"), "--iters", "5", "--seed", "4",
             "--out-dir", str(train_dir))
        eval_dir = tmp_path / "e"
        rc = _run("eval", "--model", "synthetic", "--dim", "1",
                  "--data", str(gen_dir / "data_train"),
                  "--checkpoint", str(train_dir / "checkpoint.nt"),
                  "--k-samples", "5", "--out-dir", str(eval_dir))
        assert rc == 0
        blob = json.loads((eval_dir / "report.json").read_text())
        assert blob["n_test"] == load_dataset(str(gen_dir / "data_test")).n_obs > 0


class TestResumeValidation:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        gen = tmp_path / "gen"
        _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "4",
             "--obs", "3", "--seed", "8", "--out-dir", str(gen))
        run_dir = tmp_path / "run"
        _run("train", "--model", "synthetic", "--family", "branch", "--structure", "dense",
             "--dim", "1", "--data", str(gen / "data"), "--iters", "3", "--seed", "8",
             "--out-dir", str(run_dir))
        return gen / "data", run_dir / "checkpoint.nt"

    @pytest.mark.parametrize("flags, needle", [
        (("--family", "amortized", "--structure", "dense"), "branch/dense"),
        (("--family", "branch", "--structure", "diag"), "branch/dense"),
        (("--family", "branch", "--structure", "dense", "--branches", "5"), "branches 4 != 5"),
    ], ids=["kind", "structure", "n_branches"])
    def test_mismatch_exits_2(self, checkpoint, tmp_path, capsys, flags, needle):
        data, ckpt_path = checkpoint
        if "--branches" in flags:
            gen5 = tmp_path / "gen5"
            _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "5",
                 "--obs", "3", "--seed", "8", "--out-dir", str(gen5))
            data = gen5 / "data"
        capsys.readouterr()
        rc = _run("train", "--model", "synthetic", "--dim", "1", *flags,
                  "--data", str(data), "--iters", "6", "--resume", str(ckpt_path),
                  "--out-dir", str(tmp_path / "resumed"))
        assert rc == 2
        assert needle in capsys.readouterr().err

    def test_v1_checkpoint_resumes_bitwise(self, tmp_path):
        """The fixture is a per-branch-key checkpoint after 2 iterations of

            branchvi train --data data --family branch --structure dense --dim 2
                --seed 7 --iters 2 --batch-size 2 --n-mc 3 --trace-every 1

        on a 3-branch synthetic dataset (generate --dim 2 --branches 3 --obs 5
        --seed 7). Resumed to iteration 4 it must equal a 4-iteration run.
        """
        assert "params.w.000000.A" in load_tensors(V1_BRANCH_DENSE / "checkpoint.nt")
        flags = ("--model", "synthetic", "--family", "branch", "--structure", "dense",
                 "--dim", "2", "--seed", "7", "--iters", "4", "--batch-size", "2",
                 "--n-mc", "3", "--trace-every", "1",
                 "--data", str(V1_BRANCH_DENSE / "data"))
        assert _run("train", *flags, "--out-dir", str(tmp_path / "full")) == 0
        assert _run("train", *flags, "--out-dir", str(tmp_path / "resumed"),
                    "--resume", str(V1_BRANCH_DENSE / "checkpoint.nt")) == 0
        full = load_tensors(tmp_path / "full" / "checkpoint.nt")
        resumed = load_tensors(tmp_path / "resumed" / "checkpoint.nt")
        assert list(full) == list(resumed)
        for k in full:
            assert np.array_equal(full[k], resumed[k], equal_nan=True), k

    def test_v1_keys_stack_into_rows(self, tmp_path):
        v1 = load_tensors(V1_BRANCH_DENSE / "checkpoint.nt")
        params, it, _, adam = load_checkpoint(V1_BRANCH_DENSE / "checkpoint.nt")
        assert it == 2 and adam.t == 2 and params.W.shape == (3, 2 + 4 + 3)
        for i in range(3):
            w = params.local(i)
            assert np.array_equal(w.mu, v1[f"params.w.{i:06d}.mu"])
            assert np.array_equal(w.A, v1[f"params.w.{i:06d}.A"])
            assert np.array_equal(w.chol.raw, v1[f"params.w.{i:06d}.raw"])
        del v1["params.w.000001.raw"]
        save_tensors(tmp_path / "broken.nt", v1)
        with pytest.raises(InvalidDataError, match="w.000001.raw"):
            load_checkpoint(tmp_path / "broken.nt")


class TestNumericValidation:
    @pytest.mark.parametrize("flag, value", [
        ("--n-mc", "0"), ("--iters", "-1"), ("--batch-size", "-1"),
        ("--trace-every", "-1"), ("--k-samples", "0"), ("--lr", "0"), ("--lr", "-0.001"),
        ("--lr", "nan"), ("--lr", "inf"), ("--gamma", "0"), ("--gamma", "nan"),
        ("--test-fraction", "1"), ("--test-fraction", "-0.1"), ("--workers", "0"),
    ])
    def test_out_of_range_flag_exits_2(self, flag, value, capsys):
        rc = _run("train", "--data", "unused", flag, value)
        assert rc == 2
        assert flag in capsys.readouterr().err


class TestConvert:
    def test_convert_then_warm_start(self, tmp_path):
        gen_dir = tmp_path / "gen"
        _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "3",
             "--obs", "4", "--seed", "6", "--out-dir", str(gen_dir))
        joint_dir = tmp_path / "joint"
        _run("train", "--model", "synthetic", "--family", "joint",
             "--structure", "dense", "--dim", "1", "--data", str(gen_dir / "data"),
             "--iters", "60", "--seed", "6", "--out-dir", str(joint_dir))
        conv_dir = tmp_path / "conv"
        rc = _run("convert", "--checkpoint", str(joint_dir / "checkpoint.nt"),
                  "--out-dir", str(conv_dir), "--seed", "6")
        assert rc == 0
        branch, it, _, _ = load_checkpoint(conv_dir / "checkpoint_branch.nt")
        assert isinstance(branch, BranchParams) and it == 0
        warm_dir = tmp_path / "warm"
        rc = _run("train", "--model", "synthetic", "--family", "branch",
                  "--structure", "dense", "--dim", "1", "--data", str(gen_dir / "data"),
                  "--iters", "20", "--seed", "7",
                  "--resume", str(conv_dir / "checkpoint_branch.nt"),
                  "--out-dir", str(warm_dir))
        assert rc == 0

    def test_identity_joint_converts_to_zero_A(self, tmp_path):
        from branchvi.cli import save_checkpoint
        from branchvi.families import init_joint, joint_to_branch

        fam = init_joint("dense", 1, 1, 2)
        path = tmp_path / "joint.nt"
        save_checkpoint(str(path), fam)
        rc = _run("convert", "--checkpoint", str(path), "--out-dir", str(tmp_path))
        assert rc == 0
        branch, _, _, _ = load_checkpoint(tmp_path / "checkpoint_branch.nt")
        for i in range(branch.n_branches):
            assert np.allclose(branch.local(i).A, 0.0, atol=1e-15)

    def test_convert_rejects_branch_checkpoint(self, tmp_path):
        from branchvi.cli import save_checkpoint
        from branchvi.families import init_branch

        path = tmp_path / "branch.nt"
        save_checkpoint(str(path), init_branch("dense", 1, 1, 2))
        rc = _run("convert", "--checkpoint", str(path), "--out-dir", str(tmp_path))
        assert rc != 0


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("# comment\nmodel = synthetic\ndim = 3\nseed = 41\n"
                            "lr = 0.005\n")
        values = parse_config_file(str(cfg_path))
        assert values == {"model": "synthetic", "dim": 3, "seed": 41, "lr": 0.005}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense = 1\n")
        with pytest.raises(Exception):
            parse_config_file(str(cfg_path))

    def test_flags_override_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dim = 3\nseed = 41\n")
        out = tmp_path / "gen"
        rc = _run("generate", "--config", str(cfg_path), "--model", "synthetic",
                  "--dim", "2", "--branches", "2", "--obs", "3",
                  "--out-dir", str(out))
        assert rc == 0
        manifest = (out / "manifest.txt").read_text()
        assert "dim = 2" in manifest      # flag wins
        assert "seed = 41" in manifest    # file value survives


class TestCheck:
    def test_all_pass_and_fast(self, capsys):
        t0 = time.perf_counter()
        rc = _run("check")
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == len(checks.CHECKS)
        assert "FAIL" not in out
        assert elapsed < 60.0

    def test_detects_corrupted_diag_transform(self, monkeypatch, capsys):
        def broken(x, gamma=1.0):
            x = np.asarray(x, dtype=float)
            # gamma sign flip: psi(x) = (x + sqrt(x^2 - 4 gamma)) / 2
            return 0.5 * (x + np.sqrt(np.maximum(x * x - 4.0 * gamma, 0.0)))

        monkeypatch.setattr(gaussmath, "diag_transform", broken)
        failures = checks.run_checks(out=lambda *_: None)
        assert failures > 0


class TestPaperShapeConfig:
    def test_small_scale_synthetic_shape(self, tmp_path):
        # N=10 branches of 100 observations with 10-dim covariates
        out = tmp_path / "smallscale"
        rc = _run("generate", "--model", "synthetic", "--dim", "10",
                  "--branches", "10", "--obs", "100", "--seed", "1",
                  "--out-dir", str(out))
        assert rc == 0
        data = load_dataset(str(out / "data"))
        assert data.n_branches == 10
        assert data.covariate_dim == 10
        assert all(b.n == 100 for b in data.branches)
        assert (out / "oracle.txt").exists()
