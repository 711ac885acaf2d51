import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from branchvi import checks, gaussmath
from branchvi.checkpoint import load_tensors, save_tensors
from branchvi import cli
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
        assert test.counts.tolist() == [1, 1, 1]
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
                  "--batch-size", "2", "--out-dir", str(tmp_path / "j"))
        assert rc == 2

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


def test_eval_rejects_test_data_that_does_not_match_train(tmp_path, capsys):
    # A data_test.* from another run beside data_train.* must not be scored.
    gen, other = tmp_path / "gen", tmp_path / "other"
    assert _run("generate", "--dim", "1", "--branches", "4", "--test-fraction", "0.2",
                "--seed", "5", "--out-dir", str(gen)) == 0
    assert _run("generate", "--dim", "2", "--branches", "4", "--test-fraction", "0.2",
                "--seed", "5", "--out-dir", str(other)) == 0
    for ext in ("bin", "meta"):
        (gen / f"data_test.{ext}").write_bytes((other / f"data_test.{ext}").read_bytes())
    assert _run("train", "--dim", "1", "--data", str(gen / "data_train"), "--iters", "3",
                "--n-mc", "2", "--out-dir", str(tmp_path / "t")) == 0
    capsys.readouterr()
    rc = _run("eval", "--dim", "1", "--data", str(gen / "data_train"),
              "--checkpoint", str(tmp_path / "t" / "checkpoint.nt"), "--k-samples", "5",
              "--out-dir", str(tmp_path / "e"))
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert "train and test differ in covariate_dim: 1 vs 2" in err
    assert not (tmp_path / "e" / "report.json").exists()


class TestBatchSizeAgainstData:
    """--batch-size is checked against the dataset's N (20 here), not --branches."""

    @pytest.fixture(scope="class")
    def data20(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("gen20")
        assert _run("generate", "--dim", "1", "--branches", "20", "--obs", "3",
                    "--seed", "2", "--out-dir", str(out)) == 0
        return out / "data"

    @pytest.mark.parametrize("family, batch, rc, needle", [
        ("joint", 20, 0, None),
        ("joint", 10, 2, "joint families cannot be subsampled"),
        ("branch", 5000, 2, "--batch-size must be in [0, 20]"),
        ("amortized", 21, 2, "--batch-size must be in [0, 20]"),
    ])
    def test_batch_size_against_dataset(self, data20, tmp_path, capsys, family, batch, rc,
                                        needle):
        got = _run("train", "--family", family, "--dim", "1", "--data", str(data20),
                   "--iters", "2", "--n-mc", "2", "--batch-size", str(batch),
                   "--out-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert got == rc
        if needle is not None:
            assert needle in err and "Traceback" not in err
            assert not (tmp_path / "run" / "checkpoint.nt").exists()


def test_no_subcommand_imports_scipy(tmp_path):
    """generate, train (every family), eval, convert and check run on numpy alone."""
    code = (
        "import sys\n"
        "from branchvi.cli import main\n"
        "d = sys.argv[1]\n"
        "def run(*argv):\n"
        "    assert main(list(argv)) == 0, argv\n"
        "run('generate', '--dim', '1', '--branches', '3', '--obs', '5', '--seed', '1',\n"
        "    '--test-fraction', '0.2', '--out-dir', d)\n"
        "for fam in ('joint', 'branch', 'amortized'):\n"
        "    run('train', '--family', fam, '--dim', '1', '--data', d + '/data_train',\n"
        "        '--iters', '3', '--n-mc', '2', '--out-dir', d + '/' + fam)\n"
        "    run('eval', '--dim', '1', '--data', d + '/data_train', '--k-samples', '5',\n"
        "        '--checkpoint', d + '/' + fam + '/checkpoint.nt', '--out-dir', d + '/ev' + fam)\n"
        "run('convert', '--checkpoint', d + '/joint/checkpoint.nt', '--out-dir', d + '/cv')\n"
        "run('check')\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "PASS joint estimator gradient (dense, block)" in proc.stdout


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
        --seed 7), made with dense Adam. Resumed to iteration 4 it must equal
        a resume from the same state in the stacked layout. (It cannot equal
        a 4-iteration run with lazy-row Adam, whose first two steps leave the
        unsampled rows where they are; a checkpoint without 'opt.tau' counts
        every row as updated at its last step.)
        """
        v1 = load_tensors(V1_BRANCH_DENSE / "checkpoint.nt")
        assert "params.w.000000.A" in v1 and "opt.tau" not in v1
        stacked = {k: a for k, a in v1.items() if not k.startswith("params.w.")}
        stacked["params.w"] = np.stack([np.concatenate(
            [v1[f"params.w.{i:06d}.{f}"].ravel() for f in ("mu", "A", "raw")])
            for i in range(3)])
        save_tensors(tmp_path / "stacked.nt", stacked)
        flags = ("--model", "synthetic", "--family", "branch", "--structure", "dense",
                 "--dim", "2", "--seed", "7", "--iters", "4", "--batch-size", "2",
                 "--n-mc", "3", "--trace-every", "1",
                 "--data", str(V1_BRANCH_DENSE / "data"))
        assert _run("train", *flags, "--out-dir", str(tmp_path / "v1"),
                    "--resume", str(V1_BRANCH_DENSE / "checkpoint.nt")) == 0
        assert _run("train", *flags, "--out-dir", str(tmp_path / "stacked"),
                    "--resume", str(tmp_path / "stacked.nt")) == 0
        from_v1 = load_tensors(tmp_path / "v1" / "checkpoint.nt")
        from_stacked = load_tensors(tmp_path / "stacked" / "checkpoint.nt")
        assert list(from_v1) == list(from_stacked)
        for k in from_v1:
            assert np.array_equal(from_v1[k], from_stacked[k], equal_nan=True), k
        assert np.array_equal(from_v1["opt.t"], [4.0])
        assert set(from_v1["opt.tau"]) <= {2.0, 3.0, 4.0}

    def test_lazy_resume_inside_a_gap_is_bitwise(self, tmp_path):
        # 6 branches, batch 2: at the resume many rows were last updated
        # steps ago and catch up only after it, from the saved opt.tau
        gen = tmp_path / "gen"
        _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "6",
             "--obs", "4", "--seed", "9", "--out-dir", str(gen))
        flags = ("--model", "synthetic", "--dim", "1", "--data", str(gen / "data"),
                 "--batch-size", "2", "--n-mc", "2", "--seed", "9", "--lr", "0.05",
                 "--trace-every", "1")
        assert _run("train", *flags, "--iters", "30", "--out-dir", str(tmp_path / "full")) == 0
        assert _run("train", *flags, "--iters", "13", "--out-dir", str(tmp_path / "a")) == 0
        half = load_tensors(tmp_path / "a" / "checkpoint.nt")
        assert np.any(half["opt.tau"] < 12)  # some rows are inside a gap
        assert _run("train", *flags, "--iters", "30", "--out-dir", str(tmp_path / "a"),
                    "--resume", str(tmp_path / "a" / "checkpoint.nt")) == 0
        full = load_tensors(tmp_path / "full" / "checkpoint.nt")
        resumed = load_tensors(tmp_path / "a" / "checkpoint.nt")
        assert list(full) == list(resumed)
        for k in full:
            assert np.array_equal(full[k], resumed[k]), k
        assert _read_trace(tmp_path / "full" / "trace.csv") == [
            {**r, "wall_seconds": f["wall_seconds"]} for r, f in
            zip(_read_trace(tmp_path / "a" / "trace.csv"),
                _read_trace(tmp_path / "full" / "trace.csv"))]
        # without opt.tau every row counts as updated at opt.t; the run resumes
        del half["opt.tau"]
        save_tensors(tmp_path / "no_tau.nt", half)
        assert _run("train", *flags, "--iters", "30", "--out-dir", str(tmp_path / "b"),
                    "--resume", str(tmp_path / "no_tau.nt")) == 0
        out = load_tensors(tmp_path / "b" / "checkpoint.nt")
        assert np.all(np.isfinite(out["params.w"])) and out["opt.tau"].shape == (6,)
        assert np.all(out["opt.tau"] >= 13)

    def test_v1_keys_stack_into_rows(self, tmp_path):
        v1 = load_tensors(V1_BRANCH_DENSE / "checkpoint.nt")
        params, it, _, adam = load_checkpoint(V1_BRANCH_DENSE / "checkpoint.nt")
        assert it == 2 and adam.t == 2 and params.W.shape == (3, 2 + 4 + 3)
        for i in range(3):
            assert np.array_equal(params.mu[i], v1[f"params.w.{i:06d}.mu"])
            assert np.array_equal(params.A[i], v1[f"params.w.{i:06d}.A"])
            assert np.array_equal(params.raw[i], v1[f"params.w.{i:06d}.raw"])
        del v1["params.w.000001.raw"]
        save_tensors(tmp_path / "broken.nt", v1)
        with pytest.raises(InvalidDataError, match="w.000001.raw"):
            load_checkpoint(tmp_path / "broken.nt")

    def test_v1_key_beyond_the_branches_is_rejected(self, tmp_path):
        v1 = load_tensors(V1_BRANCH_DENSE / "checkpoint.nt")
        v1["params.w.000003.mu"] = np.zeros(2)  # the family has branches 0-2
        save_tensors(tmp_path / "stray.nt", v1)
        with pytest.raises(InvalidDataError, match=re.escape(
                "'params.w.000003.mu' is not an array of the branch/dense family")):
            load_checkpoint(tmp_path / "stray.nt")


class TestNumericValidation:
    @pytest.mark.parametrize("flag, value", [
        ("--n-mc", "0"), ("--iters", "-1"), ("--batch-size", "-1"),
        ("--trace-every", "-1"), ("--k-samples", "0"), ("--lr", "0"), ("--lr", "-0.001"),
        ("--lr", "nan"), ("--lr", "inf"), ("--gamma", "0"), ("--gamma", "nan"),
        ("--test-fraction", "1"), ("--test-fraction", "-0.1"),
        ("--drop-every", "0"), ("--drop-every", "-5"), ("--max-drops", "-1"),
        ("--max-drops", "-2"), ("--drop-factor", "0"), ("--drop-factor", "-0.1"),
        ("--drop-factor", "nan"), ("--drop-factor", "inf"),
        ("--seed", "-1"), ("--dim", "0"), ("--dim", "-1"), ("--gamma", "inf"),
    ])
    def test_out_of_range_flag_exits_2(self, flag, value, capsys):
        rc = _run("train", "--data", "unused", flag, value)
        assert rc == 2
        assert flag in capsys.readouterr().err

    def test_generate_preference_rejects_a_negative_count(self, tmp_path, capsys):
        rc = _run("generate", "--model", "preference", "--branches", "3", "--obs", "-1",
                  "--out-dir", str(tmp_path / "gen"))
        out = capsys.readouterr()
        assert rc == 2
        assert out.err.startswith("error:") and "Traceback" not in out.err + out.out
        assert not (tmp_path / "gen").exists()
        assert _run("generate", "--model", "preference", "--branches", "3", "--obs", "0",
                    "--out-dir", str(tmp_path / "gen")) == 0  # zero counts stay legal

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--dim", "0"), ("--dim", "-1"), ("--gamma", "inf"),
    ])
    def test_generate_writes_nothing_for_an_out_of_range_flag(self, flag, value, tmp_path,
                                                               capsys):
        rc = _run("generate", "--model", "preference", "--branches", "3", "--obs", "4",
                  flag, value, "--out-dir", str(tmp_path / "gen"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not (tmp_path / "gen").exists()


class TestCheckpointGamma:
    def test_amortized_family_saves_the_gamma_of_v(self, tmp_path):
        from branchvi.amortize import AmortArch, AmortParams, net_init
        from branchvi.families import factor_gamma, init_branch
        from branchvi.rng import RngStream

        net = net_init("dense", 2, 2, 2, RngStream(540), AmortArch((3, 3), (4, 4)))
        params = AmortParams(init_branch("dense", 2, 2, 0, gamma=3.0).v, net)
        path = tmp_path / "amortized.nt"
        cli.save_checkpoint(str(path), params)
        assert load_tensors(path)["meta.gamma"].tolist() == [3.0]
        back, _, _, _ = load_checkpoint(path)
        assert factor_gamma(back.v) == 3.0

    def test_block_joint_with_two_gammas_is_not_saved(self, tmp_path):
        from branchvi.errors import MalformedParamsError
        from branchvi.families import init_joint

        fam = init_joint("block", 1, 1, 3, gamma=1.0)
        fam.locals_spec = init_joint("block", 1, 1, 3, gamma=4.0).locals_spec
        path = tmp_path / "joint.nt"
        with pytest.raises(MalformedParamsError,
                           match="theta gamma 1.0 and locals gamma 4.0"):
            cli.save_checkpoint(str(path), fam)
        assert not path.exists()


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
        from branchvi.families import init_joint

        fam = init_joint("dense", 1, 1, 2)
        path = tmp_path / "joint.nt"
        save_checkpoint(str(path), fam)
        rc = _run("convert", "--checkpoint", str(path), "--out-dir", str(tmp_path))
        assert rc == 0
        branch, _, _, _ = load_checkpoint(tmp_path / "checkpoint_branch.nt")
        assert branch.A.shape == (2, 1, 1) and np.allclose(branch.A, 0.0, atol=1e-15)

    def test_printed_check_on_a_conditionally_independent_joint(self, tmp_path, capsys):
        # z_i independent of z_j given theta: the branch family has the joint's
        # density, so the spot check reads rounding error only.
        from branchvi.cli import save_checkpoint
        from branchvi.gaussmath import GaussianSpec, tril_unmap

        D, dz, N = 2, 2, 3
        P = D + N * dz
        gen = np.random.default_rng(600)
        L = np.tril(gen.standard_normal((P, P)) * 0.5)
        L[np.arange(P), np.arange(P)] = np.abs(np.diag(L)) + 0.6
        L[D:, D:] *= np.kron(np.eye(N), np.ones((dz, dz)))   # no cross-branch blocks
        fam = JointFamily("dense", D, dz, N,
                          spec=GaussianSpec(gen.standard_normal(P), tril_unmap(L)))
        save_checkpoint(str(tmp_path / "joint.nt"), fam)
        rc = _run("convert", "--checkpoint", str(tmp_path / "joint.nt"),
                  "--out-dir", str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        m = re.search(r"theta-marginal max abs err (\S+); "
                      r"density spot-check max \|delta\| (\S+) ", out)
        assert m, out
        assert float(m.group(1)) < 1e-12 and float(m.group(2)) < 1e-9

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
        with pytest.raises(InvalidDataError, match="bad.cfg:1: unknown key 'nonsense'"):
            parse_config_file(str(cfg_path))

    @pytest.mark.parametrize("line, message", [
        ("iters = abc", "'iters' needs an integer, got 'abc'"),
        ("iters = 1.5", "'iters' needs an integer, got '1.5'"),
        ("lr = fast", "'lr' needs a float, got 'fast'"),
    ])
    def test_unparsable_value_exits_2_naming_the_line(self, tmp_path, capsys, line, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"# header\n{line}\n")
        rc = _run("train", "--config", str(cfg_path), "--data", "unused")
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {cfg_path}:2: {message}\n"

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        for path in (tmp_path, tmp_path / "missing.cfg"):
            rc = _run("train", "--config", str(path), "--data", "unused")
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: ") and str(path) in err

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


# Each RunConfig field's flag, a value for it and the value it sets; no
# value is the field's default.
EVERY_FLAG = {
    "model": ("--model", "preference", "preference"),
    "family": ("--family", "amortized", "amortized"),
    "structure": ("--structure", "diag", "diag"),
    "dim": ("--dim", "3", 3),
    "n_branches": ("--branches", "7", 7),
    "obs_per_branch": ("--obs", "5", 5),
    "seed": ("--seed", "9", 9),
    "iters": ("--iters", "11", 11),
    "batch_size": ("--batch-size", "2", 2),
    "n_mc": ("--n-mc", "4", 4),
    "lr": ("--lr", "0.02", 0.02),
    "drop_every": ("--drop-every", "13", 13),
    "drop_factor": ("--drop-factor", "0.5", 0.5),
    "max_drops": ("--max-drops", "1", 1),
    "trace_every": ("--trace-every", "3", 3),
    "k_samples": ("--k-samples", "17", 17),
    "test_fraction": ("--test-fraction", "0.25", 0.25),
    "gamma": ("--gamma", "2.0", 2.0),
    "data": ("--data", "d", "d"),
    "out_dir": ("--out-dir", "o", "o"),
    "checkpoint": ("--checkpoint", "c", "c"),
    "resume": ("--resume", "r", "r"),
}


def test_every_field_is_set_by_its_flag():
    fields = dataclasses.fields(cli.RunConfig)
    assert [f.name for f in fields] == list(EVERY_FLAG)
    parser = argparse.ArgumentParser()
    cli._add_common_flags(parser)
    argv = [a for flag, raw, _ in EVERY_FLAG.values() for a in (flag, raw)]
    cfg = cli.resolve_config(parser.parse_args(argv))
    default = cli.RunConfig()
    for name, (_, _, want) in EVERY_FLAG.items():
        got = getattr(cfg, name)
        assert got == want and type(got) is type(want) and got != getattr(default, name), name


@pytest.mark.parametrize("flag, value", [("--model", "other"), ("--family", "dense"),
                                         ("--structure", "joint"), ("--dim", "2.5"),
                                         ("--lr", "fast")])
def test_flag_rejects_a_value_outside_its_type_or_choices(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", flag, value])
    assert exc.value.code == 2 and flag in capsys.readouterr().err


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

    def test_lines_carry_check_time(self):
        lines = []
        failures = checks.run_checks(out=lines.append)
        assert failures == 0
        assert [re.fullmatch(r"PASS (.+) \((\d+\.\d) ms\)", line).group(1)
                for line in lines] == [name for name, _ in checks.CHECKS]

    def test_failing_check_line_names_time_and_exception(self, monkeypatch):
        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(checks, "CHECKS", [("ok", lambda: True), ("bad", lambda: False),
                                               ("crash", crash)])
        lines = []
        assert checks.run_checks(out=lines.append) == 2
        assert re.fullmatch(r"PASS ok \(\d+\.\d ms\)", lines[0])
        assert re.fullmatch(r"FAIL bad \(\d+\.\d ms\)", lines[1])
        assert re.fullmatch(r"FAIL crash \(\d+\.\d ms\) \(exception: boom\)", lines[2])

    def test_checks_the_joint_estimator(self, monkeypatch):
        from branchvi import estimators

        lines = []
        assert checks.run_checks(out=lines.append) == 0
        assert any(re.fullmatch(r"PASS joint estimator gradient \(dense, block\) \(\d+\.\d ms\)",
                                line) for line in lines)
        draw = estimators.joint_draw_batch

        def biased(fam, EPS):  # a log q off by 1%: the gradient no longer matches
            X, logqs, auxs = draw(fam, EPS)
            return X, 1.01 * logqs, auxs

        monkeypatch.setattr(estimators, "joint_draw_batch", biased)
        assert checks._check_joint_gradients() is False
        assert checks._check_branch_gradient() is True

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
        assert data.counts.tolist() == [100] * 10
        assert (out / "oracle.txt").exists()


def test_train_iters_zero_without_resume_exits_2(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "2",
         "--obs", "3", "--seed", "8", "--out-dir", str(gen_dir))
    capsys.readouterr()
    rc = _run("train", "--model", "synthetic", "--dim", "1", "--data",
              str(gen_dir / "data"), "--iters", "0", "--out-dir", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == 2
    assert "--iters" in err and "checkpoint" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("where", ["value", "gradient"])
def test_diverging_train_exits_1_without_traceback(where, tmp_path, monkeypatch, capsys):
    # A NaN branch log-density (EstimatorError) or a NaN gradient
    # (NonFiniteGradientError) from the 4th step on ends the run with exit 1.
    from branchvi import cli

    gen_dir = tmp_path / "gen"
    _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "3",
         "--obs", "4", "--seed", "8", "--out-dir", str(gen_dir))
    orig_build = cli.build_model

    def poisoned_build(cfg, data):
        model = orig_build(cfg, data)
        orig = model.log_branch_grad
        calls = {"n": 0}

        def poisoned(THETA, Z, obs):
            vals, g_theta, g_z = orig(THETA, Z, obs)
            calls["n"] += 1
            if calls["n"] > 3:
                (vals if where == "value" else g_z)[1, 2] = np.nan
            return vals, g_theta, g_z

        model.log_branch_grad = poisoned
        return model

    monkeypatch.setattr(cli, "build_model", poisoned_build)
    capsys.readouterr()
    rc = _run("train", "--model", "synthetic", "--dim", "1", "--data",
              str(gen_dir / "data"), "--iters", "10", "--n-mc", "2",
              "--out-dir", str(tmp_path / "run"))
    out = capsys.readouterr()
    assert rc == 1
    if where == "value":
        assert "error: iteration 3: non-finite branch log-density at branch 2, MC copy 1" \
            in out.err
    else:
        assert "error: iteration 3: non-finite gradient" in out.err
    assert "Traceback" not in out.err + out.out


class TestCorruptCheckpoint:
    @pytest.fixture()
    def trained(self, tmp_path):
        gen = tmp_path / "gen"
        _run("generate", "--model", "synthetic", "--dim", "1", "--branches", "3",
             "--obs", "4", "--seed", "8", "--out-dir", str(gen))
        run_dir = tmp_path / "run"
        _run("train", "--model", "synthetic", "--dim", "1", "--data", str(gen / "data"),
             "--iters", "3", "--seed", "8", "--out-dir", str(run_dir))
        return gen / "data", run_dir / "checkpoint.nt"

    @staticmethod
    def _eval_and_resume(data, path, tmp_path, capsys):
        """stderr of `eval --checkpoint path` and `train --resume path`, each exiting 2."""
        errs = []
        for argv in (("eval", "--checkpoint", str(path), "--k-samples", "10"),
                     ("train", "--iters", "6", "--resume", str(path))):
            capsys.readouterr()
            rc = _run(*argv, "--model", "synthetic", "--dim", "1", "--data", str(data),
                      "--out-dir", str(tmp_path / argv[0]))
            out = capsys.readouterr()
            assert rc == 2, argv
            assert out.err.startswith("error: ") and "Traceback" not in out.err + out.out
            errs.append(out.err)
        return errs

    def test_truncated_checkpoint_exits_2(self, trained, tmp_path, capsys):
        data, ckpt_path = trained
        cut = tmp_path / "cut.nt"
        cut.write_bytes(ckpt_path.read_bytes()[:100])
        for err in self._eval_and_resume(data, cut, tmp_path, capsys):
            assert f"{cut}: truncated at byte 100" in err

    def test_bad_magic_exits_2(self, trained, tmp_path, capsys):
        data, ckpt_path = trained
        bad = tmp_path / "bad.nt"
        bad.write_bytes(b"XXXX" + ckpt_path.read_bytes()[4:])
        for err in self._eval_and_resume(data, bad, tmp_path, capsys):
            assert "not a named-tensor file" in err

    def test_missing_checkpoint_exits_2(self, trained, tmp_path, capsys):
        data, _ = trained
        missing = tmp_path / "missing.nt"
        for err in self._eval_and_resume(data, missing, tmp_path, capsys):
            assert str(missing) in err

    @pytest.mark.parametrize("edit, needle", [
        (lambda t: t.pop("meta.kind"), "'meta.kind'"),
        (lambda t: t.pop("meta.gamma"), "'meta.gamma'"),
        (lambda t: t.update({"meta.dims": np.zeros(3)}), "'meta.dims'"),
        (lambda t: t.update({"meta.kind": np.array([7.0])}),
         "unknown kind/structure codes (7.0, 0.0)"),
        (lambda t: t.update({"meta.structure": np.array([0.5])}),
         "unknown kind/structure codes (1.0, 0.5)"),
        (lambda t: t.pop("params.w"), "lacks 'params.w.000000.mu'"),
        (lambda t: t.pop("params.v.raw"), "lacks 'params.v.raw'"),
        (lambda t: t.pop("opt.s"), "'opt.s'"),
        (lambda t: t.update({"meta.dims": np.array([np.nan, 1.0, 3.0, 0.0])}),
         "'meta.dims' must hold whole numbers in [0, 2**53], got nan"),
        (lambda t: t.update({"meta.dims": np.array([1.0, -1.0, 3.0, 0.0])}),
         "'meta.dims' must hold whole numbers in [0, 2**53], got -1.0"),
        (lambda t: t.update({"meta.dims": np.array([1.0, 1.0, 3.0, 1e300])}),
         "'meta.dims' must hold whole numbers in [0, 2**53], got 1e+300"),
        (lambda t: t.update({"meta.dims": np.array([1.0, 1.0, 1e12, 0.0])}),
         "'meta.dims' [1, 1, 1000000000000, 0] describe a branch/dense family of "
         "3000000000002 values; the checkpoint holds 46"),  # 43 + opt.tau
        (lambda t: t.update({"train.iter": np.array([np.inf])}),
         "'train.iter' must hold whole numbers in [0, 2**53], got inf"),
        (lambda t: t.update({"opt.t": np.array([2.5])}),
         "'opt.t' must hold whole numbers in [0, 2**53], got 2.5"),
        (lambda t: t.update({"meta.gamma": np.array([np.nan])}),
         "'meta.gamma' must be finite and > 0, got nan"),
        (lambda t: t.update({"opt.tau": np.zeros(2)}),
         "'opt.tau' holds 2 values; the family has 3 W rows"),
        (lambda t: t.update({"opt.tau": np.array([1.0, 4.0, 0.0])}),
         "'opt.tau' must hold whole numbers in [0, opt.t = 3]"),
        (lambda t: t.update({"opt.tau": np.array([1.0, -1.0, 0.0])}),
         "'opt.tau' must hold whole numbers in [0, opt.t = 3]"),
        (lambda t: t.update({"opt.tau": np.array([1.5, 2.0, 3.0])}),
         "'opt.tau' must hold whole numbers in [0, opt.t = 3]"),
        (lambda t: t.update({"opt.tau": np.array([np.nan, 2.0, 3.0])}),
         "'opt.tau' must hold whole numbers in [0, opt.t = 3]"),
    ], ids=["no-kind", "no-gamma", "short-dims", "bad-kind", "bad-structure", "no-w",
            "no-v-raw", "no-opt-s", "nan-dims", "negative-dims", "huge-dims",
            "dims-beyond-file", "inf-iter", "fractional-opt-t", "nan-gamma", "short-tau", "tau-after-t",
            "negative-tau", "fractional-tau", "nan-tau"])
    def test_bad_meta_exits_2(self, trained, tmp_path, capsys, edit, needle):
        data, ckpt_path = trained
        tree = load_tensors(ckpt_path)
        edit(tree)
        bad = tmp_path / "meta.nt"
        save_tensors(bad, tree)
        with pytest.raises(InvalidDataError, match=re.escape(needle)):
            load_checkpoint(bad)
        for err in self._eval_and_resume(data, bad, tmp_path, capsys):
            assert needle in err

    @pytest.mark.parametrize("family, key, want", [
        ("joint", "q", 4), ("branch", "v", 1), ("amortized", "v", 1),
    ])
    def test_misshapen_params_exit_2(self, trained, tmp_path, capsys, family, key, want):
        # diag factors: nothing but this check ties their length to the dims
        data, _ = trained
        run_dir = tmp_path / family
        assert _run("train", "--model", "synthetic", "--dim", "1", "--data", str(data),
                    "--family", family, "--structure", "diag", "--iters", "2",
                    "--seed", "8", "--out-dir", str(run_dir)) == 0
        tree = load_tensors(run_dir / "checkpoint.nt")
        assert tree[f"params.{key}.mean"].shape == (want,)
        for field in ("mean", "scale_raw"):
            tree[f"params.{key}.{field}"] = np.zeros(want + 2)
        bad = tmp_path / "misshapen.nt"
        save_tensors(bad, tree)
        needle = (f"'params.{key}.mean' has shape ({want + 2},); the {family}/diag family "
                  f"needs ({want},)")
        with pytest.raises(InvalidDataError, match=re.escape(needle)):
            load_checkpoint(bad)
        for err in self._eval_and_resume(data, bad, tmp_path, capsys):
            assert needle in err


    @pytest.mark.parametrize("edit, needle", [
        (lambda t: t.update({"params.junk": np.zeros(1)}),
         "'params.junk' is not an array of the amortized/dense family"),
        (lambda t: [t.pop(k) for k in list(t) if k.startswith("params.net.")],
         "lacks 'params.net.feat.0.W'"),
        (lambda t: t.pop("params.net.param.3.W"), "lacks 'params.net.param.3.W'"),
    ], ids=["stray-key", "no-net", "no-last-param-weights"])
    def test_bad_amortized_params_exit_2(self, trained, tmp_path, capsys, edit, needle):
        data, _ = trained
        run_dir = tmp_path / "amortized"
        assert _run("train", "--model", "synthetic", "--dim", "1", "--data", str(data),
                    "--family", "amortized", "--iters", "2", "--seed", "8",
                    "--out-dir", str(run_dir)) == 0
        tree = load_tensors(run_dir / "checkpoint.nt")
        assert "params.net.param.3.b" in tree and "params.net.param.4.W" not in tree
        edit(tree)
        bad = tmp_path / "amortized.nt"
        save_tensors(bad, tree)
        with pytest.raises(InvalidDataError, match=re.escape(needle)):
            load_checkpoint(bad)
        for err in self._eval_and_resume(data, bad, tmp_path, capsys):
            assert needle in err


@pytest.mark.parametrize("family", ["branch", "amortized"])
def test_eval_rejects_checkpoint_dims_that_do_not_fit(family, tmp_path, capsys):
    for dim in (1, 2):
        _run("generate", "--model", "synthetic", "--dim", str(dim), "--branches", "3",
             "--obs", "4", "--seed", "8", "--out-dir", str(tmp_path / f"gen{dim}"))
    assert _run("train", "--model", "synthetic", "--dim", "2", "--family", family,
                "--data", str(tmp_path / "gen2" / "data"), "--iters", "2", "--seed", "8",
                "--out-dir", str(tmp_path / "run")) == 0
    capsys.readouterr()
    rc = _run("eval", "--model", "synthetic", "--dim", "1", "--family", family,
              "--checkpoint", str(tmp_path / "run" / "checkpoint.nt"),
              "--data", str(tmp_path / "gen1" / "data"), "--k-samples", "10",
              "--out-dir", str(tmp_path / "eval"))
    out = capsys.readouterr()
    assert rc == 2 and "Traceback" not in out.err + out.out
    assert out.err.startswith("error: ") and "global dim 2 != 1" in out.err
    if family == "amortized":
        assert "covariate dim 2 != 1" in out.err


def test_generate_oracle_at_scale(tmp_path):
    # 5000 branches x 20 observations: the closed-form oracle stays cheap.
    out = tmp_path / "big"
    rc = _run("generate", "--model", "synthetic", "--branches", "5000", "--obs", "20",
              "--seed", "4", "--out-dir", str(out))
    assert rc == 0
    log_marginal = float((out / "oracle.txt").read_text().split("=")[1])
    assert np.isfinite(log_marginal)
    assert load_tensors(out / "oracle.nt")["posterior_cov"].shape == (2, 2)
