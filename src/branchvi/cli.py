"""Command-line harness: generate, train, eval, convert, check.

Config values resolve in three layers: built-in defaults, then a flat
``key = value`` config file (--config), then command-line flags. Every run
writes a manifest (config echo, seed, content hashes of the input dataset)
sufficient to reproduce its outputs bitwise.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .amortize import AmortNet, AmortParams, MlpWeights, init_amortized
from .checks import run_checks
from .data import BranchDataset, SplitDataset, load_dataset, save_dataset, split
from .errors import (EstimatorError, InvalidDataError, MalformedParamsError,
                     NonFiniteGradientError)
from .families import (
    BranchParams,
    JointFamily,
    assemble_joint,
    factor_gamma,
    family_param_count,
    init_branch,
    init_joint,
    joint_factors,
    joint_to_branch,
    local_param_size,
)
from .gaussmath import LOG_2PI, mvn_logpdf, tril_map_raw, tril_solve
from .metrics import evaluate, write_report
from .models import (
    HbdModel,
    PreferenceConfig,
    SyntheticConfig,
    preference_forward_sample,
    preference_model,
    synthetic_forward_sample,
    synthetic_model,
    synthetic_oracle,
)
from .optim import AdamState, LrSchedule
from .rng import RngStream
from .training import params_to_tree, train
from .trees import tree_rebind

_KIND_CODES = {"joint": 0, "branch": 1, "amortized": 2}
_STRUCT_CODES = {"dense": 0, "block": 1, "diag": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_STRUCT_NAMES = {v: k for k, v in _STRUCT_CODES.items()}
# Checkpoint counts (dims, iterations) are stored as float64, which holds
# every whole number up to 2**53 exactly.
_MAX_COUNT = 2 ** 53

TRACE_COLUMNS = ("iter", "wall_seconds", "lr", "elbo", "ema_elbo")


@dataclass
class RunConfig:
    model: str = "synthetic"        # synthetic | preference
    family: str = "branch"          # joint | branch | amortized
    structure: str = "dense"        # dense | block | diag
    dim: int = 2                    # covariate / local dimension D
    n_branches: int = 10
    obs_per_branch: int = 100
    seed: int = 0
    iters: int = 20_000
    batch_size: int = 0             # 0 = full batch
    n_mc: int = 10
    lr: float = 1e-3
    drop_every: int = 50_000
    drop_factor: float = 0.1
    max_drops: int = 3
    trace_every: int = 100
    k_samples: int = 10_000
    test_fraction: float = 0.0
    gamma: float = 1.0
    data: str = ""
    out_dir: str = "run"
    checkpoint: str = ""
    resume: str = ""

    def validate(self) -> None:
        if self.model not in ("synthetic", "preference"):
            raise InvalidDataError(f"unknown model {self.model!r}")
        if self.family not in _KIND_CODES:
            raise InvalidDataError(f"unknown family {self.family!r}")
        if self.structure not in _STRUCT_CODES:
            raise InvalidDataError(f"unknown structure {self.structure!r}")
        for flag, value, ok, rule in (
            ("--seed", self.seed, self.seed >= 0, ">= 0"),
            ("--dim", self.dim, self.dim >= 1, ">= 1"),
            ("--n-mc", self.n_mc, self.n_mc >= 1, ">= 1"),
            ("--iters", self.iters, self.iters >= 0, ">= 0"),
            ("--batch-size", self.batch_size, self.batch_size >= 0, ">= 0"),
            ("--trace-every", self.trace_every, self.trace_every >= 0, ">= 0"),
            ("--k-samples", self.k_samples, self.k_samples >= 1, ">= 1"),
            ("--lr", self.lr, math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
            ("--drop-every", self.drop_every, self.drop_every >= 1, ">= 1"),
            ("--drop-factor", self.drop_factor,
             math.isfinite(self.drop_factor) and self.drop_factor > 0, "finite and > 0"),
            ("--max-drops", self.max_drops, self.max_drops >= 0, ">= 0"),
            ("--gamma", self.gamma, math.isfinite(self.gamma) and self.gamma > 0,
             "finite and > 0"),
            ("--test-fraction", self.test_fraction, 0 <= self.test_fraction < 1,
             "in [0, 1)"),
        ):
            if not ok:
                raise InvalidDataError(f"{flag} must be {rule}, got {value!r}")


def parse_config_file(path: str) -> dict:
    """Flat grammar: one `key = value` per line, '#' comments, blanks ignored."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidDataError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in fields:
                raise InvalidDataError(f"{path}:{lineno}: unknown key {key!r}")
            # the annotations are strings (postponed evaluation)
            number = {"int": (int, "an integer"), "float": (float, "a float")}.get(
                fields[key].type)
            if number is None:
                values[key] = raw
                continue
            convert, noun = number
            try:
                values[key] = convert(raw)
            except ValueError:
                raise InvalidDataError(
                    f"{path}:{lineno}: {key!r} needs {noun}, got {raw!r}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for f in dataclasses.fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Model / parameter construction shared by the subcommands.


def build_model(cfg: RunConfig, data: BranchDataset) -> HbdModel:
    if cfg.model == "synthetic":
        if data.covariate_dim != cfg.dim:
            raise InvalidDataError(
                f"dataset covariate dim {data.covariate_dim} != configured dim {cfg.dim}")
        return synthetic_model(cfg.dim)
    return preference_model(cfg.dim, gamma=cfg.gamma)


def init_params(cfg: RunConfig, model: HbdModel, data: BranchDataset, rng: RngStream):
    N = data.n_branches
    if cfg.family == "joint":
        return init_joint(cfg.structure, model.global_dim, model.local_dim, N, cfg.gamma)
    if cfg.family == "branch":
        return init_branch(cfg.structure, model.global_dim, model.local_dim, N, cfg.gamma)
    return init_amortized(cfg.structure, model.global_dim, model.local_dim,
                          data.covariate_dim, rng, gamma=cfg.gamma)


# ---------------------------------------------------------------------------
# Checkpoints: parameter tree plus enough metadata to rebuild the container.


def _checkpoint_meta(params):
    """(kind, structure, dims, gamma) recorded with a checkpoint.

    dims = [global_dim, local_dim, n_branches, x_dim]; n_branches is 0 for
    amortized families and x_dim is 0 for the others.
    """
    if isinstance(params, JointFamily):
        gamma = factor_gamma(joint_factors(params)[0][1])
        return "joint", params.structure, [params.global_dim, params.local_dim,
                                           params.n_branches, 0], gamma
    if isinstance(params, BranchParams):
        return "branch", params.structure, [params.global_dim, params.local_dim,
                                            params.n_branches, 0], params.gamma
    if isinstance(params, AmortParams):
        return "amortized", params.structure, [params.global_dim, params.local_dim, 0,
                                               params.net.x_dim], params.net.gamma
    raise MalformedParamsError(f"cannot checkpoint {type(params).__name__}")


def save_checkpoint(path: str, params, *, it: int = 0, ema: float = float("nan"),
                    adam: AdamState | None = None) -> None:
    kind, structure, dims, gamma = _checkpoint_meta(params)
    tree = {f"params.{k}": v for k, v in params_to_tree(params).items()}
    tree["meta.kind"] = np.array([_KIND_CODES[kind]], dtype=float)
    tree["meta.structure"] = np.array([_STRUCT_CODES[structure]], dtype=float)
    tree["meta.dims"] = np.asarray(dims, dtype=float)
    tree["meta.gamma"] = np.array([gamma])
    tree["train.iter"] = np.array([float(it)])
    tree["train.ema"] = np.array([ema])
    if adam is not None:
        tree["opt.m"] = adam.m
        tree["opt.s"] = adam.s
        tree["opt.t"] = np.array([float(adam.t)])
        if adam.tau is not None:
            tree["opt.tau"] = np.asarray(adam.tau, dtype=float)
    ckpt.save_tensors(path, tree)


def load_checkpoint(path: str):
    """Returns (params, iter, ema, adam-or-None)."""
    tree = ckpt.load_tensors(path)

    def entry(key, size=1):
        if key not in tree or tree[key].size != size:
            raise InvalidDataError(f"{path}: checkpoint needs a {size}-value {key!r}")
        return tree[key].ravel()

    codes = entry("meta.kind")[0], entry("meta.structure")[0]
    if codes[0] not in _KIND_NAMES or codes[1] not in _STRUCT_NAMES:
        raise InvalidDataError(f"{path}: unknown kind/structure codes {tuple(map(float, codes))}")
    kind, structure = _KIND_NAMES[codes[0]], _STRUCT_NAMES[codes[1]]

    def counts(key, size=1):
        values = [float(v) for v in entry(key, size)]
        for v in values:
            # is_integer() is False for NaN and the infinities
            if not (v.is_integer() and 0 <= v <= _MAX_COUNT):
                raise InvalidDataError(
                    f"{path}: {key!r} must hold whole numbers in [0, 2**53], got {v!r}")
        return [int(v) for v in values]

    gdim, ldim, nb, x_dim = counts("meta.dims", 4)
    gamma = float(entry("meta.gamma")[0])
    if not (math.isfinite(gamma) and gamma > 0):
        raise InvalidDataError(f"{path}: 'meta.gamma' must be finite and > 0, got {gamma!r}")
    it = counts("train.iter")[0]
    ema = float(entry("train.ema")[0])
    ptree = {k[len("params."):]: v for k, v in tree.items() if k.startswith("params.")}
    # The family is allocated from the dims before the stored arrays are
    # matched against it (a missing or misshapen one is named below), so a
    # checkpoint never makes the loader allocate more values than it holds.
    held = sum(v.size for v in tree.values())
    net = sum(v.size for k, v in ptree.items() if k.startswith("net."))
    want = family_param_count(kind, structure, nb, gdim, ldim, net)
    if want > held:
        raise InvalidDataError(
            f"{path}: 'meta.dims' {[gdim, ldim, nb, x_dim]} describe a {kind}/{structure} "
            f"family of {want} values; the checkpoint holds {held}")
    try:
        if kind == "joint":
            template = init_joint(structure, gdim, ldim, nb, gamma)
        elif kind == "branch":
            if "w" not in ptree:
                _stack_v1_locals(ptree, structure, gdim, ldim, nb)
            template = init_branch(structure, gdim, ldim, nb, gamma)
        else:
            template = AmortParams(init_branch(structure, gdim, ldim, 0, gamma).v,
                                   _load_net(structure, gdim, ldim, x_dim, gamma, ptree))
    except KeyError as exc:
        raise InvalidDataError(f"{path}: checkpoint lacks 'params.{exc.args[0]}'") from None
    except MalformedParamsError as exc:  # network layers that do not fit together
        raise InvalidDataError(f"{path}: {exc}") from None
    layout = params_to_tree(template)
    stray = [k for k in ptree if k not in layout]
    if stray:
        raise InvalidDataError(f"{path}: 'params.{stray[0]}' is not an array of the "
                               f"{kind}/{structure} family")
    for k, a in layout.items():
        if k not in ptree:
            raise InvalidDataError(f"{path}: checkpoint lacks 'params.{k}'")
        if ptree[k].shape != a.shape:
            raise InvalidDataError(f"{path}: 'params.{k}' has shape {ptree[k].shape}; the "
                                   f"{kind}/{structure} family needs {a.shape}")
    params = tree_rebind(template, layout, {k: ptree[k] for k in layout})
    adam = None
    if "opt.m" in tree:
        m = tree["opt.m"]
        adam = AdamState(m, entry("opt.s", m.size), counts("opt.t")[0])
        if "opt.tau" in tree:
            # each W row's last update step; without it every row counts as
            # updated at opt.t (train fills that in)
            tau = tree["opt.tau"].ravel()
            rows = nb if kind == "branch" else 0
            if tau.size != rows:
                raise InvalidDataError(
                    f"{path}: 'opt.tau' holds {tau.size} values; the family has {rows} W rows")
            if not np.all((tau >= 0) & (tau <= adam.t) & (tau == np.floor(tau))):
                raise InvalidDataError(
                    f"{path}: 'opt.tau' must hold whole numbers in [0, opt.t = {adam.t}]")
            adam.tau = tau.astype(np.int64)
    return params, it, ema, adam


def _stack_v1_locals(ptree, structure, gdim, ldim, nb) -> None:
    """Replace the per-branch ``w.%06d.*`` entries of older checkpoints by ``w``.

    Row i concatenates branch i's entries in their original order, which is
    the row layout of BranchParams.W, so the flat order (and any saved
    optimizer state) is unchanged.
    """
    fields = {"dense": ("mu", "A", "raw"), "block": ("mu", "raw"),
              "diag": ("mu", "scale_raw")}[structure]
    W = np.empty((nb, local_param_size(structure, gdim, ldim)))
    for i in range(nb):
        row = np.concatenate([ptree.pop(f"w.{i:06d}.{f}").ravel() for f in fields])
        if row.size != W.shape[1]:
            raise InvalidDataError(f"checkpoint branch {i} holds {row.size} local "
                                   f"values, expected {W.shape[1]}")
        W[i] = row
    ptree["w"] = W


def _load_net(structure, gdim, ldim, x_dim, gamma, ptree):
    def layers(prefix):
        # runs until a layer has neither array, so a missing one is named
        # (as is layer 0's weights when the MLP has no layers at all)
        Ws, bs, l = [], [], 0
        while l == 0 or any(f"net.{prefix}.{l}.{a}" in ptree for a in "Wb"):
            Ws.append(ptree[f"net.{prefix}.{l}.W"])
            bs.append(ptree[f"net.{prefix}.{l}.b"])
            l += 1
        return MlpWeights(Ws, bs)

    return AmortNet(layers("feat"), layers("param"), structure, gdim, ldim, x_dim, gamma)


# ---------------------------------------------------------------------------
# Manifest.


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, out_dir: str, command: str, inputs: list) -> None:
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        for f in dataclasses.fields(RunConfig):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")
        for p in inputs:
            if os.path.exists(p):
                fh.write(f"sha256.{os.path.basename(p)} = {_sha256(p)}\n")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_generate(cfg: RunConfig) -> int:
    if cfg.n_branches < 1:
        print("error: n_branches must be at least 1", file=sys.stderr)
        return 2
    obs = (cfg.obs_per_branch,) * cfg.n_branches
    if cfg.model == "synthetic":
        gen_cfg = SyntheticConfig(cfg.dim, cfg.n_branches, obs)
        data, latents = synthetic_forward_sample(gen_cfg, RngStream(cfg.seed, 0))
    else:
        gen_cfg = PreferenceConfig(cfg.dim, cfg.n_branches, obs, cfg.gamma)
        data, latents = preference_forward_sample(gen_cfg, RngStream(cfg.seed, 0))
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = os.path.join(cfg.out_dir, "data")
    save_dataset(data, base)
    ckpt.save_tensors(os.path.join(cfg.out_dir, "latents.nt"),
                      {"theta": latents.theta, "z": latents.z})
    if cfg.test_fraction > 0:
        parts = split(data, cfg.test_fraction, RngStream(cfg.seed, 1))
        save_dataset(parts.train, base + "_train")
        save_dataset(parts.test, base + "_test")
    if cfg.model == "synthetic":
        oracle = synthetic_oracle(data)
        with open(os.path.join(cfg.out_dir, "oracle.txt"), "w") as fh:
            fh.write(f"log_marginal = {oracle.log_marginal!r}\n")
        ckpt.save_tensors(os.path.join(cfg.out_dir, "oracle.nt"),
                          {"posterior_mean": oracle.posterior_global.mean,
                           "posterior_cov": oracle.posterior_global.cov()})
    write_manifest(cfg, cfg.out_dir, "generate", [base + ".bin", base + ".meta"])
    print(f"wrote dataset with {data.n_branches} branches, {data.n_obs} observations "
          f"to {cfg.out_dir}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.data:
        print("error: --data is required for train", file=sys.stderr)
        return 2
    if cfg.iters < 1 and not cfg.resume:
        print(f"error: --iters must be >= 1 to train, got {cfg.iters}", file=sys.stderr)
        return 2
    data = load_dataset(cfg.data)
    model = build_model(cfg, data)
    os.makedirs(cfg.out_dir, exist_ok=True)
    start_iter, ema, adam = 0, None, None
    if cfg.resume:
        params, start_iter, ema, adam = load_checkpoint(cfg.resume)
        _check_resume(cfg.resume, params, cfg, model, data)
        if np.isnan(ema):
            ema = None
    else:
        params = init_params(cfg, model, data, RngStream(cfg.seed, 2))
    if start_iter >= cfg.iters:
        print(f"error: checkpoint is already at iteration {start_iter} >= --iters "
              f"{cfg.iters}; nothing to do", file=sys.stderr)
        return 2
    sched = LrSchedule(cfg.lr, cfg.drop_every, cfg.drop_factor, cfg.max_drops)
    trace_path = os.path.join(cfg.out_dir, "trace.csv")
    mode = "a" if (cfg.resume and os.path.exists(trace_path)) else "w"
    with open(trace_path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(TRACE_COLUMNS)

        def on_record(rec):
            writer.writerow([rec.iter, f"{rec.wall_seconds:.6f}", f"{rec.lr:.10g}",
                             f"{rec.elbo!r}", f"{rec.ema_elbo!r}"])

        result = train(model, params, data, kind=cfg.family, schedule=sched,
                       iters=cfg.iters, rng=RngStream(cfg.seed, 1),
                       batch_size=cfg.batch_size, n_mc=cfg.n_mc,
                       trace_every=cfg.trace_every, start_iter=start_iter,
                       adam=adam, ema=ema, on_record=on_record)
    save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.nt"), result.params,
                    it=cfg.iters, ema=result.ema, adam=result.adam)
    write_manifest(cfg, cfg.out_dir, "train", [cfg.data + ".bin", cfg.data + ".meta"])
    print(f"trained {cfg.iters - start_iter} iterations; final EMA ELBO {result.ema:.4f}")
    return 0


def _check_resume(path, params, cfg: RunConfig, model: HbdModel,
                  data: BranchDataset) -> None:
    """Reject a checkpoint whose family or dims do not fit this run."""
    kind, structure, _, _ = _checkpoint_meta(params)
    if (kind, structure) != (cfg.family, cfg.structure):
        raise InvalidDataError(
            f"{path}: checkpoint holds a {kind}/{structure} family; this run trains "
            f"--family {cfg.family} --structure {cfg.structure}")
    _check_dims(path, params, model, data)


def _check_dims(path, params, model: HbdModel, data: BranchDataset) -> None:
    """Reject a checkpoint whose dims do not fit the model and data."""
    kind, _, dims, _ = _checkpoint_meta(params)
    want = [model.global_dim, model.local_dim,
            0 if kind == "amortized" else data.n_branches,
            data.covariate_dim if kind == "amortized" else 0]
    names = ("global dim", "local dim", "branches", "covariate dim")
    bad = [f"{n} {got} != {exp}" for n, got, exp in zip(names, dims, want) if got != exp]
    if bad:
        raise InvalidDataError(f"{path}: checkpoint does not fit the data/config: "
                               + ", ".join(bad))


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint or not cfg.data:
        print("error: --checkpoint and --data are required for eval", file=sys.stderr)
        return 2
    if not os.path.exists(cfg.checkpoint):
        print(f"error: checkpoint {cfg.checkpoint} not found", file=sys.stderr)
        return 2
    train_data = load_dataset(cfg.data)
    # data_train -> data_test beside it; only the basename's suffix changes.
    head, base = os.path.split(cfg.data)
    test_path = os.path.join(head, base[:-len("_train")] + "_test")
    if base.endswith("_train") and os.path.exists(test_path + ".meta"):
        test_data = load_dataset(test_path)
    else:
        test_data = BranchDataset(np.zeros((0, train_data.covariate_dim)), np.zeros(0),
                                  np.zeros(train_data.n_branches, dtype=np.int64),
                                  train_data.has_covariates)
    split_ds = SplitDataset(train_data, test_data)
    model = build_model(cfg, train_data)
    params, _, _, _ = load_checkpoint(cfg.checkpoint)
    _check_dims(cfg.checkpoint, params, model, train_data)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = evaluate(model, params, split_ds, cfg.k_samples, RngStream(cfg.seed, 3))
    write_report(report, os.path.join(cfg.out_dir, "report.txt"),
                 os.path.join(cfg.out_dir, "report.json"))
    write_manifest(cfg, cfg.out_dir, "eval", [cfg.data + ".bin", cfg.checkpoint])
    print(f"test_ll {report.test_ll:.4f}  train_ll {report.train_ll:.4f}  "
          f"train_elbo {report.train_elbo:.4f}  (K={report.k})")
    return 0


def cmd_convert(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        print("error: --checkpoint is required for convert", file=sys.stderr)
        return 2
    params, it, ema, _ = load_checkpoint(cfg.checkpoint)
    if not isinstance(params, JointFamily):
        print("error: convert expects a joint-family checkpoint", file=sys.stderr)
        return 2
    branch = joint_to_branch(params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "checkpoint_branch.nt")
    # Iteration resets: the converted params warm-start a fresh branch run.
    save_checkpoint(out_path, branch, it=0, ema=ema)
    # Spot check: theta marginal must be preserved exactly; conditional
    # densities agree up to any cross-branch coupling the joint carried.
    if params.structure == "dense":
        mean_b, cov_b = assemble_joint(branch)
        Lj = params.spec.cov()
        theta_err = max(float(np.max(np.abs(mean_b[:params.global_dim]
                                            - params.spec.mean[:params.global_dim]))),
                        float(np.max(np.abs(cov_b[:params.global_dim, :params.global_dim]
                                            - Lj[:params.global_dim, :params.global_dim]))))
        gen = RngStream(cfg.seed, 4).generator()
        worst = 0.0
        for _ in range(20):
            x = params.spec.mean + gen.standard_normal(params.total_dim)
            lq_joint = mvn_logpdf(params.spec, x)
            lq_branch = _branch_logq_at(branch, x)
            worst = max(worst, abs(lq_joint - lq_branch))
        print(f"theta-marginal max abs err {theta_err:.3e}; "
              f"density spot-check max |delta| {worst:.3e} "
              "(nonzero when the joint couples branches beyond theta)")
    print(f"wrote {out_path}")
    return 0


def _branch_logq_at(branch: BranchParams, x: np.ndarray) -> float:
    """log q(x) of a dense branch family (v is a GaussianSpec) at x = (theta, z)."""
    D, dz, N = branch.global_dim, branch.local_dim, branch.n_branches
    theta = x[:D]
    L = tril_map_raw(branch.raw, dz, branch.gamma)                   # (N, dz, dz)
    R = x[D:].reshape(N, dz) - branch.mu - branch.A @ theta
    T = tril_solve(L, R[:, None, :])
    logdet = float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
    return (mvn_logpdf(branch.v, theta) - 0.5 * float(np.sum(T * T)) - logdet
            - 0.5 * N * dz * LOG_2PI)


def cmd_check(_cfg: RunConfig) -> int:
    failures = run_checks()
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--iters", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--family", choices=("joint", "branch", "amortized"))
    p.add_argument("--structure", choices=("dense", "block", "diag"))
    p.add_argument("--model", choices=("synthetic", "preference"))
    p.add_argument("--k-samples", dest="k_samples", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--branches", dest="n_branches", type=int)
    p.add_argument("--obs", dest="obs_per_branch", type=int)
    p.add_argument("--n-mc", dest="n_mc", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--drop-every", dest="drop_every", type=int)
    p.add_argument("--drop-factor", dest="drop_factor", type=float)
    p.add_argument("--max-drops", dest="max_drops", type=int)
    p.add_argument("--trace-every", dest="trace_every", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--resume")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchvi",
        description="Structured variational inference for two-level hierarchical models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "forward-sample a dataset (plus oracle for synthetic models)"),
        ("train", "optimize a variational family against a dataset"),
        ("eval", "compute sample-based metrics from a checkpoint"),
        ("convert", "re-express a dense joint checkpoint in branch form"),
        ("check", "run the fast self-diagnostic suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (InvalidDataError, MalformedParamsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {"generate": cmd_generate, "train": cmd_train, "eval": cmd_eval,
               "convert": cmd_convert, "check": cmd_check}[args.command]
    try:
        return handler(cfg)
    except (InvalidDataError, MalformedParamsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimatorError, NonFiniteGradientError) as exc:
        # A diverging run: the message names the iteration (and the branch
        # and MC copy of a non-finite log-density).
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
