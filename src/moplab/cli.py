"""Command-line entry point: the train / eval / plot stages, and
reproducible experiment presets that chain them.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error, which
includes a train --config that is not a JSON object, gives a count or
model dimension that is not an integer, or gives an lr, clip_norm or
input_scale that is not a finite positive number; an eval --predictors
name that cannot score the preset's systems or that is given twice; an
eval --ckpt when mop is not among the predictors; an eval --horizon that
does not reach past a switching preset's switch time, that is below 2 when
mop is scored (its prompts of horizon - 1 outputs would be empty), or that
exceeds the train_len the mop checkpoint was trained at (for a weight-only
checkpoint, whose prompts outgrow its context); and a plot CSV with a
non-finite mean_err or stderr.
The MOP_SEED environment variable overrides the base seed everywhere.

`moplab experiment` trains at the base seed and draws its test population
at the base seed + 10000, so the two never share draws. The rule is the
same whether the base seed comes from --seed or from MOP_SEED. A rerun into
the same directory reuses a finished run and resumes a stopped one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, evaluation, model, svgplot, training
from .distributions import DISTRIBUTIONS, get_distribution
from .manifest import read_csv, sha256_file, write_csv, write_json, write_manifest
from .model import ModelConfig
from .presets import desk_model_config, get_experiment
from .training import TrainConfig

CSV_FIELDS = ["experiment", "preset", "predictor", "t", "mean_err", "stderr",
              "n_systems", "seed"]
CELL_FIELDS = ["m_systems", "train_len", "mt", "delta", "stderr", "flagged"]


class UsageError(Exception):
    pass


def _resolve_seed(args_seed, fallback=0) -> int:
    env = os.environ.get("MOP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"MOP_SEED must be an integer, got {env!r}") from None
    return fallback if args_seed is None else int(args_seed)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - {"model"}
_MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)}


def train_config_from_dict(obj: dict) -> TrainConfig:
    bad = sorted(set(obj) - _TRAIN_KEYS - {"model"})
    model_obj = obj.get("model", None)
    bad_model = []
    if model_obj is not None:
        if not isinstance(model_obj, dict):
            raise UsageError("config key 'model' must be an object")
        bad_model = sorted(f"model.{k}" for k in set(model_obj) - _MODEL_KEYS)
    if bad or bad_model:
        raise UsageError(f"invalid config keys: {', '.join(bad + bad_model)}")
    kwargs = {k: v for k, v in obj.items() if k != "model"}
    preset = kwargs.get("preset", "linear-dense")
    if preset not in DISTRIBUTIONS:
        raise UsageError(f"unknown distribution preset {preset!r}; "
                         f"valid: {', '.join(sorted(DISTRIBUTIONS))}")
    try:
        mcfg = desk_model_config(preset) if model_obj is None else ModelConfig(**model_obj)
        return TrainConfig(model=mcfg, **kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid train config: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    obj = {}
    if args.config:
        try:
            obj = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise UsageError("train config must be a JSON object")
        if isinstance(obj.get("config"), dict):
            obj = obj["config"]          # accept a manifest as config source
    if args.steps is not None:
        obj["steps"] = args.steps
    if args.seed is not None or "MOP_SEED" in os.environ:
        obj["seed"] = _resolve_seed(args.seed, obj.get("seed", 0))
    cfg = train_config_from_dict(obj)
    result = training.train(cfg, args.out_dir, resume=args.resume, quiet=args.quiet)
    print(f"final checkpoint: {result.checkpoints[-1]}")
    return 0


def _load_weights_for(dist, path):
    """(weights, meta) of the checkpoint at `path` (see
    `model.read_checkpoint`), whose tokens must be `dist`'s."""
    weights, meta = model.read_checkpoint(path)
    if weights.config.token_dim != dist.token_dim \
            or weights.config.output_dim != dist.m:
        raise UsageError(
            f"checkpoint/preset dimensionality mismatch: checkpoint tokens "
            f"{weights.config.token_dim}->{weights.config.output_dim}, preset "
            f"{dist.name} wants {dist.token_dim}->{dist.m}")
    return weights, meta


def _get_preset(name):
    try:
        return get_experiment(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _timed(phases: dict, key, fn, *args, **kwargs):
    """fn(*args, **kwargs), adding its wall seconds to phases[key]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    phases[key] = (phases.get(key) or 0.0) + time.perf_counter() - t0
    return out


def _score(predictors, dist, n, horizon, seed, weights=None, switch_at=None,
           phases=None):
    """Error curves of each predictor kind on one shared test population,
    timed into `phases` when it is given (see `cmd_experiment`)."""
    phases = {"score": {}} if phases is None else phases
    population = _timed(phases, "population", evaluation.test_population,
                        dist, n, horizon, seed, switch_at)
    return [_timed(phases["score"], kind, evaluation.error_curve, kind, dist, n,
                   horizon, seed, weights=weights, population=population)
            for kind in predictors]


def _write_eval(out_dir: Path, name, curves, n, seed, ckpt, t0,
                **diagnostics) -> list[dict]:
    """Write curves.csv, report.json (with any `diagnostics` as extra keys)
    and the eval manifest for one scored population; returns the CSV rows.
    The report's ratio block compares mop, when scored, with the first other
    curve (a preset lists its filter first), and otherwise the first two
    curves. The rows and the report are built before any file is written,
    so a report that fails leaves no partial output."""
    rows = evaluation.curves_to_csv_rows(name, curves)
    report = {"experiment": name, "curves": [c.to_json() for c in curves]}
    if len(curves) >= 2:
        mop_first = sorted(curves, key=lambda c: c.predictor != "mop")
        report["ratio"] = evaluation.compare_predictors(*mop_first[:2])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "curves.csv"
    write_csv(csv_path, rows, CSV_FIELDS)
    write_json(out_dir / "report.json", {**report, **diagnostics})
    hashes = {Path(ckpt).name: sha256_file(ckpt)} if ckpt else {}
    write_manifest(out_dir, "eval",
                   {"preset": name, "n": n, "horizon": curves[0].horizon,
                    "predictors": [c.predictor for c in curves], "ckpt": ckpt},
                   seed, checkpoint_hashes=hashes,
                   wallclock_s=time.time() - t0, outputs=[str(csv_path)])
    return rows


def cmd_eval(args) -> int:
    preset = _get_preset(args.preset)
    dist = get_distribution(preset.distribution)
    seed = _resolve_seed(args.seed, 1)
    predictors = (args.predictors.split(",") if args.predictors
                  else ["mop", *preset.baselines])
    for i, kind in enumerate(predictors):
        if kind in predictors[:i]:
            raise UsageError(f"--predictors names {kind!r} twice")
        try:
            evaluation.check_predictor(kind, dist)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    n = preset.eval_n if args.n is None else args.n
    horizon = preset.eval_horizon if args.horizon is None else args.horizon
    for flag, value in (("--n", n), ("--horizon", horizon)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if preset.switch_at is not None and horizon <= preset.switch_at:
        raise UsageError(f"--horizon must exceed {args.preset}'s switch time "
                         f"{preset.switch_at}, got {horizon}")
    weights = None
    if "mop" in predictors:
        if not args.ckpt:
            raise UsageError("--ckpt is required when evaluating the mop predictor")
        if horizon < 2:
            raise UsageError(f"--horizon {horizon} leaves mop an empty prompt; "
                             f"scoring mop needs a horizon of at least 2")
        weights, meta = _load_weights_for(dist, args.ckpt)
        if "train_len" in meta:
            if horizon > meta["train_len"]:
                raise UsageError(
                    f"--horizon {horizon} exceeds the checkpoint's train_len "
                    f"{meta['train_len']}: its positions from {meta['train_len'] - 1} "
                    f"on never trained")
        elif horizon - 1 > weights.config.context:
            raise UsageError(f"--horizon {horizon} needs a mop context of {horizon - 1}, "
                             f"but the checkpoint's context is {weights.config.context}")
    elif args.ckpt:
        raise UsageError("--ckpt is only read for the mop predictor, which "
                         "--predictors does not name")
    t0 = time.time()
    curves = _score(predictors, dist, n, horizon, seed, weights, preset.switch_at)
    out_dir = Path(args.out_dir)
    _write_eval(out_dir, args.preset, curves, n, seed, args.ckpt, t0)
    print(f"wrote {out_dir / 'curves.csv'}")
    return 0


def cmd_plot(args) -> int:
    try:
        rows = read_csv(args.csv)
    except ValueError as exc:                     # empty file or a malformed row
        raise UsageError(str(exc)) from None
    required = {"predictor", "t", "mean_err", "stderr"}
    if rows and not required.issubset(rows[0]):
        raise UsageError(f"{args.csv}: missing columns "
                         f"{sorted(required - set(rows[0]))}")
    if not rows:
        raise UsageError(f"{args.csv}: no data rows")
    try:
        svg = svgplot.render_from_rows(rows, ratio=args.ratio, title=args.title)
    except ValueError as exc:                     # e.g. a ratio of != 2 predictors
        raise UsageError(f"{args.csv}: {exc}") from None
    Path(args.svg).parent.mkdir(parents=True, exist_ok=True)
    Path(args.svg).write_text(svg)
    print(f"wrote {args.svg}")
    return 0


def cmd_experiment(args) -> int:
    """Run a preset. The manifest's `phases_s` holds the wall seconds of the
    dataset build, the rest of `training.train` (steps, checkpoint writes),
    the test population, each predictor's scoring (risk-scaling's filter
    once, its mop per cell), the diagnostics and the plots: summed over
    cells or noise levels, null where not run (or the run was reused)."""
    preset = _get_preset(args.name)
    seed = _resolve_seed(args.seed, preset.train.seed)
    root = Path(args.out_dir) / preset.name
    root.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    phases = {"dataset": None, "train": None, "population": None, "score": {},
              "diagnostics": None, "plots": None}
    config, hashes = {"name": preset.name}, {}
    if preset.scaling_grid is not None:
        _experiment_scaling(preset, seed, root, args.quiet, phases)
    elif preset.shift_sigma2 is not None:
        ckpt = args.ckpt or str(Path(args.out_dir) / "linear-iid" / "train" / "ckpt-final.ckpt")
        _experiment_shift(preset, seed, root, ckpt, phases)
        config["ckpt"], hashes = ckpt, {Path(ckpt).name: sha256_file(ckpt)}
    else:
        _experiment_curves(preset, seed, root, args.quiet, phases)
    write_manifest(root, "experiment", config, seed, checkpoint_hashes=hashes,
                   wallclock_s=time.time() - t0, phases_s=phases)
    print(f"experiment {preset.name} done under {root}")
    return 0


def derive_eval_seed(seed: int) -> int:
    # eval populations must not reuse training draws even at equal seeds
    return seed + 10_000


def _ensure_trained(cfg: TrainConfig, train_dir: Path, quiet, phases) -> str:
    """The final checkpoint of `cfg` under train_dir (see `training.train`),
    the dataset build and the rest of the run timed into `phases` unless reused."""
    t0 = time.perf_counter()
    result = training.train(cfg, train_dir, quiet=quiet)
    if result.dataset_s is not None:
        phases["dataset"] = (phases["dataset"] or 0.0) + result.dataset_s
        phases["train"] = (phases["train"] or 0.0) + time.perf_counter() - t0 - result.dataset_s
    return result.checkpoints[-1]


def _experiment_curves(preset, seed, root: Path, quiet, phases) -> None:
    ckpt = _ensure_trained(dataclasses.replace(preset.train, seed=seed),
                           root / "train", quiet, phases)
    dist = get_distribution(preset.distribution)
    weights, _ = _load_weights_for(dist, ckpt)
    t0 = time.time()
    eval_seed = derive_eval_seed(seed)
    curves = _score(["mop", *preset.baselines], dist, preset.eval_n,
                    preset.eval_horizon, eval_seed, weights, preset.switch_at, phases)
    rows = _write_eval(root / "eval", preset.name, curves, preset.eval_n,
                       eval_seed, ckpt, t0,
                       **_timed(phases, "diagnostics", _diagnostics,
                                preset, dist, weights, eval_seed))
    t_plots = time.perf_counter()
    (root / "curves.svg").write_text(svgplot.render_from_rows(rows, title=preset.name))
    if len(curves) == 2:
        (root / "ratio.svg").write_text(svgplot.render_from_rows(
            rows, ratio=True, title=f"{preset.name} ratio"))
    phases["plots"] = time.perf_counter() - t_plots


def _diagnostics(preset, dist, weights, eval_seed) -> dict:
    """The paper's explanation of a preset's curves, under its report.json
    key: the ||A^t|| mixing study for the upper-triangular class, and the
    robustness probe for unswitched linear-dense systems."""
    if preset.distribution == "linear-triangular":
        return {"max_power_norm": evaluation.power_norm_report(
            dist, preset.eval_n, preset.eval_horizon, eval_seed)}
    if preset.distribution == "linear-dense" and preset.switch_at is None:
        return {"robustness": evaluation.robustness_probe(
            weights, dist, preset.eval_horizon, seed=eval_seed)}
    return {}


def _experiment_shift(preset, seed, root: Path, ckpt, phases) -> None:
    """Score the model trained at the preset's noise level on populations
    whose noise variance differs; systems and standardized noise draws are
    shared across levels, so only the noise scale moves."""
    if not Path(ckpt).exists():
        raise UsageError(
            f"{preset.name} reuses the linear-iid model; run "
            f"`moplab experiment linear-iid` first or pass --ckpt "
            f"(looked at {ckpt})")
    base = get_distribution(preset.distribution)
    weights, _ = _load_weights_for(base, ckpt)
    rows, late_ratios = [], []
    for s2 in preset.shift_sigma2:
        curves = _score(["mop", *preset.baselines], base.with_noise_var(s2),
                        preset.eval_n, preset.eval_horizon,
                        derive_eval_seed(seed), weights, phases=phases)
        rows += evaluation.curves_to_csv_rows(f"{preset.name}-s{s2}", curves)
        late_ratios.append(evaluation.compare_predictors(*curves)["late"]["ratio"])
    write_csv(root / "curves.csv", rows, CSV_FIELDS)
    write_json(root / "report.json",
               {"preset": base.name, "train_sigma2": base.sigma_w2,
                "test_sigma2": list(preset.shift_sigma2),
                "late_ratios": late_ratios})


def _experiment_scaling(preset, seed, root: Path, quiet, phases) -> None:
    """One model per (M, T^tr) cell at a fixed step budget, each scored by
    its excess risk over the preset's filter on the same test population."""
    dist = get_distribution(preset.distribution)
    scoring = (dist, preset.eval_n, preset.eval_horizon, derive_eval_seed(seed))
    filter_curve, = _score(preset.baselines[:1], *scoring, phases=phases)
    cells = []
    for m_systems, train_len in preset.scaling_grid:
        cfg = dataclasses.replace(preset.train, seed=seed, m_systems=m_systems,
                                  train_len=train_len)
        cell = {"m_systems": m_systems, "train_len": train_len,
                "mt": m_systems * train_len, "delta": None, "stderr": None,
                "flagged": None}
        try:
            ckpt = _ensure_trained(
                cfg, root / "cells" / f"cell-M{m_systems}-T{train_len}", quiet, phases)
        except training.TrainingAborted as exc:
            cell["flagged"] = str(exc)
        else:
            curve, = _score(["mop"], *scoring, model.load_checkpoint(ckpt), phases=phases)
            risk = evaluation.excess_risk(curve, filter_curve)
            cell.update(delta=risk["delta"], stderr=risk["stderr"])
        cells.append(cell)
    report = evaluation.scaling_report(preset.distribution, cells)
    write_json(root / "scaling.json", report)
    write_csv(root / "cells.csv",
              [{k: ("" if v is None else v) for k, v in c.items()} for c in cells],
              CELL_FIELDS)
    rho = report["spearman_delta_vs_mt"]
    print("scaling: spearman(delta, MT) = " + ("n/a" if rho is None else f"{rho:+.3f}"))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moplab",
        description="meta-output-predictor lab: train and evaluate an "
                    "in-context transformer against model-aware filters")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="meta-train a model from a config file")
    p.add_argument("--config", default=None, help="JSON train config (or a "
                   "manifest containing one)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true", default=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="error curves for a trained model and baselines")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--preset", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--predictors", default=None,
                   help="comma list (default: mop plus the preset baselines)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="one-shot train->eval->plot")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ckpt", default=None,
                   help="model to reuse (dist-shift preset)")
    p.add_argument("--out-dir", default="runs")
    p.add_argument("--quiet", action="store_true", default=False)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render an error-curve CSV as SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--ratio", action="store_true", default=False)
    p.add_argument("--title", default=None)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except training.TrainingAborted as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                      # runtime failure contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
