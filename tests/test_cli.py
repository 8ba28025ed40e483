"""The command-line entry point: exit codes, reproducible outputs, resumed
training logs (a killed `train` rerun into its --out-dir included), plotting
errors, CSV parsing and atomic artifact writes."""

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import stop_training_at
from moplab import __version__, cli, evaluation, manifest, model, svgplot
from moplab.manifest import read_csv, sha256_file, sha256_json, write_csv, write_json
from moplab.model import ModelConfig
from moplab.seeding import stream
from moplab.training import TrainConfig

TINY_MODEL = ModelConfig(layers=2, heads=2, embed_dim=16, context=32,
                         token_dim=5, output_dim=5, precision="f64")
LOSS_FIELDS = ["step", "loss", "grad_norm", "wallclock_s"]


@pytest.fixture
def tiny_ckpt(tmp_path):
    path = tmp_path / "tiny.ckpt"
    model.save_checkpoint(model.init_weights(TINY_MODEL, stream(1, "cli")), path)
    return str(path)


def eval_args(ckpt, out_dir):
    return ["eval", "--preset", "linear-iid", "--ckpt", ckpt, "--n", "6",
            "--horizon", "12", "--seed", "3", "--out-dir", str(out_dir)]


def test_eval_exits_zero_and_writes_identical_curves(tmp_path, tiny_ckpt):
    assert cli.main(eval_args(tiny_ckpt, tmp_path / "a")) == 0
    assert cli.main(eval_args(tiny_ckpt, tmp_path / "b")) == 0
    first = (tmp_path / "a" / "curves.csv").read_bytes()
    assert first == (tmp_path / "b" / "curves.csv").read_bytes()
    rows = read_csv(tmp_path / "a" / "curves.csv")
    assert {r["predictor"] for r in rows} == {"mop", "kf", "ar-ols"}
    assert len(rows) == 3 * 12
    config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    assert "threads" not in config


def test_eval_of_three_predictors_reports_mop_over_the_filter(tmp_path, tiny_ckpt):
    assert cli.main(eval_args(tiny_ckpt, tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    mean = {c["predictor"]: c["mean"] for c in report["curves"]}
    assert list(mean) == ["mop", "kf", "ar-ols"]
    ratio = report["ratio"]
    assert (ratio["numerator"], ratio["denominator"]) == ("mop", "kf")
    assert ratio["ratio"] == [a / b for a, b in zip(mean["mop"], mean["kf"])]


@pytest.mark.parametrize("command", ["eval", "experiment"])
def test_threads_option_is_gone(tmp_path, tiny_ckpt, command, capsys):
    argv = eval_args(tiny_ckpt, tmp_path) if command == "eval" \
        else ["experiment", "--name", "linear-iid", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc_info:
        cli.main(argv + ["--threads", "2"])
    assert exc_info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_non_integer_mop_seed_exits_2(tmp_path, tiny_ckpt, monkeypatch, capsys):
    monkeypatch.setenv("MOP_SEED", "abc")
    assert cli.main(eval_args(tiny_ckpt, tmp_path)) == 2
    assert "MOP_SEED" in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "experiment"])
def test_empty_mop_seed_exits_2(tmp_path, tiny_ckpt, monkeypatch, capsys, command):
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--config", train_config(tmp_path), "--steps", "1",
                  "--quiet", "--out-dir", str(out)],
        "eval": eval_args(tiny_ckpt, out),
        "experiment": ["experiment", "--name", "linear-iid", "--out-dir", str(out),
                       "--quiet"],
    }[command]
    monkeypatch.setenv("MOP_SEED", "")
    assert cli.main(argv) == 2
    assert "MOP_SEED must be an integer, got ''" in capsys.readouterr().err
    assert not out.exists()


def test_train_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", train_config(tmp_path), "--steps", "1",
                     "--quiet", "--out-dir", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "3"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"}
    digest = hashlib.sha256()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert env["source_sha256"] == digest.hexdigest()


def test_manifest_records_the_blas_threads_in_use():
    # in a fresh process: OpenBLAS reads its thread count when it loads
    code = "from moplab import manifest; print(manifest.environment()['blas_threads'])"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(manifest.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ("1" if "openblas" in np.show_config(
        mode="dicts")["Build Dependencies"]["blas"]["name"] else "None")


def train_config(tmp_path, **overrides):
    """A tiny train config file; `overrides` add or replace its keys."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preset": "linear-dense", "m_systems": 8, "train_len": 12,
        "batch_size": 4, "seed": 5, "checkpoint_every": 100,
        "model": {"layers": 2, "heads": 2, "embed_dim": 16, "context": 32,
                  "token_dim": 5, "output_dim": 5, "precision": "f64"},
        **overrides}))
    return str(config)


def test_train_exits_1_when_training_aborts(tmp_path, capsys):
    config = train_config(tmp_path, lr=1e6, checkpoint_every=10)
    assert cli.main(["train", "--config", config, "--steps", "200", "--quiet",
                     "--out-dir", str(tmp_path / "run")]) == 1
    assert "training aborted" in capsys.readouterr().err
    assert not (tmp_path / "run" / "ckpt-final.ckpt").exists()


def test_eval_exits_1_on_a_corrupt_checkpoint(tmp_path, tiny_ckpt, capsys):
    blob = bytearray(Path(tiny_ckpt).read_bytes())
    blob[-1] ^= 0xFF
    Path(tiny_ckpt).write_bytes(bytes(blob))
    assert cli.main(eval_args(tiny_ckpt, tmp_path / "out")) == 1
    assert "CheckpointError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "curves.csv").exists()


def test_config_with_removed_train_options_exits_2(tmp_path, capsys):
    config = train_config(tmp_path, loss_kind="l2_norm", fresh_trajectories=False,
                          beta1=0.9, beta2=0.999, adam_eps=1e-8)
    assert cli.main(["train", "--config", config, "--steps", "1", "--quiet",
                     "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert ("invalid config keys: adam_eps, beta1, beta2, fresh_trajectories, "
            "loss_kind") in err
    assert not (tmp_path / "run").exists()


def test_invalid_model_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"heads": 3}}))
    assert cli.main(["train", "--config", str(config), "--steps", "1", "--quiet",
                     "--out-dir", str(tmp_path / "run")]) == 2
    assert "embed_dim must be divisible by heads" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config, error", [
    ({"preset": "quadrotor",
      "model": {"layers": 1, "heads": 2, "embed_dim": 8, "context": 64}},
     "model tokens 5->5, preset quadrotor wants 5->3"),
    ({"model": {"layers": 1, "heads": 2, "embed_dim": 8, "context": 64, "token_dim": 3}},
     "model tokens 3->5, preset linear-dense wants 5->5"),
], ids=["output-dim", "token-dim"])
def test_model_that_does_not_fit_the_preset_exits_2(tmp_path, capsys, config, error):
    # checked with the config, before a dataset is built or --out-dir made
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path), "--steps", "1", "--quiet",
                     "--out-dir", str(tmp_path / "run")]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, error", [
    ({"steps": 2.5}, "steps must be an integer, got 2.5"),
    ({"steps": 2, "batch_size": 2.0}, "batch_size must be an integer, got 2.0"),
    ({"steps": 2, "model": dict(dataclasses.asdict(TINY_MODEL), layers=2.0)},
     "layers must be an integer, got 2.0"),
    ({"steps": 2, "checkpoint_every": 1.5}, "checkpoint_every must be an integer, got 1.5"),
    ({"steps": True}, "steps must be an integer, got True"),
    ({"steps": 2, "lr": True}, "lr must be a number, got True"),
    ({"steps": 2, "clip_norm": "1"}, "clip_norm must be a number, got '1'"),
    ({"steps": 2, "clip_norm": -1}, "clip_norm must be finite and positive, got -1"),
    ({"steps": 2, "lr": float("nan")}, "lr must be finite and positive, got nan"),
    ({"steps": 2, "lr": float("inf")}, "lr must be finite and positive, got inf"),
    ({"steps": 2, "model": dict(dataclasses.asdict(TINY_MODEL), input_scale=0)},
     "input_scale must be finite and positive, got 0"),
    ({"steps": 2, "model": dict(dataclasses.asdict(TINY_MODEL), input_scale=True)},
     "input_scale must be a number, got True"),
], ids=["float-steps", "whole-float-batch", "float-layers", "float-checkpoint-every",
        "bool-steps", "bool-lr", "string-clip-norm", "negative-clip-norm", "nan-lr",
        "infinite-lr", "zero-input-scale", "bool-input-scale"])
def test_non_integer_config_count_exits_2(tmp_path, capsys, overrides, error):
    # each used to crash after making --out-dir (exit 1), to train (exit 0) or,
    # for a negative clip_norm, to train with clipping silently off
    assert cli.main(["train", "--config", train_config(tmp_path, **overrides), "--quiet",
                     "--out-dir", str(tmp_path / "run")]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides", [[], ["--steps", "3"], ["--seed", "4"]])
def test_train_config_that_is_not_an_object_exits_2(tmp_path, capsys, overrides):
    # the type is checked before --steps or --seed is written into the config
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert cli.main(["train", "--config", str(config), "--quiet",
                     "--out-dir", str(tmp_path / "run"), *overrides]) == 2
    assert "train config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("preset, bad, error", [
    ("linear-iid", "foo", "'foo' cannot score linear-dense systems; valid: mop, kf, ar-ols, zero"),
    ("linear-iid", "ekf", "'ekf' cannot score linear-dense systems; valid: mop, kf, ar-ols, zero"),
    ("quadrotor", "kf", "'kf' cannot score quadrotor systems; valid: mop, ekf, ar-ols, zero"),
], ids=["unknown", "ekf-on-linear", "kf-on-quadrotor"])
def test_eval_predictor_that_cannot_score_the_preset_exits_2(
        tmp_path, monkeypatch, capsys, preset, bad, error):
    # checked before the weights load (the checkpoint does not exist, which
    # would exit 1) and before any system is sampled
    def sample(*args, **kwargs):
        raise AssertionError("a population was sampled")

    monkeypatch.setattr(evaluation, "test_population", sample)
    argv = ["eval", "--preset", preset, "--predictors", f"mop,{bad}",
            "--ckpt", str(tmp_path / "missing.ckpt"), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"error: predictor {error}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--n", "--horizon"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_eval_count_below_one_exits_2(tmp_path, flag, value, capsys):
    argv = ["eval", "--preset", "linear-iid", "--predictors", "kf",
            "--out-dir", str(tmp_path / "out"), flag, value]
    assert cli.main(argv) == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("predictors, twice", [("kf,kf", "kf"), ("mop,ar-ols,mop", "mop")])
def test_eval_repeated_predictor_exits_2(tmp_path, monkeypatch, capsys, predictors, twice):
    # checked before the weights load (the checkpoint does not exist, which
    # would exit 1) and before any system is sampled
    def sample(*args, **kwargs):
        raise AssertionError("a population was sampled")

    monkeypatch.setattr(evaluation, "test_population", sample)
    argv = ["eval", "--preset", "linear-iid", "--predictors", predictors, "--n", "3",
            "--ckpt", str(tmp_path / "missing.ckpt"), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"error: --predictors names {twice!r} twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ckpt", ["missing", "garbage"])
def test_eval_ckpt_without_mop_exits_2(tmp_path, monkeypatch, capsys, ckpt):
    # a missing checkpoint used to exit 1 after curves.csv and report.json
    # were written, and a garbage one to exit 0 with its hash in the manifest
    def sample(*args, **kwargs):
        raise AssertionError("a population was sampled")

    path = tmp_path / "model.ckpt"
    if ckpt == "garbage":
        path.write_bytes(b"not a checkpoint")
    monkeypatch.setattr(evaluation, "test_population", sample)
    argv = ["eval", "--preset", "linear-iid", "--predictors", "kf,ar-ols", "--n", "3",
            "--ckpt", str(path), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "--ckpt is only read for the mop predictor" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [10, 50])
def test_eval_horizon_not_past_the_switch_exits_2(tmp_path, capsys, horizon):
    argv = ["eval", "--preset", "linear-switching", "--predictors", "kf,ar-ols",
            "--n", "3", "--horizon", str(horizon), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert (f"--horizon must exceed linear-switching's switch time 50, got {horizon}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert cli.main(argv[:-4] + ["--horizon", "51", "--out-dir", str(tmp_path / "out")]) == 0


def test_eval_horizon_past_the_checkpoint_context_exits_2(tmp_path, tiny_ckpt,
                                                         monkeypatch, capsys):
    # a horizon-34 population needs 33-output prompts, one more than the
    # context of 32: this used to exit 1 after the population was sampled
    def refuse(*args, **kwargs):
        raise AssertionError("a population was sampled")

    monkeypatch.setattr(evaluation, "test_population", refuse)
    argv = ["eval", "--preset", "linear-iid", "--ckpt", tiny_ckpt, "--n", "2",
            "--seed", "3", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--horizon", "34"]) == 2
    assert ("--horizon 34 needs a mop context of 33, but the checkpoint's "
            "context is 32") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    assert cli.main(argv + ["--horizon", "33"]) == 0


def test_eval_horizon_past_the_trained_length_exits_2(tmp_path, monkeypatch, capsys):
    # trained at train_len 50 with a context of 64, the model never trained
    # its positions 49 to 63: horizons 51 to 65 used to be scored on them
    config = train_config(tmp_path, train_len=50, model={
        "layers": 2, "heads": 2, "embed_dim": 16, "context": 64,
        "token_dim": 5, "output_dim": 5, "precision": "f64"})
    run = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--steps", "1", "--quiet",
                     "--out-dir", str(run)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a population was sampled")

    monkeypatch.setattr(evaluation, "test_population", refuse)
    argv = ["eval", "--preset", "linear-iid", "--ckpt", str(run / "ckpt-final.ckpt"),
            "--n", "2", "--seed", "3", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--horizon", "51"]) == 2
    assert ("--horizon 51 exceeds the checkpoint's train_len 50: its positions "
            "from 49 on never trained") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    assert cli.main(argv + ["--horizon", "50"]) == 0


def test_eval_horizon_below_2_with_mop_exits_2(tmp_path, tiny_ckpt, monkeypatch, capsys):
    # a horizon-1 population gives mop empty prompts: this used to exit 1
    # with "empty prompt" after the population was sampled
    def refuse(*args, **kwargs):
        raise AssertionError("a population was sampled")

    monkeypatch.setattr(evaluation, "test_population", refuse)
    argv = ["eval", "--preset", "linear-iid", "--ckpt", tiny_ckpt, "--n", "2",
            "--seed", "3", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--horizon", "1"]) == 2
    assert "--horizon 1 leaves mop an empty prompt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    assert cli.main(argv + ["--horizon", "2"]) == 0


def test_eval_with_a_checkpoint_of_another_preset_exits_2(tmp_path, capsys):
    path = tmp_path / "quadrotor.ckpt"
    model.save_checkpoint(model.init_weights(
        dataclasses.replace(TINY_MODEL, output_dim=3), stream(1, "cli")), path)
    assert cli.main(eval_args(str(path), tmp_path / "out")) == 2
    assert ("checkpoint/preset dimensionality mismatch: checkpoint tokens 5->3, "
            "preset linear-dense wants 5->5") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dist_shift_without_a_linear_iid_model_exits_2(tmp_path, capsys):
    assert cli.main(["experiment", "--name", "dist-shift",
                     "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "dist-shift reuses the linear-iid model" in err
    assert str(tmp_path / "linear-iid" / "train" / "ckpt-final.ckpt") in err
    assert not (tmp_path / "dist-shift" / "manifest.json").exists()


@pytest.mark.parametrize("horizon", [1, 2])
def test_eval_below_three_steps_reports_an_empty_early_window(tmp_path, horizon):
    out = tmp_path / "out"
    argv = ["eval", "--preset", "linear-iid", "--predictors", "kf,ar-ols", "--n", "3",
            "--horizon", str(horizon), "--out-dir", str(out)]
    assert cli.main(argv) == 0
    ratio = json.loads((out / "report.json").read_text())["ratio"]
    assert ratio["early"] is None
    assert (ratio["late"]["lo"], ratio["late"]["hi"]) == (0, horizon - 1)
    assert len(ratio["ratio"]) == horizon
    assert len(read_csv(out / "curves.csv")) == 2 * horizon
    assert json.loads((out / "manifest.json").read_text())["config"]["horizon"] == horizon


@pytest.mark.parametrize("text, error", [
    (None, "config file not found"),
    ("{\"steps\": 2,", "config is not valid JSON"),
], ids=["missing", "invalid-json"])
def test_unreadable_train_config_exits_2(tmp_path, capsys, text, error):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    assert cli.main(["train", "--config", str(config), "--quiet",
                     "--out-dir", str(tmp_path / "run")]) == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_manifest_as_config_reruns_the_same_training(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["train", "--config", train_config(tmp_path), "--steps", "2",
                     "--quiet", "--out-dir", str(first)]) == 0
    assert cli.main(["train", "--config", str(first / "manifest.json"), "--quiet",
                     "--out-dir", str(second)]) == 0
    config = [json.loads((d / "manifest.json").read_text())["config"]
              for d in (first, second)]
    assert config[0] == config[1] and config[0]["steps"] == 2
    loss = [[(r["step"], r["loss"], r["grad_norm"]) for r in read_csv(d / "loss.csv")]
            for d in (first, second)]
    assert loss[0] == loss[1] and len(loss[0]) == 2
    assert ((first / "ckpt-final.ckpt").read_bytes()
            == (second / "ckpt-final.ckpt").read_bytes())


def test_resumed_run_log_equals_uninterrupted_log(tmp_path):
    base = ["train", "--config", train_config(tmp_path), "--quiet"]
    assert cli.main(base + ["--steps", "6", "--out-dir", str(tmp_path / "full")]) == 0
    part = tmp_path / "part"
    assert cli.main(base + ["--steps", "3", "--out-dir", str(part)]) == 0
    assert cli.main(base + ["--steps", "6", "--out-dir", str(part),
                            "--resume", str(part / "ckpt-final.ckpt")]) == 0
    full = read_csv(tmp_path / "full" / "loss.csv")
    resumed = read_csv(part / "loss.csv")
    assert [r["step"] for r in resumed] == [str(s) for s in range(6)]

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wallclock_s"} for r in rows]

    assert strip(resumed) == strip(full)
    assert (tmp_path / "full" / "ckpt-final.ckpt").read_bytes() \
        == (part / "ckpt-final.ckpt").read_bytes()


def test_a_killed_train_resumes_when_rerun_into_its_out_dir(tmp_path, monkeypatch):
    base = ["train", "--config", train_config(tmp_path, checkpoint_every=2), "--steps", "6",
            "--quiet", "--out-dir"]
    full, run = tmp_path / "full", tmp_path / "run"
    assert cli.main(base + [str(full)]) == 0
    with pytest.MonkeyPatch.context() as killed:
        stop_training_at(killed, 5)           # after the step-4 checkpoint
        assert cli.main(base + [str(run)]) == 1
    resumes, real_load = [], model.load_training_state

    def recording_load(path):
        resumes.append(path)
        return real_load(path)

    monkeypatch.setattr(model, "load_training_state", recording_load)
    assert cli.main(base + [str(run)]) == 0
    assert resumes == [run / "ckpt-000004.ckpt"]

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wallclock_s"} for r in rows]

    assert strip(read_csv(run / "loss.csv")) == strip(read_csv(full / "loss.csv"))
    assert (run / "ckpt-final.ckpt").read_bytes() == (full / "ckpt-final.ckpt").read_bytes()


def test_resume_past_the_configured_steps_exits_1(tmp_path, capsys):
    # it used to write a final checkpoint labelled step 2 holding step 4's state
    base = ["train", "--config", train_config(tmp_path), "--quiet"]
    part, run = tmp_path / "part", tmp_path / "run"
    assert cli.main(base + ["--steps", "4", "--out-dir", str(part)]) == 0
    assert cli.main(base + ["--steps", "2", "--out-dir", str(run),
                            "--resume", str(part / "ckpt-final.ckpt")]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "at step 4, past the config's 2 steps" in err
    assert not run.exists()


def test_resume_from_a_weight_only_checkpoint_exits_1(tmp_path, tiny_ckpt, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", train_config(tmp_path), "--steps", "2",
                     "--quiet", "--out-dir", str(run), "--resume", tiny_ckpt]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and tiny_ckpt in err
    assert not (run / "ckpt-final.ckpt").exists()


def test_resume_with_another_model_config_exits_1(tmp_path, capsys):
    small = {"layers": 1, "heads": 2, "embed_dim": 16, "context": 32,
             "token_dim": 5, "output_dim": 5, "precision": "f64"}
    part, run = tmp_path / "part", tmp_path / "run"
    assert cli.main(["train", "--config", train_config(tmp_path, model=small),
                     "--steps", "2", "--quiet", "--out-dir", str(part)]) == 0
    larger = train_config(tmp_path, model=dict(small, layers=2, embed_dim=32))
    assert cli.main(["train", "--config", larger, "--steps", "4", "--quiet",
                     "--out-dir", str(run), "--resume", str(part / "ckpt-final.ckpt")]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err
    assert "layers=1, heads=2, embed_dim=16" in err and "layers=2, heads=2, embed_dim=32" in err
    assert not (run / "ckpt-final.ckpt").exists()


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_train_manifest_records_config_dataset_and_checkpoints(tmp_path):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", train_config(tmp_path, checkpoint_every=2),
                     "--steps", "4", "--quiet", "--out-dir", str(run)]) == 0
    written = json.loads((run / "manifest.json").read_text())
    cfg = TrainConfig(preset="linear-dense", m_systems=8, train_len=12, steps=4,
                      batch_size=4, seed=5, checkpoint_every=2, model=TINY_MODEL)
    assert written["config"] == dataclasses.asdict(cfg)
    assert (written["command"], written["base_seed"], written["version"]) \
        == ("train", 5, __version__)
    dataset = json.loads((run / "dataset.json").read_text())
    assert written["dataset_hash"] == sha256_json(dataset)
    ckpts = {p.name for p in run.iterdir()} - {"dataset.json", "loss.csv", "manifest.json"}
    assert ckpts == {"ckpt-000002.ckpt", "ckpt-final.ckpt"}
    assert written["checkpoint_hashes"] == {name: sha256_file(run / name) for name in ckpts}
    assert written["outputs"] and all(Path(p).exists() for p in written["outputs"])


def test_eval_manifest_records_the_scored_checkpoint(tmp_path, tiny_ckpt):
    assert cli.main(eval_args(tiny_ckpt, tmp_path / "out")) == 0
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert written["config"] == {"preset": "linear-iid", "n": 6, "horizon": 12,
                                 "predictors": ["mop", "kf", "ar-ols"], "ckpt": tiny_ckpt}
    assert written["checkpoint_hashes"] == {"tiny.ckpt": sha256_file(tiny_ckpt)}
    assert (written["command"], written["base_seed"]) == ("eval", 3)
    assert written["outputs"] and all(Path(p).exists() for p in written["outputs"])


# ---------------------------------------------------------------------------
# plot and read_csv
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, error", [
    ("predictor,t\nkf,0\n", "missing columns ['mean_err', 'stderr']"),
    ("predictor,t,mean_err,stderr\n", "no data rows"),
    ("", "line 1: empty file"),
    ("predictor,t,mean_err,stderr\nmop,0,1,0\nkf,0,1,0\nar-ols,0,1,0\n",
     "ratio plot needs exactly 2 predictors, got 3"),
    ("predictor,t,mean_err,stderr\nmop,0,1,0\nkf,0,1,0\nmop,1,1,0\nkf,1,inf,0\n",
     "predictor 'kf' at t=1 has a non-finite mean_err or stderr (inf, 0.0)"),
    ("predictor,t,mean_err,stderr\nmop,0,1,0\nkf,0,1,0\nmop,1,nan,0\nkf,1,1,0\n",
     "predictor 'mop' at t=1 has a non-finite mean_err or stderr (nan, 0.0)"),
    ("predictor,t,mean_err,stderr\nmop,0,1,0\nkf,0,1,0\nmop,1,1,0\nkf,1,1,inf\n",
     "predictor 'kf' at t=1 has a non-finite mean_err or stderr (1.0, inf)"),
])
def test_plot_rejects_an_unusable_csv_with_exit_2(tmp_path, capsys, text, error):
    # a ratio plot, so that three predictors are unusable too; the other
    # cases fail before the kind of plot matters (an inf mean_err used to
    # exit 1 with an OverflowError, and a nan one to exit 2 naming no row)
    csv_path, svg_path = tmp_path / "curves.csv", tmp_path / "curves.svg"
    csv_path.write_text(text)
    assert cli.main(["plot", "--ratio", "--csv", str(csv_path), "--svg", str(svg_path)]) == 2
    assert error in capsys.readouterr().err
    assert not svg_path.exists()


@pytest.mark.parametrize("ratio", [False, True], ids=["curves", "ratio"])
def test_plot_of_an_eval_csv_writes_the_svg(tmp_path, capsys, ratio):
    assert cli.main(["eval", "--preset", "linear-iid", "--predictors", "kf,ar-ols",
                     "--n", "3", "--horizon", "12", "--out-dir", str(tmp_path / "eval")]) == 0
    svg_path = tmp_path / "plots" / "curves.svg"
    argv = ["plot", "--csv", str(tmp_path / "eval" / "curves.csv"),
            "--svg", str(svg_path), "--title", "kf vs ar-ols"]
    assert cli.main(argv + (["--ratio"] if ratio else [])) == 0
    assert f"wrote {svg_path}" in capsys.readouterr().out
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "kf vs ar-ols" in svg


def test_ratio_plot_of_three_predictors_raises():
    rows = [{"predictor": kind, "t": t, "mean_err": 1.0, "stderr": 0.0}
            for kind in ("mop", "kf", "ar-ols") for t in range(3)]
    with pytest.raises(ValueError, match="exactly 2 predictors, got 3"):
        svgplot.render_from_rows(rows, ratio=True)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_csv_write_failing_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "loss.csv"
    write_csv(path, [{"step": 0, "loss": 1.5}], ["step", "loss"])
    before = path.read_bytes()

    def rows():
        yield {"step": 0, "loss": 2.5}
        raise RuntimeError("disk went away")

    with pytest.raises(RuntimeError):
        write_csv(path, rows(), ["step", "loss"])
    assert path.read_bytes() == before
    assert leftovers(tmp_path) == []


@pytest.mark.parametrize("writer", ["json", "tensor"])
def test_write_failing_before_replace_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / ("manifest.json" if writer == "json" else "ckpt-final.ckpt")

    def write(value):
        if writer == "json":
            write_json(path, {"value": value})
        else:
            model.write_tensor_file(path, {"kind": "test"},
                                    {"w": np.full(3, value)}, "f64")

    write(1.0)
    before = path.read_bytes()

    def broken_replace(src, dst):
        assert os.path.exists(src)           # the new content was written
        raise OSError("interrupted")

    monkeypatch.setattr(manifest.os, "replace", broken_replace)
    with pytest.raises(OSError):
        write(2.0)
    assert path.read_bytes() == before
    assert leftovers(tmp_path) == []
    monkeypatch.undo()
    write(2.0)
    assert path.read_bytes() != before and leftovers(tmp_path) == []
