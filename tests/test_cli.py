"""The command-line entry point: exit codes, reproducible outputs, resumed
training logs, plotting errors, CSV parsing and atomic artifact writes."""

import json
import os

import numpy as np
import pytest

from moplab import cli, manifest, model, svgplot
from moplab.manifest import read_csv, write_csv, write_json
from moplab.model import ModelConfig
from moplab.seeding import stream

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


def test_resumed_run_log_equals_uninterrupted_log(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preset": "linear-dense", "m_systems": 8, "train_len": 12,
        "batch_size": 4, "seed": 5, "checkpoint_every": 100,
        "model": {"layers": 2, "heads": 2, "embed_dim": 16, "context": 32,
                  "token_dim": 5, "output_dim": 5, "precision": "f64"}}))
    base = ["train", "--config", str(config), "--quiet"]
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


# ---------------------------------------------------------------------------
# plot and read_csv
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, error", [
    ("predictor,t\nkf,0\n", "missing columns ['mean_err', 'stderr']"),
    ("predictor,t,mean_err,stderr\n", "no data rows"),
])
def test_plot_rejects_an_unusable_csv_with_exit_2(tmp_path, capsys, text, error):
    csv_path, svg_path = tmp_path / "curves.csv", tmp_path / "curves.svg"
    csv_path.write_text(text)
    assert cli.main(["plot", "--csv", str(csv_path), "--svg", str(svg_path)]) == 2
    assert error in capsys.readouterr().err
    assert not svg_path.exists()


def test_ratio_plot_of_three_predictors_raises():
    rows = [{"predictor": kind, "t": t, "mean_err": 1.0, "stderr": 0.0}
            for kind in ("mop", "kf", "ar-ols") for t in range(3)]
    with pytest.raises(ValueError, match="exactly 2 predictors, got 3"):
        svgplot.render_from_rows(rows, ratio=True)


def test_read_csv_names_the_malformed_line(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("predictor,t\nkf,0\nkf\n")
    with pytest.raises(ValueError, match="line 3: expected 2 fields, got 1"):
        read_csv(path)


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
