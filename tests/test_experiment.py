"""`moplab experiment` end to end at tiny sizes: every preset's file set,
byte-identical reruns, the diagnostics each report carries, the eval-seed
rule under MOP_SEED, and reuse of a trained model only when its run records
the same config."""

import dataclasses
import json

import pytest

from moplab import cli, evaluation, model, presets, training
from moplab.manifest import read_csv

TRAIN = {"ckpt-000002.ckpt", "ckpt-000002.ckpt.opt", "ckpt-final.ckpt",
         "ckpt-final.ckpt.opt", "dataset.json", "loss.csv", "manifest.json"}
CURVES = {"manifest.json", "curves.svg", "eval/curves.csv", "eval/report.json",
          "eval/manifest.json", *(f"train/{name}" for name in TRAIN)}
GRID = ((4, 12), (8, 12), (8, 8))
EXPECTED = {
    "linear-iid": CURVES,
    "linear-colored": CURVES,
    "linear-switching": CURVES | {"ratio.svg"},
    "quadrotor": CURVES | {"ratio.svg"},
    "hard-triangular": CURVES | {"ratio.svg"},
    "dist-shift": {"manifest.json", "curves.csv", "report.json"},
    "risk-scaling": {"manifest.json", "scaling.json", "cells.csv",
                     *(f"cells/cell-M{m}-T{t}/{name}" for m, t in GRID
                       for name in TRAIN)},
}
# report.json keys beyond the curves and their ratio
DIAGNOSTICS = {"linear-iid": {"robustness"}, "hard-triangular": {"max_power_norm"}}


def tiny(preset):
    """The preset at desk-test sizes: a one-layer f64 model, 6 source systems,
    4 steps with a checkpoint every 2, and 5 test systems."""
    horizon = 16 if preset.switch_at is not None else 12
    mcfg = dataclasses.replace(preset.train.model, layers=1, heads=2, embed_dim=16,
                               context=32, precision="f64")
    train = dataclasses.replace(preset.train, m_systems=6, train_len=horizon, steps=4,
                                batch_size=4, checkpoint_every=2, model=mcfg)
    changes = dict(train=train, eval_n=5, eval_horizon=horizon)
    if preset.switch_at is not None:
        changes["switch_at"] = horizon // 2
    if preset.scaling_grid is not None:
        changes["scaling_grid"] = GRID
    return dataclasses.replace(preset, **changes)


@pytest.fixture
def tiny_presets(monkeypatch):
    for name, preset in list(presets.EXPERIMENTS.items()):
        monkeypatch.setitem(presets.EXPERIMENTS, name, tiny(preset))


def experiment(name, out_dir, *extra):
    return cli.main(["experiment", "--name", name, "--out-dir", str(out_dir),
                     "--quiet", *extra])


def files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def without_wallclock(path):
    return [{k: v for k, v in row.items() if k != "wallclock_s"}
            for row in read_csv(path)]


def test_every_preset_writes_its_files_and_reruns_identically(tmp_path, tiny_presets):
    assert set(EXPECTED) == set(presets.EXPERIMENTS)
    for run in ("a", "b"):
        for name in presets.EXPERIMENTS:     # linear-iid before dist-shift
            assert experiment(name, tmp_path / run, "--seed", "3") == 0
    for name, want in EXPECTED.items():
        first, second = tmp_path / "a" / name, tmp_path / "b" / name
        assert files(first) == want
        assert files(second) == want
        for rel in sorted(want):
            if rel.endswith("manifest.json"):        # wallclock and paths
                continue
            if rel.endswith("loss.csv"):
                assert without_wallclock(first / rel) == without_wallclock(second / rel)
            else:
                assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
        if "eval/report.json" in want:
            report = json.loads((first / "eval" / "report.json").read_text())
            extra = set(report) - {"experiment", "curves", "ratio"}
            assert extra == DIAGNOSTICS.get(name, set()), name


def test_linear_iid_probe_at_the_desk_horizon_is_the_default_probe(tmp_path,
                                                                   monkeypatch):
    preset = tiny(presets.EXPERIMENTS["linear-iid"])
    train = dataclasses.replace(
        preset.train, model=dataclasses.replace(preset.train.model, context=64))
    monkeypatch.setitem(presets.EXPERIMENTS, "linear-iid",
                        dataclasses.replace(preset, train=train, eval_horizon=50))
    assert experiment("linear-iid", tmp_path, "--seed", "3") == 0
    root = tmp_path / "linear-iid"
    report = json.loads((root / "eval" / "report.json").read_text())
    weights = model.load_checkpoint(root / "train" / "ckpt-final.ckpt")
    assert report["robustness"] == evaluation.robustness_probe(
        weights, "linear-dense", seed=cli.derive_eval_seed(3))


def test_mop_seed_and_seed_flag_score_the_same_population(tmp_path, tiny_presets,
                                                          monkeypatch):
    assert experiment("linear-iid", tmp_path / "flag", "--seed", "5") == 0
    monkeypatch.setenv("MOP_SEED", "5")
    assert experiment("linear-iid", tmp_path / "env") == 0
    flag, env = (tmp_path / run / "linear-iid" / "eval" for run in ("flag", "env"))
    assert (flag / "curves.csv").read_bytes() == (env / "curves.csv").read_bytes()
    for eval_dir in (flag, env):
        manifest = json.loads((eval_dir / "manifest.json").read_text())
        assert manifest["base_seed"] == 10_005


def test_scaling_cells_trained_at_another_seed_are_retrained(tmp_path, tiny_presets,
                                                             monkeypatch):
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    assert experiment("risk-scaling", stale, "--seed", "0") == 0
    assert experiment("risk-scaling", stale, "--seed", "1") == 0
    assert experiment("risk-scaling", fresh, "--seed", "1") == 0
    cells = (fresh / "risk-scaling" / "cells.csv").read_bytes()
    assert (stale / "risk-scaling" / "cells.csv").read_bytes() == cells

    # a rerun at the recorded config reuses every cell
    calls = []
    monkeypatch.setattr(training, "train",
                        lambda *args, **kwargs: calls.append(args))
    assert experiment("risk-scaling", fresh, "--seed", "1") == 0
    assert calls == []
    assert (fresh / "risk-scaling" / "cells.csv").read_bytes() == cells
