"""`moplab experiment` end to end at tiny sizes: every preset's file set,
byte-identical reruns, the diagnostics each report carries, the eval-seed
rule under MOP_SEED, the model dist-shift records, reuse of a trained
model only when its run records the same config and final checkpoint, and
a stopped run resumed from its last checkpoint."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import Stopped, stop_training_at
from moplab import cli, evaluation, model, presets, training
from moplab.distributions import get_distribution
from moplab.manifest import read_csv, sha256_file

TRAIN = {"ckpt-000002.ckpt", "ckpt-final.ckpt", "loss.csv", "manifest.json"}
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
    "risk-scaling": {"manifest.json", "scaling.json",
                     *(f"cells/cell-M{m}-T{t}/{name}" for m, t in GRID
                       for name in TRAIN)},
}
# report.json keys beyond the failed systems and the curves' ratio
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
            extra = set(report) - {"experiment", "failed_systems", "ratio"}
            assert extra == DIAGNOSTICS.get(name, set()), name
            # the eval manifest lists every file eval wrote but itself
            outputs = json.loads((first / "eval" / "manifest.json").read_text())["outputs"]
            assert {Path(p).relative_to(first).as_posix() for p in outputs} \
                == {rel for rel in want if rel.startswith("eval/")} - {"eval/manifest.json"}


def phases_of(root):
    """The experiment manifest's phase times, after checking that each is a
    number of seconds >= 0 or null."""
    phases = json.loads((root / "manifest.json").read_text())["phases_s"]
    assert set(phases) == {"dataset", "train", "population", "score",
                           "diagnostics", "plots"}
    for value in [*phases.values(), *phases["score"].values()]:
        assert value is None or isinstance(value, dict) or value >= 0
    return phases


def test_experiment_manifest_times_every_phase(tmp_path, tiny_presets):
    assert experiment("linear-iid", tmp_path, "--seed", "3") == 0
    fresh = phases_of(tmp_path / "linear-iid")
    assert set(fresh["score"]) == {"mop", "kf", "ar-ols"}
    assert None not in fresh.values()
    # a rerun at the same config reuses the trained model
    assert experiment("linear-iid", tmp_path, "--seed", "3") == 0
    reused = phases_of(tmp_path / "linear-iid")
    assert reused["dataset"] is None and reused["train"] is None
    assert None not in (reused["population"], reused["diagnostics"], reused["plots"])
    # dist-shift scores that model at three noise levels and plots nothing
    assert experiment("dist-shift", tmp_path, "--seed", "3") == 0
    shift = phases_of(tmp_path / "dist-shift")
    assert set(shift["score"]) == {"mop", "kf"} and shift["population"] is not None
    assert [shift[k] for k in ("dataset", "train", "diagnostics", "plots")] == [None] * 4
    # risk-scaling trains each cell, scores its filter once and mop per cell
    assert experiment("risk-scaling", tmp_path, "--seed", "3") == 0
    scaling = phases_of(tmp_path / "risk-scaling")
    assert set(scaling["score"]) == {"mop", "kf"}
    assert None not in (scaling["dataset"], scaling["train"], scaling["population"])


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
        weights, get_distribution("linear-dense"), seed=cli.derive_eval_seed(3))


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
    scaling = (fresh / "risk-scaling" / "scaling.json").read_bytes()
    assert (stale / "risk-scaling" / "scaling.json").read_bytes() == scaling

    # a rerun at the recorded config reuses every cell
    results, real_train = [], training.train

    def recording_train(*args, **kwargs):
        results.append(real_train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(training, "train", recording_train)
    assert experiment("risk-scaling", fresh, "--seed", "1") == 0
    assert len(results) == len(GRID) and all(r.dataset_s is None for r in results)
    assert (fresh / "risk-scaling" / "scaling.json").read_bytes() == scaling


def test_scaling_of_one_cell_reports_no_rank_statistic(tmp_path, tiny_presets, monkeypatch,
                                                        capsys):
    # a rank correlation over one cell is undefined: it reads None and n/a,
    # not a measured 0
    one_cell = dataclasses.replace(presets.EXPERIMENTS["risk-scaling"], scaling_grid=GRID[:1])
    monkeypatch.setitem(presets.EXPERIMENTS, "risk-scaling", one_cell)
    assert experiment("risk-scaling", tmp_path, "--seed", "3") == 0
    report = json.loads((tmp_path / "risk-scaling" / "scaling.json").read_text())
    assert report["spearman_delta_vs_mt"] is None
    assert "scaling: spearman(delta, MT) = n/a" in capsys.readouterr().out


def test_scaling_pairs_the_risks_over_the_systems_mop_kept(tmp_path, tiny_presets):
    # NaN one step of test system 3's MOP prediction: each cell's delta is
    # the mean paired delta over the other systems
    bad, real_predict = 3, model.predict_sequence

    def nan_on_bad_system(weights, tokens):
        preds = real_predict(weights, tokens)
        preds[bad, 4] = np.nan
        return preds

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(model, "predict_sequence", nan_on_bad_system)
        assert experiment("risk-scaling", tmp_path, "--seed", "3") == 0
    root = tmp_path / "risk-scaling"
    report = json.loads((root / "scaling.json").read_text())
    preset = presets.EXPERIMENTS["risk-scaling"]
    dist = get_distribution(preset.distribution)
    population = evaluation.test_population(dist, preset.eval_n, preset.eval_horizon,
                                            cli.derive_eval_seed(3))
    others = np.arange(preset.eval_n) != bad

    def risks(kind, weights=None):
        curve = evaluation.error_curve(kind, dist, preset.eval_n, preset.eval_horizon,
                                       cli.derive_eval_seed(3), weights=weights,
                                       population=population)
        return curve.per_system[others, 1:].mean(axis=1)

    kf = risks("kf")
    assert [(c["m_systems"], c["train_len"]) for c in report["cells"]] == list(GRID)
    for cell in report["cells"]:
        ckpt = root / "cells" / f"cell-M{cell['m_systems']}-T{cell['train_len']}" \
            / "ckpt-final.ckpt"
        delta = risks("mop", model.load_checkpoint(ckpt)) - kf
        assert cell["flagged"] is None
        assert cell["delta"] == float(delta.mean())
        assert cell["stderr"] == float(delta.std(ddof=1) / np.sqrt(len(delta)))


def test_dist_shift_manifest_names_the_model_it_scored(tmp_path, tiny_presets):
    assert experiment("linear-iid", tmp_path, "--seed", "3") == 0
    train_dir = tmp_path / "linear-iid" / "train"
    for out_dir, ckpt, extra in (
            (tmp_path, train_dir / "ckpt-final.ckpt", ()),
            (tmp_path / "given", train_dir / "ckpt-000002.ckpt",
             ("--ckpt", str(train_dir / "ckpt-000002.ckpt")))):
        assert experiment("dist-shift", out_dir, "--seed", "3", *extra) == 0
        written = json.loads((out_dir / "dist-shift" / "manifest.json").read_text())
        assert written["config"] == {"name": "dist-shift", "ckpt": str(ckpt)}
        assert written["checkpoint_hashes"] == {ckpt.name: sha256_file(ckpt)}


def ensure_trained(cfg, train_dir) -> Path:
    return Path(training.train(cfg, train_dir).checkpoints[-1])


def test_a_replaced_final_checkpoint_is_retrained(tmp_path):
    cfg = tiny(presets.EXPERIMENTS["linear-iid"]).train
    final = ensure_trained(cfg, tmp_path)
    trained = final.read_bytes()
    # a valid checkpoint, but not the one the manifest records
    final.write_bytes((tmp_path / "ckpt-000002.ckpt").read_bytes())
    assert ensure_trained(cfg, tmp_path) == final
    assert final.read_bytes() == trained


def test_a_stopped_run_does_not_reuse_another_configs_final_checkpoint(tmp_path,
                                                                       monkeypatch):
    a = tiny(presets.EXPERIMENTS["linear-iid"]).train
    b = dataclasses.replace(a, seed=a.seed + 1)
    finished_a = ensure_trained(a, tmp_path).read_bytes()
    stop_training_at(monkeypatch, 3)          # after b's step-2 checkpoint
    with pytest.raises(Stopped):
        ensure_trained(b, tmp_path)
    monkeypatch.undo()
    # the manifest now records b, but no final checkpoint of b
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["seed"] == b.seed
    fresh_b = ensure_trained(b, tmp_path / "fresh").read_bytes()
    assert ensure_trained(b, tmp_path).read_bytes() == fresh_b != finished_a


def test_a_killed_experiment_resumes_from_its_last_checkpoint(tmp_path, tiny_presets,
                                                               monkeypatch):
    assert experiment("linear-iid", tmp_path / "full", "--seed", "3") == 0
    with pytest.MonkeyPatch.context() as killed:
        stop_training_at(killed, 3)           # after the step-2 checkpoint
        assert experiment("linear-iid", tmp_path / "run", "--seed", "3") == 1
    resumes, real_load = [], model.load_training_state

    def recording_load(path):
        resumes.append(path)
        return real_load(path)

    monkeypatch.setattr(model, "load_training_state", recording_load)
    assert experiment("linear-iid", tmp_path / "run", "--seed", "3") == 0
    full, run = (tmp_path / name / "linear-iid" for name in ("full", "run"))
    assert resumes == [run / "train" / "ckpt-000002.ckpt"]
    assert without_wallclock(run / "train" / "loss.csv") \
        == without_wallclock(full / "train" / "loss.csv")
    assert (run / "train" / "ckpt-final.ckpt").read_bytes() \
        == (full / "train" / "ckpt-final.ckpt").read_bytes()
