"""Meta-dataset construction, the training objective, and the training loop
(determinism, divergence handling, resume)."""

import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import resource
import tracemalloc

import numpy as np
import pytest

from conftest import (COMMITTED_CACHE, SOURCES, Stopped, ensure_trained, load_loss_rows,
                      stop_training_at, zero_model)
from moplab import engine, evaluation, linalg, model, presets, training
from moplab.distributions import DISTRIBUTIONS, get_distribution
from moplab.manifest import read_csv, sha256_file, sha256_json
from moplab.model import ModelConfig
from moplab.seeding import derive_seed, stream
from moplab.systems import Trajectory
from moplab.training import TrainConfig, TrainingAborted, batch_loss, build_meta_dataset

TINY_MODEL = ModelConfig(layers=2, heads=2, embed_dim=16, context=32,
                         token_dim=5, output_dim=5, precision="f64")


def tiny_cfg(**kw):
    defaults = dict(preset="linear-dense", m_systems=16, train_len=12,
                    steps=20, batch_size=4, seed=5, checkpoint_every=50,
                    model=TINY_MODEL)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

def test_dataset_manifest_reproducible():
    a = build_meta_dataset("linear-dense", 10, 20, 3).manifest()
    b = build_meta_dataset("linear-dense", 10, 20, 3).manifest()
    assert a == b


def test_dataset_record_is_config_and_systems_hash():
    a = build_meta_dataset("linear-dense", 10, 20, 3)
    record = a.manifest()
    # the recorded hash is the sha256 of the token stack every step indexes
    assert record == {"preset": "linear-dense", "m_systems": 10, "train_len": 20,
                      "seed": 3, "role": "train",
                      "tokens_sha256": hashlib.sha256(a.tokens).hexdigest()}
    assert build_meta_dataset("linear-dense", 10, 20, 4).manifest()["tokens_sha256"] \
        != record["tokens_sha256"]
    # the record grows with M only by the digits of the count
    large = build_meta_dataset("linear-dense", 100, 20, 3).manifest()
    assert len(json.dumps(large)) - len(json.dumps(record)) == len("100") - len("10")


def test_dataset_systems_hit_target_radius():
    dist = get_distribution("linear-dense")
    for i in range(5):
        system = dist.sample_system(4, "train", i)
        assert linalg.spectral_radius(system.a) == pytest.approx(0.95, abs=1e-3)


def test_dataset_trajectories_fixed_and_reproducible():
    # row i of the tokens is system i's trajectory, rolled from its own
    # seeds: its outputs, then its inputs for a system with inputs
    m_systems, train_len, seed = 4, 15, 6
    for preset, n_inputs in (("linear-dense", 0), ("quadrotor", 2)):
        ds = build_meta_dataset(preset, m_systems, train_len, seed)
        dist = get_distribution(preset)
        assert ds.tokens.shape == (m_systems, train_len, dist.m + n_inputs)
        for i in range(m_systems):
            traj = dist.make_trajectory(dist.sample_system(seed, "train", i),
                                        train_len, seed, "train", i)
            assert np.array_equal(ds.tokens[i, :, :dist.m], traj.ys)
            if n_inputs:
                assert np.array_equal(ds.tokens[i, :, dist.m:], traj.us)
        assert np.array_equal(build_meta_dataset(preset, m_systems, train_len, seed).tokens,
                              ds.tokens)


@pytest.mark.parametrize("preset", sorted(DISTRIBUTIONS))
def test_dataset_across_a_chunk_boundary_equals_per_index_draws(preset):
    # the build draws DATASET_CHUNK systems per stacked call; each row must
    # still be system i drawn and rolled from its own streams alone
    m_systems, train_len, seed = training.DATASET_CHUNK + 3, 20, 8
    dist = get_distribution(preset)
    ds = build_meta_dataset(preset, m_systems, train_len, seed)
    systems = [dist.sample_system(seed, "train", i) for i in range(m_systems)]
    tokens = np.stack([dist.make_trajectory(system, train_len, seed, "train", i).tokens
                       for i, system in enumerate(systems)])
    assert np.array_equal(ds.tokens, tokens)
    assert ds.tokens_sha256 == hashlib.sha256(tokens).hexdigest()


@pytest.mark.parametrize("preset, m_systems", [("linear-triangular", 200),
                                               ("quadrotor", 100)])
def test_dataset_build_holds_one_copy_of_its_trajectories(preset, m_systems):
    # each trajectory goes straight into its row; stacking the rolled rows
    # instead holds two copies at once, a peak of about 2.2 times the kept
    build_meta_dataset(preset, m_systems, 50, 0)       # imports and caches
    tracemalloc.start()
    try:
        ds = build_meta_dataset(preset, m_systems, 50, 0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.tokens.nbytes <= retained
    assert peak / retained < 1.5


def test_dataset_rng_streams_disjoint():
    # no two per-system streams may collide in their first 1e4 draws
    seeds = [derive_seed(0, "linear-dense", "train", "traj", i) for i in range(20)]
    assert len(set(seeds)) == 20
    draws = [np.random.default_rng(s).standard_normal(10_000) for s in seeds[:8]]
    for i in range(8):
        for j in range(i + 1, 8):
            assert not np.array_equal(draws[i], draws[j])


def test_train_and_test_namespaces_disjoint():
    train_seed = derive_seed(0, "linear-dense", "train", "sys", 0)
    test_seed = derive_seed(0, "linear-dense", "test", "sys", 0)
    assert train_seed != test_seed


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        build_meta_dataset("linear-cubic", 4, 10, 0)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_batch_loss_zero_when_predictions_match(rng):
    # craft a trajectory the zero model predicts exactly: all-zero targets
    w = zero_model(TINY_MODEL)
    ys = np.zeros((2, 6, 5))
    assert batch_loss(w, ys).item() == 0.0


def test_batch_loss_single_pair_euclidean():
    # one trajectory, one prediction term: loss = ||(3,4,0,0,0) - 0|| = 5
    w = zero_model(TINY_MODEL)
    ys = np.zeros((1, 2, 5))
    ys[0, 1, :2] = [3.0, 4.0]
    assert batch_loss(w, ys).item() == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(6,), (6, 5), (2, 1, 5)])
def test_batch_loss_takes_batches_of_two_or_more_outputs(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        batch_loss(zero_model(TINY_MODEL), np.zeros(shape))


def test_batch_loss_mean_invariance_duplicates(rng):
    w = model.init_weights(TINY_MODEL, stream(1, "bl"))
    ys = rng.standard_normal((1, 10, 5))
    single = batch_loss(w, ys).item()
    double = batch_loss(w, np.concatenate([ys, ys])).item()
    assert double == pytest.approx(single, abs=1e-12)


def test_batch_loss_order_invariance(rng):
    w = model.init_weights(TINY_MODEL, stream(2, "bl"))
    ys = rng.standard_normal((6, 10, 5))
    a = batch_loss(w, ys).item()
    b = batch_loss(w, ys[::-1].copy()).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_batch_loss_matches_empirical_risk_formula(rng):
    # same formula, two call sites (the training objective and the
    # evaluation's mop scoring path, read as the empirical risk): 1e-12
    w = model.init_weights(TINY_MODEL, stream(3, "bl"))
    ys = rng.standard_normal((4, 12, 5))
    via_loss = batch_loss(w, ys).item()
    population = ([None] * 4, [Trajectory(ys=y) for y in ys])
    curve = evaluation.error_curve("mop", get_distribution("linear-dense"), 4, 12, 0, weights=w,
                                   population=population)
    via_risk = float(curve.per_system[:, 1:].mean(axis=1).mean())
    assert via_loss == pytest.approx(via_risk, abs=1e-12)


def test_l2_norm_gradient_finite_at_match():
    w = zero_model(TINY_MODEL)
    ys = np.zeros((1, 4, 5))
    g = engine.Graph()
    with g:
        loss = batch_loss(w, ys)
    grads = engine.backward(g, loss)
    assert grads.keys() == w.arrays.keys()
    for name, grad in grads.items():
        assert np.isfinite(grad).all(), name
        assert np.array_equal(grad, np.zeros_like(w.arrays[name])), name


def one_graph_loss_and_grads(weights, tokens):
    g = engine.Graph()
    with g:
        loss = batch_loss(weights, tokens)
    return loss.item(), engine.backward(g, loss)


def loss_and_grads_case(batch, n_inputs):
    cfg = dataclasses.replace(TINY_MODEL, token_dim=5 + n_inputs)
    weights = model.init_weights(cfg, stream(7, "chunks"))
    draw = stream(8, "chunks")
    ys = draw.standard_normal((batch, 12, 5))
    tokens = np.concatenate([ys, draw.standard_normal((batch, 12, n_inputs))], axis=-1)
    return (training._loss_and_grads(weights, tokens),
            one_graph_loss_and_grads(weights, tokens))


# ids: the loss (the l2 norm) and the number of input channels
@pytest.mark.parametrize("n_inputs", [0, 2], ids=lambda n: f"l2_norm-{n}")
def test_chunked_loss_and_grads_match_one_graph(n_inputs):
    # 37 trajectories: full chunks and a short last one, each scaled by its
    # share of the batch
    assert 37 % training.TRAIN_CHUNK and 37 > training.TRAIN_CHUNK
    (loss, grads), (ref_loss, ref_grads) = loss_and_grads_case(37, n_inputs)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert grads.keys() == ref_grads.keys()
    # attn.bk's exact gradient is 0 (the softmax ignores a per-query
    # constant), so its entries are rounding noise on both sides; 1e-12 of
    # the largest gradient entry is the floor under the relative tolerance
    floor = 1e-12 * max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-12, atol=floor, err_msg=name)


def test_one_chunk_loss_and_grads_are_one_graph_bit_for_bit():
    (loss, grads), (ref_loss, ref_grads) = loss_and_grads_case(training.TRAIN_CHUNK, 0)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert np.array_equal(grads[name], ref), name


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_step_tapes_one_chunk_at_a_time(tmp_path, monkeypatch):
    tapes = []
    backward = engine.backward

    def recording_backward(graph, loss):
        tapes.append([node.out_shape for node in graph.nodes if node.op != "leaf"])
        return backward(graph, loss)

    monkeypatch.setattr(engine, "backward", recording_backward)
    chunk = training.TRAIN_CHUNK
    # train_len = chunk keeps the time axis (chunk - 1) under the chunk, so
    # only the batch axis of an activation could reach it
    training.train(tiny_cfg(steps=1, batch_size=64, train_len=chunk), tmp_path)
    assert len(tapes) == math.ceil(64 / chunk) > 1
    # parameter leaves are left out: their leading dims are model sizes
    assert max(shape[0] for tape in tapes for shape in tape if shape) == chunk


def test_train_deterministic(tmp_path):
    cfg = tiny_cfg()
    r1 = training.train(cfg, tmp_path / "a")
    r2 = training.train(cfg, tmp_path / "b")
    l1 = [row["loss"] for row in r1.loss_rows]
    l2 = [row["loss"] for row in r2.loss_rows]
    assert l1 == l2
    b1 = (tmp_path / "a" / "ckpt-final.ckpt").read_bytes()
    b2 = (tmp_path / "b" / "ckpt-final.ckpt").read_bytes()
    assert b1 == b2


def test_train_zero_steps_emits_initial_checkpoint(tmp_path):
    cfg = tiny_cfg(steps=0)
    result = training.train(cfg, tmp_path)
    assert (tmp_path / "ckpt-final.ckpt").exists()
    assert result.loss_rows == []
    assert result.checkpoints == [str(tmp_path / "ckpt-final.ckpt")]
    assert result.dataset_s >= 0
    w = model.load_checkpoint(result.checkpoints[-1])
    ref = model.init_weights(cfg.model, stream(cfg.seed, "init"))
    for k in ref.arrays:
        assert np.array_equal(w.arrays[k], ref.arrays[k])


def train_until_aborted(cfg, out_dir) -> TrainingAborted:
    """Train until `TrainingAborted` and return it, after checking that
    ckpt-abort.ckpt holds the state its failing step started from."""
    with pytest.raises(TrainingAborted) as exc_info:
        training.train(cfg, out_dir)
    _, saved_step, _ = model.load_training_state(out_dir / "ckpt-abort.ckpt")
    assert saved_step == exc_info.value.step
    return exc_info.value


def test_train_divergence_aborts(tmp_path):
    exc = train_until_aborted(tiny_cfg(lr=1e6, steps=200, checkpoint_every=1), tmp_path)
    assert 0 < exc.step < 200
    # a periodic checkpoint exists by then, and the abort still writes its own
    assert (tmp_path / f"ckpt-{exc.step:06d}.ckpt").exists()
    assert "above 1e+06" in str(exc)


def test_train_aborts_on_a_nan_loss(tmp_path, monkeypatch):
    real = training._loss_and_grads
    calls = []

    def nan_on_third_step(weights, tokens):
        calls.append(None)
        loss, grads = real(weights, tokens)
        return (math.nan if len(calls) == 3 else loss), grads

    monkeypatch.setattr(training, "_loss_and_grads", nan_on_third_step)
    exc = train_until_aborted(tiny_cfg(steps=10), tmp_path)
    assert exc.step == 2
    assert "nan is not finite" in str(exc)


def assert_run_explains_itself(cfg, run_dir) -> dict:
    """Check that run_dir's dataset.json is `cfg`'s dataset record and that
    its manifest.json records `cfg`, that record's hash and the sha256 of
    every checkpoint file on disk; return the manifest."""
    written = json.loads((run_dir / "manifest.json").read_text())
    assert (written["command"], written["base_seed"]) == ("train", cfg.seed)
    assert written["config"] == dataclasses.asdict(cfg)
    dataset = json.loads((run_dir / "dataset.json").read_text())
    assert dataset == build_meta_dataset(cfg.preset, cfg.m_systems, cfg.train_len,
                                         cfg.seed).manifest()
    assert written["dataset_hash"] == sha256_json(dataset)
    assert written["checkpoint_hashes"] == {p.name: sha256_file(p)
                                            for p in run_dir.glob("*.ckpt")}
    return written


def test_diverged_run_records_its_config_and_checkpoints(tmp_path):
    cfg = tiny_cfg(lr=1e6, steps=200, checkpoint_every=1)
    train_until_aborted(cfg, tmp_path)
    written = assert_run_explains_itself(cfg, tmp_path)
    assert written["outputs"] == [str(tmp_path / "loss.csv"),
                                  str(tmp_path / "ckpt-abort.ckpt")]


def test_stopped_run_records_its_config_and_checkpoints(tmp_path, monkeypatch):
    cfg = tiny_cfg(steps=9, checkpoint_every=3)
    stop_training_at(monkeypatch, 4)
    with pytest.raises(Stopped):
        training.train(cfg, tmp_path)
    written = assert_run_explains_itself(cfg, tmp_path)
    assert list(written["checkpoint_hashes"]) == ["ckpt-000003.ckpt"]
    assert written["outputs"] == [str(tmp_path / "loss.csv"),
                                  str(tmp_path / "ckpt-000003.ckpt")]


def test_every_checkpoint_records_its_train_len(tmp_path):
    # `moplab eval` scores a checkpoint only on the positions it trained
    training.train(tiny_cfg(steps=4, checkpoint_every=2), tmp_path / "run")
    train_until_aborted(tiny_cfg(lr=1e6, steps=200), tmp_path / "abort")
    paths = sorted((tmp_path / "run").glob("*.ckpt")) + [tmp_path / "abort" / "ckpt-abort.ckpt"]
    assert [p.name for p in paths] == ["ckpt-000002.ckpt", "ckpt-final.ckpt",
                                       "ckpt-abort.ckpt"]
    for path in paths:
        assert model.read_checkpoint(path)[1]["train_len"] == 12


def trace(rows):
    """(step, loss, grad_norm) of each loss row, wallclock aside."""
    return [(r["step"], r["loss"], r["grad_norm"]) for r in rows]


def logged_trace(run_dir):
    """`trace` of the loss.csv under run_dir (floats are logged by repr, so
    they read back bit for bit)."""
    return [(int(r["step"]), float(r["loss"]), float(r["grad_norm"]))
            for r in read_csv(run_dir / "loss.csv")]


def test_aborted_run_logs_every_step_before_the_abort(tmp_path, monkeypatch):
    full = training.train(tiny_cfg(steps=10), tmp_path / "full")
    real = training._loss_and_grads
    calls = []

    def nan_on_fifth_step(weights, tokens):
        calls.append(None)
        loss, grads = real(weights, tokens)
        return (math.nan if len(calls) == 5 else loss), grads

    monkeypatch.setattr(training, "_loss_and_grads", nan_on_fifth_step)
    # the step-3 checkpoint logs steps 0-2; the abort's rewrite adds step 3
    exc = train_until_aborted(tiny_cfg(steps=10, checkpoint_every=3), tmp_path / "run")
    assert exc.step == 4
    assert logged_trace(tmp_path / "run") == trace(full.loss_rows[:4])


def test_train_resume_reproduces_trace(tmp_path):
    cfg_full = tiny_cfg(steps=16, checkpoint_every=8)
    full = training.train(cfg_full, tmp_path / "full")
    part = training.train(dataclasses.replace(cfg_full, steps=8), tmp_path / "part")
    resumed = training.train(cfg_full, tmp_path / "resumed",
                             resume=part.checkpoints[-1])
    # the resumed log starts at step 0, its first rows read from the part run's
    assert trace(resumed.loss_rows) == trace(full.loss_rows)
    assert [r["step"] for r in resumed.loss_rows] == list(range(16))
    assert logged_trace(tmp_path / "resumed") == logged_trace(tmp_path / "full")
    assert (tmp_path / "full" / "ckpt-final.ckpt").read_bytes() \
        == (tmp_path / "resumed" / "ckpt-final.ckpt").read_bytes()


def test_resume_without_the_optimizer_moments_fails_before_out_dir(tmp_path):
    part = training.train(tiny_cfg(steps=2), tmp_path / "part")
    weights, step, state = model.load_training_state(part.checkpoints[-1])
    del state["v"]
    bad = tmp_path / "no-v.ckpt"
    model.save_checkpoint(weights, bad, optimizer=(step, state))
    with pytest.raises(model.CheckpointError, match=re.escape(f"{bad}: optimizer state")):
        training.train(tiny_cfg(steps=4), tmp_path / "run", resume=bad)
    assert not (tmp_path / "run").exists()


def test_interrupted_run_resumes_with_its_whole_log(tmp_path, monkeypatch):
    cfg = tiny_cfg(steps=9, checkpoint_every=3)
    full = training.train(cfg, tmp_path / "full")
    run = tmp_path / "run"
    stop_training_at(monkeypatch, 7)
    with pytest.raises(Stopped):
        training.train(cfg, run)
    monkeypatch.undo()
    # the step-6 checkpoint left the rows of steps 0-5 beside it
    assert logged_trace(run) == trace(full.loss_rows[:6])
    resumed = training.train(cfg, run, resume=run / "ckpt-000006.ckpt")
    assert trace(resumed.loss_rows) == trace(full.loss_rows)
    assert logged_trace(run) == logged_trace(tmp_path / "full")
    assert (run / "ckpt-final.ckpt").read_bytes() \
        == (tmp_path / "full" / "ckpt-final.ckpt").read_bytes()


@pytest.mark.parametrize("resume", [None, "ckpt-000004.ckpt"])
def test_a_run_resumed_in_place_hashes_all_its_checkpoints(tmp_path, monkeypatch, resume):
    # a rerun without `resume` goes on from the newest checkpoint, as an
    # explicit one does, and either keeps the hashes of the stopped call's
    cfg = tiny_cfg(steps=6, checkpoint_every=2)
    full, run = tmp_path / "full", tmp_path / "run"
    training.train(cfg, full)
    stop_training_at(monkeypatch, 5)          # after the step-4 checkpoint
    with pytest.raises(Stopped):
        training.train(cfg, run)
    monkeypatch.undo()
    stopped = read_csv(run / "loss.csv")      # steps 0-3, as the stopped call clocked them
    training.train(cfg, run, resume=resume and run / resume)
    written = assert_run_explains_itself(cfg, run)
    assert list(written["checkpoint_hashes"]) == ["ckpt-000002.ckpt", "ckpt-000004.ckpt",
                                                  "ckpt-final.ckpt"]
    assert read_csv(run / "loss.csv")[:4] == stopped
    assert logged_trace(run) == logged_trace(full)
    assert (run / "ckpt-final.ckpt").read_bytes() == (full / "ckpt-final.ckpt").read_bytes()


def test_a_rerun_of_a_finished_run_reuses_it_untouched(tmp_path):
    cfg = tiny_cfg(steps=4, checkpoint_every=2)
    first = training.train(cfg, tmp_path)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    again = training.train(cfg, tmp_path)
    assert again.checkpoints == [first.checkpoints[-1]]
    assert again.dataset_s is None
    assert again.loss_rows == first.loss_rows
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written


def test_failed_save_keeps_the_previous_checkpoint_whole(tmp_path, monkeypatch):
    # a rerun into the same directory fails on writing the file that carries
    # the optimizer step; the step-2 checkpoint it would have replaced must
    # still resume onto the uninterrupted trace, though the log beside it
    # already holds the failed run's steps 2 and 3
    cfg = tiny_cfg(steps=6, checkpoint_every=100)
    full = training.train(cfg, tmp_path / "full")
    run = tmp_path / "run"
    training.train(dataclasses.replace(cfg, steps=2), run)
    write = model.write_tensor_file

    def failing_write(path, meta, tensors, precision):
        if "step" in meta:
            raise OSError("disk full")
        write(path, meta, tensors, precision)

    monkeypatch.setattr(model, "write_tensor_file", failing_write)
    with pytest.raises(OSError, match="disk full"):
        training.train(dataclasses.replace(cfg, steps=4), run)
    monkeypatch.undo()
    final = run / "ckpt-final.ckpt"
    assert model.load_training_state(final)[1] == 2
    assert [step for step, _, _ in logged_trace(run)] == [0, 1, 2, 3]
    resumed = training.train(cfg, tmp_path / "resumed", resume=final)
    assert trace(resumed.loss_rows) == trace(full.loss_rows)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the top pad is glibc's")
def test_train_steps_reuse_the_freed_heap(tmp_path, monkeypatch):
    # a desk step frees one tape per chunk; with glibc's default pad the
    # heap shrinks after each and a step faults about 12,000 pages back in
    faults = []
    loss_and_grads = training._loss_and_grads

    def counting(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = loss_and_grads(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out

    monkeypatch.setattr(training, "_loss_and_grads", counting)
    cfg = TrainConfig(m_systems=8, train_len=50, steps=4, batch_size=64,
                      model=presets.desk_model_config("linear-dense"))
    training.train(cfg, tmp_path)
    assert max(faults[2:]) < 1000, faults


def test_train_raises_the_top_pad_and_restores_it(tmp_path, monkeypatch):
    pads = []           # pad sizes and heap trims, in call order
    monkeypatch.setattr(training, "_set_top_pad", pads.append)
    monkeypatch.setattr(training, "_trim_heap", lambda: pads.append("trim"))
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.delenv("MALLOC_TOP_PAD_", raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    training.train(tiny_cfg(steps=1), tmp_path / "done")
    assert pads == [64 * 2**20, 128 * 2**10, "trim"]
    pads.clear()
    with pytest.raises(TrainingAborted):
        training.train(tiny_cfg(lr=1e6, steps=200, checkpoint_every=10), tmp_path / "aborted")
    assert pads == [64 * 2**20, 128 * 2**10, "trim"]
    pads.clear()
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    training.train(tiny_cfg(steps=1), tmp_path / "other-libc")
    assert pads == []
    # a pad the environment chose is left alone
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.top_pad=1048576")
    training.train(tiny_cfg(steps=1), tmp_path / "tunable")
    monkeypatch.delenv("GLIBC_TUNABLES")
    monkeypatch.setenv("MALLOC_TOP_PAD_", "1048576")
    training.train(tiny_cfg(steps=1), tmp_path / "env")
    assert pads == []


def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="reads /proc/self/statm and trims glibc's heap")
def test_train_hands_its_heap_back(tmp_path, monkeypatch):
    # without the trim a desk run's freed tapes stay resident after it
    # returns. A first run pays the process's one-time costs (BLAS buffers,
    # lazy imports); the heap is then trimmed, so that what it or earlier
    # tests left free does not absorb the measured run
    monkeypatch.delenv("MALLOC_TOP_PAD_", raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    cfg = TrainConfig(m_systems=8, train_len=50, steps=2, batch_size=64,
                      model=presets.desk_model_config("linear-dense"))
    training.train(cfg, tmp_path / "first")
    ctypes.CDLL("libc.so.6").malloc_trim(ctypes.c_size_t(0))
    before = resident_mb()
    training.train(cfg, tmp_path / "measured")
    assert resident_mb() - before <= 2.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(m_systems=0)
    with pytest.raises(ValueError):
        tiny_cfg(train_len=40, model=TINY_MODEL)   # exceeds context 32


def test_train_loss_log_schema(tmp_path):
    result = training.train(tiny_cfg(steps=3), tmp_path)
    assert [r["step"] for r in result.loss_rows] == [0, 1, 2]
    for row in result.loss_rows:
        assert set(row) == {"step", "loss", "grad_norm", "wallclock_s"}
        assert np.isfinite(row["loss"]) and row["grad_norm"] >= 0


def test_gradient_clipping_engages(tmp_path):
    # the first steps of a fresh model exceed unit gradient norm; the
    # applied update must be the clipped one (norm reported pre-clip)
    result = training.train(tiny_cfg(steps=2, clip_norm=0.05), tmp_path)
    assert result.loss_rows[0]["grad_norm"] > 0.05


# ---------------------------------------------------------------------------
# heavier probes (cached across runs)
# ---------------------------------------------------------------------------

def test_committed_cache_entries_were_trained_by_these_sources():
    # a change to the training sources retrains the committed entries; the
    # ones it replaces are removed, not left next to the new ones
    stale = [info.parent.name for info in sorted(COMMITTED_CACHE.glob("*/train-info.json"))
             if json.loads(info.read_text())["sources"] != SOURCES]
    assert stale == []


def test_overfit_probe_two_systems(cache_root):
    # end-to-end gradient flow: 2 systems memorized to <= 10% of start loss
    cfg = TrainConfig(preset="linear-dense", m_systems=2, train_len=20,
                      steps=2000, batch_size=8, seed=1, checkpoint_every=2000,
                      model=ModelConfig(layers=4, heads=4, embed_dim=64,
                                        context=32, token_dim=5, output_dim=5,
                                        precision="f32"))
    rows = load_loss_rows(ensure_trained(cfg, tag="overfit"))
    start = np.mean([r["loss"] for r in rows[:10]])
    end = np.mean([r["loss"] for r in rows[-10:]])
    assert end <= 0.10 * start


def test_loss_decreases_by_step_1000(cache_root):
    # linear-dense distribution, reduced M for test runtime
    cfg = TrainConfig(preset="linear-dense", m_systems=256, train_len=50,
                      steps=1000, batch_size=32, seed=2, checkpoint_every=1000,
                      model=ModelConfig(layers=4, heads=4, embed_dim=64,
                                        context=64, token_dim=5, output_dim=5,
                                        precision="f32"))
    rows = load_loss_rows(ensure_trained(cfg, tag="step1000"))
    first = np.mean([r["loss"] for r in rows[:5]])
    last = np.mean([r["loss"] for r in rows[-5:]])
    assert rows[-1]["step"] == 999
    assert last < first
    assert rows[-1]["loss"] < rows[0]["loss"]
