"""Layer spans for the traced benchmark run, recorded from outside moplab.

`Tracer.install` replaces public attributes of the moplab modules with
timing wrappers and `uninstall` puts the originals back, so the untraced
run executes moplab exactly as shipped. Each call through a wrapper records
one span: id, parent span id, name, the benchmark unit it ran in (the
"request" id: "setup-<k>" or "pass-<k>"), start, end and optional attributes.
Spans stay in memory and are written out once, when the run ends.
`layer_metrics` turns the spans into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import time
from collections import Counter, defaultdict

# Public engine ops, in the order the per-layer metrics list them.
ENGINE_OPS = ("matmul", "add", "sub", "mul", "scale", "reshape", "transpose",
              "rowwise_softmax", "layer_norm", "gelu", "l2norm_lastdim",
              "sum_lastdim", "mean_all")
# Tape node kinds: the public ops plus leaves and the model's positional slice.
TAPE_OPS = ("leaf",) + ENGINE_OPS + ("pos_slice",)
PREDICTOR_KINDS = ("kf", "ar-ols", "ekf", "mop")
COUNTED_BASELINES = ("GaussianFilter.step", "OnlineARPredictor.step",
                     "solve_linear", "quadrotor_step", "quadrotor_jacobian")

ID, PARENT, NAME, UNIT, START, END, ATTRS = range(7)


def _graph_profile(args, kwargs):
    """Tape size at the engine.backward boundary: node count, bytes the
    node outputs hold, and nodes per op kind."""
    graph, loss = args[0], args[1]
    itemsize = loss.data.dtype.itemsize
    elements = 0
    ops = Counter()
    for node in graph.nodes:
        count = 1
        for dim in node.out_shape:
            count *= dim
        elements += count
        ops[node.op] += 1
    return {"nodes": len(graph.nodes), "bytes": elements * itemsize,
            "ops": dict(ops)}


def _kind(args, kwargs):
    return {"kind": args[0] if args else kwargs["predictor_kind"]}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.unit = None
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-level span (set-up or pass) that moplab spans nest in."""
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, self.unit, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a wrapper recording one span per call.

        `before(args, kwargs)` and `after(args, kwargs, result)` may return
        a dict of attributes stored on the span; an exception is recorded
        as the span's "error" attribute and re-raised.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, perf_counter = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, tracer.unit,
                   0.0, 0.0, before(args, kwargs) if before else None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[ATTRS] = {**(rec[ATTRS] or {}), "error": type(exc).__name__}
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after:
                rec[ATTRS] = {**(rec[ATTRS] or {}), **after(args, kwargs, out)}
            return out

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, fn))

    def install(self):
        """Wrap the public moplab functions each per-layer metric reads."""
        from moplab import (baselines, distributions, engine, evaluation, linalg,
                            model, training)
        self.wrap(linalg, "spectral_radius", "linalg.spectral_radius")
        self.wrap(distributions.Distribution, "sample_system",
                  "distributions.sample_system")
        self.wrap(distributions.Distribution, "make_trajectory",
                  "distributions.make_trajectory")
        self.wrap(distributions, "simulate", "distributions.simulate")
        self.wrap(training, "build_meta_dataset", "training.build_meta_dataset")
        self.wrap(training.MetaDataset, "trajectory", "training.MetaDataset.trajectory")
        self.wrap(training, "batch_loss", "training.batch_loss")
        self.wrap(training, "train", "training.train")
        self.wrap(engine, "backward", "engine.backward", before=_graph_profile)
        for op in ENGINE_OPS:
            self.wrap(engine, op, f"engine.{op}")
        self.wrap(model, "save_checkpoint", "model.save_checkpoint")
        self.wrap(model, "write_tensor_file", "model.write_tensor_file",
                  after=_file_bytes)
        self.wrap(model, "load_checkpoint", "model.load_checkpoint")
        self.wrap(model, "predict_sequence", "model.predict_sequence")
        self.wrap(baselines.GaussianFilter, "step", "baselines.GaussianFilter.step")
        self.wrap(baselines.OnlineARPredictor, "step",
                  "baselines.OnlineARPredictor.step")
        for fn in ("solve_linear", "quadrotor_step", "quadrotor_jacobian"):
            self.wrap(baselines, fn, f"baselines.{fn}")
        self.wrap(evaluation, "test_population", "evaluation.test_population")
        self.wrap(evaluation, "error_curve", "evaluation.error_curve", before=_kind)

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- output -------------------------------------------------------------

    def write(self, path, header: dict):
        """One JSON header line, then one line per span (times in seconds
        from the first span's start)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, **header}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": rec[ID], "parent": rec[PARENT],
                    "name": rec[NAME], "unit": rec[UNIT],
                    "start": round(rec[START] - t0, 9),
                    "end": round(rec[END] - t0, 9),
                    "attrs": rec[ATTRS]}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover (children of
    one span never overlap: the benchmark runs a single thread)."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _duration(recs):
    return sum(rec[END] - rec[START] for rec in recs)


def _within(recs, lo, hi):
    return [rec for rec in recs if rec[START] >= lo and rec[END] <= hi]


def _train_steps(by_name, spans):
    """Per-step time split over the windows between consecutive
    engine.backward ends; every window holds exactly one step's data,
    forward and backward plus the previous step's clipping, Adam update
    and checkpoint, so the window sum covers whole steps."""
    steps = 0
    split = defaultdict(float)

    # a save is model.save_checkpoint plus the optimizer-state file the
    # training loop writes next to it with model.write_tensor_file
    saves = list(by_name["model.save_checkpoint"])
    saves += [rec for rec in by_name["model.write_tensor_file"]
              if rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != "model.save_checkpoint"]
    for train in by_name["training.train"]:
        lo, hi = train[START], train[END]
        ends = sorted(rec[END] for rec in _within(by_name["engine.backward"], lo, hi))
        if len(ends) < 2:
            continue
        w_lo, w_hi = ends[0], ends[-1]
        steps += len(ends) - 1
        split["step"] += w_hi - w_lo
        split["data"] += _duration(_within(by_name["training.MetaDataset.trajectory"], w_lo, w_hi))
        split["fwd"] += _duration(_within(by_name["training.batch_loss"], w_lo, w_hi))
        split["bwd"] += _duration(_within(by_name["engine.backward"], w_lo, w_hi))
        split["ckpt"] += _duration(_within(saves, w_lo, w_hi))
    return steps, split, saves


def layer_metrics(spans, factor: float, overhead_ratio: float | None) -> dict:
    """name -> (value, unit) for every per-layer metric; a layer the
    workload never reaches reads 0. Durations are multiplied by the run's
    speed factor (see run.calibrate)."""
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)

    def secs(recs):
        return _duration(recs) * factor

    selfs = self_times(spans)
    units = {rec[UNIT] for rec in spans}
    n_setup = max(1, sum(1 for u in units if u and u.startswith("setup-")))
    n_pass = max(1, sum(1 for u in units if u and u.startswith("pass-")))
    setup = {name: [r for r in recs if r[UNIT] and r[UNIT].startswith("setup-")]
             for name, recs in by_name.items()}
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for name in ("linalg.spectral_radius", "distributions.sample_system",
                 "distributions.make_trajectory"):
        recs = setup.get(name, [])
        put(f"{name}.calls", len(recs) / n_setup, "count")
        put(f"{name}.s", secs(recs) / n_setup, "s")
    put("distributions.quad_resamples",
        sum(1 for r in setup.get("distributions.simulate", [])
            if (r[ATTRS] or {}).get("error") == "DivergenceError") / n_setup, "count")
    put("training.build_meta_dataset.s",
        secs(setup.get("training.build_meta_dataset", [])) / n_setup, "s")

    steps, split, saves = _train_steps(by_name, spans)
    per_step = 1e3 * factor / steps if steps else 0.0
    put("training.data.ms_per_step", split["data"] * per_step, "ms")
    traj = by_name["training.MetaDataset.trajectory"]
    misses = {r[PARENT] for r in by_name["distributions.make_trajectory"]}
    hits = sum(1 for r in traj if r[ID] not in misses)
    put("training.traj_cache_hit_ratio", hits / len(traj) if traj else 0.0, "ratio")
    put("training.fwd.ms_per_step", split["fwd"] * per_step, "ms")
    put("training.bwd.ms_per_step", split["bwd"] * per_step, "ms")
    put("training.self.ms_per_step",
        (split["step"] - split["data"] - split["fwd"] - split["bwd"] - split["ckpt"]) * per_step,
        "ms")
    n_saves = len(by_name["model.save_checkpoint"])
    put("training.ckpt.ms_per_save", 1e3 * secs(saves) / n_saves if n_saves else 0.0, "ms")
    put("training.ckpt.bytes",
        sum(r[ATTRS]["bytes"] for r in by_name["model.write_tensor_file"]) / n_saves
        if n_saves else 0.0, "B")

    tapes = [r[ATTRS] for r in by_name["engine.backward"]]
    n_tapes = len(tapes) or 1
    put("engine.tape.nodes_per_step", sum(t["nodes"] for t in tapes) / n_tapes, "count")
    put("engine.tape.bytes_per_step", sum(t["bytes"] for t in tapes) / n_tapes, "B")
    for op in TAPE_OPS:
        put(f"engine.nodes.{op}", sum(t["ops"].get(op, 0) for t in tapes) / n_tapes, "count")
    forwards = len(by_name["training.batch_loss"]) + len(by_name["model.predict_sequence"])
    for op in ENGINE_OPS:
        recs = by_name[f"engine.{op}"]
        put(f"engine.{op}.fwd_ms", 1e3 * secs(recs) / forwards if forwards else 0.0, "ms")

    pred = by_name["model.predict_sequence"]
    put("model.predict_sequence.ms", 1e3 * secs(pred) / len(pred) if pred else 0.0, "ms")
    loads = setup.get("model.load_checkpoint", [])
    put("model.load_checkpoint.ms", 1e3 * secs(loads) / n_setup, "ms")
    for short in COUNTED_BASELINES:
        recs = by_name[f"baselines.{short}"]
        put(f"baselines.{short}.calls", len(recs) / n_pass, "count")
        put(f"baselines.{short}.us", 1e6 * secs(recs) / len(recs) if recs else 0.0, "us")
    for kind in PREDICTOR_KINDS:
        own = factor * sum(selfs[r[ID]] for r in by_name["evaluation.error_curve"]
                           if r[ATTRS]["kind"] == kind)
        put(f"evaluation.error_curve.{kind}.self_s", own / n_pass, "s")
    if overhead_ratio is not None:       # None when every pass of a half failed
        put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
