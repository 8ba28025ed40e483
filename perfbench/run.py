"""moplab benchmark: meta-training and population scoring, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. A run sets up, runs one pass of user-visible
work, and repeats until `--seconds` have gone by (at least twice, so that
repeated runs of the same code can be compared bit for bit):

  train-linear    one fixed-step `training.train` run on linear-dense
  eval-linear     `evaluation.error_curve` for kf, ar-ols and mop on one population
  eval-quadrotor  `evaluation.error_curve` for ekf and mop on one population

`--trace 0` reports the end-to-end metrics. `--trace 1` runs half the time
untraced, then installs the timing wrappers of tracing.py for the other
half, and reports the per-layer metrics and the tracing overhead; the spans
go to perfbench/_out/. `env`, `samples`, `metric` and `check` lines come
first; the last line of standard output is the JSON result. A failed
correctness check exits with code 1. See README.md.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported: one caller, one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
HORIZON = 50                 # outputs per test trajectory
TRAIN_LEN = 50               # outputs per training trajectory
LATE = 10                    # late window: the last LATE steps of the horizon
# Reference tolerances at the default seed. They admit sampled A matrices
# moving by ~1e-5 relative (LAPACK in place of the hand-rolled linalg) and
# float32 rounding changes in the engine (fused ops), which training
# amplifies over the fixed-step run; a wrong gradient or filter moves the
# numbers by far more.
LOSS_RTOL = 1e-3
CURVE_RTOL = 1e-3
# Times of the two calibrate() kernels on the development VM when the host
# was quiet. Timings are reported in seconds at that host speed.
CALIBRATION_REF_S = {"interp": 1.8e-3, "array": 6.5e-3}

SIZES = {
    "full": {
        "train-linear": {"m_systems": 32, "steps": 8, "batch_size": 64},
        "eval-linear": {"n": 50},
        "eval-quadrotor": {"n": 100},
    },
    # only for the smoke test of the benchmark itself
    "tiny": {
        "train-linear": {"m_systems": 16, "steps": 8, "batch_size": 8},
        "eval-linear": {"n": 12},
        "eval-quadrotor": {"n": 12},
    },
}
WORKLOADS = ("train-linear", "eval-linear", "eval-quadrotor")
TRAIN_CONFIGS = 4
# the calibration kernel whose slowdown each predictor's timing follows
PREDICTOR_TIMING = {"kf": "interp", "ar-ols": "interp", "ekf": "interp", "mop": "array"}

_CAL_A = np.random.default_rng(1).standard_normal((3136, 64)).astype(np.float32)
_CAL_B = np.random.default_rng(2).standard_normal((64, 256)).astype(np.float32)


def calibrate() -> dict:
    """Seconds taken by two fixed kernels that do not use moplab.

    Other tenants of a shared host slow this process by up to 2x for
    seconds at a time, and slow interpreter-bound and array-bound code by
    different amounts. So there are two kernels: "interp", a Python loop
    over tiny arrays like the samplers and per-step predictors, and
    "array", float32 matmuls and elementwise ops on arrays the size of a
    training batch's activations (64 x 49 rows).
    The run calibrates before and after every set-up and pass; a timing of
    kind k is reported as t * CALIBRATION_REF_S[k] / (the run's median k
    time), i.e. in seconds at the speed of a quiet host.
    """
    t0 = time.perf_counter()
    x = np.ones(8)
    for _ in range(1500):
        x = x * 1.0000001 + 1e-9
        float(x[0])
    t1 = time.perf_counter()
    for _ in range(2):
        c = _CAL_A @ _CAL_B
        d = np.tanh(c) * c
        d.T @ _CAL_A
    return {"interp": t1 - t0, "array": time.perf_counter() - t1}


def import_moplab():
    """Import moplab from this checkout's src/, never from anywhere else."""
    if not (SRC / "moplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no moplab sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import moplab
    if Path(moplab.__file__).resolve().parent != SRC / "moplab":
        raise SystemExit(f"error: moplab imported from {moplab.__file__}, not {SRC}")
    return moplab


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "moplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
        "calibration_ref_s": CALIBRATION_REF_S,
    }


# ---------------------------------------------------------------------------
# workloads: run_pass() returns the pass's record, or None if it failed;
# the other methods receive the completed records and the run's speed
# factors (see calibrate)
# ---------------------------------------------------------------------------

class TrainLinear:
    """Meta-training on linear-dense with the desk model; a pass is one
    fixed-step `training.train` run with an intermediate checkpoint.

    Passes cycle through TRAIN_CONFIGS configs whose seeds derive from the
    workload seed: the step cost differs a little from one dataset and
    initialisation to the next, and a run should not hang on one of them.
    """

    def __init__(self, seed, size, workdir):
        from moplab import presets, training
        steps = size["steps"]
        self.cfgs = [training.TrainConfig(
            preset="linear-dense", m_systems=size["m_systems"], train_len=TRAIN_LEN,
            steps=steps, batch_size=size["batch_size"], seed=seed * TRAIN_CONFIGS + j,
            checkpoint_every=steps // 2, model=presets.desk_model_config("linear-dense"))
            for j in range(TRAIN_CONFIGS)]
        self.workdir = workdir
        self.window = max(1, steps // 2)      # loss-check window, in steps
        self.min_passes = 2 * TRAIN_CONFIGS   # every config runs twice
        self.next = 0                         # config of the next set-up and pass
        self.attempted = self.failed = 0

    def setup(self):
        from moplab import training
        cfg = self.cfgs[self.next]
        training.build_meta_dataset(cfg.preset, cfg.m_systems, cfg.train_len, cfg.seed)

    def run_pass(self):
        from moplab import training
        j = self.next
        self.next = (j + 1) % TRAIN_CONFIGS
        self.attempted += 1
        try:
            result = training.train(self.cfgs[j], self.workdir)
        except training.TrainingAborted as exc:
            print(f"# training aborted: {exc}")
            self.failed += 1
            return None
        clock = [row["wallclock_s"] for row in result.loss_rows]
        # step 0 has no start mark outside moplab
        return {"config": j, "step_s": np.diff(clock).tolist(),
                "loss": [row["loss"] for row in result.loss_rows]}

    def pass_seconds(self, rec, elapsed, speed):
        return elapsed * speed["array"]

    def metrics(self, passes, speed, emit):
        """Emit the workload's named metrics; return work_per_s."""
        factor = speed["array"]
        rates = [len(rec["step_s"]) / (sum(rec["step_s"]) * factor) for rec in passes]
        ms = 1e3 * factor * np.array([s for rec in passes for s in rec["step_s"]])
        p90 = float(np.percentile(ms, 90))
        emit("train.steps_per_s", statistics.median(rates), "1/s", len(rates))
        emit("train.step_ms.p50", float(np.percentile(ms, 50)), "ms", len(ms))
        emit("train.step_ms.p90", p90, "ms", len(ms), f"beyond={int(np.sum(ms > p90))}")
        finals = [np.mean(trace[-self.window:]) for trace in self.outputs(passes).values()]
        emit("train.loss_final", float(np.mean(finals)), "loss", len(finals))
        return statistics.median(rates)

    def outputs(self, passes):
        """The loss trace of each config, in config order."""
        traces = {}
        for rec in sorted(passes, key=lambda r: r["config"]):
            traces.setdefault(f"loss.{rec['config']}", rec["loss"])
        return traces

    def checks(self, passes, check):
        k = self.window
        traces = self.outputs(passes)
        for key, first in traces.items():
            check(np.isfinite(first).all(), f"{key}: train loss is finite")
            same = [rec["loss"] for rec in passes if f"loss.{rec['config']}" == key]
            check(all(loss == first for loss in same),
                  f"{key}: loss trace bit-identical across {len(same)} passes")
        # one 8-step run's loss is noisy; the mean over the configs is not
        first = np.mean([trace[:k] for trace in traces.values()])
        last = np.mean([trace[-k:] for trace in traces.values()])
        check(last < first, f"last-{k}-step mean loss {last:.5f} is below the first "
                            f"{first:.5f} (mean over {len(traces)} configs)")


class Eval:
    """Scoring one fresh test population with each predictor kind through
    `evaluation.error_curve`; MOP uses seeded initial weights written and
    read back through the checkpoint format."""

    def __init__(self, dist_name, kinds, seed, size, workdir):
        from moplab import distributions, model, presets
        self.dist = distributions.get_distribution(dist_name)
        self.kinds = kinds
        self.seed = seed
        self.n = size["n"]
        self.ckpt = workdir / "mop-init.ckpt"
        self.min_passes = 2
        self.attempted = self.failed = 0
        weights = model.init_weights(presets.desk_model_config(dist_name),
                                     np.random.default_rng([seed, 1]))
        model.save_checkpoint(weights, self.ckpt)

    def setup(self):
        from moplab import evaluation, model
        self.population = evaluation.test_population(self.dist, self.n, HORIZON, self.seed)
        self.weights = model.load_checkpoint(self.ckpt)

    def run_pass(self):
        from moplab import evaluation
        times, curves = {}, {}
        for kind in self.kinds:
            self.attempted += self.n
            t0 = time.perf_counter()
            try:
                curve = evaluation.error_curve(kind, self.dist, self.n, HORIZON, self.seed,
                                               weights=self.weights,
                                               population=self.population)
            except RuntimeError as exc:          # every system non-finite
                print(f"# {kind}: {exc}")
                self.failed += self.n
                return None
            times[kind] = time.perf_counter() - t0
            self.failed += len(curve.failed_systems)
            curves[kind] = curve
        return {"times": times, "curves": curves}

    def pass_seconds(self, rec, elapsed, speed):
        return sum(t * speed[PREDICTOR_TIMING[kind]] for kind, t in rec["times"].items())

    def metrics(self, passes, speed, emit):
        """Emit systems/s per predictor; return systems/s through the
        whole predictor set."""
        for kind in self.kinds:
            factor = speed[PREDICTOR_TIMING[kind]]
            rates = [self.n / (rec["times"][kind] * factor) for rec in passes]
            emit(f"eval.{kind}.systems_per_s", statistics.median(rates), "1/s", len(rates))
        return statistics.median(self.n / self.pass_seconds(rec, None, speed)
                                 for rec in passes)

    def outputs(self, passes):
        return {kind: c.mean.tolist() for kind, c in passes[0]["curves"].items()}

    def checks(self, passes, check):
        curves = passes[0]["curves"]
        ys = np.stack([traj.ys for traj in self.population[1]])
        zero = float(np.linalg.norm(ys, axis=-1)[:, -LATE:].mean())
        late = {kind: float(c.per_system[:, -LATE:].mean()) for kind, c in curves.items()}
        desc = ", ".join(f"{k} {v:.4f}" for k, v in late.items()) + f", zero {zero:.4f}"
        if "kf" in late:
            check(late["kf"] <= late["ar-ols"] <= zero,
                  f"late-window error kf <= ar-ols <= zero ({desc})")
        else:
            check(late["ekf"] < zero, f"late-window error ekf < zero ({desc})")
        first = {k: c.mean.tobytes() for k, c in curves.items()}
        check(all({k: c.mean.tobytes() for k, c in rec["curves"].items()} == first
                  for rec in passes),
              f"error curves bit-identical across {len(passes)} passes")


def make_workload(name, seed, size, workdir):
    if name == "train-linear":
        return TrainLinear(seed, size, workdir)
    if name == "eval-linear":
        return Eval("linear-dense", ("kf", "ar-ols", "mop"), seed, size, workdir)
    return Eval("quadrotor", ("ekf", "mop"), seed, size, workdir)


# ---------------------------------------------------------------------------
# measurement loop and reporting
# ---------------------------------------------------------------------------

def measure(work, seconds, tracer=None):
    """Closed loop with one caller: set up, run one pass, and repeat until
    `seconds` have gone by (at least work.min_passes times), calibrating between
    units. Returns one (phase, unit, seconds, record) row per set-up or
    pass, and the speed factor of each calibration kernel."""
    rows = []
    count = {"setup": 0, "pass": 0}
    cals = [calibrate()]
    deadline = time.perf_counter() + seconds
    while count["pass"] < work.min_passes or time.perf_counter() < deadline:
        for phase, fn in (("setup", work.setup), ("pass", work.run_pass)):
            unit = f"{phase}-{count[phase]}"
            count[phase] += 1
            t0 = time.perf_counter()
            if tracer is None:
                record = fn()
            else:
                tracer.unit = unit
                with tracer.span(phase):
                    record = fn()
            rows.append((phase, unit, time.perf_counter() - t0, record))
            cals.append(calibrate())
    return rows, {k: ref / statistics.median(c[k] for c in cals)
                  for k, ref in CALIBRATION_REF_S.items()}


def check_reference(outputs, workload, check):
    """At the default seed and shipped sizes, outputs match the committed
    reference within the stated tolerances."""
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(workload)
    check(ref is not None, f"reference for {workload} present in {REFERENCE.name}")
    for key, expected in (ref or {}).items():
        got = outputs.get(key)
        rtol = LOSS_RTOL if key.startswith("loss") else CURVE_RTOL
        dev = float("inf")
        if got is not None and len(got) == len(expected):
            dev = float(np.max(np.abs(np.subtract(got, expected)) / np.abs(expected)))
        check(dev <= rtol, f"{key} matches the seed-{DEFAULT_SEED} reference within rtol "
                           f"{rtol:g} (max relative deviation {dev:.2e})")


def update_reference(outputs, workload):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[workload] = outputs
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {workload} reference to {REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny is for the benchmark's own smoke test")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite this workload's entry in reference.json "
                             "(default seed, full size)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.update_reference and (args.seed != DEFAULT_SEED or args.size != "full"):
        parser.error("references are taken at the default seed and full size")

    import_moplab()
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    workdir = OUT_DIR / f"work-{run_id}"
    workdir.mkdir(parents=True)
    try:
        work = make_workload(args.workload, args.seed, SIZES[args.size][args.workload], workdir)
        if args.trace:
            plain, speed = measure(work, args.seconds / 2)
            tracer = tracing.Tracer(run_id)
            tracer.install()
            try:
                traced, traced_speed = measure(work, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            trace_path = OUT_DIR / f"trace-{run_id}.jsonl.gz"
            tracer.write(trace_path, {"env": env})
            print(f"trace {trace_path.relative_to(ROOT)} spans={len(tracer.spans)}")
        else:
            plain, speed = measure(work, args.seconds)
            traced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def raw(phase, rows_):
        return [t for p, _, t, _ in rows_ if p == phase]

    def pass_seconds(rows_, speed_):
        return [work.pass_seconds(rec, t, speed_) for p, _, t, rec in rows_
                if p == "pass" and rec is not None]

    # end-to-end numbers come from the untraced rows; the checks see every pass
    print("samples " + json.dumps({"speed": {k: round(v, 4) for k, v in speed.items()}, **{
        f"{phase}_s": [round(t, 6) for t in raw(phase, plain)] for phase in ("setup", "pass")}}))

    def emit(name, value, unit, n, extra=""):
        print(f"metric {name} {value:.6g} {unit} n={n} {extra}".rstrip())

    setups = raw("setup", plain)
    passes = [rec for p, _, _, rec in plain if p == "pass" and rec is not None]
    every_pass = passes + [rec for p, _, _, rec in traced if p == "pass" and rec is not None]
    # set-ups sample systems and roll trajectories: interpreter-bound
    values = {"setup_s": statistics.median(setups) * speed["interp"],
              "peak_rss_mb": peak_rss_mb}
    emit("setup_s", values["setup_s"], "s", len(setups))
    emit("peak_rss_mb", peak_rss_mb, "MB", 1)
    emit("failed_ratio", work.failed / max(work.attempted, 1), "ratio", work.attempted)

    failures = []

    def check(ok, what):
        print(f"check {'ok' if ok else 'FAILED'}: {what}")
        if not ok:
            failures.append(what)

    check(work.failed == 0, f"no failed systems or aborted training ({work.failed} "
                            f"of {work.attempted})")
    if passes:
        values["total_s"] = statistics.median(pass_seconds(plain, speed))
        emit("total_s", values["total_s"], "s", len(passes))
        values["work_per_s"] = work.metrics(passes, speed, emit)
        emit("work_per_s", values["work_per_s"], "1/s", len(passes))
        work.checks(every_pass, check)
        if args.update_reference:
            update_reference(work.outputs(passes), args.workload)
        elif args.seed == DEFAULT_SEED and args.size == "full":
            check_reference(work.outputs(passes), args.workload, check)

    if args.trace:
        traced_s, plain_s = pass_seconds(traced, traced_speed), pass_seconds(plain, speed)
        overhead = (statistics.median(traced_s) / statistics.median(plain_s) - 1.0
                    if traced_s and plain_s else None)
        mixed = sum(traced_speed[k] * ref for k, ref in CALIBRATION_REF_S.items()) / sum(
            CALIBRATION_REF_S.values())
        metrics = tracing.layer_metrics(tracer.spans, mixed, overhead)
        wanted = manifest["per_layer"]
    else:
        metrics = {name: (value, None) for name, value in values.items()}
        wanted = manifest["end_to_end"]
    result = {"correct": not failures, "attempted": work.attempted, "failed": work.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": metrics[m["name"]][1] or m["unit"]}
                          for m in wanted if m["name"] in metrics}}
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
