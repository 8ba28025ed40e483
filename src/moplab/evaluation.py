"""Evaluation harness: error-vs-time curves, predictor comparisons,
excess-risk estimates, the (M, T) scaling report, robustness probes, and
the hard-system diagnostics.

Test systems and trajectories live in a "test" seed namespace disjoint
from training draws. Every reported mean carries a standard error over the
test population, and per-system results are reduced in system-index order
so runs are deterministic. Each predictor scores the whole population in
one pass over time (see `predict_population`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .baselines import KalmanFilter, OnlineARPredictor, QuadrotorEKF, ZeroPredictor
from .distributions import Distribution, get_distribution
from .model import TransformerWeights
from .seeding import stream
from .systems import SwitchSpec, contraction_profile, simulate

__all__ = [
    "ErrorCurve", "RatioCurve", "RiskReport", "RobustnessReport", "PowerStudy",
    "make_predictor", "test_population", "predict_population", "error_curve",
    "compare_predictors", "window_stats", "empirical_excess_risk",
    "scaling_report", "robustness_probe", "matrix_power_study",
    "curves_to_csv_rows", "spearman", "kendall_tau",
]

RATIO_GUARD = 1e-12
# Systems per MOP forward. The eager forward peaks at about 0.34 MB of
# activations per system at horizon 50; chunks of 16 bound that to ~5.4 MB
# and ran faster than one population-wide forward (about 90 vs 114 ms for
# 100 quadrotor systems on a 2-core x86 VM, BLAS at one thread).
MOP_CHUNK = 16


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def make_predictor(kind: str, systems, dist: Distribution):
    """One step predictor for the whole population of `systems`."""
    if kind == "kf":
        sw, sv = dist.filter_noise_stds()
        return KalmanFilter(systems, sigma_w=sw, sigma_v=sv)
    if kind == "ekf":
        return QuadrotorEKF(systems)
    if kind == "ar-ols":
        return OnlineARPredictor(len(systems), dist.m)
    if kind == "zero":
        return ZeroPredictor(len(systems), dist.m)
    raise ValueError(f"unknown predictor kind {kind!r}")


# ---------------------------------------------------------------------------
# test population
# ---------------------------------------------------------------------------

def test_population(dist: Distribution, n, horizon, seed, switch_at=None):
    """Fresh (systems, trajs) from the test namespace; optionally a dynamics
    switch partway through each trajectory."""
    systems, trajs = [], []
    for i in range(n):
        system = dist.sample_system(seed, "test", i)
        switch = None
        if switch_at is not None:
            switch = SwitchSpec(switch_at, dist.sample_system(seed, "test-switch", i))
        systems.append(system)
        trajs.append(dist.make_trajectory(system, horizon, seed, "test", i,
                                          switch=switch))
    return systems, trajs


@dataclass
class ErrorCurve:
    preset: str
    predictor: str
    n_systems: int
    horizon: int
    seed: int
    mean: np.ndarray                   # per-t mean of ||yhat_t - y_t||
    stderr: np.ndarray
    per_system: np.ndarray             # (n_ok, horizon)
    failed_systems: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "preset": self.preset, "predictor": self.predictor,
            "n_systems": self.n_systems, "horizon": self.horizon,
            "seed": self.seed, "mean": self.mean.tolist(),
            "stderr": self.stderr.tolist(),
            "failed_systems": self.failed_systems,
        }


def predict_population(predictor_kind: str, systems, trajs, dist: Distribution,
                       weights: TransformerWeights | None = None) -> np.ndarray:
    """Predictions yhat_0..yhat_{T-1} for every system, shaped (N, T, m).

    yhat_0 is the prior mean (zero, since x_0 = 0). MOP predicts every later
    position with one causal forward per chunk of MOP_CHUNK systems; every
    other kind is one population-wide predictor stepped T-1 times.
    """
    ys = np.stack([t.ys for t in trajs])
    us = np.stack([t.us for t in trajs]) if trajs[0].us is not None else None
    preds = np.zeros(ys.shape)
    if predictor_kind == "mop":
        if weights is None:
            raise ValueError("mop predictor needs model weights")
        for lo in range(0, len(trajs), MOP_CHUNK):
            rows = slice(lo, lo + MOP_CHUNK)
            preds[rows, 1:] = model.predict_sequence(
                weights, ys[rows, :-1], us if us is None else us[rows, :-1])
        return preds
    predictor = make_predictor(predictor_kind, systems, dist)
    for t in range(ys.shape[1] - 1):
        preds[:, t + 1] = predictor.step(ys[:, t], us if us is None else us[:, t])
    return preds


def error_curve(predictor_kind: str, preset, n, horizon, seed,
                weights: TransformerWeights | None = None,
                population=None) -> ErrorCurve:
    """Per-timestep prediction-error statistics over n fresh test systems.

    `population` may carry a precomputed `test_population` (systems, trajs)
    pair so several predictors score identical data.
    """
    dist = preset if isinstance(preset, Distribution) else get_distribution(preset)
    if population is None:
        population = test_population(dist, n, horizon, seed)
    systems, trajs = population
    ys = np.stack([t.ys for t in trajs])
    preds = predict_population(predictor_kind, systems, trajs, dist, weights)
    errs = np.linalg.norm(preds - ys, axis=-1)

    ok = np.isfinite(errs).all(axis=1)
    good = errs[ok]
    if good.shape[0] == 0:
        raise RuntimeError("every test system produced non-finite predictions")
    mean = good.mean(axis=0)
    stderr = good.std(axis=0, ddof=1) / np.sqrt(good.shape[0]) if good.shape[0] > 1 \
        else np.zeros(horizon)
    return ErrorCurve(preset=dist.name, predictor=predictor_kind,
                      n_systems=int(good.shape[0]), horizon=horizon, seed=seed,
                      mean=mean, stderr=stderr, per_system=good,
                      failed_systems=np.flatnonzero(~ok).tolist())


def window_stats(curve: ErrorCurve, lo, hi):
    """Mean/stderr of the per-system average error over time window
    [lo, hi] (inclusive, clipped to the horizon)."""
    lo = max(0, lo)
    hi = min(curve.horizon - 1, hi)
    if hi < lo:
        raise ValueError("empty window")
    per_system = curve.per_system[:, lo:hi + 1].mean(axis=1)
    mean = float(per_system.mean())
    stderr = float(per_system.std(ddof=1) / np.sqrt(len(per_system))) \
        if len(per_system) > 1 else 0.0
    return mean, stderr


@dataclass
class RatioCurve:
    preset: str
    numerator: str
    denominator: str
    ratio: np.ndarray                  # per-t mean_num / mean_den
    undefined: np.ndarray              # bool mask where the guard tripped
    early: dict
    late: dict

    def to_json(self) -> dict:
        return {
            "preset": self.preset, "numerator": self.numerator,
            "denominator": self.denominator,
            "ratio": [None if u else float(r)
                      for r, u in zip(self.ratio, self.undefined)],
            "early": self.early, "late": self.late,
        }


def compare_predictors(curve_a: ErrorCurve, curve_b: ErrorCurve) -> RatioCurve:
    """Per-timestep error ratio A/B plus early/late window summaries."""
    for f in ("preset", "horizon", "seed"):
        if getattr(curve_a, f) != getattr(curve_b, f):
            raise ValueError(f"curves disagree on {f}")
    undefined = curve_b.mean < RATIO_GUARD
    ratio = np.where(undefined, np.nan, curve_a.mean / np.maximum(curve_b.mean, RATIO_GUARD))
    t = curve_a.horizon

    def window(lo, hi):
        ma, sa = window_stats(curve_a, lo, hi)
        mb, sb = window_stats(curve_b, lo, hi)
        return {"lo": lo, "hi": hi, "mean_num": ma, "stderr_num": sa,
                "mean_den": mb, "stderr_den": sb,
                "ratio": ma / mb if mb > RATIO_GUARD else None}

    return RatioCurve(preset=curve_a.preset, numerator=curve_a.predictor,
                      denominator=curve_b.predictor, ratio=ratio,
                      undefined=undefined,
                      early=window(2, 10), late=window(t - 10, t))


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

@dataclass
class RiskReport:
    preset: str
    baseline: str
    n_systems: int
    horizon: int
    seed: int
    risk_model: float                  # empirical risk of the transformer
    risk_baseline: float               # same formula on the filter
    delta: float                       # excess-risk proxy
    stderr: float                      # stderr of the paired per-system delta
    per_system_delta: np.ndarray


def empirical_excess_risk(weights: TransformerWeights, preset, n, horizon,
                          seed, baseline=None, population=None) -> RiskReport:
    """Excess-risk proxy: empirical risk of the model minus that of the
    model-aware filter on the same fresh systems. For linear-Gaussian
    presets the filter is Bayes-optimal, making the proxy an upper bound on
    the true excess risk up to estimation noise.
    """
    dist = preset if isinstance(preset, Distribution) else get_distribution(preset)
    if baseline is None:
        baseline = "ekf" if dist.kind == "quadrotor" else "kf"
    if baseline not in ("kf", "ekf"):
        raise ValueError("excess risk needs a model-aware baseline (kf or ekf)")
    if population is None:
        population = test_population(dist, n, horizon, seed)
    curves = [error_curve(kind, dist, n, horizon, seed, weights=weights,
                          population=population) for kind in ("mop", baseline)]
    for curve in curves:
        if curve.failed_systems:
            raise RuntimeError(f"{curve.predictor} failed on test systems "
                               f"{curve.failed_systems}; the risks cannot be paired")
    # empirical risk: mean over the predicted positions 1..T-1 of the error
    model_risk, base_risk = (c.per_system[:, 1:].mean(axis=1) for c in curves)
    delta = model_risk - base_risk
    n = len(delta)                     # a passed population sets the count
    stderr = float(delta.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return RiskReport(preset=dist.name, baseline=baseline, n_systems=n,
                      horizon=horizon, seed=seed,
                      risk_model=float(model_risk.mean()),
                      risk_baseline=float(base_risk.mean()),
                      delta=float(delta.mean()), stderr=stderr,
                      per_system_delta=delta)


# ---------------------------------------------------------------------------
# scaling in (M, T)
# ---------------------------------------------------------------------------

def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks on ties)."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def kendall_tau(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    conc = disc = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            s = np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
            conc += s > 0
            disc += s < 0
    total = len(x) * (len(x) - 1) / 2
    return float((conc - disc) / total) if total else 0.0


def fit_loglog_slope(mt, delta) -> float | None:
    mt = np.asarray(mt, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    keep = delta > 0
    if keep.sum() < 2:
        return None
    coef = np.polyfit(np.log(mt[keep]), np.log(delta[keep]), 1)
    return float(coef[0])


def scaling_report(preset: str, cells) -> dict:
    """The (M, T^tr) cells (dicts: m_systems, train_len, mt, delta, stderr,
    flagged) with the Spearman statistic and log-log slope of the excess-risk
    proxy delta against M*T, over the cells whose training did not abort."""
    good = [c for c in cells if c["flagged"] is None]
    mt, delta = [c["mt"] for c in good], [c["delta"] for c in good]
    return {"preset": preset, "cells": cells,
            "spearman_delta_vs_mt": spearman(mt, delta) if len(good) >= 2 else 0.0,
            "loglog_slope": fit_loglog_slope(mt, delta)}


# ---------------------------------------------------------------------------
# robustness probe (single-time noise replacement)
# ---------------------------------------------------------------------------

@dataclass
class RobustnessReport:
    preset: str
    n_systems: int
    perturb_scale: float
    mc_draws: int
    taus: list
    t_eval: int
    khat_max: float
    khat_median: float
    abs_dloss_by_gap: list             # dicts: gap, mean_abs_dloss
    kendall_tau_abs_dloss_vs_gap: float
    cells: list                        # dicts: t, tau, khat, abs_dloss (means)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("preset", "n_systems", "perturb_scale", "mc_draws", "taus",
                 "t_eval", "khat_max", "khat_median", "abs_dloss_by_gap",
                 "kendall_tau_abs_dloss_vs_gap", "cells")}


def robustness_probe(weights: TransformerWeights, preset, n_systems=8,
                     t_eval=45, taus=(5, 15, 25, 35, 44), perturb_scale=1.0,
                     mc_draws=256, seed=0) -> RobustnessReport:
    """Estimate the prompt-perturbation constant: replace the noise pair at
    one time tau, roll the paired trajectory, and measure how much the
    expected next-step loss moves, per unit of accumulated output
    difference. The expectation over the next noise pair uses mc_draws
    Monte-Carlo samples shared by both branches.
    """
    dist = preset if isinstance(preset, Distribution) else get_distribution(preset)
    if dist.kind != "linear" or dist.noise.kind != "iid":
        raise ValueError("the robustness probe targets the i.i.d. linear preset")
    taus = [int(tau) for tau in taus]
    if any(tau >= t_eval for tau in taus):
        raise ValueError("every tau must precede t_eval")
    horizon = t_eval + 1

    khat = np.zeros((len(taus), n_systems))
    adl = np.zeros((len(taus), n_systems))
    for i in range(n_systems):
        system = dist.sample_system(seed, "probe", i)
        traj = simulate(system, horizon, rng=stream(seed, dist.name, "probe-noise", i),
                        record_states=True)
        # row 0: the base outputs; row 1 + j: the noise pair (dw, dv) at taus[j]
        # replaced, which by linearity adds C A^(t - tau) dw at t >= tau, dv at tau
        prompts = np.repeat(traj.ys[None], 1 + len(taus), axis=0)
        for j, tau in enumerate(taus):
            prng = stream(seed, dist.name, "probe-perturb", i, tau)
            dx = perturb_scale * prng.standard_normal(system.n)
            dv = perturb_scale * prng.standard_normal(system.m)
            for t in range(tau, horizon):
                prompts[1 + j, t] += system.c @ dx
                dx = system.a @ dx
            prompts[1 + j, tau] += dv
        preds = model.predict_sequence(weights, prompts)[:, -1]

        mc = stream(seed, dist.name, "probe-mc", i)
        wk = system.sigma_w * mc.standard_normal((mc_draws, system.n))
        vk = system.sigma_v * mc.standard_normal((mc_draws, system.m))
        # target draws from the unperturbed state, shared across branches
        y_next = (system.a @ traj.xs[t_eval] + wk) @ system.c.T + vk
        base_loss = np.linalg.norm(y_next - preds[0], axis=1)
        for j, tau in enumerate(taus):
            dloss = base_loss - np.linalg.norm(y_next - preds[1 + j], axis=1)
            exp_dloss = abs(float(dloss.mean()))
            denom = float(np.linalg.norm(prompts[1 + j, tau:] - prompts[0, tau:],
                                         axis=1).sum())
            adl[j, i] = exp_dloss
            khat[j, i] = 0.0 if denom == 0.0 else (t_eval - tau) * exp_dloss / denom

    gaps = [t_eval - tau for tau in taus]
    mean_adl = adl.mean(axis=1)
    cells = [{"t": t_eval, "tau": tau, "khat": float(khat[j].mean()),
              "abs_dloss": float(mean_adl[j])} for j, tau in enumerate(taus)]
    by_gap = sorted(
        ({"gap": g, "mean_abs_dloss": float(m)} for g, m in zip(gaps, mean_adl)),
        key=lambda r: r["gap"])
    tau_stat = kendall_tau([r["gap"] for r in by_gap],
                           [r["mean_abs_dloss"] for r in by_gap])
    return RobustnessReport(
        preset=dist.name, n_systems=n_systems, perturb_scale=perturb_scale,
        mc_draws=mc_draws, taus=list(taus), t_eval=t_eval,
        khat_max=float(khat.max()), khat_median=float(np.median(khat)),
        abs_dloss_by_gap=by_gap, kendall_tau_abs_dloss_vs_gap=tau_stat,
        cells=cells)


# ---------------------------------------------------------------------------
# matrix-power study (mixing diagnostics)
# ---------------------------------------------------------------------------

@dataclass
class PowerStudy:
    mode: str
    count: int
    t_max: int
    mean_norms: np.ndarray             # per-t mean of ||A^t||
    overshoots: np.ndarray             # per-system max_t ||A^t|| / ||A^0||
    mean_overshoot: float
    stderr_overshoot: float


def matrix_power_study(mode, count, t_max, seed) -> PowerStudy:
    name = {"dense": "linear-dense", "upper_triangular": "linear-triangular"}[mode]
    dist = get_distribution(name)
    norms = np.zeros((count, t_max + 1))
    for i in range(count):
        system = dist.sample_system(seed, "powers", i)
        norms[i] = contraction_profile(system, t_max).norms
    overshoots = norms.max(axis=1) / norms[:, 0]
    return PowerStudy(mode=mode, count=count, t_max=t_max,
                      mean_norms=norms.mean(axis=0), overshoots=overshoots,
                      mean_overshoot=float(overshoots.mean()),
                      stderr_overshoot=float(overshoots.std(ddof=1) / np.sqrt(count)))


# ---------------------------------------------------------------------------
# tabular output
# ---------------------------------------------------------------------------

def curves_to_csv_rows(experiment, curves) -> list[dict]:
    """One row per (predictor, t): the plotting/reporting schema."""
    rows = []
    for curve in curves:
        for t in range(curve.horizon):
            rows.append({
                "experiment": experiment,
                "preset": curve.preset,
                "predictor": curve.predictor,
                "t": t,
                "mean_err": float(curve.mean[t]),
                "stderr": float(curve.stderr[t]),
                "n_systems": curve.n_systems,
                "seed": curve.seed,
            })
    return rows
