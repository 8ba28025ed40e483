"""Evaluation harness: error-vs-time curves, predictor comparisons,
excess-risk estimates, the (M, T) scaling report, and the paper's two
explanations of its curves.

Test systems and trajectories live in a "test" seed namespace disjoint
from training draws. Every reported mean carries a standard error over the
test population, and per-system results are reduced in system-index order
so runs are deterministic. Each predictor scores the whole population in
one pass over time (see `predict_population`).

Row i of an `ErrorCurve` is test system i, which failed when its row is
not all finite. A curve's mean covers the systems it kept; a ratio, its
windows and an excess risk pair two predictors over the systems both kept.

Two presets report a diagnostic in `eval/report.json` next to their ratio:
- hard-triangular, under "max_power_norm": `power_norm_report`, the mean
  and stderr of max_{t<H} ||A^t||_2 over its test systems and over the
  linear-dense systems drawn at the same seed. Upper-triangular systems
  grow ||A^t|| for a while before it decays, so they mix slowly.
- linear-iid, under "robustness": `robustness_probe` at horizon H, the
  prompt-perturbation constant khat behind the excess-risk guarantee and
  the mean |delta loss| by gap.
H is the preset's eval horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, model
from .baselines import KalmanFilter, OnlineARPredictor, QuadrotorEKF
from .distributions import Distribution, get_distribution
from .model import TransformerWeights
from .seeding import stream
from .systems import SwitchSpec, simulate, stack_quadrotors

__all__ = [
    "ErrorCurve",
    "check_predictor", "make_predictor", "test_population", "predict_population", "error_curve",
    "compare_predictors", "excess_risk",
    "scaling_report", "robustness_probe", "power_norm_report",
    "curves_to_csv_rows", "spearman",
]

RATIO_GUARD = 1e-12
# `robustness_probe`'s systems and its Monte-Carlo draws of the next noise pair.
PROBE_SYSTEMS = 8
PROBE_MC_DRAWS = 256
# Systems per eager MOP forward in `predict_population`. The desk forward
# peaks at about 0.24 MB per system at horizon 50 (tracemalloc). On a
# 2-core x86 VM with BLAS at one thread and perfbench's calibration kernel
# between passes, chunks of 16 scored 100 quadrotor systems in 73.5/76.8 ms
# against 80.1/84.6 ms in chunks of 8, and 50 linear systems in
# 32.9/39.6 ms against 34.1/43.3 ms.
SCORE_CHUNK = 16
# The predictor kinds that can score each system kind.
PREDICTORS = {"linear": ("mop", "kf", "ar-ols", "zero"),
              "quadrotor": ("mop", "ekf", "ar-ols", "zero")}


def _mean_stderr(x) -> tuple:
    """Mean over the first axis of x and its standard error (0 for one row);
    RuntimeError for no rows, as when every test system failed."""
    n = len(x)
    if n == 0:
        raise RuntimeError("no test system has finite predictions to average")
    stderr = x.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(x.shape[1:])
    return x.mean(axis=0), stderr


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def check_predictor(kind: str, dist: Distribution) -> None:
    """Raise ValueError unless predictor `kind` can score `dist`'s systems."""
    if kind not in PREDICTORS[dist.kind]:
        raise ValueError(f"predictor {kind!r} cannot score {dist.name} systems; "
                         f"valid: {', '.join(PREDICTORS[dist.kind])}")


def make_predictor(kind: str, systems, dist: Distribution):
    """One step predictor for the whole population of `systems`."""
    check_predictor(kind, dist)
    if kind in ("kf", "ekf"):
        # Q and R: each channel's stationary marginal variance, treated as
        # white. Over a noise window longer than 1 that is knowingly naive,
        # not the optimal filter: it is the paper's comparison.
        q = dist.noise_window * dist.sigma_w2 * np.eye(dist.n)
        r = dist.noise_window * dist.sigma_v2 * np.eye(dist.m)
        c = np.stack([s.c for s in systems])
        if kind == "kf":
            return KalmanFilter(np.stack([s.a for s in systems]), c, q, r)
        return QuadrotorEKF(stack_quadrotors(systems), c, q, r)
    if kind == "ar-ols":
        return OnlineARPredictor(len(systems), dist.m)
    raise ValueError(f"{kind!r} is no step predictor; predict_population scores it")


# ---------------------------------------------------------------------------
# test population
# ---------------------------------------------------------------------------

def test_population(dist: Distribution, n, horizon, seed, switch_at=None):
    """Fresh (systems, trajs) from the test namespace; optionally a dynamics
    switch partway through each trajectory."""
    # One index at a time, not one `sample_systems` stack. The stack is bit
    # for bit the same draw, but on a 2-vCPU x86 VM (BLAS at one thread,
    # 30 s eval-linear benchmark runs at seed 5, two per side) it cut the
    # set-up from 0.15 to 0.036 s, so a run fitted 318-322 passes instead
    # of 135-143. The benchmark keeps every pass's curves, so its
    # `peak_rss_mb` read +19.6% (64.3 -> 76.9 MB), past its 10% bound.
    # The stack waits until that memory stops growing with the passes.
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
    """Errors ||yhat_t - y_t|| of one predictor: row i of `per_system` is
    test system i, failed (and listed in `failed_systems`) when not all
    finite. `mean` and `stderr` over the `kept` rows, whose count is
    `n_systems`, are computed at construction."""
    preset: str
    predictor: str
    seed: int
    per_system: np.ndarray             # (n, horizon)
    kept: np.ndarray = field(init=False)
    mean: np.ndarray = field(init=False)
    stderr: np.ndarray = field(init=False)

    def __post_init__(self):
        self.kept = np.isfinite(self.per_system).all(axis=1)
        self.mean, self.stderr = _mean_stderr(self.per_system[self.kept])

    @property
    def failed_systems(self) -> list:
        return np.flatnonzero(~self.kept).tolist()

    @property
    def n_systems(self) -> int:
        return int(self.kept.sum())

    @property
    def horizon(self) -> int:
        return self.per_system.shape[1]


def predict_population(predictor_kind: str, systems, tokens, dist: Distribution,
                       weights: TransformerWeights | None = None) -> np.ndarray:
    """Predictions yhat_0..yhat_{T-1} for every system, shaped (N, T, m), from
    the systems' stacked `Trajectory.tokens` (N, T, token_dim).

    yhat_0 is the prior mean (zero, since x_0 = 0). "zero" predicts that
    mean at every position, the no-information floor. MOP predicts every
    later position with one causal forward per chunk of SCORE_CHUNK systems;
    every other kind is one population-wide predictor stepped T-1 times.
    """
    m = dist.m
    preds = np.zeros(tokens.shape[:-1] + (m,))
    if predictor_kind == "zero":
        return preds
    if predictor_kind == "mop":
        if weights is None:
            raise ValueError("mop predictor needs model weights")
        for lo in range(0, len(tokens), SCORE_CHUNK):
            preds[lo:lo + SCORE_CHUNK, 1:] = model.predict_sequence(
                weights, tokens[lo:lo + SCORE_CHUNK, :-1])
        return preds
    predictor = make_predictor(predictor_kind, systems, dist)
    for t in range(tokens.shape[1] - 1):
        preds[:, t + 1] = predictor.step(tokens[:, t, :m], tokens[:, t, m:])
    return preds


def error_curve(predictor_kind: str, dist: Distribution, n, horizon, seed,
                weights: TransformerWeights | None = None, *,
                population) -> ErrorCurve:
    """Per-timestep prediction-error statistics over a `test_population`
    (systems, trajs) pair, which several predictors share so they score
    identical data. It reads `predictor_kind`, `dist`, `weights` (mop's
    model), `population` and `seed`, which it records on the curve. It
    does not read `n` or `horizon`: the curve takes its system count and
    horizon from the population's trajectories. The two stay in the
    signature because the benchmark harness passes them positionally.
    Raises RuntimeError when every system fails.
    """
    systems, trajs = population
    tokens = np.stack([t.tokens for t in trajs])
    preds = predict_population(predictor_kind, systems, tokens, dist, weights)
    errs = np.linalg.norm(preds - tokens[..., :dist.m], axis=-1)
    return ErrorCurve(dist.name, predictor_kind, seed, errs)


def compare_predictors(curve_a: ErrorCurve, curve_b: ErrorCurve) -> dict:
    """Report of the per-timestep error ratio A/B, None where B's mean error
    is below RATIO_GUARD, plus early and late windows: the mean and stderr
    of each system's average error over steps [lo, hi] clipped to the
    horizon (None when clipped empty: the early one below 3 steps). All are
    taken over the test systems both curves kept; RuntimeError if none."""
    for f in ("preset", "horizon", "seed"):
        if getattr(curve_a, f) != getattr(curve_b, f):
            raise ValueError(f"curves disagree on {f}")
    both = curve_a.kept & curve_b.kept
    errs = [c.per_system[both] for c in (curve_a, curve_b)]
    t = curve_a.horizon

    def window(lo, hi):
        lo, hi = max(0, lo), min(t - 1, hi)
        if lo > hi:
            return None
        (ma, sa), (mb, sb) = (map(float, _mean_stderr(e[:, lo:hi + 1].mean(axis=1)))
                              for e in errs)
        return {"lo": lo, "hi": hi, "mean_num": ma, "stderr_num": sa,
                "mean_den": mb, "stderr_den": sb,
                "ratio": ma / mb if mb > RATIO_GUARD else None}

    mean_a, mean_b = (_mean_stderr(e)[0] for e in errs)
    return {"preset": curve_a.preset, "numerator": curve_a.predictor,
            "denominator": curve_b.predictor,
            "ratio": [None if b < RATIO_GUARD else float(a / b)
                      for a, b in zip(mean_a, mean_b)],
            "early": window(2, 10), "late": window(t - 10, t)}


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

def excess_risk(model_curve: ErrorCurve, filter_curve: ErrorCurve) -> dict:
    """Excess-risk proxy: empirical risk of the model minus that of the
    model-aware filter, from their curves on the same test population. For
    linear-Gaussian presets the filter is Bayes-optimal, making the proxy an
    upper bound on the true excess risk up to estimation noise.

    Both risks are taken over the test systems both curves kept
    (RuntimeError if none). Returns the filter's name, both risks, those
    systems' deltas in system order and their mean `delta` with its
    `stderr`.
    """
    both = model_curve.kept & filter_curve.kept
    # empirical risk: mean over the predicted positions 1..T-1 of the error
    model_risk, base_risk = (c.per_system[both, 1:].mean(axis=1)
                             for c in (model_curve, filter_curve))
    delta = model_risk - base_risk
    mean_delta, stderr = _mean_stderr(delta)
    return {"baseline": filter_curve.predictor, "risk_model": float(model_risk.mean()),
            "risk_baseline": float(base_risk.mean()), "delta": float(mean_delta),
            "stderr": float(stderr), "per_system_delta": delta}


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
    proxy delta against M*T, over the cells whose training did not abort;
    each is None where it is undefined (the statistic below two cells)."""
    good = [c for c in cells if c["flagged"] is None]
    mt, delta = [c["mt"] for c in good], [c["delta"] for c in good]
    return {"preset": preset, "cells": cells,
            "spearman_delta_vs_mt": spearman(mt, delta) if len(good) >= 2 else None,
            "loglog_slope": fit_loglog_slope(mt, delta)}


# ---------------------------------------------------------------------------
# the paper's diagnostics: robustness probe and matrix-power norms
# ---------------------------------------------------------------------------

def robustness_probe(weights: TransformerWeights, dist: Distribution, horizon=50,
                     seed=0) -> dict:
    """Estimate the prompt-perturbation constant on PROBE_SYSTEMS systems:
    replace the noise pair at one time tau, roll the paired trajectory, and
    measure how much the expected next-step loss moves at t_eval, per unit
    of accumulated output difference. The expectation over the next noise
    pair uses PROBE_MC_DRAWS Monte-Carlo samples shared by both branches.

    For an eval horizon H, t_eval is H - 5 and the taus run every 10 steps
    from 5, plus t_eval - 1 (45 and 5, 15, 25, 35, 44 at H = 50).
    """
    if dist.kind != "linear" or dist.noise_window != 1:
        raise ValueError("the robustness probe targets the i.i.d. linear preset")
    if horizon < 6:
        raise ValueError("the robustness probe needs a horizon of at least 6")
    t_eval = horizon - 5
    taus = [*range(5, t_eval - 1, 10), t_eval - 1]

    sigma_w, sigma_v = dist.noise_stds
    khat = np.zeros((len(taus), PROBE_SYSTEMS))
    adl = np.zeros((len(taus), PROBE_SYSTEMS))
    for i in range(PROBE_SYSTEMS):
        system = dist.sample_system(seed, "probe", i)
        traj = simulate(system, t_eval + 1, stream(seed, dist.name, "probe-noise", i),
                        dist.noise_stds)
        # row 0: the base outputs; row 1 + j: the noise pair (dw, dv) at taus[j]
        # replaced, which by linearity adds C A^(t - tau) dw at t >= tau, dv at tau
        prompts = np.repeat(traj.ys[None], 1 + len(taus), axis=0)
        for j, tau in enumerate(taus):
            prng = stream(seed, dist.name, "probe-perturb", i, tau)
            dx = prng.standard_normal(system.n)
            dv = prng.standard_normal(system.m)
            for t in range(tau, t_eval + 1):
                prompts[1 + j, t] += system.c @ dx
                dx = system.a @ dx
            prompts[1 + j, tau] += dv
        preds = model.predict_sequence(weights, prompts)[:, -1]

        mc = stream(seed, dist.name, "probe-mc", i)
        wk = sigma_w * mc.standard_normal((PROBE_MC_DRAWS, system.n))
        vk = sigma_v * mc.standard_normal((PROBE_MC_DRAWS, system.m))
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
    return {"n_systems": PROBE_SYSTEMS, "perturb_scale": 1.0,
            "mc_draws": PROBE_MC_DRAWS, "t_eval": t_eval, "taus": taus,
            "khat_max": float(khat.max()), "khat_median": float(np.median(khat)),
            "khat_by_tau": khat.mean(axis=1).tolist(),
            "abs_dloss_by_gap": [{"gap": g, "mean_abs_dloss": float(m)}
                                 for g, m in sorted(zip(gaps, mean_adl))],
            "spearman_abs_dloss_vs_gap": spearman(gaps, mean_adl)}


def power_norm_report(dist: Distribution, n, horizon, seed) -> dict:
    """max_{t<horizon} ||A^t||_2 over the n test systems of `dist` and over
    the n linear-dense test systems at the same seed: its mean and stderr
    per distribution, keyed by the distribution's name."""
    report = {"t_max": horizon - 1}
    for d in (dist, get_distribution("linear-dense")):
        peaks = np.array([linalg.matrix_power_norms(system.a, horizon - 1).max()
                          for system in d.sample_systems(seed, "test", range(n))])
        mean, stderr = _mean_stderr(peaks)
        report[d.name] = {"n_systems": n, "mean": float(mean), "stderr": float(stderr)}
    return report


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
