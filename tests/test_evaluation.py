"""The population scoring path: batched predictors against single-system
oracles, the steady-state Riccati gain, failure isolation per system, the
end-to-end plumbing of `error_curve`, the (M, T) scaling statistics, and
the paper's two diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moplab import evaluation, linalg, model
from moplab.baselines import KalmanFilter
from moplab.distributions import get_distribution
from moplab.model import ModelConfig
from moplab.seeding import stream
from moplab.systems import (
    Trajectory, quadrotor_jacobian, quadrotor_step, stack_quadrotors,
)
from test_baselines import batch_ridge_oracle

N_SYSTEMS = 20
HORIZON = 50
LINEAR = get_distribution("linear-dense")
QUAD = get_distribution("quadrotor")
TINY_MODEL = ModelConfig(layers=2, heads=2, embed_dim=16, context=64,
                         token_dim=5, output_dim=5, precision="f64")


def population(dist, n=N_SYSTEMS, seed=4):
    return evaluation.test_population(dist, n, HORIZON, seed)


def stacked_tokens(trajs):
    return np.stack([t.tokens for t in trajs])


def scalar_gaussian_filter(propagate, jacobian, c, q, r, ys, us=None):
    """Oracle: the textbook time-varying Kalman recursion for one system,
    step by step with plain 2-D matrices, from x_hat = 0, P = 0. Returns
    the predictions yhat_0..yhat_{T-1} (yhat_0 is the prior mean)."""
    n, m = c.shape[1], c.shape[0]
    x_hat, p = np.zeros(n), np.zeros((n, n))
    preds = np.zeros(ys.shape)
    for t in range(len(ys) - 1):
        u = None if us is None else us[t]
        cp = c @ p
        k = np.linalg.solve(cp @ c.T + r * np.eye(m), cp).T
        x_post = x_hat + k @ (ys[t] - c @ x_hat)
        p_post = (np.eye(n) - k @ c) @ p
        f = jacobian(x_post, u)
        x_hat = propagate(x_post, u)
        p = f @ p_post @ f.T + q * np.eye(n)
        p = 0.5 * (p + p.T)
        preds[t + 1] = c @ x_hat
    return preds


def test_batched_kf_matches_scalar_recursion():
    systems, trajs = population(LINEAR)
    preds = evaluation.predict_population("kf", systems, stacked_tokens(trajs), LINEAR)
    q, r = LINEAR.sigma_w2, LINEAR.sigma_v2
    worst = 0.0
    for i, (system, traj) in enumerate(zip(systems, trajs)):
        a = system.a
        oracle = scalar_gaussian_filter(lambda x, u: a @ x, lambda x, u: a,
                                        system.c, q, r, traj.ys)
        worst = max(worst, np.abs(preds[i] - oracle).max())
    assert worst <= 1e-12


def test_batched_ekf_matches_scalar_recursion():
    systems, trajs = population(QUAD)
    preds = evaluation.predict_population("ekf", systems, stacked_tokens(trajs), QUAD)
    worst = 0.0
    for i, (system, traj) in enumerate(zip(systems, trajs)):
        oracle = scalar_gaussian_filter(
            lambda x, u: quadrotor_step(x, u, np.zeros(6), system),
            lambda x, u: quadrotor_jacobian(x),
            system.c, QUAD.sigma_w2, QUAD.sigma_v2, traj.ys, traj.us)
        worst = max(worst, np.abs(preds[i] - oracle).max())
    assert worst <= 1e-12


def test_batched_quadrotor_dynamics_match_per_system_calls():
    systems = [QUAD.sample_system(5, "dyn", i) for i in range(6)]
    rng = stream(6, "dyn")
    x, u, w = rng.uniform(-1, 1, (6, 6)), rng.uniform(0, 2, (6, 2)), rng.standard_normal((6, 6))
    params = stack_quadrotors(systems)
    step = quadrotor_step(x, u, w, params)
    jac = quadrotor_jacobian(x)
    assert step.shape == (6, 6) and jac.shape == (6, 6, 6)
    for i, system in enumerate(systems):
        assert np.abs(step[i] - quadrotor_step(x[i], u[i], w[i], system)).max() <= 1e-15
        assert np.abs(jac[i] - quadrotor_jacobian(x[i])).max() <= 1e-15


def test_batched_ar_ols_matches_batch_ridge_oracle():
    systems, trajs = population(LINEAR)
    preds = evaluation.predict_population("ar-ols", systems, stacked_tokens(trajs), LINEAR)
    worst = 0.0
    for i, traj in enumerate(trajs):
        ys = traj.ys
        assert np.array_equal(preds[i, 1:3], ys[:2])      # last-output fallback
        for t in range(2, HORIZON - 1):
            coef = batch_ridge_oracle(ys[: t + 1])
            oracle = coef.T @ np.concatenate([ys[t], ys[t - 1]])
            worst = max(worst, np.abs(preds[i, t + 1] - oracle).max()
                        / np.abs(oracle).max())
    assert worst <= 1e-8


def test_chunked_mop_forward_matches_one_population_forward():
    weights = model.init_weights(TINY_MODEL, stream(12, "chunk"))
    systems, trajs = population(LINEAR)
    assert N_SYSTEMS > evaluation.SCORE_CHUNK       # more than one chunk
    tokens = stacked_tokens(trajs)
    preds = evaluation.predict_population("mop", systems, tokens, LINEAR, weights)
    whole = model.predict_sequence(weights, tokens[:, :-1])
    assert np.array_equal(preds[:, 0], np.zeros((N_SYSTEMS, LINEAR.m)))
    assert np.abs(preds[:, 1:] - whole).max() <= 1e-12


def stacked_kf(systems, q, r):
    return KalmanFilter(np.stack([s.a for s in systems]), np.stack([s.c for s in systems]),
                        q, r)


def test_late_kf_gain_matches_discrete_riccati_solution():
    systems = [LINEAR.sample_system(7, "dare", i) for i in range(5)]
    q, r = LINEAR.sigma_w2 * np.eye(LINEAR.n), LINEAR.sigma_v2 * np.eye(LINEAR.m)
    kf = stacked_kf(systems, q, r)
    zeros = np.zeros((len(systems), LINEAR.m))
    for _ in range(600):              # the covariance recursion ignores the data
        kf.step(zeros)
    for i, system in enumerate(systems):
        a, c = system.a, system.c
        p = scipy.linalg.solve_discrete_are(a.T, c.T, q, r)
        gain = p @ c.T @ np.linalg.inv(c @ p @ c.T + r)
        p_kf = kf.p[i]
        gain_kf = p_kf @ c.T @ np.linalg.inv(c @ p_kf @ c.T + r)
        assert np.abs(p_kf - p).max() <= 1e-9 * np.abs(p).max()
        assert np.abs(gain_kf - gain).max() <= 1e-9 * np.abs(gain).max()


@pytest.fixture(scope="module", params=["linear-triangular", "linear-dense"])
def kf_population(request):
    """1000 test systems at horizon 50, seed 10000, and their stacked
    tokens: a linear-triangular population of 100 read 0.949 +- 0.015 on
    the check below, so it needs about 1000. The systems are drawn as one
    `sample_systems` stack and rolled one by one, as `test_population` rolls
    them: one at a time, 1000 linear-dense systems took 3.9 s to sample."""
    dist = get_distribution(request.param)
    systems = dist.sample_systems(10000, "test", range(1000))
    trajs = [dist.make_trajectory(system, HORIZON, 10000, "test", i)
             for i, system in enumerate(systems)]
    return dist, systems, stacked_tokens(trajs)


def test_kf_population_begins_with_the_test_population(kf_population):
    dist, systems, tokens = kf_population
    ref_systems, ref_trajs = evaluation.test_population(dist, 20, HORIZON, 10000)
    for system, ref in zip(systems[:20], ref_systems, strict=True):
        assert np.array_equal(system.a, ref.a) and np.array_equal(system.c, ref.c)
    assert np.array_equal(tokens[:20], stacked_tokens(ref_trajs))


def innovation_ratios(systems, tokens, m, q, r):
    """Per system, sum_t ||y_t - yhat_t||^2 / sum_t tr S_t over t = 1..T-1,
    with S_t = C P C^T + R formed from the filter's P before it takes y_t."""
    kf = stacked_kf(systems, q, r)
    sq_err, trace_s = np.zeros(len(systems)), np.zeros(len(systems))
    pred = kf.step(tokens[:, 0, :m])
    for t in range(1, tokens.shape[1]):
        s = kf.c @ kf.p @ kf.c.swapaxes(-1, -2) + kf.r
        trace_s += np.trace(s, axis1=1, axis2=2)
        sq_err += np.sum(np.square(tokens[:, t, :m] - pred), axis=1)
        pred = kf.step(tokens[:, t, :m])
    return sq_err / trace_s


@pytest.mark.parametrize("w_factor, specified", [(1.0, True), (2.0, False)])
def test_kf_errors_match_its_innovation_covariance(kf_population, w_factor, specified):
    # an exactly specified KF has E||y_t - yhat_t||^2 = tr S_t for every
    # system, which checks the sampler, the simulator, the noise model and
    # the filter that scoring builds at once; one handed twice sigma_w
    # overstates S_t
    dist, systems, tokens = kf_population
    scored = evaluation.make_predictor("kf", systems, dist)
    ratios = innovation_ratios(systems, tokens, dist.m, w_factor ** 2 * scored.q, scored.r)
    mean = ratios.mean()
    stderr = ratios.std(ddof=1) / math.sqrt(len(ratios))
    assert (abs(mean - 1.0) <= 4.0 * stderr) == specified, (mean, stderr)


@pytest.mark.parametrize("kind", ["kf", "ar-ols", "mop", "ekf"])
def test_nan_trajectory_fails_only_its_own_row(kind):
    dist = QUAD if kind == "ekf" else LINEAR
    weights = model.init_weights(replace(TINY_MODEL, token_dim=dist.token_dim,
                                         output_dim=dist.m), stream(8, "nan"))
    systems, trajs = population(dist)
    bad = 7
    broken = list(trajs)
    ys = trajs[bad].ys.copy()
    ys[10] = np.nan
    broken[bad] = Trajectory(ys=ys, us=trajs[bad].us)
    clean = evaluation.error_curve(kind, dist, N_SYSTEMS, HORIZON, 4, weights=weights,
                                   population=(systems, trajs))
    curve = evaluation.error_curve(kind, dist, N_SYSTEMS, HORIZON, 4, weights=weights,
                                   population=(systems, broken))
    assert clean.failed_systems == []
    assert curve.failed_systems == [bad]
    keep = np.arange(N_SYSTEMS) != bad
    assert not np.isfinite(curve.per_system[bad]).all()
    assert np.array_equal(curve.per_system[keep], clean.per_system[keep])


class OraclePredictor:
    """Plumbing-test device: peeks at the trajectories and returns the true
    next outputs, so its error curve is exactly zero end to end."""

    def __init__(self, ys):
        self._ys = ys
        self._t = 0

    def step(self, y, u=None):
        assert np.array_equal(y, self._ys[:, self._t])
        self._t += 1
        return self._ys[:, self._t]


def test_oracle_predictor_scores_an_all_zero_curve(monkeypatch):
    systems, trajs = population(LINEAR, n=6)
    # y_0 = 0 exactly (no output noise at t = 0), so the prior-mean
    # prediction at t = 0 is exact too
    trajs = [Trajectory(ys=np.concatenate([np.zeros((1, LINEAR.m)), t.ys[1:]]))
             for t in trajs]
    ys = np.stack([t.ys for t in trajs])
    monkeypatch.setattr(evaluation, "make_predictor",
                        lambda kind, systems, dist: OraclePredictor(ys))
    curve = evaluation.error_curve("oracle", LINEAR, 6, HORIZON, 4,
                                   population=(systems, trajs))
    assert curve.failed_systems == []
    assert np.array_equal(curve.mean, np.zeros(HORIZON))
    assert np.array_equal(curve.per_system, np.zeros((6, HORIZON)))


class NaNRowPredictor:
    """Plumbing-test device: predicts the prior mean 0 for every system but
    `bad`, whose predictions are NaN, so that system fails."""

    def __init__(self, bad):
        self.bad = bad

    def step(self, y, u=None):
        pred = np.zeros(y.shape)
        pred[self.bad] = np.nan
        return pred


def test_compare_predictors_pairs_the_systems_both_curves_kept(monkeypatch):
    pop = population(LINEAR, n=6)
    bad = {"a": 1, "b": 4}
    monkeypatch.setattr(evaluation, "make_predictor",
                        lambda kind, systems, dist: NaNRowPredictor(bad[kind]))
    a, b = (evaluation.error_curve(kind, LINEAR, 6, HORIZON, 4, population=pop)
            for kind in "ab")
    assert (a.failed_systems, b.failed_systems) == ([1], [4])
    # the two predict alike on every system both kept: each ratio is exactly 1
    report = evaluation.compare_predictors(a, b)
    assert report["ratio"][1:] == [1.0] * (HORIZON - 1)
    for key in ("early", "late"):
        assert report[key]["mean_num"] == report[key]["mean_den"]
        assert report[key]["ratio"] == 1.0


def test_zero_predictor_curve_is_the_output_norm():
    systems, trajs = population(LINEAR, n=5)
    curve = evaluation.error_curve("zero", LINEAR, 5, HORIZON, 4,
                                   population=(systems, trajs))
    norms = np.linalg.norm(np.stack([t.ys for t in trajs]), axis=-1)
    assert np.array_equal(curve.per_system, norms)
    with pytest.raises(ValueError):
        evaluation.error_curve("nope", LINEAR, 5, HORIZON, 4,
                               population=(systems, trajs))


def test_excess_risk_pairs_the_mop_and_kf_curves():
    weights = model.init_weights(TINY_MODEL, stream(11, "risk"))
    pop = population(LINEAR, n=8)
    mop = evaluation.error_curve("mop", LINEAR, 8, HORIZON, 4, weights=weights,
                                 population=pop)
    kf = evaluation.error_curve("kf", LINEAR, 8, HORIZON, 4, population=pop)
    report = evaluation.excess_risk(mop, kf)
    risk_mop = mop.per_system[:, 1:].mean(axis=1)
    risk_kf = kf.per_system[:, 1:].mean(axis=1)
    assert report["baseline"] == "kf"
    assert report["risk_model"] == float(risk_mop.mean())
    assert report["risk_baseline"] == float(risk_kf.mean())
    assert np.array_equal(report["per_system_delta"], risk_mop - risk_kf)
    assert report["delta"] == float((risk_mop - risk_kf).mean())


def test_excess_risk_stderr_counts_the_paired_systems():
    # the report describes the population it is given: 6 systems
    weights = model.init_weights(TINY_MODEL, stream(12, "risk"))
    pop = population(LINEAR, n=6)
    report = evaluation.excess_risk(*(
        evaluation.error_curve(kind, LINEAR, 6, HORIZON, 4, weights=weights,
                               population=pop) for kind in ("mop", "kf")))
    delta = report["per_system_delta"]
    assert len(delta) == 6
    assert report["stderr"] == float(delta.std(ddof=1) / np.sqrt(6))


def test_error_curve_takes_its_horizon_from_the_population():
    pop = evaluation.test_population(LINEAR, 4, 12, 0)
    curve = evaluation.error_curve("kf", LINEAR, 4, 50, 0, population=pop)
    assert curve.horizon == 12 and curve.mean.shape == (12,)
    rows = evaluation.curves_to_csv_rows("short", [curve])
    assert [row["t"] for row in rows] == list(range(12))
    one = evaluation.error_curve("kf", LINEAR, 1, 50, 0,
                                 population=evaluation.test_population(LINEAR, 1, 12, 0))
    assert np.array_equal(one.stderr, np.zeros(12))


def curve_of(predictor, per_system):
    return evaluation.ErrorCurve("linear-dense", predictor, 4, per_system)


def window_oracle(errs, lo, hi):
    """Mean and stderr over the rows of errs of each row's mean over the
    steps lo..hi."""
    per_system = errs[:, lo:hi + 1].mean(axis=1)
    stderr = per_system.std(ddof=1) / np.sqrt(len(errs)) if len(errs) > 1 else 0.0
    return float(per_system.mean()), float(stderr)


@pytest.mark.parametrize("derived", ["n_systems", "horizon", "mean", "stderr",
                                     "failed_systems", "kept"])
def test_error_curve_does_not_take_what_it_derives(derived):
    with pytest.raises(TypeError):
        evaluation.ErrorCurve("linear-dense", "kf", 4, np.ones((3, 5)), **{derived: 1})


def test_curve_with_a_failed_system_derives_its_shape_and_statistics():
    systems, trajs = population(LINEAR, n=6)
    broken = list(trajs)
    ys = trajs[2].ys.copy()
    ys[5] = np.nan
    broken[2] = Trajectory(ys=ys)
    curve = evaluation.error_curve("kf", LINEAR, 6, HORIZON, 4,
                                   population=(systems, broken))
    assert curve.failed_systems == [2]
    assert curve.per_system.shape == (6, HORIZON)
    assert (curve.n_systems, curve.horizon) == (5, HORIZON)
    mean, stderr = evaluation._mean_stderr(curve.per_system[np.arange(6) != 2])
    assert curve.mean.tobytes() == mean.tobytes()
    assert curve.stderr.tobytes() == stderr.tobytes()


def test_compare_predictors_reports_ratios_and_windows(rng):
    num = curve_of("mop", rng.uniform(0.5, 2.0, (5, HORIZON)))
    den_errs = rng.uniform(0.5, 2.0, (5, HORIZON))
    den_errs[:, 0] = 0.0              # a step the baseline predicts exactly
    den = curve_of("kf", den_errs)
    report = evaluation.compare_predictors(num, den)
    assert report["numerator"] == "mop" and report["denominator"] == "kf"
    assert report["ratio"][0] is None
    assert report["ratio"][1:] == [float(a / b) for a, b in zip(num.mean[1:], den.mean[1:])]
    # the bounds stored are the steps averaged: the late window ends at the
    # curve's last step, HORIZON - 1
    for key, (lo, hi) in (("early", (2, 10)), ("late", (HORIZON - 10, HORIZON - 1))):
        (ma, sa), (mb, sb) = (window_oracle(c.per_system, lo, hi) for c in (num, den))
        assert report[key] == {"lo": lo, "hi": hi, "mean_num": ma, "stderr_num": sa,
                               "mean_den": mb, "stderr_den": sb, "ratio": ma / mb}
    with pytest.raises(ValueError, match="horizon"):
        evaluation.compare_predictors(num, curve_of("kf", den_errs[:, :20]))


@st.composite
def paired_errors(draw):
    """Two (n, H) error arrays over one population, each with random failed
    rows (an inf or NaN entry), and one system both keep."""
    n, horizon = draw(st.integers(1, 8)), draw(st.integers(2, 24))
    shared = draw(st.integers(0, n - 1))
    pair = []
    for _ in range(2):
        errs = draw(hnp.arrays(np.float64, (n, horizon), elements=st.floats(0.0, 10.0)))
        for i in range(n):
            if i != shared and draw(st.booleans()):
                errs[i, draw(st.integers(0, horizon - 1))] = draw(
                    st.sampled_from([np.inf, np.nan]))
        pair.append(errs)
    return pair


@settings(max_examples=60, deadline=None)
@given(paired_errors())
def test_statistics_pair_the_systems_both_curves_kept(pair):
    num, den = curves = [curve_of(kind, errs) for kind, errs in zip(("mop", "kf"), pair)]
    kept = [np.isfinite(errs).all(axis=1) for errs in pair]
    for curve, errs, ok in zip(curves, pair, kept):
        rows = errs[ok]
        assert curve.n_systems == len(rows)
        assert curve.failed_systems == [i for i in range(len(ok)) if not ok[i]]
        assert np.array_equal(curve.mean, rows.mean(axis=0))
        stderr = rows.std(axis=0, ddof=1) / np.sqrt(len(rows)) if len(rows) > 1 else 0.0
        assert np.array_equal(curve.stderr, np.broadcast_to(stderr, curve.mean.shape))

    a, b = (errs[kept[0] & kept[1]] for errs in pair)
    horizon = a.shape[1]
    report = evaluation.compare_predictors(num, den)
    assert report["ratio"] == [None if mb < evaluation.RATIO_GUARD else float(ma / mb)
                               for ma, mb in zip(a.mean(axis=0), b.mean(axis=0))]
    for key, (lo, hi) in (("early", (2, 10)), ("late", (horizon - 10, horizon - 1))):
        lo, hi = max(lo, 0), min(hi, horizon - 1)
        if lo > hi:
            assert report[key] is None
            continue
        (ma, sa), (mb, sb) = (window_oracle(e, lo, hi) for e in (a, b))
        assert report[key] == {"lo": lo, "hi": hi, "mean_num": ma, "stderr_num": sa,
                               "mean_den": mb, "stderr_den": sb,
                               "ratio": ma / mb if mb > evaluation.RATIO_GUARD else None}

    risk = evaluation.excess_risk(num, den)
    delta = a[:, 1:].mean(axis=1) - b[:, 1:].mean(axis=1)
    assert risk["delta"] == float(delta.mean())
    assert risk["stderr"] == (float(delta.std(ddof=1) / np.sqrt(len(delta)))
                              if len(delta) > 1 else 0.0)


def test_statistics_need_a_system_both_curves_kept():
    errs = np.ones((2, 5))
    with pytest.raises(RuntimeError, match="no test system"):
        curve_of("kf", np.where([[True], [False]], np.nan, np.inf * errs))
    a, b = errs.copy(), errs.copy()
    a[0, 1], b[1, 2] = np.nan, np.inf
    for paired in (evaluation.compare_predictors, evaluation.excess_risk):
        with pytest.raises(RuntimeError, match="no test system"):
            paired(curve_of("mop", a), curve_of("kf", b))


# ---------------------------------------------------------------------------
# scaling statistics
# ---------------------------------------------------------------------------

def test_spearman_of_monotone_sequences_is_plus_or_minus_one():
    x = [1.0, 2.0, 5.0, 9.0]
    assert evaluation.spearman(x, [0.1, 0.4, 3.0, 70.0]) == 1.0
    assert evaluation.spearman(x, [70.0, 3.0, 0.4, 0.1]) == -1.0


def test_spearman_takes_average_ranks_on_ties():
    # y ranks (1.5, 1.5, 3, 4) against (1, 2, 3, 4): centred, their products
    # sum to 4.5 and their squares to 5 and 4.5
    rho = evaluation.spearman([1.0, 2.0, 3.0, 4.0], [0.2, 0.2, 0.5, 0.9])
    assert rho == pytest.approx(4.5 / math.sqrt(5 * 4.5), rel=1e-15)


def test_spearman_of_a_constant_input_is_zero():
    assert evaluation.spearman([1.0, 2.0, 3.0], [0.4, 0.4, 0.4]) == 0.0


def test_loglog_slope_of_a_power_law():
    mt = np.array([100.0, 400.0, 1600.0, 6400.0, 25600.0])
    assert evaluation.fit_loglog_slope(mt, 3.0 * mt ** -0.5) \
        == pytest.approx(-0.5, abs=1e-12)


def test_loglog_slope_needs_two_positive_deltas():
    assert evaluation.fit_loglog_slope([100, 200, 300], [0.1, -0.2, 0.0]) is None


def test_scaling_report_leaves_flagged_cells_out_of_the_statistics():
    def cell(mt, delta, flagged=None):
        return {"m_systems": mt // 10, "train_len": 10, "mt": mt, "delta": delta,
                "stderr": 0.01, "flagged": flagged}

    cells = [cell(100, 0.3), cell(400, 0.15), cell(1600, 0.075),
             cell(6400, 0.9, flagged="training aborted at step 3: loss nan")]
    report = evaluation.scaling_report("linear-dense", cells)
    assert report["cells"] == cells
    assert report["spearman_delta_vs_mt"] == -1.0
    assert report["loglog_slope"] == pytest.approx(-0.5, abs=1e-12)


def test_scaling_report_of_one_trained_cell_has_no_statistics():
    # a rank correlation over one cell is undefined, not a measured 0
    cells = [{"m_systems": 10, "train_len": 10, "mt": 100, "delta": 0.3, "stderr": 0.01,
              "flagged": None},
             {"m_systems": 40, "train_len": 10, "mt": 400, "delta": None, "stderr": None,
              "flagged": "training aborted at step 3: loss nan"}]
    report = evaluation.scaling_report("linear-dense", cells)
    assert report["spearman_delta_vs_mt"] is None
    assert report["loglog_slope"] is None


# ---------------------------------------------------------------------------
# robustness probe
# ---------------------------------------------------------------------------

def hand_rolled_probe_rollouts(system, seed, i, taus, horizon):
    """Oracle: the probe's base and perturbed rollouts simulated state by
    state, with the noise pair at tau replaced in the perturbed branch."""
    sw, sv = LINEAR.noise_stds
    rng = stream(seed, LINEAR.name, "probe-noise", i)
    w = sw * rng.standard_normal((horizon, system.n))
    v = sv * rng.standard_normal((horizon, system.m))
    xs = np.zeros((horizon, system.n))
    for t in range(1, horizon):
        xs[t] = system.a @ xs[t - 1] + w[t]
    branches = [xs @ system.c.T + v]
    for tau in taus:
        prng = stream(seed, LINEAR.name, "probe-perturb", i, tau)
        dw = prng.standard_normal(system.n)
        dv = prng.standard_normal(system.m)
        xs2 = xs.copy()
        xs2[tau] = xs[tau] + dw
        for t in range(tau + 1, horizon):
            xs2[t] = system.a @ xs2[t - 1] + w[t]
        ys2 = xs2 @ system.c.T + v
        ys2[tau] += dv
        branches.append(ys2)
    return xs, np.stack(branches)


PROBE = dict(horizon=25, seed=2)
T_EVAL, TAUS = 20, (5, 15, 19)           # what horizon 25 implies


def test_probe_rollouts_match_the_hand_rolled_simulation(monkeypatch):
    # the probe scores each system's base and perturbed prompts in one call
    prompts = []

    def recording_predict_sequence(weights, tokens):
        prompts.append(np.array(tokens))
        return np.zeros(tokens.shape)

    monkeypatch.setattr(model, "predict_sequence", recording_predict_sequence)
    weights = model.init_weights(TINY_MODEL, stream(13, "probe"))
    evaluation.robustness_probe(weights, LINEAR, **PROBE)
    assert len(prompts) == evaluation.PROBE_SYSTEMS
    for i, got in enumerate(prompts):
        system = LINEAR.sample_system(PROBE["seed"], "probe", i)
        _, want = hand_rolled_probe_rollouts(system, PROBE["seed"], i, TAUS, T_EVAL + 1)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_probe_matches_per_prompt_predictions_and_is_deterministic():
    weights = model.init_weights(TINY_MODEL, stream(13, "probe"))
    report = evaluation.robustness_probe(weights, LINEAR, **PROBE)
    assert report == evaluation.robustness_probe(weights, LINEAR, **PROBE)
    assert report["t_eval"] == T_EVAL and report["taus"] == list(TAUS)
    # oracle: the hand-rolled rollouts scored one prompt at a time
    t_eval, taus = T_EVAL, TAUS
    sw, sv = LINEAR.noise_stds
    khat = np.zeros((len(taus), evaluation.PROBE_SYSTEMS))
    for i in range(evaluation.PROBE_SYSTEMS):
        system = LINEAR.sample_system(PROBE["seed"], "probe", i)
        xs, branches = hand_rolled_probe_rollouts(system, PROBE["seed"], i, taus,
                                                  t_eval + 1)
        mc = stream(PROBE["seed"], LINEAR.name, "probe-mc", i)
        wk = sw * mc.standard_normal((evaluation.PROBE_MC_DRAWS, system.n))
        vk = sv * mc.standard_normal((evaluation.PROBE_MC_DRAWS, system.m))
        y_next = (system.a @ xs[t_eval] + wk) @ system.c.T + vk
        p1 = model.predict_sequence(weights, branches[:1])[0, -1]
        for j, tau in enumerate(taus):
            p2 = model.predict_sequence(weights, branches[1 + j:2 + j])[0, -1]
            dloss = np.linalg.norm(y_next - p1, axis=1) - np.linalg.norm(y_next - p2, axis=1)
            denom = np.linalg.norm(branches[1 + j, tau:] - branches[0, tau:], axis=1).sum()
            khat[j, i] = (t_eval - tau) * abs(dloss.mean()) / denom
    assert np.allclose(report["khat_by_tau"], khat.mean(axis=1), rtol=1e-9, atol=0)
    assert report["khat_max"] == pytest.approx(khat.max(), rel=1e-9)


def test_probe_times_at_the_desk_horizon():
    weights = model.init_weights(TINY_MODEL, stream(15, "probe"))
    report = evaluation.robustness_probe(weights, LINEAR)
    assert report["t_eval"] == 45 and report["taus"] == [5, 15, 25, 35, 44]
    assert [r["gap"] for r in report["abs_dloss_by_gap"]] == [1, 10, 20, 30, 40]
    with pytest.raises(ValueError):
        evaluation.robustness_probe(weights, LINEAR, horizon=5)


@pytest.mark.parametrize("name", ["linear-colored", "quadrotor"])
def test_probe_targets_white_noise_linear_systems_only(name):
    weights = model.init_weights(TINY_MODEL, stream(15, "probe"))
    with pytest.raises(ValueError, match="i.i.d. linear"):
        evaluation.robustness_probe(weights, get_distribution(name))


# ---------------------------------------------------------------------------
# matrix-power norms
# ---------------------------------------------------------------------------

def test_triangular_systems_overshoot_more_than_dense_ones():
    report = evaluation.power_norm_report(get_distribution("linear-triangular"),
                                          20, 51, seed=0)
    tri, dense = report["linear-triangular"], report["linear-dense"]
    assert report["t_max"] == 50 and tri["n_systems"] == dense["n_systems"] == 20
    assert tri["mean"] > dense["mean"] >= 1.0
    # the dense draws are linear-dense's own test systems at that seed
    peaks = [linalg.matrix_power_norms(LINEAR.sample_system(0, "test", i).a, 50).max()
             for i in range(20)]
    assert dense["mean"] == float(np.mean(peaks))
