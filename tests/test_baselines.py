"""Kalman / extended Kalman filters and the online AR-OLS baseline.

The predictors hold a population of systems; most tests here run N=1
stacks (one system, leading axis of length 1) against closed-form oracles.
Population-wide checks live in test_evaluation.py.
"""

import numpy as np
import pytest

from moplab.baselines import (
    AR_RIDGE, GaussianFilter, KalmanFilter, OnlineARPredictor, QuadrotorEKF,
)
from moplab.distributions import get_distribution
from moplab.seeding import stream
from moplab.systems import (
    LinearSystem, quadrotor_jacobian, quadrotor_step, sample_linear_systems,
    sample_quadrotor, sample_random_inputs, simulate, stack_quadrotors,
)


STDS = (0.1, 0.1)                    # (sigma_w, sigma_v)
VAR = 0.01                           # their variances


def scalar_system(a=0.9, c=1.0):
    return LinearSystem(a=np.array([[a]]), c=np.array([[c]]))


def linear_kf(system, q=VAR, r=VAR):
    """The KF over the one-system stack [system], with Q = q I and R = r I."""
    return KalmanFilter(system.a[None], system.c[None], q * np.eye(system.n),
                        r * np.eye(system.m))


def quadrotor_ekf(system, q=VAR, r=VAR):
    """The EKF over the one-quadrotor stack [system], with Q = q I and R = r I."""
    return QuadrotorEKF(stack_quadrotors([system]), system.c[None], q * np.eye(system.n),
                        r * np.eye(system.m))


def riccati_fixed_point(a, c, q, r, tol=1e-14):
    """Fixed-point iteration oracle for the scalar predicted-covariance map
    P -> a^2 P r / (c^2 P + r) + q."""
    p = q
    for _ in range(100_000):
        nxt = a * a * p * r / (c * c * p + r) + q
        if abs(nxt - p) < tol:
            return nxt
        p = nxt
    raise AssertionError("oracle failed to converge")


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------

def test_kf_memoryless_system_predicts_prior_mean():
    system = scalar_system(a=0.0)
    kf = linear_kf(system)
    rng = stream(1, "kfa0")
    for t in range(50):
        pred = kf.step(rng.standard_normal((1, 1)))
        assert pred.shape == (1, 1)
        assert pred[0, 0] == 0.0


def test_kf_riccati_convergence():
    system = scalar_system(a=0.9, c=1.0)
    kf = linear_kf(system)
    traj = simulate(system, 201, stream(2, "ric"), STDS)
    for t in range(200):
        kf.step(traj.ys[t][None])
    oracle = riccati_fixed_point(0.9, 1.0, VAR, VAR)
    assert abs(float(kf.p[0, 0, 0]) - oracle) <= 1e-8


def test_kf_zero_noise_exact():
    system = scalar_system()
    kf = linear_kf(system, q=0.0)
    traj = simulate(system, 30, stream(3), (0.0, 0.0))
    errs = []
    pred = np.zeros((1, 1))
    for t in range(29):
        errs.append(abs(pred[0, 0] - traj.ys[t][0]))
        pred = kf.step(traj.ys[t][None])
    assert max(errs) == 0.0


@pytest.mark.parametrize("r", [0.0, -0.1, float("nan")])
@pytest.mark.parametrize("kind", ["kf", "ekf"])
def test_filters_reject_nonpositive_output_noise(kind, r):
    # S = C P C^T + R is positive definite for every P only if R is
    if kind == "kf":
        build, system = linear_kf, scalar_system()
    else:
        build, system = quadrotor_ekf, sample_quadrotor(stream(14, "hover"))
    with pytest.raises(ValueError, match="r must be symmetric positive definite"):
        build(system, r=r)


def test_kf_innovation_whiteness():
    system = sample_linear_systems([stream(4, "white")], 10, 5)[0]
    traj = simulate(system, 2000, stream(5, "white"), STDS)
    kf = linear_kf(system)
    innovations = np.zeros((2000, 5))
    for t in range(2000):
        innovations[t] = traj.ys[t] - kf.predicted_output[0]
        kf.step(traj.ys[t][None])
    inn = innovations[200:]                     # past the transient
    inn = inn - inn.mean(axis=0)
    lag1 = float((inn[:-1] * inn[1:]).sum() / (inn * inn).sum())
    assert abs(lag1) <= 0.05


def test_kf_covariance_trace_monotone_convergent():
    system = sample_linear_systems([stream(6, "tr")], 10, 5)[0]
    traj = simulate(system, 600, stream(7, "tr"), STDS)
    kf = linear_kf(system)
    traces = []
    for t in range(600):
        kf.step(traj.ys[t][None])
        traces.append(float(np.trace(kf.p[0])))
    diffs = np.diff(traces)
    assert (diffs >= -1e-12).all()              # monotone from P0 = 0
    assert abs(diffs[-1]) < 1e-10


def test_kf_dominates_ar_ols_on_average():
    n_sys, t_len = 200, 50
    kf_err = np.zeros((n_sys, t_len))
    ar_err = np.zeros((n_sys, t_len))
    for i in range(n_sys):
        system = sample_linear_systems([stream(8, "dom", i)], 10, 5)[0]
        traj = simulate(system, t_len, stream(9, "dom", i), STDS)
        kf, ar = linear_kf(system), OnlineARPredictor(1, 5)
        pk = pa = np.zeros(5)
        for t in range(t_len):
            kf_err[i, t] = np.linalg.norm(pk - traj.ys[t])
            ar_err[i, t] = np.linalg.norm(pa - traj.ys[t])
            pk = kf.step(traj.ys[t][None])[0]
            pa = ar.step(traj.ys[t][None])[0]
    mk, ma = kf_err.mean(axis=0), ar_err.mean(axis=0)
    assert (mk[5:] <= ma[5:]).all()


def test_kf_psd_and_symmetry_maintained():
    system = sample_linear_systems([stream(10, "psd")], 10, 5)[0]
    traj = simulate(system, 300, stream(11, "psd"), STDS)
    kf = linear_kf(system)
    for t in range(300):
        kf.step(traj.ys[t][None])
        assert np.array_equal(kf.p[0], kf.p[0].T)
        assert kf.p[0].diagonal().min() >= -1e-10


# ---------------------------------------------------------------------------
# EKF
# ---------------------------------------------------------------------------

def test_ekf_jacobian_vs_finite_differences():
    system = sample_quadrotor(stream(12, "jac"))
    rng = stream(13, "jac")
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1, 1, 6)
        u = rng.uniform(0, 2, 2)
        jac = quadrotor_jacobian(x)
        fd = np.zeros((6, 6))
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd[:, j] = (quadrotor_step(x + e, u, np.zeros(6), system)
                        - quadrotor_step(x - e, u, np.zeros(6), system)) / (2 * h)
        worst = max(worst, np.abs(jac - fd).max())
    assert worst <= 1e-6


def test_ekf_zero_noise_hover_exact():
    system = sample_quadrotor(stream(14, "hover"))
    hover = np.full((40, 2), system.hover_thrust)
    traj = simulate(system, 40, stream(15), (0.0, 0.0), inputs=hover)
    ekf = quadrotor_ekf(system, q=0.0)
    pred = np.zeros(3)
    for t in range(39):
        assert np.linalg.norm(pred - traj.ys[t]) <= 1e-9
        pred = ekf.step(traj.ys[t][None], hover[t][None])[0]


def test_ekf_reduces_to_kf_on_linear_system():
    system = sample_linear_systems([stream(16, "lin")], 6, 3)[0]
    traj = simulate(system, 100, stream(17, "lin"), STDS)
    kf = linear_kf(system)
    a = system.a[None]
    generic = GaussianFilter(
        propagate=lambda x, u: (a @ x[..., None])[..., 0], jacobian=lambda x, u: a,
        c=kf.c, q=kf.q, r=kf.r)
    for t in range(100):
        yk = kf.step(traj.ys[t][None])
        yg = generic.step(traj.ys[t][None])
        assert np.array_equal(yk, yg)


def test_ekf_tracks_quadrotor_reasonably():
    system = sample_quadrotor(stream(18, "trk"))
    inputs = sample_random_inputs(stream(19, "trk"), 50, system)
    traj = simulate(system, 50, stream(20, "trk"), STDS, inputs=inputs)
    ekf = quadrotor_ekf(system)
    e_ekf, e_zero = [], []
    pe = np.zeros(3)
    for t in range(50):
        e_ekf.append(np.linalg.norm(pe - traj.ys[t]))
        e_zero.append(np.linalg.norm(np.zeros(3) - traj.ys[t]))
        pe = ekf.step(traj.ys[t][None], inputs[t][None])[0]
    assert np.mean(e_ekf[10:]) < 0.25 * np.mean(e_zero[10:])


# ---------------------------------------------------------------------------
# AR-OLS
# ---------------------------------------------------------------------------

def batch_ridge_oracle(ys, ridge=1e-6):
    """Closed-form ridge regression of y_{t+1} on (y_t, y_{t-1}) over the
    same pairs the online estimator has seen."""
    m = ys.shape[1]
    zs, targets = [], []
    for t in range(2, len(ys)):
        zs.append(np.concatenate([ys[t - 1], ys[t - 2]]))
        targets.append(ys[t])
    z = np.array(zs)
    y = np.array(targets)
    gram = z.T @ z + ridge * np.eye(2 * m)
    return np.linalg.solve(gram, z.T @ y)


def test_ar_fallback_before_three_observations():
    ar = OnlineARPredictor(1, 2)
    y0 = np.array([[1.0, -2.0]])
    y1 = np.array([[0.5, 3.0]])
    assert np.array_equal(ar.step(y0), y0)
    assert np.array_equal(ar.step(y1), y1)


def test_ar_matches_batch_ridge_on_collinear_exponential():
    # y_{t+1} = 0.5 y_t makes the two lags exactly collinear, so ridge
    # converges to the minimum-norm split (0.1, 0.2), not (0.5, 0); the
    # online estimator must agree with the batch oracle either way
    ys = np.array([[0.5 ** t] for t in range(21)])
    ar = OnlineARPredictor(1, 1)
    for t in range(21):
        ar.step(ys[t][None])
    coef = ar.coefficients[0]
    oracle = batch_ridge_oracle(ys)
    assert np.allclose(coef, oracle, atol=1e-10)
    a1, a2 = float(coef[0, 0]), float(coef[1, 0])
    assert a1 == pytest.approx(0.1, abs=1e-3)
    assert a2 == pytest.approx(0.2, abs=1e-3)
    # and the resulting one-step predictions are exact for this sequence
    pred = coef.T @ np.concatenate([ys[-1], ys[-2]])
    assert pred[0] == pytest.approx(0.5 ** 21, rel=1e-6)


def test_ar_recovers_identifiable_two_lag_recursion():
    # two decaying modes -> the lag pair spans the plane and (0.3, 0.2) is
    # identifiable; start from distinct initial conditions
    ys = np.zeros((51, 1))
    ys[0, 0], ys[1, 0] = 1.0, -0.5
    for t in range(1, 50):
        ys[t + 1, 0] = 0.3 * ys[t, 0] + 0.2 * ys[t - 1, 0]
    ar = OnlineARPredictor(1, 1)
    for t in range(51):
        ar.step(ys[t][None])
    coef = ar.coefficients[0]
    assert coef[0, 0] == pytest.approx(0.3, abs=1e-2)
    assert coef[1, 0] == pytest.approx(0.2, abs=1e-2)
    assert np.allclose(coef, batch_ridge_oracle(ys), atol=1e-8)


def test_ar_online_equals_batch_on_noisy_vector_data():
    system = sample_linear_systems([stream(21, "ar")], 6, 3)[0]
    traj = simulate(system, 60, stream(22, "ar"), STDS)
    ar = OnlineARPredictor(1, 3)
    for t in range(60):
        ar.step(traj.ys[t][None])
    assert np.allclose(ar.coefficients[0], batch_ridge_oracle(traj.ys), atol=1e-8)


def population_ys(dist_name, n, t_len):
    dist = get_distribution(dist_name)
    return np.stack([dist.make_trajectory(dist.sample_system(0, "test", i), t_len,
                                          0, "test", i).ys for i in range(n)])


@pytest.mark.parametrize("dist_name", ["linear-colored", "quadrotor"])
def test_ar_long_run_matches_a_least_squares_oracle(dist_name):
    # the rank-one refit must not drift from the batch ridge fit over a
    # long trajectory; the oracle solves the ridge-augmented design
    # [Z; sqrt(ridge) I] with SVD-based least squares, not normal equations
    ys = population_ys(dist_name, 3, 2000)
    n, t_len, m = ys.shape
    ar = OnlineARPredictor(n, m)
    for t in range(t_len):
        ar.step(ys[:, t])
    for i, y in enumerate(ys):
        design = np.vstack([np.concatenate([y[1:-1], y[:-2]], axis=1),
                            np.sqrt(AR_RIDGE) * np.eye(2 * m)])
        target = np.vstack([y[2:], np.zeros((2 * m, m))])
        oracle = np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.abs(ar.coefficients[i] - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_ar_inverse_gram_stays_exactly_symmetric():
    ys = population_ys("linear-dense", 4, 300)
    ar = OnlineARPredictor(4, 5)
    for t in range(300):
        ar.step(ys[:, t])
        assert np.array_equal(ar.p, ar.p.swapaxes(1, 2))


def test_ar_non_finite_observation_poisons_only_its_own_row():
    ys = population_ys("linear-dense", 4, 50)
    bad = ys.copy()
    bad[2, 10] = np.nan
    clean_ar, bad_ar = OnlineARPredictor(4, 5), OnlineARPredictor(4, 5)
    for t in range(50):
        clean, poisoned = clean_ar.step(ys[:, t]), bad_ar.step(bad[:, t])
        others = [0, 1, 3] if t >= 10 else slice(None)
        assert np.array_equal(poisoned[others], clean[others])
        assert np.isnan(poisoned[2]).all() == (t >= 10)
