"""Model-aware and classical model-free predictors, each over a population.

Every predictor holds a stack of N systems and advances all of them at
once: `step(y_t, u_t=None)` takes the newest outputs [N, m] (and inputs
[N, k]) and returns the predictions for y_{t+1} as [N, m], so the
evaluation harness scores a whole test population with T-1 calls. Rows
never interact: a system that turns singular or non-finite marks only its
own row as failed (NaN predictions from then on), and every other row is
what a predictor for that system alone would compute.
"""

from __future__ import annotations

import numpy as np

from .linalg import SingularMatrixError, solve_linear
from .systems import quadrotor_jacobian, quadrotor_step, stack_quadrotors

__all__ = [
    "GaussianFilter", "KalmanFilter", "QuadrotorEKF",
    "OnlineARPredictor", "ZeroPredictor",
]

PSD_DIAG_TOL = -1e-10
PSD_JITTER = 1e-9
ZERO_GAIN_TOL = 1e-12
AR_RIDGE = 1e-6                      # OnlineARPredictor's normal-equation ridge


def _matvec(a, x) -> np.ndarray:
    """[N, i, j] @ [N, j] -> [N, i]."""
    return (a @ x[..., None])[..., 0]


def _t(a) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _per_system(value, n_sys) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (n_sys,))


class GaussianFilter:
    """Time-varying Kalman recursion with pluggable mean propagation.

    `propagate(x, u)` advances the means [N, n] and `jacobian(x, u)`
    supplies the linearizations [N, n, n] used for the covariances; passing
    the exact linear maps makes this the standard Kalman filter, passing a
    nonlinear model plus its analytic Jacobian makes it the EKF. `c` is the
    stack of output maps [N, m, n]; `sigma_w`, `sigma_v` are scalars or one
    per system. Initialized at x_hat = 0, P = 0 (the initial state is
    known to be zero). Each covariance is re-symmetrized every step; if its
    diagonal drifts below -1e-10 a 1e-9 jitter is added to restore PSD.
    """

    def __init__(self, propagate, jacobian, c, sigma_w, sigma_v):
        self.propagate = propagate
        self.jacobian = jacobian
        self.c = np.asarray(c, dtype=np.float64)
        n_sys, self.m, self.n = self.c.shape
        # process and output noise covariances Q, R per system
        self.q = _per_system(sigma_w, n_sys)[:, None, None] ** 2 * np.eye(self.n)
        self.r = _per_system(sigma_v, n_sys)[:, None, None] ** 2 * np.eye(self.m)
        self.x_hat = np.zeros((n_sys, self.n))
        self.p = np.zeros((n_sys, self.n, self.n))
        self.failed = np.zeros(n_sys, dtype=bool)

    def step(self, y, u=None) -> np.ndarray:
        c, p = self.c, self.p
        innovation = y - _matvec(c, self.x_hat)
        cp = c @ p
        s = cp @ _t(c) + self.r
        try:
            k = _t(solve_linear(s, cp))            # K = P C^T S^-1
        except SingularMatrixError as exc:
            # exact state knowledge with a noise-free output map: the gain's
            # limit is zero (cannot occur for sigma_v > 0); any other
            # singular system fails on its own row
            zero = exc.singular & (np.abs(cp).max(axis=(1, 2)) <= ZERO_GAIN_TOL)
            self.failed |= exc.singular & ~zero
            k = _t(exc.solution)
            k[zero] = 0.0
        x_post = self.x_hat + _matvec(k, innovation)
        p_post = (np.eye(self.n) - k @ c) @ p
        f = self.jacobian(x_post, u)
        self.x_hat = self.propagate(x_post, u)
        p_next = f @ p_post @ _t(f) + self.q
        p_next = 0.5 * (p_next + _t(p_next))
        drift = p_next.diagonal(axis1=1, axis2=2).min(axis=1) < PSD_DIAG_TOL
        p_next[drift] += PSD_JITTER * np.eye(self.n)
        self.p = p_next
        pred = self.predicted_output
        pred[self.failed] = np.nan
        return pred

    @property
    def predicted_output(self) -> np.ndarray:
        return _matvec(self.c, self.x_hat)


class KalmanFilter(GaussianFilter):
    """Optimal output predictor for known linear-Gaussian systems.

    Noise stds may be overridden for the whole population, e.g. to hand the
    filter the stationary marginal variance of a colored-noise process it
    (wrongly) assumes white.
    """

    def __init__(self, systems, sigma_w=None, sigma_v=None):
        a = np.stack([np.asarray(s.a, dtype=np.float64) for s in systems])
        super().__init__(
            propagate=lambda x, u: _matvec(a, x),
            jacobian=lambda x, u: a,
            c=np.stack([s.c for s in systems]),
            sigma_w=[s.sigma_w for s in systems] if sigma_w is None else sigma_w,
            sigma_v=[s.sigma_v for s in systems] if sigma_v is None else sigma_v,
        )


class QuadrotorEKF(GaussianFilter):
    """EKF for planar quadrotors: nonlinear mean propagation, analytic
    Jacobian linearization, linear output map."""

    def __init__(self, systems):
        params = stack_quadrotors(systems)
        super().__init__(
            propagate=lambda x, u: quadrotor_step(x, u, 0.0, params),
            jacobian=lambda x, u: quadrotor_jacobian(x),
            c=np.stack([s.c for s in systems]),
            sigma_w=[s.sigma_w for s in systems],
            sigma_v=[s.sigma_v for s in systems],
        )


class OnlineARPredictor:
    """Two-lag linear autoregressor y_{t+1} = a1 y_t + a2 y_{t-1} refit by
    (ridge-stabilized) least squares after every observation, one fit per
    system.

    Before three observations exist the prediction falls back to the last
    output. The tiny ridge AR_RIDGE keeps the normal equations solvable in
    the ill-posed early steps without measurably biasing the comparison.
    """

    def __init__(self, n_systems, m):
        self.m = m
        self.gram = np.zeros((n_systems, 2 * m, 2 * m))
        self.cross = np.zeros((n_systems, 2 * m, m))
        self.prev = []                    # last two observations, newest first
        self.samples = 0
        self.failed = np.zeros(n_systems, dtype=bool)

    @property
    def coefficients(self) -> np.ndarray:
        """Stacked (a1, a2) per system, [N, 2m, m] (zeros until data arrives)."""
        if self.samples == 0:
            return np.zeros_like(self.cross)
        reg = self.gram + AR_RIDGE * np.eye(2 * self.m)
        try:
            return solve_linear(reg, self.cross)
        except SingularMatrixError as exc:
            self.failed |= exc.singular
            return exc.solution

    def step(self, y, u=None) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if len(self.prev) == 2:
            z = np.concatenate(self.prev, axis=1)        # [y_{t-1}; y_{t-2}]
            self.gram += z[:, :, None] * z[:, None, :]
            self.cross += z[:, :, None] * y[:, None, :]
            self.samples += 1
        if self.samples == 0:
            pred = y.copy()
        else:
            z_now = np.concatenate([y, self.prev[0]], axis=1)
            pred = _matvec(_t(self.coefficients), z_now)
        self.prev = [y] + self.prev[:1]
        pred[self.failed] = np.nan
        return pred


class ZeroPredictor:
    """Predicts the prior mean (zero) forever; the no-information floor."""

    def __init__(self, n_systems, m):
        self.shape = (n_systems, m)

    def step(self, y, u=None) -> np.ndarray:
        return np.zeros(self.shape)
