"""Model-aware and classical model-free predictors, each over a population.

Every predictor holds a stack of N systems and advances all of them at
once: `step(y_t, u_t=None)` takes the newest outputs [N, m] (and inputs
[N, k]) and returns the predictions for y_{t+1} as [N, m], so the
evaluation harness scores a whole test population with T-1 calls. Rows
never interact: every row is what a predictor for that system alone would
compute. The filters are handed their model as arrays, the noise as the
covariances Q and R that `evaluation.make_predictor` sets. No predictor
has a singular case: the filters' S = C P C^T + R is positive definite
because R must be, and so is the AR baseline's inverse Gram matrix, by
construction. A non-finite observation makes only its own row's
predictions NaN, which the evaluation harness counts as a failed system.
"""

from __future__ import annotations

import numpy as np

# bound here by name so perfbench's tracer can time the filters' gain solves
from numpy.linalg import solve as solve_linear

from .systems import quadrotor_jacobian, quadrotor_step

__all__ = [
    "GaussianFilter", "KalmanFilter", "QuadrotorEKF",
    "OnlineARPredictor",
]

PSD_DIAG_TOL = -1e-10
PSD_JITTER = 1e-9
AR_RIDGE = 1e-6                      # OnlineARPredictor's ridge


def _matvec(a, x) -> np.ndarray:
    """[N, i, j] @ [N, j] -> [N, i]."""
    return (a @ x[..., None])[..., 0]


def _t(a) -> np.ndarray:
    return a.swapaxes(-1, -2)


class GaussianFilter:
    """Time-varying Kalman recursion with pluggable mean propagation.

    `propagate(x, u)` advances the means [N, n] and `jacobian(x, u)`
    supplies the linearizations [N, n, n] used for the covariances; passing
    the exact linear maps makes this the standard Kalman filter, passing a
    nonlinear model plus its analytic Jacobian makes it the EKF. `c` is the
    stacked output maps [N, m, n]; the process and output noise covariances
    `q` [n, n] and `r` [m, m] are shared by every system. `r` must be
    symmetric positive definite, so that every innovation covariance is.
    Initialized at x_hat = 0, P = 0 (the initial state is known to be
    zero). Each covariance is re-symmetrized every step; if its diagonal
    drifts below -1e-10 a 1e-9 jitter is added to restore PSD.
    """

    def __init__(self, propagate, jacobian, c, q, r):
        if not (np.array_equal(r, _t(r)) and np.linalg.eigvalsh(r).min() > 0):
            raise ValueError("r must be symmetric positive definite")
        self.propagate = propagate
        self.jacobian = jacobian
        self.c, self.q, self.r = c, q, r
        n_sys, self.m, self.n = c.shape
        self.x_hat = np.zeros((n_sys, self.n))
        self.p = np.zeros((n_sys, self.n, self.n))

    def step(self, y, u=None) -> np.ndarray:
        c, p = self.c, self.p
        innovation = y - _matvec(c, self.x_hat)
        cp = c @ p
        s = cp @ _t(c) + self.r
        k = _t(solve_linear(s, cp))                # K = P C^T S^-1
        x_post = self.x_hat + _matvec(k, innovation)
        p_post = (np.eye(self.n) - k @ c) @ p
        f = self.jacobian(x_post, u)
        self.x_hat = self.propagate(x_post, u)
        p_next = f @ p_post @ _t(f) + self.q
        p_next = 0.5 * (p_next + _t(p_next))
        drift = p_next.diagonal(axis1=1, axis2=2).min(axis=1) < PSD_DIAG_TOL
        p_next[drift] += PSD_JITTER * np.eye(self.n)
        self.p = p_next
        return self.predicted_output

    @property
    def predicted_output(self) -> np.ndarray:
        return _matvec(self.c, self.x_hat)


class KalmanFilter(GaussianFilter):
    """Optimal output predictor for known linear-Gaussian systems, given
    their stacked transition maps `a` [N, n, n] and noise covariances."""

    def __init__(self, a, c, q, r):
        super().__init__(lambda x, u: _matvec(a, x), lambda x, u: a, c, q, r)


class QuadrotorEKF(GaussianFilter):
    """EKF for planar quadrotors of parameters `params` (see
    `systems.stack_quadrotors`): nonlinear mean, analytic Jacobian."""

    def __init__(self, params, c, q, r):
        super().__init__(lambda x, u: quadrotor_step(x, u, 0.0, params),
                         lambda x, u: quadrotor_jacobian(x), c, q, r)


class OnlineARPredictor:
    """Two-lag linear autoregressor y_{t+1} = a1 y_t + a2 y_{t-1} refit by
    ridge-regularized least squares after every observation, one fit per
    system.

    The refit is recursive least squares. `p` is the inverse of the ridge
    Gram matrix, starting at I / AR_RIDGE, and each new regressor-target
    pair is one rank-one update of `p` and `coefficients`, so after every
    step they equal the batch ridge solution over the pairs seen so far.
    The update forms the outer product of P z with itself elementwise before
    dividing by the scalar 1 + z P z, so `p` stays exactly symmetric; the
    matrix product (P z / den) @ (P z)^T is not, and its asymmetry grows
    over long trajectories. Before three observations exist the prediction
    falls back to the last output. The tiny ridge keeps the early
    ill-posed fits bounded without measurably biasing the comparison.
    """

    def __init__(self, n_systems, m):
        self.p = np.tile(np.eye(2 * m) / AR_RIDGE, (n_systems, 1, 1))
        self.coefficients = np.zeros((n_systems, 2 * m, m))   # stacked (a1, a2)
        self.prev = []                    # last two observations, newest first

    def step(self, y, u=None) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if len(self.prev) < 2:
            pred = y.copy()
        else:
            z = np.concatenate(self.prev, axis=1)[:, None, :]   # [y_{t-1}; y_{t-2}]
            pz = self.p @ _t(z)
            den = 1.0 + z @ pz
            self.coefficients += pz @ ((y[:, None, :] - z @ self.coefficients) / den)
            self.p -= (pz * _t(pz)) / den
            pred = _matvec(_t(self.coefficients), np.concatenate([y, self.prev[0]], axis=1))
        self.prev = [y] + self.prev[:1]
        return pred

