"""Dynamical-system sampling and trajectory simulation.

Systems follow x_{t+1} = f(x_t) + w_{t+1}, y_t = g(x_t) + v_t with x_0 = 0.
Linear systems use f(x) = A x, g(x) = C x; the planar quadrotor uses the
6-state discrete update in `quadrotor_step`. Noise is zero-mean Gaussian
at the stds (sigma_w, sigma_v) passed to `simulate`, summed over a moving
window of i.i.d. innovations (window 1 is white noise; a longer one colors it).
All randomness flows through explicit generators so trajectories are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import linalg

__all__ = [
    "LinearSystem", "QuadrotorSystem", "Trajectory",
    "SwitchSpec", "DivergenceError",
    "sample_linear_systems", "sample_quadrotor", "sample_random_inputs",
    "simulate", "quadrotor_step", "quadrotor_jacobian", "stack_quadrotors",
]

DIVERGENCE_LIMIT = 1e9
TARGET_RHO = 0.95                    # spectral radius of a dense A
INPUT_SPREAD = 0.5                   # quadrotor rotor-command perturbation
GRAVITY = 10.0                       # quadrotor gravitational acceleration
TAU = 0.1                            # quadrotor discretization step


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinearSystem:
    a: np.ndarray           # n x n state matrix
    c: np.ndarray           # m x n output matrix

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class QuadrotorSystem:
    """A planar quadrotor's sampled parameters. Gravity and the time step
    are the same for every quadrotor: the constants GRAVITY and TAU."""
    mass: float
    arm_length: float
    inertia: float
    c: np.ndarray           # 3 x 6 output matrix

    @property
    def n(self) -> int:
        return 6

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def hover_thrust(self) -> float:
        return self.mass * GRAVITY / 2.0


@dataclass
class Trajectory:
    ys: np.ndarray                 # T x m outputs, y_0 first
    xs: np.ndarray | None = None   # T x n states
    us: np.ndarray | None = None   # T x input-dim inputs

    @property
    def tokens(self) -> np.ndarray:
        """T x token-dim prompt entries, the one place their layout is decided:
        the outputs ys, then the inputs us when the system takes them."""
        return self.ys if self.us is None else np.concatenate([self.ys, self.us], axis=-1)


@dataclass(frozen=True)
class SwitchSpec:
    """Replace the dynamics with `system` from time t_switch on (state carries
    over; outputs and transitions at t >= t_switch use the new system)."""
    t_switch: int
    system: LinearSystem | QuadrotorSystem


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_linear_systems(rngs, n, m, mode="dense") -> list[LinearSystem]:
    """Draw one linear system, its A and C alone, from the benchmark
    distribution per generator in `rngs`, in their order.

    dense: A entries uniform [-1, 1], rescaled so the spectral radius hits
    TARGET_RHO; upper_triangular: diagonal uniform [-0.95, 0.95], strict
    upper uniform [-1, 1], no rescaling (the slow-mixing hard class). Each
    system's A, then C, comes from its own generator; the dense A's are then
    rescaled by one stacked `linalg.spectral_radius` call, each by its own
    radius as a float, so a zero radius raises ZeroDivisionError. A stack is
    bit for bit the systems drawn one by one.
    """
    if mode not in ("dense", "upper_triangular"):
        raise ValueError(f"unknown mode {mode!r}")
    draws = []
    for rng in rngs:
        if mode == "dense":
            a = rng.uniform(-1.0, 1.0, size=(n, n))
        else:
            a = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), k=1)
            a[np.diag_indices(n)] = rng.uniform(-0.95, 0.95, size=n)
        draws.append((a, rng.uniform(0.0, 1.0, size=(m, n))))
    if mode == "dense" and draws:
        radii = linalg.spectral_radius(np.stack([a for a, _ in draws]))
        for (a, _), rho in zip(draws, radii.tolist()):
            a *= TARGET_RHO / rho
    return [LinearSystem(a=a, c=c) for a, c in draws]


def sample_quadrotor(rng) -> QuadrotorSystem:
    """Planar quadrotor with (mass, arm length, inertia) ~ U[0.5, 2] and a
    3x6 output matrix with entries ~ U[0, 1]."""
    mass, arm, inertia = rng.uniform(0.5, 2.0, size=3)
    c = rng.uniform(0.0, 1.0, size=(3, 6))
    return QuadrotorSystem(mass=float(mass), arm_length=float(arm),
                           inertia=float(inertia), c=c)


def sample_random_inputs(rng, t_len, system: QuadrotorSystem) -> np.ndarray:
    """Rotor commands: hover thrust plus per-rotor uniform
    [-INPUT_SPREAD, INPUT_SPREAD] perturbations each step (keeps desk-scale
    trajectories bounded while exciting every mode)."""
    return system.hover_thrust + rng.uniform(-INPUT_SPREAD, INPUT_SPREAD, size=(t_len, 2))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def _window_sum(eta: np.ndarray, window: int) -> np.ndarray:
    if window == 1:
        return eta
    csum = np.cumsum(eta, axis=0)
    out = csum[window - 1:].copy()
    out[1:] -= csum[:-window]
    return out


def _noise_sequences(system, t_len, stds, window, rng):
    """Standard draws scaled by the stds (sigma_w, sigma_v), each value the
    sum of the last `window` of them.

    The window reaches back before t = 0, so a value's variance is
    window * sigma^2 at every t. Draw order (eps_w then eps_v, shapes fixed
    by t_len and window) never depends on switching, keeping pre-switch
    prefixes bit-identical.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    eps_w = rng.standard_normal((t_len + window - 1, system.n))
    eps_v = rng.standard_normal((t_len + window - 1, system.m))
    sigma_w, sigma_v = stds
    return _window_sum(sigma_w * eps_w, window), _window_sum(sigma_v * eps_v, window)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def quadrotor_step(state, u, noise, system) -> np.ndarray:
    """One step of the discrete planar-quadrotor update (state order:
    x, z, phi, xdot, zdot, phidot) with additive process noise.

    state [6] and u [2], or [N, 6] and [N, 2] for a population; the
    parameters of `system` (mass, arm_length, inertia) are then arrays over
    those axes (see `stack_quadrotors`). Gravity and the step are GRAVITY
    and TAU.
    """
    x, z, phi, xd, zd, phid = state.T
    u0, u1 = u.T
    g, tau = GRAVITY, TAU
    c, s = np.cos(phi), np.sin(phi)
    nxt = np.array([
        x + (xd * c - zd * s) * tau,
        z + (xd * s + zd * c) * tau,
        phi + phid * tau,
        xd + (zd * phid - g * s) * tau,
        zd + (-xd * phid - g * c + (u0 + u1) / system.mass) * tau,
        (u0 - u1) * system.arm_length * tau / system.inertia,
    ]).T
    return nxt + noise


def quadrotor_jacobian(state) -> np.ndarray:
    """Analytic d(next state)/d(state) of `quadrotor_step` at `state`,
    shaped [6, 6], or [N, 6, 6] for a population of states [N, 6]. It does
    not depend on the inputs or on the sampled mass, arm length and
    inertia, which enter the update only through the inputs."""
    _, _, phi, xd, zd, phid = state.T
    g, tau = GRAVITY, TAU
    c, s = np.cos(phi), np.sin(phi)
    jac = np.zeros(state.shape[:-1] + (6, 6))
    jac[..., 0, 0] = 1.0
    jac[..., 0, 2] = (-xd * s - zd * c) * tau
    jac[..., 0, 3] = c * tau
    jac[..., 0, 4] = -s * tau
    jac[..., 1, 1] = 1.0
    jac[..., 1, 2] = (xd * c - zd * s) * tau
    jac[..., 1, 3] = s * tau
    jac[..., 1, 4] = c * tau
    jac[..., 2, 2] = 1.0
    jac[..., 2, 5] = tau
    jac[..., 3, 2] = -g * c * tau
    jac[..., 3, 3] = 1.0
    jac[..., 3, 4] = phid * tau
    jac[..., 3, 5] = zd * tau
    jac[..., 4, 2] = g * s * tau
    jac[..., 4, 3] = -phid * tau
    jac[..., 4, 4] = 1.0
    jac[..., 4, 5] = -xd * tau
    # row 5 (phidot) depends on the inputs only
    return jac


def stack_quadrotors(systems) -> SimpleNamespace:
    """The dynamics parameters of several quadrotors as arrays [N] over the
    population, for the batched `quadrotor_step` / `quadrotor_jacobian`."""
    return SimpleNamespace(**{
        name: np.array([getattr(s, name) for s in systems])
        for name in ("mass", "arm_length", "inertia")})


def simulate(system, t_len, rng, stds, window=1, switch: SwitchSpec | None = None,
             inputs=None) -> Trajectory:
    """Roll a trajectory of t_len outputs y_0..y_{T-1} and its states
    x_0..x_{T-1} from x_0 = 0, its noise at `stds` summed over `window`
    innovations (see `_noise_sequences`).

    Under `switch`, the dynamics (and output map) are replaced from
    t_switch on while the state carries over; the noise draws are shared so
    the pre-switch prefix is bit-identical to the unswitched run.
    """
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    if switch is not None and not (0 < switch.t_switch < t_len):
        raise ValueError("switch time must satisfy 0 < t_switch < t_len")
    w, v = _noise_sequences(system, t_len, stds, window, rng)

    is_quad = isinstance(system, QuadrotorSystem)
    if is_quad and inputs is None:
        raise ValueError("quadrotor simulation needs an input sequence")

    ys = np.empty((t_len, system.m))
    xs = np.empty((t_len, system.n))
    x = np.zeros(system.n)
    active = system
    for t in range(t_len):
        if switch is not None and t == switch.t_switch:
            active = switch.system
        if t:
            x = (quadrotor_step(x, inputs[t - 1], w[t], active) if is_quad
                 else active.a @ x + w[t])
            norm = float(np.linalg.norm(x))
            if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
                raise DivergenceError(f"state norm {norm:.3e} at t={t}")
        xs[t] = x
        ys[t] = active.c @ x + v[t]
    us = np.asarray(inputs)[:t_len] if inputs is not None else None
    return Trajectory(ys=ys, xs=xs, us=us)
