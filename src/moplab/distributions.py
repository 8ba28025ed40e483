"""System distributions the experiments draw from.

A Distribution bundles everything needed to sample a system and roll a
trajectory: the system family, its noise variances and the moving window
its noise is summed over (1 for white noise), and the width of the
model's prompt tokens (the quadrotor's carry the applied rotor commands
after each output; see `systems.Trajectory.tokens`). Every system drawn
shares that noise model, which simulation and the model-aware filters read
from here. Seed namespaces: systems and trajectories derive their streams
from (base_seed, role, index), so train and test populations never share
draws.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .seeding import derive_seed
from .systems import (
    Trajectory, sample_linear_systems, sample_quadrotor, sample_random_inputs,
    simulate, DivergenceError,
)

__all__ = ["Distribution", "DISTRIBUTIONS", "get_distribution"]

QUAD_RESAMPLE_LIMIT = 50

logger = logging.getLogger("moplab.distributions")


@dataclass(frozen=True)
class Distribution:
    name: str
    kind: str                    # "linear" | "quadrotor"
    n: int
    m: int
    sigma_w2: float              # per-coordinate noise variances
    sigma_v2: float
    mode: str = "dense"          # linear sampling mode
    noise_window: int = 1        # innovations each noise value sums
    input_scale: float = 1.0     # model conditioning scale suggested per preset

    @property
    def token_dim(self) -> int:
        return self.m + (2 if self.kind == "quadrotor" else 0)

    def with_noise_var(self, sigma2: float) -> "Distribution":
        return replace(self, sigma_w2=float(sigma2), sigma_v2=float(sigma2))

    @property
    def noise_stds(self) -> tuple[float, float]:
        """(sigma_w, sigma_v): the stds `simulate` scales its innovations by."""
        return float(np.sqrt(self.sigma_w2)), float(np.sqrt(self.sigma_v2))

    def filter_noise_stds(self) -> tuple[float, float]:
        """Noise stds handed to the model-aware filter: each channel's
        stationary marginal std sqrt(window * sigma^2). Over a window longer
        than 1 the filter (wrongly, and knowingly: it assumes white noise)
        treats that std as white."""
        return (float(np.sqrt(self.noise_window * self.sigma_w2)),
                float(np.sqrt(self.noise_window * self.sigma_v2)))

    def sample_system(self, base_seed: int, role: str, index: int):
        """Draw system `index` of the given role ("train" / "test" / ...)."""
        return self.sample_systems(base_seed, role, [index])[0]

    def sample_systems(self, base_seed: int, role: str, indices) -> list:
        """`sample_system` at each of `indices`, every system drawn from its
        index's own stream; linear ones share one stacked radius call (see
        `systems.sample_linear_systems`)."""
        seeds = [derive_seed(base_seed, self.name, role, "sys", i) for i in indices]
        rngs = (np.random.default_rng(seed) for seed in seeds)
        if self.kind == "linear":
            return sample_linear_systems(rngs, self.n, self.m, mode=self.mode, seeds=seeds)
        return [sample_quadrotor(rng, seed=seed) for rng, seed in zip(rngs, seeds)]

    def make_trajectory(self, system, t_len: int, base_seed: int, role: str,
                        index: int, switch=None) -> Trajectory:
        """Roll one trajectory; quadrotor systems get fresh random rotor
        commands and divergent rollouts are re-drawn (bounded retries)."""
        seed = derive_seed(base_seed, self.name, role, "traj", index)
        if self.kind == "linear":
            return simulate(system, t_len, np.random.default_rng(seed),
                            self.noise_stds, self.noise_window, switch=switch)
        for attempt in range(QUAD_RESAMPLE_LIMIT):
            sub = np.random.default_rng(derive_seed(seed, "try", attempt))
            inputs = sample_random_inputs(sub, t_len, system)
            try:
                return simulate(system, t_len, sub, self.noise_stds,
                                self.noise_window, inputs=inputs)
            except DivergenceError:
                logger.warning("quadrotor rollout diverged (system seed %d, "
                               "attempt %d); resampling", system.seed, attempt)
                continue
        raise DivergenceError(
            f"quadrotor rollout diverged {QUAD_RESAMPLE_LIMIT} times "
            f"(system seed {system.seed})")


DISTRIBUTIONS = {
    "linear-dense": Distribution(
        name="linear-dense", kind="linear", n=10, m=5,
        sigma_w2=0.01, sigma_v2=0.01),
    "linear-colored": Distribution(
        name="linear-colored", kind="linear", n=10, m=5,
        sigma_w2=0.01, sigma_v2=0.01, noise_window=5),
    "linear-triangular": Distribution(
        name="linear-triangular", kind="linear", n=10, m=5,
        sigma_w2=0.01, sigma_v2=0.01, mode="upper_triangular",
        input_scale=0.25),
    "quadrotor": Distribution(
        name="quadrotor", kind="quadrotor", n=6, m=3,
        sigma_w2=0.01, sigma_v2=0.01, input_scale=0.1),
}


def get_distribution(name: str) -> Distribution:
    try:
        return DISTRIBUTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown distribution {name!r}; valid: {sorted(DISTRIBUTIONS)}"
        ) from None
