"""Experiment presets: one per headline figure, each fully determining the
system distribution, model size, training budget, and evaluation plan at
desk scale (paper-scale budgets stay reachable through TrainConfig).

Two presets also write the paper's explanation of their curves into
eval/report.json, chosen by distribution and switch_at alone:
hard-triangular (linear-triangular) reports max_t ||A^t||_2 for its test
systems and for linear-dense under "max_power_norm", and linear-iid
(linear-dense, no switch) reports the robustness probe under "robustness".
See `evaluation` for both."""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import get_distribution
from .model import ModelConfig
from .training import TrainConfig

__all__ = ["ExperimentPreset", "EXPERIMENTS", "get_experiment", "desk_model_config"]


def desk_model_config(dist_name: str) -> ModelConfig:
    """Desk-scale model sized for the given distribution's token layout."""
    dist = get_distribution(dist_name)
    return ModelConfig(layers=4, heads=4, embed_dim=64, context=128,
                       token_dim=dist.token_dim, output_dim=dist.m,
                       precision="f32", input_scale=dist.input_scale)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    train: TrainConfig
    eval_n: int = 100
    eval_horizon: int = 50
    baselines: tuple = ("kf", "ar-ols")
    switch_at: int | None = None
    # a preset that sets neither trains its own model from `train`
    shift_sigma2: tuple | None = None  # scores the linear-iid model at these noise levels
    scaling_grid: tuple | None = None  # trains one model per (M, T^tr) cell

    @property
    def distribution(self) -> str:
        return self.train.preset


def _linear_train(dist_name, **kw) -> TrainConfig:
    """TrainConfig's defaults with the desk model for `dist_name`."""
    return TrainConfig(preset=dist_name, model=desk_model_config(dist_name), **kw)


EXPERIMENTS = {
    "linear-iid": ExperimentPreset(
        name="linear-iid",
        train=_linear_train("linear-dense"),
    ),
    "linear-colored": ExperimentPreset(
        name="linear-colored",
        train=_linear_train("linear-colored"),
    ),
    "linear-switching": ExperimentPreset(
        name="linear-switching",
        # positions up to the 100-step evaluation horizon must be trained,
        # so this preset meta-trains on length-100 prompts
        train=_linear_train("linear-dense", train_len=100, steps=4000),
        eval_horizon=100,
        switch_at=50,
        baselines=("kf",),
    ),
    "quadrotor": ExperimentPreset(
        name="quadrotor",
        train=_linear_train("quadrotor"),
        baselines=("ekf",),
    ),
    "hard-triangular": ExperimentPreset(
        name="hard-triangular",
        train=_linear_train("linear-triangular"),
        baselines=("kf",),
    ),
    "dist-shift": ExperimentPreset(
        name="dist-shift",
        train=_linear_train("linear-dense"),   # reuses the linear-iid model
        baselines=("kf",),
        shift_sigma2=(0.01, 0.04, 0.09),
    ),
    "risk-scaling": ExperimentPreset(
        name="risk-scaling",
        train=_linear_train("linear-dense", steps=1500),
        baselines=("kf",),
        scaling_grid=((500, 50), (1000, 50), (2000, 50), (4000, 50)),
    ),
}


def get_experiment(name: str) -> ExperimentPreset:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; valid: {sorted(EXPERIMENTS)}"
        ) from None
