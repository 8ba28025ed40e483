"""The distribution and experiment preset tables: the noise the filters are
told, the token layouts, name lookup, and that every preset's training run
covers what its evaluation scores."""

import math

import pytest

from moplab.distributions import DISTRIBUTIONS, get_distribution
from moplab.presets import EXPERIMENTS, desk_model_config, get_experiment


def test_colored_filter_gets_the_stationary_moving_average_std():
    # a window of 5 i.i.d. draws of variance 0.01 sums to variance 0.05
    std = math.sqrt(0.05)
    assert get_distribution("linear-colored").filter_noise_stds() == (std, std)


def test_iid_filter_gets_the_noise_stds():
    assert get_distribution("linear-dense").filter_noise_stds() == (0.1, 0.1)


def test_quadrotor_tokens_carry_the_rotor_commands():
    quad = get_distribution("quadrotor")
    assert (quad.token_dim, quad.output_dim) == (5, 3)
    dense = get_distribution("linear-dense")
    assert (dense.token_dim, dense.output_dim) == (5, 5)


@pytest.mark.parametrize("lookup, table", [(get_distribution, DISTRIBUTIONS),
                                           (get_experiment, EXPERIMENTS)])
def test_unknown_name_lists_the_valid_ones(lookup, table):
    with pytest.raises(KeyError) as exc_info:
        lookup("linear-cubic")
    message = str(exc_info.value)
    assert "'linear-cubic'" in message
    for name in table:
        assert repr(name) in message


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_preset_trains_what_it_scores(name):
    preset = EXPERIMENTS[name]
    train = preset.train
    # every scored position is a trained one, and every prompt fits the model
    assert preset.eval_horizon <= train.train_len
    assert train.train_len - 1 <= train.model.context
    dist = get_distribution(preset.distribution)
    assert (train.model.token_dim, train.model.output_dim) \
        == (dist.token_dim, dist.output_dim)
    assert train.model == desk_model_config(preset.distribution)
