"""System distributions: lookup by name, the noise stds the model-aware
filters are handed, and the bounded re-draw of diverging quadrotor
rollouts."""

import logging
import re

import numpy as np
import pytest

from moplab import distributions
from moplab.distributions import DISTRIBUTIONS, QUAD_RESAMPLE_LIMIT, get_distribution
from moplab.systems import DivergenceError


def test_unknown_distribution_lists_the_valid_names():
    valid = "['linear-colored', 'linear-dense', 'linear-triangular', 'quadrotor']"
    with pytest.raises(KeyError, match=re.escape(f"'linear-cubic'; valid: {valid}")):
        get_distribution("linear-cubic")


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_filter_noise_stds_scale_by_the_root_of_the_noise_window(name):
    dist = get_distribution(name)
    if name == "linear-colored":
        assert dist.noise_window == 5
        np.testing.assert_allclose(dist.filter_noise_stds(),
                                   np.sqrt(5) * np.array(dist.noise_stds), rtol=1e-15, atol=0)
    else:
        assert dist.filter_noise_stds() == dist.noise_stds


def test_quadrotor_gives_up_after_the_resample_limit(monkeypatch, caplog):
    attempts = []

    def diverge(*args, **kwargs):
        attempts.append(None)
        raise DivergenceError("forced")

    monkeypatch.setattr(distributions, "simulate", diverge)
    dist = get_distribution("quadrotor")
    system = dist.sample_system(7, "test", 3)
    with caplog.at_level(logging.WARNING, logger=distributions.logger.name), \
            pytest.raises(DivergenceError, match=re.escape(
                f"diverged {QUAD_RESAMPLE_LIMIT} times (test system 3)")):
        dist.make_trajectory(system, 20, 7, "test", 3)
    assert len(attempts) == QUAD_RESAMPLE_LIMIT
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, f"quadrotor rollout diverged (test system 3, attempt {k}); "
                          "resampling")
        for k in range(QUAD_RESAMPLE_LIMIT)]
