"""System distributions: lookup by name, the noise the model-aware filters
are told (`evaluation.make_predictor`'s Q and R), the bounded re-draw of
diverging quadrotor rollouts, and switched quadrotor trajectories."""

import logging
import re

import numpy as np
import pytest

from moplab import distributions, evaluation
from moplab.distributions import DISTRIBUTIONS, QUAD_RESAMPLE_LIMIT, get_distribution
from moplab.systems import DivergenceError


def test_unknown_distribution_lists_the_valid_names():
    valid = "['linear-colored', 'linear-dense', 'linear-triangular', 'quadrotor']"
    with pytest.raises(KeyError, match=re.escape(f"'linear-cubic'; valid: {valid}")):
        get_distribution("linear-cubic")


def filter_noise(name):
    """The Q and R `make_predictor` hands the model-aware filter of `name`."""
    dist = get_distribution(name)
    systems, _ = evaluation.test_population(dist, 2, 3, 0)
    scored = evaluation.make_predictor("ekf" if name == "quadrotor" else "kf", systems, dist)
    return dist, scored.q, scored.r


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_filter_noise_stds_scale_by_the_root_of_the_noise_window(name):
    dist, q, r = filter_noise(name)
    window = 5 if name == "linear-colored" else 1
    assert dist.noise_window == window
    np.testing.assert_allclose(q, window * dist.sigma_w2 * np.eye(dist.n), rtol=1e-15, atol=0)
    np.testing.assert_allclose(r, window * dist.sigma_v2 * np.eye(dist.m), rtol=1e-15, atol=0)


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


def test_a_switched_quadrotor_population_switches_at_its_switch_time():
    dist, k = get_distribution("quadrotor"), 20
    _, plain = evaluation.test_population(dist, 6, 40, 5)
    _, switched = evaluation.test_population(dist, 6, 40, 5, switch_at=k)
    plain, switched = (np.stack([t.tokens for t in trajs]) for trajs in (plain, switched))
    assert np.array_equal(switched[:, :k], plain[:, :k])
    # the inputs are the same draws; from k on every output differs
    assert np.array_equal(switched[..., dist.m:], plain[..., dist.m:])
    assert (switched[:, k:, :dist.m] != plain[:, k:, :dist.m]).any(axis=-1).all()
