"""System sampling, simulation, noise windows, the quadrotor re-draw, and
matrix-power norms."""

import numpy as np
import pytest

from moplab import distributions, linalg
from moplab.distributions import get_distribution
from moplab.seeding import derive_seed, stream
from moplab.systems import (
    GRAVITY, TAU, DivergenceError, LinearSystem, QuadrotorSystem, SwitchSpec,
    _noise_sequences, quadrotor_jacobian,
    quadrotor_step, sample_linear_systems, sample_quadrotor,
    sample_random_inputs, simulate,
)


STDS = (0.1, 0.1)                    # (sigma_w, sigma_v) handed to simulate


def scalar_system(a=0.9, c=1.0):
    return LinearSystem(a=np.array([[a]]), c=np.array([[c]]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_dense_sample_hits_target_radius():
    rng = stream(0, "t")
    for _ in range(5):
        system = sample_linear_systems([rng], 10, 5)[0]
        assert linalg.spectral_radius(system.a) == pytest.approx(0.95, abs=1e-3)
        assert system.c.shape == (5, 10)
        assert system.c.min() >= 0.0 and system.c.max() <= 1.0


def test_upper_triangular_sample_structure():
    rng = stream(1, "t")
    system = sample_linear_systems([rng], 8, 4, mode="upper_triangular")[0]
    below = system.a[np.tril_indices(8, k=-1)]
    assert np.array_equal(below, np.zeros_like(below))
    diag = np.diag(system.a)
    assert np.abs(diag).max() <= 0.95
    upper = system.a[np.triu_indices(8, k=1)]
    assert np.abs(upper).max() <= 1.0


def test_sample_deterministic_per_seed():
    s1 = sample_linear_systems([stream(7, "x")], 10, 5)[0]
    s2 = sample_linear_systems([stream(7, "x")], 10, 5)[0]
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.c, s2.c)


@pytest.mark.parametrize("mode", ["dense", "upper_triangular"])
def test_stacked_draw_is_each_generators_own_draw(mode):
    # system j is A, then C, from generator j alone; a dense A is rescaled
    # by its own radius
    systems = sample_linear_systems([stream(9, "stack", j) for j in range(5)], 6, 3,
                                    mode=mode, seeds=range(5))
    for j, system in enumerate(systems):
        rng = stream(9, "stack", j)
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
        if mode == "dense":
            a *= 0.95 / linalg.spectral_radius(a)
        else:
            a = np.triu(a, k=1)
            a[np.diag_indices(6)] = rng.uniform(-0.95, 0.95, size=6)
        assert np.array_equal(system.a, a)
        assert np.array_equal(system.c, rng.uniform(0.0, 1.0, size=(3, 6)))
        assert system.seed == j


def test_sample_rejects_bad_mode():
    with pytest.raises(ValueError):
        sample_linear_systems([stream(0)], 4, 2, mode="lower")[0]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_zero_noise_trajectory_is_zero():
    traj = simulate(scalar_system(), 50, stream(3), (0.0, 0.0))
    assert np.array_equal(traj.ys, np.zeros((50, 1)))


def test_pure_output_noise_passthrough():
    # with sigma_w = 0 the state never leaves zero, so y_t is exactly the
    # output-noise draw (eps_w is drawn first, then eps_v: replicate that)
    seed = 99
    traj = simulate(scalar_system(), 40, np.random.default_rng(seed), (0.0, 0.3))
    ref = np.random.default_rng(seed)
    ref.standard_normal((40, 1))              # the (unused) process draws
    v = 0.3 * ref.standard_normal((40, 1))
    assert np.array_equal(traj.ys, v)


def test_scalar_stationary_variance_oracle():
    # var(y) = c^2 q / (1 - a^2) + r for the stationary scalar system
    system = scalar_system(a=0.9, c=1.0)
    t_len = 101_000
    traj = simulate(system, t_len, stream(12, "var"), STDS)
    ys = traj.ys[1000:, 0]
    expected = 0.01 / (1 - 0.81) + 0.01
    assert ys.var() == pytest.approx(expected, rel=0.05)


def test_divergence_guard():
    system = scalar_system(a=2.0)
    with pytest.raises(DivergenceError):
        simulate(system, 200, stream(5), STDS)


def test_switch_prefix_bit_identical():
    rng = stream(21, "sw")
    system = sample_linear_systems([rng], 6, 3, seeds=[1])[0]
    other = sample_linear_systems([rng], 6, 3, seeds=[2])[0]
    base = simulate(system, 60, stream(77), STDS)
    switched = simulate(system, 60, stream(77), STDS, switch=SwitchSpec(30, other))
    assert np.array_equal(base.ys[:30], switched.ys[:30])
    assert not np.array_equal(base.ys[30:], switched.ys[30:])


def test_switch_time_validated():
    system = scalar_system()
    with pytest.raises(ValueError):
        simulate(system, 10, stream(0), STDS, switch=SwitchSpec(10, system))


def test_mean_output_is_zero_over_population():
    rng = stream(9, "pop")
    means = []
    for i in range(200):
        system = sample_linear_systems([rng], 6, 3)[0]
        traj = simulate(system, 50, stream(9, "pop-traj", i), STDS)
        means.append(traj.ys.mean())
    means = np.array(means)
    stderr = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean()) <= 3 * stderr


def test_states_recorded_when_asked():
    system = scalar_system()
    traj = simulate(system, 20, stream(2), STDS, record_states=True)
    assert traj.xs.shape == (20, 1)
    # output = c x + v is consistent with the recorded states
    assert np.isfinite(traj.xs).all()


# ---------------------------------------------------------------------------
# colored noise
# ---------------------------------------------------------------------------

def colored_noise(seed, t_len=100_000):
    """Process and output noise of a scalar system with innovation variance
    0.01 over the window `linear-colored` runs (5)."""
    window = get_distribution("linear-colored").noise_window
    w, v = _noise_sequences(scalar_system(), t_len, STDS, window, stream(seed, "cn"))
    return w[:, 0], v[:, 0]


def test_colored_noise_variance():
    for seq in colored_noise(4):
        assert seq.var() == pytest.approx(0.05, rel=0.05)


def test_colored_noise_lag_autocovariance():
    for seq in colored_noise(5):
        seq = seq - seq.mean()

        def autocov(lag):
            return float((seq[:-lag] * seq[lag:]).mean())

        assert autocov(1) == pytest.approx(0.04, rel=0.05)   # 4 shared innovations
        assert abs(autocov(5)) <= 0.002                       # disjoint windows


def test_noise_window_below_one_rejected():
    with pytest.raises(ValueError):
        simulate(scalar_system(), 10, stream(0), STDS, window=0)


# ---------------------------------------------------------------------------
# quadrotor
# ---------------------------------------------------------------------------

def quad(mass=1.0, arm=1.0, inertia=1.0):
    c = stream(0, "qc").uniform(0, 1, (3, 6))
    return QuadrotorSystem(mass=mass, arm_length=arm, inertia=inertia, c=c)


def test_quadrotor_hover_fixed_point():
    system = quad(mass=1.3)
    assert system.hover_thrust == system.mass * GRAVITY / 2
    hover = np.full(2, system.hover_thrust)
    nxt = quadrotor_step(np.zeros(6), hover, np.zeros(6), system)
    assert np.allclose(nxt, 0.0, atol=1e-14)
    with pytest.raises(TypeError):                # the constants are not fields
        QuadrotorSystem(mass=1.0, arm_length=1.0, inertia=1.0, c=system.c,
                        gravity=9.81)


def test_quadrotor_free_fall_row():
    system = quad()
    nxt = quadrotor_step(np.zeros(6), np.zeros(2), np.zeros(6), system)
    expected = np.zeros(6)
    expected[4] = -GRAVITY * TAU                  # zdot drops by g tau = 1.0
    assert np.allclose(nxt, expected, atol=1e-14)
    assert nxt[4] == pytest.approx(-1.0)


def test_quadrotor_torque_row():
    system = quad(mass=1.0, arm=1.0, inertia=1.0)
    nxt = quadrotor_step(np.zeros(6), np.array([1.0, 0.0]), np.zeros(6), system)
    assert nxt[5] == pytest.approx(0.1)           # l tau / J


def test_quadrotor_jacobian_entry_at_rest():
    jac = quadrotor_jacobian(np.zeros(6))
    assert jac[0, 3] == pytest.approx(np.cos(0.0) * TAU)  # = 0.1


def test_sample_quadrotor_ranges():
    for i in range(10):
        system = sample_quadrotor(stream(11, "q", i))
        assert 0.5 <= system.mass <= 2.0
        assert 0.5 <= system.arm_length <= 2.0
        assert 0.5 <= system.inertia <= 2.0
        assert system.c.shape == (3, 6)
        assert system.c.min() >= 0.0 and system.c.max() <= 1.0


def test_quadrotor_seeded_repeatability():
    s1 = sample_quadrotor(stream(13, "q"))
    s2 = sample_quadrotor(stream(13, "q"))
    assert (s1.mass, s1.arm_length, s1.inertia) == (s2.mass, s2.arm_length, s2.inertia)
    assert np.array_equal(s1.c, s2.c)
    u1 = sample_random_inputs(stream(14), 20, s1)
    u2 = sample_random_inputs(stream(14), 20, s2)
    assert np.array_equal(u1, u2)
    assert np.abs(u1 - s1.hover_thrust).max() <= 0.5


def test_quadrotor_zero_noise_deterministic():
    system = sample_quadrotor(stream(15, "q"))
    inputs = sample_random_inputs(stream(16), 30, system)
    t1 = simulate(system, 30, stream(17), (0.0, 0.0), inputs=inputs)
    t2 = simulate(system, 30, stream(17), (0.0, 0.0), inputs=inputs)
    assert np.array_equal(t1.ys, t2.ys)


def diverging_simulate(monkeypatch, failures):
    """Make `Distribution.make_trajectory`'s simulate raise DivergenceError
    on its first `failures` calls; return the inputs of every call."""
    real, inputs = distributions.simulate, []

    def fake(*args, **kw):
        inputs.append(kw["inputs"])
        if len(inputs) <= failures:
            raise DivergenceError("forced")
        return real(*args, **kw)

    monkeypatch.setattr(distributions, "simulate", fake)
    return inputs


@pytest.mark.parametrize("k", [1, 3])
def test_quadrotor_redraws_inputs_after_a_divergence(monkeypatch, k):
    dist = get_distribution("quadrotor")
    system = dist.sample_system(7, "test", 0)
    inputs = diverging_simulate(monkeypatch, k)
    traj = dist.make_trajectory(system, 20, 7, "test", 0)
    assert len(inputs) == k + 1
    # attempt k draws its inputs, then its noise, from its own stream
    sub = np.random.default_rng(derive_seed(derive_seed(7, "quadrotor", "test", "traj", 0),
                                            "try", k))
    want_inputs = sample_random_inputs(sub, 20, system)
    want = simulate(system, 20, sub, dist.noise_stds, inputs=want_inputs)
    assert np.array_equal(traj.us, want_inputs) and np.array_equal(inputs[k], want_inputs)
    assert np.array_equal(traj.ys, want.ys)


# ---------------------------------------------------------------------------
# contraction profile: ||A^t||_2 over t
# ---------------------------------------------------------------------------

def test_contraction_profile_scaled_identity():
    norms = linalg.matrix_power_norms(0.5 * np.eye(2), 10)
    assert np.allclose(norms, 0.5 ** np.arange(11), rtol=1e-9)


def test_contraction_profile_jordan_overshoot():
    a = np.array([[0.9, 1.0], [0.0, 0.9]])
    norms = linalg.matrix_power_norms(a, 10)
    closed = np.array([[0.9**5, 5 * 0.9**4], [0.0, 0.9**5]])
    assert norms[5] == pytest.approx(np.linalg.norm(closed, 2), rel=1e-6)
    assert norms[5] > 1.0


def test_contraction_profile_dense_eventually_decreasing():
    # a draw whose dominant eigenvalue is real: ||A^t|| decays monotonically
    # past a finite burn-in (complex-pair draws oscillate under a decaying
    # envelope instead, covered below)
    system = sample_linear_systems([stream(31, "cp", 0)], 10, 5)[0]
    diffs = np.diff(linalg.matrix_power_norms(system.a, 100))
    t0 = next(i for i in range(len(diffs)) if (diffs[i:] < 0).all())
    assert t0 <= 100


def test_contraction_profile_dense_envelope_decays():
    for i in range(5):
        system = sample_linear_systems([stream(31, "cp", i)], 10, 5)[0]
        norms = linalg.matrix_power_norms(system.a, 100)
        assert norms[60:].max() < norms[:40].max() * 0.1


def test_matrix_power_norms_match_lapack_on_dense_draws():
    for i in range(5):
        a = sample_linear_systems([stream(33, "lapack", i)], 10, 5)[0].a
        norms = linalg.matrix_power_norms(a, 100)
        want = np.array([np.linalg.norm(np.linalg.matrix_power(a, t), 2)
                         for t in range(101)])
        assert (np.abs(norms - want) / want).max() <= 1e-12


def test_derive_seed_stability():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "ab") != derive_seed(1, "a", "b")
    with pytest.raises(TypeError):
        derive_seed(1.5)
