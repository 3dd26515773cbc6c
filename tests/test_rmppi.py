"""Augmented rollouts, mixed cost, nominal propagation, tube loop, growth bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import multivariate_normal

from robust_mppi.costs import CostFunction
from robust_mppi.dynamics import SystemModel, double_integrator
from robust_mppi.feedback import LinearGainsPolicy, ZeroFeedback, contraction_feedback
from robust_mppi.rmppi import (
    BoundParams,
    RmppiController,
    RmppiSettings,
    TubeMppiController,
    augmented_rollouts,
    estimate_value_noise,
    free_energy_growth_bound,
    mixed_cost,
    nominal_state_propagation,
    tube_mppi_step,
)
from robust_mppi.sampling import (
    STREAM_NSP,
    STREAM_ROLLOUT,
    NoisePlan,
    derive_seed,
    free_energy_mc,
    mppi_update,
    rollout_batch,
    shift_control_sequence,
    softmax_weights,
)

from oracles import augmented_density_ratio


def simple_cost(lam=2.0, beta=0.5, sigma=None, crash_cost=1e4, lipschitz=False):
    return CostFunction(
        state_cost=lambda x: np.sum(x * x, axis=-1),
        terminal_cost=lambda x: 2.0 * np.sum(x * x, axis=-1),
        sigma=np.eye(1) if sigma is None else sigma,
        lam=lam,
        beta=beta,
        lipschitz_q=10.0 if lipschitz else None,
        lipschitz_phi=20.0 if lipschitz else None,
        crash_cost=crash_cost,
    )


def control_blowup_model():
    """Cubing position plus control overflows within a few steps once pushed."""

    def deriv(x, u):
        with np.errstate(over="ignore"):
            return np.stack([(x[..., 0] + u[..., 0]) ** 3, u[..., 0]], axis=-1)

    return SystemModel(name="blowup", n_x=2, n_u=1, dt=1.0, deriv=deriv)


def zero_policy_factory(x_star, controls):
    return ZeroFeedback(1)


def make_rmppi(model=None, cost=None, seed=7, x_star0=None,
               policy_factory=zero_policy_factory, **overrides):
    model = double_integrator(dt=0.05) if model is None else model
    cost = simple_cost(lipschitz=True) if cost is None else cost
    settings = dict(
        n_samples=32,
        horizon=6,
        alpha=100.0,
        n_candidates=4,
        nsp_samples=16,
        emv_repeats=4,
        w_bound=0.1,
    )
    settings.update(overrides)
    return RmppiController(
        model, cost, RmppiSettings(**settings), seed, policy_factory, x_star0=x_star0
    )


def test_mixed_cost_matches_hand_values():
    assert mixed_cost(2.0, 5.0, 10.0) == 3.5
    assert mixed_cost(2.0, 50.0, 10.0) == 6.0
    assert mixed_cost(5.0, 2.0, 10.0) == 5.0
    out = mixed_cost(np.array([2.0, 5.0]), np.array([5.0, 2.0]), 10.0)
    assert np.array_equal(out, np.array([3.5, 5.0]))


def test_mixed_cost_threshold_matches_the_nominal_part():
    rng = np.random.default_rng(3)
    alpha = 4.0
    s_star = rng.uniform(0.0, 8.0, size=500)
    s_hat = rng.uniform(0.0, 80.0, size=500)
    blend = mixed_cost(s_star, s_hat, alpha)
    assert np.array_equal(blend <= alpha, s_star <= alpha)
    assert np.all(blend >= s_star)


# Halving is exact away from the bottom of the normal range, which is all the
# equivalence needs, so magnitudes below 1e-300 are drawn as zero.
blend_values = st.floats(-1e12, 1e12).map(lambda v: 0.0 if abs(v) < 1e-300 else v)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(
            *(hnp.arrays(np.float64, n, elements=blend_values) for _ in range(3)),
            hnp.arrays(np.bool_, n),
        )
    )
)
def test_mixed_cost_threshold_equivalence_holds_on_random_triples(triple):
    s_star, s_hat, alpha, ties = triple
    # exact ties are the boundary case the equivalence must also cover
    alpha = np.where(ties, s_star, alpha)
    blend = mixed_cost(s_star, s_hat, alpha)
    assert np.array_equal(blend <= alpha, s_star <= alpha)
    assert np.all(blend >= s_star)


def test_mixed_cost_passes_identical_channels_through_unchanged():
    rng = np.random.default_rng(4)
    c = rng.uniform(-50.0, 50.0, size=1000)
    assert np.array_equal(mixed_cost(c, c, np.inf), c)


def test_augmented_channels_match_a_hand_trace():
    # dt=0.5 double integrator, two zero-noise steps, position gain -1 toward
    # the nominal at (1, 0).  The real copy visits (0, 0.5) then (0.25, 1.0)
    # while the nominal copy stays at (1, 0), so the state sums are 1.3125 and
    # 2.0; terminal doubles the last square sum.  Both correction penalties
    # contribute 0.5 * (1 + 1).
    model = double_integrator(dt=0.5)
    cost = simple_cost(lam=2.0, beta=0.5)
    policy = LinearGainsPolicy(gains=np.array([[[-1.0, 0.0]], [[-1.0, 0.0]]]))
    roll = augmented_rollouts(
        model,
        cost,
        np.array([0.0, 0.0]),
        np.array([1.0, 0.0]),
        np.zeros((2, 1)),
        policy,
        np.zeros((1, 2, 1)),
        alpha=1e9,
    )
    assert roll.nominal[0] == 4.0
    assert roll.penalized[0] == 4.4375
    assert roll.real[0] == 4.4375
    assert roll.mixed[0] == 4.21875
    assert roll.nominal_eval[0] == 4.0
    assert not roll.crashed[0]


def test_augmented_channels_collapse_to_plain_rollouts_without_feedback():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    rng = np.random.default_rng(17)
    controls = 0.5 * rng.normal(size=(6, 1))
    draws = rng.normal(size=(32, 6, 1))
    x0 = np.array([0.3, -0.1])
    roll = augmented_rollouts(
        model, cost, x0, x0, controls, ZeroFeedback(1), draws, alpha=np.inf
    )
    plain = rollout_batch(model, cost, x0, controls, draws, control_term="plain")
    beta = rollout_batch(model, cost, x0, controls, draws, control_term="beta")
    assert np.array_equal(roll.nominal, plain.state_costs)
    assert np.array_equal(roll.penalized, plain.state_costs)
    assert np.array_equal(roll.real, beta.costs)
    assert np.array_equal(roll.nominal_eval, beta.costs)
    assert np.array_equal(roll.mixed, plain.costs)


def test_augmented_rollouts_price_crashed_samples():
    model = control_blowup_model()
    cost = simple_cost(crash_cost=1e4)
    draws = np.zeros((2, 8, 1))
    draws[1, :, 0] = 3.0
    x0 = np.zeros(2)
    roll = augmented_rollouts(
        model, cost, x0, x0, np.zeros((8, 1)), ZeroFeedback(1), draws, alpha=100.0
    )
    assert np.array_equal(roll.crashed, np.array([False, True]))
    for name in ("nominal", "penalized", "real", "mixed", "nominal_eval"):
        channel = getattr(roll, name)
        assert channel[0] == 0.0
        assert channel[1] == 1e4


def test_real_channel_carries_the_likelihood_correction():
    model = double_integrator(dt=0.1)
    cost = simple_cost(lam=3.0, beta=0.25)
    rng = np.random.default_rng(21)
    controls = 0.4 * rng.normal(size=(5, 1))
    draws = rng.normal(size=(3, 5, 1))
    policy = LinearGainsPolicy(gains=np.tile(np.array([[[-1.5, -0.8]]]), (5, 1, 1)))
    x0 = np.array([0.4, -0.2])
    xs0 = np.zeros(2)
    roll = augmented_rollouts(model, cost, x0, xs0, controls, policy, draws, alpha=np.inf)
    for i in range(3):
        x, xs = x0.copy(), xs0.copy()
        corrections = np.empty((5, 1))
        state_sum = 0.0
        for t in range(5):
            corrections[t] = policy.apply(x, xs, t)
            x = model.step(x, controls[t] + corrections[t] + draws[i, t])
            xs = model.step(xs, controls[t] + draws[i, t])
            state_sum += cost.state_cost(x)
        state_sum += cost.terminal_cost(x)
        ratio = augmented_density_ratio(
            controls, corrections, draws[i], cost.sigma_inv
        )
        expected = state_sum - cost.lam * (1.0 - cost.beta) * np.log(ratio)
        assert roll.real[i] == pytest.approx(expected, rel=1e-10)


def test_density_ratio_single_step_value():
    r = augmented_density_ratio(
        np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]]), np.eye(1)
    )
    assert r == pytest.approx(np.exp(-0.5))


def test_density_ratio_matches_gaussian_likelihood_ratio():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2))
    sigma = a @ a.T + 2.0 * np.eye(2)
    sigma_inv = np.linalg.inv(sigma)
    u = rng.normal(size=(5, 2))
    k = 0.5 * rng.normal(size=(5, 2))
    eps = rng.normal(size=(5, 2))
    got = augmented_density_ratio(u, k, eps, sigma_inv)
    expected = 1.0
    for t in range(5):
        v = u[t] + k[t] + eps[t]
        expected *= multivariate_normal.pdf(v, mean=np.zeros(2), cov=sigma)
        expected /= multivariate_normal.pdf(v, mean=u[t] + k[t], cov=sigma)
    assert got == pytest.approx(expected, rel=1e-8)


def test_nominal_propagation_candidate_geometry():
    model = double_integrator(dt=0.1)
    cost = simple_cost()
    controls = np.array([[0.3], [0.1], [0.0]])
    draws = np.zeros((4, 3, 1))
    decision = nominal_state_propagation(
        model,
        cost,
        x=np.array([4.0, 8.0]),
        x_star_prev=np.array([0.0, 0.0]),
        x_star_prop=np.array([2.0, 0.0]),
        controls=controls,
        alpha=np.inf,
        n_candidates=4,
        draws=draws,
    )
    lattice = np.array([[0, 0], [1, 0], [2, 0], [3, 4], [4, 8]], dtype=float)
    assert np.array_equal(decision.candidates, lattice)
    assert decision.index == 4
    assert not decision.fallback
    assert decision.feasible.all()
    assert np.array_equal(decision.control_sequence, shift_control_sequence(controls))


def test_nominal_propagation_breaks_ties_toward_the_lowest_index():
    model = double_integrator(dt=0.1)
    cost = simple_cost()
    x = np.array([0.5, 0.0])
    decision = nominal_state_propagation(
        model, cost, x, x, x, np.zeros((3, 1)), np.inf, 4, np.zeros((4, 3, 1))
    )
    assert decision.index == 0
    assert np.array_equal(decision.control_sequence, np.zeros((3, 1)))
    assert not decision.fallback


def test_nominal_propagation_falls_back_when_nothing_is_feasible():
    model = double_integrator(dt=0.1)
    cost = simple_cost()
    controls = np.array([[0.3], [0.1], [0.0]])
    decision = nominal_state_propagation(
        model,
        cost,
        x=np.array([4.0, 8.0]),
        x_star_prev=np.array([0.0, 0.0]),
        x_star_prop=np.array([2.0, 0.0]),
        controls=controls,
        alpha=-1.0,
        n_candidates=4,
        draws=np.zeros((4, 3, 1)),
    )
    assert decision.fallback
    assert decision.index == 0
    assert not decision.feasible.any()
    assert np.array_equal(decision.control_sequence, controls)


def test_nominal_propagation_requires_two_candidates():
    model = double_integrator(dt=0.1)
    cost = simple_cost()
    with pytest.raises(ValueError, match="at least 2"):
        nominal_state_propagation(
            model, cost, np.zeros(2), np.zeros(2), np.zeros(2),
            np.zeros((3, 1)), np.inf, 1, np.zeros((4, 3, 1)),
        )


def test_nominal_propagation_free_energies_match_direct_rollouts():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    rng = np.random.default_rng(29)
    controls = 0.2 * rng.normal(size=(5, 1))
    draws = NoisePlan.sample(41, 24, 5, cost.sigma_chol).draws
    x = np.array([1.2, -0.4])
    x_prev = np.array([0.8, 0.0])
    x_prop = np.array([0.9, 0.1])
    decision = nominal_state_propagation(
        model, cost, x, x_prev, x_prop, controls, np.inf, 4, draws
    )
    direct_prev = rollout_batch(model, cost, x_prev, controls, draws, control_term="beta")
    assert decision.free_energies[0] == free_energy_mc(direct_prev.costs, cost.lam)
    shifted = shift_control_sequence(controls)
    direct_x = rollout_batch(model, cost, x, shifted, draws, control_term="beta")
    assert decision.free_energies[4] == free_energy_mc(direct_x.costs, cost.lam)
    repeat = nominal_state_propagation(
        model, cost, x, x_prev, x_prop, controls, np.inf, 4, draws
    )
    assert np.array_equal(decision.free_energies, repeat.free_energies)
    assert decision.index == repeat.index


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.2])
def test_bound_params_reject_gamma_outside_the_open_unit_interval(gamma):
    with pytest.raises(ValueError, match="gamma"):
        BoundParams(
            alpha=10.0, gamma=gamma, horizon=5,
            lipschitz_q=1.0, lipschitz_phi=1.0, emv=0.0, w_bound=0.0,
        )


def test_bound_params_reject_bad_constants():
    good = dict(alpha=10.0, gamma=0.5, horizon=5,
                lipschitz_q=1.0, lipschitz_phi=1.0, emv=0.0, w_bound=0.0)
    with pytest.raises(ValueError, match="horizon"):
        BoundParams(**{**good, "horizon": 0})
    with pytest.raises(ValueError, match="emv"):
        BoundParams(**{**good, "emv": -0.5})
    with pytest.raises(ValueError, match="w_bound"):
        BoundParams(**{**good, "w_bound": np.nan})
    with pytest.raises(ValueError, match="lipschitz_q"):
        BoundParams(**{**good, "lipschitz_q": np.inf})


def test_growth_bound_frozen_arithmetic():
    # factor = 2*0.5^2 + 1*(1 - 0.25)/0.5 = 2.0; the state sits still so the
    # deviation is the tracking offset plus, when included, the ball radius.
    model = double_integrator(dt=0.5)
    params = BoundParams(
        alpha=10.0, gamma=0.5, horizon=2,
        lipschitz_q=1.0, lipschitz_phi=2.0, emv=0.5, w_bound=0.25,
    )
    x = np.zeros(2)
    x_star = np.array([1.0, 0.0])
    u = np.zeros(1)
    with_ball, without = free_energy_growth_bound(params, model, x, x_star, u, fe_nominal=3.0)
    assert with_ball == 10.5
    assert without == 10.0
    assert with_ball - without == 0.5


def test_tube_step_reset_rule_follows_the_gap_sign():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(3, 64, 8, cost.sigma_chol).draws
    controls = np.zeros((8, 1))
    policy = ZeroFeedback(1)
    worse = tube_mppi_step(
        model, cost, np.array([1.0, 0.0]), np.zeros(2), controls, policy, draws, alpha=0.0
    )
    assert worse.fe_real > worse.fe_nom
    assert not worse.reset
    better = tube_mppi_step(
        model, cost, np.zeros(2), np.array([1.0, 0.0]), controls, policy, draws, alpha=0.0
    )
    assert better.fe_real < better.fe_nom
    assert better.reset


def test_tube_step_reset_restarts_the_tube_at_the_measurement():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(5, 64, 8, cost.sigma_chol).draws
    controls = np.zeros((8, 1))
    x = np.array([0.6, -0.2])
    x_star = np.array([0.1, 0.0])
    result = tube_mppi_step(
        model, cost, x, x_star, controls, ZeroFeedback(1), draws, alpha=1e9
    )
    assert result.reset
    real = rollout_batch(model, cost, x, controls, draws, control_term="plain")
    u_real = mppi_update(controls, softmax_weights(real.costs, cost.lam), draws, 0)
    assert np.array_equal(result.controls, shift_control_sequence(u_real))
    assert np.array_equal(result.x_star, model.step(x, u_real[0]))
    assert result.fe_real == free_energy_mc(real.costs, cost.lam)
    assert np.array_equal(result.action, model.clamp(u_real[0]))


def test_tube_step_keeps_the_nominal_plan_without_reset():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(5, 64, 8, cost.sigma_chol).draws
    controls = np.zeros((8, 1))
    x = np.array([0.6, -0.2])
    x_star = np.array([0.1, 0.0])
    result = tube_mppi_step(
        model, cost, x, x_star, controls, ZeroFeedback(1), draws, alpha=-1e9
    )
    assert not result.reset
    nom = rollout_batch(model, cost, x_star, controls, draws, control_term="plain")
    u_nom = mppi_update(controls, softmax_weights(nom.costs, cost.lam), draws, 0)
    assert np.array_equal(result.controls, shift_control_sequence(u_nom))
    assert np.array_equal(result.x_star, model.step(x_star, u_nom[0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tube_step_degenerate_batch_falls_back():
    model = control_blowup_model()
    cost = simple_cost(crash_cost=5e3)
    x = np.array([2.0, 0.0])
    controls = np.zeros((8, 1))
    result = tube_mppi_step(
        model, cost, x, x, controls, ZeroFeedback(1), np.zeros((4, 8, 1)), alpha=10.0
    )
    assert result.degenerate
    assert not result.reset
    assert result.fe_real == 5e3 and result.fe_nom == 5e3
    assert np.array_equal(result.action, np.zeros(1))
    assert np.array_equal(result.x_star, model.step(x, controls[0]))


def test_tube_controller_is_deterministic_and_counts_resets():
    model = double_integrator(dt=0.05)
    cost = simple_cost()

    def make():
        return TubeMppiController(
            model, cost, n_samples=32, horizon=6, seed=5,
            policy_factory=zero_policy_factory, alpha=1e9,
        )

    a, b = make(), make()
    x = np.array([0.8, -0.3])
    resets = 0
    for _ in range(4):
        ua, ra = a.step(x)
        ub, rb = b.step(x)
        assert np.array_equal(ua, ub)
        assert ra.fe_real == rb.fe_real
        assert ra.reset == rb.reset is True
        resets += ra.reset
        x = model.step(x, ua)
    assert resets == 4
    assert a.step_index == 4


def test_value_noise_estimate_is_deterministic_and_self_consistent():
    costs = np.random.default_rng(13).uniform(0.0, 40.0, size=6 * 32 + 5)
    emv = estimate_value_noise(costs, 2.0, 6)
    assert emv == estimate_value_noise(costs, 2.0, 6)
    # six contiguous sub-batches of 32; the last 5 samples are dropped
    estimates = [free_energy_mc(costs[32 * k: 32 * (k + 1)], 2.0) for k in range(6)]
    assert emv == 3.0 * np.std(estimates, ddof=1)


def test_value_noise_rejects_too_few_batches_or_samples():
    with pytest.raises(ValueError, match="repeats"):
        estimate_value_noise(np.zeros(16), 1.0, 1)
    with pytest.raises(ValueError, match="2 \\* repeats"):
        estimate_value_noise(np.zeros(7), 1.0, 4)


def test_value_noise_shrinks_with_more_samples():
    model = double_integrator(dt=0.05)
    cost = simple_cost()

    def nominal_costs(n):
        draws = NoisePlan.sample(13, n, 10, cost.sigma_chol).draws
        res = rollout_batch(
            model, cost, np.array([1.0, 0.5]), np.zeros((10, 1)), draws, control_term="beta"
        )
        return res.costs

    coarse = estimate_value_noise(nominal_costs(8 * 8), cost.lam, 8)
    fine = estimate_value_noise(nominal_costs(8 * 512), cost.lam, 8)
    assert fine < coarse


def test_rmppi_value_noise_is_the_batch_means_of_its_nominal_channel():
    # N=30 in 4 sub-batches of 7; the last 2 samples are dropped.  The
    # tracking gains and the offset start keep the real channel apart from
    # the nominal one.
    policy = LinearGainsPolicy(gains=np.tile(np.array([[[-1.5, -0.8]]]), (6, 1, 1)))
    x_star0 = np.array([0.1, 0.3])
    controller = make_rmppi(
        n_samples=30, emv_repeats=4, x_star0=x_star0,
        policy_factory=lambda x_star, controls: policy,
    )
    x = np.array([0.5, -0.2])
    _, rec = controller.step(x)
    draws = NoisePlan.sample(
        derive_seed(7, 0, STREAM_ROLLOUT), 30, 6, controller.cost.sigma_chol
    ).draws
    roll = augmented_rollouts(
        controller.model, controller.cost, x, x_star0, np.zeros((6, 1)), policy,
        draws, alpha=100.0,
    )
    assert not np.array_equal(roll.real, roll.nominal_eval)
    lam = controller.cost.lam
    estimates = [free_energy_mc(roll.nominal_eval[7 * k: 7 * (k + 1)], lam)
                 for k in range(4)]
    assert rec.emv == 3.0 * np.std(estimates, ddof=1)
    assert rec.fe_nom == free_energy_mc(roll.nominal_eval, lam)


def test_rmppi_step_draws_only_rollout_and_nsp_noise(monkeypatch):
    import robust_mppi.rmppi as rmppi_module

    drawn = []

    def recording_derive_seed(master, step, stream):
        drawn.append((step, stream))
        return derive_seed(master, step, stream)

    monkeypatch.setattr(rmppi_module, "derive_seed", recording_derive_seed)
    controller = make_rmppi()
    x = np.array([0.5, -0.2])
    for _ in range(3):
        action, _ = controller.step(x)
        x = controller.model.step(x, action)
    assert drawn == [
        (0, STREAM_ROLLOUT),
        (1, STREAM_NSP), (1, STREAM_ROLLOUT),
        (2, STREAM_NSP), (2, STREAM_ROLLOUT),
    ]


@pytest.mark.parametrize("n_samples, emv_repeats", [(7, 4), (32, 1)])
def test_rmppi_rejects_too_few_samples_for_the_value_noise(n_samples, emv_repeats):
    with pytest.raises(ValueError, match="n_samples >= 2 \\* emv_repeats"):
        make_rmppi(n_samples=n_samples, emv_repeats=emv_repeats)


def test_rmppi_requires_lipschitz_constants():
    with pytest.raises(ValueError, match="lipschitz"):
        make_rmppi(cost=simple_cost(lipschitz=False))


@pytest.mark.parametrize("field", ["lipschitz_q", "lipschitz_phi"])
@pytest.mark.parametrize("value", [np.nan, -1.0, np.inf])
def test_rmppi_rejects_bad_lipschitz_constants_when_built(field, value):
    base = simple_cost(lipschitz=True)
    cost = CostFunction(
        state_cost=base.state_cost,
        terminal_cost=base.terminal_cost,
        sigma=base.sigma,
        lam=base.lam,
        beta=base.beta,
        lipschitz_q=value if field == "lipschitz_q" else base.lipschitz_q,
        lipschitz_phi=value if field == "lipschitz_phi" else base.lipschitz_phi,
    )
    with pytest.raises(ValueError, match=field):
        make_rmppi(cost=cost)


def test_rmppi_controller_is_deterministic_across_instances():
    a = make_rmppi()
    b = make_rmppi()
    model = a.model
    x = np.array([0.5, -0.2])
    for _ in range(3):
        ua, ra = a.step(x)
        ub, rb = b.step(x)
        assert np.array_equal(ua, ub)
        for key in ("fe_real", "fe_nom", "bound", "bound_no_d", "emv", "gamma_hat"):
            assert getattr(ra, key) == getattr(rb, key)
        assert ra.cand_idx == rb.cand_idx
        assert np.array_equal(ra.x_star, rb.x_star)
        x = model.step(x, ua)


def test_rmppi_resolves_the_nominal_update_one_step_late():
    controller = make_rmppi()
    x = np.array([0.5, -0.2])
    _, rec0 = controller.step(x)
    assert rec0.cand_idx == -1
    assert controller._nsp_pending
    _, rec1 = controller.step(controller.model.step(x, np.zeros(1)))
    assert 0 <= rec1.cand_idx <= 4


def test_rmppi_honors_a_fixed_tracking_rate():
    controller = make_rmppi(gamma=0.8)
    _, rec = controller.step(np.array([0.5, -0.2]))
    assert rec.gamma_hat == 0.8


def test_rmppi_rate_fallback_with_an_uninformative_window():
    controller = make_rmppi()
    _, rec = controller.step(np.array([0.5, -0.2]))
    # the first residual is zero (the nominal starts at the measurement), so
    # the trailing window has no decay information yet
    assert rec.gamma_hat == 1.0 - 1e-3


def test_rmppi_bound_wiring_matches_its_parts():
    controller = make_rmppi()
    model = controller.model
    x = np.array([0.5, -0.2])
    for _ in range(3):
        action, rec = controller.step(x)
        g = rec.gamma_hat
        g_t = g ** controller.s.horizon
        factor = 20.0 * g_t + 10.0 * (1.0 - g_t) / (1.0 - g)
        assert rec.bound - rec.bound_no_d == pytest.approx(
            factor * controller.s.w_bound, rel=1e-12
        )
        deviation = np.linalg.norm(model.step(x, action) - x)
        deviation += np.linalg.norm(rec.x_star - x)
        expected = (controller.s.alpha - rec.fe_nom) + 2.0 * rec.emv
        expected += factor * deviation
        assert rec.bound_no_d == pytest.approx(expected, rel=1e-12)
        x = model.step(x, action)


def test_rmppi_counts_contraction_violations():
    def impossible_rate_factory(x_star, controls):
        return contraction_feedback(double_integrator(dt=0.05), np.eye(2), rate=50.0)

    controller = make_rmppi(
        policy_factory=impossible_rate_factory, x_star0=np.zeros(2)
    )
    _, rec = controller.step(np.array([1.0, 0.0]))
    assert rec.contraction_violation is True


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rmppi_degenerate_batch_falls_back():
    model = control_blowup_model()
    controller = make_rmppi(
        model=model, horizon=8, n_samples=4, nsp_samples=4, emv_repeats=2
    )
    x = np.array([2.0, 0.0])
    action, rec = controller.step(x)
    assert rec.degen is True
    assert np.array_equal(action, np.zeros(1))
    assert rec.fe_real == controller.cost.crash_cost
    assert np.isfinite(rec.bound)
    assert not controller._nsp_pending
    _, rec1 = controller.step(x)
    assert rec1.cand_idx == -1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rmppi_fully_crashed_step_reports_zero_value_noise():
    # every sub-batch estimate is then exactly crash_cost
    controller = make_rmppi(
        model=control_blowup_model(), horizon=8, n_samples=12, emv_repeats=3
    )
    _, rec = controller.step(np.array([2.0, 0.0]))
    assert rec.degen is True
    assert rec.emv == 0.0
    assert estimate_value_noise(np.full(12, 1e4), 2.0, 3) == 0.0


def test_rmppi_respects_actuation_limits():
    model = double_integrator(dt=0.05, control_limit=0.05)
    controller = make_rmppi(model=model)
    x = np.array([2.0, 0.0])
    for _ in range(3):
        action, _ = controller.step(x)
        assert np.all(np.abs(action) <= 0.05)
        x = model.step(x, action)
