"""Augmented rollouts, mixed cost, nominal propagation, tube loop, growth bound."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import multivariate_normal

from robust_mppi.costs import CostFunction
from robust_mppi.dynamics import SystemModel, double_integrator, nonlinear_benchmark
from robust_mppi.feedback import (
    UNCERTIFIED_RATE,
    LinearGainsPolicy,
    ZeroFeedback,
    contraction_feedback,
)
from robust_mppi.rmppi import (
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
    MppiController,
    NoisePlan,
    derive_seed,
    free_energy_mc,
    mppi_update,
    propagate,
    rollout_batch,
    shift_control_sequence,
    softmax_weights,
)

from oracles import TwoCallRmppiController, augmented_density_ratio, candidate_line_loop


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


def fuse_model(radius):
    """Double integrator whose rows go non-finite once ``|position|`` passes ``radius``.

    Past ``+radius`` the position becomes NaN, past ``-radius`` the velocity
    becomes infinite, so a crash shows in either coordinate alone.
    """

    def deriv(x, u):
        pos, vel = x[..., 0], x[..., 1]
        return np.stack(
            [np.where(pos > radius, np.nan, vel), np.where(pos < -radius, np.inf, u[..., 0])],
            axis=-1,
        )

    return SystemModel("fuse", 2, 1, 0.5, deriv)


def zero_policy_factory(x_star, controls):
    return ZeroFeedback(1)


def make_rmppi(model=None, cost=None, seed=7, policy_factory=zero_policy_factory,
               **overrides):
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
        model, cost, RmppiSettings(**settings), seed, policy_factory
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
    # 2.0; terminal doubles the last square sum, giving 4.0 for the nominal
    # copy.  Both correction penalties contribute 0.5 * (1 + 1), giving the
    # feedback-penalized cost 4.4375; with zero plan and noise the mixed
    # channel is the mean of the two.
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
    assert roll.real[0] == 4.4375
    assert roll.mixed[0] == 4.21875
    assert roll.nominal_eval[0] == 4.0
    assert 2.0 * roll.mixed[0] - roll.nominal_eval[0] == 4.4375  # the penalized cost
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
    for name in ("real", "mixed", "nominal_eval"):
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
            corrections[t] = policy.apply_batch(x, xs, t)
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


def drifting_model(n_x):
    """``n_x`` states that never move, one control: rolls out any candidate line cheaply."""

    def deriv(x, u):
        return np.zeros(np.broadcast_shapes(x.shape, u.shape[:-1] + (n_x,)))

    return SystemModel("drift", n_x, 1, 0.1, deriv)


@st.composite
def candidate_ends(draw):
    """``r``, then ``x``, ``x_star_prev`` and ``x_star_prop`` of one width and scale."""
    n_x = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]))
    ends = [
        scale * draw(hnp.arrays(np.float64, n_x, elements=st.floats(-1.0, 1.0)))
        for _ in range(3)
    ]
    return draw(st.integers(2, 19)), *ends


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(candidate_ends())
def test_nominal_propagation_candidates_have_the_bits_of_one_expression_each(ends):
    r, x, x_star_prev, x_star_prop = ends
    decision = nominal_state_propagation(
        drifting_model(x.shape[0]), simple_cost(), x, x_star_prev, x_star_prop,
        np.zeros((2, 1)), np.inf, r, np.zeros((2, 2, 1)),
    )
    expected = candidate_line_loop(x, x_star_prev, x_star_prop, r)
    assert np.array_equal(decision.candidates, expected)
    assert np.array_equal(np.signbit(decision.candidates), np.signbit(expected))


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
    # A candidate is feasible exactly when its free energy is at most alpha,
    # so setting alpha to a direct rollout's free energy, and to the float
    # just below it, pins the candidate's estimate bit for bit.
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    rng = np.random.default_rng(29)
    controls = 0.2 * rng.normal(size=(5, 1))
    draws = NoisePlan.sample(41, 24, 5, cost.sigma_chol)
    x = np.array([1.2, -0.4])
    x_prev = np.array([0.8, 0.0])
    x_prop = np.array([0.9, 0.1])

    def feasible(alpha):
        decision = nominal_state_propagation(
            model, cost, x, x_prev, x_prop, controls, alpha, 4, draws
        )
        return decision.feasible

    direct_prev = rollout_batch(model, cost, x_prev, controls, draws, control_term="beta")
    fe_prev = free_energy_mc(direct_prev.costs, cost.lam)
    shifted = shift_control_sequence(controls)
    direct_x = rollout_batch(model, cost, x, shifted, draws, control_term="beta")
    fe_x = free_energy_mc(direct_x.costs, cost.lam)
    for index, fe in ((0, fe_prev), (4, fe_x)):
        assert feasible(fe)[index]
        assert not feasible(np.nextafter(fe, -np.inf))[index]


NSP_MODELS = {
    "double_integrator": double_integrator(dt=0.05),
    "nonlinear_benchmark": nonlinear_benchmark(),
}
nsp_values = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def nsp_problems(draw):
    n = draw(st.integers(1, 16))
    horizon = draw(st.integers(1, 6))
    r = draw(st.integers(2, 8))
    x, x_prev, x_prop = (
        draw(hnp.arrays(np.float64, 2, elements=nsp_values, fill=st.nothing())) for _ in range(3)
    )
    if draw(st.booleans()):
        x_prev = x.copy()  # candidate 0 then ties with candidate R at distance 0
    controls = draw(hnp.arrays(np.float64, (horizon, 1), elements=nsp_values, fill=st.nothing()))
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, np.eye(1))
    model = NSP_MODELS[draw(st.sampled_from(sorted(NSP_MODELS)))]
    alpha_at = draw(st.sampled_from(["nearest", "below_nearest", "other", "none"]))
    return model, x, x_prev, x_prop, controls, r, draws, alpha_at, draw(st.integers(0, r))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(nsp_problems())
def test_nearest_first_search_decides_as_the_full_search(problem):
    import robust_mppi.rmppi as rmppi_module

    model, x, x_prev, x_prop, controls, r, draws, alpha_at, other = problem
    cost = simple_cost()
    shifted = shift_control_sequence(controls)

    def decide(alpha, measured=None):
        return nominal_state_propagation(
            model, cost, x, x_prev, x_prop, controls, alpha, r, draws, measured=measured
        )

    candidates = decide(np.inf).candidates
    fe = np.array([
        free_energy_mc(
            rollout_batch(
                model, cost, c, controls if i == 0 else shifted, draws, control_term="beta"
            ).costs,
            cost.lam,
        )
        for i, c in enumerate(candidates)
    ])
    distances = np.linalg.norm(candidates - x, axis=1)
    nearest = distances == distances.min()
    first = int(np.argmax(nearest))  # the lowest index at the minimum distance
    alpha = {
        "nearest": fe[first],
        "below_nearest": np.nextafter(fe[first], -np.inf),
        "other": fe[other],
        "none": np.nextafter(fe.min(), -np.inf),
    }[alpha_at]

    full = decide(alpha)
    # as the controller rolls candidate R, with the augmented batch: plan + 0.0
    measured = propagate(model, cost, x[None, None], shifted + 0.0, draws)
    rolled = []
    with pytest.MonkeyPatch.context() as mp:
        rollout = rmppi_module.rollout_batch

        def counted_rollout_batch(model, cost, starts, *args, **kwargs):
            rolled.append(len(starts))
            return rollout(model, cost, starts, *args, **kwargs)

        mp.setattr(rmppi_module, "rollout_batch", counted_rollout_batch)
        fast = decide(alpha, measured)
    assert np.array_equal(full.feasible, fe <= alpha)
    assert fast.index == full.index
    assert fast.fallback == full.fallback
    assert np.array_equal(fast.candidates, full.candidates)
    assert np.array_equal(fast.control_sequence, full.control_sequence)
    # the rest is rolled out only when no nearest candidate qualifies
    evaluated = nearest if (full.feasible & nearest).any() else np.ones_like(nearest)
    assert np.array_equal(fast.feasible, full.feasible & evaluated)
    # candidate R comes priced from the given rows: NSP never rolls it itself
    assert sum(rolled) == np.count_nonzero(evaluated) - 1
    if alpha_at == "nearest":
        assert full.index == first and not full.fallback
    if alpha_at == "below_nearest":
        assert not full.feasible[first]
    if alpha_at == "none":
        assert full.fallback and full.index == 0


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.2])
def test_rmppi_rejects_a_tracking_rate_outside_the_open_unit_interval(gamma):
    # the bound's parameters are checked once, when the controller is built
    with pytest.raises(ValueError, match="gamma"):
        make_rmppi(gamma=gamma)


def test_rmppi_refuses_a_nan_alpha_when_built():
    # NaN would make every candidate infeasible and the step degenerate
    with pytest.raises(ValueError, match="alpha must not be NaN"):
        make_rmppi(alpha=np.nan)
    make_rmppi(alpha=np.inf)  # the reduction to plain MPPI runs at alpha = inf


def test_tube_controller_refuses_a_nan_alpha_when_built():
    # fe_real - fe_nom < NaN never holds, so the tube would never reset
    model, cost = double_integrator(dt=0.05), simple_cost()
    with pytest.raises(ValueError, match="alpha must not be NaN"):
        TubeMppiController(
            model, cost, n_samples=8, horizon=4, seed=0,
            policy_factory=zero_policy_factory, alpha=np.nan,
        )


def test_rmppi_rejects_bad_bound_constants_when_built():
    make_rmppi(gamma=0.5, w_bound=0.0)
    for w_bound in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="w_bound"):
            make_rmppi(w_bound=w_bound)
    with pytest.raises(ValueError, match="lipschitz_q"):
        make_rmppi(cost=simple_cost(lipschitz=False))
    bad_q = dataclasses.replace(simple_cost(lipschitz=True), lipschitz_q=np.inf)
    with pytest.raises(ValueError, match="lipschitz_q"):
        make_rmppi(cost=bad_q)


def test_growth_bound_frozen_arithmetic():
    # factor = 2*0.5^2 + 1*(1 - 0.25)/0.5 = 2.0; the state sits still so the
    # deviation is the tracking offset plus, when included, the ball radius.
    model = double_integrator(dt=0.5)
    cost = dataclasses.replace(simple_cost(), lipschitz_q=1.0, lipschitz_phi=2.0)
    bound_settings = RmppiSettings(
        n_samples=16, horizon=2, alpha=10.0, gamma=0.5, w_bound=0.25
    )
    x = np.zeros(2)
    x_star = np.array([1.0, 0.0])
    u = np.zeros(1)
    with_ball, without = free_energy_growth_bound(
        model, cost, bound_settings, x, x_star, u, fe_nominal=3.0, emv=0.5
    )
    assert with_ball == 10.5
    assert without == 10.0
    assert with_ball - without == 0.5


@st.composite
def bound_problems(draw):
    """Lipschitz constants, horizon, states, offset, radius and the rates to compare."""
    lipschitz_q, lipschitz_phi = draw(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2))
    cost = dataclasses.replace(
        simple_cost(), lipschitz_q=lipschitz_q, lipschitz_phi=lipschitz_phi
    )
    settings_ = RmppiSettings(
        n_samples=16,
        horizon=draw(st.integers(1, 200)),
        alpha=draw(st.floats(-1e4, 1e4)),
        w_bound=draw(st.floats(0.0, 10.0)),
    )
    vectors = hnp.arrays(float, 2, elements=st.floats(-10.0, 10.0))
    x, x_star = draw(vectors), draw(vectors)
    u = draw(hnp.arrays(float, 1, elements=st.floats(-10.0, 10.0)))
    fe_nominal, emv = draw(st.floats(-1e4, 1e4)), draw(st.floats(0.0, 1e3))
    rates = draw(st.lists(st.floats(0.0, UNCERTIFIED_RATE, exclude_min=True), max_size=8))
    return cost, settings_, x, x_star, u, fe_nominal, emv, rates


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bound_problems())
def test_growth_bound_is_nondecreasing_in_the_tracking_rate(problem):
    """The bound at UNCERTIFIED_RATE covers the bound at every smaller rate.

    The factor ``L_phi*g^T + L_q*(1 + g + ... + g^(T-1))`` grows with g;
    the closed form divides two rounded differences, so neighbouring rates
    may order their bounds the wrong way by a few ulps of the sum's terms.
    """
    cost, settings_, x, x_star, u, fe_nominal, emv, rates = problem
    model = double_integrator(dt=0.05)
    rates = sorted(set(rates) | {UNCERTIFIED_RATE})
    bounds = []
    for gamma in rates:
        at_rate = dataclasses.replace(settings_, gamma=gamma)
        bounds.append(
            free_energy_growth_bound(model, cost, at_rate, x, x_star, u, fe_nominal, emv)
        )
    slack = abs(settings_.alpha - fe_nominal) + 2.0 * emv
    for (lo, lo_no_d), (hi, hi_no_d) in zip(bounds, bounds[1:]):
        assert hi >= lo - 1e-12 * (slack + abs(hi))
        assert hi_no_d >= lo_no_d - 1e-12 * (slack + abs(hi_no_d))
    top = bounds[-1][0]
    assert all(b <= top + 1e-12 * (slack + abs(top)) for b, _ in bounds)


def test_tube_step_reset_rule_follows_the_gap_sign():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(3, 64, 8, cost.sigma_chol)
    controls = np.zeros((8, 1))
    policy = ZeroFeedback(1)
    *_, worse = tube_mppi_step(
        model, cost, np.array([1.0, 0.0]), np.zeros(2), controls, policy, draws, alpha=0.0
    )
    assert worse.fe_real > worse.fe_nom
    assert not worse.reset
    *_, better = tube_mppi_step(
        model, cost, np.zeros(2), np.array([1.0, 0.0]), controls, policy, draws, alpha=0.0
    )
    assert better.fe_real < better.fe_nom
    assert better.reset


def test_tube_step_reset_restarts_the_tube_at_the_measurement():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(5, 64, 8, cost.sigma_chol)
    controls = np.zeros((8, 1))
    x = np.array([0.6, -0.2])
    x_star = np.array([0.1, 0.0])
    action, plan, x_star_next, record = tube_mppi_step(
        model, cost, x, x_star, controls, ZeroFeedback(1), draws, alpha=1e9
    )
    assert record.reset and not record.degen
    real = rollout_batch(model, cost, x, controls, draws, control_term="plain")
    u_real = mppi_update(controls, softmax_weights(real.costs, cost.lam), draws)
    assert np.array_equal(plan, shift_control_sequence(u_real))
    assert np.array_equal(x_star_next, model.step(x, u_real[0]))
    assert np.array_equal(record.x_star, x)  # the reset nominal it tracked
    assert record.fe_real == free_energy_mc(real.costs, cost.lam)
    assert np.array_equal(action, model.clamp(u_real[0]))


def test_tube_step_keeps_the_nominal_plan_without_reset():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(5, 64, 8, cost.sigma_chol)
    controls = np.zeros((8, 1))
    x = np.array([0.6, -0.2])
    x_star = np.array([0.1, 0.0])
    _, plan, x_star_next, record = tube_mppi_step(
        model, cost, x, x_star, controls, ZeroFeedback(1), draws, alpha=-1e9
    )
    assert not record.reset
    nom = rollout_batch(model, cost, x_star, controls, draws, control_term="plain")
    u_nom = mppi_update(controls, softmax_weights(nom.costs, cost.lam), draws)
    assert np.array_equal(plan, shift_control_sequence(u_nom))
    assert np.array_equal(x_star_next, model.step(x_star, u_nom[0]))
    assert np.array_equal(record.x_star, x_star)
    assert record.fe_nom == free_energy_mc(nom.costs, cost.lam)


def test_tube_step_action_adds_the_tracking_correction_toward_its_nominal():
    model = double_integrator(dt=0.05)
    cost = simple_cost()
    draws = NoisePlan.sample(5, 64, 8, cost.sigma_chol)
    controls = np.zeros((8, 1))
    x = np.array([0.6, -0.2])
    x_star = np.array([0.1, 0.0])
    policy = LinearGainsPolicy(gains=np.tile(np.array([[[-1.5, -0.8]]]), (8, 1, 1)))
    action, plan, _, record = tube_mppi_step(
        model, cost, x, x_star, controls, policy, draws, alpha=-1e9
    )
    assert not record.reset
    nom = rollout_batch(model, cost, x_star, controls, draws, control_term="plain")
    u_nom = mppi_update(controls, softmax_weights(nom.costs, cost.lam), draws)
    correction = policy.gains[0] @ (x - x_star)
    assert correction[0] != 0.0
    assert np.array_equal(action, model.clamp(u_nom[0] + correction))
    assert np.array_equal(plan, shift_control_sequence(u_nom))  # the plan carries no feedback
    # a reset moves the nominal onto the measurement, so the correction vanishes
    action, plan, _, record = tube_mppi_step(
        model, cost, x, x_star, controls, policy, draws, alpha=1e9
    )
    assert record.reset
    real = rollout_batch(model, cost, x, controls, draws, control_term="plain")
    u_real = mppi_update(controls, softmax_weights(real.costs, cost.lam), draws)
    assert np.array_equal(action, model.clamp(u_real[0]))
    assert np.array_equal(plan, shift_control_sequence(u_real))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tube_step_degenerate_batch_falls_back():
    model = control_blowup_model()
    cost = simple_cost(crash_cost=5e3)
    x = np.array([2.0, 0.0])
    controls = np.zeros((8, 1))
    action, plan, x_star_next, record = tube_mppi_step(
        model, cost, x, x, controls, ZeroFeedback(1), np.zeros((4, 8, 1)), alpha=10.0
    )
    assert record.degen
    assert not record.reset
    assert record.fe_real == 5e3 and record.fe_nom == 5e3
    assert np.array_equal(record.x_star, x)
    assert np.array_equal(action, np.zeros(1))
    assert np.array_equal(plan, shift_control_sequence(controls))
    assert np.array_equal(x_star_next, model.step(x, controls[0]))


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
        draws = NoisePlan.sample(13, n, 10, cost.sigma_chol)
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
        n_samples=30, emv_repeats=4, policy_factory=lambda x_star, controls: policy,
    )
    controller.x_star = x_star0
    x = np.array([0.5, -0.2])
    _, rec = controller.step(x)
    draws = NoisePlan.sample(
        derive_seed(7, 0, STREAM_ROLLOUT), 30, 6, controller.cost.sigma_chol
    )
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
    import robust_mppi.sampling as sampling_module

    drawn = []

    def recording_derive_seed(master, step, stream):
        drawn.append((step, stream))
        return derive_seed(master, step, stream)

    # every controller draw goes through sampling.step_draws
    monkeypatch.setattr(sampling_module, "derive_seed", recording_derive_seed)
    controller = make_rmppi()
    x = np.array([0.5, -0.2])
    for _ in range(3):
        action, _ = controller.step(x)
        x = controller.model.step(x, action)
    # the NSP rows are drawn on every step, step 0's unused; a controller
    # this small draws on the synchronous path, so nothing is drawn ahead
    assert drawn == [
        (0, STREAM_NSP), (0, STREAM_ROLLOUT),
        (1, STREAM_NSP), (1, STREAM_ROLLOUT),
        (2, STREAM_NSP), (2, STREAM_ROLLOUT),
    ]


@pytest.mark.parametrize(
    "setting, value", [("n_candidates", 1), ("nsp_samples", 0), ("horizon", 0)]
)
def test_rmppi_refuses_settings_that_would_fail_at_a_step(setting, value):
    with pytest.raises(ValueError, match=f"^{setting} must be at least"):
        make_rmppi(**{setting: value})


def test_rmppi_holds_an_uncertified_policy_at_the_rate_ceiling():
    # alpha below every free energy makes each nominal-state propagation
    # fall back, so the nominal state stays at the first measured state and
    # the residuals are the distances chosen here: zero on the first step,
    # growth over the next four, then decay at rate 0.8.  A policy with no
    # certificate gets the ceiling on every step, whatever its residuals show.
    controller = make_rmppi(alpha=-1e6)
    radii = [0.0, 0.5, 1.0, 2.0, 4.0] + [4.0 * 0.8**k for k in range(1, 21)]
    residuals = []
    for r in radii:
        x = np.array([r, 0.0])
        _, rec = controller.step(x)
        residuals.append(float(np.linalg.norm(x - rec.x_star)))
        assert rec.gamma_hat == 1.0 - 1e-3
    assert residuals == radii


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
    # the first step runs no NSP; a step that is not degenerate leaves it
    # to the next one
    assert rec0.cand_idx == -1 and not rec0.degen
    _, rec1 = controller.step(controller.model.step(x, np.zeros(1)))
    assert 0 <= rec1.cand_idx <= 4


def test_rmppi_honors_a_fixed_tracking_rate():
    controller = make_rmppi(gamma=0.8)
    _, rec = controller.step(np.array([0.5, -0.2]))
    assert rec.gamma_hat == 0.8


def test_rmppi_runs_an_uncertified_policy_at_the_rate_ceiling_from_step_zero():
    controller = make_rmppi()
    _, rec = controller.step(np.array([0.5, -0.2]))
    # on step 0 the nominal sits on the measurement, so no tracking has been
    # observed; a policy without a certificate runs at the ceiling anyway
    assert rec.gamma_hat == 1.0 - 1e-3
    assert rec.gamma_hat == UNCERTIFIED_RATE


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

    controller = make_rmppi(policy_factory=impossible_rate_factory)
    controller.x_star = np.zeros(2)
    _, rec = controller.step(np.array([1.0, 0.0]))
    assert rec.contraction_violation is True


def test_rmppi_checks_the_certificate_before_nsp_moves_the_nominal():
    model = double_integrator(dt=0.05)
    policy = contraction_feedback(model, np.eye(2), rate=1.0)
    checked = []

    class RecordingPolicy:
        def apply_batch(self, x, x_star, t):
            return policy.apply_batch(x, x_star, t)

        def contraction_step_ok(self, model, x, x_star, u):
            checked.append((np.array(x), np.array(x_star), np.array(u)))
            return True

    controller = make_rmppi(model=model, policy_factory=lambda x_star, controls: RecordingPolicy())
    x0 = np.array([0.5, -0.2])
    controller.step(x0)
    x_star, controls = controller.x_star.copy(), controller.controls.copy()
    x1 = model.step(x0, np.array([0.3]))
    controller.step(x1)
    # no NSP is pending at step 0: the nominal and the plan as they stand
    assert all(np.array_equal(a, b) for a, b in zip(checked[0], (x0, x0, np.zeros(1))))
    # then the propagated nominal state and the first control of the shifted plan
    expected = (x1, model.step(x_star, controls[0]), controls[1])
    assert all(np.array_equal(a, b) for a, b in zip(checked[1], expected))


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
    # the row logs the nominal its action tracked, the first measured state
    assert np.array_equal(rec.x_star, x)
    # with every sample crashed there is no free energy to bound from
    assert (rec.bound, rec.bound_no_d) == (np.inf, np.inf)
    _, rec1 = controller.step(x)
    # after a degenerate step the nominal moves open loop under the plan,
    # which the degenerate step left unchanged (zeros); no NSP runs
    assert rec1.cand_idx == -1
    assert np.array_equal(rec1.x_star, model.step(x, np.zeros(1)))


@pytest.mark.parametrize("kind", ["rmppi", "mppi", "tube"])
def test_a_cost_that_overflows_on_a_finite_state_stops_no_controller(kind):
    """Rows whose state stays finite but whose cost overflows are priced as crashes.

    They were priced at ``inf``: RMPPI's second step raised in
    ``softmax_weights``, and MPPI and the tube raised from a start at 3.5.
    """
    model = control_blowup_model()
    cost = simple_cost(lipschitz=True)
    if kind == "rmppi":
        controller = make_rmppi(
            model=model, horizon=5, n_samples=8, nsp_samples=4, emv_repeats=2, alpha=50.0
        )
    elif kind == "mppi":
        controller = MppiController(model, cost, n_samples=8, horizon=5, seed=7)
    else:
        controller = TubeMppiController(
            model, cost, n_samples=8, horizon=5, seed=7,
            policy_factory=zero_policy_factory, alpha=50.0,
        )
    for x in ([2.0, 0.0], [0.0, 0.0], [3.5, 0.0]):
        action, rec = controller.step(np.array(x))
        assert np.isfinite(action).all()
        assert np.isfinite(rec.fe_real) and np.isfinite(rec.fe_nom)


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


def record_speculation(monkeypatch):
    """Per RMPPI step, whether NSP was given the measured state's rows, rolled
    with the augmented batch, and whether the augmented batch then priced them."""
    import robust_mppi.rmppi as rmppi_module

    nsp, augmented = rmppi_module.nominal_state_propagation, rmppi_module.augmented_rollouts
    events, pending = [], []

    def spied_nsp(*args, measured=None, **kwargs):
        if measured is not None:
            pending.append(True)
        return nsp(*args, measured=measured, **kwargs)

    def spied_augmented(*args, rolled=None, **kwargs):
        events.append((bool(pending), rolled is not None))
        pending.clear()
        return augmented(*args, rolled=rolled, **kwargs)

    monkeypatch.setattr(rmppi_module, "nominal_state_propagation", spied_nsp)
    monkeypatch.setattr(rmppi_module, "augmented_rollouts", spied_augmented)
    return events


def step_with_the_two_call_oracle(controller, states):
    """Step ``controller`` and the two-call oracle through ``states``, bit for bit alike."""
    oracle = TwoCallRmppiController(
        controller.model, controller.cost, controller.s, controller.seed,
        controller.policy_factory,
    )
    records = []
    for x in states:
        action, record = controller.step(np.array(x))
        expected_action, expected = oracle.step(np.array(x))
        assert np.array_equal(action, expected_action)
        got, want = dataclasses.astuple(record), dataclasses.astuple(expected)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
        records.append(record)
    return records


NONE, HIT, MISS = (False, False), (True, True), (True, False)
FUSE_STATES = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.1], [0.6, 0.0], [0.05, 0.0], [1.5, 0.0],
               [0.0, 0.0], [0.0, 0.1]]


@pytest.mark.parametrize(
    "alpha, events, cand_idx",
    [
        # a miss on a degenerate step, then a step without NSP
        (20.0, [NONE, HIT, HIT, HIT, HIT, MISS, NONE, HIT], [-1, 4, 4, 4, 4, 3, -1, 4]),
        # a candidate-0 win after the measured state lost, then full searches
        # that fall back, one of them degenerate
        (5.0, [NONE, HIT, MISS, NONE, NONE, NONE, NONE, HIT], [-1, 4, 0, 0, 0, 0, -1, 4]),
    ],
)
def test_rmppi_prices_the_rows_rolled_with_nsp_only_when_the_measured_state_wins(
    alpha, events, cand_idx, monkeypatch
):
    # rows go non-finite past position 1, so the step at 1.5 is degenerate
    recorded = record_speculation(monkeypatch)
    controller = make_rmppi(model=fuse_model(1.0), alpha=alpha)
    records = step_with_the_two_call_oracle(controller, FUSE_STATES)
    assert recorded == events
    assert [r.cand_idx for r in records] == cand_idx
    assert [r.degen for r in records] == [False] * 5 + [True] + [False] * 2


def test_a_tie_at_distance_zero_rolls_the_nearest_group_in_nsp(monkeypatch):
    # measure at step 1 the nominal state propagated from step 0, so that
    # candidates R//2 to R all sit on the measured state
    import robust_mppi.rmppi as rmppi_module

    x0 = np.array([0.5, -0.2])
    probe = make_rmppi()
    probe.step(x0)
    x1 = probe.model.step(probe.x_star, probe.controls[0])
    recorded = record_speculation(monkeypatch)
    groups, rollout = [], rmppi_module.rollout_batch

    def counted_rollout_batch(model, cost, starts, *args, **kwargs):
        groups.append(len(starts))
        return rollout(model, cost, starts, *args, **kwargs)

    monkeypatch.setattr(rmppi_module, "rollout_batch", counted_rollout_batch)
    records = step_with_the_two_call_oracle(make_rmppi(), [x0, x1])
    # candidate R comes with the augmented rows; NSP rolls the rest of the
    # group at distance 0, candidates R//2 to R-1, in the library's step and
    # in the oracle's, and the speculation misses
    assert recorded == [NONE, MISS]
    assert groups == [2, 2]
    # the lowest index at distance 0 wins, with the shifted plan
    assert records[1].cand_idx == 2
    assert np.array_equal(records[1].x_star, x1)
