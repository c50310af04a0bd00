import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    Certificate,
    ConsensusTrace,
    DimensionMismatchError,
    IterationOutOfRangeError,
    LossyNetError,
    ScheduleTooShortError,
    ZeroWeightError,
    all_reliable,
    augment,
    bernoulli_b_bounded,
    build_graph,
    certify_consensus_bound,
    consensus_error,
    consensus_rate_bound,
    contraction_constants,
    run_convergent_robust_push_sum,
    run_push_sum,
    run_robust_push_sum,
    scripted_schedule,
)
from lossynet.consensus import _allocate, _block_floor, _CumulativeState, _rescue_norms
from lossynet.errors import _horizon_fits

from random_graphs import random_strongly_connected


def reference_cumulative(g, y, schedule, T, convergent):
    """Scalar dict-based re-implementation of the cumulative protocols.

    Follows the per-agent recursions literally (one dict entry per node and
    per link), independent of the vectorized production code.
    """
    d = {i: 1 + sum(1 for src, _ in g.edges if src == i) for i in range(1, g.n + 1)}
    column = {e: k for k, e in enumerate(g.edges)}
    z = {i: float(y[i - 1]) for i in range(1, g.n + 1)}
    w = {i: 1.0 for i in range(1, g.n + 1)}
    sigma = {i: 0.0 for i in range(1, g.n + 1)}
    sigma_w = {i: 0.0 for i in range(1, g.n + 1)}
    rho = {e: 0.0 for e in g.edges}
    rho_w = {e: 0.0 for e in g.edges}
    states = [(dict(z), dict(w), {e: 0.0 for e in g.edges}, {e: 0.0 for e in g.edges})]
    for t in range(1, T + 1):
        sigma_plus = {i: sigma[i] + z[i] / d[i] for i in z}
        sigma_w_plus = {i: sigma_w[i] + w[i] / d[i] for i in w}
        new_rho, new_rho_w = {}, {}
        for (j, i) in g.edges:
            if schedule.indicators[t - 1, column[(j, i)]]:
                new_rho[(j, i)] = sigma_plus[j]
                new_rho_w[(j, i)] = sigma_w_plus[j]
            else:
                new_rho[(j, i)] = rho[(j, i)]
                new_rho_w[(j, i)] = rho_w[(j, i)]
        z_plus, w_plus = {}, {}
        for i in z:
            incoming = [e for e in g.edges if e[1] == i]
            z_plus[i] = z[i] / d[i] + sum(new_rho[e] - rho[e] for e in incoming)
            w_plus[i] = w[i] / d[i] + sum(new_rho_w[e] - rho_w[e] for e in incoming)
        if convergent:
            sigma = {i: sigma_plus[i] + z_plus[i] / d[i] for i in z}
            sigma_w = {i: sigma_w_plus[i] + w_plus[i] / d[i] for i in w}
            z = {i: z_plus[i] / d[i] for i in z}
            w = {i: w_plus[i] / d[i] for i in w}
        else:
            sigma, sigma_w = sigma_plus, sigma_w_plus
            z, w = z_plus, w_plus
        rho, rho_w = new_rho, new_rho_w
        buf = {e: sigma[e[0]] - rho[e] for e in g.edges}
        buf_w = {e: sigma_w[e[0]] - rho_w[e] for e in g.edges}
        states.append((dict(z), dict(w), buf, buf_w))
    return states


def assert_matches_reference(g, trace, states):
    for t, (z, w, buf, buf_w) in enumerate(states):
        for i in range(1, g.n + 1):
            assert trace.values[t, i - 1, 0] == pytest.approx(z[i], abs=1e-12)
            assert trace.weights[t, i - 1] == pytest.approx(w[i], abs=1e-12)
        # The buffer of the k-th edge in lexicographic order is node n + k + 1.
        for k, e in enumerate(g.edges):
            assert trace.values[t, g.n + k, 0] == pytest.approx(buf[e], abs=1e-12)
            assert trace.weights[t, g.n + k] == pytest.approx(buf_w[e], abs=1e-12)


class TestPlainPushSum:
    def test_two_cycle_one_step(self, two_cycle):
        trace = run_push_sum(two_cycle, [0.0, 1.0], 1)
        assert trace.values[1, :2, 0].tolist() == [0.5, 0.5]
        assert trace.weights[1, :2].tolist() == [1.0, 1.0]

    def test_converges_to_average(self, asym3):
        y = np.array([1.0, 2.0, 6.0])
        trace = run_push_sum(asym3, y, 300)
        assert consensus_error(trace, 300) < 1e-10
        assert np.allclose(trace.ratios(300), 3.0)

    def test_buffers_stay_empty(self, asym3):
        trace = run_push_sum(asym3, [1.0, 2.0, 3.0], 10)
        assert np.all(trace.values[:, 3:] == 0.0)
        assert np.all(trace.weights[:, 3:] == 0.0)

    def test_weight_mass_is_n(self, asym3):
        trace = run_push_sum(asym3, [1.0, 2.0, 3.0], 50)
        totals = trace.weights.sum(axis=1)
        assert np.abs(totals - 3.0).max() < 1e-9 * 3.0

    def test_vector_inputs(self, two_cycle):
        y = np.array([[0.0, 2.0], [1.0, 4.0]])
        trace = run_push_sum(two_cycle, y, 100)
        assert np.allclose(trace.ratios(100), [0.5, 3.0], atol=1e-10)

    def test_rejects_bad_input_shape(self, two_cycle):
        with pytest.raises(DimensionMismatchError):
            run_push_sum(two_cycle, [1.0, 2.0, 3.0], 5)

    def test_rejects_negative_horizon(self, two_cycle):
        with pytest.raises(ValueError):
            run_push_sum(two_cycle, [1.0, 2.0], -1)


class TestRobustPushSum:
    def test_matches_scalar_reference(self, asym3, lossy6):
        y = [0.25, 1.5, -2.0]
        trace = run_robust_push_sum(asym3, y, lossy6, 6)
        states = reference_cumulative(asym3, y, lossy6, 6, convergent=False)
        assert_matches_reference(asym3, trace, states)

    def test_dropped_link_parks_mass_in_buffer(self, two_cycle):
        table = {((1, 2), 1): 1, ((2, 1), 1): 0, ((1, 2), 2): 1, ((2, 1), 2): 1}
        schedule = scripted_schedule(two_cycle, 2, table)
        trace = run_robust_push_sum(two_cycle, [0.0, 1.0], schedule, 1)
        assert trace.values[1].ravel().tolist() == [0.0, 0.5, 0.0, 0.5]
        assert trace.weights[1].tolist() == [0.5, 1.0, 0.0, 0.5]

    def test_equals_plain_when_reliable(self, asym3):
        y = [3.0, -1.0, 0.5]
        plain = run_push_sum(asym3, y, 40)
        robust = run_robust_push_sum(asym3, y, all_reliable(asym3, 40), 40)
        assert np.abs(plain.values - robust.values).max() < 1e-12
        assert np.abs(plain.weights - robust.weights).max() < 1e-12

    def test_schedule_too_short(self, two_cycle):
        with pytest.raises(ScheduleTooShortError):
            run_robust_push_sum(two_cycle, [0.0, 1.0], all_reliable(two_cycle, 5), 6)

    def test_schedule_graph_mismatch(self, two_cycle, asym3):
        with pytest.raises(DimensionMismatchError):
            run_robust_push_sum(two_cycle, [0.0, 1.0], all_reliable(asym3, 5), 5)


class TestNegativeHorizon:
    @pytest.mark.parametrize("run", [run_robust_push_sum, run_convergent_robust_push_sum])
    def test_cumulative_runners(self, two_cycle, run):
        with pytest.raises(IterationOutOfRangeError, match=r"^horizon must be >= 0, got -1$"):
            run(two_cycle, [0.0, 1.0], all_reliable(two_cycle, 2), -1)


class TestHorizonFits:
    def test_lets_a_lossynet_error_through(self):
        # A LossyNetError is a ValueError, but it is no allocation failure:
        # it leaves as it came, not as "does not fit in memory".
        error = ScheduleTooShortError("schedule covers 2 iterations, run needs 5")
        with pytest.raises(ScheduleTooShortError) as raised:
            with _horizon_fits(5):
                raise error
        assert raised.value is error

    def test_names_the_horizon_of_a_failed_allocation(self):
        with pytest.raises(LossyNetError, match=r"^horizon 5 does not fit in memory: too big$"):
            with _horizon_fits(5):
                raise ValueError("too big")


class TestConvergentRobustPushSum:
    def test_matches_scalar_reference(self, asym3, lossy6):
        y = [0.25, 1.5, -2.0]
        trace = run_convergent_robust_push_sum(asym3, y, lossy6, 6)
        states = reference_cumulative(asym3, y, lossy6, 6, convergent=True)
        assert_matches_reference(asym3, trace, states)

    def test_two_cycle_reaches_average_in_one_step(self, two_cycle):
        trace = run_convergent_robust_push_sum(
            two_cycle, [0.0, 1.0], all_reliable(two_cycle, 50), 50
        )
        assert trace.values[1].ravel().tolist() == [0.25, 0.25, 0.25, 0.25]
        assert trace.weights[1].tolist() == [0.5, 0.5, 0.5, 0.5]
        assert consensus_error(trace, 50) == 0.0

    def test_converges_under_heavy_loss(self, asym3):
        schedule = bernoulli_b_bounded(asym3, 0.8, 3, 1500, seed=11)
        y = [0.0, 1.0, 0.25]
        trace = run_convergent_robust_push_sum(asym3, y, schedule, 1500)
        assert consensus_error(trace, 1500) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    B=st.integers(1, 3),
    convergent=st.booleans(),
)
def test_mass_is_preserved_every_iteration(seed, n, B, convergent):
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(n, rng)
    T = 60
    schedule = bernoulli_b_bounded(g, float(rng.uniform(0, 0.9)), B, T, seed=seed)
    y = rng.uniform(-5, 5, size=n)
    run = run_convergent_robust_push_sum if convergent else run_robust_push_sum
    trace = run(g, y, schedule, T)
    value_totals = trace.values.sum(axis=1).ravel()
    weight_totals = trace.weights.sum(axis=1)
    scale = max(1.0, abs(y.sum()))
    assert np.abs(value_totals - y.sum()).max() <= 1e-9 * scale
    assert np.abs(weight_totals - n).max() <= 1e-9 * n


# Each round (with or without the re-share) and the power of D = out-degree
# + 1 that bounds the share of its weight an agent keeps: the robust round
# divides once, the convergent round twice.
ROUND_KEEPS = ((False, 1), (True, 2))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cumulative_state_invariants(seed):
    """Between the rounds of a run: broadcast totals never decrease,
    delivered totals never exceed them, and each real weight keeps at least
    1/D of itself in a robust round and 1/D**2 in a convergent one."""
    for reshare, power in ROUND_KEEPS:
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(int(rng.integers(2, 5)), rng)
        schedule = bernoulli_b_bounded(g, 0.6, 3, 30, seed=seed)
        history, _, weights = _allocate(augment(g), rng.uniform(0, 1, size=(g.n, 1)), 30)
        state = _CumulativeState(g, schedule, history)
        D = (g.out_degrees + 1).astype(float)
        prev_sent = state.sent[:, -1].copy()
        for t in state.rounds(reshare):
            sent_w = state.sent[:, -1]
            assert np.all(sent_w >= prev_sent - 1e-15)
            assert np.all(state.delivered[:, -1] <= sent_w[state.src] + 1e-15)
            assert np.all(weights[t, : g.n] >= weights[t - 1, : g.n] / D**power - 1e-15)
            prev_sent = sent_w.copy()
        assert t == 30


class _AllocatingState:
    """The cumulative round as it was written before it ran in place: fresh
    arrays every round and a separate copy into the history.  Kept as the
    bit-level oracle of the in-place round."""

    def __init__(self, g, inputs):
        n, d = inputs.shape
        self.src = g.edge_sources
        self.dst = g.edge_destinations
        self.shares = (g.out_degrees + 1).astype(float)[:, None]
        self.mass = np.hstack([inputs, np.ones((n, 1))])
        self.sent = np.zeros((n, d + 1))
        self.delivered = np.zeros((g.num_edges, d + 1))

    def robust_round(self, delivered):
        mass = self.mass / self.shares
        sent = self.sent + mass
        arrived = np.where(delivered[:, None], sent[self.src], self.delivered)
        np.add.at(mass, self.dst, arrived - self.delivered)
        self.mass, self.sent, self.delivered = mass, sent, arrived

    def convergent_round(self, delivered):
        self.robust_round(delivered)
        self.mass = self.mass / self.shares
        self.sent = self.sent + self.mass

    def record(self, mass, t):
        n = len(self.mass)
        mass[t, :n] = self.mass
        mass[t, n:] = self.sent[self.src] - self.delivered


def oracle_cumulative_mass(g, inputs, schedule, T, round_name):
    """The (T+1, m, d+1) mass history of the allocating round."""
    n, d = inputs.shape
    mass = np.zeros((T + 1, n + g.num_edges, d + 1))
    mass[0, :n, :d] = inputs
    mass[0, :n, d] = 1.0
    state = _AllocatingState(g, inputs)
    for t in range(1, T + 1):
        getattr(state, round_name)(schedule.delivered(t))
        state.record(mass, t)
    return mass


def assert_same_bits(trace, mass):
    """The trace's values and weights hold the oracle history bit for bit
    (signed zeros and NaN payloads included)."""
    d = trace.dim
    assert trace.values.tobytes() == np.ascontiguousarray(mass[..., :d]).tobytes()
    assert trace.weights.tobytes() == np.ascontiguousarray(mass[..., d]).tobytes()


RUNNERS = (
    (run_robust_push_sum, "robust_round"),
    (run_convergent_robust_push_sum, "convergent_round"),
)


class TestInPlaceRoundMatchesAllocatingRound:
    @pytest.mark.parametrize("run, round_name", RUNNERS)
    @pytest.mark.parametrize("seed", [1, 5, 2027])
    @pytest.mark.parametrize("d", [1, 3])
    def test_bernoulli_runs(self, run, round_name, seed, d):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(int(rng.integers(2, 7)), rng)
        schedule = bernoulli_b_bounded(g, 0.6, 3, 80, seed=seed)
        y = rng.uniform(-3.0, 3.0, size=(g.n, d))
        expected = oracle_cumulative_mass(g, y, schedule, 80, round_name)
        assert_same_bits(run(g, y, schedule, 80), expected)

    @pytest.mark.parametrize("run, round_name", RUNNERS)
    def test_signed_zeros_and_non_finite_totals(self, asym3, lossy6, run, round_name):
        # Both in-links of agent 1 drop at t = 1, so its -0.0 share turns
        # +0.0 only through the dropped links' delivered - delivered; an
        # infinite input makes inf - inf on dropped links and NaN buffers.
        signed = [[-0.0, 1.0], [2.0, -0.0], [-0.0, -0.0]]
        infinite = [[np.inf, 1.0], [0.5, -np.inf], [1.0, 2.0]]
        for y in map(np.array, (signed, infinite)):
            with np.errstate(invalid="ignore"):
                trace = run(asym3, y, lossy6, 6)
                expected = oracle_cumulative_mass(asym3, y, lossy6, 6, round_name)
            assert_same_bits(trace, expected)

    def test_single_agent(self):
        g, y = build_graph(1, []), np.array([[2.0, -0.0]])
        schedule = all_reliable(g, 4)
        trace = run_convergent_robust_push_sum(g, y, schedule, 4)
        assert_same_bits(trace, oracle_cumulative_mass(g, y, schedule, 4, "convergent_round"))


class TestTraceApi:
    def test_totals_and_average(self, two_cycle):
        trace = run_push_sum(two_cycle, [0.0, 1.0], 3)
        assert trace.average_input.tolist() == [0.5]
        assert trace.value_total(2) == pytest.approx(1.0)
        assert trace.weight_total(2) == pytest.approx(2.0)

    def test_ratios_nan_for_zero_weight(self, two_cycle):
        values = np.zeros((1, 4, 1))
        weights = np.zeros((1, 4))
        weights[0, 1] = 1.0
        values[0, 1, 0] = 2.0
        trace = ConsensusTrace(augment(two_cycle), np.zeros((2, 1)), values, weights)
        r = trace.ratios(0)
        assert np.isnan(r[0, 0])
        assert r[1, 0] == 2.0

    def test_iteration_range_checked(self, two_cycle):
        trace = run_push_sum(two_cycle, [0.0, 1.0], 3)
        with pytest.raises(IterationOutOfRangeError):
            trace.ratios(4)

    def test_zero_weight_error(self, two_cycle):
        values = np.zeros((1, 4, 1))
        weights = np.zeros((1, 4))
        trace = ConsensusTrace(augment(two_cycle), np.zeros((2, 1)), values, weights)
        with pytest.raises(ZeroWeightError):
            consensus_error(trace, 0)


def oracle_certify_consensus_bound(trace, B):
    """The per-round certificate the array code replaced: the scalar error and
    bound formulas at each t, the first largest error - bound as the worst
    point, and the pass rule the run harness applied to that point."""
    T, n = trace.horizon, trace.n
    if T < 1:
        return Certificate(None, None, True)
    beta, gamma, block = contraction_constants(trace.graph, B)
    total = float(np.linalg.norm(trace.inputs.sum(axis=0)))
    floor = beta**block

    def error(t):
        ratios = trace.values[t, :n] / trace.weights[t, :n, None]
        return float(np.linalg.norm(ratios - trace.average_input, axis=1).max())

    def bound(t):
        if floor == 0.0:
            return math.inf if total > 0.0 else 0.0
        return total / (n * floor) * gamma ** (t // block)

    worst_margin, worst = -np.inf, None
    for t in range(1, T + 1):
        err, b = error(t), bound(t)
        if worst is None or err - b > worst_margin:
            worst_margin, worst = err - b, (t, err, b)
    t, err, b = worst
    return Certificate(err, b, err <= b, {"worst_t": t})


class TestRateBound:
    def test_contraction_constants_two_cycle(self, two_cycle):
        beta, gamma, block = contraction_constants(two_cycle, 1)
        assert beta == 0.25
        assert gamma == 1.0 - 0.25**3
        assert block == 3

    def test_contraction_constants_reject_a_zero_window(self, two_cycle):
        with pytest.raises(ValueError, match=r"^B must be >= 1, got 0$"):
            contraction_constants(two_cycle, 0)

    def test_constants_use_max_degree(self, asym3):
        beta, _, block = contraction_constants(asym3, 2)
        assert beta == 1.0 / 9.0
        assert block == 7

    def test_frozen_value(self, two_cycle):
        # ||sum(y)|| / (n beta^3) * gamma^1 = 4 / (2/64) * 63/64 = 126.
        assert consensus_rate_bound(two_cycle, 1, [1.0, 3.0], 3) == 126.0

    def test_nonincreasing_across_blocks(self, two_cycle):
        bounds = [consensus_rate_bound(two_cycle, 1, [1.0, 3.0], t) for t in range(1, 40)]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_signed_inputs_take_the_shifted_bound(self, two_cycle):
        # Each coordinate shifts by min(0, min_i y_i): [-1, 3] becomes [0, 4].
        signed = consensus_rate_bound(two_cycle, 1, [-1.0, 3.0], 3)
        assert signed == consensus_rate_bound(two_cycle, 1, [0.0, 4.0], 3)

    def test_rejects_iteration_zero(self, two_cycle):
        with pytest.raises(IterationOutOfRangeError):
            consensus_rate_bound(two_cycle, 1, [1.0, 3.0], 0)

    def test_certify_passes_on_real_run(self, asym3):
        schedule = bernoulli_b_bounded(asym3, 0.5, 2, 400, seed=5)
        trace = run_convergent_robust_push_sum(asym3, [0.2, 0.9, 0.4], schedule, 400)
        cert = certify_consensus_bound(trace, 2)
        assert cert.passed
        assert consensus_error(trace, 400) < 1e-8
        assert cert.measured <= cert.bound

    def test_underflowing_floor_gives_infinite_bound(self):
        # Max out-degree 14 and block 151: beta**block underflows to 0.0.
        g = random_strongly_connected(50, np.random.default_rng(0), 0.15)
        beta, _, block = contraction_constants(g, 3)
        assert beta**block == 0.0
        y = np.linspace(0.0, 1.0, g.n)
        assert consensus_rate_bound(g, 3, y, 1) == math.inf
        assert consensus_rate_bound(g, 3, np.zeros(g.n), 1) == 0.0
        schedule = bernoulli_b_bounded(g, 0.5, 3, 20, seed=1)
        trace = run_convergent_robust_push_sum(g, y, schedule, 20)
        cert = certify_consensus_bound(trace, 3)
        assert cert.passed
        assert cert.where == {"worst_t": 1}
        assert cert.measured == consensus_error(trace, 1)
        assert cert.bound == math.inf

    def test_block_beyond_the_float_range(self, two_cycle):
        # The floor and its log10 keep their bits where block is a float.
        # block = 2 * 10**400 + 1 is none: they take their limits, 0.0 and
        # -inf, or 1.0 and 0.0 for a single node.
        assert _block_floor(0.25, 3) == (0.25**3, 3 * math.log10(0.25))
        B = 10**400
        beta, gamma, block = contraction_constants(two_cycle, B)
        assert (beta, gamma, block) == (0.25, 1.0, 2 * B + 1)
        assert _block_floor(beta, block) == (0.0, -math.inf)
        assert consensus_rate_bound(two_cycle, B, [1.0, 3.0], 3) == math.inf
        single = build_graph(1, [])
        assert contraction_constants(single, B) == (1.0, 0.0, B + 1)
        assert _block_floor(1.0, B + 1) == (1.0, 0.0)
        # ||sum(y)|| / (n * 1.0) * 0.0**0, before the first block ends.
        assert consensus_rate_bound(single, B, [2.0], 3) == 2.0

    def test_certify_trivial_for_empty_trace(self, two_cycle):
        trace = run_convergent_robust_push_sum(
            two_cycle, [0.0, 1.0], all_reliable(two_cycle, 0), 0
        )
        cert = certify_consensus_bound(trace, 1)
        assert cert == Certificate(None, None, True)

    def test_certify_flags_fabricated_violation(self, two_cycle):
        # An impossible trace whose agent ratios sit far from the average.
        values = np.full((2, 4, 1), 100.0)
        weights = np.ones((2, 4))
        trace = ConsensusTrace(augment(two_cycle), np.array([[0.0], [1.0]]), values, weights)
        cert = certify_consensus_bound(trace, 1)
        assert not cert.passed
        assert cert.measured > cert.bound


def _fabricated(graph, values, inputs):
    """A trace over ``graph`` with the given agent values, unit weights and
    empty buffers."""
    ag = augment(graph)
    T1, n, d = values.shape
    full = np.zeros((T1, ag.m, d))
    full[:, :n] = values
    weights = np.zeros((T1, ag.m))
    weights[:, :n] = 1.0
    return ConsensusTrace(ag, np.asarray(inputs, dtype=float), full, weights)


class TestCertificateMatchesOracle:
    # With 4 agents gamma < 1, so the bound decays block by block; with 8 it
    # rounds to 1.
    @pytest.mark.parametrize("seed", [1, 5, 2027])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [4, 8])
    def test_bernoulli_runs(self, seed, d, n):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(n, rng, 0.3)
        schedule = bernoulli_b_bounded(g, 0.5, 2, 1500, seed=seed)
        y = rng.uniform(0.0, 3.0, size=(g.n, d))
        trace = run_convergent_robust_push_sum(g, y, schedule, 1500)
        assert certify_consensus_bound(trace, 2) == oracle_certify_consensus_bound(trace, 2)

    def test_decay_over_many_blocks(self, two_cycle):
        # gamma = 63/64 over 100 blocks: numpy's vectorized float power
        # differs from the scalar one in the last bit at some exponents.
        schedule = bernoulli_b_bounded(two_cycle, 0.5, 1, 300, seed=3)
        trace = run_convergent_robust_push_sum(two_cycle, [1.0, 3.0], schedule, 300)
        assert certify_consensus_bound(trace, 1) == oracle_certify_consensus_bound(trace, 1)
        # The scalar bound takes the same power as the formula in Python.
        for t in (12 * 3, 13 * 3, 299):
            assert consensus_rate_bound(two_cycle, 1, [1.0, 3.0], t) == (
                4.0 / (2 * 0.25**3) * (1.0 - 0.25**3) ** (t // 3)
            )

    def test_underflowing_floor(self):
        g = random_strongly_connected(50, np.random.default_rng(0), 0.15)
        schedule = bernoulli_b_bounded(g, 0.5, 3, 20, seed=1)
        trace = run_convergent_robust_push_sum(g, np.linspace(0.0, 1.0, g.n), schedule, 20)
        assert certify_consensus_bound(trace, 3) == oracle_certify_consensus_bound(trace, 3)

    def test_fabricated_violation(self, two_cycle):
        values = np.full((2, 4, 1), 100.0)
        weights = np.ones((2, 4))
        trace = ConsensusTrace(augment(two_cycle), np.array([[0.0], [1.0]]), values, weights)
        assert certify_consensus_bound(trace, 1) == oracle_certify_consensus_bound(trace, 1)


class TestSignedInputs:
    def test_signed_run_certifies_like_its_shifted_run(self, asym3):
        schedule = bernoulli_b_bounded(asym3, 0.5, 2, 400, seed=5)
        y = np.array([[2.0, -1.0], [-1.0, 7.0], [4.0, 0.5]])
        shifted = y - np.minimum(0.0, y.min(axis=0))
        signed = run_convergent_robust_push_sum(asym3, y, schedule, 400)
        base = run_convergent_robust_push_sum(asym3, shifted, schedule, 400)
        cert = certify_consensus_bound(signed, 2)
        assert cert.passed
        assert cert.bound == consensus_rate_bound(asym3, 2, y, cert.where["worst_t"])
        # Ratios are shift-equivariant: the shift moves every ratio and the
        # average alike, so the two runs measure the same errors.
        errors = [consensus_error(signed, t) for t in range(1, 401)]
        base_errors = [consensus_error(base, t) for t in range(1, 401)]
        assert np.allclose(errors, base_errors, rtol=1e-9, atol=1e-12)

    def test_nonnegative_inputs_are_not_shifted(self, asym3):
        schedule = bernoulli_b_bounded(asym3, 0.5, 2, 100, seed=5)
        y = [0.0, 0.9, 0.4]
        trace = run_convergent_robust_push_sum(asym3, y, schedule, 100)
        cert = certify_consensus_bound(trace, 2)
        assert cert.bound == consensus_rate_bound(asym3, 2, y, cert.where["worst_t"])


class TestNonFiniteMeasurement:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fails_at_first_non_finite_round(self, two_cycle, bad):
        # Round 2 is far outside the bound; round 3 is the first non-finite.
        values = np.full((6, 2, 1), 0.5)
        values[2] = 1e6
        values[3, 1] = bad
        values[4, 0] = math.nan
        trace = _fabricated(two_cycle, values, [[0.0], [1.0]])
        cert = certify_consensus_bound(trace, 1)
        assert not cert.passed
        assert cert.where == {"worst_t": 3}
        assert not math.isfinite(cert.measured)
        assert consensus_error(trace, 5) == 0.0

    def test_non_finite_only_in_last_round(self, two_cycle):
        values = np.full((4, 2, 1), 0.5)
        values[3, 0] = math.inf
        trace = _fabricated(two_cycle, values, [[0.0], [1.0]])
        cert = certify_consensus_bound(trace, 1)
        assert not cert.passed
        assert cert.where == {"worst_t": 3}
        assert consensus_error(trace, 3) == math.inf

    def test_zero_weight_names_first_round(self, two_cycle):
        trace = _fabricated(two_cycle, np.full((5, 2, 1), 0.5), [[0.0], [1.0]])
        trace.weights[3, 1] = 0.0
        trace.weights[4, 0] = -1.0
        with pytest.raises(ZeroWeightError, match="at iteration 3"):
            certify_consensus_bound(trace, 1)


class TestRescueNorms:
    """``_rescue_norms`` returns finite norms as given, rescues the infinite
    norms of finite rows by their largest |entry|, and never writes into a
    caller's array."""

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_finite_norms_come_back_as_given(self, shape):
        x = np.random.default_rng(len(shape)).uniform(-2.0, 2.0, shape)
        x.reshape(-1, 2)[1:2] = 0.0  # a zero norm, where there is a second row
        norms = np.linalg.norm(x, axis=-1)
        kept = (x.tobytes(), norms.tobytes())
        rescued = _rescue_norms(x, norms)
        assert rescued.shape == norms.shape and rescued.tobytes() == kept[1]
        assert (x.tobytes(), norms.tobytes()) == kept

    def test_a_python_float_comes_back_as_an_array(self):
        rescued = _rescue_norms(np.array([3.0, 4.0]), 5.0)
        assert isinstance(rescued, np.ndarray) and rescued.shape == () and rescued == 5.0

    def test_infinite_norms_of_finite_rows_are_rescued(self):
        # Squares that overflow, an ordinary row, a zero row, and a row
        # that is itself infinite, whose norm stays infinite.
        x = np.array([[1e200, 1e200], [3.0, 4.0], [-3e307, 4e307], [0.0, 0.0], [math.inf, 1.0]])
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(x, axis=-1)
            kept = (x.tobytes(), norms.tobytes())
            rescued = _rescue_norms(x, norms)
        assert (x.tobytes(), norms.tobytes()) == kept
        assert np.isinf(norms[[0, 2, 4]]).all()
        assert np.allclose(rescued[[0, 2]], [math.sqrt(2.0) * 1e200, 5e307], rtol=1e-15, atol=0)
        assert rescued[[1, 3]].tolist() == [5.0, 0.0]
        assert rescued[4] == math.inf

    def test_rescue_over_stacked_rows(self):
        # The (j, k) norms of (j, k, d) offsets, as the batched values take
        # them: each rescued entry equals the rescue of its row alone.
        x = np.array([[[1e200, -1e200], [0.5, 0.25]], [[2.0, 0.0], [1e155, 1e155]]])
        with np.errstate(over="ignore"):
            rescued = _rescue_norms(x, np.linalg.norm(x, axis=-1))
            rows = [_rescue_norms(row, np.linalg.norm(row)) for row in x.reshape(-1, 2)]
        assert rescued.ravel().tolist() == [float(r) for r in rows]
        assert np.isfinite(rescued).all()
