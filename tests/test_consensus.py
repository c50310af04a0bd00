import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    ConsensusTrace,
    DimensionMismatchError,
    IterationOutOfRangeError,
    NegativeInputError,
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
    random_strongly_connected,
    run_convergent_robust_push_sum,
    run_push_sum,
    run_robust_push_sum,
    scripted_schedule,
)
from lossynet.consensus import _CumulativeState


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cumulative_state_invariants(seed):
    """Broadcast totals never decrease, delivered totals never exceed them,
    and each real weight keeps at least its doubly-shared part."""
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(int(rng.integers(2, 5)), rng)
    schedule = bernoulli_b_bounded(g, 0.6, 3, 30, seed=seed)
    state = _CumulativeState(g, rng.uniform(0, 1, size=(g.n, 1)))
    D = (g.out_degrees + 1).astype(float)
    prev_sent = state.sent_weights.copy()
    for t in range(1, 31):
        prev_w = state.w.copy()
        state.convergent_round(schedule.delivered(t))
        assert np.all(state.sent_weights >= prev_sent - 1e-15)
        assert np.all(state.delivered_weights <= state.sent_weights[state.src] + 1e-15)
        assert np.all(state.w >= prev_w / D**2 - 1e-15)
        prev_sent = state.sent_weights.copy()


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


class TestRateBound:
    def test_contraction_constants_two_cycle(self, two_cycle):
        beta, gamma, block = contraction_constants(two_cycle, 1)
        assert beta == 0.25
        assert gamma == 1.0 - 0.25**3
        assert block == 3

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

    def test_rejects_negative_inputs(self, two_cycle):
        with pytest.raises(NegativeInputError):
            consensus_rate_bound(two_cycle, 1, [-1.0, 3.0], 3)

    def test_rejects_iteration_zero(self, two_cycle):
        with pytest.raises(IterationOutOfRangeError):
            consensus_rate_bound(two_cycle, 1, [1.0, 3.0], 0)

    def test_certify_passes_on_real_run(self, asym3):
        schedule = bernoulli_b_bounded(asym3, 0.5, 2, 400, seed=5)
        trace = run_convergent_robust_push_sum(asym3, [0.2, 0.9, 0.4], schedule, 400)
        cert = certify_consensus_bound(trace, 2)
        assert cert.passed
        assert cert.final_error < 1e-8
        assert cert.worst_error <= cert.worst_bound

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
        assert cert.worst_t == 1
        assert cert.worst_error == consensus_error(trace, 1)
        assert cert.worst_bound == math.inf

    def test_certify_trivial_for_empty_trace(self, two_cycle):
        trace = run_convergent_robust_push_sum(
            two_cycle, [0.0, 1.0], all_reliable(two_cycle, 0), 0
        )
        cert = certify_consensus_bound(trace, 1)
        assert cert.passed
        assert cert.worst_t is None

    def test_certify_flags_fabricated_violation(self, two_cycle):
        # An impossible trace whose agent ratios sit far from the average.
        values = np.full((2, 4, 1), 100.0)
        weights = np.ones((2, 4))
        trace = ConsensusTrace(augment(two_cycle), np.array([[0.0], [1.0]]), values, weights)
        cert = certify_consensus_bound(trace, 1)
        assert not cert.passed
        assert cert.worst_error > cert.worst_bound
