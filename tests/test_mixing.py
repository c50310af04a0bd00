import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lossynet.mixing
from lossynet import (
    DimensionMismatchError,
    ExperimentConfig,
    IterationOutOfRangeError,
    NotRowStochasticError,
    ScheduleTooShortError,
    WindowTooShortError,
    all_reliable,
    augment,
    bernoulli_b_bounded,
    build_graph,
    certify_contraction,
    certify_entry_lower_bound,
    contraction_constants,
    delta_coefficient,
    evolve_by_matrices,
    iteration_matrix,
    lambda_coefficient,
    matrix_product,
    periodic_adversarial,
    run_convergent_robust_push_sum,
    run_experiment,
)
from lossynet.mixing import (
    ROW_SUM_TOL, _audit_window, _check_row_stochastic, _fill_round, _round_tables, _window_product
)
from lossynet.schedules import FailureSchedule

from oracles import scripted_schedule
from random_graphs import random_strongly_connected

# Augmented two-cycle: nodes 1, 2 then buffers for (1,2) and (2,1).
M_RELIABLE = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.5, 0.0, 0.5],
        [0.5, 0.0, 0.5, 0.0],
    ]
)
M_DROP_12 = np.array(
    [
        [0.25, 0.0, 0.75, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.0, 1.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
    ]
)


def random_row_stochastic(rng, m):
    A = rng.uniform(0, 1, size=(m, m)) ** 2
    return A / A.sum(axis=1, keepdims=True)


def oracle_iteration_matrix(ag, schedule, t):
    """M[t] entry by entry, looping over edges and their incoming edges."""
    g = ag.base
    delivered = schedule.delivered(t).astype(float)
    n, m = g.n, ag.m
    D = (g.out_degrees + 1).astype(float)
    M = np.zeros((m, m))
    M[np.arange(n), np.arange(n)] = 1.0 / D**2
    src, dst = g.edge_sources, g.edge_destinations
    for k in range(g.num_edges):
        i, j = int(src[k]), int(dst[k])
        p = n + k
        b = delivered[k]
        M[i, j] = b / (D[i] * D[j])
        M[p, j] = b / D[j]
        M[i, p] = 1.0 / D[i] ** 2 + (1.0 - b) / D[i]
        M[p, p] = 1.0 - b
        for f in g.incoming_edge_indices[i]:
            bf = delivered[f]
            M[int(src[f]), p] = bf / (D[int(src[f])] * D[i])
            M[n + int(f), p] = bf / D[i]
    return M


def oracle_lambda(A):
    """1 minus the smallest pairwise row overlap, from the dense m x m x m
    array of entrywise minima."""
    overlaps = np.minimum(A[:, None, :], A[None, :, :]).sum(axis=2)
    return float(1.0 - overlaps.min())


class TestIterationMatrix:
    def test_all_links_delivered(self, two_cycle):
        M = iteration_matrix(augment(two_cycle), all_reliable(two_cycle, 1), 1)
        assert np.array_equal(M, M_RELIABLE)

    def test_one_link_dropped(self, two_cycle):
        table = {((1, 2), 1): 0, ((2, 1), 1): 1, ((1, 2), 2): 1, ((2, 1), 2): 1}
        schedule = scripted_schedule(two_cycle, 2, table)
        M = iteration_matrix(augment(two_cycle), schedule, 1)
        assert np.array_equal(M, M_DROP_12)

    def test_rejects_foreign_schedule(self, two_cycle, asym3):
        with pytest.raises(DimensionMismatchError):
            iteration_matrix(augment(two_cycle), all_reliable(asym3, 1), 1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        density=st.floats(0.0, 1.0),
        p_drop=st.floats(0.0, 0.9),
        B=st.integers(1, 3),
    )
    def test_matches_edge_loop_oracle(self, seed, n, density, p_drop, B):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(n, rng, density)
        schedule = bernoulli_b_bounded(g, p_drop, B, 6, seed=seed)
        ag = augment(g)
        for t in range(1, 7):
            assert np.array_equal(
                iteration_matrix(ag, schedule, t), oracle_iteration_matrix(ag, schedule, t)
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    def test_always_row_stochastic(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(n, rng)
        schedule = bernoulli_b_bounded(g, 0.5, 3, 5, seed=seed)
        for t in range(1, 6):
            M = iteration_matrix(augment(g), schedule, t)
            assert M.min() >= 0.0
            assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12


class TestMatrixProduct:
    def test_empty_window_is_identity(self, two_cycle):
        ag = augment(two_cycle)
        P = matrix_product(ag, all_reliable(two_cycle, 4), 5, 4)
        assert np.array_equal(P, np.eye(4))

    def test_constant_schedule_is_a_power(self, two_cycle):
        ag = augment(two_cycle)
        P = matrix_product(ag, all_reliable(two_cycle, 3), 1, 3)
        assert np.array_equal(P, np.linalg.matrix_power(M_RELIABLE, 3))
        assert P.min() == 0.1875

    def test_window_bounds_checked(self, two_cycle):
        ag = augment(two_cycle)
        schedule = all_reliable(two_cycle, 3)
        with pytest.raises(IterationOutOfRangeError):
            matrix_product(ag, schedule, 0, 2)
        with pytest.raises(IterationOutOfRangeError):
            matrix_product(ag, schedule, 1, 4)
        with pytest.raises(IterationOutOfRangeError):
            matrix_product(ag, schedule, 4, 2)


class TestEvolveMatchesSimulation:
    def test_scripted_lossy_run(self, asym3, lossy6):
        y = np.array([0.25, 1.5, -2.0])
        sim = run_convergent_robust_push_sum(asym3, y, lossy6, 6)
        mat = evolve_by_matrices(augment(asym3), lossy6, y, 6)
        assert np.abs(sim.values - mat.values).max() < 1e-11
        assert np.abs(sim.weights - mat.weights).max() < 1e-11

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_runs(self, seed):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(int(rng.integers(2, 6)), rng)
        schedule = bernoulli_b_bounded(g, 0.6, 2, 25, seed=seed)
        y = rng.uniform(-3, 3, size=g.n)
        sim = run_convergent_robust_push_sum(g, y, schedule, 25)
        mat = evolve_by_matrices(augment(g), schedule, y, 25)
        assert np.abs(sim.values - mat.values).max() < 1e-11
        assert np.abs(sim.weights - mat.weights).max() < 1e-11

    def test_horizon_checked(self, two_cycle):
        # The simulation's schedule rule, with its error and message.
        with pytest.raises(ScheduleTooShortError, match="covers 2 iterations, run needs 3"):
            evolve_by_matrices(
                augment(two_cycle), all_reliable(two_cycle, 2), [0.0, 1.0], 3
            )

    def test_negative_horizon(self, two_cycle):
        with pytest.raises(IterationOutOfRangeError, match=r"^horizon must be >= 0, got -1$"):
            evolve_by_matrices(
                augment(two_cycle), all_reliable(two_cycle, 2), [0.0, 1.0], -1
            )


class TestSpreadCoefficients:
    def test_identical_rows_have_zero_spread(self):
        A = np.full((3, 3), 1.0 / 3.0)
        assert delta_coefficient(A) == 0.0
        assert lambda_coefficient(A) == 0.0

    def test_identity_has_full_spread(self):
        assert delta_coefficient(np.eye(4)) == 1.0
        assert lambda_coefficient(np.eye(4)) == 1.0

    def test_frozen_values_on_round_matrix(self):
        assert delta_coefficient(M_RELIABLE) == 0.5
        assert lambda_coefficient(M_RELIABLE) == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(NotRowStochasticError):
            delta_coefficient(np.ones((2, 3)) / 3.0)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(NotRowStochasticError):
            delta_coefficient(np.array([[0.5, 0.4], [0.5, 0.5]]))

    @pytest.mark.parametrize("coefficient", [delta_coefficient, lambda_coefficient])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, coefficient, bad):
        with pytest.raises(NotRowStochasticError, match="non-finite"):
            coefficient(np.array([[bad, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("coefficient", [delta_coefficient, lambda_coefficient])
    def test_rejects_empty_matrix(self, coefficient):
        with pytest.raises(NotRowStochasticError, match="non-empty square"):
            coefficient(np.zeros((0, 0)))

    def test_rejects_negative_entries(self):
        with pytest.raises(NotRowStochasticError):
            lambda_coefficient(np.array([[1.2, -0.2], [0.5, 0.5]]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        first=st.sampled_from([None, 0, 1]),
    )
    def test_lambda_matches_dense_oracle(self, seed, m, first):
        rng = np.random.default_rng(seed)
        A = random_row_stochastic(rng, m)
        if first is not None and m >= first + 2:
            # Rows first and first + 1 share no support column.  With
            # first = 1, row 0 keeps its full support and overlaps every row,
            # so only a pair without row 0 is disjoint, and the support Gram
            # check must find it.
            cols = rng.permutation(m)
            A[first, cols[: m // 2]] = 0.0
            A[first + 1, cols[m // 2 :]] = 0.0
            A = A / A.sum(axis=1, keepdims=True)
            assert lambda_coefficient(A) == 1.0
        assert lambda_coefficient(A) == oracle_lambda(A)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40))
    def test_lambda_without_disjoint_rows_matches_oracle(self, seed, m):
        # Sparse rows, row 0 included, that all share one column: no pair is
        # disjoint, so lambda stays below 1.
        rng = np.random.default_rng(seed)
        A = random_row_stochastic(rng, m) * (rng.random((m, m)) < 0.2)
        A[:, rng.integers(m)] += 0.1
        A = A / A.sum(axis=1, keepdims=True)
        assert lambda_coefficient(A) == oracle_lambda(A) < 1.0

    def test_lambda_of_round_matrices_matches_oracle(self):
        rng = np.random.default_rng(11)
        g = random_strongly_connected(6, rng)
        ag = augment(g)
        schedule = bernoulli_b_bounded(g, 0.5, 2, 13, seed=11)
        for t in range(1, 14):
            M = iteration_matrix(ag, schedule, t)
            assert lambda_coefficient(M) == oracle_lambda(M)
        for r in range(1, 13):
            P = matrix_product(ag, schedule, r, 13)
            assert lambda_coefficient(P) == oracle_lambda(P)

    def test_tiny_negative_entry_keeps_the_dense_overlap(self):
        # Rows 0 and 1 have disjoint supports, but the -1e-10 entry within
        # tolerance makes their overlap negative, so lambda is not 1.
        eps = ROW_SUM_TOL / 100
        A = np.array([[1.0 + eps, -eps, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        assert lambda_coefficient(A) == oracle_lambda(A)
        assert lambda_coefficient(A) > 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
    def test_delta_at_most_lambda(self, seed, m):
        A = random_row_stochastic(np.random.default_rng(seed), m)
        d, l = delta_coefficient(A), lambda_coefficient(A)
        assert 0.0 <= d <= 1.0
        assert 0.0 <= l <= 1.0
        assert d <= l + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
    def test_left_factor_contracts_spread(self, seed, m):
        # delta(A @ B) <= lambda(A) * delta(B): prepending a round can only
        # shrink the spread, which is what drives geometric decay.
        rng = np.random.default_rng(seed)
        A = random_row_stochastic(rng, m)
        B = random_row_stochastic(rng, m)
        assert delta_coefficient(A @ B) <= lambda_coefficient(A) * delta_coefficient(B) + 1e-12


class TestEntryLowerBound:
    def test_reliable_two_cycle(self, two_cycle):
        report = certify_entry_lower_bound(
            augment(two_cycle), all_reliable(two_cycle, 3), 1, 3, 1
        )
        assert report.passed
        assert report.measured == 0.1875
        assert report.bound == 0.25**3
        assert report.where == {"window": (1, 3)} and report.allowance == 0.0

    def test_window_shorter_than_block(self, two_cycle):
        with pytest.raises(WindowTooShortError):
            certify_entry_lower_bound(
                augment(two_cycle), all_reliable(two_cycle, 3), 1, 2, 1
            )

    def test_lossy_schedules(self):
        for seed in range(6):
            rng = np.random.default_rng(9200 + seed)
            g = random_strongly_connected(int(rng.integers(2, 6)), rng)
            B = int(rng.integers(1, 4))
            block = g.n * B + 1
            schedule = bernoulli_b_bounded(g, 0.6, B, block + 4, seed=seed)
            report = certify_entry_lower_bound(augment(g), schedule, 2, block + 1, B)
            assert report.passed


def _audit_benchmark_graph():
    """30 agents and 140 links (m = 170), out-degree at most 9, strongly
    connected: the shape of the matrix-audit benchmark."""
    rng = np.random.default_rng(1)
    n = 30
    order = rng.permutation(n) + 1
    edges = {(int(order[k]), int(order[(k + 1) % n])) for k in range(n)}
    out = np.ones(n + 1, dtype=int)
    while len(edges) < 140:
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i != j and (i, j) not in edges and out[i] < 9:
            edges.add((i, j))
            out[i] += 1
    return build_graph(n, sorted(edges))


def _move_entry(monkeypatch, value: float) -> None:
    """Make every window product carry ``value`` at [0, 1], the rest of
    that entry moved into [0, 0], so that row sums stay as they were."""
    original = lossynet.mixing._window_product

    def mutant(*args, **kwargs):
        product = original(*args, **kwargs)
        product[0, 0] += product[0, 1] - value
        product[0, 1] = value
        return product

    monkeypatch.setattr(lossynet.mixing, "_window_product", mutant)


class TestEntryRoundingAllowance:
    def test_zero_entry_fails_at_benchmark_shape(self, monkeypatch):
        # The bound, about 1e-180 here, lies far below any absolute slack
        # an entry check could add.
        g = _audit_benchmark_graph()
        ag, B = augment(g), 3
        block = g.n * B + 1
        schedule = bernoulli_b_bounded(g, 0.5, B, block, seed=1)
        report = certify_entry_lower_bound(ag, schedule, 1, block, B)
        assert report.passed and 0.0 < report.bound < 1e-170 < report.measured
        _move_entry(monkeypatch, 0.0)
        report = certify_entry_lower_bound(ag, schedule, 1, block, B)
        assert report.measured == 0.0 and not report.passed

    @pytest.mark.parametrize("excess, passed", [(0.0, False), (1.0, True)])
    def test_threshold_is_the_bound_times_one_plus_gamma(self, monkeypatch, two_cycle,
                                                         excess, passed):
        # One block on the reliable two-cycle, whose smallest entry is then
        # bound * (1 + excess * gamma_k).  The bound itself fails: rounding
        # may have lifted an exact entry below the bound up to it.
        ag, schedule = augment(two_cycle), all_reliable(two_cycle, 3)
        gamma = lossynet.mixing._product_gamma(3, ag.m)
        assert 0.0 < gamma < 1e-14
        entry = 0.25**3 * (1.0 + excess * gamma)
        _move_entry(monkeypatch, entry)
        report = certify_entry_lower_bound(ag, schedule, 1, 3, 1)
        assert report.measured == entry and report.passed is passed

    def test_a_single_node_is_exact(self):
        g = build_graph(1, [])
        assert lossynet.mixing._product_gamma(5, 1) == 0.0
        report = certify_entry_lower_bound(augment(g), all_reliable(g, 2), 1, 2, 1)
        assert report.measured == report.bound == 1.0 and report.passed


class TestContraction:
    def test_reliable_two_cycle(self, two_cycle):
        report = certify_contraction(
            augment(two_cycle), all_reliable(two_cycle, 6), 1, 6, 1
        )
        assert report.passed
        assert report.detail["gamma_bound"] == (1.0 - 0.25**3) ** 2
        assert report.measured <= report.detail["lambda_product"]
        assert report.bound == min(report.detail["lambda_product"], report.detail["gamma_bound"])
        assert report.where == {"window": (1, 6)}
        assert report.allowance == lossynet.mixing.CONTRACTION_SLACK

    def test_empty_window_rejected(self, two_cycle):
        with pytest.raises(IterationOutOfRangeError):
            certify_contraction(augment(two_cycle), all_reliable(two_cycle, 3), 3, 2, 1)

    def test_lossy_schedules(self):
        for seed in range(6):
            rng = np.random.default_rng(9300 + seed)
            g = random_strongly_connected(int(rng.integers(2, 6)), rng)
            B = int(rng.integers(1, 4))
            block = g.n * B + 1
            T = block + int(rng.integers(0, 2 * block))
            schedule = bernoulli_b_bounded(g, 0.5, B, T, seed=seed)
            assert certify_contraction(augment(g), schedule, 1, T, B).passed

    def test_spread_can_rise_as_window_grows_right(self, two_cycle):
        # Extending a product on the right is NOT monotone: with deliveries
        # only every second round, the spread of M[1]...M[t] goes back up
        # after each delivery before decaying again.
        ag = augment(two_cycle)
        schedule = periodic_adversarial(two_cycle, 2, 8)
        spread = [
            delta_coefficient(matrix_product(ag, schedule, 1, t)) for t in (2, 3)
        ]
        assert spread == [0.5, 0.875]

    def test_spread_shrinks_as_window_grows_left(self):
        # Prepending rounds is monotone; that is the direction the decay
        # argument uses.
        for seed in range(5):
            rng = np.random.default_rng(9400 + seed)
            g = random_strongly_connected(int(rng.integers(2, 5)), rng)
            schedule = bernoulli_b_bounded(g, 0.6, 2, 12, seed=seed)
            ag = augment(g)
            t = 12
            spreads = [
                delta_coefficient(matrix_product(ag, schedule, r, t))
                for r in range(t + 1, 0, -1)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(spreads, spreads[1:]))

    def test_gamma_matches_contraction_constants(self, asym3):
        _, gamma, block = contraction_constants(asym3, 2)
        schedule = bernoulli_b_bounded(asym3, 0.4, 2, 2 * block, seed=3)
        report = certify_contraction(augment(asym3), schedule, 1, 2 * block, 2)
        assert report.detail["gamma_bound"] == gamma**2

    def test_log10_gamma_bound_is_the_log_of_gamma_bound(self, two_cycle):
        ag, schedule = augment(two_cycle), all_reliable(two_cycle, 6)
        # Blocks of 3 rounds: none, one and two of them.
        for t, blocks in ((2, 0), (3, 1), (6, 2)):
            report = certify_contraction(ag, schedule, 1, t, 1)
            detail = report.detail
            assert detail["log10_gamma_bound"] == pytest.approx(
                blocks * math.log10(1.0 - 0.25**3), rel=1e-14
            )
            assert 10 ** detail["log10_gamma_bound"] == pytest.approx(
                detail["gamma_bound"], rel=1e-14
            )

    def test_log10_gamma_bound_of_a_single_node(self):
        g = build_graph(1, [])
        ag, schedule = augment(g), all_reliable(g, 4)
        detail = certify_contraction(ag, schedule, 1, 1, 1).detail
        assert detail["gamma_bound"] == 1.0 and detail["log10_gamma_bound"] == 0.0
        detail = certify_contraction(ag, schedule, 1, 4, 1).detail
        assert detail["gamma_bound"] == 0.0 and detail["log10_gamma_bound"] == -math.inf


class TestAuditPass:
    def test_audit_builds_each_round_matrix_once(self, tmp_path, monkeypatch):
        calls = []
        original = lossynet.mixing._fill_round

        def counting(M, tab, schedule, t):
            calls.append(t)
            return original(M, tab, schedule, t)

        monkeypatch.setattr(lossynet.mixing, "_fill_round", counting)
        raw = {
            "mode": "matrix-audit",
            "graph": {"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [3, 1]]},
            "horizon": 12,
            "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 2, "seed": 4},
            "window": {"start": 3, "end": 11},
        }
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.summary["pass_flags"]["entry_lower_bound"] is not None
        assert calls == list(range(3, 12))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        p_drop=st.floats(0.0, 0.9),
        r=st.integers(1, 8),
        length=st.integers(1, 8),
    )
    @example(seed=3, n=1, p_drop=0.5, r=2, length=4)  # no edges at all
    @example(seed=5, n=4, p_drop=0.5, r=8, length=1)  # one round
    def test_window_matches_fresh_round_matrices(self, seed, n, p_drop, r, length):
        # The reused buffer against a fold over matrices built from scratch
        # by the edge-loop oracle, and the lambdas against the public builder.
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(n, rng)
        ag = augment(g)
        schedule = bernoulli_b_bounded(g, p_drop, 2, 8, seed=seed)
        t = min(8, r + length - 1)
        lambdas = []
        product = _window_product(ag, schedule, r, t, lambdas)
        expected = np.eye(ag.m)
        for k in range(r, t + 1):
            expected = expected @ oracle_iteration_matrix(ag, schedule, k)
        assert np.array_equal(product, expected)
        assert np.array_equal(product, matrix_product(ag, schedule, r, t))
        assert lambdas == [
            lambda_coefficient(iteration_matrix(ag, schedule, k)) for k in range(r, t + 1)
        ]
        audited, contraction, _ = _audit_window(ag, schedule, r, t, 2)
        assert np.array_equal(audited, product)
        assert contraction.detail["lambda_product"] == math.prod(lambdas)

    def test_audit_memory_does_not_grow_with_window(self):
        # The complete graph on 8 agents has 1008 delivery-dependent entries
        # for m = 64, so a selection table with one row per round of a
        # 1000-round window would take about 1 MB, against about 0.2 MB for the whole audit of
        # a 50-round window.  Only the per-round lambdas may pile up, at
        # well under 64 bytes each.
        g = build_graph(8, [(i, j) for i in range(1, 9) for j in range(1, 9) if i != j])
        ag = augment(g)
        assert _round_tables(ag)["positions"].size == 1008
        schedule = bernoulli_b_bounded(g, 0.5, 2, 1000, seed=1)
        _audit_window(ag, schedule, 1, 1, 2)
        peaks = []
        for T in (50, 1000):
            tracemalloc.start()
            try:
                _audit_window(ag, schedule, 1, T, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 950 * 64


def _every_pattern(g) -> FailureSchedule:
    """A schedule whose rounds are all 2**E delivery patterns of g."""
    E = g.num_edges
    rounds = np.arange(2**E)[:, None] >> np.arange(E) & 1
    return FailureSchedule(g, rounds.astype(np.uint8), 2**E)


def _table_matrix(ag, tab, schedule, t):
    """M[t] filled from the tables ``tab`` as they are, certified or not."""
    M = np.zeros((ag.m, ag.m))
    M.reshape(-1)[tab["agents"]] = tab["agent_keep"]
    _fill_round(M, tab, schedule, t)
    return M


# Graphs whose 2**E delivery patterns the round tables are checked on:
# rings, unequal out-degrees, the complete graph on three agents, and a
# four-agent graph with chords.
PATTERN_GRAPHS = {
    "two_cycle": (2, [(1, 2), (2, 1)]),
    "three_ring": (3, [(1, 2), (2, 3), (3, 1)]),
    "asym3": (3, [(1, 2), (2, 1), (2, 3), (3, 1)]),
    "complete3": (3, [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]),
    "four_ring": (4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
    "chords4": (4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 1), (3, 4), (4, 1), (4, 2)]),
}
# Shifts of the delivered values of one agent's links, in one row of M[t]:
# within the tolerance, beyond it, and two that cancel or add up (on the
# graphs where an agent sends on two links).
ROW_SHIFTS = [(), (1e-6,), (-1e-9,), (6e-9, -6e-9), (6e-9, 6e-9)]


def _pattern_cases():
    for name, (n, edges) in PATTERN_GRAPHS.items():
        most = max(sum(i == a for i, _ in edges) for a in range(1, n + 1))
        for shifts in ROW_SHIFTS:
            if len(shifts) <= most:
                yield pytest.param(name, shifts, id=f"{name}{list(shifts)}")


@pytest.fixture
def fresh_tables():
    """Round tables built anew in the test, and none of them kept after."""
    _round_tables.cache_clear()
    yield
    _round_tables.cache_clear()


def _negative_keep(tab):
    """Agent 2 keeps -1e-7 and moves the rest of its keep to its entry on
    link (2, 3), delivered or not: its row still sums to 1, but holds a
    negative entry."""
    # The second entry of the tables is [2, 3] of link (2, 3).
    moved = tab["agent_keep"][1] + 1e-7
    tab["agent_keep"][1] = -1e-7
    tab["delivered"][1] += moved
    tab["dropped"][1] += moved


class TestRoundTables:
    @pytest.mark.parametrize("name, shifts", list(_pattern_cases()))
    def test_certificate_passes_iff_every_round_matrix_does(self, name, shifts):
        g = build_graph(*PATTERN_GRAPHS[name])
        ag, schedule = augment(g), _every_pattern(g)
        tab = lossynet.mixing._table_entries(ag)
        sender = int(np.argmax(g.out_degrees))
        # The first E entries are [source, destination] of each link.
        links = np.flatnonzero(g.edge_sources == sender)
        for k, shift in zip(links, shifts):
            tab["delivered"][k] += shift
        try:
            lossynet.mixing._certify_tables(ag, tab)
            certified = True
        except NotRowStochasticError:
            certified = False
        dense = []
        for t in range(1, schedule.horizon + 1):
            try:
                _check_row_stochastic(_table_matrix(ag, tab, schedule, t))
                dense.append(True)
            except NotRowStochasticError:
                dense.append(False)
        assert certified == all(dense)
        # The worst pattern delivers on the links shifted one way only.
        worst = max(sum(v for v in shifts if v > 0), -sum(v for v in shifts if v < 0))
        assert certified == (worst < ROW_SUM_TOL)

    @pytest.mark.parametrize("name", sorted(PATTERN_GRAPHS))
    def test_table_lambda_matches_the_dense_coefficient(self, name, monkeypatch):
        g = build_graph(*PATTERN_GRAPHS[name])
        ag, schedule = augment(g), _every_pattern(g)
        dense = [
            lambda_coefficient(iteration_matrix(ag, schedule, t))
            for t in range(1, schedule.horizon + 1)
        ]
        fallbacks = []
        monkeypatch.setattr(
            lossynet.mixing, "lambda_coefficient",
            lambda A: fallbacks.append(1) or lambda_coefficient(A),
        )
        lambdas = []
        _window_product(ag, schedule, 1, schedule.horizon, lambdas)
        assert lambdas == dense
        if name == "complete3":
            assert not _round_tables(ag)["disjoint"]
            assert len(fallbacks) == schedule.horizon
        if name == "four_ring":
            assert _round_tables(ag)["disjoint"] and not fallbacks

    def test_a_negative_entry_takes_the_dense_lambda(self, monkeypatch, fresh_tables):
        # A dropped link's [source, destination] entry of -1e-9 instead of
        # 0 passes the certificate; lambda_coefficient then takes the
        # overlaps row by row, and so does every round of the window, also
        # on the 4-ring, whose rows are otherwise disjoint in every round.
        original = lossynet.mixing._table_entries

        def shifted(ag):
            tab = original(ag)
            tab["dropped"][0] = -1e-9
            return tab

        monkeypatch.setattr(lossynet.mixing, "_table_entries", shifted)
        g = build_graph(*PATTERN_GRAPHS["four_ring"])
        ag, schedule = augment(g), _every_pattern(g)
        assert not _round_tables(ag)["disjoint"]
        lambdas = []
        _window_product(ag, schedule, 1, schedule.horizon, lambdas)
        tab = _round_tables(ag)
        assert lambdas == [
            lambda_coefficient(_table_matrix(ag, tab, schedule, t))
            for t in range(1, schedule.horizon + 1)
        ]
        assert max(lambdas) > 1.0

    @pytest.mark.parametrize("corrupt, message", [
        (lambda tab: tab["delivered"].__setitem__(0, tab["delivered"][0] + 1e-6),
         r"node 1 of 6, link \(1, 2\)"),
        (lambda tab: tab["positions"].__setitem__(1, tab["positions"][0]),
         r"node 1 of 6, link \(2, 3\)"),
        (lambda tab: tab["dropped"].__setitem__(9, math.nan), r"node 4 of 6, link \(1, 2\)"),
        (lambda tab: tab["dropped"].__setitem__(0, -1e-7), r"node 1 of 6, link \(1, 2\)"),
        (_negative_keep, r"node 2 of 6, link \(2, 3\)"),
        (lambda tab: tab["positions"].__setitem__(0, 0), r"node 1 of 6, link \(1, 2\)"),
        (lambda tab: tab["positions"].__setitem__(0, 36), r"node 7 of 6, link \(1, 2\)"),
    ], ids=["row_sum", "shared_position", "nan", "negative", "negative_keep", "agent_diagonal",
            "outside"])
    def test_corrupted_tables_fail_before_any_product(self, monkeypatch, fresh_tables,
                                                      three_ring, corrupt, message):
        original = lossynet.mixing._table_entries

        def corrupted(ag):
            tab = original(ag)
            corrupt(tab)
            return tab

        def no_matmul(*args, **kwargs):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(lossynet.mixing, "_table_entries", corrupted)
        monkeypatch.setattr(np, "matmul", no_matmul)
        ag, schedule = augment(three_ring), all_reliable(three_ring, 4)
        with pytest.raises(NotRowStochasticError, match=message):
            _audit_window(ag, schedule, 1, 4, 1)

    def test_no_links_one_round_and_empty_windows(self, fresh_tables):
        g = build_graph(1, [])
        ag, schedule = augment(g), all_reliable(g, 3)
        tab = _round_tables(ag)
        assert tab["positions"].size == 0 and not tab["disjoint"]
        lambdas = []
        assert np.array_equal(_window_product(ag, schedule, 2, 2, lambdas), [[1.0]])
        assert lambdas == [0.0]
        assert np.array_equal(matrix_product(ag, schedule, 3, 2), [[1.0]])
        # A one-round product is M[r] itself, in a buffer of its own.
        g = build_graph(3, [(1, 2), (2, 3), (3, 1)])
        ag, schedule = augment(g), bernoulli_b_bounded(g, 0.5, 2, 4, seed=2)
        first = matrix_product(ag, schedule, 3, 3)
        assert np.array_equal(first, iteration_matrix(ag, schedule, 3))
        assert np.array_equal(first, np.eye(ag.m) @ iteration_matrix(ag, schedule, 3))
        first[0, 0] = 2.0
        assert matrix_product(ag, schedule, 3, 3)[0, 0] != 2.0
        assert np.array_equal(matrix_product(ag, schedule, 4, 3), np.eye(ag.m))

    def test_benchmark_audit_checks_rows_only_for_delta(self, monkeypatch):
        # Every round's lambda comes from the certified tables; only the
        # product's delta and rounds that fall back to the dense lambda
        # check a matrix row by row.
        g = _audit_benchmark_graph()
        ag, B = augment(g), 3
        block = g.n * B + 1
        schedule = bernoulli_b_bounded(g, 0.5, B, block, seed=1)
        checks, fallbacks = [], []
        original_check = lossynet.mixing._check_row_stochastic
        monkeypatch.setattr(
            lossynet.mixing, "_check_row_stochastic",
            lambda A: checks.append(1) or original_check(A),
        )
        monkeypatch.setattr(
            lossynet.mixing, "lambda_coefficient",
            lambda A: fallbacks.append(1) or lambda_coefficient(A),
        )
        _, contraction, entry = _audit_window(ag, schedule, 1, block, B)
        assert contraction.passed and entry.passed
        assert len(checks) == 1 + len(fallbacks)
        assert not fallbacks
