import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    FailureSchedule,
    IncompleteTableError,
    IterationOutOfRangeError,
    NeverReliableLinkError,
    all_reliable,
    bernoulli_b_bounded,
    build_graph,
    periodic_adversarial,
    read_schedule_csv,
    scripted_schedule,
    verify_b_bounded,
    worst_gap,
    write_schedule_csv,
)


def _table(g, columns):
    """Build a scripted-schedule table from per-edge indicator sequences."""
    return {
        (edge, t + 1): columns[edge][t]
        for edge in g.edges
        for t in range(len(columns[edge]))
    }


class TestFailureSchedule:
    def test_rejects_wrong_width(self, two_cycle):
        with pytest.raises(ValueError):
            FailureSchedule(two_cycle, np.ones((3, 1)), 1)

    def test_rejects_non_binary(self, two_cycle):
        with pytest.raises(ValueError):
            FailureSchedule(two_cycle, np.full((3, 2), 2), 1)

    def test_rejects_bad_window(self, two_cycle):
        with pytest.raises(ValueError):
            FailureSchedule(two_cycle, np.ones((3, 2)), 0)

    def test_indicators_are_read_only(self, two_cycle):
        s = all_reliable(two_cycle, 3)
        with pytest.raises(ValueError):
            s.indicators[0, 0] = 0

    def test_delivered_is_one_based(self, two_cycle):
        s = scripted_schedule(two_cycle, 2, _table(two_cycle, {(1, 2): [0, 1], (2, 1): [1, 1]}))
        assert s.delivered(1).tolist() == [False, True]
        assert s.delivered(2).tolist() == [True, True]

    @pytest.mark.parametrize("t", [0, 3])
    def test_delivered_range_checked(self, two_cycle, t):
        s = all_reliable(two_cycle, 2)
        with pytest.raises(IterationOutOfRangeError):
            s.delivered(t)


class TestWorstGap:
    def test_all_ones_gives_one(self, two_cycle):
        assert worst_gap(all_reliable(two_cycle, 5)) == 1

    def test_alternating_gives_two(self, two_cycle):
        s = scripted_schedule(
            two_cycle, 4, _table(two_cycle, {(1, 2): [0, 1, 0, 1], (2, 1): [1, 1, 1, 1]})
        )
        assert worst_gap(s) == 2
        assert s.window == 2

    def test_trailing_outage_counts(self, two_cycle):
        s = scripted_schedule(
            two_cycle, 3, _table(two_cycle, {(1, 2): [1, 0, 0], (2, 1): [1, 1, 1]})
        )
        assert worst_gap(s) == 3

    def test_verify_b_bounded(self, two_cycle):
        s = periodic_adversarial(two_cycle, 3, 12)
        assert verify_b_bounded(s, 3)
        assert verify_b_bounded(s, 4)
        assert not verify_b_bounded(s, 2)

    def test_verify_rejects_bad_b(self, two_cycle):
        with pytest.raises(ValueError):
            verify_b_bounded(all_reliable(two_cycle, 2), 0)


class TestScriptedSchedule:
    def test_never_reliable_link(self, two_cycle):
        with pytest.raises(NeverReliableLinkError):
            scripted_schedule(
                two_cycle, 3, _table(two_cycle, {(1, 2): [0, 0, 0], (2, 1): [1, 1, 1]})
            )

    def test_missing_entry(self, two_cycle):
        table = _table(two_cycle, {(1, 2): [1, 1], (2, 1): [1, 1]})
        del table[((1, 2), 1)]
        with pytest.raises(IncompleteTableError):
            scripted_schedule(two_cycle, 2, table)

    def test_unexpected_entry(self, two_cycle):
        table = _table(two_cycle, {(1, 2): [1, 1], (2, 1): [1, 1]})
        table[((1, 2), 3)] = 1
        with pytest.raises(IncompleteTableError):
            scripted_schedule(two_cycle, 2, table)

    def test_entry_for_unknown_edge(self, two_cycle):
        table = _table(two_cycle, {(1, 2): [1], (2, 1): [1]})
        table[((2, 2), 1)] = 1
        with pytest.raises(IncompleteTableError):
            scripted_schedule(two_cycle, 1, table)


class TestGenerators:
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(0.0, 0.95),
        B=st.integers(1, 4),
        T=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bernoulli_respects_window_and_rate(self, p, B, T, seed):
        g = build_graph(3, [(1, 2), (2, 3), (3, 1)])
        s = bernoulli_b_bounded(g, p, B, T, seed=seed)
        assert s.horizon == T
        assert s.window == B
        assert verify_b_bounded(s, B)
        # Forcing only converts drops into deliveries, so every realized drop
        # must coincide with a raw Bernoulli drop proposal.
        proposed = np.random.default_rng(seed).random((T, g.num_edges)) < p
        assert np.all(proposed[s.indicators == 0])

    def test_bernoulli_deterministic(self, two_cycle):
        a = bernoulli_b_bounded(two_cycle, 0.5, 2, 40, seed=9)
        b = bernoulli_b_bounded(two_cycle, 0.5, 2, 40, seed=9)
        assert np.array_equal(a.indicators, b.indicators)

    def test_bernoulli_window_one_is_all_reliable(self, two_cycle):
        s = bernoulli_b_bounded(two_cycle, 0.9, 1, 30, seed=1)
        assert s.indicators.min() == 1

    def test_bernoulli_zero_drop(self, two_cycle):
        s = bernoulli_b_bounded(two_cycle, 0.0, 3, 30, seed=1)
        assert s.indicators.min() == 1

    def test_bernoulli_rejects_certain_drop(self, two_cycle):
        with pytest.raises(ValueError):
            bernoulli_b_bounded(two_cycle, 1.0, 2, 10, seed=0)

    def test_periodic_delivers_on_multiples(self, two_cycle):
        s = periodic_adversarial(two_cycle, 3, 9)
        col = s.indicators[:, 0].tolist()
        assert col == [0, 0, 1, 0, 0, 1, 0, 0, 1]
        assert worst_gap(s) == 3
        assert s.window == 3

    def test_all_reliable(self, two_cycle):
        s = all_reliable(two_cycle, 4)
        assert s.indicators.min() == 1
        assert s.window == 1


class TestCsvRoundTrip:
    def test_round_trip(self, asym3, tmp_path):
        s = bernoulli_b_bounded(asym3, 0.4, 2, 25, seed=3)
        path = tmp_path / "schedule.csv"
        write_schedule_csv(s, path)
        back = read_schedule_csv(asym3, path)
        assert np.array_equal(back.indicators, s.indicators)
        assert back.window == worst_gap(s)
        assert back.horizon == s.horizon

    def test_write_is_byte_deterministic(self, two_cycle, tmp_path):
        s = periodic_adversarial(two_cycle, 2, 6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_schedule_csv(s, p1)
        write_schedule_csv(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_missing_rows(self, two_cycle, tmp_path):
        s = all_reliable(two_cycle, 3)
        path = tmp_path / "schedule.csv"
        write_schedule_csv(s, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(IncompleteTableError):
            read_schedule_csv(two_cycle, path)

    def test_read_rejects_repeated_row(self, two_cycle, tmp_path):
        # Edge (1, 2) delivers at t = 1, then a repeated row says it dropped;
        # the file contradicts itself, so neither row may win silently.
        path = tmp_path / "schedule.csv"
        write_schedule_csv(all_reliable(two_cycle, 2), path)
        with open(path, "a") as fh:
            fh.write("1,2,1,0\n")
        with pytest.raises(IncompleteTableError, match=r"row 6 repeats edge \(1, 2\) at iteration 1"):
            read_schedule_csv(two_cycle, path)
