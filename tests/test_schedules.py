import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    FailureSchedule,
    IncompleteTableError,
    IterationOutOfRangeError,
    LossyNetError,
    MalformedScheduleError,
    NeverReliableLinkError,
    all_reliable,
    bernoulli_b_bounded,
    build_graph,
    periodic_adversarial,
    read_schedule_csv,
    worst_gap,
)
from lossynet import schedules
from lossynet.schedules import _max_outage_run

from oracles import scripted_schedule, write_schedule_csv


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


@pytest.mark.parametrize(
    "make",
    [
        lambda g: scripted_schedule(g, -1, {}),
        lambda g: bernoulli_b_bounded(g, 0.5, 2, -1, seed=0),
        lambda g: periodic_adversarial(g, 2, -1),
        lambda g: all_reliable(g, -1),
    ],
    ids=["scripted", "bernoulli", "periodic", "all_reliable"],
)
def test_generators_reject_negative_horizon(two_cycle, make):
    with pytest.raises(IterationOutOfRangeError, match=r"^horizon must be >= 0, got -1$"):
        make(two_cycle)


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

    def test_periodic_schedule_meets_its_window(self, two_cycle):
        assert worst_gap(periodic_adversarial(two_cycle, 3, 12)) == 3


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


def _bernoulli_reference(g, p_drop, B, T, seed):
    """The per-round loop the array generator replaced, with Python ints: a
    link down for B - 1 consecutive rounds is forced to deliver."""
    proposed = np.random.default_rng(seed).random((T, g.num_edges)) < p_drop
    ind = np.ones((T, g.num_edges), dtype=np.uint8)
    for k in range(g.num_edges):
        run = 0
        for t in range(T):
            if proposed[t, k] and run < B - 1:
                ind[t, k] = 0
                run += 1
            else:
                run = 0
    return ind


class TestGenerators:
    @pytest.mark.parametrize("make", [
        lambda g: bernoulli_b_bounded(g, 0.5, 0, 5, seed=1),
        lambda g: periodic_adversarial(g, 0, 5),
    ], ids=["bernoulli", "periodic"])
    def test_reject_a_zero_window(self, two_cycle, make):
        with pytest.raises(ValueError, match=r"^B must be >= 1, got 0$"):
            make(two_cycle)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        B=st.one_of(st.integers(1, 8), st.just(10**30)),
        T=st.integers(0, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bernoulli_matches_reference_loop(self, p, B, T, seed):
        g = build_graph(3, [(1, 2), (2, 3), (3, 1), (1, 3)])
        s = bernoulli_b_bounded(g, p, B, T, seed=seed)
        assert np.array_equal(s.indicators, _bernoulli_reference(g, p, B, T, seed))

    @pytest.mark.parametrize("p, B, T", [
        (0.9, 1, 50),       # every proposed drop is forced to deliver
        (0.9, 51, 50),      # B = T + 1: no forcing within the horizon
        (0.9, 52, 50),
        (0.9, 10**30, 50),  # B beyond 64 bits
        (0.0, 3, 50),
        (0.5, 3, 0),
        (0.99, 2, 400),
        (0.99, 7, 400),
        (0.999, 10**30, 254),  # positions counted in uint8, up to T + 1 = 255
        (0.999, 10**30, 255),  # the first horizon counted in uint16
    ])
    def test_bernoulli_edge_cases_match_reference_loop(self, two_cycle, p, B, T):
        s = bernoulli_b_bounded(two_cycle, p, B, T, seed=5)
        assert s.indicators.shape == (T, 2)
        assert np.array_equal(s.indicators, _bernoulli_reference(two_cycle, p, B, T, 5))

    def test_bernoulli_memory_stays_near_the_draw(self, two_cycle):
        # Run positions are counted in the smallest unsigned type that holds
        # T + 1 (4 bytes here, half the float64 draw), and at most three
        # such arrays and the one-byte masks are alive at once.
        T = 100_000
        draw = 8 * T * two_cycle.num_edges
        tracemalloc.start()
        try:
            bernoulli_b_bounded(two_cycle, 0.9, 4, T, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * draw

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
        assert worst_gap(s) <= B
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

    @pytest.mark.parametrize("B", [1, 2, 3, 7, 12, 13])
    def test_periodic_ticks_match_multiples(self, two_cycle, B):
        s = periodic_adversarial(two_cycle, B, 12)
        expected = [int(t % B == 0) for t in range(1, 13)]
        assert s.indicators.T.tolist() == [expected, expected]

    def test_periodic_window_beyond_64_bits(self, two_cycle):
        s = periodic_adversarial(two_cycle, 10**30, 5)
        assert s.indicators.shape == (5, 2)
        assert s.indicators.max() == 0
        assert s.window == 10**30

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


# Oracles: the dict-based reader, the set-based table check, the per-column
# outage loop and the csv.writer schedule writer that the array versions
# replaced.  Each must agree with its replacement on schedules, on bytes and
# on every rejection (same class, same message).
def _oracle_outage_run(indicators):
    T, E = indicators.shape
    worst = 0
    for k in range(E):
        ones = np.flatnonzero(indicators[:, k])
        if ones.size == 0:
            worst = max(worst, T)
            continue
        lead = int(ones[0])
        trail = int(T - 1 - ones[-1])
        inner = int((np.diff(ones) - 1).max(initial=0))
        worst = max(worst, lead, trail, inner)
    return worst


def _oracle_scripted(g, T, table):
    ind = np.zeros((T, g.num_edges), dtype=np.uint8)
    expected = {(edge, t) for edge in g.edges for t in range(1, T + 1)}
    for key, value in table.items():
        edge = (int(key[0][0]), int(key[0][1]))
        t = int(key[1])
        if (edge, t) not in expected:
            raise IncompleteTableError(
                f"unexpected table entry for edge {edge} at iteration {t}"
            )
        expected.remove((edge, t))
        if value not in (0, 1):
            raise ValueError(f"indicator for {edge} at t={t} must be 0 or 1")
        ind[t - 1, g.edges.index(edge)] = value
    if expected:
        edge, t = sorted(expected)[0]
        raise IncompleteTableError(
            f"table is missing edge {edge} at iteration {t} "
            f"({len(expected)} entries missing in total)"
        )
    if T >= 1:
        dead = np.flatnonzero(ind.sum(axis=0) == 0)
        if dead.size:
            raise NeverReliableLinkError(
                f"link {g.edges[int(dead[0])]} never delivers within horizon {T}"
            )
    return FailureSchedule(g, ind, _oracle_outage_run(ind) + 1)


def _oracle_read(g, path):
    table: dict = {}
    horizon = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            t = int(row["t"])
            horizon = max(horizon, t)
            key = ((int(row["src"]), int(row["dst"])), t)
            if key in table:
                raise IncompleteTableError(
                    f"row {reader.line_num} repeats edge {key[0]} at iteration {t}"
                )
            table[key] = int(row["indicator"])
    return _oracle_scripted(g, horizon, table)


def _oracle_write(schedule, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "t", "indicator"])
        for k, (i, j) in enumerate(schedule.graph.edges):
            for t in range(1, schedule.horizon + 1):
                writer.writerow([i, j, t, int(schedule.indicators[t - 1, k])])


def _outcome(fn, *args):
    """A schedule's (indicators, window, horizon), or the error it raised."""
    try:
        s = fn(*args)
    except LossyNetError as exc:
        return type(exc), str(exc)
    return s.indicators.tolist(), s.window, s.horizon


RING4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])


def _reliable_lines(T=3):
    """Header plus rows of an all-reliable RING4 schedule over T rounds."""
    return ["src,dst,t,indicator"] + [f"{i},{j},{t},1" for i, j in RING4.edges for t in range(1, T + 1)]


# Edits of the all-reliable file, each rejected by the oracle for one reason
# or for the one that takes precedence.
REJECTED_FILES = {
    "repeat at end": lambda ls: ls + ["2,3,2,0"],
    "repeat mid-file": lambda ls: ls[:5] + ["1,2,1,1"] + ls[5:],
    "repeat after unknown edge": lambda ls: ls + ["3,1,1,1", "4,1,3,1"],
    "repeated unknown edge": lambda ls: ls + ["3,2,2,1", "3,2,2,0"],
    "repeat after blank lines": lambda ls: ls[:3] + ["", ""] + ls[3:] + ["", "1,2,3,1"],
    "unknown edge": lambda ls: ls[:7] + ["1,3,1,1"] + ls[7:],
    "first unknown in file order": lambda ls: ls + ["4,2,1,1", "1,4,1,1"],
    "unknown edge beyond horizon": lambda ls: ls + ["2,1,9,1"],
    "missing row": lambda ls: ls[:4] + ls[5:],
    "missing rows": lambda ls: [ls[0]] + ls[4:9] + ls[10:],
    "missing beats never-reliable": lambda ls: [ls[0], "1,2,2,0", "1,2,3,0"] + ls[4:],
    "first of several repeats": lambda ls: ls + ["2,4,1,1", "1,2,1,0", "2,4,1,1"],
    "unknown beats missing": lambda ls: ls[:-2] + ["9,9,1,1"],
    "never reliable": lambda ls: ls[:4] + ["2,3,1,0", "2,3,2,0", "2,3,3,0"] + ls[7:],
    "repeat beats all": lambda ls: ls[:2] + ["7,7,1,1"] + ls[3:] + ["2,4,3,1"],
    "unknown edge at int64 extremes": lambda ls: ls + [f"{2**63 - 1},{-2**63},1,1"],
    "repeated unknown edge at int64 extremes":
        lambda ls: ls + [f"{-2**63},{2**63 - 1},2,1", "9,9,1,1", f"{-2**63},{2**63 - 1},2,0"],
}


class TestArrayReaderMatchesOracle:
    @pytest.mark.parametrize("seed", [1, 5, 2027])
    @pytest.mark.parametrize("T", [0, 1, 17, 60])
    def test_bernoulli_round_trip(self, tmp_path, seed, T):
        for g in (RING4, build_graph(3, [(1, 2), (2, 1), (2, 3), (3, 1)])):
            s = bernoulli_b_bounded(g, 0.6, 4, T, seed=seed)
            path = tmp_path / "s.csv"
            write_schedule_csv(s, path)
            assert _outcome(read_schedule_csv, g, path) == _outcome(_oracle_read, g, path)

    def test_header_order_blank_lines_and_crlf(self, tmp_path):
        s = bernoulli_b_bounded(RING4, 0.5, 3, 9, seed=4)
        rows = [f"{t},{v},{j},{i}" for k, (i, j) in enumerate(RING4.edges)
                for t, v in enumerate(s.indicators[:, k].tolist(), start=1)]
        path = tmp_path / "s.csv"
        path.write_text("t,indicator,dst,src\r\n" + "\r\n\r\n".join(rows[::-1]) + "\r\n\r\n")
        assert _outcome(read_schedule_csv, RING4, path) == _outcome(_oracle_read, RING4, path)
        assert np.array_equal(read_schedule_csv(RING4, path).indicators, s.indicators)

    def test_extra_column_is_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        lines = _reliable_lines()
        path.write_text("\n".join([lines[0] + ",note"] + [ln + ",x" for ln in lines[1:]]) + "\n")
        assert _outcome(read_schedule_csv, RING4, path) == _outcome(_oracle_read, RING4, path)

    @pytest.mark.parametrize("case", sorted(REJECTED_FILES))
    def test_rejections(self, tmp_path, case):
        path = tmp_path / "s.csv"
        path.write_text("\n".join(REJECTED_FILES[case](_reliable_lines())) + "\n")
        expected = _outcome(_oracle_read, RING4, path)
        assert isinstance(expected[0], type), "the oracle must reject the file"
        assert _outcome(read_schedule_csv, RING4, path) == expected

    @staticmethod
    def _with_cell(tmp_path, column: int, cell: str):
        """The all-reliable file with one cell 1 of its first row replaced."""
        lines = _reliable_lines()
        cells = lines[1].split(",")
        assert cells[column] == "1"
        cells[column] = cell
        lines[1] = ",".join(cells)
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("column, cell", [
        (column, cell) for column in (0, 2, 3)
        for cell in ("+1", " 1", "1 ", "1_0", '"1"', "\u0661") if (column, cell) != (3, "1_0")
    ])
    def test_cells_read_as_int_reads_them(self, tmp_path, column, cell):
        # np.loadtxt reads signs and spaces; underscores, quotes and
        # non-ASCII digits take the csv path.  Either way the oracle's int()
        # decides, and no warning escapes.
        path = self._with_cell(tmp_path, column, cell)
        assert _outcome(read_schedule_csv, RING4, path) == _outcome(_oracle_read, RING4, path)

    def test_underscore_indicator_is_ten(self, tmp_path):
        # The oracle ends in a plain ValueError here.
        path = self._with_cell(tmp_path, 3, "1_0")
        with pytest.raises(MalformedScheduleError,
                           match=re.escape("row 2 has indicator 10, which is not 0 or 1")):
            read_schedule_csv(RING4, path)

    @pytest.mark.parametrize("text", [
        "src,dst,t,indicator\n",
        "src,dst,t,indicator",
        "\n".join(_reliable_lines()),
        "\r\n".join(_reliable_lines()),
    ])
    def test_header_only_and_no_final_newline(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        expected = _outcome(_oracle_read, RING4, path)
        assert _outcome(read_schedule_csv, RING4, path) == expected
        assert expected[2] == (3 if "\n" in text.strip() else 0)

    def test_byte_order_mark_is_part_of_the_header(self, tmp_path):
        # The oracle's DictReader fails with a KeyError; the reader names the header.
        path = tmp_path / "s.csv"
        path.write_text("\n".join(_reliable_lines()) + "\n", encoding="utf-8-sig")
        with pytest.raises(MalformedScheduleError,
                           match=re.escape("row 1: header '\\ufeffsrc,dst,t,indicator'")):
            read_schedule_csv(RING4, path)

    @pytest.mark.parametrize("rows, line", [(slice(4, 5), 5), (slice(1, None), 2)])
    def test_five_cells_under_four_columns(self, tmp_path, rows, line):
        # One wide row, or every row wide: np.loadtxt reads the latter as a
        # table of five columns, so the width check must reject it.  (The
        # oracle's DictReader keeps the extra cell under None.)
        lines = _reliable_lines()
        lines[rows] = [ln + ",9" for ln in lines[rows]]
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedScheduleError,
                           match=re.escape(f"row {line} has 5 cells, the header has 4")):
            read_schedule_csv(RING4, path)

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: ls[:3] + [ls[3] + " # note"] + ls[4:],
         "row 4 has indicator '1 # note', which is not a 64-bit integer"),
        (lambda ls: ls[:3] + ["# note"] + ls[3:], "row 4 has 1 cells, the header has 4"),
    ])
    def test_hash_starts_no_comment(self, tmp_path, edit, message):
        path = tmp_path / "s.csv"
        path.write_text("\n".join(edit(_reliable_lines())) + "\n")
        with pytest.raises(MalformedScheduleError, match=re.escape(message)):
            read_schedule_csv(RING4, path)

    def test_text_column_inside_five_column_header(self, tmp_path):
        # test_extra_column_is_ignored puts the text column last.
        rows = [ln.split(",") for ln in _reliable_lines()]
        for k, row in enumerate(rows):
            row.insert(1, "note" if k == 0 else f"x{k}")
        path = tmp_path / "s.csv"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        expected = _outcome(_oracle_read, RING4, path)
        assert _outcome(read_schedule_csv, RING4, path) == expected
        assert expected[2] == 3

    def test_written_file_takes_the_loadtxt_path(self, tmp_path, monkeypatch):
        s = bernoulli_b_bounded(RING4, 0.5, 3, 30, seed=2)
        path = tmp_path / "s.csv"
        write_schedule_csv(s, path)
        monkeypatch.setattr(schedules, "_csv_columns", None)
        assert np.array_equal(read_schedule_csv(RING4, path).indicators, s.indicators)

    def test_far_iteration_allocates_no_table(self, tmp_path):
        # One row at t = 10**5 leaves the table incomplete; saying so must
        # not take memory of the order of T x E.
        path = tmp_path / "s.csv"
        path.write_text("\n".join(_reliable_lines() + ["1,2,100000,1"]) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(IncompleteTableError,
                               match=re.escape("missing edge (1, 2) at iteration 4 (499984 entries")):
                read_schedule_csv(RING4, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_empty_file_is_an_empty_schedule(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        assert _outcome(read_schedule_csv, RING4, path) == _outcome(_oracle_read, RING4, path)

    @pytest.mark.parametrize("text", ["\n", "\n\n\n", "\r\n\r\n"])
    def test_blank_lines_only_are_an_empty_schedule(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        assert _outcome(read_schedule_csv, RING4, path) == _outcome(_oracle_read, RING4, path)
        assert read_schedule_csv(RING4, path).horizon == 0

    @pytest.mark.parametrize("edit, error, message", [
        (lambda ls: ls[:3] + ["1,2,x,1"] + ls[4:], MalformedScheduleError,
         "row 4 has t 'x', which is not a 64-bit integer"),
        (lambda ls: ls + ["1,2,1,0"], IncompleteTableError, "row 17 repeats edge (1, 2)"),
        (lambda ls: ls[:2] + ['1,2,"2",1'] + ls[3:] + ["1,2,1,0"], IncompleteTableError,
         "row 17 repeats edge (1, 2)"),
    ], ids=["malformed row", "repeat", "repeat on the csv path"])
    def test_error_takes_at_most_two_opens(self, tmp_path, monkeypatch, edit, error, message):
        path = tmp_path / "s.csv"
        path.write_text("\n".join(edit(_reliable_lines())) + "\n")
        opened = []
        monkeypatch.setattr(schedules, "open", lambda *a, **k: opened.append(a) or open(*a, **k),
                            raising=False)
        with pytest.raises(error, match=re.escape(message)):
            read_schedule_csv(RING4, path)
        assert 1 <= len(opened) <= 2

    @pytest.mark.parametrize("where", ["header", "first row", "last row of a long file"])
    def test_undecodable_bytes_are_malformed(self, tmp_path, where):
        # Text is decoded in chunks, so a bad byte early in the file fails
        # the header read, and one far into it fails the csv read.
        lines = _reliable_lines(T=3 if where != "last row of a long file" else 2000)
        data = ("\n".join(lines) + "\n").encode()
        at = {"header": 3, "first row": len(lines[0]) + 1, "last row of a long file": -2}[where]
        data = data[:at] + b"\xff" + data[at + 1:]
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedScheduleError, match="can't decode byte 0xff"):
            read_schedule_csv(RING4, path)

    def test_field_beyond_the_csv_limit_is_malformed(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n".join(_reliable_lines() + ["1,2," + "9" * 200_000 + ",1"]) + "\n")
        with pytest.raises(MalformedScheduleError, match="field larger than field limit"):
            read_schedule_csv(RING4, path)

    @pytest.mark.parametrize("row, message", [
        ("1,2,1", "row 4 has 3 cells, the header has 4"),
        ("1,2,1,1,0", "row 4 has 5 cells, the header has 4"),
        ("2,1,x,1", "row 4 has t 'x', which is not a 64-bit integer"),
        ("1.0,2,1,1", "row 4 has src '1.0', which is not a 64-bit integer"),
        ("1,2,99999999999999999999,1", "row 4 has t '99999999999999999999', which is not"),
        ("1,2,1,2", "row 4 has indicator 2, which is not 0 or 1"),
        ("1,2,1,-1", "row 4 has indicator -1, which is not 0 or 1"),
        ("1,2,0,1", "row 4 has iteration 0, which is below 1"),
        ("1,2,-3,1", "row 4 has iteration -3, which is below 1"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        # A blank line before the row: the reported number is the file's line.
        lines = _reliable_lines()
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines[:2] + ["", row] + lines[2:] + ["1,2,x,1"]) + "\n")
        with pytest.raises(MalformedScheduleError, match=re.escape(message)):
            read_schedule_csv(RING4, path)

    def test_header_without_columns(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n".join(["src,dst,t"] + [ln[:-2] for ln in _reliable_lines()[1:]]) + "\n")
        with pytest.raises(MalformedScheduleError, match="row 1: header 'src,dst,t' does not name"):
            read_schedule_csv(RING4, path)

    @pytest.mark.parametrize("seed", range(6))
    def test_write_matches_oracle_bytes(self, tmp_path, seed):
        s = bernoulli_b_bounded(RING4, 0.5, 3, 7 * seed, seed=seed)
        write_schedule_csv(s, tmp_path / "a.csv")
        _oracle_write(s, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_outage_run_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        T, E = int(rng.integers(0, 12)), int(rng.integers(0, 5))
        ind = (rng.random((T, E)) < rng.random()).astype(np.uint8)
        assert _max_outage_run(ind) == _oracle_outage_run(ind)


def _reliable_table(g, T):
    return {(edge, t): 1 for edge in g.edges for t in range(1, T + 1)}


# Edits of an all-reliable RING4 table over 3 rounds, in dict order.
SCRIPTED_TABLES = {
    "t beyond T": lambda tb: {**tb, ((1, 2), 4): 1},
    "t zero": lambda tb: {((1, 2), 0): 1, **tb},
    "unknown edge": lambda tb: {**tb, ((2, 1), 1): 1},
    "missing": lambda tb: {k: v for k, v in tb.items() if k != ((2, 4), 2)},
    "normalized duplicate": lambda tb: {**tb, (("1", 2), 1): 1},
    "never reliable": lambda tb: {**tb, **{((3, 4), t): 0 for t in (1, 2, 3)}},
    "mixed values": lambda tb: {**tb, ((1, 2), 1): True, ((2, 3), 2): 0.0, ((3, 4), 3): np.int64(0)},
}


def _lossy_lines():
    """Header plus rows of a lossy RING4 schedule, and the schedule."""
    s = bernoulli_b_bounded(RING4, 0.5, 3, 9, seed=4)
    rows = [f"{i},{j},{t},{v}" for k, (i, j) in enumerate(RING4.edges)
            for t, v in enumerate(s.indicators[:, k].tolist(), start=1)]
    return ["src,dst,t,indicator"] + rows, s


# Files whose body np.loadtxt parses from the path, skipping the lines the
# header took, each with what the reader that parsed it from the open csv
# handle gave: a schedule (None: the lossy one) or an error and its message.
PATH_READ_FILES = {
    "crlf": (lambda ls: "\r\n".join(ls) + "\r\n", None),
    "lone cr": (lambda ls: "\r".join(ls) + "\r", None),
    "crlf without a final line end": (lambda ls: "\r\n".join(ls), None),
    "blank lines between rows": (lambda ls: "\n\n".join(ls) + "\n\n", None),
    "blank lines and crlf": (lambda ls: "\r\n\r\n".join(ls) + "\r\n", None),
    "quoted multi-line header cell": (
        lambda ls: "\n".join([ls[0] + ',"a\nnote"'] + [r + ",7" for r in ls[1:]]) + "\n", None),
    "quoted multi-line header cell, crlf and cr": (
        lambda ls: "\r\n".join([ls[0] + ',"a\r\nb\rc"'] + [r + ",7" for r in ls[1:]]) + "\r\n",
        None),
    "repeated row": (lambda ls: "\n".join(ls + [ls[5]]) + "\n",
                     (IncompleteTableError, "row 47 repeats edge (1, 2) at iteration 5")),
    "missing row": (lambda ls: "\n".join(ls[:4] + ls[5:]) + "\n",
                    (IncompleteTableError,
                     "table is missing edge (1, 2) at iteration 4 (1 entries missing in total)")),
    "unknown edge": (lambda ls: "\n".join(ls[:7] + ["1,3,1,1"] + ls[7:]) + "\n",
                     (IncompleteTableError,
                      "unexpected table entry for edge (1, 3) at iteration 1")),
    "never delivering link": (
        lambda ls: "\n".join(ls[:10] + [f"2,3,{t},0" for t in range(1, 10)] + ls[19:]) + "\n",
        (NeverReliableLinkError, "link (2, 3) never delivers within horizon 9")),
}


class TestBodyReadFromThePath:
    @pytest.mark.parametrize("case", sorted(PATH_READ_FILES))
    def test_gives_what_the_handle_reader_gave(self, tmp_path, monkeypatch, case):
        lines, s = _lossy_lines()
        text, expected = PATH_READ_FILES[case]
        path = tmp_path / "s.csv"
        path.write_bytes(text(lines).encode())
        if expected is None:
            expected = (s.indicators.tolist(), worst_gap(s), s.horizon)
            assert _outcome(_oracle_read, RING4, path) == expected
            # np.loadtxt reads the whole body: the csv path is never taken.
            monkeypatch.setattr(schedules, "_csv_columns", None)
        assert _outcome(read_schedule_csv, RING4, path) == expected

    def test_complete_table_is_counted_not_sorted(self, tmp_path, monkeypatch):
        lines, s = _lossy_lines()
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(schedules, "_check_table", None)
        assert np.array_equal(read_schedule_csv(RING4, path).indicators, s.indicators)

    def test_extra_text_column_takes_the_csv_path(self, tmp_path):
        lines, s = _lossy_lines()
        path = tmp_path / "s.csv"
        path.write_text("\n".join([lines[0] + ",note"] + [r + ",x" for r in lines[1:]]) + "\n")
        expected = (s.indicators.tolist(), worst_gap(s), s.horizon)
        assert _outcome(read_schedule_csv, RING4, path) == expected

    def test_undecodable_byte_in_a_row(self, tmp_path):
        lines, _ = _lossy_lines()
        data = ("\n".join(lines) + "\n").encode()
        at = data.index(b"\n2,3,1,") + 5
        path = tmp_path / "s.csv"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        message = (f"cannot read {path} as CSV text: 'utf-8' codec can't decode byte 0xff "
                   f"in position {at}: invalid start byte")
        with pytest.raises(MalformedScheduleError, match=f"^{re.escape(message)}$"):
            read_schedule_csv(RING4, path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compression_suffix_takes_the_csv_path(self, tmp_path, suffix):
        # np.loadtxt would decompress a path by its suffix; this file is text.
        lines, s = _lossy_lines()
        path = tmp_path / f"s.csv{suffix}"
        path.write_text("\n".join(lines) + "\n")
        expected = (s.indicators.tolist(), worst_gap(s), s.horizon)
        assert _outcome(read_schedule_csv, RING4, path) == expected

    def test_path_that_reads_as_a_url_is_a_local_file(self, tmp_path, monkeypatch):
        lines, s = _lossy_lines()
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "s.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(schedules, "_csv_columns", None)
        schedule = read_schedule_csv(RING4, "http://host/s.csv")
        assert np.array_equal(schedule.indicators, s.indicators)


class TestScriptedMatchesOracle:
    @pytest.mark.parametrize("case", sorted(SCRIPTED_TABLES))
    def test_tables(self, case):
        table = SCRIPTED_TABLES[case](_reliable_table(RING4, 3))
        assert _outcome(scripted_schedule, RING4, 3, table) == _outcome(_oracle_scripted, RING4, 3, table)

    @pytest.mark.parametrize("value_first", [True, False])
    def test_bad_indicator_is_typed(self, value_first):
        # An indicator of 2 and an unknown edge: the first in table order wins.
        table = _reliable_table(RING4, 3)
        table[((1, 2), 2)] = 2
        if value_first:
            table[((1, 3), 1)] = 1
            error, message = MalformedScheduleError, "indicator for (1, 2) at t=2 must be 0 or 1"
        else:
            table = {((1, 3), 1): 1, **table}
            error, message = IncompleteTableError, "unexpected table entry for edge (1, 3) at iteration 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            _oracle_scripted(RING4, 3, table)
        with pytest.raises(error, match=re.escape(message)):
            scripted_schedule(RING4, 3, table)
