"""Per-link, per-iteration delivery indicators with a bounded-outage window.

A schedule records, for every directed edge and every iteration t in 1..T,
whether the broadcast over that link was delivered (1) or dropped (0).  All
generators and validators work with the window property "every link delivers
at least once in any B consecutive iterations".
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IncompleteTableError,
    IterationOutOfRangeError,
    MalformedScheduleError,
    NeverReliableLinkError,
    _check_horizon,
)
from .graphs import DirectedGraph

__all__ = [
    "FailureSchedule",
    "bernoulli_b_bounded",
    "periodic_adversarial",
    "all_reliable",
    "worst_gap",
    "read_schedule_csv",
]


@dataclass(frozen=True, eq=False)
class FailureSchedule:
    """Delivery indicators for every edge of ``graph`` over iterations 1..T.

    ``indicators[t - 1, k]`` is the indicator of the k-th edge (lexicographic
    order) at iteration t.  ``window`` is a B such that every link delivers at
    least once in any B consecutive iterations: generators store the declared
    B, schedules read from a table store the smallest one that holds.
    """

    graph: DirectedGraph
    indicators: np.ndarray
    window: int

    def __post_init__(self):
        ind = np.ascontiguousarray(self.indicators, dtype=np.uint8)
        if ind.ndim != 2 or ind.shape[1] != self.graph.num_edges:
            raise ValueError(
                f"indicator table must have shape (T, {self.graph.num_edges}), "
                f"got {ind.shape}"
            )
        if ind.size and ind.max() > 1:
            raise ValueError("indicators must be 0 or 1")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        ind.setflags(write=False)
        object.__setattr__(self, "indicators", ind)

    @property
    def horizon(self) -> int:
        return int(self.indicators.shape[0])

    def delivered(self, t: int) -> np.ndarray:
        """Boolean delivery mask over edges for iteration t (1-based)."""
        if not 1 <= t <= self.horizon:
            raise IterationOutOfRangeError(
                f"iteration {t} outside 1..{self.horizon}"
            )
        return self.indicators[t - 1].astype(bool)


def _max_outage_run(indicators: np.ndarray) -> int:
    """Longest run of consecutive zeros in any single column."""
    T, E = indicators.shape
    # Pad each column with a delivery before round 1 and after round T, which
    # also keeps the gaps of neighbouring columns apart once flattened.
    padded = np.ones((E, T + 2), dtype=np.uint8)
    padded[:, 1:-1] = indicators.T
    return int((np.diff(np.flatnonzero(padded)) - 1).max(initial=0))


def worst_gap(schedule: FailureSchedule) -> int:
    """Smallest B the stored indicators actually satisfy (1 when all-reliable)."""
    return _max_outage_run(schedule.indicators) + 1


def _edge_ids(g: DirectedGraph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The lexicographic index of edge (src[i], dst[i]) for every i.  A pair
    that is no edge gets an id from E up, and equal pairs get equal ids, so
    that repeats of unknown pairs are seen too."""
    E = g.num_edges
    k = np.zeros(src.size, dtype=np.int64)
    known = np.zeros(src.size, dtype=bool)
    if E:
        # Endpoints become their ranks among the V values the edges use, and
        # a pair's key is rank(src) * V + rank(dst): sorted like the edges
        # and below (2E)**2 whatever the cells hold.  A pair with a value
        # outside that set is no edge, whatever its clamped key matches.
        ends = np.array(g.edges, dtype=np.int64)
        values = np.unique(ends)
        V = values.size
        edge_ranks = np.searchsorted(values, ends)
        edge_keys = edge_ranks[:, 0] * V + edge_ranks[:, 1]
        src_rank = np.minimum(np.searchsorted(values, src), V - 1)
        dst_rank = np.minimum(np.searchsorted(values, dst), V - 1)
        inside = (values[src_rank] == src) & (values[dst_rank] == dst)
        keys = src_rank * V + dst_rank
        k = np.minimum(np.searchsorted(edge_keys, keys), E - 1)
        known = inside & (edge_keys[k] == keys)
    if not known.all():
        unknown = ~known
        pairs = np.column_stack([src[unknown], dst[unknown]])
        k[unknown] = E + np.unique(pairs, axis=0, return_inverse=True)[1].reshape(-1)
    return k


def _is_complete(k, t, value, T: int, E: int) -> bool:
    """Whether the entries, on edge ids ``k``, name each cell of edges x
    [1, T] once with a value of 0 or 1: T * E entries in range, counted once
    each over their cell ids."""
    if t.size != T * E:
        return False
    if not t.size:
        return True
    if not ((k < E) & (t >= 1) & (t <= T) & (value >= 0) & (value <= 1)).all():
        return False
    return bool(np.bincount(k * T + (t - 1), minlength=t.size).all())


def _table_schedule(g, T, src, dst, t, value, row_of=None) -> FailureSchedule:
    """The schedule of the entries ((src, dst), t) -> value, which must cover
    edges x [1, T] exactly.  Errors, first to last: a repeat, at ``row_of(i)``
    (without rows, a repeat is an unexpected entry); the first entry off
    edges x [1, T] or with a value other than 0 or 1; the smallest missing
    (edge, t); a link that never delivers.  A complete table can raise only
    the last, so it is accepted after one count over its cells; any other is
    checked by sorting, so memory stays linear in the entries whatever t
    they name."""
    E = g.num_edges
    k = _edge_ids(g, src, dst)
    if not _is_complete(k, t, value, T, E):
        _check_table(g, T, src, dst, t, value, k, row_of)
    ind = np.zeros((T, E), dtype=np.uint8)
    ind[t - 1, k] = value
    if T >= 1:
        dead = np.flatnonzero(ind.sum(axis=0) == 0)
        if dead.size:
            raise NeverReliableLinkError(
                f"link {g.edges[int(dead[0])]} never delivers within horizon {T}"
            )
    return FailureSchedule(g, ind, _max_outage_run(ind) + 1)


def _check_table(g, T, src, dst, t, value, k, row_of) -> None:
    """Raise the first of :func:`_table_schedule`'s errors before a dead
    link that the entries, on edge ids ``k``, give."""
    E = g.num_edges
    # By edge, then iteration; the sort is stable, so a repeat follows its first.
    order = np.lexsort((t, k))
    k_sorted, t_sorted = k[order], t[order]
    later = np.zeros(t.size, dtype=bool)
    later[order[1:][(k_sorted[1:] == k_sorted[:-1]) & (t_sorted[1:] == t_sorted[:-1])]] = True

    def entry(i):
        return (int(src[i]), int(dst[i])), int(t[i])

    if row_of is not None and later.any():
        i = int(np.argmax(later))
        edge, ti = entry(i)
        raise IncompleteTableError(f"row {row_of(i)} repeats edge {edge} at iteration {ti}")
    unexpected = (k >= E) | (t < 1) | (t > T) | later
    invalid = (value < 0) | (value > 1)
    if (unexpected | invalid).any():
        i = int(np.argmax(unexpected | invalid))
        edge, ti = entry(i)
        if unexpected[i]:
            raise IncompleteTableError(f"unexpected table entry for edge {edge} at iteration {ti}")
        raise MalformedScheduleError(f"indicator for {edge} at t={ti} must be 0 or 1")
    if t.size < T * E:
        # Sorted, distinct and in range: the first entry off the sequence
        # (edge 0, t 1), (edge 0, t 2), ... sits where the smallest one is missing.
        place = np.arange(t.size)
        off = np.flatnonzero((k_sorted != place // T) | (t_sorted != place % T + 1))
        first = int(off[0]) if off.size else t.size
        raise IncompleteTableError(
            f"table is missing edge {g.edges[first // T]} at iteration {first % T + 1} "
            f"({T * E - t.size} entries missing in total)"
        )


def bernoulli_b_bounded(
    g: DirectedGraph, p_drop: float, B: int, T: int, seed: int | None = None
) -> FailureSchedule:
    """Independent drops with probability ``p_drop``, except that a link which
    has been down for B - 1 consecutive iterations is forced to deliver.

    Deterministic given ``seed``; the stored window is the declared B.
    """
    if not 0.0 <= p_drop < 1.0:
        raise ValueError(f"p_drop must lie in [0, 1), got {p_drop}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    _check_horizon(T)
    rng = np.random.default_rng(seed)
    proposed = rng.random((T, g.num_edges)) < p_drop
    # A proposed drop is forced to deliver exactly when its 1-based position
    # in its column's run of consecutive proposed drops is a multiple of B:
    # the forced delivery ends the outage, and the run goes on from there.
    # Positions never exceed T, so they are counted in the smallest unsigned
    # type that holds T + 1, and a B beyond T + 1 acts as T + 1.
    position = np.cumsum(proposed, axis=0, dtype=np.min_scalar_type(T + 1))
    # Each round's count at the column's last round without a proposed drop.
    start = np.where(proposed, 0, position)
    np.maximum.accumulate(start, axis=0, out=start)
    position -= start
    del start
    np.remainder(position, min(B, T + 1), out=position)
    return FailureSchedule(g, position == 0, B)


def periodic_adversarial(g: DirectedGraph, B: int, T: int) -> FailureSchedule:
    """Every link delivers exactly at iterations t with t % B == 0, the
    worst case allowed by a window of B."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    _check_horizon(T)
    # A slice rather than t % B: B may lie beyond the 64-bit range.
    ticks = np.zeros(T, dtype=np.uint8)
    ticks[B - 1 :: B] = 1
    ind = np.repeat(ticks[:, None], g.num_edges, axis=1)
    return FailureSchedule(g, ind, B)


def all_reliable(g: DirectedGraph, T: int) -> FailureSchedule:
    """Every link delivers at every iteration."""
    _check_horizon(T)
    return FailureSchedule(g, np.ones((T, g.num_edges), dtype=np.uint8), 1)


_COLUMNS = ("src", "dst", "t", "indicator")


# Suffixes that ``np.loadtxt`` decompresses a path by.
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _loaded_columns(path, skiprows: int, encoding: str, width: int, cols: list):
    """The lines of ``path`` after its first ``skiprows`` as the src, dst, t
    and indicator columns, parsed by ``np.loadtxt``; None for the ``csv``
    path to decide.  That is the case when the body is empty, when
    ``np.loadtxt`` warns on a cell, rejects one (quoted, ``1_0``, non-ASCII
    digits, text, undecodable bytes) or reads another width than the
    header's, when a value is out of range, and when the name ends in a
    compression suffix.  ``np.loadtxt`` reads a path in chunks, but an open
    handle line by line; the path is made absolute so that it is never
    taken for a URL."""
    path = Path(path).absolute()
    if path.suffix in _COMPRESSED:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2, comments=None,
                               skiprows=skiprows, encoding=encoding)
    except (ValueError, Warning):
        return None
    if cells.shape[1] != width:
        return None
    columns = cells[:, cols].T
    return None if _out_of_range(columns) else columns


def _out_of_range(columns) -> bool:
    return bool(((columns[2] < 1) | (columns[3] < 0) | (columns[3] > 1)).any())


def _row_problem(row: list, width: int, cols: list) -> str | None:
    """What makes one data row malformed, or None."""
    if len(row) != width:
        return f"has {len(row)} cells, the header has {width}"
    cells = {}
    for name, c in zip(_COLUMNS, cols):
        try:
            cells[name] = int(np.int64(row[c]))
        except (ValueError, OverflowError):
            return f"has {name} {row[c]!r}, which is not a 64-bit integer"
    if cells["t"] < 1:
        return f"has iteration {cells['t']}, which is below 1"
    if cells["indicator"] not in (0, 1):
        return f"has indicator {cells['indicator']}, which is not 0 or 1"
    return None


def _csv_columns(path, width: int, cols: list) -> tuple:
    """The four columns read by ``csv`` and the line of each non-blank row
    after the header; raises :class:`MalformedScheduleError` naming the
    first malformed row."""
    rows, lines = [], []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    columns = None
    if not set(map(len, rows)) - {width}:
        try:
            cells = np.array([[row[c] for c in cols] for row in rows], dtype=np.int64)
            columns = cells.reshape(len(rows), len(_COLUMNS)).T
        except (ValueError, OverflowError):
            pass
    if columns is None or _out_of_range(columns):
        # Name the first malformed row in file order.
        for line, row in zip(lines, rows):
            problem = _row_problem(row, width, cols)
            if problem:
                raise MalformedScheduleError(f"row {line} {problem}")
    return columns, lines


def read_schedule_csv(g: DirectedGraph, path) -> FailureSchedule:
    """Read a schedule of rows (src, dst, t, indicator), one per edge and
    iteration, and validate it against ``g`` (well-formed rows, completeness,
    known edges, delivery within horizon).  Blank lines are skipped, and the header gives the
    column order; columns other than the four read here are ignored.  An
    empty file, or one of blank lines only, is an empty schedule.

    The body is parsed in C by ``np.loadtxt``; a file it cannot read as one
    integer table of the header's width, or one with a value out of range,
    takes the ``csv`` path, which accepts what ``int`` accepts and names the
    first malformed row."""
    try:
        with open(Path(path), newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            header_line, encoding = reader.line_num, fh.encoding
            position = {name: c for c, name in enumerate(header)}
            width, cols = len(header), [position.get(name) for name in _COLUMNS]
            if None in cols and (header or any(reader)):
                raise MalformedScheduleError(
                    f"row {header_line}: header {','.join(header)!r} does not name "
                    f"the columns {','.join(_COLUMNS)}"
                )
            # Else a file with no cell at all takes the csv path, which reads no row.
        columns = lines = None
        if None not in cols:
            columns = _loaded_columns(path, header_line, encoding, width, cols)
        if columns is None:
            columns, lines = _csv_columns(path, width, cols)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedScheduleError(f"cannot read {path} as CSV text: {exc}") from exc

    def row_of(i):
        return (lines if lines is not None else _csv_columns(path, width, cols)[1])[i]

    src, dst, t, value = columns
    return _table_schedule(g, int(t.max(initial=0)), src, dst, t, value, row_of=row_of)
