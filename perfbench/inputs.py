"""Seeded inputs for the benchmark workloads, made without lossynet.

Everything the program receives (graph edges, the drop schedule CSV,
consensus inputs and cost parameters) comes from one ``numpy`` generator
seeded by ``--seed``, so the same seed gives the same bytes.  None of it is
produced by lossynet's own generators: the workloads that measure those
generators ask the program for them through its public surface instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

# consensus-cli: 40 agents, 270 links (m = 310), B = 3.
CONSENSUS_N = 40
CONSENSUS_EDGES = 270
CONSENSUS_B = 3
CONSENSUS_T = 100
# optimize-library: 8-agent directed ring, B = 2, d = 2 box.
OPT_N = 8
OPT_B = 2
OPT_T = 10_000
OPT_P_DROP = 0.5
OPT_STEP = 1.0
BOX = (-1.0, 1.0)
# matrix-audit: 30 agents, 140 links (m = 170), B = 3, window [1, nB + 1].
AUDIT_N = 30
AUDIT_EDGES = 140
AUDIT_B = 3
AUDIT_P_DROP = 0.5
# Out-degree cap of the random graphs.  beta = 1/(d_max + 1)^2 enters the
# consensus bound as beta**(nB + 1), which underflows to 0.0 for larger
# degrees (see the FOUND line on consensus_rate_bound in CHANGES.md).
MAX_OUT_DEGREE = 9


def random_digraph(n: int, num_edges: int, rng: np.random.Generator) -> list:
    """Sorted 1-based edges: a random directed Hamiltonian cycle, which makes
    the graph strongly connected, plus distinct random arcs up to
    ``num_edges``, no agent sending on more than MAX_OUT_DEGREE links."""
    order = rng.permutation(n) + 1
    edges = {(int(order[k]), int(order[(k + 1) % n])) for k in range(n)}
    out = np.ones(n + 1, dtype=int)
    while len(edges) < num_edges:
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i != j and (i, j) not in edges and out[i] < MAX_OUT_DEGREE:
            edges.add((i, j))
            out[i] += 1
    return sorted(edges)


def directed_ring(n: int) -> list:
    return [(i, i % n + 1) for i in range(1, n + 1)]


def beta_floor(n: int, edges, B: int) -> float:
    """beta**(nB + 1) with beta = 1/(max out-degree + 1)**2, counted here."""
    out = np.bincount([i for i, _ in edges], minlength=n + 1)
    return (1.0 / float(out.max() + 1) ** 2) ** (n * B + 1)


def window_schedule(num_edges: int, T: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """T x E delivery table (1 = delivered) in which every link delivers at
    least once in any B consecutive rounds.

    Each link is a renewal process: the first delivery falls in rounds 1..B
    and each gap to the next one is uniform on 1..B.
    """
    table = np.zeros((T, num_edges), dtype=np.uint8)
    for k in range(num_edges):
        t = int(rng.integers(1, B + 1))
        while t <= T:
            table[t - 1, k] = 1
            t += int(rng.integers(1, B + 1))
    return table


def write_schedule(path: Path, edges, table: np.ndarray) -> None:
    """Rows (src, dst, t, indicator), edge-major then time-ascending."""
    T = table.shape[0]
    lines = ["src,dst,t,indicator"]
    for k, (i, j) in enumerate(edges):
        lines.extend(f"{i},{j},{t},{table[t - 1, k]}" for t in range(1, T + 1))
    path.write_text("\n".join(lines) + "\n")


def optimize_costs(rng: np.random.Generator):
    """Anchors in the box and cost kinds, alternating |.|_1 and |.|_2 so
    every problem mixes both."""
    anchors = rng.uniform(BOX[0], BOX[1], size=(OPT_N, 2))
    is_abs = np.arange(OPT_N) % 2 == 0
    return anchors, is_abs


def make(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's files into ``workdir``; return its description."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "consensus-cli":
        edges = random_digraph(CONSENSUS_N, CONSENSUS_EDGES, rng)
        inputs = rng.uniform(0.0, 10.0, CONSENSUS_N)
        table = window_schedule(len(edges), CONSENSUS_T, CONSENSUS_B, rng)
        write_schedule(workdir / "schedule.csv", edges, table)
        (workdir / "graph.json").write_text(
            json.dumps({"n": CONSENSUS_N, "edges": [list(e) for e in edges]})
        )
        config = {
            "mode": "consensus",
            "graph": {"path": "graph.json"},
            "horizon": CONSENSUS_T,
            "algorithm": "convergent",
            "schedule": {"kind": "csv", "path": "schedule.csv"},
            "inputs": inputs.tolist(),
        }
        spec = {"n": CONSENSUS_N, "T": CONSENSUS_T, "m": CONSENSUS_N + len(edges),
                "inputs": inputs.tolist()}
    elif workload == "optimize-library":
        anchors, is_abs = optimize_costs(rng)
        # F* is made here rather than in the worker, so that its grids do
        # not count in the worker's peak resident set.
        return {"n": OPT_N, "T": OPT_T, "edges": directed_ring(OPT_N),
                "anchors": anchors.tolist(), "is_abs": is_abs.tolist(),
                "schedule_seed": int(rng.integers(2**31)),
                "f_star": checks.minimum(anchors, is_abs, *BOX)}
    elif workload == "matrix-audit":
        edges = random_digraph(AUDIT_N, AUDIT_EDGES, rng)
        end = AUDIT_N * AUDIT_B + 1
        schedule_seed = int(rng.integers(2**31))
        (workdir / "graph.json").write_text(
            json.dumps({"n": AUDIT_N, "edges": [list(e) for e in edges]})
        )
        config = {
            "mode": "matrix-audit",
            "graph": {"path": "graph.json"},
            "horizon": end,
            "schedule": {"kind": "bernoulli", "p_drop": AUDIT_P_DROP, "B": AUDIT_B,
                         "seed": schedule_seed},
            "window": {"start": 1, "end": end},
        }
        spec = {"n": AUDIT_N, "T": end, "m": AUDIT_N + len(edges), "edges": edges,
                "schedule_seed": schedule_seed,
                "inputs": rng.uniform(0.0, 10.0, AUDIT_N).tolist()}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "config.json").write_text(json.dumps(config))
    spec["config"] = str(workdir / "config.json")
    return spec
