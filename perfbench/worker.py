"""One workload in a fresh process: operations until the time is up.

Run by ``run.py`` with ``src`` on PYTHONPATH and one BLAS thread.  Each
operation enters lossynet through its public surface only (``cli.main``
or the library calls of the README), is bracketed by the host-speed loop
of ``hostspeed`` and is checked after its timer stops.  The result, with
per-operation times and, for a traced run, the per-layer metrics in
reference seconds, goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import hostspeed
import inputs
import tracing


def consensus_cli(spec: dict, out: Path):
    from lossynet import cli

    argv = ["consensus", "--config", spec["config"], "--out", str(out)]

    def op():
        return cli.main(argv)

    def check(code):
        return checks.check_consensus(out, code, spec["inputs"], spec["m"], spec["T"])

    return op, check


def optimize_library(spec: dict, out: Path):
    import lossynet

    n, T, B = spec["n"], spec["T"], inputs.OPT_B
    anchors = np.asarray(spec["anchors"])
    is_abs = np.asarray(spec["is_abs"])
    lo, hi = inputs.BOX

    def op():
        g = lossynet.build_graph(n, spec["edges"])
        problem = lossynet.OptProblem(
            tuple(lossynet.AbsDistanceCost(a) if ab else lossynet.L2DistanceCost(a)
                  for a, ab in zip(anchors, is_abs)),
            lossynet.Box([lo, lo], [hi, hi]),
        )
        schedule = lossynet.bernoulli_b_bounded(g, inputs.OPT_P_DROP, B, T,
                                                seed=spec["schedule_seed"])
        trace = lossynet.run_distributed_dual_averaging(
            g, problem, schedule, lossynet.StepSizeSchedule(inputs.OPT_STEP), T
        )
        reference = lossynet.solve_reference(problem)
        gap = lossynet.certify_optimality_gap(trace, B, reference)
        mixing = lossynet.certify_mixing_error(trace, B)
        return trace.estimates, {"optimality_gap": gap.passed, "mixing_error": mixing.passed}

    # L = sqrt(2) for |.|_1 in d = 2, and psi(x*) <= max over the box of |x|^2 / 2.
    tolerance = checks.gap_tolerance(T, inputs.OPT_STEP, math.sqrt(2.0), max(lo * lo, hi * hi))

    def check(result):
        estimates, certificates = result
        return checks.check_optimize(estimates, anchors, is_abs, (lo, hi), spec["f_star"],
                                     tolerance, certificates)

    return op, check


def matrix_audit(spec: dict, out: Path):
    import lossynet
    from lossynet import cli

    n, m, T = spec["n"], spec["m"], spec["T"]
    argv = ["matrix-audit", "--config", spec["config"], "--out", str(out)]
    # The simulator's state at the window end, made once: the matrices of
    # the audit must reproduce it from the start state.
    g = lossynet.build_graph(n, spec["edges"])
    schedule = lossynet.bernoulli_b_bounded(g, inputs.AUDIT_P_DROP, inputs.AUDIT_B, T,
                                            seed=spec["schedule_seed"])
    y = np.asarray(spec["inputs"])
    sim = lossynet.run_convergent_robust_push_sum(g, y, schedule, T)
    end_state = np.column_stack([sim.values[T, :, 0], sim.weights[T]])
    start_state = np.zeros((m, 2))
    start_state[:n, 0] = y
    start_state[:n, 1] = 1.0
    floor = inputs.beta_floor(n, spec["edges"], inputs.AUDIT_B)

    def op():
        return cli.main(argv)

    def check(code):
        return checks.check_audit(out, code, m, floor, start_state, end_state)

    return op, check


WORKLOADS = {
    "consensus-cli": consensus_cli,
    "optimize-library": optimize_library,
    "matrix-audit": matrix_audit,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    out = Path(args.result).with_suffix(".out")
    op, check = WORKLOADS[args.workload](spec, out)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # A traced worker alternates: even operations give times and counts,
    # odd ones run under tracemalloc and give only the allocation peaks,
    # since tracemalloc slows every allocation several-fold.
    ops, layers = [], []
    deadline = time.perf_counter() + args.seconds
    while len(ops) < (2 if tracer else 1) or time.perf_counter() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        run = op if tracer is None else functools.partial(tracer.operation, len(ops), op)
        before = hostspeed.loop_seconds()
        if tracer is not None and len(ops) % 2:
            tracemalloc.start()
        started = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an operation that raises counts as failed
            ops.append({"seconds": time.perf_counter() - started, "factor": 1.0,
                        "rounds": spec["T"], "failed": True, "wrong": False,
                        "messages": [f"{type(exc).__name__}: {exc}"]})
            continue
        finally:
            tracemalloc.stop()
        seconds = time.perf_counter() - started
        scale = hostspeed.factor(before, hostspeed.loop_seconds())
        if tracer is not None:
            metrics = tracer.op_metrics(len(ops))
            layers.append({k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}
                          | {"alloc": len(ops) % 2})
        messages = check(result)
        # A CLI exit code other than 0 is a failed operation; any other
        # failed check means the program returned a wrong output.
        exited = isinstance(result, int) and result != 0
        ops.append({"seconds": seconds, "factor": scale, "rounds": spec["T"],
                    "failed": bool(messages), "wrong": bool(messages) and not exited,
                    "messages": messages})
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)

    report = {"ops": ops, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["layers"] = layers
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
