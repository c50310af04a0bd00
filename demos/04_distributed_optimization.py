"""Distributed dual averaging over a lossy ring.

Three agents share one decision variable but each knows only its own convex
cost; together they minimize the mean cost over [0, 1].  Per iteration every
agent runs one collision-free aggregation round on its dual value, adds a
local subgradient, and projects.  Packet drops slow mixing down but the
running averages still meet the advertised O(1/sqrt(T)) gap bound.
"""

import numpy as np

from lossynet import (
    AbsDistanceCost,
    Box,
    OptProblem,
    StepSizeSchedule,
    bernoulli_b_bounded,
    build_graph,
    certify_mixing_error,
    certify_optimality_gap,
    run_distributed_dual_averaging,
    running_average,
    solve_reference,
)

# Distances to 0.0, 0.5, and 1.0: the mean cost is minimized at the median.
g = build_graph(3, [(1, 2), (2, 3), (3, 1)])
problem = OptProblem(
    tuple(AbsDistanceCost([a]) for a in (0.0, 0.5, 1.0)), Box([0.0], [1.0])
)
reference = solve_reference(problem)
print(f"reference minimizer x* = {reference.x[0]:.5f}, value h* = {reference.value:.6f}\n")

B = 3
steps = StepSizeSchedule(1.0)
print("    T   drop   agent averages                 worst gap   guarantee")
for T in (100, 1000, 10000):
    for p_drop in (0.0, 0.5):
        schedule = bernoulli_b_bounded(g, p_drop, B, T, seed=7)
        trace = run_distributed_dual_averaging(g, problem, schedule, steps, T)
        averages = [running_average(trace, agent)[0] for agent in (1, 2, 3)]
        cert = certify_optimality_gap(trace, B, reference)
        shown = ", ".join(f"{a:.4f}" for a in averages)
        print(f"{T:5d}   {p_drop:.1f}    [{shown}]   {cert.measured:9.4f}   {cert.bound:11.3e}")

# The guarantee is loose (it must cover adversarial B-window schedules), but
# the measured disagreement between dual values is tiny next to its bound.
schedule = bernoulli_b_bounded(g, 0.5, B, 10000, seed=7)
trace = run_distributed_dual_averaging(g, problem, schedule, steps, 10000)
mixing = certify_mixing_error(trace, B)
print(f"\ndual disagreement: worst {mixing.measured:.3e} at t={mixing.where['worst_t']}, "
      f"bound {mixing.bound:.3e}  (passed={mixing.passed})")
