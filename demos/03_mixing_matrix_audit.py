"""Why the lossy protocol converges: matrix products over the augmented graph.

One convergent round is linear in the stacked values of agents and per-link
buffers, v <- v @ M[t].  Two structural facts about window products of these
matrices carry the whole convergence argument, and both can be checked
numerically for any concrete schedule:

  * every entry of a product spanning n*B + 1 rounds is at least beta**(n*B+1),
    where beta = 1 / (max out-degree + 1)^2;
  * the column spread delta shrinks by a factor gamma = 1 - beta**(n*B+1)
    with every further block of rounds.

The matrices encode the round independently of the simulator, so the demo
ends by replaying the simulated run through them.
"""

import numpy as np

from lossynet import (
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
    run_convergent_robust_push_sum,
)

g = build_graph(3, [(1, 2), (2, 1), (2, 3), (3, 1)])
ag = augment(g)
B = 2
beta, gamma, block = contraction_constants(g, B)
print(f"n={g.n} agents, {g.num_edges} links, m={ag.m} augmented nodes")
print(f"beta={beta:.4f}, block=n*B+1={block}, gamma={gamma:.6f}\n")

T = 5 * block
schedule = bernoulli_b_bounded(g, 0.6, B, T, seed=10)

M1 = iteration_matrix(ag, schedule, 1)
print(f"round-1 matrix row sums: {np.array2string(M1.sum(axis=1), precision=3)}")
print(f"round-1 column spread  : {delta_coefficient(M1):.4f}\n")

# A single round can have zero entries, but one full block cannot.
entry = certify_entry_lower_bound(ag, schedule, 1, block, B)
print(f"min entry of rounds 1..{block}: {entry.measured:.3e} "
      f">= beta^block = {entry.bound:.3e}  (passed={entry.passed})")

# Single rounds barely overlap (their lambda is 1), but every full block
# does, and the spread of the whole window decays under the product of the
# per-block lambdas.  The a priori envelope gamma^k covers adversarial
# schedules, so it is much slower than what this schedule achieves.
print("\nblocks  per-block lambda   running product   spread delta   gamma^blocks")
running = 1.0
for k in range(1, 6):
    lo, hi = (k - 1) * block + 1, k * block
    lam_k = lambda_coefficient(matrix_product(ag, schedule, lo, hi))
    running *= lam_k
    spread = delta_coefficient(matrix_product(ag, schedule, 1, hi))
    print(f"1..{k}   {lam_k:16.4f}   {running:15.3e}   {spread:12.3e}   {gamma**k:12.6f}")

cert = certify_contraction(ag, schedule, 1, T, B)
print(f"\nfull-window certificate: delta={cert.measured:.3e} <= "
      f"lambda product {cert.detail['lambda_product']:.3e} and <= "
      f"gamma bound {cert.detail['gamma_bound']:.3e}  (passed={cert.passed})")

# Replaying v[t] = v[t-1] @ M[t] from the inputs gives every node's
# simulated value and weight in every round, up to rounding.
y = [1.0, 2.0, 6.0]
sim = run_convergent_robust_push_sum(g, y, schedule, T)
replay = evolve_by_matrices(ag, schedule, y, T)
gap = max(np.abs(sim.values - replay.values).max(), np.abs(sim.weights - replay.weights).max())
print(f"\nmatrix replay of rounds 1..{T}: largest gap to the simulator {gap:.1e} "
      f"(within 1e-12: {gap <= 1e-12})")
