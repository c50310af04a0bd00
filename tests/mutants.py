"""Named mutants of the program for the certificate tests: each wraps a
private seam with ``monkeypatch``, so that a run computes something wrong in
one known way.

- ``leak_agent_1`` takes mass away from agent 1 in every round.
- ``swap_agents_1_2`` swaps agent 1's and agent 2's mass in every round,
  which conserves mass.
- ``move_entry`` moves part of one entry of every window product into its
  neighbour, which keeps the row sums.
"""

from __future__ import annotations

import lossynet.mixing
from lossynet import consensus


def leak_agent_1(monkeypatch, eps: float = 1e-6) -> None:
    """Make agent 1 lose ``eps`` of its value and of its weight in every
    round of the cumulative protocols, so that mass is not conserved."""
    original = consensus._CumulativeState.rounds

    def mutant(self, reshare):
        for t in original(self, reshare):
            self._history[t, 0] -= eps
            yield t

    monkeypatch.setattr(consensus._CumulativeState, "rounds", mutant)


def swap_agents_1_2(monkeypatch) -> None:
    """Swap agent 1's and agent 2's history rows after every round of the
    cumulative protocols: the totals stay, the agents' states do not."""
    original = consensus._CumulativeState.rounds

    def mutant(self, reshare):
        for t in original(self, reshare):
            row = self._history[t]
            row[[0, 1]] = row[[1, 0]]
            yield t

    monkeypatch.setattr(consensus._CumulativeState, "rounds", mutant)


def move_entry(monkeypatch, value: float) -> None:
    """Make every window product carry ``value`` at [0, 1], the rest of
    that entry moved into [0, 0], so that row sums stay as they were."""
    original = lossynet.mixing._window_product

    def mutant(*args, **kwargs):
        product = original(*args, **kwargs)
        product[0, 0] += product[0, 1] - value
        product[0, 1] = value
        return product

    monkeypatch.setattr(lossynet.mixing, "_window_product", mutant)
