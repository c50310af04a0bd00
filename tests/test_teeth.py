"""The certificates' power table: which certifications each named mutant
(``mutants``) fails on each pinned config.  This is mutation analysis
(DeMillo, Lipton and Sayward, IEEE Computer 1978) applied to certificates.

An empty cell whose mutant changed the run's artifacts is a blind spot: a
wrong run that every certificate passes.  A change that gives a certificate
teeth turns its cells from empty to failing here.
"""

import pytest

from lossynet import ExperimentConfig, run_experiment

from mutants import leak_agent_1, move_entry, swap_agents_1_2
from test_harness import AUDIT_RAW, CONSENSUS_RAW, OPTIMIZE_RAW

MUTANTS = {
    "clean": lambda monkeypatch: None,
    "leak": leak_agent_1,
    "agent_swap": swap_agents_1_2,
    "move_entry": lambda monkeypatch: move_entry(monkeypatch, 0.0),
}
CONFIGS = {"consensus": CONSENSUS_RAW, "optimize": OPTIMIZE_RAW, "matrix-audit": AUDIT_RAW}

# (mutant, config) -> the failing entries of ``certifications`` and
# ``pass_flags``.  The swap conserves mass, and the optimize mode has no mass
# certificate, so those cells are empty although their runs are wrong.
POWER_TABLE = {
    ("clean", "consensus"): set(),
    ("clean", "optimize"): set(),
    ("clean", "matrix-audit"): set(),
    ("leak", "consensus"): {"value_mass_conservation", "weight_mass_conservation"},
    ("leak", "optimize"): set(),
    ("leak", "matrix-audit"): set(),
    ("agent_swap", "consensus"): set(),
    ("agent_swap", "optimize"): set(),
    ("agent_swap", "matrix-audit"): set(),
    ("move_entry", "consensus"): set(),
    ("move_entry", "optimize"): set(),
    ("move_entry", "matrix-audit"): {"entry_lower_bound"},
}
# The cells whose mutant reaches the run: the cumulative rounds run in the
# consensus and optimize modes, window products in the audit only.
CHANGED = {
    ("leak", "consensus"), ("leak", "optimize"),
    ("agent_swap", "consensus"), ("agent_swap", "optimize"),
    ("move_entry", "matrix-audit"),
}


def _failing(summary: dict) -> set:
    failing = {name for name, c in summary.get("certifications", {}).items() if not c["passed"]}
    flags = summary.get("pass_flags", {})
    return failing | {name for name, passed in flags.items() if passed is False}


def _artifacts(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_power_table(tmp_path):
    table, artifacts = {}, {}
    for mutant, apply in MUTANTS.items():
        for config, raw in CONFIGS.items():
            out = tmp_path / mutant / config
            with pytest.MonkeyPatch.context() as monkeypatch:
                apply(monkeypatch)
                artifact = run_experiment(ExperimentConfig.from_dict(raw), out)
            table[mutant, config] = _failing(artifact.summary)
            assert artifact.passed == (not table[mutant, config])
            artifacts[mutant, config] = _artifacts(out)
    assert table == POWER_TABLE
    changed = {cell for cell in artifacts if artifacts[cell] != artifacts["clean", cell[1]]}
    assert changed == CHANGED
