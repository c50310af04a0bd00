import ast
import importlib
from pathlib import Path

import lossynet
from lossynet import cli

# The package surface as it was listed by hand in ``lossynet/__init__.py``
# before that list was derived from the modules' own ``__all__``, less
# ``emit_summary`` (a one-line wrapper around ``write_json``, since removed).
PUBLIC_NAMES = [
    "AbsDistanceCost", "AugmentedGraph", "Ball", "Box", "CentralizedTrace", "ConfigError",
    "ConsensusCertificate", "ConsensusTrace", "ContractionReport", "DimensionMismatchError",
    "DimensionTooLargeError", "DirectedGraph", "DuplicateEdgeError", "EndpointOutOfRangeError",
    "EntryBoundReport", "ExperimentConfig", "FailureSchedule", "GapCertificate",
    "HorizonTooShortError", "IncompleteTableError", "IterationOutOfRangeError", "L2DistanceCost",
    "LinearCost", "LossyNetError", "MalformedScheduleError", "MixingCertificate",
    "NegativeInputError", "NeverReliableLinkError", "NotRowStochasticError",
    "NotStronglyConnectedError", "OptProblem", "OptTrace", "ReferenceSolution", "RunArtifact",
    "ScheduleTooShortError", "SelfLoopError", "StepSizeSchedule", "WindowTooShortError",
    "ZeroWeightError", "all_reliable", "augment", "bernoulli_b_bounded", "build_graph",
    "certify_consensus_bound", "certify_contraction", "certify_entry_lower_bound",
    "certify_mixing_error", "certify_optimality_gap", "consensus_error", "consensus_rate_bound",
    "contraction_constants", "delta_coefficient", "evolve_by_matrices", "graph_from_spec",
    "graph_to_spec", "is_strongly_connected", "iteration_matrix", "lambda_coefficient",
    "load_config", "matrix_product", "mixing_error_bound", "optimality_gap_bound",
    "periodic_adversarial", "problem_from_spec", "proximal_projection",
    "random_strongly_connected", "read_schedule_csv", "run_centralized_dual_averaging",
    "run_convergent_robust_push_sum", "run_distributed_dual_averaging", "run_experiment",
    "run_push_sum", "run_robust_push_sum", "running_average", "scripted_schedule",
    "solve_reference", "verify_b_bounded", "worst_gap", "write_json", "write_schedule_csv",
]

MODULES = ("consensus", "dual_averaging", "errors", "graphs", "harness", "mixing", "problems",
           "schedules")


def test_package_all_is_the_listed_surface():
    assert lossynet.__all__ == PUBLIC_NAMES


def test_each_name_is_the_object_its_module_defines():
    homes = {}
    for name in MODULES:
        module = importlib.import_module(f"lossynet.{name}")
        for public in module.__all__:
            assert public not in homes, f"{public} is listed by {homes[public]} and {name}"
            homes[public] = name
            obj = getattr(module, public)
            assert obj.__module__ == module.__name__, public
            assert getattr(lossynet, public) is obj, public
    assert sorted(homes) == lossynet.__all__


def test_cli_imports_no_private_harness_name():
    # The config's shape lives in the harness; the CLI reads it through
    # public names only.
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("harness", "lossynet.harness")
        for alias in node.names
    ]
    assert "load_config" in imported
    assert [name for name in imported if name.startswith("_")] == []
    # Nor through the module: ``harness._name``.
    assert not any(
        isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "harness" and node.attr.startswith("_")
        for node in ast.walk(tree)
    )
