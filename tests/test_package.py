import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import lossynet
from lossynet import cli

# The package surface as it was listed by hand in ``lossynet/__init__.py``
# before that list was derived from the modules' own ``__all__``, less
# ``emit_summary`` (a one-line wrapper around ``write_json``),
# ``graph_to_spec`` (called by tests only), ``NegativeInputError``
# (nothing raises it since the rate bound takes signed inputs),
# ``verify_b_bounded`` (``worst_gap`` compared with B) and
# ``random_strongly_connected`` (a test helper now), all since removed, less
# ``run_centralized_dual_averaging`` with its ``CentralizedTrace`` and
# ``proximal_projection``, ``scripted_schedule`` and ``write_schedule_csv``
# (moved to the tests' ``oracles`` module), and with the five result types
# ``ConsensusCertificate``, ``MixingCertificate``, ``GapCertificate``,
# ``EntryBoundReport`` and ``ContractionReport`` replaced by one record,
# ``Certificate``.
PUBLIC_NAMES = [
    "AbsDistanceCost", "AugmentedGraph", "Ball", "Box", "Certificate",
    "ConfigError", "ConsensusTrace", "DimensionMismatchError", "DimensionTooLargeError",
    "DirectedGraph", "DuplicateEdgeError", "EndpointOutOfRangeError", "ExperimentConfig",
    "FailureSchedule", "HorizonTooShortError", "IncompleteTableError",
    "IterationOutOfRangeError", "L2DistanceCost", "LinearCost", "LossyNetError",
    "MalformedScheduleError", "NeverReliableLinkError", "NotRowStochasticError",
    "NotStronglyConnectedError", "OptProblem", "OptTrace", "ReferenceSolution", "RunArtifact",
    "ScheduleTooShortError", "SelfLoopError", "StepSizeSchedule", "WindowTooShortError",
    "ZeroWeightError", "all_reliable", "augment", "bernoulli_b_bounded", "build_graph",
    "certify_consensus_bound", "certify_contraction", "certify_entry_lower_bound",
    "certify_mixing_error", "certify_optimality_gap", "consensus_error", "consensus_rate_bound",
    "contraction_constants", "delta_coefficient", "evolve_by_matrices", "graph_from_spec",
    "is_strongly_connected", "iteration_matrix", "lambda_coefficient",
    "load_config", "matrix_product", "mixing_error_bound", "optimality_gap_bound",
    "periodic_adversarial", "problem_from_spec", "read_schedule_csv",
    "run_convergent_robust_push_sum", "run_distributed_dual_averaging", "run_experiment",
    "run_push_sum", "run_robust_push_sum", "running_average", "solve_reference", "worst_gap",
    "write_json",
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


def test_every_error_class_is_raised():
    # An error class that nothing in the package raises is surface with no use.
    def name(exc):
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)

    raised = {
        name(node.exc)
        for path in Path(lossynet.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert set(lossynet.errors.__all__) - raised == set()


# Public names that nothing in ``src/lossynet`` or ``demos/`` loads, each
# with the reason it stays public.
UNCALLED_PUBLIC_NAMES: dict[str, str] = {}


def test_every_public_name_has_a_caller():
    # A public name is surface only if the package or a demo uses it.
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    loaded = set()
    for path in [*Path(lossynet.__file__).parent.glob("*.py"), *demos]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(lossynet.__all__) - loaded) == sorted(UNCALLED_PUBLIC_NAMES)


# Public methods and properties that nothing in ``src/lossynet`` or
# ``demos/`` loads as an attribute, each with the reason it stays public.
UNCALLED_PUBLIC_METHODS = {
    "LinearCost.subgradient": "the scalar oracle of the batched kernel, kept until the "
                              "benchmark's tracer stops wrapping it (ROADMAP item 9)",
    "AbsDistanceCost.subgradient": "the scalar oracle of the batched kernel, kept until the "
                                   "benchmark's tracer stops wrapping it (ROADMAP item 9)",
    "L2DistanceCost.subgradient": "the scalar oracle of the batched kernel, kept until the "
                                  "benchmark's tracer stops wrapping it (ROADMAP item 9)",
}


def _is_property(f: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) in ("property", "cached_property") for d in f.decorator_list)


def test_every_public_method_has_a_caller():
    # A public method or property is surface only if the package or a demo
    # loads it as an attribute.  A method that shares its name with an
    # annotated field of some class (``ReferenceSolution.value``) is loaded
    # whenever that field is read, so it counts only when an attribute of
    # its name is called.
    package = sorted(Path(lossynet.__file__).parent.glob("*.py"))
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    loaded, called, fields, methods = set(), set(), set(), {}
    for path in [*package, *demos]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            elif isinstance(node, ast.ClassDef) and path in package:
                fields.update(
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
                methods.update(
                    (f"{node.name}.{item.name}", (item.name, _is_property(item)))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    assert len(methods) > 40
    uncalled = sorted(
        qualified for qualified, (name, prop) in methods.items()
        if name not in loaded or (name in fields and not prop and name not in called)
    )
    assert uncalled == sorted(UNCALLED_PUBLIC_METHODS)


# Defaulted parameters of public functions and methods that no call in
# ``src/lossynet`` or ``demos/`` passes, each with the reason it stays.
UNCALLED_PUBLIC_PARAMETERS = {
    "main(argv)": "the command line as a list, which the benchmark and the tests pass",
}


def _defaulted_parameters(tree: ast.Module, private: bool):
    """(qualified name, (function name, method), parameter, position) for
    each defaulted parameter of the module's public functions and its public
    classes' public methods, or, with ``private``, of its private
    module-level functions; the position is the one a call passes it at,
    counted without self, or None for a keyword-only parameter."""
    scopes = [("", tree.body, False)] + [
        (f"{node.name}.", node.body, True) for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and not private
    ]
    for owner, body, method in scopes:
        for f in body:
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("_") != private:
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            positional = [*f.args.posonlyargs, *f.args.args]
            first = len(positional) - len(f.args.defaults)
            key = (f.name, method)
            for k, arg in enumerate(positional[first:], first):
                yield f"{owner}{f.name}({arg.arg})", key, arg.arg, k - (method and not static)
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield f"{owner}{f.name}({arg.arg})", key, arg.arg, None


def _uncalled_parameters(private: bool) -> tuple[int, list]:
    """How many defaulted parameters ``_defaulted_parameters(tree, private)``
    lists over the package, and the qualified names of those that no call
    in the package or a demo passes, by keyword or by position, to a
    function of its name: for a method, a call of an attribute of that
    name."""
    package = sorted(Path(lossynet.__file__).parent.glob("*.py"))
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    keywords, positions, defaulted = set(), {}, []
    for path in [*package, *demos]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                # A starred argument may fill any position.
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                count = math.inf if starred else len(node.args)
                # A call by attribute may reach a function or a method.
                for key in {(name, False), (name, isinstance(func, ast.Attribute))}:
                    keywords.update((key, keyword.arg) for keyword in node.keywords)
                    positions[key] = max(positions.get(key, 0), count)
        if path in package:
            defaulted.extend(_defaulted_parameters(tree, private))
    return len(defaulted), sorted(
        qualified for qualified, key, arg, position in defaulted
        if (key, arg) not in keywords
        and (position is None or positions.get(key, 0) <= position)
    )


def test_every_public_parameter_has_a_caller():
    # A defaulted parameter is surface only if some call in the package or a
    # demo passes it.
    count, uncalled = _uncalled_parameters(private=False)
    assert count >= 8
    assert uncalled == sorted(UNCALLED_PUBLIC_PARAMETERS)


def test_every_private_parameter_has_a_caller():
    # A private function's default that no call in the package or a demo
    # overrides is a branch that only tests take: such a value is a
    # constant, and a parameter every call passes needs no default.
    count, uncalled = _uncalled_parameters(private=True)
    assert count >= 4
    assert uncalled == []


# Defaulted fields of public dataclasses that no call in ``src/lossynet`` or
# ``demos/`` sets, each with the reason it stays.
UNSET_PUBLIC_FIELDS = {}


def _dataclass_fields(tree: ast.Module):
    """(class name, [field names in order], [the defaulted ones]) for each
    public dataclass the module defines.  A field is an annotated name of
    the class body; no public dataclass here inherits fields."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
            continue
        items = [
            item for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        yield (node.name, [item.target.id for item in items],
               [item.target.id for item in items if item.value is not None])


def test_every_public_field_has_a_caller():
    # A defaulted field is surface only if some call in the package or a
    # demo sets it: a call of its class that passes it by keyword, by
    # position or through ``**``, or a ``replace(..., field=)`` call.
    package = sorted(Path(lossynet.__file__).parent.glob("*.py"))
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    calls, replaced, classes = {}, set(), []
    for path in [*package, *demos]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                keywords = {keyword.arg for keyword in node.keywords}
                if name == "replace":
                    replaced |= keywords
                # A starred argument may fill any position, and ``**`` any field.
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                count = math.inf if starred or None in keywords else len(node.args)
                positions, names = calls.get(name, (0, set()))
                calls[name] = (max(positions, count), names | keywords)
        if path in package:
            classes.extend(_dataclass_fields(tree))
    defaulted = [(cls, order, field) for cls, order, fields in classes for field in fields]
    assert len(defaulted) >= 10
    unset = []
    for cls, order, field in defaulted:
        positions, keywords = calls.get(cls, (0, set()))
        if field not in replaced | keywords and positions <= order.index(field):
            unset.append(f"{cls}.{field}")
    assert sorted(unset) == sorted(UNSET_PUBLIC_FIELDS)


# What a fresh interpreter reports after ``import lossynet``: the number of
# %.17g digit tables built, and whether fractions and decimal were loaded.
_IMPORT_WEIGHT = (
    "print(harness._text_tables.cache_info().currsize, "
    "'fractions' in sys.modules, 'decimal' in sys.modules)"
)


def _probe(code: str) -> list:
    """The words a fresh interpreter prints for ``code``, with this
    package first on its path."""
    env = dict(os.environ)
    src = str(Path(lossynet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_builds_no_text_tables():
    # The tables are built by the first trace or psi block, not at import,
    # which every process pays for.
    code = "import sys, lossynet; from lossynet import harness; " + _IMPORT_WEIGHT
    assert _probe(code) == ["0", "False", "False"]


def test_text_tables_load_neither_fractions_nor_decimal():
    code = (
        "import sys, numpy as np; from lossynet import harness; "
        "harness._texts(np.array([0.1, 2.5, -1e-300]).view(np.int64)); " + _IMPORT_WEIGHT
    )
    assert _probe(code) == ["1", "False", "False"]
