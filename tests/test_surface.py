"""The public surface: the names ``bioctl`` exports stay as they are, and a
name in a module's ``__all__`` is either one of them or used by the
package, its scripts or its benchmark, so that code only the tests reach
does not come back."""

import ast
import pathlib
import types

import bioctl

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bioctl"

PUBLIC = [
    "Allee", "DomainError", "HollingI", "HollingII", "HollingIV",
    "HorizonExceededError", "InputOverflowError", "IntegrationError",
    "KernelReport", "KernelSet", "Linear", "Logistic", "McConfig",
    "OptimalPeriods", "PeriodTooLargeError", "PestFreeOrbit", "Proportional",
    "ReleaseProgram", "SimConfig", "StabilityAssessment",
    "StateConsistencyError", "Trajectory", "Trials", "UnboundedRatioError",
    "UncertaintyBox", "Verdict", "WorstCaseReport", "ZParams", "bin_envelope",
    "damage_time", "damage_time_full", "deviation_envelope", "envelope_argmax",
    "envelope_bound_curve", "floquet_multipliers", "max_decay_period",
    "optimal_periods", "ratio_supremum", "robust_envelope", "run_mc",
    "simulate", "stability_verdict", "t_limits", "validate_kernels",
    "verify_envelope", "worst_invasion",
]


def _exported():
    return sorted(name for name, value in vars(bioctl).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def test_public_names_are_unchanged():
    assert _exported() == PUBLIC


def _loads(tree):
    """(name, the names of the definitions around it) for every name the
    tree loads, as a variable or as an attribute."""
    found = []

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            found.append((node.id if isinstance(node, ast.Name) else node.attr, around))
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(tree, frozenset())
    return found


def _module_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def test_every_listed_name_is_exported_or_used_outside_the_tests():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    used = {name for path in sources
            for name, around in _loads(ast.parse(path.read_text()))
            if name not in around}
    exported = set(_exported())
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _module_all(ast.parse(path.read_text()))
              if name not in exported and name not in used]
    assert unused == []
