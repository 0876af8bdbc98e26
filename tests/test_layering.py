"""Which bdlogic modules import which, read from the source with ``ast``.

The model oracle and the decision procedures check each other, so neither
may be built on the other's code.  Nothing here imports or runs the
modules it reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bdlogic"


def _module(dotted: str) -> str:
    """``bdlogic.x.y`` as ``x``; ``bdlogic`` itself as ``"bdlogic"``."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else "bdlogic"


def bdlogic_imports(module: str) -> list[tuple[str, tuple[str, ...], bool]]:
    """(bdlogic module, imported names, inside a function?) per import.

    ``from bdlogic import ...`` and ``import bdlogic`` name the package
    itself, ``"bdlogic"``, through which every module can be reached.
    """
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
            if node.level == 1:  # from .x import ..., or from . import x
                targets = [node.module] if node.module else list(names)
                found.extend((t.split(".")[0], names, in_function) for t in targets)
            elif node.level == 0 and node.module.split(".")[0] == "bdlogic":
                found.append((_module(node.module), names, in_function))
        elif isinstance(node, ast.Import):
            found.extend(
                (_module(alias.name), (), in_function)
                for alias in node.names
                if alias.name.split(".")[0] == "bdlogic"
            )
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def test_the_reader_sees_relative_and_lazy_imports():
    semantics = bdlogic_imports("semantics")
    assert ("verdicts", ("LogicId", "Verdict"), False) in semantics
    assert ("semantics", ("construct_countermodel",), True) in bdlogic_imports("decision")


def test_the_oracle_imports_nothing_it_checks():
    imported = {module for module, _, _ in bdlogic_imports("semantics")}
    assert not imported & {"bdlogic", "decision", "closure", "metatheory", "cli"}


def test_the_decision_procedures_import_no_checker():
    imports = bdlogic_imports("decision")
    imported = {module for module, _, _ in imports}
    assert not imported & {"bdlogic", "closure", "metatheory", "cli"}
    # the one named exception: a countermodel is built on request, lazily
    assert [i for i in imports if i[0] == "semantics"] == [
        ("semantics", ("construct_countermodel",), True)
    ]


def test_the_suite_reads_three_private_names_of_the_decision_procedures():
    # a set's record, its slice and its inconsistency notions: every
    # verdict the suite checks on sentence bits comes through these
    private = {
        name
        for module, names, _ in bdlogic_imports("metatheory")
        if module == "decision"
        for name in names
        if name.startswith("_")
    }
    assert private == {"_class_record", "_report", "_slice_masks"}


def test_the_closure_engine_imports_no_procedure_it_checks():
    imported = {module for module, _, _ in bdlogic_imports("closure")}
    assert not imported & {"bdlogic", "decision", "semantics", "metatheory", "cli"}


def test_the_slice_and_its_checkers_build_the_lattice_two_ways():
    # the decision slice shifts along plcore's lanes; the closure tables and
    # the model oracle are plcore's subset doublings
    def plcore_names(module):
        return {n for m, names, _ in bdlogic_imports(module) if m == "plcore" for n in names}

    assert "_lanes" in plcore_names("decision")
    assert "_subsets" not in plcore_names("decision")
    for checker in ("closure", "semantics"):
        assert "_subsets" in plcore_names(checker)
        assert "_lanes" not in plcore_names(checker)


def test_the_package_imports_no_module_until_a_name_is_read():
    assert [i for i in bdlogic_imports("__init__") if not i[2]] == []


def test_the_cli_imports_each_checker_only_in_the_command_that_runs_it():
    checkers = {"closure", "semantics", "metatheory"}
    imports = bdlogic_imports("cli")
    assert not checkers & {module for module, _, lazy in imports if not lazy}
    assert checkers <= {module for module, _, lazy in imports if lazy}


def test_no_module_rebinds_its_globals():
    # module-level mutable state shared between calls is kept on the
    # objects it belongs to (a set's memos) or in bounded caches instead
    found = [
        (path.name, node.lineno, node.names)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []
