"""The benchmark's tracer still hooks into the package.

``perfbench/tracing.py`` rebinds the public functions of each layer, the
entries of ``decision._DECIDERS`` and the plain ``property`` objects of
``InformationSet``.  A refactor that renames one of them, turns a property
into a ``cached_property`` or stops ``decide`` from reading the logic table
at call time breaks traced benchmark runs; this test makes that fail here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from bdlogic.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(capsys, doc: str) -> list[tuple[int, str]]:
    runs = []
    for argv in (["check", doc, "--query", "D: k", "--json"],
                 ["consequences", doc, "--logic", "bd", "--json"]):
        code = main(argv)
        runs.append((code, capsys.readouterr().out))
    return runs


def test_traced_run_matches_untraced_and_counts_decisions(capsys, tmp_path):
    doc = tmp_path / "coupled.bdl"
    doc.write_text("B: k -> m\nD: m\nD: k & !m\n")
    untraced = _outputs(capsys, str(doc))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        traced = _outputs(capsys, str(doc))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls["decision.decide"] > 0
    assert tracer.calls["decision.consequences"] == 1
    assert tracer.calls["syntax.iter"] > 0
    assert _outputs(capsys, str(doc)) == untraced
