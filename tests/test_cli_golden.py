"""Byte-identical CLI output: `check --json` and `consistency --json` pinned.

Every fixture document and one 16-atom document are run through
``check`` (every query below, every logic and ``all``, with and without
``--countermodel``; the 16-atom document without it) and ``consistency``
(every logic and ``all``).  Each run's exit code and the SHA-256 of its
stdout are pinned in ``cli_golden.json``, so a refactor that changes one
output byte fails here.  Re-record with ``python tests/test_cli_golden.py``
only for an intended change of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bdlogic.cli import main
from bdlogic.fixtures import FIXTURES
from bdlogic.verdicts import LOGICS

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")

# an implication chain a -> b -> ... -> p over 16 atoms, plus a few disbeliefs
WIDE = "\n".join(
    ["# sixteen atoms"]
    + [f"B: {x} -> {y}" for x, y in zip("abcdefghijklmno", "bcdefghijklmnop")]
    + ["B: a | h", "D: p & !c", "D: g <-> i", "D: b & d & f", "D: !a & !h"]
)

DOCUMENTS = {
    "murder": (FIXTURES["murder"]().document, ["D: k", "B: m | !k", "D: s", "B: k", "D: true"]),
    "lottery": (FIXTURES["lottery"]().document, ["D: t1", "B: t1 | t2", "D: t1 & t2", "B: t1", "D: true"]),
    "agnostic": (FIXTURES["agnostic"]().document, ["D: true", "D: p", "B: p | !p", "D: p & !p", "B: p"]),
    "wide16": (WIDE, ["B: h | p", "B: p", "D: p & !c", "D: a & !p", "D: !a & !h & p", "D: true"]),
}
LOGIC_ARGS = LOGICS + ("all",)


def _cases(name: str, command: str) -> dict[str, list[str]]:
    """Case id -> argv for one document and subcommand."""
    path = f"{name}.bdl"
    if command == "consistency":
        return {
            f"{name} consistency {lg}": ["consistency", path, "--logic", lg, "--json"]
            for lg in LOGIC_ARGS
        }
    flags = [[]] if name == "wide16" else [[], ["--countermodel"]]
    return {
        " ".join([name, "check", lg, query, *extra]): [
            "check", path, "--query", query, "--logic", lg, "--json", *extra
        ]
        for query in DOCUMENTS[name][1]
        for lg in LOGIC_ARGS
        for extra in flags
    }


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


def _run_all(name: str, command: str, directory: Path) -> dict[str, dict]:
    (directory / f"{name}.bdl").write_text(DOCUMENTS[name][0], encoding="utf-8")
    return {case: _run(argv) for case, argv in _cases(name, command).items()}


@pytest.mark.parametrize("command", ["check", "consistency"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_output_is_byte_identical(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _run_all(name, command, tmp_path)
    want = {case: pinned[case] for case in _cases(name, command)}
    assert got == want


def _record() -> None:
    golden: dict[str, dict] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in sorted(DOCUMENTS):
                for command in ("check", "consistency"):
                    golden.update(_run_all(name, command, Path(tmp)))
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
