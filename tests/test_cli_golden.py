"""Byte-identical CLI output: every JSON-emitting subcommand pinned.

Every fixture document and one 16-atom document are run through
``check`` (every query below, every logic and ``all``, with and without
``--countermodel``; the 16-atom document without it) and ``consistency``
(every logic and ``all``).  The small documents of ``SLICES`` are run
through ``consequences`` (every logic) and ``closure`` (every logic and
reading), each with and without the ``--atoms`` padding listed; ``meta``
runs once, at seed 0 and quick scale.  Each run's exit code and the
SHA-256 of its stdout are pinned in ``cli_golden.json``, so a refactor
that changes one output byte fails here.  Re-record with
``python tests/test_cli_golden.py`` only for an intended change of output.
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

# documents of at most two atoms, for the class-enumerating subcommands:
# name -> (document, the --atoms paddings to run besides none)
SLICES = {
    "agnostic": (FIXTURES["agnostic"]().document, [["--atoms", "2"]]),
    "lottery": (FIXTURES["lottery"]().document, []),
    "coupled": ("B: p -> q\nD: q\nD: q & !p\nD: p & !q", [["--atoms", "2"]]),
}
READINGS = ("membership", "derivability")
META_CASE = "meta seed 0 quick"
META_ARGV = ["meta", "--seed", "0", "--scale", "quick", "--json"]


def _cases(name: str, command: str) -> dict[str, list[str]]:
    """Case id -> argv for one document and subcommand."""
    path = f"{name}.bdl"
    if command in ("consequences", "closure"):
        readings = READINGS if command == "closure" else [None]
        return {
            " ".join([name, command, lg, *([reading] if reading else []), *extra]): [
                command, path, "--logic", lg, *(["--reading", reading] if reading else []),
                "--json", *extra,
            ]
            for lg in LOGICS
            for reading in readings
            for extra in [[], *SLICES[name][1]]
        }
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
    documents = SLICES if command in ("consequences", "closure") else DOCUMENTS
    (directory / f"{name}.bdl").write_text(documents[name][0], encoding="utf-8")
    return {case: _run(argv) for case, argv in _cases(name, command).items()}


def _pinned(cases) -> dict[str, dict]:
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {case: pinned[case] for case in cases}


@pytest.mark.parametrize("command", ["check", "consistency"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_output_is_byte_identical(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _run_all(name, command, tmp_path)
    assert got == _pinned(_cases(name, command))


@pytest.mark.parametrize("command", ["consequences", "closure"])
@pytest.mark.parametrize("name", sorted(SLICES))
def test_slice_json_output_is_byte_identical(name, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _run_all(name, command, tmp_path)
    assert got == _pinned(_cases(name, command))


def test_meta_json_output_is_byte_identical():
    assert {META_CASE: _run(META_ARGV)} == _pinned([META_CASE])


# One process, one parser: each call after a rejected argv or a call with a
# flag set must print what its pinned case printed.  A pinned case id, or
# None for an argv that argparse rejects; the pinned outputs all differ, so
# a flag carried over to the next call shows.
REUSE = [
    ("murder check bd D: s --countermodel",
     ["check", "murder.bdl", "--query", "D: s", "--logic", "bd", "--json", "--countermodel"]),
    (None, ["check", "murder.bdl", "--logic", "bd", "--countermodel"]),
    ("murder check bd D: s",
     ["check", "murder.bdl", "--query", "D: s", "--logic", "bd", "--json"]),
    ("coupled closure bd membership",
     ["closure", "coupled.bdl", "--logic", "bd", "--reading", "membership", "--json"]),
    (None, ["closure", "coupled.bdl", "--reading", "membership", "--atoms", "two"]),
    ("coupled closure bd derivability", ["closure", "coupled.bdl", "--logic", "bd", "--json"]),
    ("agnostic consequences bd --atoms 2",
     ["consequences", "agnostic.bdl", "--logic", "bd", "--json", "--atoms", "2"]),
    (None, ["consequences", "agnostic.bdl", "--atoms", "2", "--logic", "kd45"]),
    ("agnostic consequences bd", ["consequences", "agnostic.bdl", "--json"]),
]


def test_reused_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    from bdlogic.cli import _build_parser

    monkeypatch.chdir(tmp_path)
    (tmp_path / "murder.bdl").write_text(DOCUMENTS["murder"][0], encoding="utf-8")
    for name in ("coupled", "agnostic"):
        (tmp_path / f"{name}.bdl").write_text(SLICES[name][0], encoding="utf-8")
    pinned = _pinned(case for case, _ in REUSE if case is not None)
    assert len({entry["sha256"] for entry in pinned.values()}) == len(pinned)
    for case, argv in REUSE:
        if case is None:
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert _run(argv) == pinned[case], case
    assert _build_parser() is _build_parser()


def _record() -> None:
    golden: dict[str, dict] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in sorted(DOCUMENTS):
                for command in ("check", "consistency"):
                    golden.update(_run_all(name, command, Path(tmp)))
            for name in sorted(SLICES):
                for command in ("consequences", "closure"):
                    golden.update(_run_all(name, command, Path(tmp)))
            golden[META_CASE] = _run(META_ARGV)
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
