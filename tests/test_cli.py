"""Command line surface: exit codes, text output, JSON contracts."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bdlogic import (
    InformationSet,
    close,
    RULE_SETS,
    build_universe,
    consequences,
    decide,
    parse_information_set,
    parse_sentence,
)
from bdlogic.cli import main

MURDER = "B: s\nB: k -> m\nD: s & m\n"
AGNOSTIC = "D: p\nD: !p\n"


@pytest.fixture
def murder_file(tmp_path):
    path = tmp_path / "murder.bdl"
    path.write_text(MURDER)
    return str(path)


@pytest.fixture
def agnostic_file(tmp_path):
    path = tmp_path / "agnostic.bdl"
    path.write_text(AGNOSTIC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_entailed_exits_zero(self, capsys, murder_file):
        code, out, _ = run(capsys, "check", murder_file, "--query", "D: k", "--logic", "bd")
        assert code == 0
        assert "entailed" in out

    def test_not_entailed_exits_one(self, capsys, murder_file):
        code, out, _ = run(capsys, "check", murder_file, "--query", "D: k", "--logic", "wbd")
        assert code == 1
        assert "not entailed" in out

    def test_all_logics_exit_one_on_any_miss(self, capsys, murder_file):
        code, out, _ = run(capsys, "check", murder_file, "--query", "D: k")
        assert code == 1
        for logic in ("wbd", "gbd", "bd", "bn"):
            assert logic in out

    def test_all_logics_exit_zero_when_everyone_agrees(self, capsys, murder_file):
        code, _, _ = run(capsys, "check", murder_file, "--query", "B: s")
        assert code == 0

    def test_json_payload_reparses_to_the_same_input(self, capsys, murder_file):
        code, out, _ = run(
            capsys, "check", murder_file, "--query", "D: k", "--json"
        )
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["command"] == "check"
        reparsed = parse_information_set("\n".join(data["input"]["sentences"]))
        assert reparsed == parse_information_set(MURDER)
        assert parse_sentence(data["query"]) == parse_sentence("D: k")

    def test_json_verdicts_match_the_library(self, capsys, murder_file):
        _, out, _ = run(capsys, "check", murder_file, "--query", "D: k", "--json")
        data = json.loads(out)
        gamma = parse_information_set(MURDER)
        alpha = parse_sentence("D: k")
        for verdict in data["verdicts"]:
            assert verdict["entailed"] == decide(verdict["logic"], gamma, alpha).entailed

    def test_json_is_canonically_formatted(self, capsys, murder_file):
        _, out, _ = run(capsys, "check", murder_file, "--query", "D: k", "--json")
        data = json.loads(out)
        assert out.strip() == json.dumps(data, indent=2, sort_keys=True)

    def test_countermodel_on_single_logic(self, capsys, murder_file):
        code, out, _ = run(
            capsys,
            "check",
            murder_file,
            "--query",
            "D: k",
            "--logic",
            "wbd",
            "--json",
            "--countermodel",
        )
        assert code == 1
        data = json.loads(out)
        assert data["countermodel"] is not None
        assert data["countermodel"]["type"] == "wbd"

    def test_countermodel_is_null_when_entailed(self, capsys, murder_file):
        _, out, _ = run(
            capsys,
            "check",
            murder_file,
            "--query",
            "D: k",
            "--logic",
            "bd",
            "--json",
            "--countermodel",
        )
        assert json.loads(out)["countermodel"] is None

    def test_stdin_document(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MURDER))
        code, _, _ = run(capsys, "check", "-", "--query", "B: s", "--logic", "bd")
        assert code == 0

    def test_byte_order_mark_is_dropped(
        self, capsys, monkeypatch, tmp_path, murder_file
    ):
        path = tmp_path / "bom.bdl"
        path.write_bytes(b"\xef\xbb\xbf" + MURDER.encode("utf-8"))
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + MURDER))
        argv = ("--query", "D: k", "--logic", "all", "--json")
        _, plain, _ = run(capsys, "check", murder_file, *argv)
        for doc in (str(path), "-"):
            code, out, err = run(capsys, "check", doc, *argv)
            assert (code, err) == (1, "")
            got, want = json.loads(out), json.loads(plain)
            assert got["input"]["source"] == ("<stdin>" if doc == "-" else doc)
            got["input"]["source"] = want["input"]["source"]
            assert got == want

    def test_only_one_byte_order_mark_is_dropped(self, capsys, tmp_path):
        path = tmp_path / "bom2.bdl"
        path.write_text("\ufeff\ufeff" + MURDER, encoding="utf-8")
        code, _, err = run(capsys, "check", str(path), "--query", "B: s")
        assert code == 2
        assert "'\\ufeff' at line 1, column 1" in err

    def test_malformed_query_exits_two(self, capsys, murder_file):
        code, _, err = run(capsys, "check", murder_file, "--query", "D: k &")
        assert code == 2
        assert err

    def test_malformed_query_names_the_column_of_its_token(self, capsys, murder_file):
        code, _, err = run(capsys, "check", murder_file, "--query", "D: p q")
        assert code == 2
        assert "column 6" in err

    def test_malformed_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.bdl"
        bad.write_text("B: p &\nD: q\n")
        code, _, err = run(capsys, "check", str(bad), "--query", "B: p")
        assert code == 2
        assert "bad.bdl" in err

    def test_a_blank_the_tokenizer_refuses_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "nbsp.bdl"
        bad.write_text("B: p\nD:\u00a0q\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad), "--query", "B: p")
        assert (code, out) == (2, "")
        assert "unexpected character '\\xa0' at line 2, column 3" in err

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x85", "\u2028"])
    def test_a_break_a_file_read_keeps_exits_two(self, capsys, tmp_path, char):
        bad = tmp_path / "break.bdl"
        bad.write_text(f"B: p{char}q\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad), "--query", "B: p")
        assert (code, out) == (2, "")
        assert f"unexpected character {char!r} at line 1, column 5" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.bdl", "--query", "B: p")
        assert code == 2
        assert err


def test_commands_without_the_oracle_never_load_numpy(murder_file, agnostic_file):
    # the package loads a module on first use, and check (no countermodel)
    # and consistency load neither the oracle, the closure engine nor the
    # suite; with numpy blocked, every command still runs as it does with it
    script = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
import bdlogic
bare = sorted(m for m in sys.modules if m.startswith("bdlogic."))
from bdlogic.cli import main
light = [
    ["check", {murder_file!r}, "--query", "D: k", "--json"],
    ["consistency", {murder_file!r}, "--json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in light]
checkers = ("bdlogic.closure", "bdlogic.semantics", "bdlogic.metatheory")
loaded = [m for m in checkers if m in sys.modules]
runs = [
    ["check", {murder_file!r}, "--query", "D: k", "--countermodel", "--json"],
    ["consistency", {murder_file!r}, "--json"],
    ["consequences", {agnostic_file!r}, "--json"],
    ["closure", {agnostic_file!r}, "--json"],
    ["examples", "murder", "--json"],
    ["meta", "--scale", "quick", "--json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes += [main(argv) for argv in runs]
print(json.dumps({{"bare": bare, "loaded": loaded, "codes": codes}}))
"""
    import bdlogic

    src = str(Path(bdlogic.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "bare": [], "loaded": [], "codes": [1, 0, 1, 0, 0, 0, 0, 0]
    }


@pytest.mark.parametrize(
    "body",
    ["!" * 2000 + "p", "(" * 3000 + "p" + ")" * 3000, " & ".join(["p", "q"] * 1500)],
    ids=["not", "parens", "chain"],
)
@pytest.mark.parametrize(
    "argv", [["check", "--query", "B: p"], ["consistency"]], ids=["check", "consistency"]
)
def test_deeply_nested_input_exits_two(capsys, tmp_path, body, argv):
    deep = tmp_path / "deep.bdl"
    deep.write_text(f"B: {body}\n")
    code, out, err = run(capsys, argv[0], str(deep), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize(
    "argv", [["check", "--query", "B: p"], ["consistency"]], ids=["check", "consistency"]
)
def test_three_hundred_nested_parentheses_are_answered(capsys, tmp_path, argv):
    deep = tmp_path / "deep.bdl"
    deep.write_text("B: " + "(" * 300 + "p" + ")" * 300 + "\n")
    code, out, err = run(capsys, argv[0], str(deep), *argv[1:])
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize(
    "argv", [("check", "--query", "B: a0"), ("consistency", "--logic", "all")]
)
def test_seventeen_atoms_are_over_the_stated_limit(capsys, tmp_path, argv):
    # the README states the limit: 16 atoms, exit 2, one line on stderr
    wide = tmp_path / "wide17.bdl"
    wide.write_text("".join(f"B: a{i}\n" for i in range(17)))
    code, out, err = run(capsys, argv[0], str(wide), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: universe has 17 atoms; the limit is 16\n"


class TestConsistency:
    def test_inconsistent_set_exits_one(self, capsys, agnostic_file):
        code, out, _ = run(capsys, "consistency", agnostic_file, "--logic", "gbd")
        assert code == 1

    def test_consistent_set_exits_zero(self, capsys, agnostic_file):
        code, _, _ = run(capsys, "consistency", agnostic_file, "--logic", "wbd")
        assert code == 0

    def test_json_flags_match_the_library(self, capsys, agnostic_file):
        _, out, _ = run(capsys, "consistency", agnostic_file, "--json")
        data = json.loads(out)
        from bdlogic import inconsistency_report

        gamma = parse_information_set(AGNOSTIC)
        for logic, flags in data["report"].items():
            rep = inconsistency_report(logic, gamma)
            assert flags["b_inconsistent"] == rep.b_inconsistent
            assert flags["d_inconsistent"] == rep.d_inconsistent
            assert flags["combined_inconsistent"] == rep.combined_inconsistent
            assert flags["fully_consistent"] == rep.fully_consistent()


class TestConsequences:
    def test_sentences_reparse_and_match_the_library(self, capsys, tmp_path):
        doc = tmp_path / "np.bdl"
        doc.write_text("B: !p\n")
        _, out, _ = run(capsys, "consequences", str(doc), "--logic", "bd", "--json")
        data = json.loads(out)
        got = {parse_sentence(s) for s in data["report"]["entailed"]}
        gamma = parse_information_set("B: !p")
        from bdlogic import relevant_atoms

        want = consequences("bd", gamma, relevant_atoms(gamma.belief_bodies))
        assert got == want

    def test_atom_padding_widens_the_universe(self, capsys, tmp_path):
        doc = tmp_path / "np.bdl"
        doc.write_text("B: !p\n")
        _, narrow, _ = run(capsys, "consequences", str(doc), "--json")
        _, wide, _ = run(capsys, "consequences", str(doc), "--atoms", "2", "--json")
        assert len(json.loads(wide)["report"]["entailed"]) > len(
            json.loads(narrow)["report"]["entailed"]
        )
        assert json.loads(wide)["report"]["universe"] == ["p", "q"]

    def test_three_atoms_is_out_of_contract(self, capsys, tmp_path):
        doc = tmp_path / "wide.bdl"
        doc.write_text("B: a & b -> c\n")
        code, _, err = run(capsys, "consequences", str(doc))
        assert code == 2
        assert err

    @pytest.mark.parametrize("command", ["consequences", "closure"])
    def test_atoms_beyond_the_universe_cap_get_the_command_limit(
        self, capsys, tmp_path, command
    ):
        # 17 atoms is also over plcore's 16-atom cap; the command's own
        # 2-atom limit must be the one reported
        doc = tmp_path / "wide17.bdl"
        doc.write_text("".join(f"B: a{i}\n" for i in range(17)))
        code, _, err = run(capsys, command, str(doc))
        assert code == 2
        assert "supports at most 2 atoms; the input uses 17" in err

    @pytest.mark.parametrize("command", ["consequences", "closure"])
    @pytest.mark.parametrize("atoms,uses", [("3", 3), ("30", 30)])
    def test_padding_beyond_the_limit_is_refused(
        self, capsys, tmp_path, command, atoms, uses
    ):
        # 30 atoms is more than the padding pool holds; the limit is checked
        # before padding, so the request is refused, not a traceback
        doc = tmp_path / "one.bdl"
        doc.write_text("B: p\n")
        code, out, err = run(capsys, command, str(doc), "--atoms", atoms)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert f"supports at most 2 atoms; the input uses {uses}" in err

    def test_padding_below_used_atoms_is_an_error(self, capsys, murder_file):
        code, _, err = run(capsys, "consequences", murder_file, "--atoms", "2")
        assert code == 2


class TestClosure:
    def test_membership_gap_is_surfaced_as_a_note(self, capsys, tmp_path):
        doc = tmp_path / "np.bdl"
        doc.write_text("B: !p\n")
        code, out, _ = run(
            capsys, "closure", str(doc), "--logic", "bd", "--reading", "membership"
        )
        assert code == 0
        assert "# note:" in out
        assert "not derived" in out

    def test_json_gap_fields(self, capsys, tmp_path):
        doc = tmp_path / "np.bdl"
        doc.write_text("B: !p\n")
        _, out, _ = run(
            capsys,
            "closure",
            str(doc),
            "--logic",
            "bd",
            "--reading",
            "membership",
            "--json",
        )
        report = json.loads(out)["report"]
        assert report["missing_vs_decision"] == ["D: p"]
        assert report["extra_vs_decision"] == []
        assert report["reading"] == "membership"

    def test_derived_set_matches_the_engine(self, capsys, tmp_path):
        doc = tmp_path / "np.bdl"
        doc.write_text("B: !p\n")
        _, out, _ = run(capsys, "closure", str(doc), "--logic", "bd", "--json")
        data = json.loads(out)
        got = {parse_sentence(s) for s in data["report"]["derived"]}
        cu = build_universe(1)
        want = close(
            RULE_SETS["bd"], "derivability", parse_information_set("B: !p"), cu
        )
        assert got == want

    def test_rules_listed_match_the_system(self, capsys, tmp_path):
        doc = tmp_path / "d.bdl"
        doc.write_text("D: p\n")
        _, out, _ = run(capsys, "closure", str(doc), "--logic", "gbd", "--json")
        assert json.loads(out)["report"]["rules"] == ["B", "DBot", "GD"]


class TestMeta:
    def test_quick_suite_passes_and_reports(self, capsys):
        code, out, _ = run(capsys, "meta", "--seed", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert data["scale"] == "quick"
        assert data["seed"] == 1
        assert len(data["cases"]) == 32


class TestExamples:
    @pytest.mark.parametrize("name", ["murder", "lottery", "agnostic"])
    def test_each_scenario_passes(self, capsys, name):
        code, out, _ = run(capsys, "examples", name)
        assert code == 0
        assert "ok" in out
        assert "FAIL" not in out

    def test_lottery_tickets_flag(self, capsys):
        code, out, _ = run(capsys, "examples", "lottery", "--tickets", "4")
        assert code == 0
        assert "t4" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "examples", "murder", "--json")
        assert code == 0
        data = json.loads(out)
        assert all(e["ok"] for e in data["report"]["expectations"])
        reparsed = parse_information_set("\n".join(data["input"]["sentences"]))
        assert reparsed == parse_information_set(MURDER)
        assert parse_information_set(data["report"]["document"]) == reparsed

    def test_unknown_scenario_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "unknown-name"])
        assert exc.value.code == 2


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
