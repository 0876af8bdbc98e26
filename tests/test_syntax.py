"""Parser, renderer, and document format."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdlogic import (
    And,
    Atom,
    Belief,
    Bottom,
    Disbelief,
    DocumentParseError,
    Iff,
    Implies,
    InformationSet,
    Not,
    Or,
    ParseError,
    Top,
    atoms_of,
    parse_formula,
    parse_information_set,
    parse_sentence,
    render_document,
    render_formula,
    render_sentence,
)

from conftest import formulas, formulas_wide, information_sets, sentences

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParseFormula:
    def test_atoms_and_constants(self):
        assert parse_formula("p") == p
        assert parse_formula("long_name2") == Atom("long_name2")
        assert parse_formula("true") == Top()
        assert parse_formula("false") == Bottom()

    def test_operators(self):
        assert parse_formula("!p") == Not(p)
        assert parse_formula("p & q") == And(p, q)
        assert parse_formula("p | q") == Or(p, q)
        assert parse_formula("p -> q") == Implies(p, q)
        assert parse_formula("p <-> q") == Iff(p, q)

    def test_precedence_not_binds_tightest(self):
        assert parse_formula("!p & q") == And(Not(p), q)
        assert parse_formula("!(p & q)") == Not(And(p, q))

    def test_precedence_and_over_or(self):
        assert parse_formula("p | q & r") == Or(p, And(q, r))
        assert parse_formula("p & q | r") == Or(And(p, q), r)

    def test_precedence_or_over_implies(self):
        assert parse_formula("p | q -> r") == Implies(Or(p, q), r)

    def test_implies_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_iff_left_associative(self):
        assert parse_formula("p <-> q <-> r") == Iff(Iff(p, q), r)

    def test_iff_binds_loosest(self):
        assert parse_formula("p -> q <-> r") == Iff(Implies(p, q), r)

    def test_double_negation_kept(self):
        assert parse_formula("!!p") == Not(Not(p))

    def test_whitespace_insensitive(self):
        assert parse_formula("  p&q  ") == parse_formula("p & q")
        assert parse_formula("p\t->\tq") == Implies(p, q)

    @pytest.mark.parametrize(
        "text",
        ["", "p &", "& p", "(p", ")", "p q", "p -> ", "p <- q", "p % q", "B p"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    @pytest.mark.parametrize("name", ["P", "1p", "", "p-q", "true", "false"])
    def test_atom_names_are_checked(self, name):
        with pytest.raises(ValueError, match="invalid atom name"):
            Atom(name)

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & ")
        assert err.value.line == 1
        assert err.value.column == 5
        assert err.value.expected  # nonempty hint set
        assert "line 1" in str(err.value)


class TestParseSentence:
    def test_prefixes(self):
        assert parse_sentence("B: p") == Belief(p)
        assert parse_sentence("D: p") == Disbelief(p)
        assert parse_sentence("D:!p") == Disbelief(Not(p))

    def test_bare_formula_reads_as_belief(self):
        assert parse_sentence("p & q") == Belief(And(p, q))

    def test_prefix_spacing(self):
        assert parse_sentence("  D  :  p | q ") == Disbelief(Or(p, q))

    def test_lowercase_prefix_is_not_a_prefix(self):
        # "b" would be an atom, and a bare colon is not in the grammar
        with pytest.raises(ParseError):
            parse_sentence("b: p")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_sentence("B:")


class TestDocuments:
    def test_comments_and_blank_lines(self):
        doc = "# header\n\nB: p\n  # indented comment\nD: q\n"
        assert parse_information_set(doc) == InformationSet.of(
            Belief(p), Disbelief(q)
        )

    def test_duplicates_collapse(self):
        assert len(parse_information_set("B: p\nB: p\nB: p")) == 1

    def test_empty_document(self):
        assert parse_information_set("") == InformationSet()
        assert parse_information_set("# only a comment\n") == InformationSet()

    def test_errors_are_aggregated_with_document_line_numbers(self):
        with pytest.raises(DocumentParseError) as err:
            parse_information_set("B: p\n\nD: q &\nB: (r\n")
        lines = sorted(e.line for e in err.value.errors)
        assert lines == [3, 4]

    def test_document_error_message_lists_each_problem(self):
        with pytest.raises(DocumentParseError) as err:
            parse_information_set("B: &\nD: |\n")
        assert len(err.value.errors) == 2

    def test_render_document_is_sorted_and_stable(self):
        iset = parse_information_set("D: q\nB: p\nD: !q")
        text = render_document(iset)
        assert text == "B: p\nD: !q\nD: q"
        assert parse_information_set(text) == iset

    def test_iteration_is_sorted_once(self, monkeypatch):
        from bdlogic import syntax

        iset = parse_information_set("D: q\nB: p | q\nD: !p\nB: a\nD: p & q\nB: !a")
        want = tuple(sorted(iset.sentences, key=syntax._sentence_sort_key))
        renders = []
        original = syntax.render_formula
        monkeypatch.setattr(
            syntax, "render_formula", lambda f: renders.append(f) or original(f)
        )
        assert tuple(iset) == want
        assert len(renders) == len(iset)
        assert tuple(iset) == want
        assert iset.beliefs + iset.disbeliefs == want
        assert iset.disbelief_bodies == tuple(s.body for s in want[3:])
        assert iset.dual_bodies is iset.dual_bodies
        assert len(renders) == len(iset)


class TestRenderer:
    def test_minimal_parentheses(self):
        assert render_formula(And(Or(p, q), r)) == "(p | q) & r"
        assert render_formula(Or(And(p, q), r)) == "p & q | r"
        assert render_formula(Not(And(p, q))) == "!(p & q)"
        assert render_formula(Not(p)) == "!p"
        assert render_formula(Not(Not(p))) == "!!p"

    def test_associativity_needs_no_parens_on_the_natural_side(self):
        assert render_formula(Implies(p, Implies(q, r))) == "p -> q -> r"
        assert render_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"
        assert render_formula(Iff(Iff(p, q), r)) == "p <-> q <-> r"
        assert render_formula(Iff(p, Iff(q, r))) == "p <-> (q <-> r)"

    def test_constants(self):
        assert render_formula(Top()) == "true"
        assert render_formula(Bottom()) == "false"

    def test_sentence_prefixes(self):
        assert render_sentence(Belief(p)) == "B: p"
        assert render_sentence(Disbelief(Not(p))) == "D: !p"


class TestRoundTrips:
    @given(formulas())
    def test_formula_round_trip(self, f):
        assert parse_formula(render_formula(f)) == f

    @given(formulas_wide())
    def test_formula_round_trip_wide_names(self, f):
        assert parse_formula(render_formula(f)) == f

    @given(sentences())
    def test_sentence_round_trip(self, s):
        assert parse_sentence(render_sentence(s)) == s

    @given(information_sets())
    def test_document_round_trip(self, iset):
        assert parse_information_set(render_document(iset)) == iset


class TestInformationSet:
    def test_iteration_order_beliefs_first_then_text(self):
        iset = parse_information_set("D: q\nD: !q\nB: p\nB: a")
        rendered = [render_sentence(s) for s in iset]
        assert rendered == sorted(rendered, key=lambda t: (t.startswith("D"), t))

    def test_accessors(self):
        iset = parse_information_set("B: p\nD: q\nD: !q")
        assert iset.belief_bodies == (p,)
        assert set(iset.disbelief_bodies) == {q, Not(q)}
        assert Not(q) in iset.dual_bodies

    def test_union_and_without(self):
        iset = InformationSet.of(Belief(p))
        grown = iset.union([Disbelief(q), Belief(p)])
        assert len(grown) == 2
        assert grown.without(Disbelief(q)) == iset

    def test_membership_and_len(self):
        iset = InformationSet.of(Belief(p), Disbelief(q))
        assert Belief(p) in iset
        assert Disbelief(p) not in iset
        assert len(iset) == 2


class TestSentenceHash:
    def test_equal_sentences_built_apart_hash_equal(self):
        for text, built in (
            ("B: p & (q | !r)", Belief(And(p, Or(q, Not(r))))),
            ("D: true", Disbelief(Top())),
        ):
            parsed = parse_sentence(text)
            assert parsed == built and parsed is not built
            assert hash(parsed) == hash(built) == hash(parse_sentence(text))
            # the dataclass's own value, so set iteration orders are unchanged
            assert hash(parsed) == hash((built.body,))

    def test_the_cached_hash_is_not_part_of_the_sentence(self):
        hashed, fresh = parse_sentence("D: p -> q"), parse_sentence("D: p -> q")
        hash(hashed)
        assert hashed == fresh
        assert repr(hashed) == repr(fresh)
        assert repr(hashed) == "Disbelief(body=Implies(left=Atom(name='p'), right=Atom(name='q')))"
        assert [f.name for f in dataclasses.fields(hashed)] == ["body"]
        moved = dataclasses.replace(hashed, body=r)
        assert moved == Disbelief(r) and hash(moved) == hash(Disbelief(r))
        assert pickle.dumps(hashed) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(hashed)) == hashed

    def test_a_pickled_sentence_is_found_under_another_hash_seed(self):
        sentence = parse_sentence("B: p & (q | !r)")
        hash(sentence)
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        script = (
            "import pickle, sys\n"
            "from bdlogic import parse_sentence\n"
            "loaded = pickle.load(sys.stdin.buffer)\n"
            "fresh = parse_sentence('B: p & (q | !r)')\n"
            "print(loaded in {fresh, parse_sentence('D: p')}, hash(fresh))\n"
        )
        import bdlogic

        src = str(Path(bdlogic.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(sentence),
            capture_output=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr.decode()
        found, child_hash = result.stdout.decode().split()
        assert int(child_hash) != hash(sentence)  # the seed did change the hash
        assert found == "True"


def test_atoms_of_collects_every_atom():
    f = parse_formula("alpha -> beta & alpha | !gamma")
    assert atoms_of(f) == frozenset({"alpha", "beta", "gamma"})
    assert atoms_of(Top()) == frozenset()


# --------------------------------------------------------------------------
# One digest over a seeded corpus pins every tree, rendering and error text


_TOKENS = ["p", "q", "r", "true", "false", "!", "&", "|", "->", "<->", "(", ")"]
# separators, near-misses and characters outside the grammar
_NOISE = [" ", " ", "\n", "\t", "<-", "-", "%", "B", "D:", "p2", "#"]
_LEAVES = [p, q, r, Top(), Bottom()]
_BINARY = [And, Or, Implies, Iff]


def _formula_outcome(text: str) -> str:
    try:
        tree = parse_formula(text)
    except ParseError as err:
        return f"error {err} @{err.line}:{err.column} {sorted(err.expected)}"
    return f"{tree!r} = {render_formula(tree)}"


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    if rng.random() < 0.2:
        return Not(_random_tree(rng, depth - 1))
    node = rng.choice(_BINARY)
    return node(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _random_text(rng: random.Random) -> str:
    pool = _TOKENS + _NOISE if rng.random() < 0.3 else _TOKENS
    return " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))


def _corpus():
    rng = random.Random(11)
    for _ in range(12000):
        text = _random_text(rng)
        yield f"{text!r}: {_formula_outcome(text)}"
    for _ in range(3000):
        text = render_formula(_random_tree(rng, 5))
        # one token of the rendering replaced: errors deep inside a formula
        cut = rng.randrange(len(text))
        broken = text[:cut] + rng.choice(_TOKENS + _NOISE) + text[cut + 1 :]
        yield f"{broken!r}: {_formula_outcome(broken)}"
    for _ in range(3000):
        tree = _random_tree(rng, 6)
        text = render_formula(tree)
        assert parse_formula(text) == tree, text
        yield text
    for _ in range(300):
        lines = [
            rng.choice(["B: ", "D: ", "", "  D :", "# ", "b: "]) + _random_text(rng)
            for _ in range(rng.randint(1, 6))
        ]
        document = "\n".join(lines)
        try:
            outcome = render_document(parse_information_set(document))
        except DocumentParseError as err:
            spots = [(e.line, e.column, sorted(e.expected)) for e in err.errors]
            outcome = f"error {err} {spots}"
        yield f"{document!r}: {outcome}"


def test_parser_corpus_is_unchanged():
    digest = hashlib.sha256("\n".join(_corpus()).encode("utf-8")).hexdigest()
    assert digest == "0f23d5276a097e7e98e2b1f2c1f3a9da7ecb5f60f8987fb6c160f5f8644e1a8a"


# --------------------------------------------------------------------------
# Each error is positioned at its token and names every token that fits there

_CONNECTIVE_LABELS = {"'&'", "'|'", "'->'", "'<->'"}
_OPERAND_LABELS = {"'!'", "'('", "atom"}


def test_document_errors_name_the_column_within_their_line():
    with pytest.raises(DocumentParseError) as err:
        parse_information_set("B: p\nD:   p q\n  B: (r\n")
    assert [(e.line, e.column) for e in err.value.errors] == [(2, 8), (3, 8)]


def test_sentence_errors_count_the_prefix():
    with pytest.raises(ParseError) as err:
        parse_sentence("D: p q")
    assert err.value.column == 6


def test_a_prefix_spanning_lines_is_counted_in_lines():
    with pytest.raises(ParseError) as err:
        parse_sentence("\nB:\n  p q")
    assert (err.value.line, err.value.column) == (3, 5)


@pytest.mark.parametrize(
    "text, column", [("B:\xa0p", 3), ("D: \u2003q", 4), ("\xa0B: p", 1), ("B: p &\xa0q", 7)]
)
def test_a_blank_the_tokenizer_refuses_is_refused_after_a_prefix_too(text, column):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_sentence(text)
    assert (err.value.line, err.value.column) == (1, column)
    with pytest.raises(DocumentParseError) as err:
        parse_information_set("B: p\n" + text)
    assert [(e.line, e.column) for e in err.value.errors] == [(2, column)]


def test_a_line_of_other_blanks_is_not_a_blank_line():
    with pytest.raises(DocumentParseError) as err:
        parse_information_set("B: p\n \t\r\n \xa0\t\n")
    assert [(e.line, e.column) for e in err.value.errors] == [(3, 2)]


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x85", "\u2028"])
def test_a_document_breaks_lines_only_where_a_file_read_does(char):
    # str.splitlines() would also break here, and read "B: p<char>q" as two
    # beliefs; the tokenizer refuses the character inside a formula
    with pytest.raises(DocumentParseError) as err:
        parse_information_set(f"B: p{char}q")
    assert [(e.line, e.column) for e in err.value.errors] == [(1, 5)]
    assert "unexpected character" in str(err.value)
    with pytest.raises(DocumentParseError) as err:
        parse_information_set(f"B: p\r\nD: q # a comment{char}B: r\rB: s{char}")
    assert [(e.line, e.column) for e in err.value.errors] == [(3, 5)]


# one-line texts of the tokenizer's characters, its blanks and near-misses,
# blanks it refuses among them
_ONE_LINE = st.text(alphabet="pqr!&|-<>() \t\r\xa0\u2003%#BD:e", max_size=16)


@given(st.sampled_from(["B: ", "  D :  ", "D:", "B:\t", " B :"]), _ONE_LINE)
def test_a_prefix_moves_an_error_by_its_length_only(prefix, text):
    try:
        parse_formula(text)
    except ParseError as err:
        want = err
    else:
        parse_sentence(prefix + text)
        return
    with pytest.raises(ParseError) as got:
        parse_sentence(prefix + text)
    message = str(got.value).rsplit(" at line", 1)[0]
    assert message == str(want).rsplit(" at line", 1)[0]
    assert got.value.expected == want.expected
    assert got.value.line == want.line == 1
    assert got.value.column == want.column + len(prefix)


def test_after_an_operand_any_connective_or_the_end_is_expected():
    with pytest.raises(ParseError) as err:
        parse_formula("p q")
    assert err.value.expected == _CONNECTIVE_LABELS | {"end of input"}
    assert str(err.value).startswith(
        "expected '&' or '->' or '<->' or '|' or end of input, found 'q'"
    )


def test_inside_parentheses_any_connective_or_the_close_is_expected():
    with pytest.raises(ParseError) as err:
        parse_formula("(p q")
    assert err.value.expected == _CONNECTIVE_LABELS | {"')'"}


@pytest.mark.parametrize("text", ["p &", ""])
def test_a_missing_operand_expects_an_operand(text):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.expected == _OPERAND_LABELS
