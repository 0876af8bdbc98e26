"""Parser, renderer, and document format."""

from __future__ import annotations

import pytest
from hypothesis import given

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


def test_atoms_of_collects_every_atom():
    f = parse_formula("alpha -> beta & alpha | !gamma")
    assert atoms_of(f) == frozenset({"alpha", "beta", "gamma"})
    assert atoms_of(Top()) == frozenset()
