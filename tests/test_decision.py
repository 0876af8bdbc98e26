"""Decision procedures: hand cases, oracle agreement, consistency reports."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from bdlogic import (
    CONSEQUENCE_UNIVERSE_LIMIT,
    LOGICS,
    And,
    Atom,
    AtomUniverse,
    Belief,
    Bottom,
    Disbelief,
    InformationSet,
    Not,
    Top,
    brute_force_consequences,
    brute_force_entails,
    conjunction_mask,
    consequences,
    decide,
    decide_bd,
    decide_bn,
    decide_gbd,
    decide_wbd,
    inconsistency_report,
    models_of,
    parse_information_set,
    parse_sentence,
)
from bdlogic import decision
from bdlogic.cli import main

from conftest import information_sets, sentences

p, q = Atom("p"), Atom("q")
MODEL_LOGICS = ("wbd", "gbd", "bd")

MURDER = parse_information_set("B: s\nB: k -> m\nD: s & m")
AGNOSTIC = parse_information_set("D: p\nD: !p")
TWO_DISBELIEFS = parse_information_set("D: p\nD: q")


class TestHandVerdicts:
    def test_beliefs_close_under_classical_consequence_everywhere(self):
        entailed = parse_sentence("B: s | k")
        open_question = parse_sentence("B: m")
        for fn in (decide_wbd, decide_gbd, decide_bd, decide_bn):
            assert fn(MURDER, entailed).entailed
            assert not fn(MURDER, open_question).entailed

    def test_murder_suspicion_needs_belief_disbelief_coupling(self):
        alpha = parse_sentence("D: k")
        assert decide_bd(MURDER, alpha).entailed
        assert not decide_wbd(MURDER, alpha).entailed
        assert not decide_gbd(MURDER, alpha).entailed

    def test_disbelief_disjunction_needs_a_single_source(self):
        alpha = parse_sentence("D: p | q")
        assert decide_gbd(TWO_DISBELIEFS, alpha).entailed
        assert not decide_wbd(TWO_DISBELIEFS, alpha).entailed
        assert not decide_bd(TWO_DISBELIEFS, alpha).entailed

    def test_weakening_a_disbelief_holds_everywhere(self):
        gamma = parse_information_set("D: p | q")
        alpha = parse_sentence("D: p")
        for fn in (decide_wbd, decide_gbd, decide_bd):
            assert fn(gamma, alpha).entailed

    def test_unsatisfiable_formulas_are_always_disbelieved(self):
        alpha = parse_sentence("D: p & !p")
        for fn in (decide_wbd, decide_gbd, decide_bd, decide_bn):
            assert fn(InformationSet(), alpha).entailed

    def test_bn_collapses_disbelief_into_negative_belief(self):
        gamma = parse_information_set("B: !p")
        assert decide_bn(gamma, parse_sentence("D: p")).entailed
        assert decide_bn(
            parse_information_set("D: p"), parse_sentence("B: !p")
        ).entailed

    def test_dispatch(self):
        assert decide("bd", MURDER, parse_sentence("D: k")).entailed
        with pytest.raises(ValueError):
            decide("kd45", MURDER, parse_sentence("D: k"))


class TestRationales:
    def test_belief_rule(self):
        v = decide_wbd(MURDER, parse_sentence("B: s"))
        assert v.rationale.rule == "B"

    def test_contradiction_rule(self):
        v = decide_wbd(InformationSet(), parse_sentence("D: false"))
        assert v.rationale.rule == "DBot"
        # in gbd the pooled rule already covers the unsatisfiable case
        assert decide_gbd(InformationSet(), parse_sentence("D: false")).rationale.rule == "GD"

    def test_bd_coupled_rule_names_its_witness(self):
        v = decide_bd(MURDER, parse_sentence("D: k"))
        assert v.rationale.rule == "D"
        assert v.rationale.witness_disbelief == parse_information_set(
            "D: s & m"
        ).disbelief_bodies[0]

    @pytest.mark.parametrize("decider", [decide_wbd, decide_bd])
    def test_witness_is_the_lowest_mask_then_the_first_rendered(self, decider):
        # "p" renders first but its mask is the higher int; "p & q" and
        # "q & p" tie on the lowest covering mask, so rendering decides
        gamma = parse_information_set("D: q & p\nD: p\nD: p & q\nD: p & q & !r")
        v = decider(gamma, parse_sentence("D: p & q & r"))
        assert v.rationale.witness_disbelief == And(p, q)

    def test_wbd_disbelief_weakening_rule(self):
        v = decide_wbd(parse_information_set("D: p | q"), parse_sentence("D: p"))
        assert v.rationale.rule == "WD"

    def test_gbd_pooled_rule(self):
        v = decide_gbd(TWO_DISBELIEFS, parse_sentence("D: p | q"))
        assert v.rationale.rule == "GD"

    def test_negative_verdicts_carry_no_rationale(self):
        v = decide_wbd(MURDER, parse_sentence("D: k"))
        assert not v.entailed
        assert v.rationale is None
        assert "not entailed" in v.render()


class TestOracleAgreement:
    @pytest.mark.parametrize("logic", MODEL_LOGICS)
    @settings(max_examples=40)
    @given(gamma=information_sets(max_size=3, max_leaves=4), alpha=sentences(max_leaves=4))
    def test_decide_matches_enumeration(self, logic, gamma, alpha, u2):
        assert (
            decide(logic, gamma, alpha).entailed
            == brute_force_entails(logic, gamma, alpha, u2).entailed
        )

    @settings(max_examples=30)
    @given(gamma=information_sets(atom_names=("p",), max_size=3, max_leaves=4), alpha=sentences(atom_names=("p",), max_leaves=4))
    def test_spare_atoms_do_not_change_verdicts(self, gamma, alpha, u2):
        # the query mentions only p; checking it over {p, q} must agree
        u1 = AtomUniverse(("p",))
        for logic in MODEL_LOGICS:
            assert (
                brute_force_entails(logic, gamma, alpha, u1).entailed
                == brute_force_entails(logic, gamma, alpha, u2).entailed
            )

    def test_universe_extension_preserves_consequences(self, u2):
        gamma = parse_information_set("B: p")
        u1 = AtomUniverse(("p",))
        small = consequences("bd", gamma, u1)
        large = consequences("bd", gamma, u2)
        # everything derived over the small universe stays derived
        for s in small:
            assert decide("bd", gamma, s).entailed
        for s in large:
            assert decide("bd", gamma, s).entailed


class TestConsequences:
    @pytest.mark.parametrize("logic", MODEL_LOGICS)
    @settings(max_examples=20)
    @given(gamma=information_sets(max_size=3, max_leaves=4))
    def test_matches_the_oracle_slice(self, logic, gamma, u2):
        assert consequences(logic, gamma, u2) == brute_force_consequences(
            logic, gamma, u2
        )

    def test_gamma_members_appear_up_to_equivalence(self, u2):
        gamma = parse_information_set("B: p & p\nD: q | q")
        got = consequences("wbd", gamma, u2)
        assert Belief(p) in got
        assert Disbelief(q) in got

    # consequences tests each class mask against gamma compiled once, while
    # decide compiles gamma per query: the two routes must agree everywhere
    @staticmethod
    def _decided(logic, gamma, cu):
        return frozenset(
            s for s in cu.sentences if decide(logic, gamma, s, cu.universe).entailed
        )

    @pytest.mark.parametrize("logic", LOGICS)
    def test_agrees_with_decide_on_every_one_atom_set(self, logic, cu1):
        pool = cu1.sentences
        for bits in range(1 << len(pool)):
            gamma = InformationSet(
                frozenset(s for k, s in enumerate(pool) if bits >> k & 1)
            )
            assert consequences(logic, gamma, cu1.universe) == self._decided(
                logic, gamma, cu1
            )

    @pytest.mark.parametrize("logic", LOGICS)
    @settings(max_examples=30)
    @given(gamma=information_sets(max_size=4, max_leaves=4))
    def test_agrees_with_decide_on_two_atom_sets(self, logic, gamma, cu2):
        assert consequences(logic, gamma, cu2.universe) == self._decided(
            logic, gamma, cu2
        )

    def test_universe_guard(self):
        big = AtomUniverse(tuple("abc"))
        assert len(big.atoms) > CONSEQUENCE_UNIVERSE_LIMIT
        with pytest.raises(ValueError):
            consequences("bd", InformationSet(), big)


class TestInconsistencyReport:
    def test_belief_contradiction(self):
        gamma = parse_information_set("B: p\nB: !p")
        for logic in ("wbd", "gbd", "bd", "bn"):
            rep = inconsistency_report(logic, gamma)
            assert rep.b_inconsistent
            assert rep.combined_inconsistent
            assert not rep.fully_consistent()

    def test_opposite_disbeliefs_split_the_logics(self):
        gbd = inconsistency_report("gbd", AGNOSTIC)
        assert gbd.d_inconsistent and gbd.combined_inconsistent
        for logic in ("wbd", "bd"):
            rep = inconsistency_report(logic, AGNOSTIC)
            assert rep.fully_consistent(), logic

    def test_literal_projection_misses_coupled_inconsistency(self):
        gamma = parse_information_set("B: p\nD: p")
        rep = inconsistency_report("bd", gamma)
        assert rep.combined_inconsistent
        assert rep.d_inconsistent
        assert not rep.d_inconsistent_literal

    def test_witness_is_a_disbelieved_formula_the_beliefs_prove(self):
        gamma = parse_information_set("B: p & q\nD: q")
        rep = inconsistency_report("wbd", gamma)
        assert rep.combined_inconsistent
        assert rep.witness_formula == q

    def test_clean_set(self):
        rep = inconsistency_report("bd", MURDER)
        assert rep.fully_consistent()
        assert rep.witness_formula is None

    @settings(max_examples=40)
    @given(gamma=information_sets(max_size=3, max_leaves=4))
    def test_flags_agree_with_first_principles(self, gamma, u2):
        bel = conjunction_mask(gamma.belief_bodies, u2)
        clash = bel == 0 or any(
            bel & ~models_of(psi, u2) == 0 for psi in gamma.disbelief_bodies
        )
        projection = InformationSet(frozenset(gamma.disbeliefs))
        for logic in LOGICS:
            rep = inconsistency_report(logic, gamma)
            # combined inconsistency == beliefs prove something disbelieved
            # (gbd and bn additionally pool the rejected formulas into one source)
            expected = clash
            if logic in ("gbd", "bn"):
                expected = (
                    expected
                    or bel & conjunction_mask(gamma.dual_bodies, u2) == 0
                )
            assert rep.combined_inconsistent == expected
            # belief inconsistency == the falsum is believed; in bn the
            # negated disbeliefs alone can also make the falsum believed
            if logic == "bn":
                assert rep.b_inconsistent == (bel == 0)
            else:
                assert rep.b_inconsistent == decide(
                    logic, gamma, Belief(Bottom())
                ).entailed
            # the full-set disbelief flag is exactly the trivialization query
            assert rep.d_inconsistent == decide(
                logic, gamma, Disbelief(Top())
            ).entailed
            # ... and the literal flag is that query on the disbeliefs alone
            assert rep.d_inconsistent_literal == decide(
                logic, projection, Disbelief(Top())
            ).entailed
        # in bd, trivialization and combined inconsistency coincide
        assert inconsistency_report("bd", gamma).combined_inconsistent == decide(
            "bd", gamma, Disbelief(Top())
        ).entailed


class TestCompileOnce:
    """The logics of one request share one compiled gamma, keyed by identity."""

    @pytest.fixture
    def built(self, monkeypatch):
        records = []

        class Counting(decision._Compiled):
            def __init__(self, gamma, universe):
                records.append(gamma)
                super().__init__(gamma, universe)

        monkeypatch.setattr(decision, "_Compiled", Counting)
        monkeypatch.setattr(decision, "_last_compiled", None)
        return records

    def test_check_all_compiles_gamma_once(self, built, tmp_path):
        doc = tmp_path / "murder.bdl"
        doc.write_text("B: s\nB: k -> m\nD: s & m\n")
        main(["check", str(doc), "--query", "D: k", "--logic", "all"])
        assert built == [MURDER]

    def test_consistency_all_compiles_gamma_once(self, built, tmp_path):
        doc = tmp_path / "murder.bdl"
        doc.write_text("B: s\nB: k -> m\nD: s & m\n")
        main(["consistency", str(doc), "--logic", "all"])
        projection = InformationSet(frozenset(MURDER.disbeliefs))
        assert built == [MURDER] + [projection] * len(LOGICS)

    def test_equal_documents_parsed_apart_compile_apart(self, built):
        text = "B: k -> m\nD: m\nD: k & !m"
        first, second = parse_information_set(text), parse_information_set(text)
        assert first == second and first is not second
        query = parse_sentence("D: k")
        u = AtomUniverse(("k", "m"))
        for gamma in (first, second, first):
            decide("bd", gamma, query, u)
        assert len(built) == 3
        decide("bd", first, query, u)
        decide("bd", first, query, AtomUniverse(("k", "m")))
        assert len(built) == 4
