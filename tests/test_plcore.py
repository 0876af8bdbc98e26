"""Bitmask truth tables, checked against the naive recursive evaluator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdlogic import (
    LOGICS,
    MAX_ATOMS,
    RULE_SETS,
    And,
    Atom,
    AtomLimitError,
    AtomUniverse,
    Belief,
    Bottom,
    Disbelief,
    Iff,
    Implies,
    InformationSet,
    Not,
    Or,
    Top,
    brute_force_consequences,
    build_universe,
    close,
    conjunction_mask,
    consequences,
    formula_for_class,
    is_contradiction,
    is_tautology,
    models_of,
    parse_formula,
    parse_information_set,
    pl_entails,
    relevant_atoms,
    semantic_class,
)
from bdlogic import metatheory, plcore

from conftest import evaluate, formulas, valuation_for_world

p, q = Atom("p"), Atom("q")


class TestAtomUniverse:
    def test_atoms_are_sorted_and_deduplicated(self):
        u = AtomUniverse(["q", "p", "q"])
        assert u.atoms == ("p", "q")
        assert u.world_count == 4
        assert u.full_mask == 0b1111

    def test_atom_masks_follow_bit_layout(self, u2):
        # world index encodes the valuation: bit i of the index is atom i
        assert u2.atom_mask("p") == 0b1010
        assert u2.atom_mask("q") == 0b1100

    def test_single_atom(self, u1):
        assert u1.world_count == 2
        assert u1.atom_mask("p") == 0b10

    def test_unknown_atom_raises(self, u1):
        with pytest.raises(KeyError):
            u1.atom_mask("z")

    def test_atom_limit(self):
        names = [f"a{i:02d}" for i in range(MAX_ATOMS + 1)]
        with pytest.raises(AtomLimitError):
            AtomUniverse(names)

    def test_at_the_limit_is_fine(self):
        u = AtomUniverse([f"a{i:02d}" for i in range(MAX_ATOMS)])
        assert u.world_count == 2**MAX_ATOMS

    @pytest.mark.parametrize("n", range(MAX_ATOMS + 1))
    def test_atom_masks_match_the_valuations(self, n):
        # independent of how the masks are built: bit v is set iff
        # valuation v makes the atom true
        u = AtomUniverse([f"a{i:02d}" for i in range(n)])
        valuations = [u.valuation(v) for v in range(u.world_count)]
        for name in u.atoms:
            bits = "".join("1" if val[name] else "0" for val in reversed(valuations))
            assert u.atom_mask(name) == int(bits, 2)


class TestModelsOf:
    @given(f=formulas())
    def test_agrees_with_recursive_evaluation(self, u2, f):
        mask = models_of(f, u2)
        for world in range(u2.world_count):
            expected = evaluate(f, valuation_for_world(world, u2))
            assert bool(mask >> world & 1) == expected

    def test_hand_cases(self, u2):
        assert models_of(Top(), u2) == 0b1111
        assert models_of(Bottom(), u2) == 0
        assert models_of(And(p, q), u2) == 0b1000
        assert models_of(Or(p, q), u2) == 0b1110
        assert models_of(Implies(p, q), u2) == 0b1101
        assert models_of(Iff(p, q), u2) == 0b1001
        assert models_of(Not(p), u2) == 0b0101

    def test_formula_with_atom_outside_universe_raises(self, u1):
        with pytest.raises(KeyError):
            models_of(q, u1)

    @pytest.mark.parametrize("thing", [Belief(p), "p & p", None])
    def test_only_formulas_have_models(self, u1, thing):
        with pytest.raises(TypeError, match="not a formula"):
            models_of(thing, u1)

    @pytest.mark.parametrize("mask", [-1, 0b10000])
    def test_class_outside_the_universe_has_no_representative(self, u2, mask):
        with pytest.raises(ValueError, match="outside universe of 2 atoms"):
            formula_for_class(mask, u2)


class TestEntailment:
    def test_basics(self):
        assert pl_entails([p], Or(p, q))
        assert pl_entails([And(p, q)], p)
        assert pl_entails([p, Implies(p, q)], q)
        assert not pl_entails([p], q)
        assert not pl_entails([Or(p, q)], p)

    def test_empty_premises_mean_validity(self):
        assert pl_entails([], Or(p, Not(p)))
        assert not pl_entails([], p)

    def test_inconsistent_premises_entail_anything(self):
        assert pl_entails([p, Not(p)], q)
        assert pl_entails([Bottom()], Bottom())

    def test_explicit_universe_optional(self, u2):
        assert pl_entails([p], Or(p, q), u2)
        assert pl_entails([p], Or(p, q)) == pl_entails([p], Or(p, q), u2)

    @given(f=formulas(), g=formulas())
    def test_monotone_in_premises(self, u2, f, g):
        if pl_entails([f], g, u2):
            assert pl_entails([f, p], g, u2)


class TestClassification:
    @given(f=formulas())
    def test_tautology_and_contradiction_match_masks(self, u2, f):
        mask = models_of(f, u2)
        assert is_tautology(f) == (mask == u2.full_mask)
        assert is_contradiction(f) == (mask == 0)

    @given(formulas(), formulas())
    def test_semantic_class_is_equivalence(self, f, g):
        same = semantic_class(f, relevant_atoms([f, g])) == semantic_class(
            g, relevant_atoms([f, g])
        )
        assert same == is_tautology(Iff(f, g))


class TestFormulaForClass:
    def test_every_class_round_trips(self, u2):
        for mask in range(u2.full_mask + 1):
            rep = formula_for_class(mask, u2)
            assert models_of(rep, u2) == mask

    def test_named_classes_get_readable_representatives(self, u2):
        assert formula_for_class(0, u2) == Bottom()
        assert formula_for_class(u2.full_mask, u2) == Top()
        assert formula_for_class(models_of(p, u2), u2) == p
        assert formula_for_class(models_of(Not(q), u2), u2) == Not(q)

    def test_single_atom_universe(self, u1):
        for mask in range(4):
            assert models_of(formula_for_class(mask, u1), u1) == mask


class TestConjunctionMask:
    def test_empty_conjunction_is_everything(self, u2):
        assert conjunction_mask([], u2) == u2.full_mask

    def test_intersects(self, u2):
        assert conjunction_mask([p, q], u2) == 0b1000
        assert conjunction_mask([p, Not(p)], u2) == 0

    @given(fs=st.lists(formulas(), max_size=4))
    def test_matches_models_of_the_conjunction(self, u2, fs):
        expected = u2.full_mask
        for f in fs:
            expected &= models_of(f, u2)
        assert conjunction_mask(fs, u2) == expected


def test_relevant_atoms_builds_sorted_universe():
    fs = [parse_formula("q & z"), parse_formula("a -> q")]
    assert relevant_atoms(fs).atoms == ("a", "q", "z")
    assert relevant_atoms([]).atoms == ()


class TestClassSentences:
    """Every class sentence of a small universe is built once per atom tuple."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_producer_hands_out_the_same_objects(self, n):
        cu = build_universe(n)
        u = AtomUniverse(cu.universe.atoms)  # equal, but not the same object
        table = cu.sentences
        assert build_universe(n).sentences is table
        classes = range(u.full_mask + 1)
        for c in classes:
            rep = formula_for_class(c, u)
            assert table[c] == Belief(rep) and table[len(classes) + c] == Disbelief(rep)
        # B: false and D: true entail every sentence of the universe in wbd
        gamma = parse_information_set("B: false\nD: true")
        for produced in (
            consequences("wbd", gamma, u),
            brute_force_consequences("wbd", gamma, u),
            close(RULE_SETS["wbd"], "derivability", gamma, cu),
        ):
            assert {id(s) for s in produced} == {id(s) for s in table}

    @pytest.mark.parametrize("logic", LOGICS)
    def test_a_slice_holds_the_table_objects(self, u2, logic):
        table = build_universe(2).sentences
        gamma = parse_information_set("B: p | q\nD: p & !q")
        produced = [consequences(logic, gamma, u2)]
        if logic != "bn":
            produced.append(brute_force_consequences(logic, gamma, u2))
        for sentences in produced:
            assert sentences and all(table[table.index(s)] is s for s in sentences)


class TestClassesOf:
    def test_each_universe_gets_its_own_masks_and_the_set_is_unchanged(self, monkeypatch):
        gamma = parse_information_set("B: p\nD: !p")
        before = (repr(gamma), hash(gamma), parse_information_set("B: p\nD: !p") == gamma)
        u1, u2 = AtomUniverse(["p"]), AtomUniverse(["p", "q"])
        assert plcore._classes_of(gamma, u1) == 1 << 0b10 | 1 << 4 + 0b01
        assert plcore._classes_of(gamma, u2) == 1 << 0b1010 | 1 << 16 + 0b0101
        calls = []
        monkeypatch.setattr(plcore, "models_of", lambda f, u: calls.append(f))
        # read again under equal universes: kept on the set, nothing evaluated
        assert plcore._classes_of(gamma, AtomUniverse(["p"])) == 1 << 0b10 | 1 << 4 + 0b01
        assert plcore._classes_of(gamma, AtomUniverse(["q", "p"])) == 1 << 0b1010 | 1 << 16 + 0b0101
        assert calls == []
        assert (repr(gamma), hash(gamma), parse_information_set("B: p\nD: !p") == gamma) == before

    def test_the_bits_are_the_class_sentence_layout(self, cu1, cu2):
        # bit i is _class_sentences(atoms)[i] going in and coming out, and
        # _halves splits at bit 2^(2^n): beliefs below, disbeliefs above
        rng = random.Random(7)
        pool = range(len(cu2.sentences))
        samples = [sum(1 << i for i in rng.sample(pool, rng.randint(0, 8))) for _ in range(60)]
        for cu, sets in ((cu1, range(256)), (cu2, samples)):
            u, split = cu.universe, 1 << cu.universe.world_count
            for bits in sets:
                gamma = metatheory._set_of(cu, bits)
                fresh = InformationSet(gamma.sentences)  # its own empty memo
                assert plcore._classes_of(fresh, u) == bits
                assert plcore._sentences_of(bits, u) == gamma.sentences
                assert plcore._halves(bits, u) == (bits % (1 << split), bits >> split)

    def test_non_representative_bodies_map_to_their_representatives(self, cu2):
        u = cu2.universe
        gamma = parse_information_set("B: p & p\nD: q | q")
        want = parse_information_set("B: p\nD: q")
        bits = plcore._classes_of(gamma, u)
        assert bits == 1 << u.atom_mask("p") | 1 << 16 + u.atom_mask("q")
        assert bits == plcore._classes_of(want, u)
        assert plcore._sentences_of(bits, u) == want.sentences
