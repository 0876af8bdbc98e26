"""Decision procedures: hand cases, oracle agreement, consistency reports."""

from __future__ import annotations

import hashlib
import operator
import random

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
    Formula,
    Iff,
    Implies,
    InformationSet,
    Not,
    Or,
    RULE_SETS,
    Top,
    brute_force_consequences,
    brute_force_entails,
    close,
    conjunction_mask,
    consequences,
    construct_countermodel,
    count_models,
    decide,
    decide_bd,
    decide_bn,
    decide_gbd,
    decide_wbd,
    enumerate_models,
    inconsistency_report,
    models_of,
    parse_information_set,
    parse_sentence,
    render_formula,
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


def _same_class(f: Formula, atoms: list[Atom], rng: random.Random) -> Formula:
    """Another text for ``f``'s class: its operands swapped, doubled,
    negated twice, padded with a unit, or another falsum or tautology."""
    a = rng.choice(atoms)
    if isinstance(f, Bottom):
        return rng.choice([Bottom(), And(a, Not(a)), And(Not(a), a)])
    if isinstance(f, Top):
        return rng.choice([Top(), Or(a, Not(a)), Implies(a, a)])
    variants = [Not(Not(f)), And(f, f), Or(f, Bottom()), And(Top(), f)]
    if isinstance(f, (And, Or, Iff)):
        variants += [type(f)(f.right, f.left)] * 3
    return rng.choice(variants)


def _small_formula(atoms: list[Atom], rng: random.Random, depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms + [Not(rng.choice(atoms)), Top(), Bottom()])
    op = rng.choice([And, And, Or, Or, Implies, Iff])
    return op(_small_formula(atoms, rng, depth - 1), _small_formula(atoms, rng, depth - 1))


def _naming_corpus():
    """Sets at 2-4 atoms whose disbeliefs repeat a class under other texts,
    with every rationale that names a witness and every combined witness.
    Atom names after "false" and "true" make a unit render last."""
    rng = random.Random(29)
    for names in ("pq", "abc", "pqrs", "xyz", "tuvw") * 24:
        atoms = [Atom(n) for n in names]
        beliefs = [_small_formula(atoms, rng) for _ in range(rng.randint(0, 2))]
        disbeliefs = []
        for _ in range(rng.randint(1, 2)):
            base = rng.choice([_small_formula(atoms, rng), Bottom(), Top()])
            disbeliefs += [base] + [_same_class(base, atoms, rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            beliefs.append(rng.choice(disbeliefs + [Top(), Bottom()]))
        gamma = InformationSet(
            frozenset(map(Belief, beliefs)) | frozenset(map(Disbelief, disbeliefs))
        )
        yield repr(str(gamma))
        bodies = [Top(), Bottom()] + [f(x) for x in atoms for f in (lambda x: x, Not)]
        bodies += [op(x, y) for x, y in zip(atoms, atoms[1:]) for op in (And, Or)]
        for logic in LOGICS:
            for alpha in [k(body) for body in bodies for k in (Belief, Disbelief)]:
                why = decide(logic, gamma, alpha).rationale
                yield f"{logic} {alpha}: {why and why.render()}"
            witness = inconsistency_report(logic, gamma).witness_formula
            yield f"{logic} witness: {witness and render_formula(witness)}"


def test_naming_corpus_is_unchanged():
    # the witness bodies named where a verdict prints one, on sets whose
    # disbelieved classes each have several texts
    digest = hashlib.sha256("\n".join(_naming_corpus()).encode("utf-8")).hexdigest()
    assert digest == "4a7a0ebfc736bf7ea1d9bb4c0be1f7e869c77f5e4731b3b42f1195aefda8e9ed"


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

    @pytest.mark.parametrize(
        "logic, text, witness",
        [
            # two disbelieved texts of one class: the first rendered
            ("wbd", "B: p & q\nD: q & p\nD: p & q", "p & q"),
            # the falsum and a disbelieved contradiction tie on class 0
            ("bd", "B: false\nD: a & !a", "a & !a"),
            ("bd", "B: false\nD: p & !p", "false"),
            # gbd's merged beliefs tie with a disbelieved text of their class
            ("gbd", "B: p\nB: q\nD: q & p", "p & q"),
            # bn's pooled falsum is the lowest class; the contradiction is
            # not believed
            ("bn", "D: a & !a\nD: true", "false"),
        ],
    )
    def test_a_tie_on_the_lowest_class_names_the_first_rendered(
        self, logic, text, witness
    ):
        rep = inconsistency_report(logic, parse_information_set(text))
        assert rep.combined_inconsistent
        assert render_formula(rep.witness_formula) == witness

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
    """A set is compiled once per atom tuple, and the record is kept on it."""

    @pytest.fixture
    def built(self, monkeypatch):
        records = []
        real = decision._compile

        def counting(gamma, universe):
            records.append(gamma)
            return real(gamma, universe)

        monkeypatch.setattr(decision, "_compile", counting)
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
        # the disbelief projections read gamma's record
        assert built == [MURDER]

    def test_equal_documents_parsed_apart_compile_apart(self, built):
        text = "B: k -> m\nD: m\nD: k & !m"
        first, second = parse_information_set(text), parse_information_set(text)
        assert first == second and first is not second
        query = parse_sentence("D: k")
        u = AtomUniverse(("k", "m"))
        for gamma in (first, second, first):
            decide("bd", gamma, query, u)
        assert len(built) == 2
        decide("bd", first, query, u)
        decide("bd", first, query, AtomUniverse(("k", "m")))
        assert len(built) == 2

    def test_reports_without_a_universe_compile_gamma_once(self, built):
        # each call builds its own universe from gamma's atoms
        gamma = parse_information_set("B: s\nB: k -> m\nD: s & m\n")
        for logic in LOGICS:
            inconsistency_report(logic, gamma)
        assert built == [gamma]

    def test_equal_universes_share_the_record(self, built):
        # a fresh set: MURDER may hold records from other tests
        gamma, query = parse_information_set(str(MURDER)), parse_sentence("D: k")
        first, second = AtomUniverse(("k", "m", "s")), AtomUniverse(("m", "s", "k"))
        assert first is not second
        assert decide("bd", gamma, query, first) == decide("bd", gamma, query, second)
        assert len(built) == 1
        # a universe with other atoms is another record
        decide("bd", gamma, query, AtomUniverse(("k", "m", "s", "z")))
        assert len(built) == 2

    def test_a_set_keeps_records_for_its_last_four_atom_tuples(self):
        text = "B: p\nD: !p"
        g = parse_information_set(text)
        forms = ("B: p | {x}", "D: !p & {x}", "B: {x}", "D: {x}")
        asked = [
            (LOGICS[i % 4], parse_sentence(forms[i // 4 % 4].format(x=f"x{i}")))
            for i in range(200)
        ]
        first = [decide(logic, g, alpha) for logic, alpha in asked]
        assert len(g._records) <= 4
        # the same verdicts from a set that never held a record, and again
        # from g once its early records are gone
        assert first == [
            decide(logic, parse_information_set(text), alpha) for logic, alpha in asked
        ]
        assert first == [decide(logic, g, alpha) for logic, alpha in asked]
        assert len(g._records) <= 4

    def test_the_record_is_not_part_of_the_set(self):
        text = "B: k -> m\nD: m\nD: k & !m"
        compiled, fresh = parse_information_set(text), parse_information_set(text)
        before = (hash(compiled), repr(compiled))
        decide("bd", compiled, parse_sentence("D: k"))
        inconsistency_report("wbd", compiled)
        assert compiled._records and not fresh._records
        assert compiled == fresh and hash(compiled) == hash(fresh)
        assert (hash(compiled), repr(compiled)) == before == (hash(fresh), repr(fresh))


class TestDisbeliefProjection:
    """``inconsistency_report`` reads the projection off gamma's record."""

    def test_consistency_all_evaluates_each_body_once(self, monkeypatch, tmp_path):
        evaluated = []

        def counted(real, many):
            def wrapper(bodies, universe):
                bodies = tuple(bodies) if many else (bodies,)
                evaluated.extend(bodies)
                return real(bodies if many else bodies[0], universe)

            return wrapper

        monkeypatch.setattr(decision, "models_of", counted(models_of, False))
        monkeypatch.setattr(
            decision, "conjunction_mask", counted(conjunction_mask, True)
        )
        doc = tmp_path / "two-three.bdl"
        doc.write_text("B: p\nB: q -> r\nD: p & r\nD: q\nD: !r\n")
        main(["consistency", str(doc), "--logic", "all"])
        # gamma's beliefs (2) and disbeliefs (3), once each: the negated
        # disbeliefs are read off the witnesses, and compiling the projection
        # apart for each logic made it 20
        assert len(evaluated) == 5

    def test_reports_equal_a_projection_compiled_apart(self, cu1, cu2):
        # the literal flag is the only field the projection decides
        sentences = cu1.sentences
        gammas = [
            (cu1.universe, InformationSet(
                frozenset(s for i, s in enumerate(sentences) if k >> i & 1)
            ))
            for k in range(256)
        ]
        gammas += [
            (cu2.universe, parse_information_set(text))
            for text in ("B: p\nD: p", "D: p\nD: !p", "B: p | q\nD: p & q\nD: q",
                         "B: q\nD: q\nD: !p", "D: p & !p", "B: p\nB: !q\nD: p & q")
        ]
        for u, gamma in gammas:
            apart, _ = decision._compile(InformationSet(frozenset(gamma.disbeliefs)), u)
            for logic in LOGICS:
                rep = inconsistency_report(logic, gamma, u)
                literal = decision._fired(logic, apart, False, u.full_mask) is not None
                assert rep.d_inconsistent_literal == literal, (logic, gamma)


_flags = operator.attrgetter(
    "b_inconsistent", "d_inconsistent", "d_inconsistent_literal", "combined_inconsistent"
)


class TestClassRecord:
    """A set of class representatives built from its class masks is the
    record compiled from its formulas, and reads as it under every logic."""

    @staticmethod
    def _sets(cu1, cu2):
        """Every 1-atom set, then 240 seeded 2-atom sets of up to 6
        sentences; a set is an int, bit i standing for ``cu.sentences[i]``."""
        for bits in range(1 << len(cu1.sentences)):
            yield cu1, bits
        rng = random.Random(12)
        pool = range(len(cu2.sentences))
        for _ in range(240):
            yield cu2, sum(1 << i for i in rng.sample(pool, rng.randint(0, 6)))

    def test_class_record_equals_the_formula_record(self, cu1, cu2):
        for cu, bits in self._sets(cu1, cu2):
            u = cu.universe
            gamma = InformationSet(
                frozenset(s for i, s in enumerate(cu.sentences) if bits >> i & 1)
            )
            classes = decision._class_record(bits, u)
            # a record is masks only, so equal masks are equal records
            assert classes == decision._compile(gamma, u)[0], str(gamma)
            for logic in LOGICS:
                where = (logic, str(gamma))
                # a class record names no witness; the naming corpus and the
                # tie-break cases pin the names gamma's report prints
                assert _flags(decision._report(logic, classes)) == _flags(
                    inconsistency_report(logic, gamma, u)
                ), where
                for s in cu.sentences:
                    got = decision._fired(
                        logic, classes, isinstance(s, Belief), models_of(s.body, u)
                    )
                    why = decide(logic, gamma, s, u).rationale
                    want = why and (
                        why.rule,
                        why.witness_disbelief and models_of(why.witness_disbelief, u),
                    )
                    assert got == want, (where, s)

    def test_consequence_masks_reads_only_the_classes_of_the_bodies(self, u2):
        # equivalent bodies that are not class representatives give the
        # slice of the representatives
        loose = parse_information_set("B: p & p\nB: q | q\nD: !(p | q)\nD: p & !p")
        tight = parse_information_set("B: p\nB: q\nD: !p & !q\nD: false")
        # a set's record is the class record of its classes
        assert decision._compile(loose, u2)[0] == decision._class_record(
            decision._classes_of(loose, u2), u2
        )
        for logic in LOGICS:
            assert decision.consequence_masks(
                logic, loose, u2
            ) == decision._slice_masks(logic, decision._compile(loose, u2)[0])
            assert decision.consequence_masks(
                logic, loose, u2
            ) == decision.consequence_masks(logic, tight, u2)

    def test_slices_of_class_records_render_nothing(self, cu1, monkeypatch):
        # the metatheory's sweeps read slices and reports off class records
        # in their hot loops, so neither the builder, a rule nor a report may
        # render a formula
        def refuse(formula):
            raise AssertionError(f"rendered {formula!r}")

        monkeypatch.setattr(decision, "render_formula", refuse)
        u = cu1.universe
        for bits in range(1 << len(cu1.sentences)):
            record = decision._class_record(bits, u)
            for logic in LOGICS:
                decision._slice_masks(logic, record)
                assert decision._report(logic, record).witness_formula is None


@pytest.mark.parametrize("logic", LOGICS)
def test_the_slice_and_the_point_test_read_one_shape(logic):
    # the slice closes the shape over every class at once and a query reads
    # it part by part: every set at 0 and 1 atoms, seeded sets at 2 and at
    # 3, past the public two-atom guard (512 sentences each)
    rng = random.Random(23)
    for atoms, count in (("", None), ("p", None), ("pq", 200), ("pqr", 40)):
        u = AtomUniverse(atoms)
        classes = u.full_mask + 1
        pool = range(2 * classes)
        if count is None:
            sets = range(1 << len(pool))
        else:
            sizes = [rng.randint(0, 6) for _ in range(count)]
            sets = [sum(1 << i for i in rng.sample(pool, k)) for k in sizes]
        for bits in sets:
            record = decision._class_record(bits, u)
            got = decision._slice_masks(logic, record)
            for i in pool:
                fired = decision._fired(logic, record, i < classes, i % classes)
                assert got >> i & 1 == (fired is not None), (u, bits, i)


def test_class_readers_leave_a_fresh_set_unsorted(cu2):
    # the oracle, the closure engine and the consequence slice reduce a set
    # to its classes; none of them needs its rendering order
    readers = [
        lambda g: brute_force_consequences("gbd", g, cu2.universe),
        lambda g: count_models("bd", g, cu2.universe),
        lambda g: close(RULE_SETS["bd"], "derivability", g, cu2),
        lambda g: consequences("bn", g, cu2.universe),
    ]
    for read in readers:
        gamma = parse_information_set("B: p | q\nB: !q\nD: q\nD: p & !q")
        read(gamma)
        assert "_ordered" not in vars(gamma)


_U2 = AtomUniverse(["p", "q"])


@pytest.mark.parametrize(
    "entry",
    [
        lambda logic: consequences(logic, TWO_DISBELIEFS, _U2),
        lambda logic: decision.consequence_masks(logic, TWO_DISBELIEFS, _U2),
        lambda logic: brute_force_consequences(logic, TWO_DISBELIEFS, _U2),
        lambda logic: brute_force_entails(logic, TWO_DISBELIEFS, Belief(p), _U2),
        lambda logic: count_models(logic, TWO_DISBELIEFS, _U2),
        lambda logic: list(enumerate_models(logic, TWO_DISBELIEFS, _U2)),
        lambda logic: construct_countermodel(logic, TWO_DISBELIEFS, Belief(q), _U2),
    ],
    ids=[
        "consequences",
        "consequence_masks",
        "brute_force_consequences",
        "brute_force_entails",
        "count_models",
        "enumerate_models",
        "construct_countermodel",
    ],
)
def test_every_entry_point_rejects_an_unknown_logic(entry):
    with pytest.raises(ValueError) as caught:
        decide("xyz", TWO_DISBELIEFS, Belief(p))
    want = str(caught.value)
    assert want.startswith("unknown logic 'xyz'; expected one of")
    with pytest.raises(ValueError) as caught:
        entry("xyz")
    assert str(caught.value) == want
