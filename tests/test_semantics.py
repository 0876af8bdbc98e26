"""Model types, satisfaction, and the brute-force enumeration oracle."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlogic import (
    And,
    Atom,
    AtomUniverse,
    Belief,
    Bottom,
    CountermodelConstructionError,
    Disbelief,
    InformationSet,
    ModelBD,
    ModelGBD,
    ModelWBD,
    Not,
    Or,
    ScaleLimitError,
    Top,
    brute_force_consequences,
    brute_force_entails,
    construct_countermodel,
    count_models,
    decide,
    enumerate_models,
    formula_for_class,
    holds_all,
    model_to_dict,
    models_of,
    parse_information_set,
    parse_sentence,
    render_model,
    satisfies,
)

from bdlogic.plcore import _class_sentences, _classes_of, members
from bdlogic.semantics import _model_space
from conftest import information_sets, sentences

p, q = Atom("p"), Atom("q")
LOGICS = ("wbd", "gbd", "bd")
U1 = AtomUniverse(("p",))
U2 = AtomUniverse(("p", "q"))
U3 = AtomUniverse(("p", "q", "r"))


def class_sentences(universe):
    """One belief and one disbelief per semantic class, classes ascending."""
    out = []
    for mask in range(universe.full_mask + 1):
        rep = formula_for_class(mask, universe)
        out += [Belief(rep), Disbelief(rep)]
    return out


# --------------------------------------------------------------------------
# references for the oracle


def python_models(logic, universe):
    """Every model of ``logic`` over ``universe``, in the oracle's order.

    ``m`` ascending, then the source ``n`` or the family's bitmask over
    world-set indices ascending; a bd candidate is kept only when
    ``ModelBD`` accepts it.
    """
    world_sets = 1 << universe.world_count
    for m in range(world_sets):
        if logic == "gbd":
            for n in range(world_sets):
                yield ModelGBD(m, n, universe)
            continue
        for bits in range(1, 1 << world_sets):
            family = frozenset(i for i in range(world_sets) if bits >> i & 1)
            if logic == "wbd":
                yield ModelWBD(m, family, universe)
                continue
            try:
                model = ModelBD(m, family, universe)
            except ValueError:
                continue
            yield model


class ReferenceGrid:
    """The full (m, source-or-family) grid of one model space, in numpy.

    One cell per candidate model, laid out in the oracle's enumeration
    order (row ``m``, column ``n`` or family bitmask); bd cells whose family
    leaves ``m`` are masked out.  Every query scans the whole grid.
    """

    def __init__(self, logic, universe):
        self.logic = logic
        self.universe = universe
        self.world_sets = world_sets = 1 << universe.world_count
        self.m = np.arange(world_sets, dtype=np.uint32).reshape(-1, 1)
        first = 0 if logic == "gbd" else 1
        inner_end = world_sets if logic == "gbd" else 1 << world_sets
        self.inner = np.arange(first, inner_end, dtype=np.uint32).reshape(1, -1)
        self.valid = np.ones((world_sets, self.inner.shape[1]), dtype=bool)
        if logic == "bd":
            inside = np.array(
                [sum(1 << i for i in range(world_sets) if i & ~m == 0)
                 for m in range(world_sets)],
                dtype=np.uint32,
            ).reshape(-1, 1)
            self.valid = (self.inner & ~inside) == 0

    def sat(self, sentence):
        full = self.universe.full_mask
        mask = models_of(sentence.body, self.universe)
        if isinstance(sentence, Belief):
            cells = (self.m & np.uint32(full & ~mask)) == 0
        elif self.logic == "gbd":
            cells = (self.inner & np.uint32(mask)) == 0
        else:
            neg = full & ~mask
            good = sum(1 << i for i in range(self.world_sets) if i & ~neg == 0)
            cells = (self.inner & np.uint32(good)) != 0
        return np.broadcast_to(cells, self.valid.shape)

    def models(self, gamma):
        grid = self.valid.copy()
        for sentence in gamma:
            grid &= self.sat(sentence)
        return grid

    def decode(self, flat_index):
        m, column = divmod(int(flat_index), self.inner.shape[1])
        inner = int(self.inner[0, column])
        if self.logic == "gbd":
            return ModelGBD(m, inner, self.universe)
        family = frozenset(i for i in range(self.world_sets) if inner >> i & 1)
        cls = ModelWBD if self.logic == "wbd" else ModelBD
        return cls(m, family, self.universe)

    def first_countermodel(self, gamma, alpha):
        flat = (self.models(gamma) & ~self.sat(alpha)).reshape(-1)
        return self.decode(np.argmax(flat)) if flat.any() else None


class TestModelValidation:
    def test_family_must_be_nonempty(self, u1):
        with pytest.raises(ValueError):
            ModelWBD(0, frozenset(), u1)
        with pytest.raises(ValueError):
            ModelBD(0b11, frozenset(), u1)

    def test_bd_family_members_must_sit_inside_m(self, u1):
        with pytest.raises(ValueError):
            ModelBD(0b01, frozenset({0b10}), u1)
        ModelBD(0b11, frozenset({0b10}), u1)  # fine

    def test_masks_must_fit_the_universe(self, u1):
        with pytest.raises(ValueError):
            ModelWBD(0b100, frozenset({0}), u1)
        with pytest.raises(ValueError):
            ModelGBD(0, 0b100, u1)

    def test_empty_family_member_is_legal(self, u1):
        # the ability to disbelieve everything matters for BD consistency
        m = ModelBD(0, frozenset({0}), u1)
        assert satisfies(m, Disbelief(Top()))
        assert satisfies(m, Belief(Bottom()))


class TestSatisfaction:
    def test_belief_is_global_truth_on_m(self, u2):
        m = ModelWBD(models_of(p, u2), frozenset({0b1}), u2)
        assert satisfies(m, Belief(p))
        assert satisfies(m, Belief(Or(p, q)))
        assert not satisfies(m, Belief(q))

    def test_disbelief_needs_one_refuting_source(self, u2):
        family = frozenset({models_of(Not(q), u2)})
        m = ModelWBD(u2.full_mask, family, u2)
        assert satisfies(m, Disbelief(q))
        assert not satisfies(m, Disbelief(p))

    def test_gbd_uses_its_single_source(self, u2):
        m = ModelGBD(u2.full_mask, models_of(Not(q), u2), u2)
        assert satisfies(m, Disbelief(q))
        assert satisfies(m, Disbelief(And(q, Top())))  # class-based, not syntactic
        assert not satisfies(m, Disbelief(p))

    def test_holds_all(self, u2):
        gamma = parse_information_set("B: p\nD: q")
        m = ModelWBD(models_of(p, u2), frozenset({models_of(Not(q), u2)}), u2)
        assert holds_all(m, gamma)
        assert not holds_all(m, gamma.union([Belief(q)]))


class TestEnumeration:
    def test_unconstrained_counts_match_closed_forms(self, u1):
        # one atom: 4 world sets; families are nonempty subsets of them
        assert count_models("gbd", InformationSet(), u1) == 4 * 4
        assert count_models("wbd", InformationSet(), u1) == 4 * (2**4 - 1)
        # bd: for each m, nonempty families over subsets of m
        assert count_models("bd", InformationSet(), u1) == sum(
            2 ** (2 ** bin(m).count("1")) - 1 for m in range(4)
        )

    @pytest.mark.parametrize("logic", LOGICS)
    def test_enumerate_agrees_with_count(self, logic, u1):
        gamma = parse_information_set("B: p\nD: !p")
        listed = list(enumerate_models(logic, gamma, u1))
        assert len(listed) == count_models(logic, gamma, u1)
        assert all(holds_all(m, gamma) for m in listed)

    def test_bn_has_no_models_to_enumerate(self, u1):
        gamma, alpha = parse_information_set("B: p"), parse_sentence("B: p")
        message = "bn has no model semantics to enumerate"
        with pytest.raises(ValueError, match=message):
            brute_force_entails("bn", gamma, alpha, u1)
        with pytest.raises(ValueError, match=message):
            count_models("bn", gamma, u1)
        with pytest.raises(ValueError, match=message):
            list(enumerate_models("bn", gamma, u1))

    def test_scale_guards(self):
        u3 = AtomUniverse(("p", "q", "r"))
        u4 = AtomUniverse(("a", "b", "c", "d"))
        gamma = InformationSet()
        alpha = parse_sentence("B: p")
        with pytest.raises(ScaleLimitError):
            brute_force_entails("wbd", gamma, alpha, u3)
        with pytest.raises(ScaleLimitError):
            brute_force_entails("bd", gamma, alpha, u3)
        with pytest.raises(ScaleLimitError):
            brute_force_entails("gbd", gamma, alpha, u4)
        # gbd is cheap enough for three atoms
        assert brute_force_entails("gbd", gamma, Belief(Top()), u3).entailed


class TestOracleVerdicts:
    def test_disbelief_aggregation_separates_the_logics(self, u2):
        gamma = parse_information_set("D: p\nD: q")
        alpha = parse_sentence("D: p | q")
        assert not brute_force_entails("wbd", gamma, alpha, u2).entailed
        assert brute_force_entails("gbd", gamma, alpha, u2).entailed
        assert not brute_force_entails("bd", gamma, alpha, u2).entailed

    def test_belief_disbelief_coupling_separates_bd(self, u1):
        gamma = parse_information_set("B: !p")
        alpha = parse_sentence("D: p")
        assert not brute_force_entails("wbd", gamma, alpha, u1).entailed
        assert not brute_force_entails("gbd", gamma, alpha, u1).entailed
        assert brute_force_entails("bd", gamma, alpha, u1).entailed

    def test_empty_gamma_entails_only_the_trivial_sentences(self, u1):
        for logic in LOGICS:
            assert brute_force_entails(logic, InformationSet(), Belief(Top()), u1).entailed
            assert brute_force_entails(
                logic, InformationSet(), Disbelief(Bottom()), u1
            ).entailed
            assert not brute_force_entails(logic, InformationSet(), Belief(p), u1).entailed

    def test_countermodel_witness_is_valid(self, u1):
        verdict = brute_force_entails(
            "wbd", parse_information_set("B: p"), parse_sentence("D: !p"), u1
        )
        assert not verdict.entailed
        witness = verdict.witness
        assert holds_all(witness, parse_information_set("B: p"))
        assert not satisfies(witness, parse_sentence("D: !p"))

    def test_first_countermodel_is_deterministic(self, u2):
        gamma = parse_information_set("B: p | q")
        alpha = parse_sentence("B: p")
        first = brute_force_entails("bd", gamma, alpha, u2).witness
        second = brute_force_entails("bd", gamma, alpha, u2).witness
        assert first == second

    @pytest.mark.parametrize("logic", LOGICS)
    @settings(max_examples=15)
    @given(gamma=information_sets(max_size=4, max_leaves=4))
    def test_first_countermodel_is_the_first_violating_cell(self, logic, gamma, u2):
        reference = ReferenceGrid(logic, u2)
        for alpha in class_sentences(u2):
            verdict = brute_force_entails(logic, gamma, alpha, u2)
            assert verdict.witness == reference.first_countermodel(gamma, alpha)
            assert verdict.entailed == (verdict.witness is None)

    @pytest.mark.parametrize("logic", LOGICS)
    @settings(max_examples=25)
    @given(gamma=information_sets(max_size=3, max_leaves=4))
    def test_consequence_slice_matches_per_query_checks(self, logic, gamma, u2):
        slice_ = brute_force_consequences(logic, gamma, u2)
        for mask in range(u2.full_mask + 1):
            rep = formula_for_class(mask, u2)
            for alpha in (Belief(rep), Disbelief(rep)):
                assert (alpha in slice_) == brute_force_entails(
                    logic, gamma, alpha, u2
                ).entailed


class TestOracleAgainstDefinitions:
    @pytest.mark.parametrize("logic", LOGICS)
    def test_every_one_atom_set_matches_plain_enumeration(self, logic, u1):
        sentences = class_sentences(u1)
        models = list(python_models(logic, u1))
        holds = [
            sum(1 << j for j, s in enumerate(sentences) if satisfies(model, s))
            for model in models
        ]
        for chosen in range(1 << len(sentences)):
            gamma = InformationSet(
                frozenset(s for j, s in enumerate(sentences) if chosen >> j & 1)
            )
            kept = [(m, h) for m, h in zip(models, holds) if h & chosen == chosen]
            assert list(enumerate_models(logic, gamma, u1)) == [m for m, _ in kept]
            assert count_models(logic, gamma, u1) == len(kept)
            expected = {
                s for j, s in enumerate(sentences) if all(h >> j & 1 for _, h in kept)
            }
            assert brute_force_consequences(logic, gamma, u1) == expected
            for j, alpha in enumerate(sentences):
                first = next((m for m, h in kept if not h >> j & 1), None)
                assert brute_force_entails(logic, gamma, alpha, u1).witness == first

    def test_bd_lists_families_in_bitmask_order_not_by_union(self, u2):
        # within m = {v0, v1, v2}, the family {{v0, v1}, {v2}} (bitmask 24,
        # union {v0, v1, v2}) comes before {{v0, v2}} (bitmask 32, union
        # {v0, v2}): the order is by bitmask, whatever the members' union
        gamma = parse_information_set("B: !(p & q)")
        reference = ReferenceGrid("bd", u2)
        cells = np.flatnonzero(reference.models(gamma).reshape(-1))
        listed = list(enumerate_models("bd", gamma, u2))
        assert listed == [reference.decode(i) for i in cells]
        assert listed.index(ModelBD(0b111, frozenset({0b011, 0b100}), u2)) < listed.index(
            ModelBD(0b111, frozenset({0b101}), u2)
        )

    @pytest.mark.parametrize(
        ("logic", "universe"),
        [("wbd", U2), ("gbd", U2), ("bd", U2), ("gbd", U3)],
        ids=["wbd-2", "gbd-2", "bd-2", "gbd-3"],
    )
    @settings(max_examples=25)
    @given(data=st.data())
    def test_sampled_sets_match_the_full_grid(self, logic, universe, data):
        gamma = data.draw(information_sets(universe.atoms, max_size=4, max_leaves=4))
        reference = ReferenceGrid(logic, universe)
        grid = reference.models(gamma)
        assert count_models(logic, gamma, universe) == int(grid.sum())
        listed = itertools.islice(enumerate_models(logic, gamma, universe), 20)
        assert list(listed) == [
            reference.decode(i) for i in np.flatnonzero(grid.reshape(-1))[:20]
        ]
        expected = {
            alpha
            for alpha in class_sentences(universe)
            if not (grid & ~reference.sat(alpha)).any()
        }
        assert brute_force_consequences(logic, gamma, universe) == expected


def bits_of(flags, first=0):
    """A boolean vector as one int, bit ``first + k`` being entry k."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little") << first


SPACES = [(logic, u) for u in (U1, U2) for logic in LOGICS] + [("gbd", U3)]
SPACE_IDS = [f"{logic}-{u.n}" for logic, u in SPACES]


def edge_sets(universe):
    every_class = [formula_for_class(c, universe) for c in range(universe.full_mask + 1)]
    return {
        "empty": InformationSet(),
        "D: true": InformationSet(frozenset({Disbelief(Top())})),
        "D: false": InformationSet(frozenset({Disbelief(Bottom())})),
        "B: false": InformationSet(frozenset({Belief(Bottom())})),
        "D: every class": InformationSet(frozenset(map(Disbelief, every_class))),
    }


class TestIntRows:
    """The model space's int rows and columns against the definitions."""

    @pytest.mark.parametrize(("logic", "universe"), SPACES, ids=SPACE_IDS)
    def test_valid_holds_the_inner_values_and_every_row_lies_within_it(
        self, logic, universe
    ):
        space = _model_space(logic, universe.atoms)
        world_sets = 1 << universe.world_count
        if logic == "gbd":
            # the sources 0..S-1
            assert space.valid == (1 << world_sets) - 1
        else:
            # the nonempty families 1..2^S-1
            assert space.valid == (1 << (1 << world_sets)) - 2
        stored = [*space.rows, *space.complements, *space.fits]
        assert len(stored) == 3 * world_sets
        assert all(row & ~space.valid == 0 for row in stored)

    @pytest.mark.parametrize(("logic", "universe"), SPACES, ids=SPACE_IDS)
    def test_each_class_row_is_its_definition(self, logic, universe):
        space = _model_space(logic, universe.atoms)
        reference = ReferenceGrid(logic, universe)
        # bit v of a row is the reference grid's column v - first
        first = 0 if logic == "gbd" else 1
        for c in range(universe.full_mask + 1):
            rep = formula_for_class(c, universe)
            holds = reference.sat(Disbelief(rep))[0]
            assert space.rows[c] == bits_of(holds, first)
            assert space.complements[c] == bits_of(~holds, first)
            assert space.beliefs[c] == bits_of(reference.sat(Belief(rep))[:, 0])
        for m in range(space.world_sets):
            assert space.fits[m] == bits_of(reference.valid[m], first)

    @pytest.mark.parametrize(("logic", "universe"), SPACES, ids=SPACE_IDS)
    def test_edge_sets_match_the_full_grid(self, logic, universe):
        reference = ReferenceGrid(logic, universe)
        queries = class_sentences(universe)
        for name, gamma in edge_sets(universe).items():
            grid = reference.models(gamma)
            assert count_models(logic, gamma, universe) == int(grid.sum()), name
            listed = itertools.islice(enumerate_models(logic, gamma, universe), 40)
            assert list(listed) == [
                reference.decode(i) for i in np.flatnonzero(grid.reshape(-1))[:40]
            ], name
            entailed = set()
            for alpha in queries:
                flat = (grid & ~reference.sat(alpha)).reshape(-1)
                first = reference.decode(np.argmax(flat)) if flat.any() else None
                assert brute_force_entails(logic, gamma, alpha, universe).witness == first
                if first is None:
                    entailed.add(alpha)
            assert brute_force_consequences(logic, gamma, universe) == entailed, name


def random_class_sets(universe, count, seed):
    """``count`` random sets of up to four class sentences, as ints."""
    rng = random.Random(seed)
    sentences = range(2 * (universe.full_mask + 1))
    return [
        sum(1 << i for i in rng.sample(sentences, rng.randint(0, 4)))
        for _ in range(count)
    ]


class TestSlices:
    """``_ModelSpace.slice`` answers a set as the oracle and the grid do."""

    @pytest.mark.parametrize(("logic", "universe"), SPACES, ids=SPACE_IDS)
    def test_each_bit_is_the_entailment_oracle_and_the_full_grid(self, logic, universe):
        space = _model_space(logic, universe.atoms)
        table = _class_sentences(universe.atoms)
        reference = ReferenceGrid(logic, universe)
        sets = [_classes_of(g, universe) for g in edge_sets(universe).values()]
        sets += random_class_sets(universe, 4, seed=10 + universe.n)
        for bits in sets:
            got = space.slice(bits)
            gamma = InformationSet(frozenset(table[i] for i in members(bits)))
            grid = reference.models(gamma)
            for i, alpha in enumerate(table):
                entailed = brute_force_entails(logic, gamma, alpha, universe).entailed
                assert entailed == (not (grid & ~reference.sat(alpha)).any())
                assert bool(got >> i & 1) == entailed, (bits, alpha)

    @pytest.mark.parametrize(("logic", "universe"), SPACES, ids=SPACE_IDS)
    def test_count_and_models_read_the_full_grid(self, logic, universe):
        # ``count`` and ``models`` read the same ``row & fits[m]`` as
        # ``slice``: as many models as the grid has, listed in its order
        space = _model_space(logic, universe.atoms)
        table = _class_sentences(universe.atoms)
        reference = ReferenceGrid(logic, universe)
        for bits in random_class_sets(universe, 12, seed=20 + universe.n):
            column, row = space.axes(bits)
            gamma = InformationSet(frozenset(table[i] for i in members(bits)))
            cells = np.flatnonzero(reference.models(gamma).reshape(-1))
            assert space.count(column, row) == len(cells), bits
            listed = itertools.islice(space.models(column, row), 100)
            assert list(listed) == [reference.decode(i) for i in cells[:100]], bits


class TestCountermodelConstruction:
    @pytest.mark.parametrize("logic", LOGICS)
    @settings(max_examples=25)
    @given(gamma=information_sets(max_size=3, max_leaves=4), alpha=sentences(max_leaves=4))
    def test_constructed_countermodels_are_genuine(self, logic, gamma, alpha, u2):
        verdict = decide(logic, gamma, alpha)
        if verdict.entailed:
            return
        witness = construct_countermodel(logic, gamma, alpha, u2)
        assert holds_all(witness, gamma)
        assert not satisfies(witness, alpha)

    def test_entailed_queries_are_rejected(self, u1):
        with pytest.raises(CountermodelConstructionError):
            construct_countermodel(
                "wbd", parse_information_set("B: p"), parse_sentence("B: p"), u1
            )

    def test_bn_has_no_model_theory_here(self, u1):
        with pytest.raises(ValueError):
            construct_countermodel(
                "bn", InformationSet(), parse_sentence("B: p"), u1
            )


def test_render_and_dict_are_consistent(u1):
    m = ModelBD(0b11, frozenset({0b01}), u1)
    text = render_model(m)
    data = model_to_dict(m)
    assert data["type"] == "bd"
    assert data["m"] == [0, 1]
    assert data["family"] == [[0]]
    assert "v0" in text and "v1" in text


@pytest.mark.parametrize("n", range(10))
def test_valuation_tables_match_each_valuation(n):
    # the tables are built by doubling; universe.valuation(v) is the reference
    universe = AtomUniverse("abcdefghij"[:n])
    model = ModelGBD(0, 0, universe)
    reference = {f"v{v}": universe.valuation(v) for v in range(universe.world_count)}
    valuations = model_to_dict(model)["valuations"]
    assert valuations == reference
    assert [list(a) for a in valuations.values()] == [list(a) for a in reference.values()]
    legend = [
        f"  v{v}: "
        + (", ".join(f"{k}={str(b).lower()}" for k, b in a.items()) or "(no atoms)")
        for v, a in enumerate(reference.values())
    ]
    assert render_model(model).split("\n") == ["M = {}; N = {}", *legend]
