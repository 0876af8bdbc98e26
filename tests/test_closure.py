"""Inference-rule engine: rule sets, readings, fixpoints, scale guards."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import importlib.util
import random
import sys
from functools import reduce
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings

import bdlogic.closure as closure_mod
from bdlogic import (
    RULE_SETS,
    Atom,
    Belief,
    ClosureScaleError,
    ClosureUniverse,
    Disbelief,
    InformationSet,
    Not,
    Rule,
    build_universe,
    close,
    consequences,
    models_of,
    parse_information_set,
    parse_sentence,
    readings_agree,
    render_sentence,
)
from bdlogic.plcore import members

from conftest import information_sets

p, q = Atom("p"), Atom("q")


class TestUniverse:
    def test_sentence_inventory(self, cu1, cu2):
        assert len(cu1.sentences) == 8  # 4 classes x {B, D}
        assert len(cu2.sentences) == 32
        assert len(set(cu1.sentences)) == 8

    def test_representatives_cover_every_class(self, cu2):
        masks = {models_of(s.body, cu2.universe) for s in cu2.sentences}
        assert masks == set(range(cu2.universe.full_mask + 1))

    def test_sentence_lookup(self, cu1):
        s = cu1.sentence(True, cu1.universe.atom_mask("p"))
        assert s == Belief(p)
        assert cu1.sentence(False, 0).body.__class__.__name__ == "Bottom"

    def test_custom_atom_names(self):
        cu = build_universe(2, atoms=("a", "b"))
        assert cu.universe.atoms == ("a", "b")

    def test_scale_guard(self):
        with pytest.raises(ClosureScaleError):
            build_universe(3, atoms=("p", "q", "r"))

    @pytest.mark.parametrize("n", [-1, 0, 3])
    def test_every_atom_count_out_of_range_is_a_scale_error(self, n):
        with pytest.raises(ClosureScaleError) as caught:
            build_universe(n)
        limit = closure_mod._ATOM_LIMIT
        assert str(caught.value) == (
            f"closure universes support 1 to {limit} atoms, got {n}"
        )

    def test_atom_count_mismatch(self):
        with pytest.raises(ValueError):
            build_universe(1, atoms=("p", "q"))

    def test_repeated_atom_names_rejected(self):
        with pytest.raises(ValueError):
            build_universe(2, atoms=("p", "p"))

    def test_atom_names_read_once_from_an_iterator(self):
        cu = build_universe(2, atoms=iter(("a", "b")))
        assert cu.universe.atoms == ("a", "b")


def _union(sets) -> int:
    """OR of the given ints: a union of sets of classes."""
    return reduce(or_, sets, 0)


def _enumerated_lattice(n: int):
    """``up``, ``down`` and ``columns`` over ``n`` atoms by their definitions:
    every pair of classes tested for inclusion."""
    classes = range(1 << (1 << n))
    up = tuple(_union(1 << c for c in classes if x & ~c == 0) for x in classes)
    down = tuple(_union(1 << c for c in classes if c & ~x == 0) for x in classes)
    columns = tuple(
        (1 << w, _union(1 << c for c in classes if not c >> w & 1)) for w in range(1 << n)
    )
    return up, down, columns


class TestLattice:
    def test_universe_tables_match_the_enumeration(self, cu1, cu2):
        for n, cu in ((1, cu1), (2, cu2)):
            assert (cu.up, cu.down, cu.columns) == _enumerated_lattice(n)

    def test_three_atom_tables_match_the_enumeration(self):
        # ClosureUniverse refuses three atoms, so the builder is read directly
        assert closure_mod._lattice(3) == _enumerated_lattice(3)


class TestRuleSets:
    def test_rules_are_strings(self):
        assert Rule.B == "B"
        assert {r.value for r in Rule} == {
            "B",
            "DBot",
            "WD",
            "GD",
            "D",
            "DPrime",
            "BPrime",
            "DtoB",
        }

    def test_named_systems(self):
        assert RULE_SETS["wbd"] == frozenset({Rule.B, Rule.DBot, Rule.WD})
        assert RULE_SETS["gbd"] == frozenset({Rule.B, Rule.DBot, Rule.GD})
        assert RULE_SETS["bd"] == frozenset({Rule.B, Rule.DBot, Rule.D})
        assert RULE_SETS["bn"] == frozenset(
            {Rule.B, Rule.DBot, Rule.WD, Rule.DtoB}
        )


class TestClose:
    def test_every_closure_contains_the_trivia(self, cu1):
        derived = close(RULE_SETS["wbd"], "membership", InformationSet(), cu1)
        rendered = {(type(s).__name__, models_of(s.body, cu1.universe)) for s in derived}
        assert ("Belief", cu1.universe.full_mask) in rendered  # B: true
        assert ("Disbelief", 0) in rendered  # D: false

    def test_seed_classes_always_derived(self, cu1):
        gamma = parse_information_set("B: p\nD: !p")
        derived = close(RULE_SETS["bd"], "derivability", gamma, cu1)
        assert Belief(p) in derived
        assert Disbelief(Not(p)) in derived

    def test_weakening_rule_reaches_stronger_formulas(self, cu2):
        gamma = parse_information_set("D: p | q")
        derived = close(RULE_SETS["wbd"], "membership", gamma, cu2)
        assert Disbelief(p) in derived
        assert Disbelief(q) in derived

    def test_coupled_rule_needs_the_derivability_reading(self, cu1):
        gamma = parse_information_set("B: !p")
        member = close(RULE_SETS["bd"], "membership", gamma, cu1)
        derive = close(RULE_SETS["bd"], "derivability", gamma, cu1)
        assert Disbelief(p) not in member
        assert Disbelief(p) in derive

    def test_readings_coincide_for_uncoupled_systems(self, cu1):
        for system in ("wbd", "gbd"):
            for gamma_text in ("B: p", "D: p\nD: !p", "B: p\nD: p"):
                gamma = parse_information_set(gamma_text)
                assert close(RULE_SETS[system], "membership", gamma, cu1) == close(
                    RULE_SETS[system], "derivability", gamma, cu1
                ), (system, gamma_text)

    def test_unknown_reading_rejected(self, cu1):
        with pytest.raises(ValueError):
            close(RULE_SETS["bd"], "syntactic", InformationSet(), cu1)

    @pytest.mark.parametrize("rules", [{"bogus"}, {"b"}, {Rule.B, "DBOT"}])
    def test_unknown_rule_name_rejected(self, cu1, rules):
        # not closed under the empty rule set: the unknown name is refused
        with pytest.raises(ValueError, match="is not a valid Rule"):
            close(rules, "derivability", parse_information_set("B: p"), cu1)

    def test_rule_names_read_as_rules(self, cu1):
        gamma = parse_information_set("B: p\nD: !p")
        names = {rule.value for rule in RULE_SETS["bd"]}
        assert close(names, "derivability", gamma, cu1) == close(
            RULE_SETS["bd"], "derivability", gamma, cu1
        )

    @settings(max_examples=30)
    @given(gamma=information_sets(max_size=3, max_leaves=4))
    def test_closure_is_monotone_and_idempotent_per_reading(self, cu2, gamma):
        rules = RULE_SETS["wbd"]
        derived = close(rules, "membership", gamma, cu2)
        assert set(gammaclasses(gamma, cu2)) <= derived
        again = close(rules, "membership", InformationSet(frozenset(derived)), cu2)
        assert again == derived


def gammaclasses(gamma, cu):
    """Seed sentences normalized to class representatives."""
    out = set()
    for s in gamma:
        out.add(cu.sentence(isinstance(s, Belief), models_of(s.body, cu.universe)))
    return out


class TestAgainstDecisionProcedures:
    @pytest.mark.parametrize(
        "system,reading",
        [
            ("wbd", "membership"),
            ("wbd", "derivability"),
            ("gbd", "membership"),
            ("gbd", "derivability"),
            ("bd", "derivability"),
        ],
    )
    def test_validated_readings_match_decision_exhaustively_n1(
        self, system, reading, cu1
    ):
        sentences = list(cu1.sentences)
        for bits in range(256):
            gamma = InformationSet(
                frozenset(s for i, s in enumerate(sentences) if bits >> i & 1)
            )
            assert close(RULE_SETS[system], reading, gamma, cu1) == consequences(
                system, gamma, cu1.universe
            ), bits

    def test_augmented_variants_also_match_bd(self, cu1):
        rules = frozenset({Rule.B, Rule.DBot, Rule.DPrime})
        for text in ("B: !p", "B: p\nD: p", "D: p\nD: !p", "B: p & !p"):
            gamma = parse_information_set(text)
            assert close(rules, "derivability", gamma, cu1) == consequences(
                "bd", gamma, cu1.universe
            )

    def test_bn_needs_the_discharge_rule(self, cu1):
        gamma = parse_information_set("D: !p")
        base = close(RULE_SETS["bn"], "derivability", gamma, cu1)
        full = close(RULE_SETS["bn"] | {Rule.DPrime}, "derivability", gamma, cu1)
        want = consequences("bn", gamma, cu1.universe)
        assert full == want
        assert base <= want

    def test_readings_agree_reports_the_membership_gap(self, cu1):
        gamma = parse_information_set("B: !p")
        records = readings_agree(
            (RULE_SETS["bd"], "membership"), "bd", [gamma], cu1
        )
        assert records, "membership reading should under-derive here"
        missing = {r.sentence for r in records if not r.in_a and r.in_b}
        assert Disbelief(p) in missing
        assert all(not r.in_a for r in records)  # never over-derives
        assert "D: p" in records[0].render() or any(
            "D: p" in r.render() for r in records
        )
        # a body that is not its class's representative: the same gap, and
        # the records name the caller's own set, not its representatives'
        loose = parse_information_set("B: !p & !p")
        loose_records = readings_agree(
            (RULE_SETS["bd"], "membership"), "bd", [loose], cu1
        )
        assert [r.sentence for r in loose_records] == [r.sentence for r in records]
        assert all(r.gamma is loose for r in loose_records)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("xyz", "bd", "unknown logic 'xyz'"),
            ("bd", "BD", "unknown logic 'BD'"),
            (({"b"}, "derivability"), "bd", "is not a valid Rule"),
            ("wbd", ({Rule.B, "bogus"}, "membership"), "is not a valid Rule"),
            ((RULE_SETS["bd"], "syntactic"), "bd", "unknown reading 'syntactic'"),
            ("bd", (RULE_SETS["bd"], "Membership"), "unknown reading 'Membership'"),
        ],
    )
    def test_readings_agree_refuses_unknown_names(self, cu1, a, b, message):
        # refused before any set is read, so also with no samples
        for samples in ([parse_information_set("B: p")], []):
            with pytest.raises(ValueError, match=message):
                readings_agree(a, b, samples, cu1)

    def test_readings_agree_empty_on_agreement(self, cu1):
        gamma = parse_information_set("B: p")
        assert readings_agree(
            (RULE_SETS["wbd"], "membership"), "wbd", [gamma], cu1
        ) == []


class TestOverDerivation:
    def test_discharge_on_beliefs_overshoots_on_clashing_seeds(self, cu2):
        # adding the belief-discharge rule to the coupled system lets a
        # combined-inconsistent seed pair force new beliefs
        gamma = parse_information_set("B: q\nD: q")
        sound = close(RULE_SETS["bd"], "derivability", gamma, cu2)
        augmented = close(
            RULE_SETS["bd"] | {Rule.BPrime}, "derivability", gamma, cu2
        )
        extra = augmented - sound
        assert extra, "the augmented system should over-derive here"
        assert any(isinstance(s, Belief) for s in extra)
        assert Belief(p) in augmented and Belief(p) not in sound

    def test_discharge_is_conservative_on_consistent_seeds(self, cu2):
        for text in ("B: p\nD: q", "B: p & q", "D: p\nD: q"):
            gamma = parse_information_set(text)
            assert close(
                RULE_SETS["bd"] | {Rule.BPrime}, "derivability", gamma, cu2
            ) == close(RULE_SETS["bd"], "derivability", gamma, cu2), text


class TestEngineLimits:
    def test_family_guard_trips_when_too_small(self, cu2, monkeypatch):
        monkeypatch.setattr(closure_mod, "_MAX_FAMILY", 2)
        # a wide belief conjunction gives the discharge rule many distinct
        # hypothetical extensions, overflowing the tiny registry
        gamma = parse_information_set("B: p | q")
        with pytest.raises(ClosureScaleError):
            close(
                frozenset({Rule.B, Rule.DBot, Rule.DPrime}),
                "derivability",
                gamma,
                cu2,
            )

    def test_the_default_family_cap_is_4096_sets(self, cu2):
        # GD keeps BPrime's disbelief seeds literal, so D: p & q reaches the
        # default cap itself (in about 0.05 s), and the message names it
        with pytest.raises(ClosureScaleError) as caught:
            close(
                RULE_SETS["gbd"] | {Rule.BPrime},
                "derivability",
                parse_information_set("D: p & q"),
                cu2,
            )
        assert str(caught.value) == (
            "rule evaluation reached 4096 auxiliary sets; "
            "this rule set does not close tractably"
        )

    def test_membership_reading_never_spawns_hypothetical_sets(self, cu2):
        # membership closures stay single-state even with discharge rules
        gamma = parse_information_set("B: q\nD: q")
        engine = closure_mod._Engine(
            frozenset({Rule.B, Rule.DBot, Rule.D, Rule.DPrime, Rule.BPrime}),
            "membership",
            cu2,
        )
        u = cu2.universe
        # seeds are sets of classes, bit c standing for class c
        engine.register(
            sum(1 << models_of(b, u) for b in gamma.belief_bodies),
            sum(1 << models_of(b, u) for b in gamma.disbelief_bodies),
        )
        assert len(engine.family) == 1

    def test_heavy_discharge_workload_stays_bounded(self, cu2):
        # the canonicalized child registry holds antichains only, so even a
        # seed with several interlocking disbeliefs terminates quickly
        gamma = parse_information_set("B: p | q\nD: p & q\nD: p & !q\nD: !p & q")
        augmented = close(
            RULE_SETS["bd"] | {Rule.BPrime}, "derivability", gamma, cu2
        )
        # the seed pair is combined-consistent, so discharge adds nothing
        assert augmented == close(RULE_SETS["bd"], "derivability", gamma, cu2)


def test_seed_conjunction_matches_its_members(cu1, cu2):
    # the engine reads the conjunction off world columns; the reference
    # intersects the member classes
    for cu in (cu1, cu2):
        engine = closure_mod._Engine(RULE_SETS["bd"], "derivability", cu)
        for beliefs in range(1 << len(cu.classes)):
            want = cu.universe.full_mask
            for c in members(beliefs):
                want &= c
            assert engine._conj(beliefs) == want, (cu, beliefs)


# Rule sets whose derivability reading builds augmented sets (DPrime's
# "the set plus f", BPrime's "the set plus D: f"), pinned under both
# readings on every one-atom set and a seeded sample of two-atom sets.  The
# digest was recorded before the engine registered each augmented set once
# per class; print ``augmented_closures_digest`` to re-record it for an
# intended change of output.
AUGMENTED_RULE_SETS = {
    "dprime": frozenset({Rule.B, Rule.DBot, Rule.DPrime}),
    "bd+bprime": RULE_SETS["bd"] | {Rule.BPrime},
    "bn+dprime": RULE_SETS["bn"] | {Rule.DPrime},
}
AUGMENTED_CLOSURES_SHA256 = (
    "41677eda494763be44180733d31b8b6f47e5e760227238f22b9e38c285e9d2ad"
)


def _render_set(sentences) -> str:
    return "{" + "; ".join(sorted(render_sentence(s) for s in sentences)) + "}"


def _pinned_inputs(cu1, cu2):
    """Every one-atom set, then 40 seeded two-atom sets of size <= 4."""
    one_atom = cu1.sentences
    inputs = [
        (cu1, InformationSet(frozenset(s for i, s in enumerate(one_atom) if k >> i & 1)))
        for k in range(256)
    ]
    rng = random.Random("augmented-closures")
    inputs += [
        (cu2, InformationSet(frozenset(rng.sample(cu2.sentences, rng.randint(0, 4)))))
        for _ in range(40)
    ]
    return inputs


def augmented_closures_digest(cu1, cu2, rule_sets=AUGMENTED_RULE_SETS) -> str:
    """SHA-256 over the sorted rendered closures of the pinned inputs."""
    inputs = _pinned_inputs(cu1, cu2)
    lines = []
    for name, rules in rule_sets.items():
        for reading in ("membership", "derivability"):
            for cu, gamma in inputs:
                head = f"{name} {reading} {cu.universe.n} {_render_set(gamma)}"
                try:
                    derived = _render_set(close(rules, reading, gamma, cu))
                except ClosureScaleError:
                    derived = "ClosureScaleError"
                lines.append(f"{head} -> {derived}")
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_augmented_closures_are_pinned(cu1, cu2):
    assert augmented_closures_digest(cu1, cu2) == AUGMENTED_CLOSURES_SHA256


# The four plain rule sets under both readings, on the same inputs.  This
# pins the membership gaps of bd and bn byte for byte; the digest was
# recorded before the engine kept its class sets as bitsets.
PLAIN_CLOSURES_SHA256 = (
    "033b3ba360580f2df1677b64b9e06cf74cdc6989bc14fd3a052c853f09e4020d"
)


def test_plain_closures_are_pinned(cu1, cu2):
    assert augmented_closures_digest(cu1, cu2, RULE_SETS) == PLAIN_CLOSURES_SHA256


# Which pinned inputs overflow a smaller family registry, per cap, for the
# augmented rule sets under the derivability reading.  Recorded before the
# engine kept its class sets as bitsets, which must not move the trips.
FAMILY_TRIPS = {4: 50, 16: 11, 64: 8}
FAMILY_TRIPS_SHA256 = (
    "37fe612d9f15a08bb833bd603d366d54e4ea246eccc1bac3c33bb0575752dc51"
)


def test_family_guard_trips_on_pinned_inputs(cu1, cu2, monkeypatch):
    inputs = _pinned_inputs(cu1, cu2)
    lines = []
    for cap in FAMILY_TRIPS:
        monkeypatch.setattr(closure_mod, "_MAX_FAMILY", cap)
        for name, rules in AUGMENTED_RULE_SETS.items():
            for cu, gamma in inputs:
                try:
                    close(rules, "derivability", gamma, cu)
                except ClosureScaleError:
                    lines.append(f"{cap} {name} {cu.universe.n} {_render_set(gamma)}")
    trips = {cap: sum(line.startswith(f"{cap} ") for line in lines) for cap in FAMILY_TRIPS}
    assert trips == FAMILY_TRIPS
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == FAMILY_TRIPS_SHA256


# ---------------------------------------------------------------------------
# Closing each set when it is added against applying every set in every round


@dataclasses.dataclass(eq=False)
class _RawState:
    """A set of the reference's family, with the raw seeds it was added
    from; it starts from its key's disbelief seeds, as the engine's sets do."""

    key: tuple[int, int]
    seed_beliefs: int
    seed_disbeliefs: int
    beliefs: int
    disbeliefs: int


class _RoundRobinEngine(closure_mod._Engine):
    """The reference: sets are added unclosed, and every round applies the
    rules to every set of the family until a round changes nothing, as the
    engine did before it closed each set when adding it.  Every child is
    added from its raw seeds, so each key is computed afresh, not derived
    from its parent's key."""

    applied = 0

    def register(self, sb: int, sd: int):
        top = self._add(sb, sd)
        while True:
            size = len(self.family)
            changed = False
            for state in list(self.family.values()):
                changed |= self._apply(state)
            if not changed and len(self.family) == size:
                return top

    def _add(self, sb: int, sd: int):
        """The family's set for the raw seeds, added unclosed if new."""
        key = self._key(sb, sd)
        state = self.family.get(key)
        if state is None:
            if len(self.family) >= closure_mod._MAX_FAMILY:
                raise ClosureScaleError(f"reached {closure_mod._MAX_FAMILY} sets")
            state = _RawState(key, sb, sd, sb, key[1])
            self.family[key] = state
        return state

    def _apply(self, state) -> bool:
        self.applied += 1
        rules, full, up, down = self.rules, self.full, self.cu.up, self.cu.down
        bel_src = state.seed_beliefs if self.membership else state.beliefs
        dis_src = state.seed_disbeliefs if self.membership else state.disbeliefs
        conj = self._conj(bel_src)
        add_b = up[conj] if Rule.B in rules else 0
        add_d = 1 if Rule.DBot in rules else 0
        if Rule.WD in rules:
            add_d |= _union(down[psi] for psi in members(dis_src))
        if Rule.GD in rules:
            add_d |= down[_union(members(dis_src))]
        if Rule.D in rules:
            add_d |= _union(down[psi | full & ~conj] for psi in members(dis_src))
        if Rule.DtoB in rules:
            add_b |= _union(1 << (full & ~psi) for psi in members(dis_src))
        if Rule.DPrime in rules:
            if self.membership:
                add_d |= self.every if dis_src & state.seed_beliefs else dis_src
            elif dis_src:
                for c in members(self.every & ~(state.disbeliefs | add_d)):
                    child = self._add(state.seed_beliefs | 1 << c, state.seed_disbeliefs)
                    if child.beliefs & dis_src:
                        add_d |= 1 << c
        if Rule.BPrime in rules:
            if self.membership:
                add_b |= self.every if bel_src & state.seed_disbeliefs else bel_src
            elif bel_src:
                for c in members(self.every & ~(state.beliefs | add_b)):
                    child = self._add(state.seed_beliefs, state.seed_disbeliefs | 1 << c)
                    if child.disbeliefs & bel_src:
                        add_b |= 1 << c
        grew = bool(add_b & ~state.beliefs or add_d & ~state.disbeliefs)
        state.beliefs |= add_b
        state.disbeliefs |= add_d
        return grew


class _CountingEngine(closure_mod._Engine):
    applied = 0

    def _apply(self, state) -> bool:
        self.applied += 1
        return super()._apply(state)


def _seed_masks(gamma, cu) -> tuple[int, int]:
    u = cu.universe
    return (
        _union(1 << models_of(b, u) for b in gamma.belief_bodies),
        _union(1 << models_of(b, u) for b in gamma.disbelief_bodies),
    )


def _engine_outcome(engine_cls, rules, reading, gamma, cu):
    """(closure bits or "ClosureScaleError", family keys in order, applications)."""
    engine = engine_cls(rules, reading, cu)
    try:
        top = engine.register(*_seed_masks(gamma, cu))
        derived = top.beliefs | top.disbeliefs << len(cu.classes)
    except ClosureScaleError:
        derived = "ClosureScaleError"
    return derived, list(engine.family), engine.applied


ALL_RULE_SETS = {**RULE_SETS, **AUGMENTED_RULE_SETS}

# WD, GD and DtoB read the disbelief seeds as given, so with BPrime these
# key their children by the literal seeds.  Their families run into the
# thousands, so they are checked under a cap of 64.
LITERAL_BPRIME_RULE_SETS = {
    "gbd+bprime": RULE_SETS["gbd"] | {Rule.BPrime},
    "bn+bprime": RULE_SETS["bn"] | {Rule.BPrime},
}

# Without B a set is keyed by its raw seed beliefs, not their conjunction,
# and its disbelief seeds are kept as given, so every DPrime and BPrime
# child has a key of its own.  These families also run into the thousands.
RAW_SEED_RULE_SETS = {
    "dbot+wd+dprime": frozenset({Rule.DBot, Rule.WD, Rule.DPrime}),
    "dbot+d+bprime": frozenset({Rule.DBot, Rule.D, Rule.BPrime}),
    "d+dprime": frozenset({Rule.D, Rule.DPrime}),
    "dbot+dprime+bprime": frozenset({Rule.DBot, Rule.DPrime, Rule.BPrime}),
}
CAPPED_RULE_SETS = {**LITERAL_BPRIME_RULE_SETS, **RAW_SEED_RULE_SETS}


def _checked_rule_sets(caps):
    """(cap, name, rules) for every rule set under each cap, then the
    literal-seed and raw-seed sets under a cap of 64."""
    for cap in caps:
        for name, rules in ALL_RULE_SETS.items():
            yield cap, name, rules
    for name, rules in CAPPED_RULE_SETS.items():
        yield 64, name, rules


def _assert_matches_the_round_robin(want, got, where) -> bool:
    """``got``, the engine's outcome, against ``want``, the reference's (see
    :func:`_engine_outcome`): the same closure bits or trip and, wherever
    both finish, the same family as a set and no more applications.  Whether
    the two families were built in different orders."""
    assert got[0] == want[0], where
    if want[0] != "ClosureScaleError":  # a trip cuts each schedule elsewhere
        assert set(got[1]) == set(want[1]), where
        assert got[2] <= want[2], where
    return got[1] != want[1]


def test_closing_on_add_matches_the_round_robin(cu1, cu2, monkeypatch):
    inputs = _pinned_inputs(cu1, cu2)
    applied: dict[str, list[int]] = {"reference": [], "engine": []}
    reordered = 0
    for cap, name, rules in _checked_rule_sets((None, 4, 16, 64)):
        if cap is not None:
            monkeypatch.setattr(closure_mod, "_MAX_FAMILY", cap)
        for reading in ("membership", "derivability"):
            for cu, gamma in inputs:
                want = _engine_outcome(_RoundRobinEngine, rules, reading, gamma, cu)
                got = _engine_outcome(_CountingEngine, rules, reading, gamma, cu)
                where = (cap, name, reading, _render_set(gamma))
                reordered += _assert_matches_the_round_robin(want, got, where)
                if cap is None and name == "bd+bprime" and reading == "derivability":
                    applied["reference"].append(want[2])
                    applied["engine"].append(got[2])
    # the schedules differ, so the comparison above is not vacuous
    assert reordered > 0
    assert sum(applied["engine"]) < sum(applied["reference"])


def _raw_child_seeds(state, i, n):
    """The seeds of ``state`` plus sentence ``i`` (``B: i`` below ``n``,
    ``D: i - n`` from ``n`` on): its raw seed beliefs and its key's
    disbelief seeds."""
    if i < n:
        return state.seed_beliefs | 1 << i, state.key[1]
    return state.seed_beliefs, state.key[1] | 1 << i - n


def test_child_keys_match_the_raw_seed_keys(cu1, cu2, monkeypatch):
    # every key the engine derives from a parent's key is the key
    # registering the augmented raw seeds would give
    inputs = _pinned_inputs(cu1, cu2)
    augmented = 0
    for cap, name, rules in _checked_rule_sets((closure_mod._MAX_FAMILY,)):
        monkeypatch.setattr(closure_mod, "_MAX_FAMILY", cap)
        for reading in ("membership", "derivability"):
            for cu, gamma in inputs:
                engine = closure_mod._Engine(rules, reading, cu)
                try:
                    engine.register(*_seed_masks(gamma, cu))
                except ClosureScaleError:
                    pass  # the family up to the trip is checked all the same
                n = len(cu.classes)
                for key, state in engine.family.items():
                    where = (name, reading, _render_set(gamma), key)
                    assert state.key == key, where
                    assert engine._key(state.seed_beliefs, key[1]) == key, where
                    for i in range(2 * n):
                        want = engine._key(*_raw_child_seeds(state, i, n))
                        assert engine._child_key(key, i) == want, (where, i)
                augmented += len(engine.family) - 1
    assert augmented > 0


@pytest.mark.parametrize("name", sorted({**AUGMENTED_RULE_SETS, **CAPPED_RULE_SETS}))
def test_own_children_are_answered_without_links(cu1, cu2, monkeypatch, name):
    # a DPrime or BPrime child that is the set itself is answered in bulk:
    # no application asks _state for its own set's key, nor for that of a
    # set it is closing a child for
    rules = AUGMENTED_RULE_SETS.get(name)
    if rules is None:  # literal or raw seeds: families in the thousands
        rules = CAPPED_RULE_SETS[name]
        monkeypatch.setattr(closure_mod, "_MAX_FAMILY", 64)
    real_apply, real_state = closure_mod._Engine._apply, closure_mod._Engine._state
    applying: list[tuple[int, int]] = []  # the keys of the applications under way

    def apply(engine, state) -> bool:
        applying.append(state.key)
        try:
            return real_apply(engine, state)
        finally:
            applying.pop()

    def read(engine, key, sb):
        assert key not in applying, (key, applying)
        return real_state(engine, key, sb)

    monkeypatch.setattr(closure_mod._Engine, "_apply", apply)
    monkeypatch.setattr(closure_mod._Engine, "_state", read)
    own = 0
    for cu, gamma in _pinned_inputs(cu1, cu2):
        engine = closure_mod._Engine(rules, "derivability", cu)
        try:
            engine.register(*_seed_masks(gamma, cu))
        except ClosureScaleError:
            pass  # the family up to the trip is checked all the same
        n = len(cu.classes)
        for key, state in engine.family.items():
            where = (_render_set(gamma), key)
            own_b, own_d = engine._own_b(key), engine._own_d(key)
            for c in cu.classes:
                assert (engine._child_key(key, c) == key) == bool(own_b >> c & 1), (where, c)
                assert (engine._child_key(key, n + c) == key) == bool(own_d >> c & 1), (where, c)
            if Rule.DPrime in rules:
                own += own_b.bit_count()
            if Rule.BPrime in rules:
                own += own_d.bit_count()
    assert own > 0


def _slice_stream_sets(seed: int, count: int, monkeypatch) -> list[InformationSet]:
    """The first ``count`` two-atom sets (1 to 4 sentences over p and q) of
    the benchmark's ``slices`` stream for ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # dataclasses look it up
    spec.loader.exec_module(gen)
    docs = [doc for doc in gen.slice_docs(seed) if len(doc.atoms) == 2]
    return [parse_information_set(doc.text()) for doc in docs[:count]]


# How many of the stream's sets each rule set is checked on: about a second
# of test time each, the reference engine being the slower side
SLICE_STREAM_SAMPLE = {"dprime": 480, "bd+bprime": 100}


@pytest.mark.parametrize("name", sorted(SLICE_STREAM_SAMPLE))
def test_slice_stream_sets_match_the_round_robin(cu2, monkeypatch, name):
    # the same comparison on a wider sample than the pinned inputs, drawn as
    # the slices workload draws its two-atom sets
    rules = AUGMENTED_RULE_SETS[name]
    reordered = 0
    for gamma in _slice_stream_sets(7, SLICE_STREAM_SAMPLE[name], monkeypatch):
        want = _engine_outcome(_RoundRobinEngine, rules, "derivability", gamma, cu2)
        got = _engine_outcome(_CountingEngine, rules, "derivability", gamma, cu2)
        reordered += _assert_matches_the_round_robin(want, got, _render_set(gamma))
    assert reordered > 0


# Rule sets whose DPrime or BPrime loops read children, with the family cap
# each is checked under.  gbd's GD with BPrime keys its children by the
# literal seeds, so its families run into the thousands.
FIXED_POINT_CHECKED_RULE_SETS = {
    "bd+bprime": (AUGMENTED_RULE_SETS["bd+bprime"], closure_mod._MAX_FAMILY),
    "dprime": (AUGMENTED_RULE_SETS["dprime"], closure_mod._MAX_FAMILY),
    "gbd+bprime": (LITERAL_BPRIME_RULE_SETS["gbd+bprime"], 64),
}


def _deep_copy(engine):
    """A copy of ``engine`` that shares nothing ``_apply`` changes: its own
    family and sets.  The rest (rules, flags, the closure universe) is read
    only.  ``copy.deepcopy`` would do, at over ten times the cost."""
    twin = copy.copy(engine)
    twin.family = {key: copy.copy(state) for key, state in engine.family.items()}
    return twin


@pytest.mark.parametrize("name", sorted(FIXED_POINT_CHECKED_RULE_SETS))
def test_every_child_read_is_a_fixed_point(cu1, cu2, monkeypatch, name):
    # a DPrime or BPrime loop reads every child through _state, which adds
    # and closes it if it is new; at the end of that application, one more
    # application to each child it read, on a deep copy of the engine as it
    # stands, must neither grow the child nor add a family key.  A child
    # read before it was closed is still being closed then, so it is caught
    real_apply, real_state = closure_mod._Engine._apply, closure_mod._Engine._state
    reads: list[list] = []  # per application under way, the children it read
    checked = 0

    def check(engine, children) -> None:
        nonlocal checked
        if not children:
            return
        twin = _deep_copy(engine)
        keys = list(twin.family)
        for child in children:
            twin_child = twin.family[child.key]
            reads.append([])  # the twin's own reads, which are not checked
            try:
                grew = real_apply(twin, twin_child)
            except ClosureScaleError:  # not to be taken for a trip of the real engine
                pytest.fail(f"reading {child.key} added sets up to the cap")
            finally:
                reads.pop()
            assert not grew, child.key
            assert (twin_child.beliefs, twin_child.disbeliefs) == (child.beliefs, child.disbeliefs)
            assert list(twin.family) == keys, child.key
            checked += 1

    def apply(engine, state) -> bool:
        reads.append([])
        try:
            grew = real_apply(engine, state)
        finally:
            children = reads.pop()
        check(engine, children)
        return grew

    def read(engine, key, sb):
        child = real_state(engine, key, sb)
        if reads:  # not the top set, which register reads
            reads[-1].append(child)
        return child

    monkeypatch.setattr(closure_mod._Engine, "_apply", apply)
    monkeypatch.setattr(closure_mod._Engine, "_state", read)
    rules, cap = FIXED_POINT_CHECKED_RULE_SETS[name]
    monkeypatch.setattr(closure_mod, "_MAX_FAMILY", cap)
    for cu, gamma in _pinned_inputs(cu1, cu2):
        try:
            close(rules, "derivability", gamma, cu)
        except ClosureScaleError:
            pass  # every child read before the trip was still checked
    assert checked > 0


def test_family_cap_trips_exactly_when_the_family_outgrows_it(cu2, monkeypatch):
    # D: p & q under {B, DBot, D, BPrime} reaches 147 sets.  Each set joins
    # the family before it is closed, so under either schedule a cap of 147
    # closes it and a cap of 146 trips
    rules = RULE_SETS["bd"] | {Rule.BPrime}
    gamma = parse_information_set("D: p & q")
    for engine_cls in (_CountingEngine, _RoundRobinEngine):
        for cap, trips in ((147, False), (146, True)):
            monkeypatch.setattr(closure_mod, "_MAX_FAMILY", cap)
            derived, family, _ = _engine_outcome(engine_cls, rules, "derivability", gamma, cu2)
            assert (derived == "ClosureScaleError") == trips, (engine_cls, cap)
            assert len(family) == (146 if trips else 147), (engine_cls, cap)


def _stack_depth() -> int:
    """The caller's depth: the frames on the stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_closing_nests_well_within_the_recursion_limit(cu1, cu2, monkeypatch):
    # closing a set closes each new child first: two frames per generation
    # (_state, _apply), and at two atoms sets nest at most 17 deep, so every
    # closure fits in 46 frames above the caller's (38 to 40 are needed on
    # Python 3.10 to 3.13).  One more frame per generation, a child read
    # through a helper of its own, needs 54 to 56 and fails here
    inputs = _pinned_inputs(cu1, cu2)
    checked = ((closure_mod._MAX_FAMILY, AUGMENTED_RULE_SETS), (64, CAPPED_RULE_SETS))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 46)
    try:
        for cap, rule_sets in checked:
            monkeypatch.setattr(closure_mod, "_MAX_FAMILY", cap)
            for rules in rule_sets.values():
                for cu, gamma in inputs:
                    try:
                        close(rules, "derivability", gamma, cu)
                    except ClosureScaleError:
                        pass
    finally:
        sys.setrecursionlimit(limit)
