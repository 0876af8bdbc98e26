"""Least-fixed-point closure of an information set under inference rules.

Everything happens inside a small *closure universe*: one or two atoms, all
2^(2^n) semantic classes, and one belief plus one disbelief per class (8
sentences at one atom, 32 at two).  Closing a set means mapping it onto
class representatives and then applying rule schemas to saturation.

Rules come with two *readings*.  Under ``membership``, premises that name
the information set (``D: g`` is in the set, "the beliefs entail ...") are
read against the original set only, so rules fire exactly one generation —
this is the literal reading, and for some rule sets it derives strictly
less than the decision procedures.  Under ``derivability``, those premises
range over everything derived so far, giving the usual recursive reading.

``DPrime``/``BPrime`` premises speak about *augmented* sets ("the set plus
one more sentence derives ..."), so the engine maintains a family of
reachable sets and runs one chaotic iteration over the whole family until
nothing changes anywhere: a joint least fixed point.  All rule premises are
monotone in the derived sets, so the iteration converges, and every state
only ever grows.  When rule ``B`` is present (every rule set of interest),
a set's derivation under the derivability reading is a function of the
conjunction of its seed beliefs plus its seed disbelief classes, which
keys the family and keeps it small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Literal, Sequence, Union

from .decision import consequences
from .plcore import AtomUniverse, formula_for_class, models_of
from .syntax import (
    Belief,
    Disbelief,
    Formula,
    InformationSet,
    Sentence,
    render_sentence,
)
from .verdicts import LogicId

__all__ = [
    "Rule",
    "RuleReading",
    "RULE_SETS",
    "ClosureUniverse",
    "ClosureScaleError",
    "build_universe",
    "close",
    "Disagreement",
    "readings_agree",
    "sentence_order_key",
]


class Rule(str, Enum):
    """Inference-rule schemas over information sets."""

    B = "B"            # classical consequence of the beliefs
    DBot = "DBot"      # disbelieve every unsatisfiable formula
    WD = "WD"          # disbelieve whatever implies a disbelieved formula
    GD = "GD"          # disbelieve whatever the negated disbeliefs refute
    D = "D"            # disbelieve f when beliefs + f imply a disbelieved g
    DPrime = "DPrime"  # disbelieve f when the set + f derives a disbelieved g
    BPrime = "BPrime"  # believe f when the set + D:f derives D:g for a believed g
    DtoB = "DtoB"      # turn a disbelief in f into a belief in !f

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


RuleReading = Literal["membership", "derivability"]

RULE_SETS: dict[LogicId, frozenset[Rule]] = {
    "wbd": frozenset({Rule.B, Rule.DBot, Rule.WD}),
    "gbd": frozenset({Rule.B, Rule.DBot, Rule.GD}),
    "bd": frozenset({Rule.B, Rule.DBot, Rule.D}),
    "bn": frozenset({Rule.B, Rule.DBot, Rule.WD, Rule.DtoB}),
}


class ClosureScaleError(ValueError):
    """The closure universe or the reachable set family is too large."""


class ClosureUniverse:
    """All semantic classes of a 1- or 2-atom universe, with representatives."""

    __slots__ = ("universe", "classes", "representatives", "sentences")

    def __init__(self, universe: AtomUniverse):
        if universe.n not in (1, 2):
            raise ClosureScaleError(
                f"closure universes support 1 or 2 atoms, got {universe.n}"
            )
        self.universe = universe
        self.classes = tuple(range(universe.full_mask + 1))
        self.representatives = {
            c: formula_for_class(c, universe) for c in self.classes
        }
        self.sentences = tuple(
            Belief(self.representatives[c]) for c in self.classes
        ) + tuple(Disbelief(self.representatives[c]) for c in self.classes)

    def sentence(self, kind_belief: bool, mask: int) -> Sentence:
        rep = self.representatives[mask]
        return Belief(rep) if kind_belief else Disbelief(rep)

    def __repr__(self) -> str:
        return f"ClosureUniverse(atoms={list(self.universe.atoms)!r})"


def build_universe(n: int, atoms: Sequence[str] | None = None) -> ClosureUniverse:
    """Closure universe over ``n`` atoms (named p, q unless given)."""
    if atoms is None:
        atoms = ("p", "q")[:n]
    if len(tuple(atoms)) != n:
        raise ValueError(f"expected {n} atom names, got {atoms!r}")
    return ClosureUniverse(AtomUniverse(atoms))


# ---------------------------------------------------------------------------
# Engine

_MAX_FAMILY = 4096


@dataclass
class _SetState:
    seed_beliefs: frozenset[int]
    seed_disbeliefs: frozenset[int]
    beliefs: set[int] = field(default_factory=set)
    disbeliefs: set[int] = field(default_factory=set)


class _Engine:
    def __init__(self, rules: frozenset[Rule], reading: RuleReading, cu: ClosureUniverse):
        self.rules = rules
        self.reading = reading
        self.cu = cu
        self.full = cu.universe.full_mask
        self.classes = cu.classes
        self.family: dict[tuple, _SetState] = {}
        self.created = False
        # Disbelief seeds can be canonicalized — restricted to the belief
        # conjunction, dominated seeds dropped — whenever every disbelief
        # rule present reads its seeds relative to the beliefs (D/DPrime
        # re-derive the originals).  WD, GD and DtoB consume the literal
        # masks, so they block it.  This bounds the reachable family for
        # rule sets with BPrime, whose children otherwise pile up seeds.
        self._canonical_seeds = (
            reading == "derivability"
            and Rule.B in rules
            and bool(rules & {Rule.D, Rule.DPrime})
            and not rules & {Rule.WD, Rule.GD, Rule.DtoB}
        )

    def _conj(self, beliefs: Iterable[int]) -> int:
        """The class of the conjunction of the given belief classes."""
        conj = self.full
        for c in beliefs:
            conj &= c
        return conj

    def _key(self, sb: frozenset[int], sd: frozenset[int]) -> tuple:
        if self.reading == "derivability" and Rule.B in self.rules:
            return ("conj", self._conj(sb), sd)
        return ("set", sb, sd)

    def register(self, sb: frozenset[int], sd: frozenset[int]) -> _SetState:
        if self._canonical_seeds and sd:
            conj = self._conj(sb)
            restricted = {conj & psi for psi in sd}
            sd = frozenset(
                p
                for p in restricted
                if not any(p != q and p & ~q == 0 for q in restricted)
            )
        key = self._key(sb, sd)
        state = self.family.get(key)
        if state is None:
            if len(self.family) >= _MAX_FAMILY:
                raise ClosureScaleError(
                    f"rule evaluation reached {_MAX_FAMILY} auxiliary sets; "
                    "this rule set does not close tractably"
                )
            state = _SetState(sb, sd, set(sb), set(sd))
            self.family[key] = state
            self.created = True
        return state

    def run(self) -> int:
        rounds = 0
        while True:
            rounds += 1
            self.created = False
            changed = False
            for state in list(self.family.values()):
                changed |= self._apply(state)
            # a freshly registered set counts as progress even when nothing
            # grew this round: it still has to be processed at least once
            if not (changed or self.created):
                return rounds

    def _apply(self, state: _SetState) -> bool:
        membership = self.reading == "membership"
        bel_src = state.seed_beliefs if membership else state.beliefs
        dis_src = state.seed_disbeliefs if membership else state.disbeliefs
        conj = self._conj(bel_src)
        add_b: set[int] = set()
        add_d: set[int] = set()

        if Rule.B in self.rules:
            for c in self.classes:
                if conj & ~c == 0:
                    add_b.add(c)
        if Rule.DBot in self.rules:
            add_d.add(0)
        if Rule.WD in self.rules:
            for psi in dis_src:
                for c in self.classes:
                    if c & ~psi == 0:
                        add_d.add(c)
        if Rule.GD in self.rules:
            dual = self.full
            for psi in dis_src:
                dual &= self.full & ~psi
            for c in self.classes:
                if dual & c == 0:
                    add_d.add(c)
        if Rule.D in self.rules:
            for psi in dis_src:
                for c in self.classes:
                    if conj & c & ~psi == 0:
                        add_d.add(c)
        if Rule.DtoB in self.rules:
            for psi in dis_src:
                add_b.add(self.full & ~psi)
        if Rule.DPrime in self.rules:
            if membership:
                for psi in dis_src:
                    for c in self.classes:
                        if psi in state.seed_beliefs or psi == c:
                            add_d.add(c)
            elif dis_src:
                # one augmented set per class: disbelieve c when the set
                # plus B: c comes to believe something disbelieved
                for c in self.classes:
                    if c in state.disbeliefs or c in add_d:
                        continue
                    child = self.register(
                        state.seed_beliefs | {c}, state.seed_disbeliefs
                    )
                    if not child.beliefs.isdisjoint(dis_src):
                        add_d.add(c)
        if Rule.BPrime in self.rules:
            if membership:
                for psi in bel_src:
                    for c in self.classes:
                        if psi in state.seed_disbeliefs or psi == c:
                            add_b.add(c)
            elif bel_src:
                # believe c when the set plus D: c comes to disbelieve
                # something believed
                for c in self.classes:
                    if c in state.beliefs or c in add_b:
                        continue
                    child = self.register(
                        state.seed_beliefs, state.seed_disbeliefs | {c}
                    )
                    if not child.disbeliefs.isdisjoint(bel_src):
                        add_b.add(c)

        grew = not (add_b <= state.beliefs and add_d <= state.disbeliefs)
        state.beliefs |= add_b
        state.disbeliefs |= add_d
        return grew


def close(
    rules: Iterable[Rule],
    reading: RuleReading,
    gamma: InformationSet,
    cu: ClosureUniverse,
) -> frozenset[Sentence]:
    """Close ``gamma`` (mapped onto class representatives) under ``rules``.

    Returns every derivable sentence of the universe, the seeds included.
    """
    if reading not in ("membership", "derivability"):
        raise ValueError(f"unknown reading {reading!r}")
    u = cu.universe
    sb = frozenset(models_of(b, u) for b in gamma.belief_bodies)
    sd = frozenset(models_of(b, u) for b in gamma.disbelief_bodies)
    engine = _Engine(frozenset(rules), reading, cu)
    top = engine.register(sb, sd)
    engine.run()
    result: set[Sentence] = set()
    for c in top.beliefs:
        result.add(cu.sentence(True, c))
    for c in top.disbeliefs:
        result.add(cu.sentence(False, c))
    return frozenset(result)


# ---------------------------------------------------------------------------
# Comparing consequence producers

SideSpec = Union[LogicId, tuple[Iterable[Rule], str]]


@dataclass(frozen=True)
class Disagreement:
    gamma: InformationSet
    sentence: Sentence
    in_a: bool
    in_b: bool

    def render(self) -> str:
        gamma_text = "; ".join(render_sentence(s) for s in self.gamma) or "(empty)"
        side = "only left" if self.in_a else "only right"
        return f"Γ={{{gamma_text}}}: {render_sentence(self.sentence)} ({side})"


def sentence_order_key(universe: AtomUniverse):
    """Sort key for sentences over ``universe``: beliefs first, then by class."""

    def key(s: Sentence) -> tuple[bool, int]:
        return (isinstance(s, Disbelief), models_of(s.body, universe))

    return key


def _consequence_set(
    side: SideSpec, gamma: InformationSet, cu: ClosureUniverse
) -> frozenset[Sentence]:
    if isinstance(side, str):
        return consequences(side, gamma, cu.universe)
    rules, reading = side
    return close(rules, reading, gamma, cu)  # type: ignore[arg-type]


def readings_agree(
    a: SideSpec,
    b: SideSpec,
    samples: Iterable[InformationSet],
    cu: ClosureUniverse,
) -> list[Disagreement]:
    """Diff two consequence producers over the sampled sets.

    A side is either a logic name (its decision procedure) or a
    ``(rules, reading)`` pair.  Empty result means they agreed everywhere.
    """
    records: list[Disagreement] = []
    order = sentence_order_key(cu.universe)
    for gamma in samples:
        left = _consequence_set(a, gamma, cu)
        right = _consequence_set(b, gamma, cu)
        if left == right:
            continue
        for sentence in sorted(left ^ right, key=order):
            records.append(
                Disagreement(
                    gamma=gamma,
                    sentence=sentence,
                    in_a=sentence in left,
                    in_b=sentence in right,
                )
            )
    return records
