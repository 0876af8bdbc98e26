"""Polynomial decision procedures for the four logics.

Each logic reduces to a handful of classical entailment checks over the
relevant atoms.  Writing ``G_B`` for the believed formulas, ``G_D`` for the
disbelieved ones and ``~G_D`` for their negations:

========  =======================  ==========================================
logic     belief ``B: f``          disbelief ``D: f``
========  =======================  ==========================================
``wbd``   ``G_B |= f``             ``f`` unsatisfiable, or ``f |= g`` for
                                   some ``D: g`` in the set
``gbd``   ``G_B |= f``             ``~G_D |= !f``
``bd``    ``G_B |= f``             ``G_B |= !f``, or ``G_B, f |= g`` for
                                   some ``D: g`` in the set
``bn``    ``G_B, ~G_D |= f``       ``G_B, ~G_D |= !f``
========  =======================  ==========================================

Each logic is one shape over one record of a set's masks (the models of
``G_B`` and of ``~G_D``, and the disbelieved classes), built whole from the
set's formulas (once per set and atom tuple, kept on the set) or from its
class sentences.  A shape is a floor and a few generators, each a class
with the disjunct it stands for: a belief is entailed iff its class
contains the floor, a disbelief iff its class lies inside a generator.  A
query reads the shape part by part, a consequence slice reads it whole, and
only a verdict that prints a formula names one, from the set's own bodies.
A set of class sentences over a universe of one or two atoms is one int,
bit i standing for ``plcore._class_sentences(atoms)[i]`` (``B: c`` at bit
c, ``D: c`` at bit 2^(2^n) + c); it goes in and a consequence slice comes
out in that form, and only ``plcore._halves`` splits it.  These closed
forms are validated against the brute-force model oracle and the
rule-closure engine by the metatheory suite; they are not trusted on their
own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterator, Optional

from .plcore import (
    AtomUniverse,
    _classes_of,
    _halves,
    _lanes,
    _sentences_of,
    conjunction_mask,
    members,
    models_of,
    universe_for,
)
from .syntax import (
    And,
    Belief,
    Bottom,
    Formula,
    InformationSet,
    Sentence,
    Top,
    render_formula,
)
from .verdicts import LogicId, Rationale, Verdict, _require_logic

__all__ = [
    "decide",
    "decide_wbd",
    "decide_gbd",
    "decide_bd",
    "decide_bn",
    "InconsistencyReport",
    "inconsistency_report",
    "consequences",
    "consequence_masks",
    "CONSEQUENCE_UNIVERSE_LIMIT",
]

CONSEQUENCE_UNIVERSE_LIMIT = 2
# Records a set keeps, one per atom tuple (``universe-stability`` reads 3).
_RECORDS_KEPT = 4


@dataclass
class _Compiled:
    """A set over one universe, as the masks its shapes are made of, built
    from formulas by :func:`_compile` or from classes by :func:`_class_record`."""

    universe: AtomUniverse
    beliefs: int  # models of ``G_B``
    witnesses: tuple[int, ...]  # the disbelieved classes, ascending
    dual: int  # models of ``~G_D``


def _compile(
    gamma: InformationSet, universe: AtomUniverse
) -> tuple[_Compiled, tuple[int, ...]]:
    """``gamma``'s record and the class of each disbelieved body, in rendering
    order, each body evaluated once.  No class is hashed: at 16 atoms a class
    is a 2^16-bit int, so the distinct classes are read off a sorted list."""
    classes = tuple(models_of(body, universe) for body in gamma.disbelief_bodies)
    ordered = sorted(classes)
    witnesses = tuple(w for i, w in enumerate(ordered) if i == 0 or ordered[i - 1] != w)
    beliefs = conjunction_mask(gamma.belief_bodies, universe)
    dual = universe.full_mask & ~reduce(or_, classes, 0)
    return _Compiled(universe, beliefs, witnesses, dual), classes


def _class_record(bits: int, universe: AtomUniverse) -> _Compiled:
    """The record of the set of class sentences ``bits`` stands for: the classes
    themselves, nothing evaluated or rendered, as any set of them compiles to."""
    full, (sb, sd) = universe.full_mask, _halves(bits, universe)
    witnesses = tuple(members(sd))
    dual = full & ~reduce(or_, witnesses, 0)
    return _Compiled(universe, reduce(and_, members(sb), full), witnesses, dual)


def _compiled(
    gamma: InformationSet, universe: AtomUniverse
) -> tuple[_Compiled, tuple[int, ...]]:
    """:func:`_compile` of ``gamma`` over ``universe``: once per set and atom
    tuple, kept on the set as :func:`plcore._classes_of` keeps its class masks.
    The set keeps the records of its last ``_RECORDS_KEPT`` atom tuples,
    dropping the oldest, so a set queried over many universes stays small."""
    memo = gamma._records
    record = memo.get(universe.atoms)
    if record is None:
        if len(memo) >= _RECORDS_KEPT:
            del memo[next(iter(memo))]
        record = memo[universe.atoms] = _compile(gamma, universe)
    return record


_DESCRIPTIONS = {
    "B": "classical consequence of the beliefs",
    "DBot": "the queried formula is unsatisfiable",
    "WD": "the query implies a disbelieved formula",
    "GD": "the negated disbeliefs jointly refute the query",
    "BtoD": "the beliefs classically refute the query",
    "D": "the beliefs plus the query imply a disbelieved formula",
    "BN": "consequence of the beliefs plus the negated disbeliefs",
}


def _shape(logic: LogicId, c: _Compiled) -> Iterator[tuple[int, str, int | None]]:
    """``logic``'s shape over ``c``, as parts ``(class, rule, witness)``: the
    floor, then the generators in firing order, so the first that holds a
    query names its rule and the disbelieved class it used (WD and D).
    The parts are made lazily: a query computes only those it reads."""
    full, b = c.universe.full_mask, c.beliefs
    if logic == "wbd":
        yield b, "B", None
        yield 0, "DBot", None
        for witness in c.witnesses:
            yield witness, "WD", witness
    elif logic == "gbd":
        yield b, "B", None
        yield full & ~c.dual, "GD", None
    elif logic == "bd":
        yield b, "B", None
        yield 0, "DBot", None
        outside = full & ~b
        yield outside, "BtoD", None
        for witness in c.witnesses:
            yield outside | witness, "D", witness
    else:
        floor = b & c.dual
        yield floor, "BN", None
        yield full & ~floor, "BN", None


def _fired(
    logic: LogicId, c: _Compiled, belief: bool, mask: int
) -> tuple[str, int | None] | None:
    """The rule and witness class of the first part of ``logic``'s shape that
    entails the query of class ``mask``, or None; :func:`_decide` names it."""
    parts = _shape(logic, c)
    floor, rule, witness = next(parts)
    # containment as one operation: no complement of a 2^n-bit mask
    if belief:
        return (rule, witness) if mask & floor == floor else None
    for generator, rule, witness in parts:
        if mask | generator == generator:
            return rule, witness
    return None


def _decide(
    logic: LogicId,
    gamma: InformationSet,
    alpha: Sentence,
    universe: AtomUniverse | None,
) -> Verdict:
    u = universe if universe is not None else universe_for(gamma, alpha)
    c, classes = _compiled(gamma, u)
    fired = _fired(logic, c, isinstance(alpha, Belief), models_of(alpha.body, u))
    rule, witness = fired or (None, None)
    body = None if witness is None else gamma.disbelief_bodies[classes.index(witness)]
    rationale = rule and Rationale(rule, body, _DESCRIPTIONS[rule])
    return Verdict(logic, alpha, entailed=fired is not None, rationale=rationale)


def decide_wbd(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    return _decide("wbd", gamma, alpha, universe)


def decide_gbd(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    return _decide("gbd", gamma, alpha, universe)


def decide_bd(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    return _decide("bd", gamma, alpha, universe)


def decide_bn(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    return _decide("bn", gamma, alpha, universe)


_DECIDERS: dict[LogicId, Callable[..., Verdict]] = {
    "wbd": decide_wbd,
    "gbd": decide_gbd,
    "bd": decide_bd,
    "bn": decide_bn,
}


def decide(
    logic: LogicId,
    gamma: InformationSet,
    alpha: Sentence,
    universe: AtomUniverse | None = None,
    with_countermodel: bool = False,
) -> Verdict:
    """Decide one entailment query; optionally attach a countermodel.

    Countermodels exist for wbd/gbd/bd only; for bn the verdict is returned
    without a witness.
    """
    _require_logic(logic)
    if universe is None:
        universe = universe_for(gamma, alpha)
    verdict = _DECIDERS[logic](gamma, alpha, universe)
    if with_countermodel and not verdict.entailed and logic != "bn":
        from .semantics import construct_countermodel

        witness = construct_countermodel(logic, gamma, alpha, universe)
        verdict = replace(verdict, witness=witness)
    return verdict


# ---------------------------------------------------------------------------
# Inconsistency


@dataclass(frozen=True)
class InconsistencyReport:
    """Three inconsistency notions, plus the literal projected variant.

    ``d_inconsistent`` asks whether the whole set derives ``D: true``;
    ``d_inconsistent_literal`` asks the same of the disbelief projection on
    its own.  The two agree for wbd/gbd but split for bd precisely when the
    beliefs do the refuting — the {B: p, D: p} fixture.
    """

    logic: LogicId
    b_inconsistent: bool
    d_inconsistent: bool
    d_inconsistent_literal: bool
    combined_inconsistent: bool
    witness_formula: Optional[Formula] = None

    def fully_consistent(self) -> bool:
        return not (
            self.b_inconsistent or self.d_inconsistent or self.combined_inconsistent
        )


def _clashes(logic: LogicId, c: _Compiled) -> list[tuple[int, str]]:
    """The classes ``logic`` both believes and disbelieves over ``c``, each with
    the kind of its name (``D`` a disbelieved body, ``false`` the falsum, ``B``
    gbd's merged beliefs): combined inconsistency's flag and witness read it."""
    b = c.beliefs
    clashes = []
    for witness in c.witnesses:
        if b | witness == witness:
            clashes.append((witness, "D"))
    if b == 0 or (logic == "bn" and b & c.dual == 0):
        clashes.append((0, "false"))
    if logic == "gbd" and b & c.dual == 0:
        clashes.append((b, "B"))
    return clashes


def inconsistency_report(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse | None = None
) -> InconsistencyReport:
    """Evaluate all inconsistency notions for ``gamma`` under ``logic``.

    ``universe`` defaults to the atoms of ``gamma``.
    """
    _require_logic(logic)
    u = universe if universe is not None else universe_for(gamma)
    c, classes = _compiled(gamma, u)

    def name(witness: int, kind: str) -> Formula:
        if kind == "D":
            return gamma.disbelief_bodies[classes.index(witness)]
        if kind == "false":
            return Bottom()
        merged: Formula = Top()  # folded left; a leading ``true`` is dropped
        for body in gamma.belief_bodies:
            merged = body if isinstance(merged, Top) else And(merged, body)
        return merged

    def first_name(clashes: list[tuple[int, str]]) -> Formula:
        # of the lowest class that clashes, the first rendered of its names
        low = min(clashes)[0]
        return min((name(w, kind) for w, kind in clashes if w == low), key=render_formula)

    return _report(logic, c, first_name)


def _report(
    logic: LogicId,
    c: _Compiled,
    name: Callable[[list[tuple[int, str]]], Formula] | None = None,
) -> InconsistencyReport:
    """The inconsistency flags of one record under ``logic``, read off its
    masks alone.  The combined flag and witness read one scan of the
    clashes; ``name``, from :func:`inconsistency_report`, names the witness."""
    full = c.universe.full_mask
    projection = _Compiled(c.universe, full, c.witnesses, c.dual)  # with no beliefs
    clashes = _clashes(logic, c)
    return InconsistencyReport(
        logic=logic,
        b_inconsistent=c.beliefs == 0,
        # D: true, whose mask is the full one
        d_inconsistent=_fired(logic, c, False, full) is not None,
        d_inconsistent_literal=_fired(logic, projection, False, full) is not None,
        combined_inconsistent=bool(clashes),
        witness_formula=name(clashes) if clashes and name is not None else None,
    )


# ---------------------------------------------------------------------------
# Finite consequence slices


def _slice_masks(logic: LogicId, compiled: _Compiled) -> int:
    """The entailed class sentences of one compiled set, as bits: the
    up-closure of the floor and the down-closure of the generators, each a
    subset-sum ("zeta") transform over the classes, one shift per world
    (Yates 1937; Björklund, Husfeldt, Kaski & Koivisto, STOC 2007)."""
    parts = _shape(logic, compiled)
    above, below = 1 << next(parts)[0], 0
    for generator, _, _ in parts:
        below |= 1 << generator
    for i, lane in enumerate(_lanes(compiled.universe.world_count)):
        above |= above << (1 << i) & lane
        below |= below >> (1 << i) & ~lane
    return above | below << compiled.universe.full_mask + 1


def consequence_masks(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> int:
    """The entailed class sentences, bit i for index i of the universe's
    class sentences (``B: c`` at bit c, ``D: c`` at bit 2^(2^n) + c).

    The slice has one belief and one disbelief per class, so it is finite:
    2 * 2^(2^n) sentences.  Guarded to n <= 2.  It depends only on the
    classes of ``gamma``'s bodies, so those are read off once, and the
    logic's shape is closed over every class at once.
    """
    _require_logic(logic)
    # checked before the classes are read: at 5 atoms, 1 << mask can be a
    # 2^32-bit int
    if universe.n > CONSEQUENCE_UNIVERSE_LIMIT:
        raise ValueError(
            f"consequence enumeration supports at most {CONSEQUENCE_UNIVERSE_LIMIT} "
            f"atoms, got {universe.n}"
        )
    return _slice_masks(logic, _class_record(_classes_of(gamma, universe), universe))


def consequences(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> frozenset[Sentence]:
    """Every entailed sentence over ``universe``, one per semantic class.

    The classes come from :func:`consequence_masks`, the sentences from the
    universe's shared class sentences, whose bodies are the representatives
    of :func:`plcore.formula_for_class`.
    """
    return _sentences_of(consequence_masks(logic, gamma, universe), universe)
