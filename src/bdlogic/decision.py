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

These closed forms are validated against the brute-force model oracle and
the rule-closure engine by the metatheory suite; they are not trusted on
their own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .plcore import (
    AtomUniverse,
    conjunction_mask,
    formula_for_class,
    models_of,
    semantic_class,
    universe_for,
)
from .syntax import (
    And,
    Belief,
    Bottom,
    Disbelief,
    Formula,
    InformationSet,
    Not,
    Sentence,
    Top,
    render_formula,
)
from .verdicts import LOGICS, LogicId, Rationale, Verdict

__all__ = [
    "decide",
    "decide_wbd",
    "decide_gbd",
    "decide_bd",
    "decide_bn",
    "InconsistencyReport",
    "inconsistency_report",
    "consequences",
    "CONSEQUENCE_UNIVERSE_LIMIT",
]

CONSEQUENCE_UNIVERSE_LIMIT = 2


def _not_entailed(logic: LogicId, alpha: Sentence) -> Verdict:
    return Verdict(logic=logic, query=alpha, entailed=False)


def _sorted_disbeliefs(
    gamma: InformationSet, universe: AtomUniverse
) -> list[tuple[int, Formula]]:
    """Disbelieved bodies by model-set mask, ties in rendering order.

    ``disbelief_bodies`` is already in rendering order and the sort is
    stable, so equal masks keep it without rendering again.
    """
    keyed = [(models_of(body, universe), body) for body in gamma.disbelief_bodies]
    return sorted(keyed, key=lambda item: item[0])


def decide_wbd(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    u = universe if universe is not None else universe_for(gamma, alpha)
    mask = models_of(alpha.body, u)
    if isinstance(alpha, Belief):
        if conjunction_mask(gamma.belief_bodies, u) & ~mask == 0:
            return Verdict(
                logic="wbd",
                query=alpha,
                entailed=True,
                rationale=Rationale("B", description="classical consequence of the beliefs"),
            )
        return _not_entailed("wbd", alpha)
    if mask == 0:
        return Verdict(
            logic="wbd",
            query=alpha,
            entailed=True,
            rationale=Rationale("DBot", description="the queried formula is unsatisfiable"),
        )
    for witness_mask, body in _sorted_disbeliefs(gamma, u):
        if mask & ~witness_mask == 0:
            return Verdict(
                logic="wbd",
                query=alpha,
                entailed=True,
                rationale=Rationale(
                    "WD",
                    witness_disbelief=body,
                    description="the query implies a disbelieved formula",
                ),
            )
    return _not_entailed("wbd", alpha)


def decide_gbd(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    u = universe if universe is not None else universe_for(gamma, alpha)
    mask = models_of(alpha.body, u)
    if isinstance(alpha, Belief):
        if conjunction_mask(gamma.belief_bodies, u) & ~mask == 0:
            return Verdict(
                logic="gbd",
                query=alpha,
                entailed=True,
                rationale=Rationale("B", description="classical consequence of the beliefs"),
            )
        return _not_entailed("gbd", alpha)
    dual = conjunction_mask(gamma.dual_bodies, u)
    if dual & mask == 0:
        return Verdict(
            logic="gbd",
            query=alpha,
            entailed=True,
            rationale=Rationale(
                "GD",
                description="the negated disbeliefs jointly refute the query",
            ),
        )
    return _not_entailed("gbd", alpha)


def decide_bd(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    u = universe if universe is not None else universe_for(gamma, alpha)
    mask = models_of(alpha.body, u)
    beliefs = conjunction_mask(gamma.belief_bodies, u)
    if isinstance(alpha, Belief):
        if beliefs & ~mask == 0:
            return Verdict(
                logic="bd",
                query=alpha,
                entailed=True,
                rationale=Rationale("B", description="classical consequence of the beliefs"),
            )
        return _not_entailed("bd", alpha)
    if mask == 0:
        return Verdict(
            logic="bd",
            query=alpha,
            entailed=True,
            rationale=Rationale("DBot", description="the queried formula is unsatisfiable"),
        )
    if beliefs & mask == 0:
        return Verdict(
            logic="bd",
            query=alpha,
            entailed=True,
            rationale=Rationale(
                "BtoD", description="the beliefs classically refute the query"
            ),
        )
    for witness_mask, body in _sorted_disbeliefs(gamma, u):
        if beliefs & mask & ~witness_mask == 0:
            return Verdict(
                logic="bd",
                query=alpha,
                entailed=True,
                rationale=Rationale(
                    "D",
                    witness_disbelief=body,
                    description="the beliefs plus the query imply a disbelieved formula",
                ),
            )
    return _not_entailed("bd", alpha)


def decide_bn(
    gamma: InformationSet, alpha: Sentence, universe: AtomUniverse | None = None
) -> Verdict:
    u = universe if universe is not None else universe_for(gamma, alpha)
    mask = models_of(alpha.body, u)
    pool = conjunction_mask(gamma.belief_bodies, u) & conjunction_mask(
        gamma.dual_bodies, u
    )
    if isinstance(alpha, Belief):
        entailed = pool & ~mask == 0
    else:
        entailed = pool & mask == 0
    if entailed:
        return Verdict(
            logic="bn",
            query=alpha,
            entailed=True,
            rationale=Rationale(
                "BN",
                description="consequence of the beliefs plus the negated disbeliefs",
            ),
        )
    return _not_entailed("bn", alpha)


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
    if logic not in _DECIDERS:
        raise ValueError(f"unknown logic {logic!r}; expected one of {LOGICS}")
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


def _combined_witness(
    logic: LogicId, gamma: InformationSet, u: AtomUniverse
) -> Optional[Formula]:
    """Smallest-class candidate believed and disbelieved at once, if any."""
    beliefs = conjunction_mask(gamma.belief_bodies, u)
    candidates: list[Formula] = []
    if beliefs == 0:
        candidates.append(Bottom())
    for body in gamma.disbelief_bodies:
        if beliefs & ~models_of(body, u) == 0:
            candidates.append(body)
    if logic == "gbd":
        if beliefs & conjunction_mask(gamma.dual_bodies, u) == 0:
            merged: Formula = Top()
            for body in gamma.belief_bodies:
                merged = body if isinstance(merged, Top) else And(merged, body)
            candidates.append(merged)
    if logic == "bn":
        if beliefs & conjunction_mask(gamma.dual_bodies, u) == 0:
            candidates.append(Bottom())
    if not candidates:
        return None
    return min(
        candidates, key=lambda f: (semantic_class(f, u), render_formula(f))
    )


def inconsistency_report(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse | None = None
) -> InconsistencyReport:
    """Evaluate all inconsistency notions for ``gamma`` under ``logic``.

    ``universe`` defaults to the atoms of ``gamma``.
    """
    if logic not in _DECIDERS:
        raise ValueError(f"unknown logic {logic!r}; expected one of {LOGICS}")
    u = universe if universe is not None else universe_for(gamma)
    b_inconsistent = conjunction_mask(gamma.belief_bodies, u) == 0
    top_bar = Disbelief(Top())
    d_inconsistent = _DECIDERS[logic](gamma, top_bar, u).entailed
    projection = InformationSet(frozenset(gamma.disbeliefs))
    d_literal = _DECIDERS[logic](projection, top_bar, u).entailed
    witness = _combined_witness(logic, gamma, u)
    return InconsistencyReport(
        logic=logic,
        b_inconsistent=b_inconsistent,
        d_inconsistent=d_inconsistent,
        d_inconsistent_literal=d_literal,
        combined_inconsistent=witness is not None,
        witness_formula=witness,
    )


# ---------------------------------------------------------------------------
# Finite consequence slices


def consequences(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> frozenset[Sentence]:
    """Every entailed sentence over ``universe``, one per semantic class.

    The slice has one belief and one disbelief per class (class
    representatives from :func:`formula_for_class`), so it is finite:
    2 * 2^(2^n) sentences scanned.  Guarded to n <= 2.
    """
    if universe.n > CONSEQUENCE_UNIVERSE_LIMIT:
        raise ValueError(
            f"consequence enumeration supports at most {CONSEQUENCE_UNIVERSE_LIMIT} "
            f"atoms, got {universe.n}"
        )
    decider = _DECIDERS[logic]
    entailed: set[Sentence] = set()
    for mask in range(universe.full_mask + 1):
        representative = formula_for_class(mask, universe)
        for sentence in (Belief(representative), Disbelief(representative)):
            if decider(gamma, sentence, universe).entailed:
                entailed.add(sentence)
    return frozenset(entailed)
