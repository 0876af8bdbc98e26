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
from functools import cached_property
from typing import Callable, Optional

from .plcore import (
    AtomUniverse,
    conjunction_mask,
    formula_for_class,
    models_of,
    universe_for,
)
from .syntax import (
    And,
    Belief,
    Bottom,
    Disbelief,
    Formula,
    InformationSet,
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
    "consequence_masks",
    "CONSEQUENCE_UNIVERSE_LIMIT",
]

CONSEQUENCE_UNIVERSE_LIMIT = 2


class _Compiled:
    """``gamma`` over one universe, as the masks the rules read.

    Each mask is computed when a rule first reads it, so a ``B:`` query
    under wbd/gbd/bd never evaluates a disbelieved formula.
    """

    def __init__(self, gamma: InformationSet, universe: AtomUniverse):
        self.gamma = gamma
        self.universe = universe

    @cached_property
    def beliefs(self) -> int:
        """Models of ``G_B``."""
        return conjunction_mask(self.gamma.belief_bodies, self.universe)

    @cached_property
    def dual(self) -> int:
        """Models of ``~G_D``."""
        return conjunction_mask(self.gamma.dual_bodies, self.universe)

    @cached_property
    def witnesses(self) -> list[tuple[int, Formula]]:
        """Disbelieved bodies by model-set mask, ties in rendering order.

        ``disbelief_bodies`` is already in rendering order and the sort is
        stable, so equal masks keep it without rendering again.
        """
        u = self.universe
        keyed = [(models_of(body, u), body) for body in self.gamma.disbelief_bodies]
        return sorted(keyed, key=lambda item: item[0])


# The last record handed out, as one (gamma, universe, record) tuple.  It is
# reused only for the very same gamma and universe objects, so the logics of
# one request share it and no request is answered from another's data; a
# concurrent caller at worst compiles again.
_last_compiled: Optional[tuple[InformationSet, AtomUniverse, _Compiled]] = None


def _compiled(gamma: InformationSet, universe: AtomUniverse) -> _Compiled:
    """``gamma`` compiled over ``universe``, shared with the previous call."""
    global _last_compiled
    last = _last_compiled
    if last is not None and last[0] is gamma and last[1] is universe:
        return last[2]
    record = _Compiled(gamma, universe)
    _last_compiled = (gamma, universe, record)
    return record


# A rule maps (compiled gamma, is the query a belief, query mask) to the
# rationale of an entailment, or None.  wbd/gbd/bd share the belief branch.

_BELIEVED = Rationale("B", description="classical consequence of the beliefs")
_UNSATISFIABLE = Rationale("DBot", description="the queried formula is unsatisfiable")


def _belief_rule(c: _Compiled, mask: int) -> Optional[Rationale]:
    return _BELIEVED if c.beliefs & ~mask == 0 else None


def _rule_wbd(c: _Compiled, belief: bool, mask: int) -> Optional[Rationale]:
    if belief:
        return _belief_rule(c, mask)
    if mask == 0:
        return _UNSATISFIABLE
    for witness, body in c.witnesses:
        if mask & ~witness == 0:
            return Rationale(
                "WD",
                witness_disbelief=body,
                description="the query implies a disbelieved formula",
            )
    return None


def _rule_gbd(c: _Compiled, belief: bool, mask: int) -> Optional[Rationale]:
    if belief:
        return _belief_rule(c, mask)
    if c.dual & mask == 0:
        return Rationale(
            "GD", description="the negated disbeliefs jointly refute the query"
        )
    return None


def _rule_bd(c: _Compiled, belief: bool, mask: int) -> Optional[Rationale]:
    if belief:
        return _belief_rule(c, mask)
    if mask == 0:
        return _UNSATISFIABLE
    if c.beliefs & mask == 0:
        return Rationale("BtoD", description="the beliefs classically refute the query")
    for witness, body in c.witnesses:
        if c.beliefs & mask & ~witness == 0:
            return Rationale(
                "D",
                witness_disbelief=body,
                description="the beliefs plus the query imply a disbelieved formula",
            )
    return None


def _rule_bn(c: _Compiled, belief: bool, mask: int) -> Optional[Rationale]:
    pool = c.beliefs & c.dual
    if pool & (~mask if belief else mask) == 0:
        return Rationale(
            "BN", description="consequence of the beliefs plus the negated disbeliefs"
        )
    return None


_RULES: dict[LogicId, Callable[[_Compiled, bool, int], Optional[Rationale]]] = {
    "wbd": _rule_wbd,
    "gbd": _rule_gbd,
    "bd": _rule_bd,
    "bn": _rule_bn,
}


def _decide(
    logic: LogicId,
    gamma: InformationSet,
    alpha: Sentence,
    universe: AtomUniverse | None,
) -> Verdict:
    u = universe if universe is not None else universe_for(gamma, alpha)
    belief = isinstance(alpha, Belief)
    rationale = _RULES[logic](_compiled(gamma, u), belief, models_of(alpha.body, u))
    return Verdict(
        logic=logic, query=alpha, entailed=rationale is not None, rationale=rationale
    )


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


def _combined_witness(logic: LogicId, c: _Compiled) -> Optional[Formula]:
    """Smallest-class candidate believed and disbelieved at once, if any."""
    beliefs = c.beliefs
    candidates = [(mask, body) for mask, body in c.witnesses if beliefs & ~mask == 0]
    if beliefs == 0 or (logic == "bn" and beliefs & c.dual == 0):
        candidates.append((0, Bottom()))
    if logic == "gbd" and beliefs & c.dual == 0:
        merged: Formula = Top()
        for body in c.gamma.belief_bodies:
            merged = body if isinstance(merged, Top) else And(merged, body)
        candidates.append((beliefs, merged))
    if not candidates:
        return None
    return min(candidates, key=lambda item: (item[0], render_formula(item[1])))[1]


def inconsistency_report(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse | None = None
) -> InconsistencyReport:
    """Evaluate all inconsistency notions for ``gamma`` under ``logic``.

    ``universe`` defaults to the atoms of ``gamma``.
    """
    if logic not in _RULES:
        raise ValueError(f"unknown logic {logic!r}; expected one of {LOGICS}")
    u = universe if universe is not None else universe_for(gamma)
    rule = _RULES[logic]
    compiled = _compiled(gamma, u)
    # D: true, whose mask is the full one
    d_inconsistent = rule(compiled, False, u.full_mask) is not None
    projection = _Compiled(InformationSet(frozenset(gamma.disbeliefs)), u)
    d_literal = rule(projection, False, u.full_mask) is not None
    witness = _combined_witness(logic, compiled)
    return InconsistencyReport(
        logic=logic,
        b_inconsistent=compiled.beliefs == 0,
        d_inconsistent=d_inconsistent,
        d_inconsistent_literal=d_literal,
        combined_inconsistent=witness is not None,
        witness_formula=witness,
    )


# ---------------------------------------------------------------------------
# Finite consequence slices


def consequence_masks(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> tuple[int, int]:
    """The entailed belief classes and disbelief classes, bit c for class c.

    The slice has one belief and one disbelief per class, so it is finite:
    2 * 2^(2^n) sentences scanned.  Guarded to n <= 2.  ``gamma`` is
    compiled once and each class mask is tested directly.
    """
    if universe.n > CONSEQUENCE_UNIVERSE_LIMIT:
        raise ValueError(
            f"consequence enumeration supports at most {CONSEQUENCE_UNIVERSE_LIMIT} "
            f"atoms, got {universe.n}"
        )
    rule, compiled = _RULES[logic], _Compiled(gamma, universe)
    masks = range(universe.full_mask + 1)
    return tuple(  # type: ignore[return-value]
        sum(1 << m for m in masks if rule(compiled, belief, m) is not None)
        for belief in (True, False)
    )


def consequences(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> frozenset[Sentence]:
    """Every entailed sentence over ``universe``, one per semantic class.

    The classes come from :func:`consequence_masks`; a representative from
    :func:`formula_for_class` is built only for the entailed ones.
    """
    beliefs, disbeliefs = consequence_masks(logic, gamma, universe)
    return frozenset(
        kind(formula_for_class(mask, universe))
        for mask in range(universe.full_mask + 1)
        for kind, bits in ((Belief, beliefs), (Disbelief, disbeliefs))
        if bits >> mask & 1
    )
