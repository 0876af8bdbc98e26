"""Model semantics and the brute-force enumeration oracle.

Three model classes over a finite atom universe:

* ``ModelWBD`` — a world set ``m`` plus a nonempty *family* of world sets
  (one evidence source per disbelief; sources are unconstrained by ``m``).
* ``ModelGBD`` — a world set ``m`` plus a single source world set ``n``.
* ``ModelBD``  — like WBD but introspective: every family member must be a
  subset of ``m``.

Satisfaction: a belief ``B: f`` holds iff ``m`` is contained in the models
of ``f``; a disbelief ``D: f`` holds iff some family member (for GBD: the
single source) is contained in the models of ``!f``.  Empty family members
are permitted — they are what lets a model with an empty ``m`` exist at all
in BD, so information sets with inconsistent beliefs still have models.

``brute_force_entails`` ranges over the *entire* model space of a universe
and is the independent oracle the decision procedures are validated
against.  It knows nothing about the characterizations it checks.  Since a
belief constrains only ``m`` and a disbelief only the sources, it reduces a
set of sentences once per axis (an int over ``m`` and an int over ``n`` or
the families, one bit per world set, source or family) instead of testing
every (m, sources) pair.  Each model space builds every class's two axes
once, and ``_ModelSpace.slice`` answers the consequence slice of a set in
one pass over its ``m``; a set and its slice are each one int of class
sentences, as ``plcore`` encodes them.  The space stays family-level: every
nonempty family is one bit.  All of it is plain Python ints: no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, or_
from typing import Iterator, Union

from .plcore import (
    AtomUniverse,
    WorldSet,
    _classes_of,
    _halves,
    _sentences_of,
    _subsets,
    conjunction_mask,
    members,
    models_of,
    universe_for,
)
from .syntax import Belief, Disbelief, InformationSet, Not, Sentence
from .verdicts import LogicId, Verdict
from .verdicts import _require_logic

__all__ = [
    "ModelWBD",
    "ModelGBD",
    "ModelBD",
    "Model",
    "ScaleLimitError",
    "CountermodelConstructionError",
    "satisfies",
    "holds_all",
    "brute_force_entails",
    "brute_force_consequences",
    "enumerate_models",
    "count_models",
    "construct_countermodel",
    "render_model",
    "model_to_dict",
]


class ScaleLimitError(ValueError):
    """The universe is too large for full model enumeration."""


class CountermodelConstructionError(RuntimeError):
    """A constructed countermodel failed its own validity check."""


def _check_world_set(mask: int, universe: AtomUniverse, what: str) -> None:
    if mask < 0 or mask > universe.full_mask:
        raise ValueError(f"{what} {mask:#x} outside universe of {universe.n} atoms")


@dataclass(frozen=True)
class ModelWBD:
    """World set plus a nonempty family of evidence sources."""

    m: WorldSet
    family: frozenset[WorldSet]
    universe: AtomUniverse

    def __post_init__(self) -> None:
        _check_world_set(self.m, self.universe, "m")
        if not self.family:
            raise ValueError("family must be nonempty")
        for member in self.family:
            _check_world_set(member, self.universe, "family member")


@dataclass(frozen=True)
class ModelGBD:
    """World set plus a single source world set."""

    m: WorldSet
    n: WorldSet
    universe: AtomUniverse

    def __post_init__(self) -> None:
        _check_world_set(self.m, self.universe, "m")
        _check_world_set(self.n, self.universe, "n")


@dataclass(frozen=True)
class ModelBD:
    """World set plus a nonempty family of sources drawn from within it."""

    m: WorldSet
    family: frozenset[WorldSet]
    universe: AtomUniverse

    def __post_init__(self) -> None:
        _check_world_set(self.m, self.universe, "m")
        if not self.family:
            raise ValueError("family must be nonempty")
        for member in self.family:
            if member & ~self.m:
                raise ValueError(
                    f"family member {member:#x} is not a subset of m {self.m:#x}"
                )


Model = Union[ModelWBD, ModelGBD, ModelBD]


def satisfies(model: Model, sentence: Sentence) -> bool:
    """Does ``model`` satisfy ``sentence``?"""
    universe = model.universe
    mask = models_of(sentence.body, universe)
    if isinstance(sentence, Belief):
        return model.m & ~mask == 0
    neg = universe.full_mask & ~mask
    if isinstance(model, ModelGBD):
        return model.n & ~neg == 0
    return any(member & ~neg == 0 for member in model.family)


def holds_all(model: Model, gamma: InformationSet) -> bool:
    return all(satisfies(model, s) for s in gamma)


# ---------------------------------------------------------------------------
# Model spaces, reduced per axis

_FAMILY_LOGIC_LIMIT = 2  # wbd/bd: 2^(2^(2^n)) families beyond this
_GBD_LIMIT = 3


class _ModelSpace:
    """Every model of one logic over one universe, one axis at a time.

    A model is a pair ``(m, inner)``: ``m`` is a world set, and ``inner``
    is the source world set ``n`` (gbd) or a nonempty family encoded as a
    bitmask over world-set indices (wbd/bd; index == world-set mask).
    Enumeration order is fixed: ``m`` ascending, then ``inner`` ascending.

    A belief constrains only ``m`` and a disbelief only ``inner``, so a set
    of sentences is a column over ``m`` (an int, bit m for each world set
    m) and a row over ``inner`` (an int, bit v for each inner value v;
    ``valid`` has the bits that are one: gbd's sources 0..S-1, wbd's and
    bd's nonempty families 1..2^S-1), and its models are the pairs whose
    two entries hold.  bd also needs every family member within ``m``:
    ``fits[m]`` holds the inner values that may pair with ``m`` (for wbd
    and gbd, every valid one), so ``row & fits[m]`` says whether ``m``
    makes a model and with which values.

    ``fits`` and every class's disbelief row (``rows``), its complement
    (``complements``) and its belief column (``beliefs``) are built once
    per space, so a set is the AND of its classes' entries.  A set of class
    sentences comes in as one int (bit c for ``B: c``, bit S + c for
    ``D: c``, as ``plcore._class_sentences`` lists them): ``axes`` reads
    one, and ``slice`` answers its consequence slice.  ``models`` lists
    the models of a column and row in enumeration order.
    """

    def __init__(self, logic: LogicId, universe: AtomUniverse):
        _require_logic(logic)
        if logic in ("wbd", "bd") and universe.n > _FAMILY_LOGIC_LIMIT:
            raise ScaleLimitError(
                f"{logic} enumeration supports at most {_FAMILY_LOGIC_LIMIT} atoms, "
                f"got {universe.n}"
            )
        if logic == "gbd" and universe.n > _GBD_LIMIT:
            raise ScaleLimitError(
                f"gbd enumeration supports at most {_GBD_LIMIT} atoms, got {universe.n}"
            )
        if logic == "bn":
            raise ValueError("bn has no model semantics to enumerate")
        self.logic = logic
        self.universe = universe
        self.world_sets = s = 1 << universe.world_count  # S, also the class count
        self.every_set = (1 << s) - 1
        full = universe.full_mask
        # the world sets within the complement of class c: the sources that
        # refute it, and the members that make a family refute it
        good = [_subsets(full & ~c) for c in range(s)]
        if logic == "gbd":
            self.valid = self.every_set
            self.rows = good
        else:
            self.valid = (1 << (1 << s)) - 2
            # a family refutes c unless all its members lie outside ``good``
            self.rows = [self.valid & ~_subsets(self.every_set & ~g) for g in good]
        if logic == "bd":
            # the families of the world sets within m
            self.fits = [self.valid & _subsets(_subsets(m)) for m in range(s)]
        else:
            self.fits = [self.valid] * s
        self.complements = [self.valid & ~row for row in self.rows]
        self.beliefs = [_subsets(c) for c in range(s)]

    def axes(self, bits: int) -> tuple[int, int]:
        """The set of class sentences ``bits`` as (column over ``m``, row
        over ``inner``)."""
        sb, sd = _halves(bits, self.universe)
        column, row = self.every_set, self.valid
        for c in members(sb):
            column &= self.beliefs[c]
        for c in members(sd):
            row &= self.rows[c]
        return column, row

    def slice(self, bits: int) -> int:
        """The entailed slice of the set of class sentences ``bits``, as an
        int: bit c for ``B: c`` and bit S + c for ``D: c``."""
        column, row = self.axes(bits)
        # the m that make a model, and the inner values some model reaches
        admitted = reached = 0
        for m in members(column):
            inner = row & self.fits[m]
            if inner:
                admitted |= 1 << m
                reached |= inner
        # ``B: c`` holds iff every admitted m lies within c, ``D: c`` iff
        # every reached value refutes c
        believed = disbelieved = 0
        for c in range(self.world_sets):
            if admitted & ~self.beliefs[c] == 0:
                believed |= 1 << c
            if reached & self.complements[c] == 0:
                disbelieved |= 1 << c
        return believed | disbelieved << self.world_sets

    def models(self, column: int, row: int) -> Iterator[Model]:
        for m in members(column):
            for inner_value in members(row & self.fits[m]):
                yield self.decode(m, inner_value)

    def count(self, column: int, row: int) -> int:
        return sum((row & self.fits[m]).bit_count() for m in members(column))

    def decode(self, m: int, inner_value: int) -> Model:
        if self.logic == "gbd":
            return ModelGBD(m=m, n=inner_value, universe=self.universe)
        cls = ModelWBD if self.logic == "wbd" else ModelBD
        return cls(m=m, family=frozenset(members(inner_value)), universe=self.universe)


@lru_cache(maxsize=32)
def _model_space(logic: LogicId, atoms: tuple[str, ...]) -> _ModelSpace:
    return _ModelSpace(logic, AtomUniverse(atoms))


def brute_force_entails(
    logic: LogicId,
    gamma: InformationSet,
    alpha: Sentence,
    universe: AtomUniverse | None = None,
) -> Verdict:
    """Entailment by exhaustive model enumeration.

    Returns an entailed verdict, or the first counterexample model in the
    fixed enumeration order.
    """
    u = universe if universe is not None else universe_for(gamma, alpha)
    space = _model_space(logic, u.atoms)
    column, row = space.axes(_classes_of(gamma, u))
    mask = models_of(alpha.body, u)
    if isinstance(alpha, Belief):
        column = column & ~space.beliefs[mask]
    else:
        row = row & space.complements[mask]
    witness = next(space.models(column, row), None)
    if witness is None:
        return Verdict(logic=logic, query=alpha, entailed=True)
    return Verdict(logic=logic, query=alpha, entailed=False, witness=witness)


def brute_force_consequences(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> frozenset[Sentence]:
    """Entailed slice over all class representatives, by model enumeration.

    Same answers as calling ``brute_force_entails`` once per sentence of the
    universe, but ``gamma`` is reduced to its two axes a single time and
    every class is tested at once by ``_ModelSpace.slice``.
    """
    space = _model_space(logic, universe.atoms)
    return _sentences_of(space.slice(_classes_of(gamma, universe)), universe)


def enumerate_models(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> Iterator[Model]:
    """All models of ``gamma`` over ``universe``, in enumeration order."""
    space = _model_space(logic, universe.atoms)
    yield from space.models(*space.axes(_classes_of(gamma, universe)))


def count_models(logic: LogicId, gamma: InformationSet, universe: AtomUniverse) -> int:
    space = _model_space(logic, universe.atoms)
    return space.count(*space.axes(_classes_of(gamma, universe)))


# ---------------------------------------------------------------------------
# Canonical countermodels


def _lowest_world(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def construct_countermodel(
    logic: LogicId,
    gamma: InformationSet,
    alpha: Sentence,
    universe: AtomUniverse | None = None,
) -> Model:
    """Build the canonical countermodel for a non-entailed query.

    Caller contract: the decision procedure said ``alpha`` is not entailed
    by ``gamma`` under ``logic``.  The result satisfies every sentence of
    ``gamma`` and falsifies ``alpha`` (verified; a failure raises
    :class:`CountermodelConstructionError`).
    """
    _require_logic(logic)
    if logic == "bn":
        raise ValueError("bn has no model semantics; no countermodel exists")
    u = universe if universe is not None else universe_for(gamma, alpha)
    m = conjunction_mask(gamma.belief_bodies, u)
    model: Model
    if logic == "wbd":
        family = frozenset(
            models_of(Not(body), u) for body in gamma.disbelief_bodies
        ) or frozenset({u.full_mask})
        model = ModelWBD(m=m, family=family, universe=u)
    elif logic == "gbd":
        n = conjunction_mask(gamma.dual_bodies, u)
        model = ModelGBD(m=m, n=n, universe=u)
    else:
        # one source per disbelief, at the lowest world of ``scope`` outside
        # it; for a disbelief query, ``scope`` keeps only where its body holds
        scope = m & models_of(alpha.body, u) if isinstance(alpha, Disbelief) else m
        members: set[int] = set()
        for body in gamma.disbelief_bodies:
            candidates = scope & ~models_of(body, u)
            members.add(1 << _lowest_world(candidates) if candidates else 0)
        if not gamma.disbelief_bodies:
            members.add(1 << _lowest_world(scope) if scope else 0)
        model = ModelBD(m=m, family=frozenset(members), universe=u)
    if not holds_all(model, gamma) or satisfies(model, alpha):
        raise CountermodelConstructionError(
            f"no valid countermodel for {alpha} under {logic}; "
            "was the query actually not entailed?"
        )
    return model


# ---------------------------------------------------------------------------
# Rendering


def _world_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _world_names(mask: int) -> str:
    return "{" + ", ".join(f"v{i}" for i in _world_list(mask)) + "}"


def _valuation_table(empty, parts, join) -> list:
    """Valuation v's entry at index v, built by doubling from each atom's
    (false, true) parts: v and v + 2^k agree below atom k."""
    table = [empty]
    for false, true in parts:
        table = [*map(join, table, repeat(false)), *map(join, table, repeat(true))]
    return table


def render_model(model: Model) -> str:
    """Human-readable model: world sets by name, plus a valuation legend."""
    if isinstance(model, ModelGBD):
        head = f"M = {_world_names(model.m)}; N = {_world_names(model.n)}"
    else:
        members = ", ".join(_world_names(x) for x in sorted(model.family))
        head = f"M = {_world_names(model.m)}; N = {{{members}}}"
    parts = [((f"{a}=false",), (f"{a}=true",)) for a in model.universe.atoms]
    table = _valuation_table((), parts, add)
    legend = [f"  v{v}: {', '.join(a) or '(no atoms)'}" for v, a in enumerate(table)]
    return "\n".join([head, *legend])


def model_to_dict(model: Model) -> dict:
    universe = model.universe
    parts = [({a: False}, {a: True}) for a in universe.atoms]
    valuations = _valuation_table({}, parts, or_)
    payload: dict = {
        "atoms": list(universe.atoms),
        "m": _world_list(model.m),
        "valuations": {f"v{v}": a for v, a in enumerate(valuations)},
    }
    if isinstance(model, ModelGBD):
        payload["type"] = "gbd"
        payload["n"] = _world_list(model.n)
    else:
        payload["type"] = "wbd" if isinstance(model, ModelWBD) else "bd"
        payload["family"] = [_world_list(x) for x in sorted(model.family)]
    return payload
