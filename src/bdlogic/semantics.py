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

``brute_force_entails`` enumerates the *entire* model space of a universe
(vectorized with numpy; roughly 10^6 WBD models at two atoms) and is the
independent oracle the decision procedures are validated against.  It knows
nothing about the characterizations it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

import numpy as np

from .plcore import (
    AtomUniverse,
    WorldSet,
    conjunction_mask,
    formula_for_class,
    models_of,
    universe_for,
)
from .syntax import Belief, Disbelief, Formula, InformationSet, Not, Sentence
from .verdicts import LogicId, Verdict

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
# Vectorized model spaces

_FAMILY_LOGIC_LIMIT = 2  # wbd/bd: 2^(2^(2^n)) families beyond this
_GBD_LIMIT = 3


class _ModelSpace:
    """Every model of one logic over one universe, as component arrays.

    Enumeration order is fixed: ``m`` ascending in the outer dimension, the
    family (or source ``n``) ascending in the inner dimension, families
    encoded as bitmasks over world-set indices (index == world-set mask).
    ``sat`` returns a boolean array over that full grid; for BD a validity
    grid masks out families that are not subsets of ``m``.
    """

    def __init__(self, logic: LogicId, universe: AtomUniverse):
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
        self.world_sets = 1 << universe.world_count  # S
        self.full_world_mask = universe.full_mask
        self.m_values = np.arange(self.world_sets, dtype=np.uint32).reshape(-1, 1)
        if logic == "gbd":
            # the inner dimension is the single source world set
            self.inner = np.arange(self.world_sets, dtype=np.uint32).reshape(1, -1)
        else:
            # the inner dimension is a nonempty family, encoded as a bitmask
            # over world-set indices
            self.inner = np.arange(
                1, 1 << self.world_sets, dtype=np.uint32
            ).reshape(1, -1)
        if logic == "bd":
            submasks = np.array(
                [self._submask(m) for m in range(self.world_sets)], dtype=np.uint32
            ).reshape(-1, 1)
            not_sub = submasks ^ np.uint32((1 << self.world_sets) - 1)
            self.valid = (self.inner & not_sub) == 0
        else:
            self.valid = None
        self._sat_cache: dict[tuple[bool, int], np.ndarray] = {}

    def _submask(self, m: int) -> int:
        return sum(1 << i for i in range(self.world_sets) if i & ~m == 0)

    def sat(self, kind_belief: bool, class_mask: int) -> np.ndarray:
        key = (kind_belief, class_mask)
        cached = self._sat_cache.get(key)
        if cached is not None:
            return cached
        if kind_belief:
            not_mask = np.uint32(self.full_world_mask & ~class_mask)
            column = (self.m_values & not_mask) == 0
            grid = np.broadcast_to(column, (self.m_values.shape[0], self.inner.shape[1]))
        else:
            neg = self.full_world_mask & ~class_mask
            if self.logic == "gbd":
                not_neg = np.uint32(self.full_world_mask & ~neg)
                row = (self.inner & not_neg) == 0
            else:
                good = sum(1 << i for i in range(self.world_sets) if i & ~neg == 0)
                row = (self.inner & np.uint32(good)) != 0
            grid = np.broadcast_to(row, (self.m_values.shape[0], self.inner.shape[1]))
        self._sat_cache[key] = grid
        return grid

    def sat_sentence(self, sentence: Sentence) -> np.ndarray:
        mask = models_of(sentence.body, self.universe)
        return self.sat(isinstance(sentence, Belief), mask)

    def gamma_grid(self, gamma: InformationSet) -> np.ndarray:
        grid = self.valid if self.valid is not None else None
        result = None
        for sentence in gamma:
            s = self.sat_sentence(sentence)
            result = s.copy() if result is None else (result & s)
        if result is None:
            shape = (self.m_values.shape[0], self.inner.shape[1])
            result = np.ones(shape, dtype=bool)
        if grid is not None:
            result = result & grid
        return result

    def decode(self, flat_index: int) -> Model:
        inner_count = self.inner.shape[1]
        m = int(flat_index // inner_count)
        inner_value = int(self.inner[0, flat_index % inner_count])
        if self.logic == "gbd":
            return ModelGBD(m=m, n=inner_value, universe=self.universe)
        family = frozenset(
            i for i in range(self.world_sets) if inner_value >> i & 1
        )
        cls = ModelWBD if self.logic == "wbd" else ModelBD
        return cls(m=m, family=family, universe=self.universe)


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
    violating = space.gamma_grid(gamma) & ~space.sat_sentence(alpha)
    flat = violating.reshape(-1)
    if not flat.any():
        return Verdict(logic=logic, query=alpha, entailed=True)
    first = int(np.argmax(flat))
    return Verdict(logic=logic, query=alpha, entailed=False, witness=space.decode(first))


def brute_force_consequences(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> frozenset[Sentence]:
    """Entailed slice over all class representatives, by model enumeration.

    Same answers as calling ``brute_force_entails`` once per sentence of the
    universe, but the model grid for ``gamma`` is built a single time.
    """
    space = _model_space(logic, universe.atoms)
    grid = space.gamma_grid(gamma)
    out: set[Sentence] = set()
    for mask in range(universe.full_mask + 1):
        rep = formula_for_class(mask, universe)
        for kind_belief in (True, False):
            sat = space.sat(kind_belief, mask)
            if not bool(np.any(grid & ~sat)):
                out.add(Belief(rep) if kind_belief else Disbelief(rep))
    return frozenset(out)


def enumerate_models(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> Iterator[Model]:
    """All models of ``gamma`` over ``universe``, in enumeration order."""
    space = _model_space(logic, universe.atoms)
    flat = space.gamma_grid(gamma).reshape(-1)
    for index in np.nonzero(flat)[0]:
        yield space.decode(int(index))


def count_models(logic: LogicId, gamma: InformationSet, universe: AtomUniverse) -> int:
    space = _model_space(logic, universe.atoms)
    return int(space.gamma_grid(gamma).sum())


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
        query_mask = models_of(alpha.body, u)
        members: set[int] = set()
        if isinstance(alpha, Disbelief):
            # one source per disbelief, placed where the query body holds
            for body in gamma.disbelief_bodies:
                candidates = m & query_mask & ~models_of(body, u)
                members.add(1 << _lowest_world(candidates) if candidates else 0)
            if not gamma.disbelief_bodies:
                members.add(1 << _lowest_world(m & query_mask) if m & query_mask else 0)
        else:
            for body in gamma.disbelief_bodies:
                candidates = m & ~models_of(body, u)
                members.add(1 << _lowest_world(candidates) if candidates else 0)
            if not gamma.disbelief_bodies:
                members.add(1 << _lowest_world(m) if m else 0)
        model = ModelBD(m=m, family=frozenset(members), universe=u)
    if not holds_all(model, gamma) or satisfies(model, alpha):
        raise CountermodelConstructionError(
            f"no valid countermodel for {alpha} under {logic}; "
            "was the query actually not entailed?"
        )
    return model


# ---------------------------------------------------------------------------
# Rendering


def _world_names(mask: int) -> str:
    worlds = [f"v{i}" for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ", ".join(worlds) + "}"


def render_model(model: Model) -> str:
    """Human-readable model: world sets by name, plus a valuation legend."""
    universe = model.universe
    lines = []
    if isinstance(model, ModelGBD):
        lines.append(f"M = {_world_names(model.m)}; N = {_world_names(model.n)}")
    else:
        members = ", ".join(_world_names(x) for x in sorted(model.family))
        lines.append(f"M = {_world_names(model.m)}; N = {{{members}}}")
    for v in range(universe.world_count):
        assignment = ", ".join(
            f"{name}={'true' if value else 'false'}"
            for name, value in universe.valuation(v).items()
        )
        lines.append(f"  v{v}: {assignment if assignment else '(no atoms)'}")
    return "\n".join(lines)


def _world_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def model_to_dict(model: Model) -> dict:
    universe = model.universe
    payload: dict = {
        "atoms": list(universe.atoms),
        "m": _world_list(model.m),
        "valuations": {
            f"v{v}": universe.valuation(v) for v in range(universe.world_count)
        },
    }
    if isinstance(model, ModelGBD):
        payload["type"] = "gbd"
        payload["n"] = _world_list(model.n)
    else:
        payload["type"] = "wbd" if isinstance(model, ModelWBD) else "bd"
        payload["family"] = [_world_list(x) for x in sorted(model.family)]
    return payload
