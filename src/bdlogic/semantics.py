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
set of sentences once per axis (a boolean vector over ``m`` and a
bit-packed row over ``n`` or the families, one bit per source or family in
``uint64`` words) instead of testing every (m, sources) pair.  Each model
space packs every class's row once, and ``_ModelSpace.slices`` answers the
consequence slices of a whole batch of sets in a few array operations, in
chunks whose largest temporary stays within ``_CHUNK_WORDS`` words; a set
and its slice are each one int of class sentences, as ``plcore`` encodes
them.  The space stays family-level: every nonempty family is one bit.
numpy is imported only when a model space is first built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, or_
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .plcore import (
    AtomUniverse,
    WorldSet,
    _classes_of,
    _halves,
    _sentences_of,
    conjunction_mask,
    members,
    models_of,
    universe_for,
)
from .syntax import Belief, Disbelief, InformationSet, Not, Sentence
from .verdicts import LogicId, Verdict
from .verdicts import _require_logic

if TYPE_CHECKING:
    import numpy as np

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
# One ``slices`` chunk's sets-by-classes-by-words temporary stays within
# this many words (128 KiB): one set's at two atoms for wbd and bd.
_CHUNK_WORDS = 1 << 14


class _ModelSpace:
    """Every model of one logic over one universe, one axis at a time.

    A model is a pair ``(m, inner)``: ``m`` is a world set, and ``inner``
    is the source world set ``n`` (gbd) or a nonempty family encoded as a
    bitmask over world-set indices (wbd/bd; index == world-set mask).
    Enumeration order is fixed: ``m`` ascending, then ``inner`` ascending.

    A belief constrains only ``m`` and a disbelief only ``inner``, so a set
    of sentences is a boolean column over ``m`` and a row over ``inner``,
    and its models are the pairs whose two entries hold.  The row is
    bit-packed: one bit per ``inner`` value (``inner[bit]`` says which,
    ``valid`` has the bits that hold one), in little-endian ``uint64`` words.  bd also needs every member within
    ``m``: family ``f`` fits ``m`` iff ``need[f] & ~m == 0``, ``need[f]``
    being the union of its members.  So bd lays its families out in groups
    of equal ``need`` (ascending, bitmask ascending within a group); wbd
    and gbd have one group.  Each group starts on a word boundary and its
    last word is padded with zero bits, so which groups a row reaches is
    one ``bitwise_or.reduceat`` over its words, and which ``m`` it admits
    is a lookup in the groups-by-``m`` table ``fits``.

    Every class's packed disbelief row (``rows``), its complement
    (``complements``) and its belief column (``beliefs``, one row of a
    classes-by-``m`` matrix, and ``outside``, its negation) are built once
    per space, so a set is the AND of its classes' entries.  A set of class
    sentences comes in as one int (bit c for ``B: c``, bit S + c for
    ``D: c``, as ``plcore._class_sentences`` lists them): ``axes`` reads
    one, and ``slices`` answers the consequence slices of many at once, a
    chunk of sets per few array operations.  Rows are unpacked only to
    decode a model.
    """

    def __init__(self, logic: LogicId, universe: AtomUniverse):
        import numpy as np

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
        # world sets, m values and classes; within the scale limits every
        # world set and family bitmask fits in 16 bits
        worlds = np.arange(s, dtype=np.uint16)
        if logic == "gbd":
            values = worlds
        else:
            values = np.arange(1, 1 << s, dtype=np.uint16)
        if logic == "bd":
            # need[f] by doubling: adding world set i to the families below
            # bit i ORs i into their union
            need = np.zeros(1 << s, dtype=np.uint16)
            for i in range(s):
                need[1 << i : 2 << i] = need[: 1 << i] | np.uint16(i)
            values = values[np.argsort(need[1:], kind="stable")]
            need = need[values]
            first = np.flatnonzero(np.concatenate(([True], need[1:] != need[:-1])))
            self.fits = (need[first][:, None] & ~worlds[None, :]) == 0
        else:
            first = np.zeros(1, dtype=np.intp)
            self.fits = np.ones((1, s), dtype=bool)
        sizes = np.diff(np.append(first, values.shape[0]))
        self.group_words = -(-sizes // 64)
        self.starts = np.concatenate(([0], np.cumsum(self.group_words)[:-1]))
        self.inner = np.zeros(int(self.group_words.sum()) * 64, dtype=np.uint16)
        real = np.zeros(self.inner.shape[0], dtype=bool)
        # group g: values[first[g]:][:sizes[g]] from word starts[g] on
        for start, head, size in zip(self.starts.tolist(), first.tolist(), sizes.tolist()):
            self.inner[64 * start : 64 * start + size] = values[head : head + size]
            real[64 * start : 64 * start + size] = True
        self.valid = _pack(real)
        # sets per ``slices`` chunk
        self.chunk = max(1, _CHUNK_WORDS // (s * self.valid.shape[0]))
        if logic == "gbd":
            # the source refutes f: n within the complement of f
            self.rows = _pack((self.inner[None, :] & worlds[:, None]) == 0)
        else:
            # some member within the complement of f: world set i qualifies
            # iff it misses c.  One class at a time, so no boolean
            # classes-by-families matrix is built.
            self.rows = np.empty((s, self.valid.shape[0]), dtype=self.valid.dtype)
            for c in range(s):
                good = sum(1 << i for i in range(s) if i & c == 0)
                self.rows[c] = _pack((self.inner & np.uint16(good)) != 0)
        self.rows &= self.valid
        self.complements = ~self.rows
        self.complements &= self.valid
        full = np.uint16(universe.full_mask)
        self.beliefs = (worlds[None, :] & (full & ~worlds)[:, None]) == 0
        self.outside = ~self.beliefs
        # set bits per byte value, for ``count``
        self.ones = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)

    def axes(self, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """The set of class sentences ``bits`` as (column over ``m``, packed
        row over ``inner``)."""
        sb, sd = _halves(bits, self.universe)
        column = self.beliefs[list(members(sb))].all(axis=0)
        row = self.valid
        for mask in members(sd):
            row = row & self.rows[mask]
        return column, row

    def admitted(self, rows: np.ndarray) -> np.ndarray:
        """Over ``m``: does some ``inner`` value of a row make a model with it
        (one row, or a stack of rows)."""
        import numpy as np

        return (np.bitwise_or.reduceat(rows, self.starts, axis=-1) != 0) @ self.fits

    def slices(self, sets: Sequence[int]) -> list[int]:
        """The entailed slice of each set of class sentences, in order; sets
        and slices are ints, bit c for ``B: c`` and bit S + c for ``D: c``.

        The sets go through in chunks whose sets-by-classes-by-words
        temporary stays within ``_CHUNK_WORDS``.
        """
        out: list[int] = []
        for at in range(0, len(sets), self.chunk):
            out += self._chunk(sets[at : at + self.chunk])
        return out

    def _chunk(self, sets: Sequence[int]) -> list[int]:
        import numpy as np

        # each set's 2S sentence bits, in whole bytes
        s, width = self.world_sets, -(-self.world_sets // 4)
        octets = np.frombuffer(
            b"".join(bits.to_bytes(width, "little") for bits in sets), dtype=np.uint8
        )
        chosen = np.unpackbits(octets, bitorder="little").reshape(len(sets), -1)
        believes = chosen[:, :s].view(bool)
        disbelieves = chosen[:, s : 2 * s].view(bool)
        # per set, the m within every believed class
        column = ~(believes @ self.outside)
        # per set, the valid row ANDed with each disbelieved class's row
        rows = np.repeat(self.valid[None], len(sets), axis=0)
        for c in members(reduce(or_, sets) >> s):
            np.bitwise_and(rows, self.rows[c], out=rows, where=disbelieves[:, c, None])
        # ``B: c`` holds iff every m that makes a model lies within c
        believed = ~((column & self.admitted(rows)) @ self.outside.T)
        # ``D: c`` holds iff no group that fits a column m keeps a family once
        # the families satisfying ``D: c`` are dropped
        kept = np.bitwise_or.reduceat(
            rows[:, None, :] & self.complements, self.starts, axis=2
        ) != 0
        fit = column @ self.fits.T
        disbelieved = ~(kept @ fit[:, :, None])[:, :, 0]
        # bit c for B: c, then bit S + c for D: c, as the class sentences lie
        packed = np.packbits(
            np.concatenate((believed, disbelieved), axis=1), axis=1, bitorder="little"
        )
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def fitting(self, row: np.ndarray, m: int) -> np.ndarray:
        """The ``inner`` values of ``row`` that make a model with ``m``."""
        import numpy as np

        words = np.where(np.repeat(self.fits[:, m], self.group_words), row, 0)
        octets = words.astype("<u8", copy=False).view(np.uint8)
        return self.inner[np.unpackbits(octets, bitorder="little").view(bool)]

    def first_model(self, column: np.ndarray, row: np.ndarray) -> Model | None:
        """The first model of ``(column, row)`` in enumeration order."""
        import numpy as np

        candidates = column & self.admitted(row)
        if not candidates.any():
            return None
        m = int(np.argmax(candidates))
        return self.decode(m, int(self.fitting(row, m).min()))

    def models(self, column: np.ndarray, row: np.ndarray) -> Iterator[Model]:
        import numpy as np

        for m in np.flatnonzero(column):
            for inner_value in np.sort(self.fitting(row, int(m))):
                yield self.decode(int(m), int(inner_value))

    def count(self, column: np.ndarray, row: np.ndarray) -> int:
        import numpy as np

        # families per group: a population count by byte lookup
        per_byte = self.ones[row.astype("<u8", copy=False).view(np.uint8)]
        per_group = np.add.reduceat(per_byte, self.starts * 8, dtype=np.int64)
        return int((per_group @ self.fits)[column].sum())

    def decode(self, m: int, inner_value: int) -> Model:
        if self.logic == "gbd":
            return ModelGBD(m=m, n=inner_value, universe=self.universe)
        family = frozenset(
            i for i in range(self.world_sets) if inner_value >> i & 1
        )
        cls = ModelWBD if self.logic == "wbd" else ModelBD
        return cls(m=m, family=family, universe=self.universe)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Boolean rows (length a multiple of 64) as ``uint64`` words, bit k of
    word w being entry ``64 * w + k``."""
    import numpy as np

    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


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
    witness = space.first_model(column, row)
    if witness is None:
        return Verdict(logic=logic, query=alpha, entailed=True)
    return Verdict(logic=logic, query=alpha, entailed=False, witness=witness)


def brute_force_consequences(
    logic: LogicId, gamma: InformationSet, universe: AtomUniverse
) -> frozenset[Sentence]:
    """Entailed slice over all class representatives, by model enumeration.

    Same answers as calling ``brute_force_entails`` once per sentence of the
    universe, but ``gamma`` is reduced to its two axes a single time and
    every class is tested at once: a batch of one for ``_ModelSpace.slices``.
    """
    space = _model_space(logic, universe.atoms)
    return _sentences_of(space.slices([_classes_of(gamma, universe)])[0], universe)


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
