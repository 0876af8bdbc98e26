"""Classical propositional engine on bitmask world sets.

A universe of n atoms (n <= 16) has 2^n valuations, indexed 0..2^n-1;
valuation v makes atom k true iff bit k of v is set (atoms sorted by name).
A *world set* is an int bitmask over valuation indices, so a formula's model
set — its *semantic class* — is a single int and entailment is a subset test.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterable, Iterator, Sequence

from .syntax import (
    And,
    Atom,
    Belief,
    Bottom,
    Disbelief,
    Formula,
    Iff,
    Implies,
    InformationSet,
    Not,
    Or,
    Sentence,
    Top,
    _check_atom_name,
    atoms_of,
)

__all__ = [
    "MAX_ATOMS",
    "AtomLimitError",
    "AtomUniverse",
    "relevant_atoms",
    "universe_for",
    "models_of",
    "semantic_class",
    "conjunction_mask",
    "members",
    "pl_entails",
    "is_tautology",
    "is_contradiction",
    "formula_for_class",
]

MAX_ATOMS = 16

WorldSet = int  # bitmask over valuation indices


class AtomLimitError(ValueError):
    """Raised when a universe would exceed MAX_ATOMS atoms."""


@cache
def _lanes(k: int) -> tuple[int, ...]:
    """Mask i over 2^k positions has bit v set iff bit i of v is: the atoms'
    world sets of a k-atom universe, or over classes of k worlds, the classes
    holding world i.  Each doubling of the positions copies every mask up and
    adds the next.  Callers keep k <= MAX_ATOMS: at most 17 tables."""
    lanes: list[int] = []
    for i in range(k):
        half = 1 << i
        lanes = [lane | lane << half for lane in lanes]
        lanes.append(((1 << half) - 1) << half)
    return tuple(lanes)


def _subsets(mask: int) -> int:
    """Every subset of ``mask`` as one int, bit x for each x within it: by
    doubling, as adding bit i to the subsets without it adds 1 << i."""
    out = 1
    for i in members(mask):
        out |= out << (1 << i)
    return out


class AtomUniverse:
    """An ordered atom universe with precomputed per-atom world masks."""

    __slots__ = ("atoms", "n", "world_count", "full_mask", "_atom_masks", "_index")

    def __init__(self, atoms: Iterable[str]):
        ordered = tuple(sorted(set(atoms)))
        if len(ordered) > MAX_ATOMS:
            raise AtomLimitError(
                f"universe has {len(ordered)} atoms; the limit is {MAX_ATOMS}"
            )
        for name in ordered:
            _check_atom_name(name)
        self.atoms = ordered
        self.n = len(ordered)
        self.world_count = 1 << self.n
        self.full_mask = (1 << self.world_count) - 1
        self._index = {name: k for k, name in enumerate(ordered)}
        self._atom_masks = _lanes(self.n)

    def atom_mask(self, name: str) -> WorldSet:
        try:
            return self._atom_masks[self._index[name]]
        except KeyError:
            raise KeyError(f"atom {name!r} is not in universe {self.atoms}") from None

    def valuation(self, index: int) -> dict[str, bool]:
        """The assignment encoded by a valuation index."""
        return {name: bool(index >> k & 1) for k, name in enumerate(self.atoms)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AtomUniverse) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"AtomUniverse({list(self.atoms)!r})"


def relevant_atoms(formulas: Iterable[Formula]) -> AtomUniverse:
    """The sorted universe of atoms occurring in ``formulas`` (guarded)."""
    names: set[str] = set()
    for f in formulas:
        names |= atoms_of(f)
    return AtomUniverse(names)


def universe_for(gamma: InformationSet, alpha: Sentence | None = None) -> AtomUniverse:
    """The universe of the atoms in ``gamma`` and, if given, the query ``alpha``."""
    bodies = [s.body for s in gamma.sentences]
    if alpha is not None:
        bodies.append(alpha.body)
    return relevant_atoms(bodies)


def models_of(formula: Formula, universe: AtomUniverse) -> WorldSet:
    """Bitmask of the valuations of ``universe`` satisfying ``formula``."""
    full = universe.full_mask
    if isinstance(formula, Atom):
        return universe.atom_mask(formula.name)
    if isinstance(formula, Top):
        return full
    if isinstance(formula, Bottom):
        return 0
    if isinstance(formula, Not):
        return full & ~models_of(formula.operand, universe)
    try:
        left, right = formula.left, formula.right
    except AttributeError:  # no operands: a sentence, a string, ...
        raise TypeError(f"not a formula: {formula!r}") from None
    left, right = models_of(left, universe), models_of(right, universe)
    if isinstance(formula, And):
        return left & right
    if isinstance(formula, Or):
        return left | right
    if isinstance(formula, Implies):
        return (full & ~left) | right
    if isinstance(formula, Iff):
        return full & ~(left ^ right)
    raise TypeError(f"not a formula: {formula!r}")


def semantic_class(formula: Formula, universe: AtomUniverse) -> WorldSet:
    """Canonical representative of the formula's equivalence class: its model set."""
    return models_of(formula, universe)


def conjunction_mask(premises: Iterable[Formula], universe: AtomUniverse) -> WorldSet:
    mask = universe.full_mask
    for premise in premises:
        mask &= models_of(premise, universe)
    return mask


def _classes_of(gamma: InformationSet, universe: AtomUniverse) -> int:
    """``gamma`` as a set of class sentences over ``universe``: bit i for
    index i of :func:`_class_sentences`, so ``B: c`` at bit c and ``D: c``
    at bit 2^(2^n) + c, c being the class of the body.

    Reads the unordered ``gamma.sentences``: the bits do not depend on the
    order, so the set is never rendered or sorted for them.  The set is
    immutable and the bits depend only on the universe's atoms, so they are
    computed once per set and atom tuple and kept on the set.
    """
    memo = gamma._class_masks
    bits = memo.get(universe.atoms)
    if bits is None:
        disbelief = universe.full_mask + 1
        bits = 0
        for s in gamma.sentences:
            c = models_of(s.body, universe)
            bits |= 1 << (c if isinstance(s, Belief) else disbelief + c)
        memo[universe.atoms] = bits
    return bits


def _halves(bits: int, universe: AtomUniverse) -> tuple[int, int]:
    """The belief classes and the disbelief classes (bit c for class c) of
    a set of class sentences given as bits: the one place that splits it."""
    disbelief = universe.full_mask + 1
    return bits & (1 << disbelief) - 1, bits >> disbelief


def members(bits: int) -> Iterator[int]:
    """The set bits of ``bits``, in ascending order: the worlds of a world
    set, or the classes of a set of classes (bit c for class c)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def pl_entails(
    premises: Sequence[Formula],
    conclusion: Formula,
    universe: AtomUniverse | None = None,
) -> bool:
    """Classical entailment by truth-table enumeration over the relevant atoms.

    Restricting to the atoms of the premises and conclusion is sound and
    complete: adding fresh atoms doubles every row without changing any
    subset relation between model sets.
    """
    if universe is None:
        universe = relevant_atoms([*premises, conclusion])
    return conjunction_mask(premises, universe) & ~models_of(conclusion, universe) == 0


def is_tautology(formula: Formula, universe: AtomUniverse | None = None) -> bool:
    if universe is None:
        universe = relevant_atoms([formula])
    return models_of(formula, universe) == universe.full_mask


def is_contradiction(formula: Formula, universe: AtomUniverse | None = None) -> bool:
    if universe is None:
        universe = relevant_atoms([formula])
    return models_of(formula, universe) == 0


def _minterm(index: int, universe: AtomUniverse) -> Formula:
    literals: list[Formula] = [
        Atom(name) if index >> k & 1 else Not(Atom(name))
        for k, name in enumerate(universe.atoms)
    ]
    term = literals[0]
    for lit in literals[1:]:
        term = And(term, lit)
    return term


def formula_for_class(mask: WorldSet, universe: AtomUniverse) -> Formula:
    """A deterministic representative formula for a semantic class.

    ``false``/``true``/literals where possible, otherwise a disjunction of
    minterms in ascending valuation order.
    """
    if mask < 0 or mask > universe.full_mask:
        raise ValueError(f"mask {mask:#x} outside universe of {universe.n} atoms")
    if mask == 0:
        return Bottom()
    if mask == universe.full_mask:
        return Top()
    for name in universe.atoms:
        if mask == universe.atom_mask(name):
            return Atom(name)
        if mask == universe.full_mask & ~universe.atom_mask(name):
            return Not(Atom(name))
    terms = [
        _minterm(v, universe) for v in range(universe.world_count) if mask >> v & 1
    ]
    node = terms[0]
    for term in terms[1:]:
        node = Or(node, term)
    return node


@lru_cache(maxsize=64)
def _class_sentences(atoms: tuple[str, ...]) -> tuple[Sentence, ...]:
    """Every class sentence over the universe of ``atoms``, built once and
    shared: ``B: c`` at index c, then ``D: c`` at ``2^(2^n) + c``, each
    body the class's :func:`formula_for_class` representative."""
    universe = AtomUniverse(atoms)
    reps = [formula_for_class(c, universe) for c in range(universe.full_mask + 1)]
    return tuple(map(Belief, reps)) + tuple(map(Disbelief, reps))


def _sentences_of(bits: int, universe: AtomUniverse) -> frozenset[Sentence]:
    """The class sentences over ``universe`` that ``bits`` stands for, bit i
    for index i of :func:`_class_sentences`."""
    table = _class_sentences(universe.atoms)
    return frozenset(table[i] for i in members(bits))
