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
one more sentence derives ..."), so the engine keeps a family of reachable
sets and closes them jointly: a joint least fixed point.  All rule premises
are monotone in the derived sets, so every set only ever grows.  A set is
closed when it is added, by applying the rules until nothing grows; a child
it looks up for the first time is added, and so closed, before the set reads
it.  Apart from the children that are the set itself, which are answered in
bulk (see below), the child graph has no cycle: a child's key is strictly
more informative than its parent's.  ``DPrime``'s ``B: c`` narrows the belief
conjunction (or adds a raw belief seed), and ``BPrime``'s ``D: c`` adds a
disbelief seed (on canonical seeds, one that no seed contains).  So a closed
child never grows again, and closing each set after the sets it reads (a
weak topological order: Bourdoncle, FMPA 1993) reaches the fixed point that
re-applying every set until nothing changes anywhere reaches.

When rule ``B`` is present (every rule set of interest), a set's derivation
under the derivability reading is a function of the conjunction of its seed
beliefs plus its seed disbelief classes, which keys the family and keeps it
small.  An augmented set's key comes from its parent's: ``B: c`` narrows the
conjunction to ``c``, and ``D: c`` adds one class to the disbelief seeds (on
canonical seeds, ``c`` within the conjunction, unless a seed contains it
already).  Every child is read through the family by that key.  Where the
added sentence leaves the key as it is (``B: c`` for a ``c`` that contains
the conjunction, ``D: c`` for a ``c`` whose part within it a seed contains),
the augmented set is the set itself.  Those children are answered in bulk,
one test of the set's own derivation per application.  The other children
are answered once per key too.  Under a conjunction key the child key of
``B: c``, and on canonical seeds that of ``D: c``, depend on ``c`` only
through its part within the conjunction, so the classes sharing that part
are one group, looked up once at that part, itself a member of the group;
elsewhere each class is a group of its own.  Groups are taken by their
lowest class, which adds children in ascending class order, as a walk class
by class would.  Loops over a set of classes strip its lowest bit in place;
none goes through a generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, get_args

from .plcore import (
    AtomUniverse,
    _class_sentences,
    _classes_of,
    _halves,
    _sentences_of,
    _subsets,
)
from .syntax import InformationSet, Sentence
from .verdicts import LogicId

__all__ = [
    "Rule",
    "RuleReading",
    "RULE_SETS",
    "ClosureUniverse",
    "ClosureScaleError",
    "build_universe",
    "close",
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


_ATOM_LIMIT = 2  # the most atoms of a closure universe, and of ``bdl closure``


def _check_atom_count(n: int) -> None:
    if not 1 <= n <= _ATOM_LIMIT:
        raise ClosureScaleError(
            f"closure universes support 1 to {_ATOM_LIMIT} atoms, got {n}"
        )


class ClosureUniverse:
    """All semantic classes of a 1- or 2-atom universe, with representatives.

    A set of classes is an int, bit ``c`` standing for class ``c``; ``up[x]``
    and ``down[x]`` are the sets of classes that contain and that lie in ``x``.
    ``columns`` pairs each world's bit with the set of classes that lack it.
    """

    __slots__ = ("universe", "classes", "sentences", "up", "down", "columns")

    def __init__(self, universe: AtomUniverse):
        _check_atom_count(universe.n)
        self.universe = universe
        self.classes = tuple(range(universe.full_mask + 1))
        # the belief in class c, then the disbelief in class c at len(classes) + c
        self.sentences = _class_sentences(universe.atoms)
        self.up, self.down, self.columns = _lattice(universe.n)

    def sentence(self, kind_belief: bool, mask: int) -> Sentence:
        return self.sentences[mask if kind_belief else len(self.classes) + mask]

    def __repr__(self) -> str:
        return f"ClosureUniverse(atoms={list(self.universe.atoms)!r})"


@functools.cache
def _lattice(
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """``up``, ``down`` and ``columns`` over ``n`` atoms by subset doubling:
    ``down[x]`` holds the subsets of ``x``, ``up[x]`` is ``x`` plus each subset
    of its complement, and the classes lacking world w lie in all the others."""
    full = (1 << (1 << n)) - 1
    down = tuple(map(_subsets, range(full + 1)))
    up = tuple(_subsets(full & ~x) << x for x in range(full + 1))
    columns = tuple((1 << w, down[full & ~(1 << w)]) for w in range(1 << n))
    return up, down, columns


def build_universe(n: int, atoms: Iterable[str] | None = None) -> ClosureUniverse:
    """Closure universe over ``n`` distinct atoms (named p, q unless given)."""
    _check_atom_count(n)
    names = ("p", "q")[:n] if atoms is None else tuple(atoms)
    if len(set(names)) != n or len(names) != n:
        raise ValueError(f"expected {n} distinct atom names, got {names!r}")
    return ClosureUniverse(AtomUniverse(names))


# ---------------------------------------------------------------------------
# Engine

_MAX_FAMILY = 4096


@dataclass(eq=False)
class _SetState:
    """One set of the family, under its family ``key``.

    The seed, belief and disbelief fields are sets of classes; the seed
    disbeliefs are the key's second half, ``key[1]``.  ``own_b`` and
    ``own_d`` are the classes whose ``B: c`` and ``D: c`` children are the
    set itself, kept where the set has augmented children.
    """

    key: tuple[int, int]
    seed_beliefs: int
    beliefs: int
    disbeliefs: int
    own_b: int = 0
    own_d: int = 0


class _Engine:
    def __init__(self, rules: frozenset[Rule], reading: RuleReading, cu: ClosureUniverse):
        self.rules = rules
        self.membership = reading == "membership"
        self.cu = cu
        self.full = cu.universe.full_mask
        self.every = (1 << len(cu.classes)) - 1
        self.family: dict[tuple[int, int], _SetState] = {}
        (self._b, self._dbot, self._wd, self._gd, self._d,
         self._dprime, self._bprime, self._dtob) = _rule_flags(rules)
        self._by_conj = not self.membership and self._b
        # Disbelief seeds can be canonicalized — restricted to the belief
        # conjunction, dominated seeds dropped — whenever every disbelief
        # rule present reads its seeds relative to the beliefs (D/DPrime
        # re-derive the originals).  WD, GD and DtoB consume the literal
        # masks, so they block it.  This bounds the reachable family for
        # rule sets with BPrime, whose children otherwise pile up seeds.
        self._canonical_seeds = (
            self._by_conj
            and (self._d or self._dprime)
            and not (self._wd or self._gd or self._dtob)
        )
        self._augmented = not self.membership and (self._dprime or self._bprime)

    def _conj(self, beliefs: int) -> int:
        """The class of the conjunction of the given belief classes: the
        worlds that no one of them lacks."""
        conj = 0
        for world, lacking in self.cu.columns:
            if not beliefs & lacking:
                conj |= world
        return conj

    def _canonical(self, key_b: int, sd: int) -> int:
        """The disbelief seeds restricted to ``key_b``, keeping each one that
        no other restricted seed contains."""
        up = self.cu.up
        r = 0
        while sd:
            low = sd & -sd
            sd ^= low
            r |= 1 << (key_b & (low.bit_length() - 1))
        kept, rest = 0, r
        while rest:
            low = rest & -rest
            rest ^= low
            if up[low.bit_length() - 1] & r == low:
                kept |= low
        return kept

    def _key(self, sb: int, sd: int) -> tuple[int, int]:
        """The family key of the raw seeds."""
        key_b = self._conj(sb) if self._by_conj else sb
        if self._canonical_seeds:
            # canonical seeds imply keying by the conjunction, so key_b is it
            sd = self._canonical(key_b, sd)
        return key_b, sd

    def _child_key(self, key: tuple[int, int], i: int) -> tuple[int, int]:
        """The key of the set keyed ``key`` plus ``cu.sentences[i]``: what
        :meth:`_key` gives for its seeds with that sentence added."""
        key_b, key_d = key
        n = len(self.cu.classes)
        if i < n:  # B: i, which DPrime adds
            key_b = key_b & i if self._by_conj else key_b | 1 << i
            if self._canonical_seeds:
                key_d = self._canonical(key_b, key_d)
            return key_b, key_d
        c = i - n  # D: c, which BPrime adds
        if not self._canonical_seeds:
            return key_b, key_d | 1 << c
        p = key_b & c
        if self.cu.up[p] & key_d:  # a seed already contains p: see _own_d
            return key
        return key_b, key_d & ~self.cu.down[p] | 1 << p

    def _own_b(self, key: tuple[int, int]) -> int:
        """The classes c for which :meth:`_child_key` gives ``key`` itself
        for ``B: c``: those containing the conjunction, or the seed belief
        classes when the key is not a conjunction."""
        return self.cu.up[key[0]] if self._by_conj else key[0]

    def _own_d(self, key: tuple[int, int]) -> int:
        """The classes c for which :meth:`_child_key` gives ``key`` itself
        for ``D: c``.  On canonical seeds a seed ``d`` contains ``key_b & c``
        exactly when ``c`` lies in ``d | full & ~key_b``."""
        key_b, key_d = key
        if not self._canonical_seeds:
            return key_d
        down, widen = self.cu.down, self.full & ~key_b
        own = 0
        while key_d:
            low = key_d & -key_d
            key_d ^= low
            own |= down[(low.bit_length() - 1) | widen]
        return own

    def _state(self, key: tuple[int, int], sb: int) -> _SetState:
        """The family's closed set under ``key``, added with raw seed beliefs
        ``sb`` and closed if new.  It joins the family before it is closed, so
        the cap trips exactly when the family would outgrow it.  Closing it
        may add and close its children first, two frames per generation
        (``_state``, ``_apply``): sets nest at most 17 deep at two atoms
        (measured)."""
        state = self.family.get(key)
        if state is None:
            if len(self.family) >= _MAX_FAMILY:
                raise ClosureScaleError(
                    f"rule evaluation reached {_MAX_FAMILY} auxiliary sets; "
                    "this rule set does not close tractably"
                )
            state = _SetState(key, sb, sb, key[1])
            if self._augmented:
                state.own_b, state.own_d = self._own_b(key), self._own_d(key)
            self.family[key] = state
            while self._apply(state):
                pass
        return state

    def register(self, sb: int, sd: int) -> _SetState:
        """The family's closed set for the raw seeds, added if new."""
        return self._state(self._key(sb, sd), sb)

    def _apply(self, state: _SetState) -> bool:
        """Apply the rules to ``state`` once; whether it grew."""
        full, up, down = self.full, self.cu.up, self.cu.down
        bel_src = state.seed_beliefs if self.membership else state.beliefs
        dis_src = state.key[1] if self.membership else state.disbeliefs
        conj = self._conj(bel_src)
        add_b = up[conj] if self._b else 0
        add_d = 1 if self._dbot else 0

        if self._wd or self._gd or self._d or self._dtob:
            # WD, GD, D and DtoB in one pass over the disbelieved classes.
            # D's class for psi, down[psi | full & ~conj], contains WD's,
            # down[psi]; the negated disbeliefs refute exactly the classes
            # inside the union of the disbelieved ones (GD)
            widen = full & ~conj if self._d else 0
            downward, dtob, pooled, rest = self._wd or self._d, self._dtob, 0, dis_src
            while rest:
                low = rest & -rest
                rest ^= low
                psi = low.bit_length() - 1
                if downward:
                    add_d |= down[psi | widen]
                if dtob:
                    add_b |= 1 << (full & ~psi)
                pooled |= psi
            if self._gd:
                add_d |= down[pooled]
        # DPrime and BPrime look up one augmented set per class c, the set
        # plus B: c or D: c.  Where that set is this one (the classes of
        # own_b, own_d), all of them are answered at once.  Other classes
        # come in groups sharing one augmented set: under a conjunction key
        # the child key of B: c, and on canonical seeds that of D: c, depend
        # on key_b & c alone (_child_key), so the group is every d with
        # key_b & d == p for p = key_b & c, that is the classes
        # up[p] & down[p | full & ~key_b], read through _state at its member
        # p; elsewhere k is full and each class is its own group,
        # up[c] & down[c].  Groups are taken by their lowest class, so
        # children are added in ascending class order.
        if self._dprime:
            if self.membership:
                add_d |= self.every if dis_src & state.seed_beliefs else dis_src
            elif dis_src:
                # disbelieve c when the set plus B: c comes to believe
                # something disbelieved
                todo = self.every & ~(state.disbeliefs | add_d)
                if state.beliefs & dis_src:
                    add_d |= todo & state.own_b
                rest = todo & ~state.own_b
                k = state.key[0] if self._by_conj else full
                widen = full & ~k
                while rest:
                    c = (rest & -rest).bit_length() - 1
                    p = k & c
                    group = up[p] & down[p | widen]
                    rest &= ~group
                    # a new child's raw seeds take c itself
                    child = self._state(self._child_key(state.key, p), state.seed_beliefs | 1 << c)
                    if child.beliefs & dis_src:
                        add_d |= todo & group
        if self._bprime:
            if self.membership:
                add_b |= self.every if bel_src & state.key[1] else bel_src
            elif bel_src:
                # believe c when the set plus D: c comes to disbelieve
                # something believed
                todo = self.every & ~(state.beliefs | add_b)
                if state.disbeliefs & bel_src:
                    add_b |= todo & state.own_d
                rest = todo & ~state.own_d
                k = state.key[0] if self._canonical_seeds else full
                widen, n = full & ~k, len(self.cu.classes)
                while rest:
                    c = (rest & -rest).bit_length() - 1
                    p = k & c
                    group = up[p] & down[p | widen]
                    rest &= ~group
                    child = self._state(self._child_key(state.key, n + p), state.seed_beliefs)
                    if child.disbeliefs & bel_src:
                        add_b |= todo & group

        if not (add_b & ~state.beliefs or add_d & ~state.disbeliefs):
            return False
        state.beliefs |= add_b
        state.disbeliefs |= add_d
        return True


@functools.cache
def _rule_flags(rules: frozenset[Rule]) -> tuple[bool, ...]:
    """Whether ``rules`` holds each rule, in ``Rule`` order: read once per
    rule set, as hashing an enum member is a Python call."""
    return tuple(rule in rules for rule in Rule)


@functools.cache
def _rule_frozenset(rules: frozenset[Rule | str]) -> frozenset[Rule]:
    return frozenset(map(Rule, rules))


_READINGS = get_args(RuleReading)


def _rule_side(
    rules: Iterable[Rule | str], reading: str
) -> tuple[frozenset[Rule], RuleReading]:
    """``rules`` as ``Rule``s, and ``reading`` checked: an unknown rule name
    or reading raises ``ValueError``."""
    rule_set = _rule_frozenset(frozenset(rules))
    if reading not in _READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    return rule_set, reading  # type: ignore[return-value]


def _close_classes(
    rules: Iterable[Rule],
    reading: RuleReading,
    bits: int,
    cu: ClosureUniverse,
) -> int:
    """Close the set of class sentences ``bits`` stands for; bit i of the
    argument and of the result stands for ``cu.sentences[i]``.  ``rules``
    and ``reading`` are taken as checked (see :func:`_rule_side`)."""
    engine = _Engine(frozenset(rules), reading, cu)
    top = engine.register(*_halves(bits, cu.universe))
    return top.beliefs | top.disbeliefs << len(cu.classes)


def close(
    rules: Iterable[Rule],
    reading: RuleReading,
    gamma: InformationSet,
    cu: ClosureUniverse,
) -> frozenset[Sentence]:
    """Close ``gamma`` (mapped onto class representatives) under ``rules``.

    Returns every derivable sentence of the universe, the seeds included.
    An unknown rule name or reading raises ``ValueError``.
    """
    (rules, reading), u = _rule_side(rules, reading), cu.universe
    return _sentences_of(_close_classes(rules, reading, _classes_of(gamma, u), cu), u)
