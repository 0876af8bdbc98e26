"""Seeded input generation and an independent propositional evaluator.

Nothing here imports bdlogic: formulas are built as nested tuples, rendered
to ``.bdl`` text for the program to parse, and evaluated by this module's own
truth-table code when a reference answer is needed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Atom names for generated documents; ``z1``, ``z2``, ... are kept for the
# tautological padding of the ``over`` band.
ATOM_POOL = tuple("abcdefghijklmnopqrstuvwxy")
_BINARY = ("and", "or", "imp", "iff")
_SYMBOL = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}

# (band, share of the request stream) for the ``check`` workload.
CHECK_BANDS = (("small", 14), ("wide", 4), ("over", 2))
# Atom counts per band.  The wide band's cost grows about 2.5x per atom; 14
# atoms gets three turns in seven so that the band's median falls inside one
# atom count instead of on the edge between two.
BAND_ATOMS = {
    "small": tuple(range(2, 9)),
    "wide": (12, 13, 14, 14, 14, 15, 16),
    "over": tuple(range(4, 13)),  # the core, before padding
}
# Request kinds per band, as (command, countermodel): a quarter
# ``consistency``, and in the small band a quarter ``check --countermodel``
# (a countermodel at 16 atoms writes tens of MB, so they stay small).  Each
# kind comes as JSON and as text.  A band's requests are dealt from a deck of
# every (atom count, kind, format) combination, shuffled per seed, so that a
# band's mix does not drift with the seed: the small band's tail is its
# 6-8-atom countermodels, and with kinds drawn at random their share, and
# the tail with it, moved from run to run.
BAND_KINDS = {
    "small": (("consistency", False), ("check", True), ("check", False), ("check", False)),
    "wide": (("consistency", False),) + (("check", False),) * 3,
}
BAND_KINDS["over"] = BAND_KINDS["wide"]
OVER_ATOMS = (17, 20)
# Operations generated per run.  At today's speed a run ends before its
# stream does (about 1500 requests or sets in 20 s); a faster program
# starts the stream over.
CHECK_STREAM = 3000
SLICE_STREAM = 3000

# ---------------------------------------------------------------------------
# Formulas as tuples: ("atom", name) | ("top",) | ("bot",) | ("not", f)
# | (op, left, right) for op in _BINARY.


def render(f: tuple) -> str:
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "not":
        return f"!({render(f[1])})" if f[1][0] in _BINARY else f"!{render(f[1])}"
    return f"({render(f[1])} {_SYMBOL[kind]} {render(f[2])})"


def evaluate(f: tuple, valuation: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "atom":
        return valuation[f[1]]
    if kind == "top":
        return True
    if kind == "bot":
        return False
    if kind == "not":
        return not evaluate(f[1], valuation)
    left, right = evaluate(f[1], valuation), evaluate(f[2], valuation)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    if kind == "imp":
        return (not left) or right
    return left == right


def classically_entails(premises: list[tuple], conclusion: tuple, atoms: list[str]) -> bool:
    """Truth-table entailment over ``atoms`` (small universes only)."""
    for values in itertools.product((False, True), repeat=len(atoms)):
        valuation = dict(zip(atoms, values))
        if all(evaluate(p, valuation) for p in premises) and not evaluate(
            conclusion, valuation
        ):
            return False
    return True


def _from_leaves(rng: random.Random, leaves: list[tuple]) -> tuple:
    if len(leaves) == 1:
        node = leaves[0]
    else:
        cut = rng.randint(1, len(leaves) - 1)
        op = rng.choices(_BINARY, weights=(4, 4, 2, 1))[0]
        node = (op, _from_leaves(rng, leaves[:cut]), _from_leaves(rng, leaves[cut:]))
    return ("not", node) if rng.random() < 0.2 else node


def random_formula(rng: random.Random, atoms: list[str], must: list[str] = ()) -> tuple:
    """A formula over ``atoms`` that mentions every atom in ``must``."""
    # distinct atoms keep every generated formula contingent
    rest = [a for a in atoms if a not in must]
    extra = min(len(rest), rng.randint(0 if must else 1, 2))
    names = list(must) + rng.sample(rest, extra)
    rng.shuffle(names)
    return _from_leaves(rng, [("atom", n) for n in names])


@dataclass(frozen=True)
class Doc:
    """A generated information set: sentences as (is_belief, formula)."""

    atoms: tuple[str, ...]
    sentences: tuple[tuple[bool, tuple], ...]

    def text(self) -> str:
        lines = [f"# generated, {len(self.atoms)} atoms"]
        lines += [f"{'B' if b else 'D'}: {render(f)}" for b, f in self.sentences]
        return "\n".join(lines) + "\n"


def random_doc(rng: random.Random, atoms: list[str], size: int) -> Doc:
    """``size`` sentences that together mention every atom."""
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    chunks = [shuffled[i::size] for i in range(size)]
    sentences = tuple(
        (rng.random() < 0.55, random_formula(rng, atoms, chunk)) for chunk in chunks
    )
    return Doc(tuple(sorted(atoms)), sentences)


def random_query(rng: random.Random, doc: Doc) -> tuple[bool, tuple]:
    """A query sentence; a third are built to be entailed in some logic."""
    atoms = list(doc.atoms)
    roll = rng.random()
    disbeliefs = [f for b, f in doc.sentences if not b]
    beliefs = [f for b, f in doc.sentences if b]
    if roll < 0.17 and disbeliefs:
        # strengthening a disbelieved formula: WD/D territory
        return False, ("and", rng.choice(disbeliefs), random_formula(rng, atoms))
    if roll < 0.33 and beliefs:
        # weakening a believed formula: B territory
        return True, ("or", rng.choice(beliefs), random_formula(rng, atoms))
    return rng.random() < 0.5, random_formula(rng, atoms)


def sentence_text(is_belief: bool, f: tuple) -> str:
    return f"{'B' if is_belief else 'D'}: {render(f)}"


# ---------------------------------------------------------------------------
# Workload inputs


@dataclass(frozen=True)
class CheckRequest:
    band: str  # small | wide | over
    doc: Doc
    query: tuple[bool, tuple]
    argv_tail: tuple[str, ...]  # subcommand and flags, without the file
    core: Doc | None = None  # the unpadded document of an ``over`` request

    @property
    def command(self) -> str:
        return self.argv_tail[0]

    @property
    def json(self) -> bool:
        return "--json" in self.argv_tail

    @property
    def countermodel(self) -> bool:
        return "--countermodel" in self.argv_tail


def _check_flags(command: str, countermodel: bool, json_out: bool,
                 query_text: str) -> tuple[str, ...]:
    fmt = ("--json",) if json_out else ()
    if command == "consistency":
        return ("consistency", "--logic", "all", *fmt)
    return ("check", "--query", query_text, "--logic", "all", *fmt) + (
        ("--countermodel",) if countermodel else ())


def _request(rng: random.Random, band: str, n: int, command: str, countermodel: bool,
             json_out: bool) -> CheckRequest:
    if band == "over":
        core_n = n
        core = random_doc(rng, list(ATOM_POOL[:core_n]), rng.randint(3, 8))
        pad = [f"z{k}" for k in range(1, rng.randint(*OVER_ATOMS) - core_n + 1)]
        padding = tuple((True, ("or", ("atom", z), ("not", ("atom", z)))) for z in pad)
        doc = Doc(tuple(sorted(core.atoms + tuple(pad))), core.sentences + padding)
        query = random_query(rng, core)
        flags = _check_flags(command, countermodel, json_out, sentence_text(*query))
        return CheckRequest(band, doc, query, flags, core)
    size = rng.randint(max(2, n // 3), max(3, n // 2 + 2)) if band == "wide" else rng.randint(2, 6)
    doc = random_doc(rng, list(ATOM_POOL[:n]), min(size, n) if n > 1 else 1)
    query = random_query(rng, doc)
    return CheckRequest(band, doc, query,
                        _check_flags(command, countermodel, json_out, sentence_text(*query)))


def check_requests(seed: int, count: int = CHECK_STREAM) -> list[CheckRequest]:
    """The ``check`` stream: bands interleaved in fixed shares, order seeded."""
    rng = random.Random(f"check:{seed}")
    cycle = [band for band, share in CHECK_BANDS for _ in range(share)]
    decks: dict[str, list[tuple]] = {band: [] for band in BAND_ATOMS}
    out: list[CheckRequest] = []
    while len(out) < count:
        rng.shuffle(cycle)
        for band in cycle:
            if not decks[band]:
                decks[band] = [(n, *kind, json_out) for n in BAND_ATOMS[band]
                               for kind in BAND_KINDS[band] for json_out in (True, False)]
                rng.shuffle(decks[band])
            out.append(_request(rng, band, *decks[band].pop()))
    return out[:count]


def slice_docs(seed: int, count: int = SLICE_STREAM) -> list[Doc]:
    """1- and 2-atom information sets over ``p``/``q``, two in five one-atom.

    Over one atom a generated formula is ``p`` or ``!p``, so there are only
    15 distinct sets; they come in turn, each once per 15, so that a run's
    mix (and its tail latency) does not depend on the seed.  Two-atom sets
    have 1 to 4 random sentences.
    """
    rng = random.Random(f"slices:{seed}")
    literals = [(b, f) for b in (True, False) for f in (("atom", "p"), ("not", ("atom", "p")))]
    one_atom = [tuple(s for i, s in enumerate(literals) if mask >> i & 1) for mask in range(1, 16)]
    turns: dict[str, list] = {"atoms": [], "one": []}
    out = []
    for _ in range(count):
        if not turns["atoms"]:
            turns["atoms"] = [1, 1, 2, 2, 2]
            rng.shuffle(turns["atoms"])
        if turns["atoms"].pop() == 1:
            if not turns["one"]:
                turns["one"] = list(one_atom)
                rng.shuffle(turns["one"])
            out.append(Doc(("p",), turns["one"].pop()))
            continue
        sentences = tuple((rng.random() < 0.5, random_formula(rng, ["p", "q"]))
                          for _ in range(rng.randint(1, 4)))
        out.append(Doc(("p", "q"), sentences))
    return out


def meta_seeds(seed: int, count: int = 64) -> list[int]:
    """Suite seeds for ``meta-quick``; workload seed s starts at suite seed 1000*s."""
    return [1000 * seed + i for i in range(count)]


def reference_work() -> int:
    """A fixed slice of this module's own work, timed to gauge machine speed.

    Generation, rendering and truth-table evaluation: the same kind of
    interpreter work (recursion, small objects, strings) as bdlogic's, in
    code that no change to bdlogic touches.  The benchmark scales its times
    by how fast this runs, so its inputs must not change.
    """
    reqs = check_requests(12345, 12)
    size = sum(len(r.doc.text()) for r in reqs)
    for r in reqs[:3]:
        for v in range(1 << min(len(r.doc.atoms), 8)):
            valuation = {a: bool(v >> k & 1) for k, a in enumerate(r.doc.atoms)}
            size += sum(evaluate(f, valuation) for _, f in r.doc.sentences)
    return size

