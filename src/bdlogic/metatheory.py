"""Cross-validation suite tying the decision procedures, the model
semantics, and the rule closures to each other.

Every case checks one structural property of the four logics — agreement
with the enumeration oracle, Tarskian behaviour of the consequence
operation, the decoupling of beliefs from disbeliefs, collapse behaviour,
closure-versus-decision agreement, and so on.  Some properties are *meant*
to fail: a case with expectation ``fails-with-witness`` passes exactly
when the failure is rediscovered with its canonical witness and the
repaired or restated form checks out.

A case body states only its property.  The context ``_Ctx`` it runs in
keeps the tally (the check count, and the failure messages, each built
only when its check fails) and carries the two samplers: sets over a
universe of one or two atoms drawn at random, and every 1-atom set
followed by random 2-atom sets.  The samplers fix the order in which a
case draws from its random generator, so a seed keeps selecting the same
sets.

A set of a closure universe's sentences is one int, bit i standing for
``cu.sentences[i]`` (the beliefs by class, then the disbeliefs), and so is
every consequence slice, read through ``_slice``; subsets, unions and
projections are bit operations.  The decision kernel, the closure engine,
the enumeration oracle's batched slices and ``plcore._classes_of`` take
and give that int whole, and only ``plcore._halves`` splits it into belief
and disbelief classes.  An ``InformationSet`` is built only for a failure
message and for the formula-level checks whose independence is their
point: the oracle's entailments and model counts, countermodels, universe
extension and the parsed canonical witnesses.

Reports are reproducible: the same ``(seed, scale)`` always runs the same
checks and serializes to byte-identical canonical JSON (wall-clock timing
is reported in the text rendering only and never serialized).
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Optional, Sequence, Union

from .closure import (
    RULE_SETS,
    ClosureUniverse,
    Rule,
    _close_classes,
    _rule_side,
    build_universe,
)
from .decision import (
    _RULES,
    _class_record,
    _combined_witness,
    _report,
    _slice_masks,
    decide,
    inconsistency_report,
)
from .fixtures import agnostic, evaluate, lottery
from .jsontext import dumps
from .plcore import AtomUniverse, _classes_of, _halves, members
from .semantics import (
    ModelBD,
    ModelWBD,
    _model_space,
    brute_force_entails,
    construct_countermodel,
    count_models,
    enumerate_models,
    holds_all,
    satisfies,
)
from .syntax import (
    InformationSet,
    parse_information_set,
    parse_sentence,
    render_sentence,
)
from .verdicts import LOGICS, LogicId, _require_logic

__all__ = [
    "PropertyCase",
    "CaseResult",
    "PropertyReport",
    "REQUIRED_CASE_IDS",
    "Disagreement",
    "readings_agree",
    "ScaleName",
    "generate_information_set",
    "run_suite",
]

ScaleName = Literal["quick", "full"]


# ---------------------------------------------------------------------------
# Plumbing


@dataclass(frozen=True)
class PropertyCase:
    case_id: str
    description: str
    expectation: Literal["holds", "fails-with-witness"]
    runner: Callable[["_Ctx"], str]
    counterexample_cap: int = 3


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    description: str
    expectation: str
    passed: bool
    summary: str
    cases_run: int
    counterexamples: tuple[str, ...]
    wall_ms: float

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.case_id}: {status} — {self.summary}"
        for ce in self.counterexamples:
            line += f"\n    counterexample: {ce}"
        return line


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    scale: ScaleName
    results: tuple[CaseResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def total_checks(self) -> int:
        return sum(r.cases_run for r in self.results)

    def to_text(self) -> str:
        lines = [f"metatheory suite — seed {self.seed}, scale {self.scale}"]
        for r in self.results:
            lines.append("  " + r.render().replace("\n", "\n  "))
        status = "PASS" if self.all_passed else "FAIL"
        wall = sum(r.wall_ms for r in self.results) / 1000.0
        lines.append(
            f"SUITE: {status} ({len(self.results)} cases, "
            f"{self.total_checks} checks, {wall:.2f}s)"
        )
        return "\n".join(lines)

    def canonical_dict(self) -> dict:
        # no wall-clock data: identical (seed, scale) runs serialize identically
        return {
            "schema": 1,
            "suite": "metatheory",
            "seed": self.seed,
            "scale": self.scale,
            "all_passed": self.all_passed,
            "total_checks": self.total_checks,
            "cases": [
                {
                    "case_id": r.case_id,
                    "description": r.description,
                    "expectation": r.expectation,
                    "passed": r.passed,
                    "summary": r.summary,
                    "cases_run": r.cases_run,
                    "counterexamples": list(r.counterexamples),
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return dumps(self.canonical_dict())


class _Ctx:
    """One case's run: its random generator and scale, tally and samplers."""

    def __init__(self, rng: random.Random, scale: ScaleName):
        self.rng = rng
        self.scale = scale
        self.checks = 0
        self.failures: list[str] = []

    def count(self, quick: int, full: int) -> int:
        return quick if self.scale == "quick" else full

    def check(self, ok: bool, failure: Callable[[], str], weight: int = 1) -> bool:
        """Count ``weight`` checks; unless ``ok``, record ``failure()``.

        The message is built only when the check fails, so hot loops never
        format messages for checks that pass.
        """
        self.checks += weight
        if not ok:
            self.failures.append(failure())
        return ok

    def fail(self, message: str) -> None:
        """Record a failure without counting a check."""
        self.failures.append(message)

    def sampled_sets(
        self, quick: int, full: int
    ) -> Iterator[tuple[ClosureUniverse, int]]:
        """``count(quick, full)`` random sets, each over one or two atoms.

        Each draw picks the universe, then the set (as bits); whatever the
        caller draws before asking for the next pair comes in between.
        """
        for _ in range(self.count(quick, full)):
            cu = _cu(1) if self.rng.random() < 0.4 else _cu(2)
            yield cu, _sampled_bits(cu, 4, self.rng)

    def one_then_two_atom_sets(
        self, quick: int, full: int
    ) -> Iterator[tuple[ClosureUniverse, int]]:
        """All 256 1-atom sets, then ``count(quick, full)`` random 2-atom sets."""
        cu1, cu2 = _cu(1), _cu(2)
        for bits in range(1 << len(cu1.sentences)):
            yield cu1, bits
        for _ in range(self.count(quick, full)):
            yield cu2, _sampled_bits(cu2, 4, self.rng)


_CASES: dict[str, PropertyCase] = {}


def _case(
    case_id: str,
    description: str,
    expectation: Literal["holds", "fails-with-witness"] = "holds",
    counterexample_cap: int = 3,
    logics: Sequence[LogicId] = (),
    **params,
):
    """Register a runner, called with ``params`` besides the context.

    Given ``logics``, register one case per logic, with ``{logic}`` filled
    into the id and the description and ``logic`` passed on too.
    """

    def deco(fn: Callable[..., str]):
        for logic in logics or [None]:
            cid, text, kw = case_id, description, params
            if logic is not None:
                cid, text = case_id.format(logic=logic), description.format(logic=logic)
                kw = {**params, "logic": logic}
            runner = functools.partial(fn, **kw)
            _CASES[cid] = PropertyCase(
                cid, text, expectation, runner, counterexample_cap
            )
        return fn

    return deco


@functools.cache
def _cu(n: int) -> ClosureUniverse:
    return build_universe(n)


def _sampled_bits(cu: ClosureUniverse, max_size: int, rng: random.Random) -> int:
    """A uniform-size random subset of the universe's sentences, as bits.

    ``rng.sample`` picks positions from the population's length alone, so
    sampling indices draws what sampling ``cu.sentences`` would.
    """
    k = rng.randint(0, min(max_size, len(cu.sentences)))
    return sum(1 << i for i in rng.sample(range(len(cu.sentences)), k))


# Bounded so that the 1-atom sets the formula-level cases draw in every
# suite, each sorted by rendering its sentences, stay memoized from suite
# to suite.
@functools.lru_cache(maxsize=1024)
def _set_of(cu: ClosureUniverse, bits: int) -> InformationSet:
    """The sentences of ``cu`` that ``bits`` stands for, as a set."""
    return InformationSet(frozenset(cu.sentences[i] for i in members(bits)))


def _kinds(cu: ClosureUniverse) -> tuple[int, int]:
    """The bits of all the universe's beliefs and of all its disbeliefs."""
    n = len(cu.classes)
    return (1 << n) - 1, (1 << n) - 1 << n


def _slice(logic: LogicId, cu: ClosureUniverse, bits: int) -> int:
    """The set's ``logic`` consequences among ``cu.sentences``, as bits."""
    return _slice_masks(logic, _class_record(bits, cu.universe))


def generate_information_set(
    cu: ClosureUniverse, max_size: int, rng: random.Random
) -> InformationSet:
    """A uniform-size random subset of the universe's sentences."""
    return _set_of(cu, _sampled_bits(cu, max_size, rng))


def _fmt(gamma: InformationSet) -> str:
    inner = "; ".join(render_sentence(s) for s in gamma)
    return "{" + inner + "}"


def _shrink(
    gamma: InformationSet, pred: Callable[[InformationSet], bool]
) -> InformationSet:
    """Greedily drop sentences while the predicate keeps holding."""
    changed = True
    while changed:
        changed = False
        for s in gamma:
            smaller = gamma.without(s)
            if pred(smaller):
                gamma = smaller
                changed = True
                break
    return gamma


def _slice_is_stable(
    logic: LogicId, cu: ClosureUniverse, kind: int, bits: int, extra: int
) -> bool:
    """Γ, Γ ∪ extra and Γ's projection onto ``kind`` (the bits of all
    beliefs or of all disbeliefs) entail the same sentences of that kind."""
    return (
        _slice(logic, cu, bits) & kind
        == _slice(logic, cu, bits | extra) & kind
        == _slice(logic, cu, bits & kind) & kind
    )


# ---------------------------------------------------------------------------
# Decision procedures against the enumeration oracle


@_case(
    "oracle-agreement-{logic}",
    "the {logic} decision procedure agrees with exhaustive model "
    "enumeration on every queried sentence",
    logics=("wbd", "gbd", "bd"),
)
def _oracle_agreement(ctx: _Ctx, logic: LogicId) -> str:
    def disagrees(cu: ClosureUniverse, gamma: InformationSet) -> bool:
        bits = _classes_of(gamma, cu.universe)
        return _slice(logic, cu, bits) != spaces[cu].slices([bits])[0]

    drawn = list(ctx.one_then_two_atom_sets(120, 500))
    spaces = {cu: _model_space(logic, cu.universe.atoms) for cu, _ in drawn}
    # each universe's sets in one batch, read back in draw order
    oracle = {
        cu: iter(space.slices([bits for c, bits in drawn if c is cu]))
        for cu, space in spaces.items()
    }
    for cu, bits in drawn:
        ctx.check(
            _slice(logic, cu, bits) == next(oracle[cu]),
            lambda: f"Γ={_fmt(_shrink(_set_of(cu, bits), lambda g: disagrees(cu, g)))}"
            + (" at 1 atom", " at 2 atoms")[cu.universe.n - 1],
            weight=len(cu.sentences),
        )
    return (
        f"decision == enumeration oracle on 256 exhaustive 1-atom sets "
        f"and {ctx.count(120, 500)} sampled 2-atom sets "
        f"({ctx.checks} sentence verdicts)"
    )


# ---------------------------------------------------------------------------
# Tarskian consequence behaviour


@_case(
    "tarskian-{logic}",
    "the {logic} consequence operation is Tarskian on finite slices",
    logics=LOGICS,
)
def _tarskian(ctx: _Ctx, logic: LogicId) -> str:
    for cu, bits in ctx.sampled_sets(60, 250):
        cons = _slice(logic, cu, bits)
        ctx.check(
            bits & ~cons == 0,
            lambda: f"inclusion fails: Γ={_fmt(_set_of(cu, bits))}",
        )
        delta = _sampled_bits(cu, 2, ctx.rng)
        ctx.check(
            cons & ~_slice(logic, cu, bits | delta) == 0,
            lambda: f"monotonicity fails: Γ={_fmt(_set_of(cu, bits))}, "
            f"Δ={_fmt(_set_of(cu, delta))}",
        )
        ctx.check(
            _slice(logic, cu, cons) == cons,
            lambda: f"idempotency fails: Γ={_fmt(_set_of(cu, bits))}",
        )
    return (
        f"inclusion, monotonicity, and idempotency of the consequence "
        f"slice hold ({ctx.checks} checks)"
    )


# ---------------------------------------------------------------------------
# Decoupling of the two attitudes (wbd and gbd only)


@_case(
    "decoupling-{logic}",
    "in {logic} the two attitudes never inform each other",
    logics=("wbd", "gbd"),
)
def _decoupling(ctx: _Ctx, logic: LogicId) -> str:
    for cu, bits in ctx.sampled_sets(60, 250):
        beliefs, disbeliefs = _kinds(cu)
        extra_b = _sampled_bits(cu, 2, ctx.rng) & beliefs
        extra_d = _sampled_bits(cu, 2, ctx.rng) & disbeliefs
        ctx.check(
            _slice_is_stable(logic, cu, disbeliefs, bits, extra_b),
            lambda: f"beliefs leak into disbeliefs: Γ={_fmt(_set_of(cu, bits))}",
        )
        ctx.check(
            _slice_is_stable(logic, cu, beliefs, bits, extra_d),
            lambda: f"disbeliefs leak into beliefs: Γ={_fmt(_set_of(cu, bits))}",
        )
    return (
        f"belief verdicts depend only on beliefs and disbelief verdicts "
        f"only on disbeliefs ({ctx.checks} checks)"
    )


# ---------------------------------------------------------------------------
# One-directional coupling in bd


@_case(
    "belief-to-disbelief-bd",
    "in bd a believed negation forces the disbelief, and beliefs do "
    "influence disbelief verdicts",
)
def _belief_to_disbelief(ctx: _Ctx) -> str:
    for cu, bits in ctx.sampled_sets(80, 300):
        full = cu.universe.full_mask
        bel, dis = _halves(_slice("bd", cu, bits), cu.universe)
        for c in range(full + 1):
            ctx.check(
                not (bel >> (full & ~c) & 1) or dis >> c & 1 == 1,
                lambda: f"B: !f without D: f: Γ={_fmt(_set_of(cu, bits))}, "
                f"class {c:#x}",
            )

    # the influence direction is real: dropping the beliefs loses disbeliefs
    cu1 = _cu(1)
    witness = 1 << (cu1.universe.full_mask & ~cu1.universe.atom_mask("p"))  # {B: !p}
    disbeliefs = _kinds(cu1)[1]
    dis_full = _slice("bd", cu1, witness) & disbeliefs
    dis_proj = _slice("bd", cu1, witness & disbeliefs) & disbeliefs
    ctx.check(
        dis_proj & ~dis_full == 0 and dis_proj != dis_full,
        lambda: "expected Γ={B: !p} to disbelieve more than its projection",
    )
    return (
        f"believed negations force disbeliefs ({ctx.checks} checks); beliefs "
        "genuinely inform disbeliefs (witness Γ={B: !p} disbelieves p, its "
        "disbelief projection does not)"
    )


@_case(
    "disbelief-not-to-belief-bd",
    "in bd belief verdicts never depend on the disbeliefs",
)
def _disbelief_not_to_belief(ctx: _Ctx) -> str:
    for cu, bits in ctx.sampled_sets(80, 300):
        beliefs, disbeliefs = _kinds(cu)
        extra_d = _sampled_bits(cu, 2, ctx.rng) & disbeliefs
        ctx.check(
            _slice_is_stable("bd", cu, beliefs, bits, extra_d),
            lambda: f"Γ={_fmt(_set_of(cu, bits))}, Δ={_fmt(_set_of(cu, extra_d))}",
        )
    return f"belief slice is stable under disbelief changes ({ctx.checks} checks)"


# ---------------------------------------------------------------------------
# Inconsistency collapse in bd


@_case(
    "inconsistency-collapse-bd",
    "in bd, combined inconsistency and d-inconsistency coincide, and "
    "b-inconsistency implies both — but not conversely",
)
def _inconsistency_collapse(ctx: _Ctx) -> str:
    converse_witnesses = 0
    for cu, bits in ctx.one_then_two_atom_sets(80, 300):
        rep = _report("bd", _class_record(bits, cu.universe))
        ctx.checks += 1
        if rep.combined_inconsistent != rep.d_inconsistent:
            ctx.fail(f"combined != d-inconsistent: Γ={_fmt(_set_of(cu, bits))}")
        if rep.b_inconsistent and not rep.combined_inconsistent:
            ctx.fail(
                f"b-inconsistent but combined-consistent: Γ={_fmt(_set_of(cu, bits))}"
            )
        converse_witnesses += rep.combined_inconsistent and not rep.b_inconsistent

    rep = inconsistency_report("bd", parse_information_set("B: p\nD: p"))
    ctx.check(
        rep.combined_inconsistent and not rep.b_inconsistent,
        lambda: "Γ={B: p; D: p} should be combined- but not b-inconsistent",
    )
    if not converse_witnesses:
        ctx.fail("no combined-inconsistent set with consistent beliefs found")
    return (
        f"collapse holds on {ctx.checks} sets; the converse fails as expected "
        f"({converse_witnesses} sets are combined-inconsistent with "
        "consistent beliefs, e.g. Γ={B: p; D: p})"
    )


# ---------------------------------------------------------------------------
# The belief-introduction rule is unsound in general


def _bprime_sweep(
    ctx: _Ctx, cu: ClosureUniverse
) -> tuple[list[tuple[int, int, int]], int, int]:
    """The rule's violations on every set of at most two sentences of ``cu``.

    Returns each violation (Γ as sentence bits, f, g), the number of
    combined-consistent sets and the number of violations on them.  Counts
    one check per premise triple (f, g) with g believed.  Every verdict is
    the bd rule's, on records built from sentence bits.
    """
    rule, u = _RULES["bd"], cu.universe
    classes, n = range(u.full_mask + 1), len(cu.classes)
    violations: list[tuple[int, int, int]] = []
    consistent_sets = consistent_violations = 0
    # the empty set, then every singleton, then every pair
    for k in range(3):
        for combo in itertools.combinations(range(len(cu.sentences)), k):
            bits = sum(1 << i for i in combo)
            gamma = _class_record(bits, u)
            bel = [c for c in classes if rule(gamma, True, c) is not None]
            consistent = _combined_witness("bd", gamma) is None
            consistent_sets += consistent
            ctx.checks += len(classes) * len(bel)
            believed = sum(1 << c for c in bel)
            for phi in classes:
                if believed >> phi & 1:  # conclusion already holds
                    continue
                grown = _class_record(bits | 1 << n + phi, u)
                for psi in bel:
                    if rule(grown, False, psi) is not None:
                        violations.append((bits, phi, psi))
                        consistent_violations += consistent
    return violations, consistent_sets, consistent_violations


@_case(
    "bprime-counterexample-bd",
    "the rule «from Γ ⊦ B: g and Γ+D: f ⊦ D: g conclude Γ ⊦ B: f» is "
    "unsound for bd in general but holds on combined-consistent sets",
    expectation="fails-with-witness",
)
def _bprime_counterexample(ctx: _Ctx) -> str:
    cu2 = _cu(2)
    violations, consistent_sets, consistent_violations = _bprime_sweep(ctx, cu2)
    u = cu2.universe
    p, q = u.atom_mask("p"), u.atom_mask("q")
    canonical = (1 << q | 1 << len(cu2.classes) + q, p, q)  # {B: q; D: q}, f=p, g=q
    if not violations:
        ctx.fail("expected the rule to fail somewhere on the 2-atom slice")
    if canonical not in violations:
        ctx.fail("canonical witness Γ={B: q; D: q}, f=p, g=q not rediscovered")
    if consistent_violations:
        ctx.fail(
            f"{consistent_violations} violations on combined-consistent sets "
            "(restated rule should hold there)"
        )
    return (
        f"fails-as-stated; witness Γ={{B: q; D: q}}, f=p, g=q "
        f"({len(violations)} violations among {ctx.checks} premise triples, "
        f"none on the {consistent_sets} combined-consistent sets)"
    )


# ---------------------------------------------------------------------------
# Total collapse of the two attitudes in bn


@_case(
    "collapse-bn",
    "in bn, disbelieving f is exactly believing !f",
)
def _collapse_bn(ctx: _Ctx) -> str:
    for cu, bits in ctx.one_then_two_atom_sets(80, 300):
        full = cu.universe.full_mask
        bel, dis = _halves(_slice("bn", cu, bits), cu.universe)
        for c in range(full + 1):
            ctx.check(
                dis >> c & 1 == bel >> (full & ~c) & 1,
                lambda: f"Γ={_fmt(_set_of(cu, bits))}, class {c:#x}",
            )
    return f"D: f <-> B: !f across the consequence slice ({ctx.checks} checks)"


# ---------------------------------------------------------------------------
# Disjunction introduction under disbelief


@_case(
    "dvee-polarity",
    "«disbelieve f and g, hence disbelieve f | g» holds in gbd but fails "
    "in wbd and bd",
    expectation="fails-with-witness",
)
def _dvee_polarity(ctx: _Ctx) -> str:
    # gbd: holds on samples
    for cu, bits in ctx.sampled_sets(60, 200):
        _, dis = _halves(_slice("gbd", cu, bits), cu.universe)
        for f, g in itertools.product(members(dis), repeat=2):
            ctx.check(
                dis >> (f | g) & 1 == 1,
                lambda: f"gbd: Γ={_fmt(_set_of(cu, bits))}, f={f:#x}, g={g:#x}",
            )

    # wbd and bd: the canonical two-disbelief witness breaks it
    u2 = _cu(2).universe
    witness = parse_information_set("D: p\nD: q")
    query = parse_sentence("D: p | q")
    for logic in ("wbd", "bd"):
        ctx.check(
            decide(logic, witness, parse_sentence("D: p"), u2).entailed
            and decide(logic, witness, parse_sentence("D: q"), u2).entailed
            and not decide(logic, witness, query, u2).entailed,
            lambda: f"{logic}: Γ={{D: p; D: q}} should break the rule",
            weight=3,
        )
    # and gbd accepts exactly this inference
    ctx.check(
        decide("gbd", witness, query, u2).entailed,
        lambda: "gbd: Γ={D: p; D: q} should entail D: p | q",
    )
    return (
        f"fails-as-stated for wbd and bd; witness Γ={{D: p; D: q}} with "
        f"f=p, g=q (D: p | q not entailed); holds throughout gbd "
        f"({ctx.checks} checks)"
    )


# ---------------------------------------------------------------------------
# Rejection-style reasoning in gbd


@_case(
    "rej-gbd",
    "in gbd, disbelieving g and disbelieving !(f -> g) forces "
    "disbelieving f",
)
def _rej_gbd(ctx: _Ctx) -> str:
    for cu, bits in ctx.sampled_sets(60, 250):
        full = cu.universe.full_mask
        _, dis = _halves(_slice("gbd", cu, bits), cu.universe)
        for f in range(full + 1):
            for g in members(dis):
                neg_imp = f & (full & ~g)  # class of !(f -> g)
                ctx.check(
                    not (dis >> neg_imp & 1) or dis >> f & 1 == 1,
                    lambda: f"Γ={_fmt(_set_of(cu, bits))}, f={f:#x}, g={g:#x}",
                )
    return f"rejection detachment holds across gbd slices ({ctx.checks} checks)"


# ---------------------------------------------------------------------------
# Named scenarios


@_case(
    "agnosticism",
    "suspending judgment (D: p with D: !p) is coherent except under the "
    "pooled gbd reading",
)
def _agnosticism(ctx: _Ctx) -> str:
    for r in evaluate(agnostic()):
        ctx.check(r.ok, r.render)
    return (
        "gbd pools the two sources into d-inconsistency (D: true follows); "
        f"wbd and bd stay consistent ({ctx.checks} checks)"
    )


@_case(
    "top-disbelief-bd",
    "in bd, adding D: true makes every disbelief derivable but leaves "
    "beliefs untouched",
)
def _top_disbelief(ctx: _Ctx) -> str:
    for cu, bits in ctx.sampled_sets(60, 250):
        beliefs, disbeliefs = _kinds(cu)
        top_d = 1 << len(cu.classes) + cu.universe.full_mask  # D: true
        grown = _slice("bd", cu, bits | top_d)
        ctx.check(
            grown & disbeliefs == disbeliefs,
            lambda: f"not all disbeliefs derivable: Γ={_fmt(_set_of(cu, bits))}",
        )
        ctx.check(
            _slice("bd", cu, bits) & beliefs == grown & beliefs,
            lambda: f"beliefs changed: Γ={_fmt(_set_of(cu, bits))}",
        )
    return f"D: true saturates disbelief and preserves belief ({ctx.checks} checks)"


@_case(
    "lottery-consistency-bd",
    "the n-ticket lottery stays fully consistent in wbd and bd while gbd "
    "collapses, for n = 2, 3, 4",
)
def _lottery_consistency(ctx: _Ctx) -> str:
    for n in (2, 3, 4):
        for r in evaluate(lottery(n)):
            ctx.check(r.ok, lambda: f"{n} tickets: {r.render()}")
    return f"lottery verdicts as expected for 2..4 tickets ({ctx.checks} checks)"


# ---------------------------------------------------------------------------
# Relative strength of the systems


@_case(
    "strength-ordering",
    "wbd consequences are contained in both gbd and bd consequences, "
    "which are mutually incomparable",
)
def _strength_ordering(ctx: _Ctx) -> str:
    for cu, bits in ctx.one_then_two_atom_sets(60, 200):
        weak = _slice("wbd", cu, bits)
        for logic in ("gbd", "bd"):
            ctx.check(
                weak & ~_slice(logic, cu, bits) == 0,
                lambda: f"wbd ⊄ {logic}: Γ={_fmt(_set_of(cu, bits))}",
            )

    u2 = _cu(2).universe
    for only, other, gamma_text, query_text in (
        ("gbd", "bd", "D: p\nD: q", "D: p | q"),
        ("bd", "gbd", "B: !p", "D: p"),
    ):
        gamma = parse_information_set(gamma_text)
        query = parse_sentence(query_text)
        ctx.check(
            decide(only, gamma, query, u2).entailed
            and not decide(other, gamma, query, u2).entailed,
            lambda: f"expected {_fmt(gamma)} ⊦ {query_text} in {only} only",
            weight=2,
        )
    return (
        f"wbd is weakest everywhere ({ctx.checks} checks); incomparability "
        "witnessed by {D: p; D: q} ⊦gbd D: p | q and {B: !p} ⊦bd D: p"
    )


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


def readings_agree(
    a: SideSpec,
    b: SideSpec,
    samples: Iterable[InformationSet],
    cu: ClosureUniverse,
) -> list[Disagreement]:
    """Diff two consequence producers over the sampled sets.

    A side is either a logic name (its decision procedure) or a
    ``(rules, reading)`` pair.  Empty result means they agreed everywhere.
    Each set's records come in ``cu.sentences`` order.  Unknown logic or
    rule names and unknown readings raise ``ValueError`` before any set is
    read.
    """
    a, b = _checked_side(a), _checked_side(b)
    records: list[Disagreement] = []
    for gamma in samples:
        records += _disagreements(a, b, _classes_of(gamma, cu.universe), cu, gamma)
    return records


def _checked_side(side: SideSpec) -> SideSpec:
    """``side`` with its logic name checked, or its rule names as ``Rule``s
    and its reading checked."""
    if isinstance(side, str):
        _require_logic(side)
        return side
    return _rule_side(*side)


def _disagreements(
    a: SideSpec,
    b: SideSpec,
    bits: int,
    cu: ClosureUniverse,
    gamma: Optional[InformationSet] = None,
) -> list[Disagreement]:
    """Where two sides' consequences of the set ``bits`` stands for differ,
    in ``cu.sentences`` order.  A logic side is read through ``_slice``.
    The records name ``gamma``, or the set of ``bits``, built only where the
    sides differ."""
    left, right = [
        _slice(side, cu, bits)
        if isinstance(side, str)
        else _close_classes(*side, bits, cu)  # type: ignore[arg-type]
        for side in (a, b)
    ]
    if left == right:
        return []
    gamma = _set_of(cu, bits) if gamma is None else gamma
    return [
        Disagreement(gamma, cu.sentences[i], bool(left >> i & 1), not left >> i & 1)
        for i in members(left ^ right)
    ]


# ---------------------------------------------------------------------------
# Closure = decision, per logic


_VALIDATED_CLOSURES: dict[LogicId, list[tuple[frozenset[Rule], str]]] = {
    "wbd": [(RULE_SETS["wbd"], "membership"), (RULE_SETS["wbd"], "derivability")],
    "gbd": [(RULE_SETS["gbd"], "membership"), (RULE_SETS["gbd"], "derivability")],
    "bd": [
        (RULE_SETS["bd"], "derivability"),
        (frozenset({Rule.B, Rule.DBot, Rule.DPrime}), "derivability"),
    ],
    "bn": [(RULE_SETS["bn"] | {Rule.DPrime}, "derivability")],
}


@_case(
    "closure-decision-{logic}",
    "the validated {logic} rule set closes every set to exactly its "
    "decision-procedure consequences",
    logics=LOGICS,
    counterexample_cap=4,
)
def _closure_decision(ctx: _Ctx, logic: LogicId) -> str:
    cu1, cu2 = _cu(1), _cu(2)
    sides = _VALIDATED_CLOSURES[logic]
    samples = [_sampled_bits(cu2, 4, ctx.rng) for _ in range(ctx.count(100, 250))]
    for label, cu, sets in (
        ("1 atom", cu1, range(1 << len(cu1.sentences))),
        ("2 atoms", cu2, samples),
    ):
        for side in sides:
            records = (r for bits in sets for r in _disagreements(side, logic, bits, cu))
            ctx.checks += len(sets) * len(cu.sentences)
            for r in itertools.islice(records, 2):
                ctx.fail(f"{label}, {side[1]}: {r.render()}")

    exhaustive_note = ""
    if ctx.scale == "full":
        # exhaustive |Γ| <= 4 over the 2-atom universe, primary rule set
        count = 0
        for k in range(5):
            for combo in itertools.combinations(range(len(cu2.sentences)), k):
                bits = sum(1 << i for i in combo)
                count += 1
                ctx.check(
                    not _disagreements(sides[0], logic, bits, cu2),
                    lambda: f"exhaustive: Γ={_fmt(_set_of(cu2, bits))}",
                    weight=len(cu2.sentences),
                )
        exhaustive_note = f" plus all {count} sets of size <= 4"
    return (
        f"rule closure reproduces the decision procedure on 256 "
        f"exhaustive 1-atom sets and {len(samples)} sampled 2-atom "
        f"sets{exhaustive_note} ({ctx.checks} sentence checks)"
    )


# ---------------------------------------------------------------------------
# Reading gaps


@_case(
    "membership-d-gap",
    "the literal membership reading of the belief-consulting disbelief "
    "rule under-derives; the derivability reading closes the gap",
    expectation="fails-with-witness",
    logic="bd",
    stated=(RULE_SETS["bd"], "membership"),
    repaired=(RULE_SETS["bd"], "derivability"),
    over_derives=lambda r: f"membership over-derives: {r.render()}",
    still_differs="derivability reading still differs",
    note="under the membership reading ({gaps} of 256 one-atom sets "
    "under-derive, none over-derive; derivability closes every gap)",
)
@_case(
    "bn-closure-gap",
    "the four-rule bn set under-derives relative to the bn decision "
    "procedure; adding the recursive disbelief rule repairs it",
    expectation="fails-with-witness",
    logic="bn",
    stated=(RULE_SETS["bn"], "derivability"),
    repaired=(RULE_SETS["bn"] | {Rule.DPrime}, "derivability"),
    over_derives=lambda r: "plain bn rule set over-derives somewhere",
    still_differs="repaired rule set still differs",
    note="({gaps} of 256 one-atom sets under-derive; adding the recursive "
    "disbelief rule restores equality)",
)
def _reading_gap(
    ctx: _Ctx,
    logic: LogicId,
    stated: tuple[frozenset[Rule], str],
    repaired: tuple[frozenset[Rule], str],
    over_derives: Callable[[Disagreement], str],
    still_differs: str,
    note: str,
) -> str:
    """Stated rules never over-derive on 1-atom sets yet miss D: p from
    Γ={B: !p}; the repaired rules match ``logic`` on each set they got
    wrong.  ``note`` ends the summary, ``{gaps}`` counting those sets."""
    cu1 = _cu(1)
    sets = range(1 << len(cu1.sentences))
    records = [r for bits in sets for r in _disagreements(stated, logic, bits, cu1)]
    ctx.checks += len(sets) * len(cu1.sentences)
    overshoot = [r for r in records if r.in_a]
    if overshoot:
        ctx.fail(over_derives(overshoot[0]))
    witness = (parse_information_set("B: !p"), parse_sentence("D: p"))
    if witness not in {(r.gamma, r.sentence) for r in records}:
        ctx.fail("witness (Γ={B: !p}, D: p) not found in the gap")
    gap_sets = sorted({r.gamma for r in records}, key=_fmt)
    gaps = [_classes_of(g, cu1.universe) for g in gap_sets]
    still = next(
        (r for bits in gaps for r in _disagreements(repaired, logic, bits, cu1)), None
    )
    ctx.checks += len(gaps) * len(cu1.sentences)
    if still is not None:
        ctx.fail(f"{still_differs}: {still.render()}")
    return "fails-as-stated; witness Γ={B: !p} misses D: p " + note.format(
        gaps=len(gap_sets)
    )


@_case(
    "d-inconsistency-readings-bd",
    "reading d-inconsistency off the disbelief projection alone misses "
    "bd's collapse; the full-set reading matches combined inconsistency",
    expectation="fails-with-witness",
)
def _d_inconsistency_readings(ctx: _Ctx) -> str:
    cu1 = _cu(1)
    literal_misses = 0
    for bits in range(1 << len(cu1.sentences)):
        rep = _report("bd", _class_record(bits, cu1.universe))
        ctx.check(
            rep.d_inconsistent == rep.combined_inconsistent,
            lambda: f"full reading diverges: Γ={_fmt(_set_of(cu1, bits))}",
        )
        literal_misses += rep.combined_inconsistent and not rep.d_inconsistent_literal
    rep = inconsistency_report("bd", parse_information_set("B: p\nD: p"))
    ctx.check(
        rep.combined_inconsistent and not rep.d_inconsistent_literal,
        lambda: "Γ={B: p; D: p} should split the two readings",
    )
    if not literal_misses:
        ctx.fail("no set separates the literal and full readings")
    return (
        f"fails-as-stated for the projection reading; witness "
        f"Γ={{B: p; D: p}} is combined-inconsistent yet its disbelief "
        f"projection is innocent ({literal_misses} of 256 sets split; "
        f"full-set reading tracks combined inconsistency on all {ctx.checks})"
    )


@_case(
    "bprime-derived-rule-bd",
    "adding the belief-introduction rule to the bd set changes nothing on "
    "combined-consistent sets but over-derives on inconsistent ones",
)
def _bprime_derived_rule(ctx: _Ctx) -> str:
    with_bp = RULE_SETS["bd"] | {Rule.BPrime}
    for cu, bits in ctx.sampled_sets(50, 150):
        if _combined_witness("bd", _class_record(bits, cu.universe)) is not None:
            continue
        ctx.check(
            _close_classes(with_bp, "derivability", bits, cu)
            == _close_classes(RULE_SETS["bd"], "derivability", bits, cu),
            lambda: f"consistent set grew: Γ={_fmt(_set_of(cu, bits))}",
        )
    cu2 = _cu(2)
    q = cu2.universe.atom_mask("q")
    witness = 1 << q | 1 << len(cu2.classes) + q  # Γ={B: q; D: q}
    base = _close_classes(RULE_SETS["bd"], "derivability", witness, cu2)
    grown = _close_classes(with_bp, "derivability", witness, cu2)
    ctx.check(
        base & ~grown == 0 and base != grown,
        lambda: "Γ={B: q; D: q} should gain sentences from the extra rule",
    )
    return (
        f"conservative on {ctx.checks - 1} combined-consistent sets (of "
        f"{ctx.count(50, 150)} sampled); over-derives on the inconsistent "
        "witness Γ={B: q; D: q}"
    )


# ---------------------------------------------------------------------------
# Countermodels and model-theory sanity


@_case(
    "countermodel-validity",
    "every constructed countermodel satisfies the premises and refutes "
    "the query",
)
def _countermodel_validity(ctx: _Ctx) -> str:
    built = 0
    logics = itertools.cycle(("wbd", "gbd", "bd"))
    for logic, (cu, bits) in zip(logics, ctx.sampled_sets(80, 300)):
        u, gamma = cu.universe, _set_of(cu, bits)
        alpha = ctx.rng.choice(cu.sentences)
        ctx.checks += 1
        if decide(logic, gamma, alpha, u).entailed:
            continue
        model = construct_countermodel(logic, gamma, alpha, u)
        built += 1
        if not holds_all(model, gamma) or satisfies(model, alpha):
            ctx.fail(f"{logic}: Γ={_fmt(gamma)}, α={render_sentence(alpha)}")
    return (
        f"{built} countermodels constructed and re-verified against the "
        f"satisfaction relation ({ctx.checks} verdicts inspected)"
    )


@_case(
    "bd-models-embed-wbd",
    "every bd model is a wbd model, so bd can only have fewer models",
)
def _bd_models_embed(ctx: _Ctx) -> str:
    u1 = _cu(1).universe
    for _ in range(ctx.count(40, 120)):
        gamma = generate_information_set(_cu(1), 4, ctx.rng)
        ctx.check(
            count_models("bd", gamma, u1) <= count_models("wbd", gamma, u1),
            lambda: f"more bd than wbd models: Γ={_fmt(gamma)}",
        )
        for model in enumerate_models("bd", gamma, u1):
            assert isinstance(model, ModelBD)
            lifted = ModelWBD(model.m, model.family, model.universe)
            if not ctx.check(
                holds_all(lifted, gamma),
                lambda: f"bd model fails as wbd model: Γ={_fmt(gamma)}",
            ):
                break
    u2 = _cu(2).universe
    for _ in range(ctx.count(8, 25)):
        gamma = generate_information_set(_cu(2), 4, ctx.rng)
        ctx.check(
            count_models("bd", gamma, u2) <= count_models("wbd", gamma, u2),
            lambda: f"more bd than wbd models at 2 atoms: Γ={_fmt(gamma)}",
        )
    return f"bd model classes embed into wbd ({ctx.checks} checks)"


@_case(
    "gbd-universe-extension",
    "gbd oracle verdicts are stable when a fresh atom joins the universe",
)
def _gbd_universe_extension(ctx: _Ctx) -> str:
    cu2 = _cu(2)
    u2 = cu2.universe
    u3 = AtomUniverse(("p", "q", "r"))
    for _ in range(ctx.count(40, 150)):
        gamma = generate_information_set(cu2, 4, ctx.rng)
        alpha = ctx.rng.choice(cu2.sentences)
        ctx.check(
            brute_force_entails("gbd", gamma, alpha, u2).entailed
            == brute_force_entails("gbd", gamma, alpha, u3).entailed,
            lambda: f"Γ={_fmt(gamma)}, α={render_sentence(alpha)}",
        )
    return f"oracle verdicts invariant under a fresh atom ({ctx.checks} checks)"


@_case(
    "universe-stability",
    "decision verdicts do not change when the universe gains unused atoms",
)
def _universe_stability(ctx: _Ctx) -> str:
    universes = (_cu(1).universe, _cu(2).universe, AtomUniverse(("p", "q", "r")))
    for _ in range(ctx.count(80, 300)):
        gamma = generate_information_set(_cu(1), 4, ctx.rng)
        alpha = ctx.rng.choice(_cu(1).sentences)
        for logic in LOGICS:
            verdicts = {decide(logic, gamma, alpha, u).entailed for u in universes}
            ctx.check(
                len(verdicts) == 1,
                lambda: f"{logic}: Γ={_fmt(gamma)}, α={render_sentence(alpha)}",
            )
    return f"verdicts stable across three universes ({ctx.checks} checks)"


# ---------------------------------------------------------------------------
# Suite driver

REQUIRED_CASE_IDS: frozenset[str] = frozenset(
    {
        "oracle-agreement-wbd",
        "oracle-agreement-gbd",
        "oracle-agreement-bd",
        "tarskian-wbd",
        "tarskian-gbd",
        "tarskian-bd",
        "tarskian-bn",
        "decoupling-wbd",
        "decoupling-gbd",
        "belief-to-disbelief-bd",
        "disbelief-not-to-belief-bd",
        "inconsistency-collapse-bd",
        "bprime-counterexample-bd",
        "collapse-bn",
        "dvee-polarity",
        "rej-gbd",
        "agnosticism",
        "top-disbelief-bd",
        "lottery-consistency-bd",
        "strength-ordering",
        "closure-decision-wbd",
        "closure-decision-gbd",
        "closure-decision-bd",
        "closure-decision-bn",
        "membership-d-gap",
        "bn-closure-gap",
        "d-inconsistency-readings-bd",
        "bprime-derived-rule-bd",
        "countermodel-validity",
        "bd-models-embed-wbd",
        "gbd-universe-extension",
        "universe-stability",
    }
)


def run_suite(
    seed: int = 0,
    scale: ScaleName = "quick",
    case_ids: Optional[Sequence[str]] = None,
) -> PropertyReport:
    """Run the property cases and return a reproducible report.

    ``scale`` picks the sampling budget: ``quick`` keeps everything under a
    few seconds, ``full`` raises the sample counts and adds the exhaustive
    size-4 sweep at two atoms to the closure/decision comparisons.
    """
    if scale not in ("quick", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    missing = REQUIRED_CASE_IDS - set(_CASES)
    if missing:  # pragma: no cover - coverage manifest
        raise RuntimeError(f"property cases missing: {sorted(missing)}")
    selected = sorted(case_ids if case_ids is not None else _CASES)
    unknown = [c for c in selected if c not in _CASES]
    if unknown:
        raise ValueError(f"unknown case ids: {unknown}")
    results = []
    for case_id in selected:
        case = _CASES[case_id]
        ctx = _Ctx(random.Random(f"{seed}:{case_id}"), scale)
        t0 = time.perf_counter()
        summary = case.runner(ctx)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        results.append(
            CaseResult(
                case_id=case.case_id,
                description=case.description,
                expectation=case.expectation,
                passed=not ctx.failures,
                summary=summary,
                cases_run=ctx.checks,
                counterexamples=tuple(ctx.failures[: case.counterexample_cap]),
                wall_ms=wall_ms,
            )
        )
    return PropertyReport(seed=seed, scale=scale, results=tuple(results))
