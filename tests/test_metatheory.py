"""The cross-validation suite: registry, determinism, report shapes."""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import random

import re
from pathlib import Path

import pytest

from bdlogic import metatheory, readings_agree
from bdlogic.closure import RULE_SETS
from bdlogic.decision import _class_record, _report, consequences, decide, inconsistency_report
from bdlogic.metatheory import (
    REQUIRED_CASE_IDS,
    PropertyReport,
    generate_information_set,
    run_suite,
)
from bdlogic.plcore import members
from bdlogic.syntax import InformationSet, render_sentence
from bdlogic.verdicts import LOGICS

# a light but representative slice — the full suite runs in the acceptance
# gate and via `bdl meta`
SMOKE_CASES = [
    "agnosticism",
    "membership-d-gap",
    "bprime-counterexample-bd",
    "collapse-bn",
    "tarskian-bd",
]


def test_registry_is_complete():
    report = run_suite(seed=1, scale="quick", case_ids=SMOKE_CASES)
    assert {c["case_id"] for c in report.canonical_dict()["cases"]} == set(
        SMOKE_CASES
    )
    assert len(REQUIRED_CASE_IDS) == 32


def test_unknown_case_id_rejected():
    with pytest.raises(ValueError):
        run_suite(case_ids=["no-such-case"])


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        run_suite(scale="enormous")


def test_smoke_cases_pass_and_count_checks():
    report = run_suite(seed=3, scale="quick", case_ids=SMOKE_CASES)
    assert report.all_passed
    assert report.total_checks > 0
    data = report.canonical_dict()
    assert data["all_passed"] is True
    assert data["total_checks"] == report.total_checks
    for case in data["cases"]:
        assert case["passed"] is True
        assert case["cases_run"] > 0


def test_reports_are_deterministic_for_a_seed():
    a = run_suite(seed=11, scale="quick", case_ids=SMOKE_CASES).to_json()
    b = run_suite(seed=11, scale="quick", case_ids=SMOKE_CASES).to_json()
    assert a == b


def test_different_seeds_change_the_sampling():
    a = run_suite(seed=1, scale="quick", case_ids=["tarskian-bd"]).canonical_dict()
    b = run_suite(seed=2, scale="quick", case_ids=["tarskian-bd"]).canonical_dict()
    # both pass, but they are distinct runs over distinct samples; the
    # canonical payload pins seed so the dicts differ
    assert a["seed"] != b["seed"]


def test_canonical_payload_has_no_timing(cu1):
    report = run_suite(seed=5, scale="quick", case_ids=["agnosticism"])
    blob = report.to_json()
    data = json.loads(blob)
    assert "wall_ms" not in blob
    assert data["schema"] == 1
    assert data["scale"] == "quick"
    # json round trip is stable
    assert json.dumps(data, indent=2, sort_keys=True) == blob


def test_per_case_reports_reassemble_the_suite():
    # the benchmark runs the suite one case at a time and reassembles it
    whole = run_suite(seed=7, scale="quick")
    parts = tuple(
        part
        for r in whole.results
        for part in run_suite(seed=7, scale="quick", case_ids=[r.case_id]).results
    )
    assembled = PropertyReport(seed=7, scale="quick", results=parts)
    assert assembled.to_json() == whole.to_json()


def test_text_report_shape():
    report = run_suite(seed=5, scale="quick", case_ids=SMOKE_CASES)
    text = report.to_text()
    assert text.startswith("metatheory suite — seed 5, scale quick")
    assert "SUITE: PASS" in text
    for case_id in SMOKE_CASES:
        assert case_id in text


class TestGenerateInformationSet:
    def test_respects_max_size(self, cu2):
        rng = random.Random(0)
        for _ in range(50):
            iset = generate_information_set(cu2, 3, rng)
            assert len(iset) <= 3

    def test_deterministic_under_seeding(self, cu2):
        a = [generate_information_set(cu2, 4, random.Random(9)) for _ in range(10)]
        b = [generate_information_set(cu2, 4, random.Random(9)) for _ in range(10)]
        assert a == b

    def test_draws_only_universe_sentences(self, cu1):
        rng = random.Random(1)
        allowed = set(cu1.sentences)
        for _ in range(30):
            assert set(generate_information_set(cu1, 5, rng)) <= allowed


# Cheap cases that a consequence operation missing one sentence breaks.
FAILURE_PATH_CASES = ["collapse-bn", "strength-ordering", "tarskian-bd"]
# SHA-256 of their failing report: which counterexamples are kept, and
# their order, are output too.  Re-recorded when ``tarskian-*`` began to
# read inclusion off the slice, so that a slice missing a member of Γ now
# fails inclusion as well as idempotency.
FAILURE_REPORT_SHA256 = (
    "19c24b0afcbfd8b6fbdc85639d2c0cfc5b79d233f50bcd860a77d5d44ad87bbd"
)


def _break_slices(monkeypatch):
    """Patch ``metatheory._slice`` to drop the first sentence (by rendering)
    from every gbd, bd and bn slice."""
    real = metatheory._slice

    def mutant(logic, cu, bits):
        cons = real(logic, cu, bits)
        if logic == "wbd" or not cons:
            return cons
        first = min(members(cons), key=lambda i: render_sentence(cu.sentences[i]))
        return cons & ~(1 << first)

    monkeypatch.setattr(metatheory, "_slice", mutant)


def _assert_caught(good, bad):
    """Each case fails with at most three counterexamples while running
    exactly the checks, and writing exactly the summary, of the good run."""
    assert not bad.all_passed
    for ok, broken in zip(good.results, bad.results):
        assert ok.passed and not broken.passed, broken.case_id
        assert 1 <= len(broken.counterexamples) <= 3, broken.case_id
        assert broken.cases_run == ok.cases_run, broken.case_id
        assert broken.summary == ok.summary, broken.case_id


def test_a_wrong_decision_procedure_is_reported(monkeypatch):
    """Drive cases down their failure path with a broken consequence slice.

    Every case reads its slices through ``_slice``, the oracle-agreement
    cases too, so the mutant patches that one function.
    """
    good = run_suite(seed=0, scale="quick", case_ids=FAILURE_PATH_CASES)
    _break_slices(monkeypatch)
    bad = run_suite(seed=0, scale="quick", case_ids=FAILURE_PATH_CASES)
    _assert_caught(good, bad)
    tarskian = bad.results[FAILURE_PATH_CASES.index("tarskian-bd")]
    assert tarskian.counterexamples[0].startswith("inclusion fails")
    digest = hashlib.sha256(bad.to_json().encode()).hexdigest()
    assert digest == FAILURE_REPORT_SHA256


def test_oracle_agreement_compares_the_slice_with_the_oracle(monkeypatch):
    """The case and its shrink predicate read the same two bit-level answers:
    a bd slice always holds ``B: true``, so under the mutant every set
    disagrees with the oracle and shrinks to the empty set."""
    good = run_suite(seed=0, scale="quick", case_ids=["oracle-agreement-bd"])
    _break_slices(monkeypatch)
    bad = run_suite(seed=0, scale="quick", case_ids=["oracle-agreement-bd"])
    _assert_caught(good, bad)
    assert set(bad.results[0].counterexamples) == {"Γ={} at 1 atom"}


def test_passing_oracle_agreement_builds_no_set(monkeypatch):
    def refuse(cu, bits):
        raise AssertionError("a set was built")

    monkeypatch.setattr(metatheory, "_set_of", refuse)
    cases = [f"oracle-agreement-{logic}" for logic in ("wbd", "gbd", "bd")]
    report = run_suite(seed=0, scale="quick", case_ids=cases)
    assert report.all_passed and len(report.results) == 3


def _formula_bprime_sweep(ctx):
    """``bprime-counterexample-bd``'s sweep on ``InformationSet``s through
    ``decide`` and ``inconsistency_report``, as the case ran before it
    compiled class masks: the reference for ``metatheory._bprime_sweep``.
    Violations come in set order, then f, then g ascending."""
    cu2 = metatheory._cu(2)
    u = cu2.universe
    full = u.full_mask
    violations = []
    consistent_violations = consistent_sets = 0
    small_sets = [
        InformationSet(frozenset(combo))
        for k in range(3)
        for combo in itertools.combinations(cu2.sentences, k)
    ]
    for gamma in small_sets:
        bel = [
            c for c in range(full + 1)
            if decide("bd", gamma, cu2.sentence(True, c), u).entailed
        ]
        consistent = not inconsistency_report("bd", gamma).combined_inconsistent
        consistent_sets += consistent
        ctx.checks += (full + 1) * len(bel)
        for phi in range(full + 1):
            if phi in bel:
                continue
            grown = gamma.union([cu2.sentence(False, phi)])
            for psi in bel:
                if decide("bd", grown, cu2.sentence(False, psi), u).entailed:
                    violations.append((gamma, phi, psi))
                    consistent_violations += consistent
    return violations, consistent_sets, consistent_violations


def test_bprime_sweep_matches_the_formula_level_sweep():
    cu2 = metatheory._cu(2)
    want_ctx = metatheory._Ctx(random.Random(0), "quick")
    got_ctx = metatheory._Ctx(random.Random(0), "quick")
    want = _formula_bprime_sweep(want_ctx)
    violations, consistent_sets, consistent_violations = metatheory._bprime_sweep(
        got_ctx, cu2
    )
    got = [(metatheory._set_of(cu2, bits), phi, psi) for bits, phi, psi in violations]
    assert (got, consistent_sets, consistent_violations) == want
    assert got_ctx.checks == want_ctx.checks
    assert (len(got), consistent_sets, got_ctx.checks) == (3679, 391, 42784)


def test_closure_sweep_records_match_readings_agree(cu1, cu2):
    # the membership reading of bd under-derives on 1-atom sets, so the
    # records of the mask-level comparison are exercised
    side = (RULE_SETS["bd"], "membership")
    sets = range(1 << len(cu1.sentences))
    want = readings_agree(side, "bd", [metatheory._set_of(cu1, k) for k in sets], cu1)
    assert want
    assert [r for k in sets for r in metatheory._disagreements(side, "bd", k, cu1)] == want
    rng = random.Random(4)
    samples = [metatheory._sampled_bits(cu2, 4, rng) for _ in range(60)]
    assert [r for b in samples for r in metatheory._disagreements(side, "bd", b, cu2)] == (
        readings_agree(side, "bd", [metatheory._set_of(cu2, b) for b in samples], cu2)
    )


def test_sampled_bits_draw_what_sampling_the_sentences_draws(cu2):
    a, b = random.Random(21), random.Random(21)
    for _ in range(200):
        bits = metatheory._sampled_bits(cu2, 4, a)
        k = b.randint(0, 4)
        assert metatheory._set_of(cu2, bits) == InformationSet(
            frozenset(b.sample(cu2.sentences, k))
        )


def test_slice_and_report_match_the_formula_level_entry_points(cu1, cu2):
    """``_slice`` is ``consequences`` as bits, and ``_report`` on the class
    record has the flags of ``inconsistency_report``, which compiles the set
    over its own atoms only: the cases rely on both."""
    rng = random.Random(13)
    sets = [(cu1, bits) for bits in range(1 << len(cu1.sentences))] + [
        (cu2, metatheory._sampled_bits(cu2, 4, rng)) for _ in range(60)
    ]
    flags = operator.attrgetter(
        "b_inconsistent",
        "d_inconsistent",
        "d_inconsistent_literal",
        "combined_inconsistent",
    )
    for logic in LOGICS:
        for cu, bits in sets:
            gamma = metatheory._set_of(cu, bits)
            cons = consequences(logic, gamma, cu.universe)
            want = sum(1 << cu.sentences.index(s) for s in cons)
            assert metatheory._slice(logic, cu, bits) == want, (logic, gamma)
            got = _report(logic, _class_record(bits, cu.universe))
            want_flags = flags(inconsistency_report(logic, gamma))
            assert flags(got) == want_flags, (logic, gamma)


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _workflow_digests() -> list[tuple[str, int, str]]:
    """(digest, seed, scale) for each ``meta --json`` report the CI workflow
    checks by sha256: the quick reports of seeds 0-4 and the full report of
    seed 0."""
    found = re.findall(
        r"([0-9a-f]{64})  meta-(?:quick-(\d+)|(full))\.json",
        WORKFLOW.read_text(encoding="utf-8"),
    )
    return [(d, int(seed or 0), "full" if full else "quick") for d, seed, full in found]


def test_the_workflow_lists_six_report_digests():
    assert sorted((seed, scale) for _, seed, scale in _workflow_digests()) == [
        (0, "full"), (0, "quick"), (1, "quick"), (2, "quick"), (3, "quick"), (4, "quick")
    ]


@pytest.mark.parametrize(
    "digest, seed, scale",
    _workflow_digests(),
    ids=[f"{scale}-{seed}" for _, seed, scale in _workflow_digests()],
)
def test_reports_match_the_workflow_digests(digest, seed, scale):
    # what ``bdl meta --seed S --scale X --json`` prints
    blob = run_suite(seed=seed, scale=scale).to_json() + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
