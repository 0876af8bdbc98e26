"""The three workloads: inputs, one operation, and the checks on its output.

Each workload exposes ``items`` (the seeded operation stream), ``run(item)``
(one operation, timed by the caller), ``samples(item, result, ms)`` (the
operation's ``light``/``heavy`` latency samples as ``(class, ms, factor)``;
a factor of None leaves the scaling to ``run.Speed``), ``verify(item,
result)`` (a list of error strings and whether the operation was decided)
and ``golden()`` (the warm-up: fixed seed-0 inputs whose outputs must match
the digests recorded in ``digests.json``).  ``probe(count)`` runs
the first ``count`` operations of the stream without checking them, for the
peak-memory probe.

The program is always reached through module attributes (``cli.main``,
``decision.consequences``, ...) so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import io
import json
import re
import shutil
import tempfile
import time
import traceback
from pathlib import Path

import gen
from bdlogic import cli, closure, decision, metatheory, plcore, semantics, syntax
from bdlogic.verdicts import LOGICS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# Scratch space inside the checkout: the check documents and traced spans.
OUT_DIR = HERE.parent / ".bench_out"
ORACLE_LOGICS = ("wbd", "gbd", "bd")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _gamma_and_query(doc: gen.Doc, query=None):
    gamma = syntax.parse_information_set(doc.text())
    alpha = syntax.parse_sentence(gen.sentence_text(*query)) if query else None
    return gamma, alpha


def _bn_pool(doc: gen.Doc, atoms: list[str]) -> int:
    """Valuations (program's index order) where G_B and ~G_D hold, by gen.evaluate."""
    pool = 0
    for v in range(1 << len(atoms)):
        valuation = {a: bool(v >> k & 1) for k, a in enumerate(atoms)}
        if all(gen.evaluate(f, valuation) != (not b) for b, f in doc.sentences):
            pool |= 1 << v
    return pool


def reference_flags(doc: gen.Doc) -> dict[str, dict[str, bool]]:
    """b/d/combined inconsistency per logic from the model oracle (<= 2 atoms).

    b: ``B: false`` is entailed; d: ``D: true`` is entailed; combined: some
    class is both believed and disbelieved.  bn has no model semantics, so
    its flags come from the independent truth-table evaluator.
    """
    gamma, _ = _gamma_and_query(doc)
    atoms = sorted(doc.atoms)
    universe = plcore.AtomUniverse(atoms)
    out = {}
    for logic in ORACLE_LOGICS:
        entailed = semantics.brute_force_consequences(logic, gamma, universe)
        b_classes = {plcore.models_of(s.body, universe) for s in entailed
                     if isinstance(s, syntax.Belief)}
        d_classes = {plcore.models_of(s.body, universe) for s in entailed
                     if isinstance(s, syntax.Disbelief)}
        out[logic] = {"b": 0 in b_classes, "d": universe.full_mask in d_classes,
                      "combined": bool(b_classes & d_classes)}
    beliefs = [f for b, f in doc.sentences if b]
    pool_empty = _bn_pool(doc, atoms) == 0
    out["bn"] = {"b": gen.classically_entails(beliefs, ("bot",), atoms),
                 "d": pool_empty, "combined": pool_empty}
    return out


def reference_verdicts(doc: gen.Doc, query) -> dict[str, bool]:
    """Entailment per logic: the model oracle, and truth tables for bn."""
    gamma, alpha = _gamma_and_query(doc, query)
    out = {lg: semantics.brute_force_entails(lg, gamma, alpha).entailed for lg in ORACLE_LOGICS}
    is_belief, body = query
    premises = [f if b else ("not", f) for b, f in doc.sentences]
    out["bn"] = gen.classically_entails(
        premises, body if is_belief else ("not", body), sorted(doc.atoms))
    return out


# ---------------------------------------------------------------------------
# check: the CLI in-process


_VERDICT_LINE = re.compile(r"^(wbd|gbd|bd|bn): (entailed via .*|not entailed)$")
# AtomLimitError's message; the limit is read from it, not assumed.
_ATOM_LIMIT = re.compile(r"universe has (\d+) atoms; the limit is (\d+)")
_WORLDS = re.compile(r"\{([^{}]*)\}")


def _worlds(text: str) -> int:
    mask = 0
    for name in filter(None, (w.strip() for w in text.split(","))):
        mask |= 1 << int(name[1:])
    return mask


def _model_from_text(logic: str, line: str, universe):
    m_text, n_text = line.strip().split("; N = ")
    m = _worlds(_WORLDS.fullmatch(m_text[len("M = "):]).group(1))
    if logic == "gbd":
        return semantics.ModelGBD(m=m, n=_worlds(_WORLDS.fullmatch(n_text).group(1)),
                                  universe=universe)
    family = frozenset(_worlds(w) for w in _WORLDS.findall(n_text[1:-1]))
    cls = semantics.ModelWBD if logic == "wbd" else semantics.ModelBD
    return cls(m=m, family=family, universe=universe)


def _model_from_dict(payload: dict):
    universe = plcore.AtomUniverse(payload["atoms"])
    m = sum(1 << w for w in payload["m"])
    if payload["type"] == "gbd":
        return semantics.ModelGBD(m=m, n=sum(1 << w for w in payload["n"]), universe=universe)
    family = frozenset(sum(1 << w for w in member) for member in payload["family"])
    cls = semantics.ModelWBD if payload["type"] == "wbd" else semantics.ModelBD
    return cls(m=m, family=family, universe=universe)


def _parse_check(req: gen.CheckRequest, out: str):
    """(entailed per logic, countermodels per logic) from either output format."""
    entailed, models = {}, {}
    if req.json:
        payload = json.loads(out)
        for entry in payload["verdicts"]:
            entailed[entry["logic"]] = entry["entailed"]
            if entry["entailed"] != (entry["rationale"] is not None):
                raise ValueError(f"{entry['logic']}: rationale does not match verdict")
            if "countermodel" in entry:
                models[entry["logic"]] = _model_from_dict(entry["countermodel"])
        return entailed, models
    lines = out.splitlines()
    universe = None
    for i, line in enumerate(lines[1:], start=1):
        match = _VERDICT_LINE.match(line)
        if match:
            logic = match.group(1)
            entailed[logic] = match.group(2) != "not entailed"
        elif line == "  countermodel:":
            if universe is None:  # the deciders' universe: the document's atoms
                universe = plcore.AtomUniverse(req.doc.atoms)
            models[logic] = _model_from_text(logic, lines[i + 1], universe)
    return entailed, models


def _parse_consistency(req: gen.CheckRequest, out: str) -> dict[str, dict[str, bool]]:
    if req.json:
        report = json.loads(out)["report"]
        flags = {}
        for logic, r in report.items():
            if r["fully_consistent"] != (not (r["b_inconsistent"] or r["d_inconsistent"]
                                              or r["combined_inconsistent"])):
                raise ValueError(f"{logic}: fully_consistent does not match the flags")
            if (r["witness"] is not None) != r["combined_inconsistent"]:
                raise ValueError(f"{logic}: witness does not match combined flag")
            flags[logic] = {"b": r["b_inconsistent"], "d": r["d_inconsistent"],
                            "combined": r["combined_inconsistent"]}
        return flags
    flags = {}
    for line in out.splitlines():
        logic, rest = line.split(": ", 1)
        named = set(rest.split(" (witness: ", 1)[0].split(", "))
        flags[logic] = {"b": "b-inconsistent" in named, "d": "d-inconsistent" in named,
                        "combined": "combined-inconsistent" in named}
    return flags


class CheckWorkload:
    """``bdl check``/``bdl consistency`` on documents written to files.

    Documents are written to a fresh directory under ``.bench_out/``,
    removed when the process exits: each on first use, and the whole stream
    (with the core of every ``over`` document) by ``write_stream()`` before
    the timed part.  Outputs name the document's path, so digests are taken
    with the path replaced by ``<doc>``.
    """

    name = "check"

    def __init__(self, seed: int, count: int = gen.CHECK_STREAM):
        self.items = gen.check_requests(seed, count)
        OUT_DIR.mkdir(exist_ok=True)
        self.doc_dir = Path(tempfile.mkdtemp(prefix="docs-", dir=OUT_DIR))
        atexit.register(shutil.rmtree, self.doc_dir, ignore_errors=True)
        self._paths: dict[gen.Doc, str] = {}

    def write_stream(self) -> int:
        """Write every document the stream will read; returns the file count."""
        for req in self.items:
            self.path(req.doc)
            if req.core is not None:
                self.path(req.core)
        return len(self._paths)

    def path(self, doc: gen.Doc) -> str:
        """The document's file, written on first use under a sequential name."""
        if doc not in self._paths:
            path = self.doc_dir / f"{len(self._paths):04d}.bdl"
            path.write_text(doc.text(), encoding="utf-8")
            self._paths[doc] = str(path)
        return self._paths[doc]

    def argv(self, req: gen.CheckRequest) -> list[str]:
        return [req.command, self.path(req.doc), *req.argv_tail[1:]]

    def run(self, req: gen.CheckRequest):
        """``bdl <command> <file> ...`` in-process, output captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv(req))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is an error, whatever it exits with
                code = "traceback"
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def probe(self, count: int) -> None:
        for req in self.items[:count]:
            self.run(req)

    @staticmethod
    def samples(req: gen.CheckRequest, result, ms: float):
        klass = {"small": "light", "wide": "heavy"}.get(req.band)
        return [(klass, ms, None)] if klass else []

    def verify(self, req: gen.CheckRequest, result) -> tuple[list[str], bool]:
        code, out, err = result
        if req.band == "over" and code == 2:
            refusal = _ATOM_LIMIT.search(err)
            if not (refusal and int(refusal.group(1)) == len(req.doc.atoms)
                    and len(req.doc.atoms) > int(refusal.group(2))):
                return [f"over band: unexpected refusal {err.strip()!r}"], False
            return [], False
        if code not in (0, 1):
            return [f"exit {code}: {err.strip()[-300:]!r}"], False
        try:
            errors = self._verify_output(req, code, out)
        except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
            errors = [f"malformed output: {exc!r}"]
        return errors, not errors

    def _verify_output(self, req: gen.CheckRequest, code: int, out: str) -> list[str]:
        errors = []
        if req.command == "consistency":
            flags = _parse_consistency(req, out)
            if sorted(flags) != sorted(LOGICS):
                return [f"logics reported: {sorted(flags)}"]
            consistent = all(not any(f.values()) for f in flags.values())
            if code != (0 if consistent else 1):
                errors.append(f"exit {code} but consistent={consistent}")
            reference = (self._over_reference(req) if req.band == "over"
                         else reference_flags(req.doc) if len(req.doc.atoms) <= 2 else None)
            if reference is not None and reference != flags:
                errors.append(f"flags {flags} != reference {reference}")
            return errors
        entailed, models = _parse_check(req, out)
        if sorted(entailed) != sorted(LOGICS):
            return [f"logics reported: {sorted(entailed)}"]
        if code != (0 if all(entailed.values()) else 1):
            errors.append(f"exit {code} but verdicts {entailed}")
        if req.band == "over":
            reference = self._over_reference(req)
        elif len(req.doc.atoms) <= 2:
            reference = reference_verdicts(req.doc, req.query)
        else:
            reference = None
        if reference is not None and reference != entailed:
            errors.append(f"verdicts {entailed} != reference {reference}")
        if req.countermodel:
            gamma, alpha = _gamma_and_query(req.doc, req.query)
            for logic in ORACLE_LOGICS:
                if entailed[logic] != (logic not in models):
                    errors.append(f"{logic}: countermodel present={logic in models}")
                elif logic in models and not (semantics.holds_all(models[logic], gamma)
                                              and not semantics.satisfies(models[logic], alpha)):
                    errors.append(f"{logic}: countermodel does not refute the query")
        return errors

    def _over_reference(self, req: gen.CheckRequest):
        """A decided padded document must answer as its core does."""
        core = gen.CheckRequest("small", req.core, req.query, req.argv_tail)
        code, out, _ = self.run(core)
        if core.command == "consistency":
            return _parse_consistency(core, out)
        return _parse_check(core, out)[0]

    def golden(self) -> list[tuple[str, gen.CheckRequest, object]]:
        """Seed-0 requests (a few wide ones at 12-13 atoms) with their outputs."""
        reqs = [r for r in gen.check_requests(0, 200)
                if r.band != "wide" or len(r.doc.atoms) <= 13][:48]
        out = []
        for req in reqs:
            result = self.run(req)
            text = "{}\n{}\n{}".format(*result).replace(self.path(req.doc), "<doc>")
            out.append((sha(text), req, result))
        return out

    def cold_request(self) -> gen.CheckRequest:
        return next(r for r in self.items
                    if r.band == "small" and r.command == "check" and r.json)


# ---------------------------------------------------------------------------
# slices: consequence slices and closures on small sets

_FAMILY_RULES = {
    "dprime": frozenset({closure.Rule.B, closure.Rule.DBot, closure.Rule.DPrime}),
    "bprime": frozenset({closure.Rule.B, closure.Rule.DBot, closure.Rule.D,
                         closure.Rule.BPrime}),
}
_READINGS = ("membership", "derivability")
SLICE_SAMPLE_EVERY = 16  # every 16th checked set is also compared with the oracle


class SlicesWorkload:
    name = "slices"

    def __init__(self, seed: int, count: int = gen.SLICE_STREAM):
        self.items = gen.slice_docs(seed, count)
        self.verified = 0

    def run(self, doc: gen.Doc):
        gamma = syntax.parse_information_set(doc.text())
        atoms = list(doc.atoms)
        universe = plcore.AtomUniverse(atoms)
        cu = closure.build_universe(len(atoms), atoms)
        out = {}
        for logic in LOGICS:
            out[f"consequences.{logic}"] = decision.consequences(logic, gamma, universe)
            out[f"report.{logic}"] = decision.inconsistency_report(logic, gamma)
        runs = [(f"close.{lg}.{rd}", closure.RULE_SETS[lg], rd)
                for lg in LOGICS for rd in _READINGS]
        runs += [(f"close.{name}", rules, "derivability") for name, rules in _FAMILY_RULES.items()]
        for key, rules, reading in runs:
            try:
                out[key] = closure.close(rules, reading, gamma, cu)
            except closure.ClosureScaleError:
                out[key] = None
        return gamma, universe, cu, out

    def probe(self, count: int) -> None:
        for doc in self.items[:count]:
            self.run(doc)

    @staticmethod
    def samples(doc: gen.Doc, result, ms: float):
        return [("light" if len(doc.atoms) == 1 else "heavy", ms, None)]

    @staticmethod
    def render(result) -> str:
        _, _, _, out = result
        lines = []
        for key, value in out.items():
            if isinstance(value, frozenset):
                body = sorted(syntax.render_sentence(s) for s in value)
            elif value is None:
                body = ["refused"]
            else:
                body = [repr(value)]
            lines.append(f"{key}: " + "; ".join(body))
        return "\n".join(lines)

    def verify(self, doc: gen.Doc, result) -> tuple[list[str], bool]:
        gamma, universe, cu, out = result
        sampled = self.verified % SLICE_SAMPLE_EVERY == 0
        self.verified += 1
        errors = []
        seeds = {cu.sentence(isinstance(s, syntax.Belief), plcore.models_of(s.body, universe))
                 for s in gamma}
        every = set(cu.sentences)
        for key, derived in out.items():
            if key.startswith("close.") and derived is not None:
                if not seeds <= derived <= every:
                    errors.append(f"{key}: not a superset of the seeds within the universe")
        for logic in LOGICS:
            member, deriv = out[f"close.{logic}.membership"], out[f"close.{logic}.derivability"]
            if member is not None and deriv is not None and not member <= deriv:
                errors.append(f"close.{logic}: membership derives more than derivability")
        if sampled:
            errors += self._oracle_check(doc, gamma, universe, cu, out)
        decided = all(v is not None for v in out.values())
        return errors, decided and not errors

    @staticmethod
    def _oracle_check(doc, gamma, universe, cu, out) -> list[str]:
        errors = []
        for logic in ORACLE_LOGICS:
            if out[f"consequences.{logic}"] != semantics.brute_force_consequences(
                    logic, gamma, universe):
                errors.append(f"consequences.{logic} != brute_force_consequences")
        pool = _bn_pool(doc, list(universe.atoms))
        expected = {cu.sentence(True, c) for c in cu.classes if pool & ~c == 0}
        expected |= {cu.sentence(False, c) for c in cu.classes if pool & c == 0}
        if out["consequences.bn"] != expected:
            errors.append("consequences.bn != truth-table reference")
        flags = reference_flags(doc)
        for logic in LOGICS:
            r = out[f"report.{logic}"]
            got = {"b": r.b_inconsistent, "d": r.d_inconsistent,
                   "combined": r.combined_inconsistent}
            if got != flags[logic]:
                errors.append(f"report.{logic} {got} != reference {flags[logic]}")
        return errors

    def golden(self):
        out = []
        for doc in gen.slice_docs(0, 24):
            result = self.run(doc)
            out.append((sha(self.render(result)), doc, result))
        return out


# ---------------------------------------------------------------------------
# meta-quick: the cross-validation suite, one case per operation

ORACLE_CASES = frozenset({"oracle-agreement-wbd", "oracle-agreement-bd"})
HEAVY_CASES = ORACLE_CASES | {"bprime-counterexample-bd", "bprime-derived-rule-bd"}
# Cheap cases (under about 60 ms each) that make up the warm-up.
GOLDEN_CASES = ("agnosticism", "lottery-consistency-bd", "gbd-universe-extension",
                "countermodel-validity", "universe-stability",
                "d-inconsistency-readings-bd", "rej-gbd", "dvee-polarity",
                "inconsistency-collapse-bd", "membership-d-gap",
                "belief-to-disbelief-bd", "bd-models-embed-wbd", "top-disbelief-bd")
# The peak-memory probe's cases: the oracle's model grids are the largest
# structures the suite builds.
PROBE_CASES = tuple(sorted(ORACLE_CASES))


class MetaQuickWorkload:
    """One operation is one quick suite, run case by case.

    Per-case RNGs are seeded by case id, so ``run_suite(seed, "quick",
    case_ids=[case])`` gives the same result as the case inside the full
    suite; running the cases one at a time lets the benchmark time each.
    """

    name = "meta-quick"

    def __init__(self, seed: int, count: int = 8):
        self.case_ids = tuple(sorted(metatheory.REQUIRED_CASE_IDS))
        self.items = gen.meta_seeds(seed, count)
        # Called before the first case and after each, off the cases'
        # clocks; returns the machine's speed factor at that moment.
        self.between = lambda: 1.0

    def run(self, suite_seed: int, case_ids=None):
        """(case id, report, wall ms, speed factor) for each case in turn.

        A case's factor is the mean of the two taken around it.  Most cases
        run for under half a second, so the factors around a case track the
        machine's pace during it far better than one factor for the suite.
        """
        cases = []
        factor = self.between()
        for case_id in case_ids or self.case_ids:
            start = time.perf_counter()
            report = metatheory.run_suite(suite_seed, "quick", case_ids=[case_id])
            ms = (time.perf_counter() - start) * 1000.0
            after = self.between()
            cases.append((case_id, report, ms, (factor + after) / 2))
            factor = after
        return cases

    def probe(self, count: int) -> None:
        for suite_seed in self.items[:count]:
            self.run(suite_seed, PROBE_CASES)

    @staticmethod
    def samples(suite_seed: int, cases, ms: float):
        """Per suite, the 28 light cases' time; each oracle case on its own.

        Every case is scaled by its own speed factor (see ``run``).  The two
        oracle-agreement cases do a fixed amount of model enumeration, so
        each is a sample of one kind of work.  The two bprime cases count
        only in the suite time (``ops_per_s``): their cost moves up to
        fourfold with the suite seed, and in a heavy class of a few samples
        per run that swamped every other change.
        """
        light = [(t, f) for case_id, _, t, f in cases if case_id not in HEAVY_CASES]
        raw = sum(t for t, _ in light)
        return [("light", raw, sum(t * f for t, f in light) / raw)] + [
            ("heavy", t, f) for case_id, _, t, f in cases if case_id in ORACLE_CASES]

    @staticmethod
    def report(suite_seed: int, cases):
        """One suite report assembled from the single-case reports."""
        results = tuple(r for _, rep, _, _ in cases for r in rep.results)
        return metatheory.PropertyReport(seed=suite_seed, scale="quick", results=results)

    def verify(self, suite_seed: int, cases) -> tuple[list[str], bool]:
        """Every case passes, and has the recorded expectation and check count.

        ``digests.json`` records each case's ``expectation`` and, where it
        does not depend on the suite seed (27 of 32 cases, the heavy
        oracle-agreement and ``bprime-counterexample-bd`` among them), its
        ``cases_run``; a case that did less work than recorded fails here,
        whatever the seed.  The seed-0 suite's JSON must match its digest.
        """
        report = self.report(suite_seed, cases)
        recorded = recorded_digests()["meta-quick"]
        errors = [f"suite {suite_seed}: {r.render()}" for r in report.results if not r.passed]
        for r in report.results:
            expectation, cases_run = recorded["cases"].get(r.case_id, (None, None))
            if r.expectation != expectation:
                errors.append(f"{r.case_id}: expectation {r.expectation!r}, "
                              f"recorded {expectation!r}")
            if r.cases_run < 1 or cases_run is not None and r.cases_run != cases_run:
                errors.append(f"{r.case_id}: {r.cases_run} checks run, recorded {cases_run}")
        if suite_seed == 0 and len(cases) == len(self.case_ids):
            if sha(report.to_json()) != recorded["full_seed0"]:
                errors.append("seed-0 suite JSON differs from the recorded digest")
        return errors, not errors

    def golden(self):
        cases = self.run(0, GOLDEN_CASES)
        return [(sha(self.report(0, cases).to_json()), 0, cases)]


WORKLOADS = {w.name: w for w in (CheckWorkload, SlicesWorkload, MetaQuickWorkload)}
