"""Command-line interface.

Six subcommands over `.bdl` documents::

    bdl check FILE --query "D: k" [--logic bd] [--countermodel] [--json]
    bdl consistency FILE [--logic all] [--json]
    bdl consequences FILE --logic bd [--atoms 2] [--json]
    bdl closure FILE --logic bd [--reading derivability] [--json]
    bdl meta [--seed 0] [--scale quick] [--json]
    bdl examples NAME [--tickets 3] [--json]

Exit codes: 0 when the asked-for property holds (entailed / consistent /
all checks pass), 1 when it does not, 2 on input errors or scale guards
(including input nested too deeply to process).
Every JSON payload but ``meta``'s, which is the report itself, is one
envelope: ``schema`` (1), ``command``, ``logic`` (``"all"`` for ``examples``)
and ``input`` (``source``, ``sentences``), plus the command's own fields.
It is emitted with sorted keys, two-space indent and ``\\uXXXX`` escapes:
the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .decision import (
    CONSEQUENCE_UNIVERSE_LIMIT,
    consequences,
    decide,
    inconsistency_report,
)
from .fixtures import FIXTURES, evaluate
from .jsontext import dumps
from .plcore import AtomUniverse, _class_sentences, universe_for
from .syntax import (
    DocumentParseError,
    InformationSet,
    ParseError,
    Sentence,
    atoms_of,
    parse_information_set,
    parse_sentence,
    render_formula,
    render_sentence,
)
from .verdicts import LOGICS, LogicId

__all__ = ["main"]

_SCHEMA = 1


class _InputError(ValueError):
    """A bad input the command line finds itself; exits 2 like any ValueError."""


def _read_document(path: str) -> tuple[str, str]:
    """The document's text, without one leading byte-order mark."""
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {source}: {exc}") from exc
    except OSError as exc:
        raise _InputError(f"cannot read {source}: {exc.strerror or exc}") from exc
    return text.removeprefix("\ufeff"), source


def _load_gamma(path: str) -> tuple[InformationSet, str]:
    text, source = _read_document(path)
    try:
        return parse_information_set(text), source
    except DocumentParseError as exc:
        lines = [f"{source}: {e}" for e in exc.errors]
        raise _InputError("\n".join(lines)) from exc


def _parse_query(text: str) -> Sentence:
    try:
        return parse_sentence(text)
    except ParseError as exc:
        raise _InputError(f"bad --query: {exc}") from exc


def _logics_from(arg: str) -> tuple[LogicId, ...]:
    return LOGICS if arg == "all" else (arg,)  # type: ignore[return-value]


def _universe_for_gamma(
    gamma: InformationSet, atoms: Optional[int], limit: int
) -> AtomUniverse:
    """Universe of the set's own atoms, padded to ``--atoms`` if asked.

    The atoms, and the ``--atoms`` request, are checked against the limit
    before any padding or universe is built, so an input over the limit
    gets this command's message, not the universe's own or a failed pad.
    """
    names = sorted(set().union(*(atoms_of(s.body) for s in gamma.sentences)))
    if atoms is not None and atoms < len(names):
        raise _InputError(
            f"--atoms {atoms} is smaller than the {len(names)} atoms used"
        )
    used = max(len(names), atoms or 0)
    if used > limit:
        raise _InputError(
            f"this command enumerates all semantic classes and supports at "
            f"most {limit} atoms; the input uses {used}"
        )
    if atoms is not None:
        pool = [c for c in "pq" + "abcdefghijklmnorstuvwxyz" if c not in names]
        while len(names) < atoms:
            names.append(pool.pop(0))
        names.sort()
    if not names:
        names = ["p"]
    return AtomUniverse(names)


def _in_order(universe: AtomUniverse, chosen: frozenset) -> list[str]:
    """``chosen`` rendered in class-sentence order: beliefs, then disbeliefs."""
    return [render_sentence(s) for s in _class_sentences(universe.atoms) if s in chosen]


def _emit(args: argparse.Namespace, gamma: InformationSet, source: str, **body) -> None:
    """Print ``body`` in the envelope every JSON payload but ``meta``'s shares."""
    head = {"schema": _SCHEMA, "command": args.command, "logic": args.logic}
    block = {"source": source, "sentences": [render_sentence(s) for s in gamma]}
    print(dumps({**head, "input": block, **body}))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    gamma, source = _load_gamma(args.file)
    query = _parse_query(args.query)
    logics = _logics_from(args.logic)
    universe = universe_for(gamma, query)
    verdicts = [
        decide(lg, gamma, query, universe, with_countermodel=args.countermodel)
        for lg in logics
    ]
    if any(v.witness is not None for v in verdicts):
        from .semantics import model_to_dict, render_model
    rendered = render_sentence(query)
    if args.json:
        entries = [
            {
                "logic": v.logic,
                "entailed": v.entailed,
                "rationale": v.rationale.render() if v.rationale else None,
            }
            for v in verdicts
        ]
        for entry, v in zip(entries, verdicts):
            if v.witness is not None:
                entry["countermodel"] = model_to_dict(v.witness)
        body = {"query": rendered, "verdicts": entries}
        if len(logics) == 1:
            # one logic: its countermodel, or null, sits beside the verdict
            body["countermodel"] = entries[0].pop("countermodel", None)
        _emit(args, gamma, source, **body)
    else:
        print(f"query: {rendered}")
        for v in verdicts:
            print(v.render())
            if v.witness is not None:
                block = render_model(v.witness).replace("\n", "\n    ")
                print(f"  countermodel:\n    {block}")
    return 0 if all(v.entailed for v in verdicts) else 1


def _cmd_consistency(args: argparse.Namespace) -> int:
    gamma, source = _load_gamma(args.file)
    logics = _logics_from(args.logic)
    universe = universe_for(gamma)
    reports = [inconsistency_report(lg, gamma, universe) for lg in logics]
    if args.json:
        report = {
            r.logic: {
                "b_inconsistent": r.b_inconsistent,
                "d_inconsistent": r.d_inconsistent,
                "d_inconsistent_literal": r.d_inconsistent_literal,
                "combined_inconsistent": r.combined_inconsistent,
                "fully_consistent": r.fully_consistent(),
                "witness": (
                    render_formula(r.witness_formula)
                    if r.witness_formula is not None
                    else None
                ),
            }
            for r in reports
        }
        _emit(args, gamma, source, report=report)
    else:
        for r in reports:
            if r.fully_consistent():
                print(f"{r.logic}: consistent")
            else:
                flags = [
                    name
                    for name, on in (
                        ("b-inconsistent", r.b_inconsistent),
                        ("d-inconsistent", r.d_inconsistent),
                        ("combined-inconsistent", r.combined_inconsistent),
                    )
                    if on
                ]
                line = f"{r.logic}: " + ", ".join(flags)
                if r.witness_formula is not None:
                    line += f" (witness: {render_formula(r.witness_formula)})"
                print(line)
    return 0 if all(r.fully_consistent() for r in reports) else 1


def _cmd_consequences(args: argparse.Namespace) -> int:
    gamma, source = _load_gamma(args.file)
    universe = _universe_for_gamma(gamma, args.atoms, CONSEQUENCE_UNIVERSE_LIMIT)
    target = consequences(args.logic, gamma, universe)
    entailed = _in_order(universe, target)
    if args.json:
        report = {"universe": list(universe.atoms), "entailed": entailed}
        _emit(args, gamma, source, report=report)
    else:
        print(
            f"# {args.logic} consequences over atoms "
            f"{{{', '.join(universe.atoms)}}} ({len(entailed)} sentences)"
        )
        for s in entailed:
            print(s)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    from .closure import _ATOM_LIMIT, RULE_SETS, ClosureUniverse, close

    gamma, source = _load_gamma(args.file)
    universe = _universe_for_gamma(gamma, args.atoms, _ATOM_LIMIT)
    rules = RULE_SETS[args.logic]
    closed = close(rules, args.reading, gamma, ClosureUniverse(universe))
    target = consequences(args.logic, gamma, universe)
    derived = _in_order(universe, closed)
    missing = _in_order(universe, target - closed)
    extra = _in_order(universe, closed - target)
    rule_names = sorted(r.value for r in rules)
    if args.json:
        report = {
            "universe": list(universe.atoms),
            "rules": rule_names,
            "reading": args.reading,
            "derived": derived,
            "missing_vs_decision": missing,
            "extra_vs_decision": extra,
        }
        _emit(args, gamma, source, report=report)
    else:
        print(
            f"# closing under {{{', '.join(rule_names)}}} "
            f"({args.reading} reading), atoms {{{', '.join(universe.atoms)}}}"
        )
        for s in derived:
            print(s)
        if missing:
            print(
                f"# note: {len(missing)} sentence(s) entailed per the "
                f"{args.logic} decision procedure are not derived by this "
                "rule reading:"
            )
            for s in missing:
                print(f"#   {s}")
        if extra:
            print(
                f"# note: {len(extra)} derived sentence(s) are NOT "
                f"{args.logic}-entailed:"
            )
            for s in extra:
                print(f"#   {s}")
    return 0


def _cmd_meta(args: argparse.Namespace) -> int:
    from .metatheory import run_suite

    report = run_suite(seed=args.seed, scale=args.scale)
    if args.json:
        print(dumps(report.canonical_dict()))
    else:
        print(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_examples(args: argparse.Namespace) -> int:
    builder = FIXTURES[args.name]
    fixture = builder(args.tickets) if args.name == "lottery" else builder()
    results = evaluate(fixture)
    if args.json:
        expectations = [
            {
                "description": r.expectation.describe(),
                "expected": r.expectation.expected,
                "actual": r.actual,
                "ok": r.ok,
            }
            for r in results
        ]
        report = {
            "title": fixture.title,
            "document": fixture.document,
            "expectations": expectations,
        }
        _emit(args, fixture.gamma, fixture.name, report=report)
    else:
        print(f"# {fixture.title}")
        print(fixture.document)
        print()
        for r in results:
            print(r.render())
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call to main, not at import; parse_args keeps no
    # state between calls, so one parser serves every call in the process
    parser = argparse.ArgumentParser(
        prog="bdl",
        description="reasoning with beliefs and disbeliefs in four logics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def document_command(name, summary, func, default, *options) -> None:
        """The file, the command's own options in order, then --logic, --json."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help=".bdl document ('-' for stdin)")
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.add_argument(
            "--logic",
            choices=list(LOGICS + ("all",) if default == "all" else LOGICS),
            default=default,
            help=f"which logic to use (default: {default})",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)

    atoms = ("--atoms", dict(type=int, help="pad the universe to N atoms"))
    document_command(
        "check", "decide whether a sentence is entailed", _cmd_check, "all",
        ("--query", dict(required=True, help='sentence, e.g. "D: k"')),
        ("--countermodel", dict(
            action="store_true",
            help="construct a countermodel when not entailed (wbd/gbd/bd)",
        )),
    )
    document_command(
        "consistency", "report the inconsistency flags", _cmd_consistency, "all"
    )
    document_command(
        "consequences", "every entailed sentence over the small universe",
        _cmd_consequences, "bd", atoms,
    )
    document_command(
        "closure", "close the set under inference rules", _cmd_closure, "bd",
        ("--reading", dict(
            choices=["membership", "derivability"],
            default="derivability",
            help="how rule premises consult the set (default: derivability)",
        )),
        atoms,
    )

    p = sub.add_parser("meta", help="run the cross-validation property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=["quick", "full"], default="quick")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_meta)

    p = sub.add_parser("examples", help="run a built-in worked scenario")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument(
        "--tickets", type=int, default=2, help="lottery size (lottery only)"
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_examples, logic="all")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # exit 1 would read as "not entailed" / "inconsistent"
        print(
            "error: a formula is nested too deeply to process (Python recursion "
            "limit reached; a chain of N binary operators nests N deep)",
            file=sys.stderr,
        )
        return 2
    except MemoryError:
        print("error: out of memory while processing the input", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
