"""Two-sorted language of beliefs and disbeliefs over propositional logic.

A *formula* is classical propositional logic::

    formula := iff
    iff     := imp ("<->" imp)*          left-associative
    imp     := or ("->" imp)?            right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | atom | "true" | "false" | "(" formula ")"
    atom    := [a-z][a-z0-9_]*

Precedence, strongest first: ``!``, ``&``, ``|``, ``->``, ``<->``.

A *sentence* is either a belief ``B: <formula>`` or a disbelief
``D: <formula>``.  The two sorts never nest: there is no way to write a
disbelief under a connective, and the grammar keeps it that way.

The ``.bdl`` document format is line-oriented UTF-8: one sentence per line,
``#`` starts a comment to end of line, blank lines are ignored, and a bare
formula line is shorthand for a belief.  The command line drops one leading
byte-order mark (U+FEFF) before a document reaches the parser; the parser
itself rejects the character like any other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Union

__all__ = [
    "Formula",
    "Atom",
    "Top",
    "Bottom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Sentence",
    "Belief",
    "Disbelief",
    "InformationSet",
    "ParseError",
    "DocumentParseError",
    "atoms_of",
    "parse_formula",
    "parse_sentence",
    "parse_information_set",
    "render_formula",
    "render_sentence",
    "render_document",
]

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Not:
    operand: "Formula"

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render_formula(self)


Formula = Union[Atom, Top, Bottom, Not, And, Or, Implies, Iff]

_BINARY_NODES = (And, Or, Implies, Iff)


def atoms_of(formula: Formula) -> frozenset[str]:
    """All atom names occurring in ``formula``."""
    names: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, _BINARY_NODES):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Sentences and information sets


@dataclass(frozen=True)
class Belief:
    body: Formula

    def __str__(self) -> str:
        return render_sentence(self)


@dataclass(frozen=True)
class Disbelief:
    body: Formula

    def __str__(self) -> str:
        return render_sentence(self)


Sentence = Union[Belief, Disbelief]


@dataclass(frozen=True)
class InformationSet:
    """A finite set of belief/disbelief sentences.

    Structurally equal duplicates collapse; iteration order is the
    deterministic rendering order used by :func:`render_document`.
    """

    sentences: frozenset[Sentence] = field(default_factory=frozenset)

    @classmethod
    def of(cls, *sentences: Sentence) -> "InformationSet":
        return cls(frozenset(sentences))

    @cached_property
    def _ordered(self) -> tuple[Sentence, ...]:
        # the set is immutable, so it is sorted (and rendered) once
        return tuple(sorted(self.sentences, key=_sentence_sort_key))

    @cached_property
    def _split(self) -> tuple[tuple, tuple, tuple, tuple, tuple]:
        """The projections below, in their order, built once from ``_ordered``."""
        beliefs = tuple(s for s in self._ordered if isinstance(s, Belief))
        disbeliefs = tuple(s for s in self._ordered if isinstance(s, Disbelief))
        disbelief_bodies = tuple(s.body for s in disbeliefs)
        return (
            beliefs,
            disbeliefs,
            tuple(s.body for s in beliefs),
            disbelief_bodies,
            tuple(Not(b) for b in disbelief_bodies),
        )

    # plain properties over the one split: the benchmark's tracer wraps
    # these by name, which it cannot do to a cached_property
    @property
    def beliefs(self) -> tuple[Belief, ...]:
        return self._split[0]

    @property
    def disbeliefs(self) -> tuple[Disbelief, ...]:
        return self._split[1]

    @property
    def belief_bodies(self) -> tuple[Formula, ...]:
        return self._split[2]

    @property
    def disbelief_bodies(self) -> tuple[Formula, ...]:
        return self._split[3]

    @property
    def dual_bodies(self) -> tuple[Formula, ...]:
        """Negations of the disbelieved formulas (the dual projection)."""
        return self._split[4]

    def union(self, other: Iterable[Sentence]) -> "InformationSet":
        return InformationSet(self.sentences | frozenset(other))

    def without(self, sentence: Sentence) -> "InformationSet":
        return InformationSet(self.sentences - {sentence})

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self.sentences)

    def __contains__(self, sentence: object) -> bool:
        return sentence in self.sentences

    def __str__(self) -> str:
        return render_document(self)


def _sentence_sort_key(s: Sentence) -> tuple[int, str]:
    return (0 if isinstance(s, Belief) else 1, render_formula(s.body))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_SPEC = [
    ("IFF", r"<->"),
    ("IMPLIES", r"->"),
    ("AND", r"&"),
    ("OR", r"\|"),
    ("NOT", r"!"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("WORD", r"[a-z][a-z0-9_]*"),
    ("WS", r"[ \t\r]+"),
    ("NEWLINE", r"\n"),
    ("BAD", r"."),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))

_TOKEN_LABEL = {
    "IFF": "'<->'",
    "IMPLIES": "'->'",
    "AND": "'&'",
    "OR": "'|'",
    "NOT": "'!'",
    "LPAREN": "'('",
    "RPAREN": "')'",
    "WORD": "atom",
    "EOF": "end of input",
}


class ParseError(ValueError):
    """Syntax error with position and the set of token kinds expected there."""

    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"{message} at line {line}, column {column}")

    def shifted(self, line_offset: int) -> "ParseError":
        err = ParseError(
            str(self).rsplit(" at line ", 1)[0],
            self.line + line_offset,
            self.column,
            self.expected,
        )
        return err


class DocumentParseError(ValueError):
    """One or more sentence lines of a document failed to parse."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        lines = "; ".join(str(e) for e in errors)
        super().__init__(f"{len(errors)} syntax error(s): {lines}")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup or "BAD"
        col = m.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self._fail({kind}, tok)
        return self.advance()

    def _fail(self, expected: set[str], tok: _Token) -> None:
        labels = frozenset(_TOKEN_LABEL[k] for k in expected)
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(
            f"expected {' or '.join(sorted(labels))}, found {shown!r}",
            tok.line,
            tok.column,
            labels,
        )

    # formula := iff
    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        node = self.imp()
        while self.peek().kind == "IFF":
            self.advance()
            node = Iff(node, self.imp())
        return node

    def imp(self) -> Formula:
        node = self.disjunction()
        if self.peek().kind == "IMPLIES":
            self.advance()
            return Implies(node, self.imp())
        return node

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek().kind == "OR":
            self.advance()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "AND":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Not(self.unary())
        if tok.kind == "WORD":
            self.advance()
            if tok.text == "true":
                return Top()
            if tok.text == "false":
                return Bottom()
            return Atom(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.formula()
            self.expect("RPAREN")
            return node
        self._fail({"NOT", "WORD", "LPAREN"}, tok)
        raise AssertionError("unreachable")


def parse_formula(text: str) -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad input."""
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(
            f"unexpected trailing input {tok.text!r}",
            tok.line,
            tok.column,
            frozenset({_TOKEN_LABEL["EOF"]}),
        )
    return node


_SENTENCE_PREFIX_RE = re.compile(r"^\s*([BD])\s*:\s*(.*)\Z", re.DOTALL)


def parse_sentence(text: str) -> Sentence:
    """Parse ``B: f``, ``D: f``, or a bare formula (read as a belief)."""
    m = _SENTENCE_PREFIX_RE.match(text)
    if m:
        kind, rest = m.group(1), m.group(2)
        body = parse_formula(rest)
        return Belief(body) if kind == "B" else Disbelief(body)
    return Belief(parse_formula(text))


def parse_information_set(document: str) -> InformationSet:
    """Parse a ``.bdl`` document.

    Per-line syntax errors are aggregated into one
    :class:`DocumentParseError` carrying real line numbers.
    """
    sentences: set[Sentence] = set()
    errors: list[ParseError] = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            sentences.add(parse_sentence(line))
        except ParseError as err:
            errors.append(err.shifted(lineno - 1))
    if errors:
        raise DocumentParseError(errors)
    return InformationSet(frozenset(sentences))


# ---------------------------------------------------------------------------
# Rendering (minimal parentheses; parse(render(x)) is structurally x)

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def _prec(node: Formula) -> int:
    if isinstance(node, Iff):
        return _PREC_IFF
    if isinstance(node, Implies):
        return _PREC_IMP
    if isinstance(node, Or):
        return _PREC_OR
    if isinstance(node, And):
        return _PREC_AND
    return _PREC_UNARY


def _render(node: Formula) -> str:
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Top):
        return "true"
    if isinstance(node, Bottom):
        return "false"
    if isinstance(node, Not):
        inner = _render(node.operand)
        if _prec(node.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(node, Implies):
        # right-associative: parenthesize a left child at the same level
        left = _wrap(node.left, minimum=_PREC_IMP + 1)
        right = _wrap(node.right, minimum=_PREC_IMP)
        return f"{left} -> {right}"
    if isinstance(node, Iff):
        op, prec = "<->", _PREC_IFF
    elif isinstance(node, Or):
        op, prec = "|", _PREC_OR
    else:
        op, prec = "&", _PREC_AND
    # left-associative: parenthesize a right child at the same level
    left = _wrap(node.left, minimum=prec)
    right = _wrap(node.right, minimum=prec + 1)
    return f"{left} {op} {right}"


def _wrap(node: Formula, minimum: int) -> str:
    text = _render(node)
    if _prec(node) < minimum:
        return f"({text})"
    return text


def render_formula(formula: Formula) -> str:
    """Concrete syntax for ``formula`` with only necessary parentheses."""
    return _render(formula)


def render_sentence(sentence: Sentence) -> str:
    marker = "B" if isinstance(sentence, Belief) else "D"
    return f"{marker}: {render_formula(sentence.body)}"


def render_document(gamma: InformationSet) -> str:
    """Render an information set as a ``.bdl`` document (sorted, one per line)."""
    return "\n".join(render_sentence(s) for s in gamma)
