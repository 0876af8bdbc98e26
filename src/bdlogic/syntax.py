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
formula line is shorthand for a belief.  The blanks are space, tab and
carriage return; the parser rejects any other character outside the
grammar where it stands, U+00A0 and a byte-order mark (U+FEFF) included,
though the command line drops one leading byte-order mark first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NoReturn, Union

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


class _FormulaNode:
    """Base of the formula nodes: ``str`` is the minimal-parentheses rendering."""

    def __str__(self) -> str:
        return render_formula(self)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Atom(_FormulaNode):
    name: str

    def __post_init__(self) -> None:
        # ``true`` and ``false`` would render as the constants
        if not _ATOM_RE.match(self.name) or self.name in ("true", "false"):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Top(_FormulaNode):
    """The constant ``true``."""


@dataclass(frozen=True)
class Bottom(_FormulaNode):
    """The constant ``false``."""


@dataclass(frozen=True)
class Not(_FormulaNode):
    operand: "Formula"


@dataclass(frozen=True)
class And(_FormulaNode):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_FormulaNode):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_FormulaNode):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff(_FormulaNode):
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Top, Bottom, Not, And, Or, Implies, Iff]

# The binary connectives as (node, token kind, symbol), loosest first.  A
# connective's precedence is its index, ``!`` binds tighter than any of them,
# and ``->`` alone associates to the right.  The tokenizer, the parser and the
# renderer all read this table.
_CONNECTIVES = (
    (Iff, "IFF", "<->"),
    (Implies, "IMPLIES", "->"),
    (Or, "OR", "|"),
    (And, "AND", "&"),
)
_UNARY = len(_CONNECTIVES)  # the precedence of ``!``, atoms and constants
# token kind -> (precedence, node), and node -> (precedence, symbol)
_BY_TOKEN = {kind: (level, node) for level, (node, kind, _) in enumerate(_CONNECTIVES)}
_BY_NODE = {node: (level, symbol) for level, (node, _, symbol) in enumerate(_CONNECTIVES)}
_BINARY_NODES = tuple(_BY_NODE)


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


class _SentenceNode:
    """Base of the two sentence sorts: ``str`` is the ``B:``/``D:`` rendering.

    A sentence computes its structural hash once.  Hashing a formula
    recurses through its whole tree, and sentences are hashed on every set
    insertion.  The cached value is the dataclass's own, ``hash((body,))``,
    kept outside the fields (so out of ``==``, ``repr`` and
    ``dataclasses.replace``) and never pickled: string hashes differ from
    one process to the next.
    """

    _hash = None  # the cached hash, set on first use

    def __str__(self) -> str:
        return render_sentence(self)  # type: ignore[arg-type]

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.body,))  # type: ignore[attr-defined]
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self) -> tuple:
        return type(self), (self.body,)  # type: ignore[attr-defined]


# each class names the cached hash itself, or the dataclass would replace it
@dataclass(frozen=True)
class Belief(_SentenceNode):
    body: Formula
    __hash__ = _SentenceNode.__hash__


@dataclass(frozen=True)
class Disbelief(_SentenceNode):
    body: Formula
    __hash__ = _SentenceNode.__hash__


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
    def _class_masks(self) -> dict[tuple[str, ...], int]:
        """The set as one int of class sentences per universe's atoms (bit i
        for ``plcore._class_sentences(atoms)[i]``, split only by
        ``plcore._halves``): ``plcore._classes_of``'s memo, filled on demand."""
        return {}

    @cached_property
    def _records(self) -> dict[tuple[str, ...], object]:
        """``decision._compiled``'s memo per atom tuple: a record, its bodies' classes."""
        return {}

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

_BLANKS = " \t\r"
_TOKEN_SPEC = [(kind, re.escape(symbol)) for _, kind, symbol in _CONNECTIVES] + [
    ("NOT", r"!"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("WORD", r"[a-z][a-z0-9_]*"),
    ("WS", f"[{_BLANKS}]+"),
    ("NEWLINE", r"\n"),
    ("BAD", r"."),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))

_TOKEN_LABEL = {kind: f"'{symbol}'" for _, kind, symbol in _CONNECTIVES} | {
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


class DocumentParseError(ValueError):
    """One or more sentence lines of a document failed to parse."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        lines = "; ".join(str(e) for e in errors)
        super().__init__(f"{len(errors)} syntax error(s): {lines}")


_Token = tuple[str, str, int, int]


def _tokenize(text: str, start: int, line: int) -> list[_Token]:
    """The tokens of ``text[start:]``, each ``(kind, text, line, column)``
    in the whole of ``text``, whose first line is line ``line``."""
    tokens = []
    line += text.count("\n", 0, start)
    line_start = text.rfind("\n", 0, start) + 1
    for m in _TOKEN_RE.finditer(text, start):
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
        tokens.append((kind, m.group(), line, col))
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
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

    def expect(self, kind: str) -> None:
        """Consume the next token, which must be ``kind``.  Only ever called
        after a complete operand, where a connective could come as well."""
        tok = self.advance()
        if tok[0] != kind:
            self._fail({kind, *_BY_TOKEN}, tok)

    def _fail(self, expected: set[str], tok: _Token) -> NoReturn:
        kind, text, line, column = tok
        labels = frozenset(_TOKEN_LABEL[k] for k in expected)
        shown = text if kind != "EOF" else "end of input"
        raise ParseError(
            f"expected {' or '.join(sorted(labels))}, found {shown!r}",
            line,
            column,
            labels,
        )

    def formula(self, floor: int = 0) -> Formula:
        """A formula whose top connectives all bind no looser than ``floor``.

        Precedence climbing: the right operand of a connective at level k
        takes connectives of level k + 1 and up, or of level k itself for
        the right-associative ``->``.
        """
        node = self.unary()
        while True:
            level, connective = _BY_TOKEN.get(self.peek()[0], (-1, None))
            if level < floor:
                return node
            self.advance()
            node = connective(node, self.formula(level + (connective is not Implies)))

    def unary(self) -> Formula:
        kind, text, _, _ = tok = self.advance()
        if kind == "NOT":
            return Not(self.unary())
        if kind == "WORD":
            if text == "true":
                return Top()
            if text == "false":
                return Bottom()
            return Atom(text)
        if kind == "LPAREN":
            node = self.formula()
            self.expect("RPAREN")
            return node
        self._fail({"NOT", "WORD", "LPAREN"}, tok)


def _formula(text: str, start: int = 0, line: int = 1) -> Formula:
    """The formula ``text[start:]``, its errors positioned in ``text``."""
    parser = _Parser(_tokenize(text, start, line))
    node = parser.formula()
    parser.expect("EOF")
    return node


def parse_formula(text: str) -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad input."""
    return _formula(text)


_SENTENCE_PREFIX_RE = re.compile(f"[{_BLANKS}\n]*([BD])[{_BLANKS}\n]*:[{_BLANKS}\n]*")


def _sentence(text: str, line: int = 1) -> Sentence:
    m = _SENTENCE_PREFIX_RE.match(text)
    body = _formula(text, m.end() if m else 0, line)
    return Disbelief(body) if m and m.group(1) == "D" else Belief(body)


def parse_sentence(text: str) -> Sentence:
    """Parse ``B: f``, ``D: f``, or a bare formula (read as a belief)."""
    return _sentence(text)


def parse_information_set(document: str) -> InformationSet:
    """Parse a ``.bdl`` document.

    Lines end at ``\n``, ``\r\n`` or ``\r``, the breaks a text-mode file
    read knows; any other character stays in its line, where the tokenizer
    refuses it at its column.  Per-line syntax errors are aggregated into
    one :class:`DocumentParseError` carrying real line numbers.
    """
    sentences: set[Sentence] = set()
    errors: list[ParseError] = []
    lines = document.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip(_BLANKS):
            continue
        try:
            sentences.add(_sentence(line, lineno))
        except ParseError as err:
            errors.append(err)
    if errors:
        raise DocumentParseError(errors)
    return InformationSet(frozenset(sentences))


# ---------------------------------------------------------------------------
# Rendering (minimal parentheses; parse(render(x)) is structurally x)

def _render(node: Formula, floor: int = 0) -> str:
    """``node``'s text, parenthesized if its connective binds looser than ``floor``."""
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Top):
        return "true"
    if isinstance(node, Bottom):
        return "false"
    if isinstance(node, Not):
        return "!" + _render(node.operand, _UNARY)
    level, symbol = _BY_NODE[type(node)]
    # the operand on the associative side may hold the same connective
    right_assoc = isinstance(node, Implies)
    left = _render(node.left, level + right_assoc)
    right = _render(node.right, level + (not right_assoc))
    text = f"{left} {symbol} {right}"
    return f"({text})" if level < floor else text


def render_formula(formula: Formula) -> str:
    """Concrete syntax for ``formula`` with only necessary parentheses."""
    return _render(formula)


def render_sentence(sentence: Sentence) -> str:
    marker = "B" if isinstance(sentence, Belief) else "D"
    return f"{marker}: {render_formula(sentence.body)}"


def render_document(gamma: InformationSet) -> str:
    """Render an information set as a ``.bdl`` document (sorted, one per line)."""
    return "\n".join(render_sentence(s) for s in gamma)
