"""Shared result types for the decision procedures and the model oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional, Union

from .syntax import Formula, Sentence, render_formula, render_sentence

# typing only: importing the model oracle here would load it on the path of
# ``bdl check``
if TYPE_CHECKING:  # pragma: no cover - typing only
    from .semantics import ModelBD, ModelGBD, ModelWBD

__all__ = ["LogicId", "LOGICS", "Rationale", "Verdict"]

LogicId = Literal["wbd", "gbd", "bd", "bn"]
LOGICS: tuple[LogicId, ...] = ("wbd", "gbd", "bd", "bn")


def _require_logic(logic: str) -> None:
    """Reject a name that is not one of :data:`LOGICS`, with one message
    for every entry point."""
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}; expected one of {LOGICS}")


@dataclass(frozen=True)
class Rationale:
    """Which disjunct of a characterization fired, and on what.

    ``rule`` names the disjunct ("B", "DBot", "WD", "GD", "D", "BtoD", "BN");
    ``witness_disbelief`` is the member of the disbelief projection the rule
    used, when it used one.
    """

    rule: str
    witness_disbelief: Optional[Formula] = None
    description: str = ""

    def render(self) -> str:
        text = f"({self.rule})"
        if self.witness_disbelief is not None:
            text += f" with D: {render_formula(self.witness_disbelief)}"
        if self.description:
            text += f" — {self.description}"
        return text


@dataclass(frozen=True)
class Verdict:
    """Outcome of an entailment query.

    ``witness`` carries a countermodel only when ``entailed`` is false and
    the logic has a model semantics (wbd/gbd/bd).
    """

    logic: LogicId
    query: Sentence
    entailed: bool
    rationale: Optional[Rationale] = None
    witness: Optional[Union["ModelWBD", "ModelGBD", "ModelBD"]] = None

    def render(self) -> str:
        head = f"{self.logic}: {'entailed' if self.entailed else 'not entailed'}"
        if self.rationale is not None:
            head += f" via {self.rationale.render()}"
        return head

    def __str__(self) -> str:
        return f"{render_sentence(self.query)} -> {self.render()}"
