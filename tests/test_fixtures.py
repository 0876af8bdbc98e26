"""Worked scenarios used by the CLI and the acceptance gate."""

from __future__ import annotations

import pytest

from bdlogic import (
    Atom,
    AtomUniverse,
    models_of,
    parse_information_set,
)
from bdlogic.fixtures import (
    FIXTURES,
    agnostic,
    evaluate,
    exactly_one,
    lottery,
    murder,
)


def test_registry_names():
    assert set(FIXTURES) == {"murder", "lottery", "agnostic"}


@pytest.mark.parametrize("build", [murder, agnostic, lottery])
def test_every_scenario_meets_its_expectations(build):
    fixture = build()
    results = evaluate(fixture)
    assert results, fixture.name
    failed = [r.render() for r in results if not r.ok]
    assert not failed, failed


def test_documents_parse_to_the_declared_sets():
    for build in (murder, agnostic):
        fixture = build()
        assert parse_information_set(fixture.document) == fixture.gamma


@pytest.mark.parametrize("tickets", [2, 3, 4, 5, 8])
def test_lottery_scales(tickets):
    fixture = lottery(tickets)
    assert len(fixture.gamma.disbeliefs) == tickets
    assert len(fixture.gamma.beliefs) == 1
    assert all(r.ok for r in evaluate(fixture))


def test_lottery_ticket_bounds():
    for bad in (1, 9, 0, -3):
        with pytest.raises(ValueError):
            lottery(bad)


def test_exactly_one_needs_a_formula():
    with pytest.raises(ValueError, match="at least one formula"):
        exactly_one([])


def test_exactly_one_semantics():
    p, q = Atom("p"), Atom("q")
    u = AtomUniverse(("p", "q"))
    mask = models_of(exactly_one([p, q]), u)
    # exactly the two single-winner worlds
    assert mask == (u.atom_mask("p") | u.atom_mask("q")) & ~(
        u.atom_mask("p") & u.atom_mask("q")
    )


def test_result_rendering_marks_failures():
    fixture = murder()
    results = evaluate(fixture)
    assert all(r.render().startswith("ok  ") for r in results)
