"""The package's exported names, each read from its defining module."""

from __future__ import annotations

import importlib
import inspect

import pytest

import bdlogic
from bdlogic import decision


@pytest.mark.parametrize("name", sorted(set(bdlogic.__all__) - {"__version__"}))
def test_every_export_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"bdlogic.{bdlogic._HOME[name]}")
    value = getattr(bdlogic, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__
    assert name in dir(bdlogic)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bdlogic.no_such_name  # noqa: B018
    assert not hasattr(bdlogic, "_RULES")
    # not an export, so the import system goes on to load the submodule
    from bdlogic import closure

    assert closure is importlib.import_module("bdlogic.closure")


def test_a_name_rebound_in_its_module_is_read_through_the_package(monkeypatch):
    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(decision, "decide", patched)
    assert bdlogic.decide is patched
    monkeypatch.undo()
    assert bdlogic.decide is decision.decide is not patched
