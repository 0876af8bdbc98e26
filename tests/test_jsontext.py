"""``jsontext.dumps`` writes the bytes of ``json.dumps(x, indent=2, sort_keys=True)``.

The standard library's call is the reference: for every value both either
return the same text or raise the same exception type.
"""

from __future__ import annotations

import collections
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlogic.jsontext import dumps


def _outcome(encode, value):
    try:
        return "text", encode(value)
    except Exception as exc:  # the reference's exception is the expected one
        return "raises", type(exc)


def _reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _assert_same(value):
    assert _outcome(dumps, value) == _outcome(_reference, value)


# text with newlines, control characters, quotes, backslashes and non-ASCII
# (U+2028, astral characters, written as surrogate pairs, and a lone surrogate)
TEXT = st.text(
    st.one_of(
        st.sampled_from("\n\r\t\x00\x1f\x7f\"\\/ é€ä\u2028\U0001f600\ud800"),
        st.characters(),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324]),
    TEXT,
)
# keys json.dumps accepts besides str; mixing them with str keys makes the
# sort raise, which both encoders must do alike
OTHER_KEYS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats())
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(st.one_of(TEXT, OTHER_KEYS), children, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=200)
@given(VALUES)
def test_matches_the_standard_library(value):
    _assert_same(value)


@settings(max_examples=100)
@given(st.dictionaries(OTHER_KEYS, SCALARS, max_size=5))
def test_non_str_keys_match_the_standard_library(value):
    _assert_same(value)
    _assert_same({"nested": value, "list": [value]})


def _circular():
    loop: list = [1]
    loop.append([loop])
    return {"a": loop}


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}]},
        [[[[1]]], {"k": [None, True, False]}],
        {"x": collections.OrderedDict(b=1, a=[2])},  # a dict subclass
        [collections.UserList([1])],  # not JSON: raises
        {"s": {1, 2}},  # a set raises
        {"d": {1: [2], "1": 3}},  # mixed keys of a dict of containers
        {(1, 2): 3},  # a tuple key raises
        {"big": 10**5000},  # over the int-to-str digit limit, where there is one
        _circular(),  # raises ValueError, as json.dumps does
    ],
)
def test_values_left_to_the_standard_library(value):
    _assert_same(value)
