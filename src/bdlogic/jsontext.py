"""The package's JSON text: ``json.dumps(obj, indent=2, sort_keys=True)``.

``dumps`` returns exactly the bytes of that call, faster.  With ``indent``
set, the standard library encodes in pure Python.  Here a container that
holds no container goes through the standard library's C encoder in one
call, the indent folded into its item separator, and only containers of
containers are assembled in Python, one level at a time.  Anything else
(a subclass of ``dict`` or ``list``, a dict of containers with a key that
is not a ``str``, a value JSON cannot encode, a circular reference) is
handed to ``json.dumps`` itself, which writes it or raises.
"""

from __future__ import annotations

import functools
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

__all__ = ["dumps"]

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
# a container whose values all have exactly these types is encoded whole by
# the C encoder; a subclass fails the test, so no dict or list subclass and
# no nested container reaches it
_SCALARS = frozenset({str, int, float, bool, type(None)})


class _Unsupported(Exception):
    """A value this module leaves to ``json.dumps``."""


def _reject(obj: object) -> object:
    raise _Unsupported


@functools.cache
def _level(depth: int):
    """The C encoder for items at ``depth``, with the text around those items.

    Returns ``(encoder, pad, separator, close)``: ``pad`` opens the first
    item's line, ``separator`` ends one item and opens the next, and
    ``close`` opens the line of the container's closing bracket.
    """
    pad = "\n" + _INDENT * depth
    separator = "," + pad
    encoder = c_make_encoder(
        None,  # no circular check: only flat containers reach it
        _reject,
        encode_basestring_ascii,
        None,  # indent: the separator carries it
        ": ",
        separator,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return encoder, pad, separator, "\n" + _INDENT * (depth - 1)


def _dump(obj: Any, depth: int) -> str:
    """``obj`` as it appears on a line indented ``depth`` levels."""
    kind = type(obj)
    if kind is dict:
        values = obj.values()
    elif kind is list or kind is tuple:
        values = obj
    elif kind is str:
        return encode_basestring_ascii(obj)
    elif isinstance(obj, _CONTAINERS):
        raise _Unsupported
    else:
        return "".join(_level(1)[0](obj, 0))
    if not obj:
        return "{}" if kind is dict else "[]"
    encoder, pad, separator, close = _level(depth + 1)
    if _SCALARS.issuperset(map(type, values)):
        body = "".join(encoder(obj, 0))
        return f"{body[0]}{pad}{body[1:-1]}{close}{body[-1]}"
    if kind is dict:
        # a key that is not a str makes encode_basestring_ascii raise TypeError
        items = [
            f"{encode_basestring_ascii(key)}: {_dump(value, depth + 1)}"
            for key, value in sorted(obj.items())
        ]
        return f"{{{pad}{separator.join(items)}{close}}}"
    return f"[{pad}{separator.join([_dump(v, depth + 1) for v in obj])}{close}]"


def dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte."""
    if c_make_encoder is not None:
        try:
            return _dump(obj, 0)
        except (_Unsupported, TypeError, ValueError, RecursionError):
            pass
    return json.dumps(obj, indent=2, sort_keys=True)
