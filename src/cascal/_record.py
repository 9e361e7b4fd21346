"""One mapping between frozen dataclasses and their JSON documents.

A :class:`Record` maps its fields by name and converts each value by the
field's annotation: arrays and tuples are lists of floats, and nested
records and ``dict[str, T]`` are objects.  Decoding is strict, so a file
loads with exactly the values it holds: a bool or str only from its own
JSON type, a number never from a bool, an int only from an integral number
and every float finite, array entries too.  A failure names the field.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import typing

import numpy as np


def _to_json(hint, value):
    if typing.get_origin(hint) is dict:
        value_hint = typing.get_args(hint)[1]
        return {k: _to_json(value_hint, v) for k, v in value.items()}
    if isinstance(value, Record):
        return value.to_dict()
    if hint in (np.ndarray, tuple):
        return np.asarray(value, dtype=float).tolist()
    return hint(value)


_EXPECTED = {bool: "a JSON bool", str: "a string",
             int: "an integral number", float: "a finite number"}


def float_array(name, value, ndim: int = 1) -> np.ndarray:
    """A list of numbers, or at ``ndim=2`` of equal-length lists of them."""
    nested = ndim == 2 and isinstance(value, list) and set(map(type, value)) == {list}
    flat = itertools.chain.from_iterable(value) if nested else value
    # Exact type sets (so no bool), not a loop: a covariance holds n² entries.
    if isinstance(value, list) and set(map(type, flat)) <= {int, float}:
        try:  # a ragged matrix, or an int past the float range, fails here
            array = np.asarray(value, dtype=float)
            if (array.ndim == ndim or not value) and np.isfinite(array).all():
                return array
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a {ndim}-d list of finite numbers")


def _from_json(name, hint, value):
    if typing.get_origin(hint) is dict:
        value_hint = typing.get_args(hint)[1]
        return {k: _from_json(name, value_hint, v) for k, v in value.items()}
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value)
    if hint in (np.ndarray, tuple):
        array = float_array(name, value)
        return array if hint is np.ndarray else tuple(array.tolist())
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        ok = number and (isinstance(value, int) or value.is_integer())
    elif hint is float:  # nan, inf and ints past the float range fail
        ok = number and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise ValueError(f"{name} must be {_EXPECTED[hint]}, got {value!r}")
    return hint(value)


@functools.cache
def _field_hints(cls) -> tuple:
    """(name, annotation) per field; resolving annotations is slow, so once."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


class Record:
    """Mixin for frozen dataclasses whose JSON is their fields by name."""

    def to_dict(self) -> dict:
        return {
            name: _to_json(hint, getattr(self, name))
            for name, hint in _field_hints(type(self))
        }

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{
            name: _from_json(name, hint, d[name]) for name, hint in _field_hints(cls)
        })


def write_json(path, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
