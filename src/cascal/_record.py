"""One mapping between frozen dataclasses and their JSON documents.

A :class:`Record` maps its fields by name and converts each value by the
field's annotation: arrays and tuples are lists of floats, nested records
and ``dict[str, T]`` are objects, and scalars go through their type
(``float``, ``int``, ``bool``, ``str``) both ways.
"""

from __future__ import annotations

import dataclasses
import functools
import json
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


def _from_json(hint, value):
    if typing.get_origin(hint) is dict:
        value_hint = typing.get_args(hint)[1]
        return {k: _from_json(value_hint, v) for k, v in value.items()}
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value)
    if hint is np.ndarray:
        return np.asarray(value, dtype=float)
    if hint is tuple:
        return tuple(float(v) for v in value)
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
            name: _from_json(hint, d[name]) for name, hint in _field_hints(cls)
        })


def write_json(path, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
