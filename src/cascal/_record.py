"""The file formats: one JSON mapping for records, one rule for CSV tables.

A :class:`Record` maps its fields by name and converts each value by the
field's annotation: arrays and tuples are lists of floats, and nested
records and ``dict[str, T]`` (written, never read back) are objects.
Decoding is strict, so a file loads with exactly the values it holds: a
bool or str only from its own JSON type, a number never from a bool, an
int only from an integral number and every float finite, array entries
too.  A failure names the field.  Arrays from the Python API follow the
same rule, through :func:`set_vectors`.

Every JSON file read (model, truth, config) goes through :func:`read_json`,
and any failure to parse or decode one, deep nesting included, names the
file.  Every CSV file read (dataset, readings, trials) goes through
:func:`read_table`: columns by name, extra columns ignored, every row as
wide as the header, blank rows skipped, each cell converted by its
column's type, and a failure names the file line.  Every CSV file written
(those and the predict and errors outputs) goes through
:func:`write_table`, floats as their shortest ``repr``, so they read back
exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
import typing

import numpy as np

from .errors import CascalError, DatasetFormatError


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


def set_vectors(record, *names) -> None:
    """Set the named fields of frozen ``record`` to flat float arrays, each
    finite and as long as the first, or raise ValueError naming the field."""
    for name in names:
        array = np.asarray(getattr(record, name), dtype=float).ravel()
        n = len(array) if name == names[0] else n
        if len(array) != n:
            raise ValueError(f"{name} has {len(array)} entries, {names[0]} {n}")
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must be finite")
        object.__setattr__(record, name, array)


def _from_json(name, hint, value):
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


def read_json(path, what: str, decode):
    """``decode`` of the JSON file at ``path``; any failure names the file."""
    try:  # overflow is silent: it ends in a finiteness check's one-line error
        with open(path, encoding="utf-8") as fh, np.errstate(over="ignore"):
            return decode(json.load(fh))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            CascalError) as exc:
        raise DatasetFormatError(f"{path}: not a valid {what}: {exc}") from None


def write_json(path, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# CSV cell types: each converts one cell, or raises ValueError naming
# what the cell is not.

def number(cell: str) -> float:
    """A float cell; ``nan`` and ``inf`` included."""
    try:
        return float(cell)
    except ValueError:
        raise ValueError("non-numeric") from None


def finite(cell: str) -> float:
    """A float cell that must be finite."""
    value = number(cell)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def integer(cell: str) -> int:
    """An integer cell."""
    try:
        return int(cell)
    except ValueError:
        raise ValueError("non-integer") from None


def read_table(path, columns: dict):
    """Yield (file line, cells) for each row of the CSV file at ``path``.

    ``columns`` maps each wanted column's name to its cell type, and the
    cells come in that order.  Any failure is a DatasetFormatError naming
    the file line, such as ``row 3: non-finite x``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader, [])]
            if not set(columns) <= set(header):
                raise DatasetFormatError(
                    f"{path}: row 1: expected columns {','.join(columns)!r}, "
                    f"got {','.join(header)!r}"
                )
            picks = [(header.index(name), name, cell) for name, cell in columns.items()]
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    raise DatasetFormatError(
                        f"{path}: row {line}: expected {len(header)} columns, "
                        f"got {len(row)}"
                    )
                cells = []
                for i, name, cell in picks:
                    try:
                        cells.append(cell(row[i]))
                    except ValueError as exc:
                        raise DatasetFormatError(
                            f"{path}: row {line}: {exc} {name}"
                        ) from None
                yield line, cells
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise DatasetFormatError(f"{path}: row {reader.line_num}: {exc}") from None


def write_table(path, header, rows) -> None:
    """Write a CSV file; give floats as Python floats, written as their repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
