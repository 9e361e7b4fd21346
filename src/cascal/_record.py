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
file.  Every CSV file read (dataset, readings, trials) follows one table
rule, written once as the row-by-row reader :func:`read_rows`: columns by
name, each wanted column named once in the header, extra columns ignored,
every row as wide as the header, blank rows skipped, each cell converted
by its column's cell type, and the first faulty row's file line named.
:func:`read_table` is its fast path for whole columns: it reads a block
of :data:`BLOCK_ROWS` rows at a time and, on any fault, leaves the error
to :func:`read_rows`.  ``trials.csv`` is read row by row, so each row
carries its line.  Every CSV file written (those and the predict and
errors outputs) goes through :func:`write_table`: floats as their
shortest ``repr``, so they read back exactly, and str cells quoted by the
csv module.  Both block paths work a column at a time, so the memory they
take beyond the columns does not grow with the file.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
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


#: Rows per block when a CSV table is read or written: beyond its columns,
#: a table takes the memory of one block.
BLOCK_ROWS = 4096


# CSV cell types: each converts a block of one column's cells to a list, or
# raises ValueError naming what a cell is not.

def number(cells) -> list:
    """Float cells; ``nan`` and ``inf`` included."""
    try:
        return list(map(float, cells))
    except ValueError:
        raise ValueError("non-numeric") from None


def finite(cells) -> list:
    """Float cells that must be finite."""
    values = number(cells)
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite")
    return values


def integer(cells) -> list:
    """Integer cells."""
    try:
        return list(map(int, cells))
    except ValueError:
        raise ValueError("non-integer") from None


def text(cells) -> list:
    """Cells as they are."""
    return list(cells)


def read_rows(path, columns: dict):
    """Yield (file line, cells) for each row of the CSV file at ``path``.

    This is the table rule.  ``columns`` maps each wanted column's name to
    its cell type, and the cells come in that order.  Each wanted column is
    named once in the header, every row is as wide as the header, and blank
    rows are skipped.  Any failure is a DatasetFormatError naming the file
    line, such as ``row 3: non-finite x``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader, [])]
            if not set(columns) <= set(header):
                raise DatasetFormatError(f"{path}: row 1: expected columns "
                                         f"{','.join(columns)!r}, got {','.join(header)!r}")
            for name in columns:
                if header.count(name) > 1:
                    raise DatasetFormatError(f"{path}: row 1: column {name!r} is named "
                                             f"{header.count(name)} times")
            picks = [(header.index(name), name, cell) for name, cell in columns.items()]
            for row in filter(None, reader):
                line = reader.line_num
                if len(row) != len(header):
                    raise DatasetFormatError(f"{path}: row {line}: expected "
                                             f"{len(header)} columns, got {len(row)}")
                cells = []
                for i, name, cell in picks:
                    try:
                        cells.extend(cell([row[i]]))
                    except ValueError as exc:
                        message = f"{path}: row {line}: {exc} {name}"
                        raise DatasetFormatError(message) from None
                yield line, cells
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise DatasetFormatError(f"{path}: row {reader.line_num}: {exc}") from None


def read_table(path, columns: dict) -> list:
    """The wanted columns of the CSV file at ``path``, each a list.

    The columns of :func:`read_rows`, read and converted a block of rows at
    a time.  On any fault the file is read again by :func:`read_rows`, whose
    error names the first faulty row.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader, [])]
            if any(header.count(name) != 1 for name in columns):
                raise ValueError("a wanted column is not named once")
            picks = [(operator.itemgetter(header.index(name)), cell)
                     for name, cell in columns.items()]
            out = [[] for _ in picks]
            rows = filter(None, reader)  # blank rows are skipped
            while block := list(itertools.islice(rows, BLOCK_ROWS)):
                if set(map(len, block)) - {len(header)}:
                    raise ValueError("a row is not as wide as the header")
                for (pick, cell), column in zip(picks, out):
                    column.extend(cell(map(pick, block)))
            return out
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        pass
    for _ in read_rows(path, columns):  # up to the first fault, which it raises
        pass
    raise AssertionError(f"{path}: read_rows passed a table read_table failed")


def table_line(path, index: int) -> int:
    """The file line that ends row ``index`` (from 0) of the table at ``path``."""
    return next(itertools.islice(read_rows(path, {}), index, None))[0]


class _Echo:
    """A file whose write returns its text, so csv.writer.writerow returns the row."""

    def write(self, text: str) -> str:
        return text


def write_table(path, columns: dict) -> None:
    """Write equally long columns as a CSV file, a block of rows at a time.

    ``columns`` maps each name to a numpy array or a list of Python floats,
    ints or strs.  The file holds the bytes ``csv.writer`` writes with
    ``lineterminator="\\n"``: numbers as their ``repr``, so floats read
    back exactly, and str cells quoted by the csv module.
    """
    header = list(columns)
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    row = csv.writer(_Echo(), lineterminator="\n").writerow
    pad = ("",) * (len(header) - 1)

    def quote(cell: str) -> str:
        # The cell in a row of the table's width whose other cells are
        # empty: csv quotes a field by its content, and a row's lone empty
        # field too.
        return row((cell, *pad))[:-len(header)]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(row(header))
        for start in range(0, max(lengths, default=0), BLOCK_ROWS):
            cells = []
            for values in columns.values():
                block = values[start:start + BLOCK_ROWS]
                if isinstance(block, np.ndarray):
                    block = block.tolist()
                cells.append(map(quote if isinstance(block[0], str) else repr, block))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
