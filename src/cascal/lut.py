"""Lookup-table baseline: piecewise-linear interpolation, cascaded.

The conventional alternative to the regression pipeline: build a table
from each calibration dataset and chain the two tables.  No uncertainty
is tracked anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record, set_vectors
from .errors import DegenerateTable

if TYPE_CHECKING:
    from .cascade import CalibrationDataset

METHOD_LUT = "lut"

#: Supported out-of-range behaviors for table evaluation.
EXTRAPOLATION_MODES = ("slope", "clamp")


@dataclass(frozen=True)
class LookupTable(Record):
    """Strictly increasing breakpoints and their mapped values (meters)."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        set_vectors(self, "breakpoints", "values")
        if self.breakpoints.shape[0] < 2:
            raise DegenerateTable("a lookup table needs at least 2 breakpoints")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise ValueError("breakpoints must be strictly increasing")


def build_lut(pairs: CalibrationDataset) -> LookupTable:
    """Sort pairs by x and collapse duplicate x entries by averaging y.

    Raises DegenerateTable when fewer than 2 distinct breakpoints remain.
    """
    uniq, inverse, counts = np.unique(pairs.x, return_inverse=True, return_counts=True)
    sums = np.zeros_like(uniq)
    np.add.at(sums, inverse, pairs.y)  # each group summed in input order
    if uniq.shape[0] < 2:
        raise DegenerateTable(
            f"only {uniq.shape[0]} distinct breakpoint(s) after deduplication"
        )
    return LookupTable(breakpoints=uniq, values=sums / counts)


def lut_eval(t: LookupTable, y, extrapolation: str = "slope"):
    """Piecewise-linear evaluation of the table.

    Outside the breakpoint range, ``slope`` extends the boundary segment's
    slope; ``clamp`` holds the boundary value.  Accepts a scalar or an
    array; the return type matches.
    """
    if extrapolation not in EXTRAPOLATION_MODES:
        raise ValueError(f"unknown extrapolation mode {extrapolation!r}")
    arr = np.asarray(y, dtype=float)
    out = np.interp(arr, t.breakpoints, t.values)
    if extrapolation == "slope":
        bp, vals = t.breakpoints, t.values
        lo_slope = (vals[1] - vals[0]) / (bp[1] - bp[0])
        hi_slope = (vals[-1] - vals[-2]) / (bp[-1] - bp[-2])
        out = np.where(arr < bp[0], vals[0] + lo_slope * (arr - bp[0]), out)
        out = np.where(arr > bp[-1], vals[-1] + hi_slope * (arr - bp[-1]), out)
    if np.isscalar(y) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LutCascade(Record):
    """Two chained lookup tables forming a calibration map."""

    stage_one: LookupTable
    stage_two: LookupTable
    extrapolation: str = "slope"
    method_tag: str = METHOD_LUT

    def __post_init__(self) -> None:
        if self.extrapolation not in EXTRAPOLATION_MODES:
            raise ValueError(
                f"extrapolation must be one of {EXTRAPOLATION_MODES}, "
                f"got {self.extrapolation!r}"
            )

    def apply(self, y1: np.ndarray) -> np.ndarray:
        y1 = np.asarray(y1, dtype=float).ravel()
        return lut_eval(self.stage_two, y1, self.extrapolation)

    def to_dict(self) -> dict:
        """Fields by name, with ``extrapolation`` nested under ``config``."""
        d = super().to_dict()
        d["config"] = {"extrapolation": d.pop("extrapolation")}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LutCascade":
        if d["method_tag"] != METHOD_LUT:
            raise ValueError(f"not a LUT model: method_tag={d['method_tag']!r}")
        return super().from_dict({**d, "extrapolation": d["config"]["extrapolation"]})


def calibrate_lut_cascade(
    d1: CalibrationDataset,
    d2: CalibrationDataset,
    extrapolation: str = "slope",
) -> LutCascade:
    """Build the chained-table calibration.

    A table is built from ``d2``, applied to ``d1``'s more-accurate-sensor
    readings to relabel them, and a second table is built from the
    relabeled pairs.
    """
    table_23 = build_lut(d2)
    relabeled = replace(d1, y=lut_eval(table_23, d1.y, extrapolation))
    table_13 = build_lut(relabeled)
    return LutCascade(
        stage_one=table_23, stage_two=table_13, extrapolation=extrapolation
    )
