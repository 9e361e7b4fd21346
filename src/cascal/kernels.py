"""Squared-exponential kernel and prior means for the calibration models.

The kernel menu is deliberately restricted to the squared exponential; it
encodes the smoothness assumption the calibration models rely on.  Other
stationary kernels could be added behind the same two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._record import Record


@dataclass(frozen=True)
class Hyperparameters(Record):
    """Kernel hyperparameters for one regression stage.

    Attributes
    ----------
    length_scale : float
        Characteristic length scale (meters); must be positive and finite.
    signal_variance : float
        Prior variance magnitude (meters^2); must be positive and finite.
    noise_variance : float
        Observation noise variance (meters^2); must be nonnegative and finite.
    """

    length_scale: float
    signal_variance: float
    noise_variance: float

    def __post_init__(self) -> None:
        if not (0 < self.length_scale < math.inf):
            raise ValueError(
                f"length_scale must be finite and > 0, got {self.length_scale}"
            )
        if not (0 < self.signal_variance < math.inf):
            raise ValueError(
                f"signal_variance must be finite and > 0, got {self.signal_variance}"
            )
        if not (0 <= self.noise_variance < math.inf):
            raise ValueError(
                f"noise_variance must be finite and >= 0, got {self.noise_variance}"
            )


@dataclass(frozen=True)
class PriorMean(Record):
    """Prior mean function: identity, zero, or affine.

    The identity is the natural default for sensor cross-calibration: with
    no data, one sensor is expected to read the same as the other.
    """

    variant: str  # "identity" | "zero" | "affine"
    slope: float = 1.0
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if self.variant not in ("identity", "zero", "affine"):
            raise ValueError(f"unknown prior mean variant {self.variant!r}")

    @classmethod
    def identity(cls) -> "PriorMean":
        return cls("identity")

    @classmethod
    def zero(cls) -> "PriorMean":
        return cls("zero", slope=0.0, intercept=0.0)

    @classmethod
    def affine(cls, slope: float, intercept: float) -> "PriorMean":
        return cls("affine", slope=float(slope), intercept=float(intercept))

    def to_dict(self) -> dict:
        """Slope and intercept are written for the affine variant only."""
        if self.variant == "affine":
            return super().to_dict()
        return {"variant": self.variant}

    @classmethod
    def from_dict(cls, d: dict) -> "PriorMean":
        if d["variant"] == "affine":
            return super().from_dict(d)
        if d["variant"] == "zero":
            return cls.zero()
        return cls(d["variant"])  # identity; __post_init__ rejects the rest


def se_kernel(y_a: float, y_b: float, hp: Hyperparameters) -> float:
    """Squared-exponential covariance between two scalar positions.

    k(a, b) = signal_variance * exp(-(a - b)^2 / (2 * length_scale^2))
    """
    d = float(y_a) - float(y_b)
    return float(
        hp.signal_variance * np.exp(-0.5 * (d / hp.length_scale) ** 2)
    )


def kernel_matrix(
    y_a: np.ndarray, y_b: np.ndarray, hp: Hyperparameters
) -> np.ndarray:
    """Pairwise kernel matrix K[p, q] = k(y_a[p], y_b[q]).

    When both arguments are the same vector the result is exactly symmetric
    by construction.  Positions so far apart that their scaled distance
    overflows get a covariance of exactly zero, without a warning.
    """
    y_a = np.asarray(y_a, dtype=float).ravel()
    y_b = np.asarray(y_b, dtype=float).ravel()
    with np.errstate(over="ignore"):
        diff = y_a[:, None] - y_b[None, :]
        diff /= hp.length_scale
        return se_from_scaled(diff, hp.signal_variance, out=diff)[0]


def se_from_scaled(
    scaled: np.ndarray, signal_variance: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Squared-exponential kernel from scaled differences (a - b) / length_scale.

    Returns the kernel signal_variance * exp(-0.5 * sq) and the scaled
    squared distances sq, which overwrite ``scaled``: the evidence's
    gradient reads them too.  The kernel is written to ``out``, a new array
    by default; ``out=scaled`` gives up sq for one array in all.
    """
    # In place: above glibc's mmap threshold every m x n temporary is a
    # fresh mapping that page-faults on first touch.
    sq = np.square(scaled, out=scaled)
    k = np.multiply(sq, -0.5, out=out)
    np.exp(k, out=k)
    k *= signal_variance
    return k, sq


def eval_prior_mean(m: PriorMean, y: np.ndarray) -> np.ndarray:
    """Apply the prior mean elementwise."""
    y = np.asarray(y, dtype=float)
    if m.variant == "identity":
        return y.copy()
    if m.variant == "zero":
        return np.zeros_like(y)
    return m.slope * y + m.intercept
