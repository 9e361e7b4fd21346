"""Squared-exponential kernel and prior means for the calibration models.

The kernel menu is deliberately restricted to the squared exponential; it
encodes the smoothness assumption the calibration models rely on.  Other
stationary kernels could be added behind the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel hyperparameters for one regression stage.

    Attributes
    ----------
    length_scale : float
        Characteristic length scale (meters); must be positive.
    signal_variance : float
        Prior variance magnitude (meters^2); must be positive.
    noise_variance : float
        Observation noise variance (meters^2); must be nonnegative.
    """

    length_scale: float
    signal_variance: float
    noise_variance: float

    def __post_init__(self) -> None:
        if not (self.length_scale > 0):
            raise ValueError(f"length_scale must be > 0, got {self.length_scale}")
        if not (self.signal_variance > 0):
            raise ValueError(
                f"signal_variance must be > 0, got {self.signal_variance}"
            )
        if not (self.noise_variance >= 0):
            raise ValueError(
                f"noise_variance must be >= 0, got {self.noise_variance}"
            )

    def to_dict(self) -> dict:
        return {
            "length_scale": float(self.length_scale),
            "signal_variance": float(self.signal_variance),
            "noise_variance": float(self.noise_variance),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparameters":
        return cls(
            length_scale=float(d["length_scale"]),
            signal_variance=float(d["signal_variance"]),
            noise_variance=float(d["noise_variance"]),
        )


@dataclass(frozen=True)
class PriorMean:
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
        if self.variant == "affine":
            return {
                "variant": "affine",
                "slope": float(self.slope),
                "intercept": float(self.intercept),
            }
        return {"variant": self.variant}

    @classmethod
    def from_dict(cls, d: dict) -> "PriorMean":
        variant = d["variant"]
        if variant == "affine":
            return cls.affine(d["slope"], d["intercept"])
        if variant == "identity":
            return cls.identity()
        if variant == "zero":
            return cls.zero()
        raise ValueError(f"unknown prior mean variant {variant!r}")


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
    by construction.
    """
    y_a = np.asarray(y_a, dtype=float).ravel()
    y_b = np.asarray(y_b, dtype=float).ravel()
    # In place: above glibc's mmap threshold every m x n temporary is a
    # fresh mapping that page-faults on first touch.
    diff = y_a[:, None] - y_b[None, :]
    diff /= hp.length_scale
    k = -0.5 * diff
    k *= diff
    np.exp(k, out=k)
    k *= hp.signal_variance
    return k


def eval_prior_mean(m: PriorMean, y: np.ndarray) -> np.ndarray:
    """Apply the prior mean elementwise."""
    y = np.asarray(y, dtype=float)
    if m.variant == "identity":
        return y.copy()
    if m.variant == "zero":
        return np.zeros_like(y)
    return m.slope * y + m.intercept
