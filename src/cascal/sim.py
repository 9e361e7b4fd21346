"""Synthetic sensors, dataset generation, and the accuracy cost oracle.

Each synthetic sensor reads the true position plus a random finite Fourier
series (smooth, position-dependent inaccuracy) plus white noise.  The true
correction map is only available here, by numerically inverting the
noiseless response (safeguarded Newton inside a bracketing grid cell),
which is what makes the accuracy cost computable in simulation while it
never is on hardware.

``Problem`` is the one home of the simulated problem's sizes and their
rules: ``sample_truth``, ``generate_d1``, ``generate_d2`` and ``score``
take their defaults from it and check their arguments by building one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._record import Record, read_json, set_vectors, write_json
from .cascade import CalibrationDataset
from .errors import ConfigError, NonMonotonic

#: Fraction of the position range added on each side before checking
#: monotonicity and bracketing inversions.
RANGE_PAD = 0.05

#: Grid resolution for the monotonicity check / inversion bracket.
MONOTONE_GRID = 4001

#: Give up redrawing non-monotone truths after this many attempts.
MAX_TRUTH_ATTEMPTS = 1000


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True)
class SensorTruth(Record):
    """Ground-truth inaccuracy model of one sensor.

    reading(p) = p + sum_k sin_coeffs[k]*sin(freqs[k]*p)
                   + cos_coeffs[k]*cos(freqs[k]*p) + noise

    The bracketing grid of each checked range is built once and kept,
    read-only, for the life of the sensor.
    """

    sin_coeffs: np.ndarray
    cos_coeffs: np.ndarray
    freqs: np.ndarray
    noise_variance: float

    def __post_init__(self) -> None:
        set_vectors(self, "freqs", "sin_coeffs", "cos_coeffs")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ValueError("noise_variance must be finite and >= 0")

    @functools.cached_property
    def _grids(self) -> dict:
        return {}


@dataclass(frozen=True)
class TruthPair(Record):
    """Ground truth for one simulated calibration problem.

    ``sensor1`` is the device under calibration, ``sensor2`` the test bed;
    the reference instrument reads the true position directly (plus noise).
    """

    sensor1: SensorTruth
    sensor2: SensorTruth
    range: tuple = (0.0, 1.0)

    def __post_init__(self) -> None:
        if len(self.range) != 2:
            raise ValueError(f"range must have two ends, got {self.range}")
        lo, hi = float(self.range[0]), float(self.range[1])
        object.__setattr__(self, "range", (lo, hi))
        if not lo < hi:
            raise ValueError(f"range must be well-ordered, got {self.range}")


@dataclass(frozen=True)
class Problem(Record):
    """The sizes of one simulated problem; building one checks them."""

    n_terms: int = 10
    coeff_var: float = 1e-4
    freq_var: float = 6.0
    noise_var: float = 1e-8
    n_grid: int = 100
    edge_remove: int = 8
    center_remove: int = 20
    n1: int = 100
    n_quad: int = 2001

    def __post_init__(self) -> None:
        for name in ("n_terms", "coeff_var", "freq_var", "noise_var"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name, least in (("n_grid", 4), ("n1", 2), ("n_quad", 2),
                            ("edge_remove", 0), ("center_remove", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        # At least 2 kept points also puts the center gap inside the edges.
        n, edge, center = self.n_grid, self.edge_remove, self.center_remove
        kept = n - 2 * edge - center
        if kept < 2:
            raise ConfigError(f"edge_remove {edge} and center_remove {center} leave "
                              f"{kept} of n_grid {n} points; need at least 2")


def sample_truth(
    rng_seed,
    n_terms: int = Problem.n_terms,
    coeff_var: float = Problem.coeff_var,
    freq_var: float = Problem.freq_var,
    noise_variance: float = Problem.noise_var,
) -> SensorTruth:
    """Draw one random sensor truth.

    Coefficients are i.i.d. Normal(0, coeff_var) and frequencies
    Normal(0, freq_var) — both arguments are variances.  ``rng_seed`` may
    be an integer seed or a Generator.
    """
    Problem(n_terms=n_terms, coeff_var=coeff_var, freq_var=freq_var,
            noise_var=noise_variance)
    rng = np.random.default_rng(rng_seed)
    return SensorTruth(
        sin_coeffs=rng.normal(0.0, math.sqrt(coeff_var), n_terms),
        cos_coeffs=rng.normal(0.0, math.sqrt(coeff_var), n_terms),
        freqs=rng.normal(0.0, math.sqrt(freq_var), n_terms),
        noise_variance=noise_variance,
    )


def sensor_eval(t: SensorTruth, y_star) -> np.ndarray:
    """Noiseless sensor response at true position(s)."""
    y = np.asarray(y_star, dtype=float)
    phase = np.multiply.outer(y, t.freqs)
    dev = np.sin(phase) @ t.sin_coeffs + np.cos(phase) @ t.cos_coeffs
    return y + dev


def sensor_read(t: SensorTruth, y_star, rng: np.random.Generator):
    """Noisy sensor reading(s) at true position(s)."""
    clean = sensor_eval(t, y_star)
    noise = rng.normal(0.0, math.sqrt(t.noise_variance), np.shape(clean))
    out = clean + noise
    if np.ndim(y_star) == 0:
        return float(out)
    return out


def _padded_range(rng_range: tuple) -> tuple:
    lo, hi = rng_range
    pad = RANGE_PAD * (hi - lo)
    return lo - pad, hi + pad


def _monotone_grid(t: SensorTruth, rng_range: tuple) -> tuple:
    """Grid and values for bracketing; raises NonMonotonic if not increasing.

    Built once per sensor and range: a trial checks, then twice inverts,
    its device sensor over the same range.
    """
    lo, hi = _padded_range(rng_range)
    grids = t._grids
    if (lo, hi) not in grids:
        grid = np.linspace(lo, hi, MONOTONE_GRID)
        vals = sensor_eval(t, grid)
        if not np.all(np.diff(vals) > 0):
            raise NonMonotonic(
                "sensor response is not strictly increasing on the padded range"
            )
        grid.flags.writeable = vals.flags.writeable = False
        grids[lo, hi] = grid, vals
    return grids[lo, hi]


def is_monotone(t: SensorTruth) -> bool:
    """Whether the noiseless response is strictly increasing on the padded range."""
    try:
        _monotone_grid(t, TruthPair.range)
    except NonMonotonic:
        return False
    return True


def _response_and_slope(t: SensorTruth, p: np.ndarray) -> tuple:
    """Noiseless response (as :func:`sensor_eval`) and its derivative at p."""
    phase = np.multiply.outer(p, t.freqs)
    sin, cos = np.sin(phase), np.cos(phase)
    value = p + (sin @ t.sin_coeffs + cos @ t.cos_coeffs)
    slope = 1.0 + (cos @ (t.freqs * t.sin_coeffs) - sin @ (t.freqs * t.cos_coeffs))
    return value, slope


def invert_sensor(t: SensorTruth, y_obs, rng_range: tuple = TruthPair.range):
    """Invert the noiseless response by safeguarded Newton.

    Each query starts from the linear interpolant inside the cell of the
    monotonicity grid over the padded ``rng_range`` that brackets it, takes
    Newton steps on the analytic slope, and keeps the bracket tight from
    the sign of the residual; a step that would leave the bracket goes to
    its midpoint instead.  Iteration stops once no query moves by 1e-12,
    a fixed tolerance.  Returns the true position(s) whose noiseless
    reading equals ``y_obs``.  Accepts a scalar or an array.
    """
    grid, vals = _monotone_grid(t, rng_range)
    y = np.atleast_1d(np.asarray(y_obs, dtype=float))
    if not (np.all(y >= vals[0]) and np.all(y <= vals[-1])):  # NaN fails too
        raise ValueError(
            "observation outside the invertible range "
            f"[{vals[0]:.6g}, {vals[-1]:.6g}]"
        )
    idx = np.clip(np.searchsorted(vals, y), 1, len(grid) - 1)
    lo = grid[idx - 1]
    hi = grid[idx]
    root = lo + (y - vals[idx - 1]) * (hi - lo) / (vals[idx] - vals[idx - 1])
    # All queries step in lockstep.  The bracket is inclusive: a converged
    # point sits on one of its ends, and its next step must stay Newton.
    for _ in range(64):
        value, slope = _response_and_slope(t, root)
        below = value < y
        lo = np.where(below, root, lo)
        hi = np.where(below, hi, root)
        newton = root - (value - y) / slope
        nxt = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.max(np.abs(nxt - root)) < 1e-12
        root = nxt
        if done:
            break
    if np.ndim(y_obs) == 0:
        return float(root[0])
    return root


def sample_truth_pair(
    seed: int,
    n_terms: int = Problem.n_terms,
    coeff_var: float = Problem.coeff_var,
    freq_var: float = Problem.freq_var,
    noise_variance: float = Problem.noise_var,
) -> tuple:
    """Draw a truth pair, redrawing until both sensors are invertible.

    Non-monotone draws are rejected and redrawn from the next seed
    substream.  Returns (pair, rejected_count).
    """
    for attempt in range(MAX_TRUTH_ATTEMPTS):
        rng = substream(seed, 0, attempt)
        sensor1 = sample_truth(rng, n_terms, coeff_var, freq_var, noise_variance)
        sensor2 = sample_truth(rng, n_terms, coeff_var, freq_var, noise_variance)
        if is_monotone(sensor1) and is_monotone(sensor2):
            return TruthPair(sensor1, sensor2), attempt
    raise NonMonotonic(
        f"no invertible truth pair found in {MAX_TRUTH_ATTEMPTS} draws for seed {seed}"
    )


def generate_d2(
    pair: TruthPair,
    n_grid: int = Problem.n_grid,
    edge_remove: int = Problem.edge_remove,
    center_remove: int = Problem.center_remove,
    rng: np.random.Generator | None = None,
) -> CalibrationDataset:
    """Test-bed vs reference dataset on a gappy position grid.

    ``n_grid`` equally spaced true positions are read by the test-bed
    sensor and the reference; ``edge_remove`` points are dropped from each
    end and ``center_remove`` consecutive points from the middle, modelling
    positions the reference instrument cannot reach.
    """
    Problem(n_grid=n_grid, edge_remove=edge_remove, center_remove=center_remove)
    center_start = (n_grid - center_remove) // 2
    rng = np.random.default_rng(rng)

    lo, hi = pair.range
    y_star = np.linspace(lo, hi, n_grid)
    y2 = sensor_read(pair.sensor2, y_star, rng)
    y3 = y_star + rng.normal(
        0.0, math.sqrt(pair.sensor2.noise_variance), n_grid
    )
    keep = np.ones(n_grid, dtype=bool)
    keep[:edge_remove] = False
    if edge_remove:
        keep[-edge_remove:] = False
    keep[center_start : center_start + center_remove] = False
    return CalibrationDataset(x=y2[keep], y=y3[keep])


def _device_grid(pair: TruthPair, n: int) -> np.ndarray:
    """``n`` equally spaced device readings over the noiseless image of the range.

    The ends are exactly the device sensor's readings at the range's ends.
    """
    lo, hi = pair.range
    y1_lo = float(sensor_eval(pair.sensor1, lo))
    y1_hi = float(sensor_eval(pair.sensor1, hi))
    return np.linspace(y1_lo, y1_hi, n)


def generate_d1(
    pair: TruthPair,
    n1: int = Problem.n1,
    rng: np.random.Generator | None = None,
) -> CalibrationDataset:
    """Device vs test-bed dataset on an equally spaced device-reading grid.

    The grid spans the device sensor's noiseless image of the position
    range; true positions are recovered by inversion, then read by the
    test-bed sensor.  The recorded device readings carry their own noise.
    """
    Problem(n1=n1)
    rng = np.random.default_rng(rng)
    y1_grid = _device_grid(pair, n1)
    y_star = invert_sensor(pair.sensor1, y1_grid, rng_range=pair.range)
    y2 = sensor_read(pair.sensor2, y_star, rng)
    x = y1_grid + rng.normal(0.0, math.sqrt(pair.sensor1.noise_variance), n1)
    return CalibrationDataset(x=x, y=y2)


def true_f13(pair: TruthPair, y1):
    """Ground-truth correction map: device reading to true position."""
    return invert_sensor(pair.sensor1, y1, rng_range=pair.range)


def score(model_apply, pair: TruthPair, n_quad: int = Problem.n_quad) -> tuple:
    """A calibration map's error line and its accuracy cost: (grid, error, J).

    The map is evaluated against the ground-truth correction on ``n_quad``
    equally spaced device readings over the device sensor's noiseless
    reading range; J is the normalized root of the squared error integrated
    by the composite trapezoid rule.  A map that returns a stacked
    ``(k, n_quad)`` array scores k maps against one inversion of the truth:
    the error then has k rows, and J is the array of their k costs.
    """
    Problem(n_quad=n_quad)
    grid = _device_grid(pair, n_quad)
    y1_lo, y1_hi = grid[0], grid[-1]
    if not y1_lo < y1_hi:
        raise NonMonotonic("device sensor range collapsed; cannot evaluate cost")
    err = np.asarray(model_apply(grid), dtype=float) - true_f13(pair, grid)
    cost = np.sqrt(np.trapezoid(err * err, grid, axis=-1) / (y1_hi - y1_lo))
    return grid, err, cost if cost.ndim else float(cost)


def cost_j(model_apply, pair: TruthPair, n_quad: int = Problem.n_quad):
    """The accuracy cost J of :func:`score`; a stacked map gets k costs."""
    return score(model_apply, pair, n_quad)[2]


def save_truth_pair(pair: TruthPair, path) -> None:
    write_json(path, pair.to_dict())


def load_truth_pair(path) -> TruthPair:
    """Read a truth pair; raises DatasetFormatError if it does not parse."""
    return read_json(path, "truth file", TruthPair.from_dict)
