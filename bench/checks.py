"""Correctness checks for the benchmark's outputs.

Every reference here avoids the package's solve path: posteriors and
evidence use an explicit dense inverse and ``slogdet``, the kernel and the
sensor response are written out again from their formulas, and the truth
correction map is found by Newton's method (for the whole cost grid) and
by Brent's method (for a sample of it) instead of the package's bisection.

Each check takes plain data and raises :class:`CheckFailed`, so the
self-test can perturb one input and watch the check reject it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize

#: A recomputed cost may differ from the package's by this relative amount
#: (inverse vs. Cholesky, Newton vs. bisection).
COST_RTOL = 1e-7

#: Posterior means may differ from the reference by this many meters.
MEAN_ATOL = 1e-10

#: Posterior variances may differ by this share of the signal variance.
VAR_RTOL = 1e-8

#: The truth map may differ from Brent's root by this many meters.
TRUTH_ATOL = 1e-10

#: Slack for comparing two log marginal likelihoods.
LML_RTOL = 1e-9


class CheckFailed(Exception):
    pass


class Checker:
    """Runs checks, keeping every failure instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def run(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failures.append(f"{name}: {exc}")
        else:
            self.passed += 1

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def se_kernel(a, b, hp) -> np.ndarray:
    d = np.subtract.outer(np.asarray(a, float), np.asarray(b, float))
    return hp.signal_variance * np.exp(-0.5 * (d / hp.length_scale) ** 2)


def prior_mean(mean, y) -> np.ndarray:
    y = np.asarray(y, float)
    if mean.variant == "identity":
        return y
    if mean.variant == "zero":
        return np.zeros_like(y)
    return mean.slope * y + mean.intercept


class Posterior:
    """GP posterior by explicit inverse of the full Gram matrix.

    Gram matrices of the squared-exponential kernel are badly conditioned,
    so every product with the inverse gets one step of iterative refinement.
    """

    def __init__(self, inputs, targets, target_cov, hp, mean) -> None:
        self.inputs = np.asarray(inputs, float)
        self.targets = np.asarray(targets, float)
        self.target_cov = np.asarray(target_cov, float)
        self.hp = hp
        self.mean = mean
        n = self.inputs.size
        gram = se_kernel(self.inputs, self.inputs, hp) + self.target_cov + hp.noise_variance * np.eye(n)
        self.gram = gram
        self.gram_inv = np.linalg.inv(gram)
        self.residual = self.targets - prior_mean(mean, self.inputs)
        self.alpha = self.solve(self.residual)
        sign, self.logdet = np.linalg.slogdet(gram)
        self.gram_positive = sign > 0

    def solve(self, b) -> np.ndarray:
        x = self.gram_inv @ b
        return x + self.gram_inv @ (b - self.gram @ x)

    def mean_at(self, y) -> np.ndarray:
        return prior_mean(self.mean, y) + se_kernel(y, self.inputs, self.hp) @ self.alpha

    def cov_at(self, y) -> np.ndarray:
        k = se_kernel(y, self.inputs, self.hp)
        return se_kernel(y, y, self.hp) - k @ self.solve(k.T)

    def var_at(self, y) -> np.ndarray:
        k = se_kernel(y, self.inputs, self.hp)
        return self.hp.signal_variance - np.einsum("ij,ji->i", k, self.solve(k.T))

    def lml(self) -> float:
        if not self.gram_positive:
            return -math.inf
        n = self.inputs.size
        return float(
            -0.5 * self.residual @ self.alpha - 0.5 * self.logdet - 0.5 * n * math.log(2 * math.pi)
        )


def sensor_response(truth, p) -> np.ndarray:
    phase = np.multiply.outer(np.asarray(p, float), truth.freqs)
    return p + np.sin(phase) @ truth.sin_coeffs + np.cos(phase) @ truth.cos_coeffs


def sensor_slope(truth, p) -> np.ndarray:
    phase = np.multiply.outer(np.asarray(p, float), truth.freqs)
    w = truth.freqs
    return 1.0 + np.cos(phase) @ (truth.sin_coeffs * w) - np.sin(phase) @ (truth.cos_coeffs * w)


def invert_newton(truth, y) -> np.ndarray:
    """True positions whose noiseless reading is ``y``, by Newton's method."""
    p = np.array(y, dtype=float)
    for _ in range(50):
        step = (sensor_response(truth, p) - y) / sensor_slope(truth, p)
        p = p - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return p


def invert_brent(truth, y, lo, hi) -> np.ndarray:
    return np.array(
        [
            scipy.optimize.brentq(lambda p: float(sensor_response(truth, p)) - v, lo, hi, xtol=1e-15)
            for v in y
        ]
    )


def cost_grid(pair, n_quad: int) -> np.ndarray:
    lo, hi = pair.range
    y1_lo = float(sensor_response(pair.sensor1, lo))
    y1_hi = float(sensor_response(pair.sensor1, hi))
    return np.linspace(y1_lo, y1_hi, n_quad)


def rms_cost(err, grid) -> float:
    sq = err * err
    integral = float(np.sum(0.5 * (sq[1:] + sq[:-1]) * np.diff(grid)))
    return math.sqrt(integral / (grid[-1] - grid[0]))


def bayes_cost(pair, d1, d2, hp_one, hp_two, mean, n_quad: int) -> tuple:
    """Cost of the covariance-propagating cascade, recomputed by reference.

    Returns the cost and both stages' reference posteriors.
    """
    stage_one = Posterior(d2.x, d2.y, np.zeros((d2.n, d2.n)), hp_one, mean)
    targets = stage_one.mean_at(d1.y)
    cov = stage_one.cov_at(d1.y)
    cov = 0.5 * (cov + cov.T)
    np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
    stage_two = Posterior(d1.x, targets, cov, hp_two, mean)
    grid = cost_grid(pair, n_quad)
    err = stage_two.mean_at(grid) - invert_newton(pair.sensor1, grid)
    return rms_cost(err, grid), stage_one, stage_two


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_costs_valid(results) -> None:
    """Every trial unflagged, with finite costs above zero."""
    for r in results:
        if r.flag is not None:
            raise CheckFailed(f"seed {r.seed} flagged: {r.flag}")
        for name in ("j_bayes", "j_alt1", "j_alt2"):
            value = getattr(r, name)
            if not (math.isfinite(value) and value > 0):
                raise CheckFailed(f"seed {r.seed}: {name} = {value!r}")


def check_bayes_beats_lut(results) -> None:
    bayes = float(np.median([r.j_bayes for r in results]))
    lut = float(np.median([r.j_alt2 for r in results]))
    if not bayes < lut:
        raise CheckFailed(f"median J bayes {bayes:.3e} >= alt2 {lut:.3e}")


def check_trials_equal(plain, traced) -> None:
    """Tracing must not change any trial's payload."""
    if plain != traced:
        raise CheckFailed("traced trials differ from the plain ones")


def check_cost_matches(seed, reported: float, reference: float) -> None:
    if not abs(reported - reference) <= COST_RTOL * reference:
        raise CheckFailed(f"seed {seed}: J_bayes {reported!r}, reference {reference!r}")


def check_truth_map(truth, y, mapped, lo, hi) -> None:
    """The package's truth map against Brent's root at sample readings."""
    reference = invert_brent(truth, y, lo, hi)
    worst = float(np.max(np.abs(np.asarray(mapped) - reference)))
    if not worst <= TRUTH_ATOL:
        raise CheckFailed(f"truth map off by {worst:.3e} m")


def check_lml_not_below_start(label, chosen: Posterior, start: Posterior) -> None:
    """Evidence at the chosen hyperparameters is at least that at the start."""
    lml, lml0 = chosen.lml(), start.lml()
    if not lml >= lml0 - LML_RTOL * (1.0 + abs(lml0)):
        raise CheckFailed(f"{label}: LML {lml!r} below start {lml0!r}")


def check_prediction_files(xs, mean_rows, var_rows, expected) -> None:
    """Mean-only and with-variance outputs agree with each other and memory."""
    for label, rows in (("mean-only", mean_rows), ("with-variance", var_rows)):
        if rows.shape[0] != xs.size or not np.array_equal(rows[:, 0], xs):
            raise CheckFailed(f"{label} output does not echo the readings")
    if not np.array_equal(mean_rows[:, 1], var_rows[:, 1]):
        raise CheckFailed("y_hat differs between mean-only and with-variance calls")
    if not np.array_equal(mean_rows[:, 1], expected):
        raise CheckFailed("y_hat read back differs from the in-memory result")


def check_variance_range(var, signal_variance: float) -> None:
    if not (np.all(var >= 0.0) and np.all(var <= signal_variance)):
        raise CheckFailed(
            f"variance outside [0, {signal_variance:.3e}]: "
            f"min {float(np.min(var)):.3e}, max {float(np.max(var)):.3e}"
        )


def check_posterior_sample(reference: Posterior, y, mean, var) -> None:
    """Predicted means and variances against the explicit-inverse posterior."""
    mean_err = float(np.max(np.abs(mean - reference.mean_at(y))))
    if not mean_err <= MEAN_ATOL:
        raise CheckFailed(f"posterior mean off by {mean_err:.3e} m")
    var_err = float(np.max(np.abs(var - reference.var_at(y))))
    if not var_err <= VAR_RTOL * reference.hp.signal_variance:
        raise CheckFailed(f"posterior variance off by {var_err:.3e} m^2")
