"""Exact Gaussian-process regression with a full observation covariance.

The distinguishing feature over textbook GP regression is that training
targets carry an arbitrary (dense, symmetric PSD) covariance matrix, not
just an i.i.d. noise level.  That matrix enters the Gram system and the
marginal likelihood alongside the learned noise variance, which is what
lets a second regression stage consume the uncertainty of a first one.

Hyperparameters are selected by empirical Bayes: a bounded quasi-Newton
search (L-BFGS-B) maximizes the log marginal likelihood in log-parameter
space, from several deterministic starting points, driven by its analytic
gradient.  Fitting, the evidence and its gradient share one conditioning
path, so each evaluation factors the Gram matrix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.optimize

from .errors import CascalError, OptimizationFailed
from .kernels import Hyperparameters, PriorMean, eval_prior_mean, kernel_matrix
from .numerics import PsdFactor, factor_psd, log_det, solve_lower, solve_psd

LOG_2PI = math.log(2.0 * math.pi)

#: Gram matrices receive escalating jitter up to this fraction of their
#: largest diagonal entry.
MAX_JITTER_FRACTION = 1e-5


def _gram_max_jitter(k: np.ndarray) -> float:
    diag_max = float(np.max(np.diag(k))) if k.size else 0.0
    return MAX_JITTER_FRACTION * max(diag_max, 1e-30)


@dataclass(frozen=True)
class TrainingSet:
    """Scalar inputs, targets, and a full target covariance matrix.

    Attributes
    ----------
    inputs : ndarray, shape (n,)
        Training positions (meters).
    targets : ndarray, shape (n,)
        Observed values at the inputs (meters).
    target_cov : ndarray, shape (n, n)
        Covariance of the targets (meters^2).  Use zeros for exact or
        i.i.d.-noise observations (the noise then lives in the
        hyperparameters).
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_cov: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=float).ravel()
        targets = np.asarray(self.targets, dtype=float).ravel()
        cov = np.asarray(self.target_cov, dtype=float)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "target_cov", cov)
        n = inputs.shape[0]
        if targets.shape[0] != n:
            raise ValueError(
                f"{n} inputs but {targets.shape[0]} targets"
            )
        if cov.shape != (n, n):
            raise ValueError(
                f"target_cov has shape {cov.shape}, expected {(n, n)}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("inputs and targets must be finite")
        if n:
            if not np.all(np.isfinite(cov)):
                raise ValueError("target_cov must be finite")
            # PSD check; factor_psd also rejects asymmetry beyond 1e-9.
            factor_psd(cov, max_jitter=_gram_max_jitter(cov) + 1e-12)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def exact(cls, inputs: np.ndarray, targets: np.ndarray) -> "TrainingSet":
        """Training set with zero target covariance."""
        inputs = np.asarray(inputs, dtype=float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        n = inputs.shape[0]
        return cls(inputs=inputs, targets=targets, target_cov=np.zeros((n, n)))


@dataclass(frozen=True)
class GPPosterior:
    """A fitted regression stage.

    Stores the factored Gram matrix and the precomputed weight vector so
    that predictions are matrix-vector products; the training set is kept
    for serialization (models are refit on load).
    """

    hp: Hyperparameters
    mean: PriorMean
    train: TrainingSet
    gram_factor: PsdFactor
    weights: np.ndarray


class _Conditioned(NamedTuple):
    """One factorization of the Gram matrix and what is read off it.

    ``grad`` holds d lml / d(log length_scale, log signal_variance,
    log noise_variance), or None when it was not requested.
    """

    factor: PsdFactor
    alpha: np.ndarray
    lml: float
    grad: np.ndarray | None


def _condition(
    ts: TrainingSet, hp: Hyperparameters, mean: PriorMean, with_grad: bool = False
) -> _Conditioned:
    """Factor Kt = K + target_cov + noise_variance * I once and read it off.

    alpha solves Kt against the mean-centered residual r, and

        lml = -0.5 * r' alpha - 0.5 * log|Kt| - n/2 * log(2 pi)
        d lml / d theta = 0.5 * tr((alpha alpha' - Kt^-1) dKt/dtheta)

    (Rasmussen & Williams, eq. 5.9) over the log-hyperparameters, with the
    jitter the factorization needed held fixed.  target_cov does not
    depend on the hyperparameters, so it drops out of the derivatives.
    """
    k = kernel_matrix(ts.inputs, ts.inputs, hp)
    gram = k + ts.target_cov + hp.noise_variance * np.eye(ts.n)
    factor = factor_psd(gram, max_jitter=_gram_max_jitter(gram))
    residual = ts.targets - eval_prior_mean(mean, ts.inputs)
    alpha = solve_psd(factor, residual)
    lml = float(
        -0.5 * residual @ alpha - 0.5 * log_det(factor) - 0.5 * ts.n * LOG_2PI
    )
    grad = None
    if with_grad:
        w = np.outer(alpha, alpha) - solve_psd(factor, np.eye(ts.n))
        wk = w * k
        scaled_sq = np.square(
            (ts.inputs[:, None] - ts.inputs[None, :]) / hp.length_scale
        )
        grad = 0.5 * np.array([
            np.sum(wk * scaled_sq),
            np.sum(wk),
            hp.noise_variance * np.trace(w),
        ])
    return _Conditioned(factor, alpha, lml, grad)


def fit(ts: TrainingSet, hp: Hyperparameters, mean: PriorMean) -> GPPosterior:
    """Condition the prior on a training set.

    The Gram matrix is K(inputs, inputs) + target_cov + noise_variance * I;
    the weight vector solves it against the mean-centered targets.
    """
    c = _condition(ts, hp, mean)
    return GPPosterior(hp=hp, mean=mean, train=ts, gram_factor=c.factor, weights=c.alpha)


def predict_mean(p: GPPosterior, y_star: np.ndarray) -> np.ndarray:
    """Posterior mean at query positions."""
    y_star = np.asarray(y_star, dtype=float).ravel()
    mu = eval_prior_mean(p.mean, y_star)
    if p.train.n:
        k_star = kernel_matrix(y_star, p.train.inputs, p.hp)
        mu = mu + k_star @ p.weights
    return mu


def predict_cov(p: GPPosterior, y_star: np.ndarray) -> np.ndarray:
    """Posterior covariance of the latent function at query positions.

    The result is symmetrized and its diagonal clamped at zero; tiny
    negative eigenvalues from floating-point cancellation are tolerated
    off-diagonal.
    """
    y_star = np.asarray(y_star, dtype=float).ravel()
    cov = kernel_matrix(y_star, y_star, p.hp)
    if p.train.n:
        k_star = kernel_matrix(y_star, p.train.inputs, p.hp)
        cov = cov - k_star @ solve_psd(p.gram_factor, k_star.T)
        cov = 0.5 * (cov + cov.T)
        np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
    return cov


def predict_var(p: GPPosterior, y_star: np.ndarray) -> np.ndarray:
    """Posterior variance of the latent function at each query position.

    The diagonal of :func:`predict_cov` without forming the matrix:
    signal_variance - sum_i (L^-1 k*')_i^2 (Rasmussen & Williams,
    Alg. 2.1), from the stored factor L and clamped at zero.  Time and
    memory are linear in the number of query points.
    """
    y_star = np.asarray(y_star, dtype=float).ravel()
    var = np.full(y_star.shape, p.hp.signal_variance)
    if p.train.n:
        k_star = kernel_matrix(y_star, p.train.inputs, p.hp)
        v = solve_lower(p.gram_factor, k_star.T)
        var = np.maximum(var - np.einsum("ij,ij->j", v, v), 0.0)
    return var


def log_marginal_likelihood(
    ts: TrainingSet, hp: Hyperparameters, mean: PriorMean
) -> float:
    """Evidence of the training targets under the prior.

    Computed from the mean-centered residual r and the full Gram matrix
    Kt = K + target_cov + noise_variance * I:

        -0.5 * r' Kt^-1 r - 0.5 * log|Kt| - n/2 * log(2 pi)
    """
    if ts.n == 0:
        return 0.0
    return _condition(ts, hp, mean).lml


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start L-BFGS-B search over log-parameters.

    ``max_iters`` caps the iterations of each start (L-BFGS-B's
    ``maxiter``).  ``rel_tol`` is its ``ftol``: a start stops once an
    iteration lowers the negative evidence by less than that fraction of
    max(|f|, |f at the start|, 1).  Every log-parameter is bounded to
    [``log_lower``, ``log_upper``].
    """

    start_offsets: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    max_iters: int = 400
    rel_tol: float = 1e-9
    log_lower: float = -20.0
    log_upper: float = 5.0

    def to_dict(self) -> dict:
        return {
            "start_offsets": [float(o) for o in self.start_offsets],
            "max_iters": int(self.max_iters),
            "rel_tol": float(self.rel_tol),
            "log_lower": float(self.log_lower),
            "log_upper": float(self.log_upper),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        return cls(
            start_offsets=tuple(float(o) for o in d["start_offsets"]),
            max_iters=int(d["max_iters"]),
            rel_tol=float(d["rel_tol"]),
            log_lower=float(d["log_lower"]),
            log_upper=float(d["log_upper"]),
        )


def default_hp0(ts: TrainingSet, mean: PriorMean) -> Hyperparameters:
    """Scale-aware starting point for hyperparameter optimization.

    Length scale starts at 10% of the input range, signal variance at the
    residual variance (floored), noise variance at 1e-8.
    """
    span = float(np.ptp(ts.inputs)) if ts.n else 1.0
    residual = ts.targets - eval_prior_mean(mean, ts.inputs)
    var = float(np.var(residual)) if ts.n else 1.0
    return Hyperparameters(
        length_scale=max(0.1 * span, 1e-6),
        signal_variance=max(var, 1e-12),
        noise_variance=1e-8,
    )


def _pack(hp: Hyperparameters, fix_noise: float | None) -> np.ndarray:
    logs = [math.log(hp.length_scale), math.log(hp.signal_variance)]
    if fix_noise is None:
        logs.append(math.log(max(hp.noise_variance, 1e-300)))
    return np.array(logs)


def _unpack(x: np.ndarray, fix_noise: float | None) -> Hyperparameters:
    noise = math.exp(x[2]) if fix_noise is None else fix_noise
    return Hyperparameters(
        length_scale=math.exp(x[0]),
        signal_variance=math.exp(x[1]),
        noise_variance=noise,
    )


#: Failures of one evidence evaluation that count as "no finite evidence
#: here"; anything else is a programming error and propagates.
_NUMERICAL_ERRORS = (CascalError, ValueError, np.linalg.LinAlgError)

#: L-BFGS-B's projected-gradient tolerance, on the objective scaled by
#: max(1, |f(x0)|) for each start.
_PGTOL = 1e-9


def optimize_hyperparameters(
    ts: TrainingSet,
    hp0: Hyperparameters,
    cfg: OptimizerConfig = OptimizerConfig(),
    mean: PriorMean = PriorMean.identity(),
    fix_noise: float | None = None,
) -> Hyperparameters:
    """Maximize the log marginal likelihood over the hyperparameters.

    Runs L-BFGS-B with the analytic gradient over (log length_scale,
    log signal_variance, log noise_variance), bounded to the search box and
    multi-started by adding each configured offset to every coordinate of
    hp0's log-parameters.  Each start's objective is divided by
    max(1, |f(x0)|): at a tiny starting noise variance the raw gradient is
    large enough that the first (steepest-descent) step would otherwise
    jump to a corner of the box.  The best finite result is returned, and
    it is never worse than hp0 itself.

    Parameters
    ----------
    fix_noise : float or None
        When given, the noise variance is pinned at this value and excluded
        from the search (used for the strict no-extra-noise mode).

    Raises
    ------
    OptimizationFailed
        If no start (including hp0) yields a finite log marginal likelihood.
    """
    if ts.n < 2:
        raise ValueError(f"need at least 2 training points, got {ts.n}")

    lo, hi = cfg.log_lower, cfg.log_upper

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative evidence and its gradient; inf where it is not finite."""
        try:
            c = _condition(ts, _unpack(x, fix_noise), mean, with_grad=True)
        except _NUMERICAL_ERRORS:
            return np.inf, np.zeros_like(x)
        grad = c.grad[: x.size]
        if not (np.isfinite(c.lml) and np.all(np.isfinite(grad))):
            return np.inf, np.zeros_like(x)
        return -c.lml, -grad

    # hp0 itself (noise pinned if requested) is always a candidate, so the
    # result is never worse than the starting point.
    if fix_noise is not None:
        hp0 = Hyperparameters(hp0.length_scale, hp0.signal_variance, fix_noise)
    try:
        lml0 = log_marginal_likelihood(ts, hp0, mean)
    except _NUMERICAL_ERRORS:
        lml0 = -np.inf
    best_hp = hp0
    best_f = -lml0 if np.isfinite(lml0) else np.inf

    x0_center = np.clip(_pack(hp0, fix_noise), lo, hi)
    for offset in cfg.start_offsets:
        x0 = np.clip(x0_center + offset, lo, hi)
        f0, g0 = objective(x0)
        if not np.isfinite(f0):
            continue
        scale = max(1.0, abs(f0))

        def scaled(x: np.ndarray) -> tuple[float, np.ndarray]:
            f, g = (f0, g0) if np.array_equal(x, x0) else objective(x)
            return f / scale, g / scale

        result = scipy.optimize.minimize(
            scaled,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * x0.size,
            options={"maxiter": cfg.max_iters, "ftol": cfg.rel_tol, "gtol": _PGTOL},
        )
        f_final = float(result.fun) * scale
        if np.isfinite(f_final) and f_final < best_f:
            best_f = f_final
            best_hp = _unpack(result.x, fix_noise)

    if not np.isfinite(best_f):
        raise OptimizationFailed(
            "no optimizer start produced a finite log marginal likelihood"
        )
    return best_hp


def posterior_to_dict(p: GPPosterior) -> dict:
    """JSON-ready representation; factors are rebuilt on load."""
    return {
        "hyperparameters": p.hp.to_dict(),
        "prior_mean": p.mean.to_dict(),
        "train_inputs": [float(v) for v in p.train.inputs],
        "train_targets": [float(v) for v in p.train.targets],
        "target_cov": [[float(v) for v in row] for row in p.train.target_cov],
    }


def posterior_from_dict(d: dict) -> GPPosterior:
    """Refit a posterior from its serialized training data."""
    n = len(d["train_inputs"])
    cov = np.asarray(d["target_cov"], dtype=float).reshape(n, n)
    ts = TrainingSet(
        inputs=np.asarray(d["train_inputs"], dtype=float),
        targets=np.asarray(d["train_targets"], dtype=float),
        target_cov=cov,
    )
    return fit(ts, Hyperparameters.from_dict(d["hyperparameters"]),
               PriorMean.from_dict(d["prior_mean"]))
