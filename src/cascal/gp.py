"""Exact Gaussian-process regression with a full observation covariance.

The distinguishing feature over textbook GP regression is that training
targets carry an arbitrary (dense, symmetric PSD) covariance matrix, not
just an i.i.d. noise level.  That matrix enters the Gram system and the
marginal likelihood alongside the learned noise variance, which is what
lets a second regression stage consume the uncertainty of a first one.

Hyperparameters are selected by empirical Bayes: a bounded quasi-Newton
search maximizes the log marginal likelihood in log-parameter space, from
several deterministic starting points, driven by its analytic gradient.
The search drives scipy's L-BFGS-B routine, ``setulb``, directly and takes
the iterates of ``scipy.optimize.minimize``.  The routine comes from scipy's
compiled module ``scipy/optimize/_lbfgsb``, loaded from its file by
``numerics.load_scipy_compiled`` without ``scipy.optimize`` and the
packages it loads.  Fitting, the evidence and its gradient share one
conditioning path, so each evaluation factors the Gram matrix once.
What does not depend on the hyperparameters (the pairwise input differences
and the mean-centered residual) is computed once per training set, so an
evaluation does only the work that the hyperparameters change.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from ._record import Record, float_array, set_vectors
from .errors import CascalError, OptimizationFailed, ScipyIncompatible
from .kernels import (Hyperparameters, PriorMean, eval_prior_mean, kernel_matrix,
                      se_from_scaled)
from .numerics import (
    PsdFactor,
    _solve_factored,
    default_max_jitter,
    factor_psd,
    inverse_psd,
    load_scipy_compiled,
    solve_lower_in_place,
    solve_psd,
)

#: scipy's L-BFGS-B routine, which ``_lbfgsb`` drives.
setulb = load_scipy_compiled("optimize", "_lbfgsb").setulb

LOG_2PI = math.log(2.0 * math.pi)

#: Relative asymmetry above which a target covariance is rejected.
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class TrainingSet:
    """Scalar inputs, targets, and a full target covariance matrix.

    The pairwise input differences and each prior mean's residual are
    computed on first use and kept, read-only, for the life of the set.

    Attributes
    ----------
    inputs : ndarray, shape (n,)
        Training positions (meters).
    targets : ndarray, shape (n,)
        Observed values at the inputs (meters).
    target_cov : ndarray, shape (n, n)
        Covariance of the targets (meters^2).  Use zeros for exact or
        i.i.d.-noise observations (the noise then lives in the
        hyperparameters).  Asymmetry beyond ``SYMMETRY_TOL`` is rejected;
        within it the matrix is stored as C / 2 + C.T / 2, exactly symmetric.
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_cov: np.ndarray

    def __post_init__(self) -> None:
        set_vectors(self, "inputs", "targets")
        cov = np.asarray(self.target_cov, dtype=float)
        n = self.n
        if cov.shape != (n, n):
            raise ValueError(f"target_cov has shape {cov.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("target_cov must be finite")
        asym = float(np.max(np.abs(cov - cov.T), initial=0.0))
        if asym > SYMMETRY_TOL * (1.0 + float(np.max(np.abs(cov), initial=0.0))):
            raise ValueError(f"target_cov is not symmetric (asymmetry {asym:.3e})")
        cov = 0.5 * cov + 0.5 * cov.T  # halving first cannot overflow
        object.__setattr__(self, "target_cov", cov)
        factor_psd(cov, max_jitter=default_max_jitter(cov) + 1e-12)  # PSD check

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @functools.cached_property
    def differences(self) -> np.ndarray:
        """inputs[p] - inputs[q], shape (n, n)."""
        diff = self.inputs[:, None] - self.inputs[None, :]
        diff.flags.writeable = False
        return diff

    @functools.cached_property
    def _residuals(self) -> dict:
        return {}

    def residual(self, mean: PriorMean) -> np.ndarray:
        """targets - mean(inputs); raises ValueError if it is not finite."""
        r = self._residuals.get(mean)
        if r is None:
            r = self.targets - eval_prior_mean(mean, self.inputs)
            if not np.isfinite(r).all():
                raise ValueError("array must not contain infs or NaNs")
            r.flags.writeable = False
            self._residuals[mean] = r
        return r

    @classmethod
    def exact(cls, inputs: np.ndarray, targets: np.ndarray) -> "TrainingSet":
        """Training set with zero target covariance."""
        n = np.size(inputs)
        return cls(inputs=inputs, targets=targets, target_cov=np.zeros((n, n)))


@dataclass(frozen=True)
class GPPosterior(Record):
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

    def to_dict(self) -> dict:
        """Prior and training data; the factors are rebuilt on load."""
        return {
            "hyperparameters": self.hp.to_dict(),
            "prior_mean": self.mean.to_dict(),
            "train_inputs": self.train.inputs.tolist(),
            "train_targets": self.train.targets.tolist(),
            "target_cov": self.train.target_cov.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GPPosterior":
        """Refit a posterior from its serialized training data."""
        inputs = float_array("train_inputs", d["train_inputs"])
        n = len(inputs)  # an empty model writes target_cov as []
        ts = TrainingSet(
            inputs=inputs,
            targets=float_array("train_targets", d["train_targets"]),
            target_cov=float_array("target_cov", d["target_cov"], ndim=2).reshape(n, n),
        )
        return fit(ts, Hyperparameters.from_dict(d["hyperparameters"]),
                   PriorMean.from_dict(d["prior_mean"]))


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

    The input differences and r come from the training set, which computes
    them once; a call does only the work that depends on ``hp``.
    """
    n = ts.n
    k, sq = se_from_scaled(ts.differences / hp.length_scale, hp.signal_variance)
    # k and target_cov are exactly symmetric, so gram is, as factor_psd needs.
    gram = k + ts.target_cov
    gram.ravel()[:: n + 1] += hp.noise_variance  # a view: gram is contiguous
    factor = factor_psd(gram)
    residual = ts.residual(mean)
    alpha, logdet = _solve_factored(factor, residual)
    lml = float(-0.5 * residual @ alpha - 0.5 * logdet - 0.5 * n * LOG_2PI)
    grad = None
    if with_grad:
        # inverse_psd fills only the lower triangle of Kt^-1.  Kt^-1 is
        # symmetric, so its sum against a symmetric matrix is twice the
        # lower triangle's minus the diagonal's: k's diagonal is the signal
        # variance and k * sq's is zero.
        kinv = inverse_psd(factor)
        trace_kinv = kinv.trace()
        k_sq = np.multiply(k, sq, out=sq)
        grad = 0.5 * np.array([
            alpha @ k_sq @ alpha - 2.0 * (kinv * k_sq).sum(),
            alpha @ k @ alpha - 2.0 * (kinv * k).sum()
            + hp.signal_variance * trace_kinv,
            hp.noise_variance * (alpha @ alpha - trace_kinv),
        ])
    return _Conditioned(factor, alpha, lml, grad)


def fit(ts: TrainingSet, hp: Hyperparameters, mean: PriorMean) -> GPPosterior:
    """Condition the prior on a training set.

    The Gram matrix is K(inputs, inputs) + target_cov + noise_variance * I;
    the weight vector solves it against the mean-centered targets.
    """
    c = _condition(ts, hp, mean)
    return GPPosterior(hp=hp, mean=mean, train=ts, gram_factor=c.factor, weights=c.alpha)


#: Kernel entries in one block of query rows: about 2**16 (512 KiB), so a
#: block of the cross-kernel k(y*, X) stays in cache while it is used.
BLOCK_ENTRIES = 2**16


def _block_rows(n: int) -> int:
    """Query rows per block against n training points: a multiple of 64."""
    return max(64, 64 * (BLOCK_ENTRIES // (64 * n)))


def _blocks(m: int, rows: int):
    """Slices of ``rows`` rows that cover range(m).

    A last block of one row joins the block before it: the BLAS computes a
    lone row or column by another path, with other bits.  Every other
    block starts at a multiple of ``rows``, itself a multiple of the BLAS
    kernels' row groups, so each row is computed as in one call over all m.
    """
    start = 0
    while start < m:
        stop = start + rows if m - start - rows != 1 else m
        yield slice(start, stop)
        start = stop


def _predict(p: GPPosterior, y_star, with_var: bool) -> tuple:
    """Posterior mean, and the variance if asked, in blocks of query rows.

    Each block's cross-kernel k* is formed once.  The mean takes one
    matrix-vector product from it; the variance then overwrites it with
    L^-1 k*' and takes signal_variance - sum_i (L^-1 k*')_i^2 (Rasmussen &
    Williams, Alg. 2.1), clamped at zero.  The result has the bits of a
    single block for any number of queries, and memory apart from the
    results is one block.
    """
    y_star = np.asarray(y_star, dtype=float).ravel()
    mu = eval_prior_mean(p.mean, y_star)
    var = np.full(y_star.shape, p.hp.signal_variance) if with_var else None
    if p.train.n:
        for block in _blocks(y_star.size, _block_rows(p.train.n)):
            k_star = kernel_matrix(y_star[block], p.train.inputs, p.hp)
            mu[block] += k_star @ p.weights
            if with_var:
                v = solve_lower_in_place(p.gram_factor, k_star.T)
                var[block] = np.maximum(var[block] - np.einsum("ij,ij->j", v, v), 0.0)
                del v
            # Freed before the next block is made, so that the next reuses
            # its memory: two blocks' worth makes malloc give pages back to
            # the system after each call, and fault them in again.
            del k_star
    return mu, var


def predict_mean(p: GPPosterior, y_star: np.ndarray) -> np.ndarray:
    """Posterior mean at query positions."""
    return _predict(p, y_star, with_var=False)[0]


def predict_mean_var(p: GPPosterior, y_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance at each query position.

    The mean is :func:`predict_mean`'s, bit for bit; the variance is the
    diagonal of :func:`predict_cov` without forming the matrix.  Time is
    linear in the number of query points.
    """
    return _predict(p, y_star, with_var=True)


def predict_cov(p: GPPosterior, y_star: np.ndarray) -> np.ndarray:
    """Posterior covariance of the latent function at query positions.

    The result is symmetrized and its diagonal clamped at zero; tiny
    negative eigenvalues from floating-point cancellation are tolerated
    off-diagonal.  ``cascade.propagate`` calls it by this name, which
    ``bench/tracing.py`` wraps.
    """
    y_star = np.asarray(y_star, dtype=float).ravel()
    cov = kernel_matrix(y_star, y_star, p.hp)
    if p.train.n:
        k_star = kernel_matrix(y_star, p.train.inputs, p.hp)
        cov = cov - k_star @ solve_psd(p.gram_factor, k_star.T)
        cov = 0.5 * (cov + cov.T)
        np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
    return cov


def log_marginal_likelihood(
    ts: TrainingSet, hp: Hyperparameters, mean: PriorMean
) -> float:
    """Evidence of the training targets under the prior.

    Computed from the mean-centered residual r and the full Gram matrix
    Kt = K + target_cov + noise_variance * I:

        -0.5 * r' Kt^-1 r - 0.5 * log|Kt| - n/2 * log(2 pi)

    The search scores hp0 through this name, which ``bench/tracing.py``
    wraps; its other evaluations call ``_condition`` directly.
    """
    return _condition(ts, hp, mean).lml


@dataclass(frozen=True)
class OptimizerConfig(Record):
    """Settings for the multi-start L-BFGS-B search over log-parameters.

    ``start_offsets`` are the starts the search may run, each added to
    every coordinate of the starting point's log-parameters.  With more
    than three, the middle one of ``sorted(start_offsets)`` and the two
    outermost run first, and the rest run only if those three do not end
    at one optimum (see ``optimize_hyperparameters``).  ``max_iters`` caps
    the iterations of each start (L-BFGS-B's ``maxiter``).  ``rel_tol`` is
    its ``ftol``: a start stops once an iteration lowers the negative
    evidence by less than that fraction of max(|f|, |f at the start|, 1).
    Every log-parameter is bounded to [``log_lower``, ``log_upper``].  The
    10 corrections and 20 line-search steps are scipy's defaults and are
    fixed.
    """

    start_offsets: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    max_iters: int = 400
    rel_tol: float = 1e-9
    log_lower: float = -20.0
    log_upper: float = 5.0


def default_hp0(ts: TrainingSet, mean: PriorMean) -> Hyperparameters:
    """Scale-aware starting point for hyperparameter optimization.

    Length scale starts at 10% of the input range, signal variance at the
    residual variance (floored), noise variance at 1e-8.
    """
    span = float(np.ptp(ts.inputs)) if ts.n else 1.0
    var = float(np.var(ts.residual(mean))) if ts.n else 1.0
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

#: The first three starts agree when their endpoints lie within _AGREE_X
#: of each other in every log-parameter, and their negative evidences
#: within _AGREE_F * max(1, |best|).
_AGREE_X = 1e-3
_AGREE_F = 1e-6


def _lbfgsb(objective, x0, cfg: OptimizerConfig) -> tuple[np.ndarray, float]:
    """Minimize objective / max(1, |f(x0)|) in the box from x0.

    Calls scipy's L-BFGS-B routine, ``setulb``, as ``scipy.optimize.minimize``
    does, reusing the evaluations at x0 and at the point last evaluated, so
    it takes the same iterates.  Returns the final x and last f, unscaled,
    or (x0, inf) when f(x0) is not finite.  A ``TypeError`` from the routine
    itself, as from a scipy whose private routine changed its arguments,
    becomes ``ScipyIncompatible``.
    """
    f0, g0 = objective(x0)
    if not math.isfinite(f0):
        return x0, math.inf
    n, m, scale, start = x0.size, 10, max(1.0, abs(f0)), x0.tolist()
    x, f, g, last_x, nfev, nit = x0.copy(), 0.0, np.zeros(n), None, 0, 0
    box = np.full(n, cfg.log_lower), np.full(n, cfg.log_upper), np.full(n, 2, np.int32)
    factr = cfg.rel_tol / np.finfo(float).eps
    wa, dsave = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(29)
    iwa, task, lsave, isave, ln_task = (np.zeros(k, np.int32) for k in (3 * n, 2, 4, 44, 2))
    while True:
        try:
            setulb(m, x, *box, f, g, factr, _PGTOL, wa, iwa, task, lsave, isave,
                   dsave, 20, ln_task)
        except TypeError as exc:
            raise ScipyIncompatible(
                f"the L-BFGS-B routine of scipy {scipy.__version__} rejects the "
                f"hyperparameter search's call: {exc}"
            ) from exc
        if task[0] == 3:  # FG: the objective at x
            if x.tolist() != last_x:
                last_x, nfev = x.tolist(), nfev + 1
                f, g = (f0, g0) if last_x == start else objective(x)
                last_fg = f / scale, g / scale
            f, g = last_fg[0], last_fg[1].copy()  # setulb may write to g
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= cfg.max_iters:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > 15000:
                task[:] = 5, 502  # STOP: evaluation limit
        elif task[0] == 7:  # ERROR: an inverted box or a negative rel_tol
            raise ValueError(f"L-BFGS-B rejects the settings {cfg}")
        else:
            return x, f * scale


def _agree(ends: list[tuple[np.ndarray, float]]) -> bool:
    """Whether starts that ended at ``ends`` (x, f) found one finite optimum."""
    fs = [f for _, f in ends]
    if not all(map(math.isfinite, fs)):
        return False
    spread = float(np.ptp(np.array([x for x, _ in ends]), axis=0).max())
    return spread <= _AGREE_X and max(fs) - min(fs) <= _AGREE_F * max(1.0, abs(min(fs)))


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
    hp0's log-parameters.  With more than three offsets, the middle one of
    ``sorted(cfg.start_offsets)`` and the two outermost run first (0, -2
    and 2 by default).  If all three end with a finite f, their endpoints
    within ``_AGREE_X`` of each other in log space (max-abs) and their f
    within ``_AGREE_F * max(1, |best f|)``, the search stops there;
    otherwise the remaining offsets run in their given order.  With three
    or fewer offsets, all of them run.  It drives scipy's L-BFGS-B routine
    directly (``_lbfgsb``), with the iterates of ``scipy.optimize.minimize``.
    Each start's objective is divided by max(1, |f(x0)|): at a tiny
    starting noise variance the raw gradient is large enough that the first
    (steepest-descent) step would otherwise jump to a corner of the box.
    The best finite result is returned, and it is never worse than hp0
    itself; a tie goes to hp0, then to the offset that comes earlier in
    ``cfg.start_offsets``, so a search that runs every start returns what
    running them in their given order would.

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
        if not all(map(math.isfinite, [c.lml, *grad.tolist()])):
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
    offsets = cfg.start_offsets

    def start(i: int) -> tuple[np.ndarray, float]:
        return _lbfgsb(objective, np.clip(x0_center + offsets[i], lo, hi), cfg)

    first = range(len(offsets))
    if len(offsets) > 3:
        ranked = sorted(first, key=offsets.__getitem__)
        first = ranked[len(ranked) // 2], ranked[0], ranked[-1]
    ends = {i: start(i) for i in first}
    if len(ends) < len(offsets) and not _agree(list(ends.values())):
        ends.update((i, start(i)) for i in range(len(offsets)) if i not in ends)
    for i in sorted(ends):
        x, f_final = ends[i]
        if f_final < best_f:
            best_f = f_final
            best_hp = _unpack(x, fix_noise)

    if not np.isfinite(best_f):
        raise OptimizationFailed(
            "no optimizer start produced a finite log marginal likelihood"
        )
    return best_hp
