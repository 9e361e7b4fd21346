"""Independent brute-force references for the regression math.

Everything here deliberately avoids the library's solve path: posteriors
use an explicit dense inverse (numpy's LU-based ``inv``) and the evidence
uses ``slogdet``, so agreement with the package is a two-route check.
The exceptions are the references for the hyperparameter *search*,
``optimize_nelder_mead`` and ``optimize_scipy_minimize``: they maximize the
package's own evidence, so that only the search differs from the
package's; and ``condition_reference``, the evidence evaluation as it was
before it kept each training set's fixed quantities, which the package
must match bit for bit.
"""

import math

import numpy as np
import scipy.optimize

from cascal import gp
from cascal.errors import OptimizationFailed
from cascal.gp import OptimizerConfig, log_marginal_likelihood
from cascal.kernels import Hyperparameters, PriorMean, eval_prior_mean, kernel_matrix
from cascal.numerics import factor_psd, inverse_psd, log_det, solve_psd


def gram(ts, hp, jitter=0.0):
    n = ts.n
    k = kernel_matrix(ts.inputs, ts.inputs, hp)
    return k + ts.target_cov + (hp.noise_variance + jitter) * np.eye(n)


def predict_mean_bruteforce(ts, hp, mean, y_star, jitter=0.0):
    y_star = np.asarray(y_star, dtype=float)
    k_star = kernel_matrix(y_star, ts.inputs, hp)
    k_inv = np.linalg.inv(gram(ts, hp, jitter))
    residual = ts.targets - eval_prior_mean(mean, ts.inputs)
    return eval_prior_mean(mean, y_star) + k_star @ k_inv @ residual


def predict_cov_bruteforce(ts, hp, mean, y_star, jitter=0.0):
    y_star = np.asarray(y_star, dtype=float)
    k_star = kernel_matrix(y_star, ts.inputs, hp)
    k_inv = np.linalg.inv(gram(ts, hp, jitter))
    return kernel_matrix(y_star, y_star, hp) - k_star @ k_inv @ k_star.T


def lml_bruteforce(ts, hp, mean, jitter=0.0):
    if ts.n == 0:
        return 0.0
    kt = gram(ts, hp, jitter)
    residual = ts.targets - eval_prior_mean(mean, ts.inputs)
    sign, logdet = np.linalg.slogdet(kt)
    assert sign > 0
    quad = residual @ np.linalg.inv(kt) @ residual
    return -0.5 * quad - 0.5 * logdet - 0.5 * ts.n * np.log(2 * np.pi)


def random_spd(rng, n, cond=100.0):
    """Well-conditioned random SPD matrix with eigenvalues in [1/cond, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0 / cond, 1.0, n)
    return (q * eigs) @ q.T


def optimize_nelder_mead(ts, hp0, mean, cfg=OptimizerConfig(), fix_noise=None):
    """Derivative-free multi-start simplex search for the evidence maximum.

    Starts, box and the "never worse than hp0" rule are those of
    ``gp.optimize_hyperparameters``; the search is Nelder-Mead on the
    log-parameters, projected into the box.  Returns the best
    hyperparameters found.
    """
    lo, hi = cfg.log_lower, cfg.log_upper

    def unpack(x):
        x = np.clip(x, lo, hi)
        noise = math.exp(x[2]) if fix_noise is None else fix_noise
        return Hyperparameters(math.exp(x[0]), math.exp(x[1]), noise)

    def objective(x):
        lml = log_marginal_likelihood(ts, unpack(x), mean)
        return -lml if np.isfinite(lml) else np.inf

    if fix_noise is not None:
        hp0 = Hyperparameters(hp0.length_scale, hp0.signal_variance, fix_noise)
    best_hp = hp0
    best_f = -log_marginal_likelihood(ts, hp0, mean)
    logs = [math.log(hp0.length_scale), math.log(hp0.signal_variance)]
    if fix_noise is None:
        logs.append(math.log(hp0.noise_variance))
    x0_center = np.clip(np.array(logs), lo, hi)
    for offset in cfg.start_offsets:
        x0 = np.clip(x0_center + offset, lo, hi)
        f0 = objective(x0)
        result = scipy.optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iters,
                "xatol": 1e-6,
                "fatol": cfg.rel_tol * max(1.0, abs(f0)),
            },
        )
        f_final = objective(result.x)
        if f_final < best_f:
            best_f = f_final
            best_hp = unpack(result.x)
    return best_hp


def optimize_scipy_minimize(
    ts, hp0, cfg=OptimizerConfig(), mean=PriorMean.identity(), fix_noise=None,
    all_starts=False,
):
    """``gp.optimize_hyperparameters`` through ``scipy.optimize.minimize``.

    The multi-start L-BFGS-B search as it was before the package drove
    scipy's L-BFGS-B routine itself: the same starts, scaling, box and
    tolerances, with every start handed to ``scipy.optimize.minimize``.
    It calls ``gp._condition`` through the module, so a test that replaces
    it replaces it here too.

    With more than three offsets, the middle one of the sorted offsets and
    the two outermost run first, and the search stops if all three ended
    finite, within ``gp._AGREE_X`` of each other in every log-parameter and
    within ``gp._AGREE_F * max(1, |best f|)`` in f; otherwise the rest run.
    ``all_starts=True`` runs every offset, as the search did before it
    stopped early: the five-start reference.
    """
    if ts.n < 2:
        raise ValueError(f"need at least 2 training points, got {ts.n}")

    lo, hi = cfg.log_lower, cfg.log_upper

    def objective(x):
        """Negative evidence and its gradient; inf where it is not finite."""
        try:
            c = gp._condition(ts, gp._unpack(x, fix_noise), mean, with_grad=True)
        except gp._NUMERICAL_ERRORS:
            return np.inf, np.zeros_like(x)
        grad = c.grad[: x.size]
        if not (math.isfinite(c.lml) and np.isfinite(grad).all()):
            return np.inf, np.zeros_like(x)
        return -c.lml, -grad

    if fix_noise is not None:
        hp0 = Hyperparameters(hp0.length_scale, hp0.signal_variance, fix_noise)
    try:
        lml0 = gp.log_marginal_likelihood(ts, hp0, mean)
    except gp._NUMERICAL_ERRORS:
        lml0 = -np.inf
    best_hp = hp0
    best_f = -lml0 if np.isfinite(lml0) else np.inf

    x0_center = np.clip(gp._pack(hp0, fix_noise), lo, hi)

    def run(offset):
        """The start's endpoint and f there; f is inf if f(x0) is not finite."""
        x0 = np.clip(x0_center + offset, lo, hi)
        f0, g0 = objective(x0)
        if not np.isfinite(f0):
            return x0, np.inf
        scale = max(1.0, abs(f0))

        def scaled(x):
            f, g = (f0, g0) if (x == x0).all() else objective(x)
            return f / scale, g / scale

        result = scipy.optimize.minimize(
            scaled,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * x0.size,
            options={"maxiter": cfg.max_iters, "ftol": cfg.rel_tol, "gtol": gp._PGTOL},
        )
        return result.x, float(result.fun) * scale

    offsets = cfg.start_offsets
    kept = range(len(offsets))
    ends = {}
    if len(offsets) > 3 and not all_starts:
        ranked = sorted(kept, key=lambda i: offsets[i])
        trio = sorted([ranked[len(ranked) // 2], ranked[0], ranked[-1]])
        ends = {i: run(offsets[i]) for i in trio}
        xs = np.array([ends[i][0] for i in trio])
        fs = np.array([ends[i][1] for i in trio])
        if (
            np.isfinite(fs).all()
            and np.abs(xs[:, None, :] - xs[None, :, :]).max() <= gp._AGREE_X
            and fs.max() - fs.min() <= gp._AGREE_F * max(1.0, abs(fs.min()))
        ):
            kept = trio
    for i in kept:
        x, f_final = ends[i] if i in ends else run(offsets[i])
        if np.isfinite(f_final) and f_final < best_f:
            best_f = f_final
            best_hp = gp._unpack(x, fix_noise)

    if not np.isfinite(best_f):
        raise OptimizationFailed(
            "no optimizer start produced a finite log marginal likelihood"
        )
    return best_hp


def condition_reference(ts, hp, mean, with_grad=False):
    """``gp._condition`` as it was when every call rebuilt everything.

    Verbatim but for three inlined helpers: the kernel matrix by its
    earlier formula, ``k = (-0.5 * s) * s`` over s = (a - b) / length_scale;
    the jitter cap, 1e-5 of the Gram matrix's largest diagonal entry,
    computed before factoring; and the checked solve, ``solve_psd``.  The
    package's evaluation must give the same bits.
    """
    n = ts.n
    diff = ts.inputs[:, None] - ts.inputs[None, :]
    diff /= hp.length_scale
    k = -0.5 * diff
    k *= diff
    np.exp(k, out=k)
    k *= hp.signal_variance
    gram = k + ts.target_cov
    gram.flat[:: n + 1] += hp.noise_variance
    diag_max = float(gram.diagonal().max()) if gram.size else 0.0
    factor = factor_psd(gram, max_jitter=1e-5 * max(diag_max, 1e-30))
    residual = ts.targets - eval_prior_mean(mean, ts.inputs)
    alpha = solve_psd(factor, residual)
    lml = float(-0.5 * residual @ alpha - 0.5 * log_det(factor) - 0.5 * n * gp.LOG_2PI)
    grad = None
    if with_grad:
        kinv = inverse_psd(factor)
        trace_kinv = kinv.trace()
        scaled_sq = np.square(
            (ts.inputs[:, None] - ts.inputs[None, :]) / hp.length_scale
        )
        k_sq = k * scaled_sq
        grad = 0.5 * np.array([
            alpha @ k_sq @ alpha - 2.0 * (kinv * k_sq).sum(),
            alpha @ k @ alpha - 2.0 * (kinv * k).sum()
            + hp.signal_variance * trace_kinv,
            hp.noise_variance * (alpha @ alpha - trace_kinv),
        ])
    return gp._Conditioned(factor, alpha, lml, grad)
