"""Dense symmetric positive-definite linear algebra with a jitter policy.

Every Gram-matrix factorization, solve, inverse and log-determinant in the
toolkit goes through this module, so the stabilization policy (escalating
diagonal jitter) lives in exactly one place.  The factor, the solve, the
inverse and the triangular solve call LAPACK's dpotrf, dpotrs, dpotri and
dtrtrs directly.

They come from scipy's compiled LAPACK module, ``scipy/linalg/_flapack``,
which :func:`load_scipy_compiled` loads from its file without running
``scipy.linalg``'s ``__init__``, which would load ``scipy.sparse`` and
``scipy.special`` too.  ``gp`` loads scipy's L-BFGS-B routine the same way.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import DimensionMismatch, NotPositiveDefinite


def load_scipy_compiled(package: str, name: str):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its file.

    The parent package's ``__init__`` does not run, and the module is not
    registered in ``sys.modules`` here (CPython may record a single-phase
    extension module there itself).

    Raises
    ------
    ImportError
        If the installed scipy has no such file.
    """
    full = f"scipy.{package}.{name}"
    spec = PathFinder.find_spec(full, [os.path.join(d, package) for d in scipy.__path__])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled module {full}",
                          name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = load_scipy_compiled("linalg", "_flapack")
dpotrf, dpotrs, dpotri, dtrtrs = (_flapack.dpotrf, _flapack.dpotrs, _flapack.dpotri,
                                  _flapack.dtrtrs)

#: Jitter escalation: multiply by this factor each retry.
JITTER_GROWTH = 10.0

#: Maximum number of jittered retries after the plain attempt.
MAX_JITTER_RETRIES = 8

#: By default, jitter escalates up to this fraction of the matrix's largest
#: diagonal entry.
MAX_JITTER_FRACTION = 1e-5


@dataclass(frozen=True)
class PsdFactor:
    """Cholesky-type factor of a (possibly jittered) SPD matrix.

    Attributes
    ----------
    lower_triangular : ndarray, shape (n, n)
        Lower-triangular factor L with L @ L.T equal to the jittered input.
    jitter_used : float
        Amount added to the diagonal before factorization succeeded,
        in the same units as the matrix entries.  Zero when the plain
        factorization worked.
    """

    lower_triangular: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower_triangular.shape[0]


def default_max_jitter(a: np.ndarray) -> float:
    """``MAX_JITTER_FRACTION`` of the largest diagonal entry, floored at 1e-30."""
    diag_max = float(a.diagonal().max()) if a.size else 0.0
    return MAX_JITTER_FRACTION * max(diag_max, 1e-30)


def factor_psd(a: np.ndarray, max_jitter: float | None = None) -> PsdFactor:
    """Factor a symmetric matrix, escalating diagonal jitter on failure.

    Only the lower triangle of the input is read, as by LAPACK's dpotrf, so
    the caller must pass a symmetric matrix.  If the plain Cholesky fails,
    jitter starting at 1e-12 * max(diag(A)) is added to the diagonal and
    grown geometrically (up to ``max_jitter``) until the factorization
    succeeds.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric matrix; its strict upper triangle is ignored.
    max_jitter : float or None
        Largest diagonal addition allowed before giving up.  By default
        :func:`default_max_jitter` of ``a``, computed only if the plain
        Cholesky fails.

    Returns
    -------
    PsdFactor

    Raises
    ------
    NotPositiveDefinite
        If the factorization still fails at ``max_jitter``.
    ValueError
        If the input is not square.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return PsdFactor(lower_triangular=np.zeros((0, 0)), jitter_used=0.0)

    lower, info = dpotrf(a, lower=1)
    if info == 0:
        return PsdFactor(lower_triangular=lower, jitter_used=0.0)

    if max_jitter is None:
        max_jitter = default_max_jitter(a)
    diag_max = float(a.diagonal().max())
    base = 1e-12 * diag_max if diag_max > 0 else 1e-12
    jitter = 0.0
    for attempt in range(MAX_JITTER_RETRIES):
        if jitter >= max_jitter:
            break
        jitter = min(base * JITTER_GROWTH**attempt, max_jitter)
        lower, info = dpotrf(a + jitter * np.eye(n), lower=1)
        if info == 0:
            return PsdFactor(lower_triangular=lower, jitter_used=jitter)
    raise NotPositiveDefinite(
        f"factorization failed for {n}x{n} matrix at jitter {max_jitter:.3e}"
    )


def _rhs(f: PsdFactor, b) -> np.ndarray:
    """``b`` as floats, checked to be a finite vector or matrix with ``f.n`` rows."""
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != f.n:
        raise DimensionMismatch(
            f"factor is {f.n}x{f.n} but right-hand side has shape {b.shape}"
        )
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    return b


def solve_psd(f: PsdFactor, b: np.ndarray) -> np.ndarray:
    """Solve (A + jitter*I) X = B using the stored factor.

    ``b`` may be a vector of length n or an (n, m) matrix; the result has
    the same shape.  A non-finite ``b`` or factor raises ``ValueError``.
    """
    return _solve_factored(f, _rhs(f, b))[0]


def _solve_factored(f: PsdFactor, b: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`solve_psd` for a finite float ``b`` whose shape the caller has
    checked, and :func:`log_det` of the factor.

    The evidence's hot path (``gp._condition``) calls it directly.  One
    scan of the factor's diagonal serves both the log-determinant and the
    finiteness guard: a non-finite entry of a Cholesky factor makes the
    diagonal entry of its row non-finite, and with it the log-determinant.
    """
    logdet = log_det(f)
    if not math.isfinite(logdet):
        raise ValueError("array must not contain infs or NaNs")
    if f.n == 0:
        return b.copy(), logdet
    x, _ = dpotrs(f.lower_triangular, b, lower=1)
    return x, logdet


def inverse_psd(f: PsdFactor) -> np.ndarray:
    """Lower triangle of (A + jitter*I)^-1, read off the stored factor.

    The strict upper triangle of the result is zero; the inverse is
    symmetric, so sums over it are twice the strict lower triangle's plus
    the diagonal's.
    """
    if f.n == 0:
        return np.zeros((0, 0))
    inv, _ = dpotri(f.lower_triangular, lower=1)
    return inv


def solve_lower_in_place(f: PsdFactor, b: np.ndarray) -> np.ndarray:
    """Solve L X = B with the stored lower-triangular factor alone, over ``b``.

    Half of :func:`solve_psd`: ``sum(X**2, axis=0)`` is the quadratic form
    B' (A + jitter*I)^-1 B column by column, without forming it across
    columns.  It is LAPACK's dtrtrs, the call ``scipy.linalg.solve_triangular``
    makes for a Fortran-ordered factor such as :func:`factor_psd`'s.  A
    Fortran-ordered float ``b``, such as the transpose of a C-ordered block,
    is overwritten with X, which is returned; any other is copied first.  A
    non-finite ``b`` or factor raises ``ValueError``.
    """
    b = _rhs(f, b)
    lower = f.lower_triangular
    if not np.isfinite(lower).all():
        raise ValueError("array must not contain infs or NaNs")
    if b.size == 0:
        return b
    x, info = dtrtrs(lower, b, lower=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (dtrtrs info {info})")
    return x


def log_det(f: PsdFactor) -> float:
    """Log-determinant of the factored (jittered) matrix; 0.0 when empty."""
    return 2.0 * float(np.log(f.lower_triangular.diagonal()).sum())
