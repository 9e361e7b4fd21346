"""Dense symmetric positive-definite linear algebra with a jitter policy.

Every Gram-matrix factorization, solve and log-determinant in the toolkit
goes through this module, so the stabilization policy (escalating diagonal
jitter) lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite

#: Relative asymmetry above which an input matrix is rejected.
SYMMETRY_TOL = 1e-9

#: Jitter escalation: multiply by this factor each retry.
JITTER_GROWTH = 10.0

#: Maximum number of jittered retries after the plain attempt.
MAX_JITTER_RETRIES = 8


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


def factor_psd(a: np.ndarray, max_jitter: float) -> PsdFactor:
    """Factor a symmetric matrix, escalating diagonal jitter on failure.

    The input is symmetrized as (A + A.T) / 2 and factored.  If the plain
    Cholesky fails, jitter starting at 1e-12 * max(diag(A)) is added to the
    diagonal and grown geometrically (up to ``max_jitter``) until the
    factorization succeeds.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric matrix; asymmetry beyond a small tolerance is rejected.
    max_jitter : float
        Largest diagonal addition allowed before giving up.

    Returns
    -------
    PsdFactor

    Raises
    ------
    NotPositiveDefinite
        If the factorization still fails at ``max_jitter``.
    ValueError
        If the input is not square or not symmetric within tolerance.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return PsdFactor(lower_triangular=np.zeros((0, 0)), jitter_used=0.0)

    scale = float(np.max(np.abs(a))) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_TOL * (1.0 + scale):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    a = 0.5 * (a + a.T)

    diag_max = float(np.max(np.diag(a)))
    base = 1e-12 * diag_max if diag_max > 0 else 1e-12
    eye = np.eye(n)

    jitter = 0.0
    for attempt in range(MAX_JITTER_RETRIES + 1):
        try:
            lower = np.linalg.cholesky(a + jitter * eye if jitter else a)
            return PsdFactor(lower_triangular=lower, jitter_used=jitter)
        except np.linalg.LinAlgError:
            if jitter >= max_jitter:
                break
            nxt = base * JITTER_GROWTH**attempt
            jitter = min(nxt, max_jitter)
    raise NotPositiveDefinite(
        f"factorization failed for {n}x{n} matrix at jitter {max_jitter:.3e}"
    )


def solve_psd(f: PsdFactor, b: np.ndarray) -> np.ndarray:
    """Solve (A + jitter*I) X = B using the stored factor.

    ``b`` may be a vector of length n or an (n, m) matrix; the result has
    the same shape.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != f.n:
        raise DimensionMismatch(
            f"factor is {f.n}x{f.n} but right-hand side has shape {b.shape}"
        )
    if f.n == 0:
        return b.copy()
    return scipy.linalg.cho_solve((f.lower_triangular, True), b)


def solve_lower(f: PsdFactor, b: np.ndarray) -> np.ndarray:
    """Solve L X = B with the stored lower-triangular factor alone.

    Half of :func:`solve_psd`: ``sum(X**2, axis=0)`` is the quadratic form
    B' (A + jitter*I)^-1 B column by column, without forming it across
    columns.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != f.n:
        raise DimensionMismatch(
            f"factor is {f.n}x{f.n} but right-hand side has shape {b.shape}"
        )
    return scipy.linalg.solve_triangular(f.lower_triangular, b, lower=True)


def log_det(f: PsdFactor) -> float:
    """Log-determinant of the factored (jittered) matrix."""
    if f.n == 0:
        return 0.0
    return 2.0 * float(np.sum(np.log(np.diag(f.lower_triangular))))
