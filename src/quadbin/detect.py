"""Nonclassicality detectors: three-point/three-bin ratio tests and the moment-matrix method.

Both detectors certify that no mixture of coherent states could have produced
the observed single-quadrature statistics. The ratio tests compare the
distribution near the origin against the vacuum envelope; values below 1
certify nonclassicality. The moment method builds the Hankel matrix of
normally ordered quadrature moments and looks for a negative eigenvalue.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError, UndefinedStatisticError
from .model import QuadratureDistribution

__all__ = [
    "CLASSICAL_LIMIT",
    "three_point_R",
    "three_bin_ratio",
    "check_bin_distance",
    "analytic_three_bin_R",
    "normally_ordered_moments",
    "check_moment_order",
    "moment_matrix_from_moments",
]

# Every classical state reaches at least this value of each detector's statistic.
CLASSICAL_LIMIT = {"three-bin": 1.0, "moment": 0.0}

MIN_MOMENT_ORDER = 2
MAX_MOMENT_ORDER = 8

# Residual bound for the symmetric eigensolve, relative to the matrix norm.
EIG_RESIDUAL_TOL = 1e-10


def three_point_R(dist: QuadratureDistribution, s: float) -> float:
    """Continuous ratio test p(s) p(-s) / p(0)^2 * e^{s^2}; < 1 is nonclassical.

    Equals 1 identically for the vacuum; a zero-mean Gaussian of variance V
    gives e^{s^2 (1 - 1/V)}.
    """
    if not s > 0.0:
        raise ValueError(f"test point must be positive, got {s!r}")
    p0 = dist.pdf(0.0)
    if not p0 > 0.0:
        raise UndefinedStatisticError("density vanishes at the origin")
    return float(dist.pdf(s) * dist.pdf(-s) / p0**2 * np.exp(s**2))


def three_bin_ratio(cpos, cneg, c0, sigma: float, d: int) -> float:
    """The ratio C_d C_-d / C_0^2 * e^{sigma^2 d^2} from bin counts or bin masses.

    The exponent is a numpy scalar, so a bin size too large for it gives inf
    (or NaN against a zero count) where a float's square raises OverflowError.
    """
    return float(cpos * cneg / c0**2 * np.exp(np.float64(sigma) ** 2 * d**2))


def check_bin_distance(d: int) -> int:
    """``d`` unchanged once it is a usable bin distance; ValueError otherwise."""
    if d < 1:
        raise ValueError(f"bin distance must be a positive integer, got {d!r}")
    return d


def analytic_three_bin_R(dist: QuadratureDistribution, sigma: float, d: int) -> float:
    """Population value of the binned ratio test, from the model bin masses."""
    check_bin_distance(d)
    pneg, p0, ppos = dist.bin_probabilities(sigma, np.array([-d, 0, d]))
    return three_bin_ratio(ppos, pneg, p0, sigma, d)


def normally_ordered_moments(x, j_max: int) -> np.ndarray:
    """Sample estimates of the normally ordered moments of orders 0..j_max.

    Order j is mean(H_j(x_i / sqrt(2))) / 2^{j/2} with physicists' Hermite
    polynomials, evaluated by the three-term recurrence (closed-form
    coefficients cancel catastrophically at high order). Outcomes too large
    for a moment to be finite are a data error: UndefinedStatisticError.
    """
    xa = np.asarray(x, dtype=float)
    if xa.size == 0:
        raise ValueError("cannot estimate moments from an empty sample")
    if j_max < 0:
        raise ValueError(f"moment order must be >= 0, got {j_max!r}")
    out = np.empty(j_max + 1)
    out[0] = 1.0
    if j_max == 0:
        return out
    # 2 y with y = x / sqrt(2), then H_j = 2y H_{j-1} - 2(j-1) H_{j-2} in three reused buffers
    two_y = xa / np.sqrt(2.0)
    two_y *= 2.0
    h_prev, h_cur, term = np.ones_like(two_y), two_y.copy(), np.empty_like(two_y)
    out[1] = h_cur.mean() / 2.0**0.5
    for j in range(2, j_max + 1):
        np.multiply(two_y, h_cur, out=term)
        h_prev *= 2.0 * (j - 1)
        np.subtract(term, h_prev, out=h_prev)
        h_prev, h_cur = h_cur, h_prev
        out[j] = h_cur.mean() / 2.0 ** (j / 2.0)
    if not np.all(np.isfinite(out)):
        raise UndefinedStatisticError("normally ordered moments overflow; the moment matrix is not finite")
    return out


def check_moment_order(n: int) -> int:
    """``n`` unchanged once it is a supported moment-matrix order; ValueError otherwise."""
    if not MIN_MOMENT_ORDER <= n <= MAX_MOMENT_ORDER:
        raise ValueError(f"matrix order must lie in [{MIN_MOMENT_ORDER}, {MAX_MOMENT_ORDER}], got {n!r}")
    return n


def moment_matrix_from_moments(moments, n: int):
    """Smallest eigenvalue of the order-``n`` Hankel matrix of precomputed moments 0..2n-2.

    Entry (i, j) is the moment of order i + j, so every anti-diagonal reuses
    the same estimate. One moment vector gives a float; a (B, j) stack of
    vectors gives the (B,) eigenvalues from one batched eigensolve, each equal
    to the float of its row, and the residual check covers every row. The
    verdict reads this eigenvalue under the bootstrap, against
    ``CLASSICAL_LIMIT``: see ``stats.ViolationReport``.
    """
    check_moment_order(n)
    moments = np.asarray(moments, dtype=float)
    if moments.shape[-1] < 2 * n - 1:
        raise ValueError(f"need moments up to order {2 * n - 2}, got {moments.shape[-1] - 1}")
    m = moments[..., np.add.outer(np.arange(n), np.arange(n))]
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:  # LAPACK gives up on some non-finite matrices
        raise EigensolverError(f"symmetric eigensolve failed: {err}") from None
    lam, vec = vals[..., 0], vecs[..., :, 0]
    residual = np.linalg.norm((m @ vec[..., None])[..., 0] - lam[..., None] * vec, axis=-1)
    # written so that a NaN residual or matrix norm fails the check too
    failed = ~(residual <= EIG_RESIDUAL_TOL * np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1.0))
    if failed.any():
        raise EigensolverError(f"eigenpair residual {residual[failed][0]:.3e} exceeds tolerance")
    return float(lam) if lam.ndim == 0 else lam
