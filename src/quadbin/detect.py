"""Nonclassicality detectors: three-point/three-bin ratio tests and the moment-matrix method.

Both detectors certify that no mixture of coherent states could have produced
the observed single-quadrature statistics. The ratio tests compare the
distribution near the origin against the vacuum envelope; values below 1
certify nonclassicality. The moment method builds the Hankel matrix of
normally ordered quadrature moments and looks for a negative eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, UndefinedStatisticError
from .model import QuadratureDistribution

__all__ = [
    "CLASSICAL_LIMIT",
    "MomentMatrix",
    "three_point_R",
    "three_bin_ratio",
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
    """The ratio C_d C_-d / C_0^2 * e^{sigma^2 d^2} from bin counts or bin masses."""
    return float(cpos * cneg / c0**2 * np.exp(sigma**2 * d**2))


def analytic_three_bin_R(dist: QuadratureDistribution, sigma: float, d: int) -> float:
    """Population value of the binned ratio test, from the model bin masses."""
    if d < 1:
        raise ValueError(f"bin distance must be a positive integer, got {d!r}")
    pneg, p0, ppos = dist.bin_probabilities(sigma, np.array([-d, 0, d]))
    return three_bin_ratio(ppos, pneg, p0, sigma, d)


def normally_ordered_moments(x, j_max: int) -> np.ndarray:
    """Sample estimates of the normally ordered moments of orders 0..j_max.

    Order j is mean(H_j(x_i / sqrt(2))) / 2^{j/2} with physicists' Hermite
    polynomials, evaluated by the three-term recurrence (closed-form
    coefficients cancel catastrophically at high order).
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
    y = xa / np.sqrt(2.0)
    h_prev = np.ones_like(y)
    h_cur = 2.0 * y
    out[1] = h_cur.mean() / 2.0**0.5
    for j in range(2, j_max + 1):
        h_prev, h_cur = h_cur, 2.0 * y * h_cur - 2.0 * (j - 1) * h_prev
        out[j] = h_cur.mean() / 2.0 ** (j / 2.0)
    return out


def check_moment_order(n: int) -> int:
    """``n`` unchanged once it is a supported moment-matrix order; ValueError otherwise."""
    if not MIN_MOMENT_ORDER <= n <= MAX_MOMENT_ORDER:
        raise ValueError(f"matrix order must lie in [{MIN_MOMENT_ORDER}, {MAX_MOMENT_ORDER}], got {n!r}")
    return n


@dataclass(frozen=True)
class MomentMatrix:
    """Hankel matrix of normally ordered moments and its smallest eigenvalue.

    The verdict reads ``lambda_min`` under the bootstrap, against
    ``CLASSICAL_LIMIT``: see ``stats.ViolationReport``.
    """

    order: int
    entries: np.ndarray
    lambda_min: float


def moment_matrix_from_moments(moments, n: int) -> MomentMatrix:
    """Build the order-``n`` matrix from precomputed moments 0..2n-2.

    Entry (i, j) is the moment of order i + j, so every anti-diagonal reuses
    the same estimate.
    """
    check_moment_order(n)
    moments = np.asarray(moments, dtype=float)
    if moments.size < 2 * n - 1:
        raise ValueError(f"need moments up to order {2 * n - 2}, got {moments.size - 1}")
    m = moments[np.add.outer(np.arange(n), np.arange(n))]
    vals, vecs = np.linalg.eigh(m)
    lam = float(vals[0])
    residual = np.linalg.norm(m @ vecs[:, 0] - lam * vecs[:, 0])
    # written so that a NaN residual or matrix norm fails the check too
    if not residual <= EIG_RESIDUAL_TOL * max(np.linalg.norm(m), 1.0):
        raise EigensolverError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    return MomentMatrix(n, m, lam)

