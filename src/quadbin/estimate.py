"""Joint estimation of (squeezing, loss, diffusion) from quadrature summary moments.

The forward model gives three measurable numbers, the squeezing-axis variance
and kurtosis and the anti-squeezing-axis variance, as closed functions of
(r, loss, delta). That map inverts in closed form:

    S = (var_x + var_p) / 2 = loss + (1 - loss) cosh(2r)
    D = (var_p - var_x) / 2 = B u,   B = (1 - loss) sinh(2r),  u = e^{-2 delta^2}
    K - 3 = (3/2) B^2 (1 - u^2)^2 / var_x^2

With E = sqrt((K - 3) / 6) var_x the last two combine into
D u^2 + 2 E u - D = 0, whose unique root in (0, 1] is
u = (sqrt(E^2 + D^2) - E) / D. Back-substitution then gives
loss = (1 - S^2 + B^2) / (2 (1 - S)) and r, delta directly. The inversion is
exact algebra, so the recovered parameters reproduce the input summary to
machine precision whenever a physical solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, UndefinedStatisticError
from .model import StateParams, diffused_variance, kurtosis_x

__all__ = [
    "MomentSummary",
    "summarize",
    "estimate_params",
    "params_statistic",
    "residuals",
    "params_from_variances",
    "squeezing_for_target",
    "db_from_variance",
    "variance_from_db",
]

# Forward-model residual the closed-form inversion must meet before returning.
_RESIDUAL_TOL = 1e-9

# |1 - S| below this means the summary is vacuum-like and loss is unidentifiable.
_VACUUM_TOL = 1e-12


@dataclass(frozen=True)
class MomentSummary:
    """Measured second moments and squeezing-axis kurtosis, shot-noise units."""

    var_x: float
    var_p: float
    kurt_x: float

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise ValueError("variances must be positive")
        if not np.isfinite(self.kurt_x):
            raise ValueError("kurtosis must be finite")


def summarize(x, p) -> MomentSummary:
    """Summary moments from squeezing-axis and anti-squeezing-axis outcome arrays.

    Uses divide-by-N central moments throughout, matching the raw sampling
    estimators used elsewhere. Raises UndefinedStatisticError when the data fix no summary.
    """
    return _summarize(x, p, np.empty(len(x)), np.empty(len(p)))


def _summarize(x, p, sx, sp) -> MomentSummary:
    """``summarize(x, p)``, with the centred outcomes squared in ``sx`` and ``sp``, which may be x and p themselves."""
    if len(x) < 2 or len(p) < 2:
        raise UndefinedStatisticError("need at least two records per quadrature")
    # products, not the generic pow (dx**4 is about 15x slower than s * s), squared in place in
    # the two centred arrays; numpy scalars, so an overflowing product gives inf where a float's
    # power raises OverflowError
    np.subtract(x, x.mean(), out=sx)
    sx *= sx
    np.subtract(p, p.mean(), out=sp)
    sp *= sp
    var_x, var_p = sx.mean(), sp.mean()
    if var_x == 0.0 or var_p == 0.0:
        raise UndefinedStatisticError("degenerate (constant) quadrature data")
    sx *= sx
    kurt_x = sx.mean() / var_x**2
    if not np.isfinite([var_x, var_p, kurt_x]).all():
        raise UndefinedStatisticError("quadrature moments overflow; the summary is not finite")
    return MomentSummary(float(var_x), float(var_p), float(kurt_x))


def estimate_params(summary: MomentSummary) -> StateParams:
    """Invert summary moments to the physical triple (r, loss, delta).

    Raises EstimationError when no physical state reproduces the summary
    (kurtosis below 3, wrong variance ordering, loss outside [0, 1)), carrying
    the offending numbers.
    """
    vx, vp, K = summary.var_x, summary.var_p, summary.kurt_x
    if vp <= vx:
        raise EstimationError(
            f"anti-squeezing variance must exceed squeezing variance (got {vx:.6g} >= {vp:.6g})",
            code="variance_order",
        )
    if K < 3.0:
        raise EstimationError(
            f"kurtosis {K:.6g} below the Gaussian floor of 3; no diffusion explains it",
            code="kurtosis_floor",
        )
    E = np.sqrt((K - 3.0) / 6.0) * vx
    D = 0.5 * (vp - vx)
    u = D / (np.hypot(E, D) + E)  # unique root of D u^2 + 2 E u - D = 0 in (0, 1], subtraction-free
    r, loss = _invert_variances(vx, vp, u)
    params = StateParams(r, loss, float(np.sqrt(max(-np.log(u), 0.0) / 2.0)))
    mismatch = residuals(params, summary)
    if max(mismatch.values()) > _RESIDUAL_TOL:
        raise EstimationError(
            "closed-form inversion failed to reproduce the summary",
            code="residual",
            residuals=mismatch,
        )
    return params


def params_statistic(x: np.ndarray, p: np.ndarray, size: int):
    """(r, loss, delta) of one paired resample of the pools ``x`` and ``p``, a statistic of two index sets of
    ``size`` (see stats.resample_values); NaN when the inversion fails.

    Each resample is gathered into one of two buffers made here once and
    summarized in place, so no resample allocates an array of its size.
    """
    gx, gp = np.empty(size), np.empty(size)

    def stat(ix: np.ndarray, ip: np.ndarray) -> list[float]:
        # mode="clip" lets take write straight into out; every index is in range, so none is clipped
        np.take(x, ix, out=gx, mode="clip")
        np.take(p, ip, out=gp, mode="clip")
        try:
            pb = estimate_params(_summarize(gx, gp, gx, gp))
        except (EstimationError, ValueError):
            return [np.nan] * 3
        return [pb.r, pb.loss, pb.delta]

    return stat


def params_from_variances(var_x: float, var_p: float, delta: float) -> StateParams:
    """Invert the two variances to (r, loss) when the diffusion is known.

    Same algebra as estimate_params with u = e^{-2 delta^2} fixed instead of
    inferred from the kurtosis.
    """
    if not (var_x > 0.0 and var_p > var_x):
        raise EstimationError(
            f"need 0 < var_x < var_p, got {var_x!r}, {var_p!r}", code="variance_order"
        )
    return StateParams(*_invert_variances(var_x, var_p, np.exp(-2.0 * delta**2)), float(delta))


def _invert_variances(var_x: float, var_p: float, u: float) -> tuple[float, float]:
    """(r, loss) from the two variances at a known u = e^{-2 delta^2}, via S, D = B u and B."""
    S = 0.5 * (var_x + var_p)
    D = 0.5 * (var_p - var_x)
    if abs(1.0 - S) < _VACUUM_TOL:
        raise EstimationError(
            "summary is vacuum-like (mean variance 1); loss is unidentifiable",
            code="vacuum_degenerate",
        )
    B = D / u
    loss = (1.0 - S**2 + B**2) / (2.0 * (1.0 - S))
    if -1e-12 < loss < 0.0:
        loss = 0.0
    if not 0.0 <= loss < 1.0:
        raise EstimationError(
            f"derived loss {loss:.6g} outside [0, 1); summary is unphysical",
            code="loss_range",
            residuals={"loss": loss},
        )
    return float(0.5 * np.arcsinh(B / (1.0 - loss))), float(loss)


def residuals(params: StateParams, summary: MomentSummary) -> dict:
    """Relative mismatch between the forward model at ``params`` and each summary moment."""
    return {
        "var_x": abs(diffused_variance(params) - summary.var_x) / summary.var_x,
        "var_p": abs(diffused_variance(params, 0.5 * np.pi) - summary.var_p) / summary.var_p,
        "kurt_x": abs(kurtosis_x(params) - summary.kurt_x) / summary.kurt_x,
    }


def squeezing_for_target(var_x: float, loss: float, delta: float) -> float:
    """Squeezing parameter that hits a target squeezing-axis variance at fixed (loss, delta).

    In q = e^{-2r} the variance is quadratic: A q^2 - C q + B = 0 with
    A = (1-loss) (1 + u) / 2, C = var_x - loss and B = (1-loss) (1 - u) / 2,
    u = e^{-2 delta^2}, diffused_variance's own form, finite at any delta. Of
    the roots inside (0, 1] the larger one (least squeezing) is returned.
    """
    if not var_x > 0.0:
        raise ValueError(f"target variance must be positive, got {var_x!r}")
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must lie in [0, 1), got {loss!r}")
    u = np.exp(-2.0 * delta**2)
    a = 0.5 * (1.0 - loss) * (1.0 + u)
    b = 0.5 * (1.0 - loss) * (1.0 - u)
    c = var_x - loss
    disc = c**2 - 4.0 * a * b
    if c <= 0.0 or disc < 0.0:
        raise EstimationError(
            f"variance {var_x:.6g} is unreachable at loss={loss:.6g}, delta={delta:.6g}",
            code="target_unreachable",
        )
    roots = [(c - np.sqrt(disc)) / (2.0 * a), (c + np.sqrt(disc)) / (2.0 * a)]
    feasible = [q for q in roots if 0.0 < q <= 1.0]
    if not feasible:
        raise EstimationError(
            f"variance {var_x:.6g} requires anti-squeezing the measured axis",
            code="target_unreachable",
        )
    return float(-0.5 * np.log(max(feasible)))


def db_from_variance(v: float) -> float:
    """Variance in decibels relative to shot noise."""
    if not v > 0.0:
        raise ValueError(f"variance must be positive, got {v!r}")
    return float(10.0 * np.log10(v))


def variance_from_db(db: float) -> float:
    return float(10.0 ** (db / 10.0))
