"""Analytic quadrature statistics of a squeezed vacuum under loss and phase diffusion.

Everything is expressed in shot-noise units, fixed by the commutator
convention [x, p] = 2i: the vacuum quadrature variance equals 1. The state
is an x-squeezed vacuum (squeezing parameter ``r``) degraded by beam-splitter
loss of reflectance ``loss`` and by a Gaussian spread of the quadrature angle
with standard deviation ``delta`` (radians). Its single-quadrature
distribution is the zero-mean Gaussian mixture obtained by averaging the
rotated variance over that angle spread, which has closed-form second and
fourth moments and is evaluated pointwise by Gauss-Hermite quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import ndtr

__all__ = [
    "StateParams",
    "QuadratureDistribution",
    "rotated_variance",
    "diffused_variance",
    "kurtosis_x",
]

# Gauss-Hermite order for angle averages. The integrands are entire in the
# angle, so convergence is spectral; 96 nodes sits far past the accuracy floor.
GH_ORDER = 96

# Below this spread the angle average collapses to the theta = 0 slice.
_DELTA_FLOOR = 1e-12

_AXIS_OFFSET = {"x": 0.0, "p": 0.5 * np.pi}


@dataclass(frozen=True)
class StateParams:
    """Physical triple (squeezing, optical loss, phase-diffusion spread).

    ``r >= 0`` is the pure-state squeezing parameter (quadrature variances
    e^{-2r} and e^{+2r} before degradation), ``loss`` is the reflectance of
    the loss beam splitter in [0, 1], and ``delta`` is the standard deviation
    of the Gaussian angle spread in radians. ``loss = 1`` reduces every
    predicted statistic to vacuum (variance 1, kurtosis 3).
    """

    r: float
    loss: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"squeezing parameter must be finite and >= 0, got {self.r!r}")
        if not (np.isfinite(self.loss) and 0.0 <= self.loss <= 1.0):
            raise ValueError(f"loss must lie in [0, 1], got {self.loss!r}")
        if not (np.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"phase diffusion must be finite and >= 0, got {self.delta!r}")


def rotated_variance(params: StateParams, theta):
    """Variance of the quadrature at angle ``theta`` for the lossy squeezed state.

    loss + (1 - loss) * (e^{-2r} cos^2(theta) + e^{2r} sin^2(theta)); this is
    pi-periodic and even in ``theta`` and does not include the angle spread.
    Accepts scalar or array ``theta``.
    """
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    v = params.loss + (1.0 - params.loss) * (np.exp(-2.0 * params.r) * c2 + np.exp(2.0 * params.r) * s2)
    return v if np.ndim(theta) else float(v)


def diffused_variance(params: StateParams, axis: str = "x") -> float:
    """Quadrature variance after averaging over the Gaussian angle spread.

    Closed form: loss + (1-loss) e^{-delta^2} (e^{-2r} cosh(delta^2)
    + e^{+2r} sinh(delta^2)) on the squeezing axis; the two exponentials swap
    on the anti-squeezing axis. Evaluated through u = e^{-2 delta^2}
    (e^{-d^2} cosh d^2 = (1+u)/2 and so on), which stays finite at any delta.
    """
    u = np.exp(-2.0 * params.delta**2)
    if axis == "x":
        mix = 0.5 * (np.exp(-2.0 * params.r) * (1.0 + u) + np.exp(2.0 * params.r) * (1.0 - u))
    elif axis == "p":
        mix = 0.5 * (np.exp(2.0 * params.r) * (1.0 + u) + np.exp(-2.0 * params.r) * (1.0 - u))
    else:
        raise ValueError(f"axis must be 'x' or 'p', got {axis!r}")
    return float(params.loss + (1.0 - params.loss) * mix)


def kurtosis_x(params: StateParams) -> float:
    """Kurtosis of the squeezing-axis quadrature; 3 for the undiffused (Gaussian) state.

    The angle average is a Gaussian scale mixture, so the excess over 3 is
    set by the spread of the rotated variance:
    6 (1-loss)^2 e^{-4 delta^2} sinh^2(2 delta^2) sinh^2(2r) / var_x^2,
    evaluated as (3/2) (1-loss)^2 (1 - e^{-4 delta^2})^2 sinh^2(2r) / var_x^2.
    """
    vx = diffused_variance(params, "x")
    w = -np.expm1(-4.0 * params.delta**2)
    excess = 1.5 * (1.0 - params.loss) ** 2 * w**2 * np.sinh(2.0 * params.r) ** 2 / vx**2
    return float(3.0 + excess)


@lru_cache(maxsize=8)
def _gh_nodes(order: int = GH_ORDER):
    t, w = hermgauss(order)
    return t, w / np.sqrt(np.pi)


def _interval_mass(lo, hi):
    # Standard-normal mass of [lo, hi), evaluated from the nearer tail so the
    # difference never cancels catastrophically.
    return np.where(lo >= 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


@dataclass(frozen=True)
class QuadratureDistribution:
    """Marginal distribution of one quadrature of the diffused lossy squeezed state.

    ``axis`` picks the nominal measurement angle: "x" (angle 0, squeezing
    axis) or "p" (angle pi/2). The density is even, strictly positive and
    normalized; with ``delta = 0`` it collapses to a single Gaussian.
    """

    params: StateParams
    axis: str = "x"

    def __post_init__(self):
        if self.axis not in _AXIS_OFFSET:
            raise ValueError(f"axis must be 'x' or 'p', got {self.axis!r}")

    def _node_variances(self):
        """Mixture component variances and weights for the angle average."""
        offset = _AXIS_OFFSET[self.axis]
        if self.params.delta < _DELTA_FLOOR:
            return np.array([rotated_variance(self.params, offset)]), np.array([1.0])
        t, w = _gh_nodes()
        theta = np.sqrt(2.0) * self.params.delta * t + offset
        return rotated_variance(self.params, theta), w

    def variance(self) -> float:
        return diffused_variance(self.params, self.axis)

    def pdf(self, x):
        """Probability density at ``x`` (scalar or array)."""
        v, w = self._node_variances()
        xa = np.asarray(x, dtype=float)
        dens = np.exp(-0.5 * xa[..., None] ** 2 / v) / np.sqrt(2.0 * np.pi * v)
        out = dens @ w
        return out if xa.ndim else float(out)

    def cdf(self, x):
        """Cumulative distribution at ``x`` (scalar or array)."""
        v, w = self._node_variances()
        xa = np.asarray(x, dtype=float)
        out = ndtr(xa[..., None] / np.sqrt(v)) @ w
        return out if xa.ndim else float(out)

    def bin_probabilities(self, sigma: float, m) -> np.ndarray:
        """Probability mass of the width-``sigma`` bins with integer indices ``m``.

        Bin ``m`` covers [(m - 1/2) sigma, (m + 1/2) sigma). The masses are
        even in ``m`` and sum to 1 over all indices.
        """
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"bin size must be positive and finite, got {sigma!r}")
        v, w = self._node_variances()
        ma = np.asarray(m, dtype=float)
        scale = sigma / np.sqrt(v)
        lo = (ma[..., None] - 0.5) * scale
        hi = (ma[..., None] + 0.5) * scale
        return _interval_mass(lo, hi) @ w
