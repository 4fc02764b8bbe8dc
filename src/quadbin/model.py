"""Analytic quadrature statistics of a squeezed vacuum under loss and phase diffusion.

Everything is expressed in shot-noise units, fixed by the commutator
convention [x, p] = 2i: the vacuum quadrature variance equals 1. The state
is an x-squeezed vacuum (squeezing parameter ``r``) degraded by beam-splitter
loss of reflectance ``loss`` and by a Gaussian spread of the quadrature angle
with standard deviation ``delta`` (radians). A quadrature is named by its
angle in radians, 0 for x and pi/2 for p; its distribution is the zero-mean
Gaussian mixture obtained by averaging the rotated variance over the angle
spread, which has closed-form second and fourth moments and is evaluated
pointwise by Gauss-Hermite quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .binning import check_bin_size

__all__ = [
    "StateParams",
    "check_angle",
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


def check_angle(angle: float) -> float:
    """``angle`` unchanged once it is a usable measurement angle; ValueError otherwise."""
    if not np.isfinite(angle):
        raise ValueError(f"measurement angle must be finite, got {angle!r}")
    return angle


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


def diffused_variance(params: StateParams, angle: float = 0.0) -> float:
    """Variance of the quadrature at ``angle`` after averaging over the Gaussian angle spread.

    Closed form: loss + (1-loss) (e^{-2r} (1 + c u) + e^{2r} (1 - c u)) / 2
    with c = cos(2 angle) and u = e^{-2 delta^2}, which stays finite at any
    delta; c is exactly 1 at angle 0 and exactly -1 at pi/2.
    """
    cu = np.cos(2.0 * angle) * np.exp(-2.0 * params.delta**2)
    mix = 0.5 * (np.exp(-2.0 * params.r) * (1.0 + cu) + np.exp(2.0 * params.r) * (1.0 - cu))
    return float(params.loss + (1.0 - params.loss) * mix)


def kurtosis_x(params: StateParams) -> float:
    """Kurtosis of the squeezing-axis quadrature; 3 for the undiffused (Gaussian) state.

    The angle average is a Gaussian scale mixture, so the excess over 3 is
    set by the spread of the rotated variance:
    6 (1-loss)^2 e^{-4 delta^2} sinh^2(2 delta^2) sinh^2(2r) / var_x^2,
    evaluated as (3/2) (1-loss)^2 (1 - e^{-4 delta^2})^2 sinh^2(2r) / var_x^2.
    """
    vx = diffused_variance(params)
    w = -np.expm1(-4.0 * params.delta**2)
    excess = 1.5 * (1.0 - params.loss) ** 2 * w**2 * np.sinh(2.0 * params.r) ** 2 / vx**2
    return float(3.0 + excess)


@lru_cache(maxsize=1)
def _gh_nodes():
    t, w = hermgauss(GH_ORDER)
    return t, w / np.sqrt(np.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x):
    # Standard-normal CDF 0.5 erfc(-x / sqrt 2), with the argument rounded as scipy's ndtr
    # rounds it (x times sqrt 1/2), elementwise through math.erfc; with the sampler's ndtri
    # port (data), no process pays scipy.special's 0.3 s import. From about -38.4 to -37.7
    # it gives subnormals where ndtr gives 0.
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) * -np.sqrt(0.5)), dtype=float)


def _interval_mass(lo, hi):
    # Standard-normal mass of [lo, hi), evaluated from the nearer tail so the
    # difference never cancels catastrophically.
    upper = lo >= 0.0
    return _ndtr(np.where(upper, -lo, hi)) - _ndtr(np.where(upper, -hi, lo))


@dataclass(frozen=True)
class QuadratureDistribution:
    """Marginal distribution of one quadrature of the diffused lossy squeezed state.

    ``angle`` is the nominal measurement angle in radians: 0 is the squeezing
    axis, pi/2 the anti-squeezing axis. The density is even, strictly positive
    and normalized; with ``delta = 0`` it collapses to a single Gaussian.
    """

    params: StateParams
    angle: float = 0.0

    def __post_init__(self):
        check_angle(self.angle)

    def _node_variances(self):
        """Mixture component variances and weights for the angle average."""
        if self.params.delta < _DELTA_FLOOR:
            return np.array([rotated_variance(self.params, self.angle)]), np.array([1.0])
        t, w = _gh_nodes()
        theta = np.sqrt(2.0) * self.params.delta * t + self.angle
        return rotated_variance(self.params, theta), w

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
        out = _ndtr(xa[..., None] / np.sqrt(v)) @ w
        return out if xa.ndim else float(out)

    def bin_probabilities(self, sigma: float, m) -> np.ndarray:
        """Probability mass of the width-``sigma`` bins with integer indices ``m``.

        Bin ``m`` covers [(m - 1/2) sigma, (m + 1/2) sigma). The masses are
        even in ``m`` and sum to 1 over all indices.
        """
        check_bin_size(sigma)
        v, w = self._node_variances()
        ma = np.asarray(m, dtype=float)
        scale = sigma / np.sqrt(v)
        lo = (ma[..., None] - 0.5) * scale
        hi = (ma[..., None] + 0.5) * scale
        return _interval_mass(lo, hi) @ w
