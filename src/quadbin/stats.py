"""Bootstrap resampling and violation-degree reports for the two detectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .binning import bin_indices
from .detect import moment_matrix_from_moments, normally_ordered_moments, three_bin_ratio
from .errors import UndefinedStatisticError

__all__ = [
    "BootstrapSpec",
    "BootstrapResult",
    "ViolationReport",
    "resample_indices",
    "resample_values",
    "bootstrap",
    "three_bin_statistic",
    "min_eigenvalue_statistic",
    "violation_bin",
    "violation_moment",
    "compare_methods",
]

SUBSAMPLE = "subsample-from-pool"
REPLACEMENT = "resample-with-replacement"

# A statistic maps one resample per pool to (value or vector of values, degenerate_flag).
Statistic = Callable[..., tuple[float | list[float], bool]]


@dataclass(frozen=True)
class BootstrapSpec:
    """Resampling plan: size per resample, number of resamples, seeding, mode."""

    resample_size: int
    n_resamples: int
    master_seed: int
    mode: str = SUBSAMPLE

    def __post_init__(self):
        if self.resample_size < 1:
            raise ValueError("resample size must be >= 1")
        if self.n_resamples < 2:
            raise ValueError("need at least two resamples")
        if self.mode not in (SUBSAMPLE, REPLACEMENT):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    std: float
    samples: np.ndarray
    n_flagged: int = 0


@dataclass(frozen=True)
class ViolationReport:
    """Statistical significance of one detector's verdict.

    ``v`` is (classical limit - mean) / std with limit 1 for the bin ratio and
    0 for the minimum eigenvalue; positive means detection.
    """

    method: str
    params: dict = field(default_factory=dict)
    mean: float = 0.0
    std: float = 0.0
    v: float = 0.0
    n_flagged: int = 0

    @property
    def detected(self) -> bool:
        return self.v > 0.0

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "params": dict(self.params),
            "mean": self.mean,
            "std": self.std,
            "v": self.v,
            "n_flagged": self.n_flagged,
            "detected": self.detected,
        }


def resample_indices(spec: BootstrapSpec, pool_size: int, b: int, stream: int = 0) -> np.ndarray:
    """Index set of resample ``b``, a pure function of (spec, pool, b, stream).

    Independent of evaluation order, so parallel workers agree with the
    serial loop.
    """
    if spec.mode == SUBSAMPLE and pool_size < spec.resample_size:
        raise ValueError(f"pool of {pool_size} cannot supply {spec.resample_size} without replacement")
    rng = np.random.default_rng([spec.master_seed, stream, b])
    if spec.mode == SUBSAMPLE:
        return rng.choice(pool_size, size=spec.resample_size, replace=False)
    return rng.integers(0, pool_size, size=spec.resample_size)


def resample_values(spec: BootstrapSpec, pools, streams, statistic: Statistic) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``statistic`` on ``n_resamples`` paired resamples of ``pools``.

    A pool is a 1-D array or a Dataset. Resample ``b`` draws one index set per
    pool from that pool's stream and takes those records; the statistic gets
    one resample per pool and returns (value or vector of values, degenerate
    flag). Returns the values as a (k, B) array, one contiguous row per
    component, and the (B,) flags.
    """
    values = None
    flags = np.zeros(spec.n_resamples, dtype=bool)
    for b in range(spec.n_resamples):
        samples = (pool.take(resample_indices(spec, len(pool), b, s)) for pool, s in zip(pools, streams))
        value, flags[b] = statistic(*samples)
        if values is None:
            values = np.empty((np.size(value), spec.n_resamples))
        values[:, b] = value
    return values, flags


def bootstrap(data, spec: BootstrapSpec, statistic: Statistic, stream: int = 0) -> BootstrapResult:
    """Evaluate ``statistic`` on ``n_resamples`` resamples of the dataset.

    Degenerate resamples keep the statistic's pinned value and are counted in
    ``n_flagged``. The spread is the divide-by-B standard deviation of the B
    values, which are the full empirical estimator distribution.
    """
    values, flags = resample_values(spec, [data.x], [stream], statistic)
    return BootstrapResult(float(values[0].mean()), float(values[0].std()), values[0], int(flags.sum()))


def three_bin_statistic(sigma: float, d: int) -> Statistic:
    """Binned ratio statistic at fixed (sigma, d) for use under the bootstrap.

    A resample with an empty centre or side bin is pinned to 0.0 and flagged.
    """

    def stat(x: np.ndarray) -> tuple[float, bool]:
        m = bin_indices(x, sigma)
        c0, cpos, cneg = (int(np.count_nonzero(m == k)) for k in (0, d, -d))
        if c0 == 0 or cpos == 0 or cneg == 0:
            # pinned to the degenerate value; the flag keeps it out of silent use
            return 0.0, True
        return three_bin_ratio(cpos, cneg, c0, sigma, d), False

    return stat


def min_eigenvalue_statistic(*orders: int) -> Statistic:
    """Smallest moment-matrix eigenvalue of each order in ``orders`` as a bootstrap statistic.

    All orders share one moment estimate; the value holds one entry per order.
    """
    j_max = 2 * max(orders) - 2

    def stat(x: np.ndarray) -> tuple[list[float], bool]:
        moms = normally_ordered_moments(x, j_max)
        return [moment_matrix_from_moments(moms, n).lambda_min for n in orders], False

    return stat


def _violation(samples, limit: float, method: str, params: dict, n_flagged: int) -> ViolationReport:
    values = np.asarray(samples, dtype=float)
    mean = float(values.mean())
    std = float(values.std())
    if std == 0.0:
        raise UndefinedStatisticError("statistic spread is zero; violation degree is undefined")
    return ViolationReport(method, params, mean, std, (limit - mean) / std, n_flagged)


def violation_bin(samples, sigma: float | None = None, d: int | None = None, n_flagged: int = 0) -> ViolationReport:
    """Violation degree (1 - mean) / std of binned-ratio samples."""
    params = {k: v for k, v in (("sigma", sigma), ("d", d)) if v is not None}
    return _violation(samples, 1.0, "three-bin", params, n_flagged)


def violation_moment(samples, n: int | None = None, n_flagged: int = 0) -> ViolationReport:
    """Violation degree (0 - mean) / std of minimum-eigenvalue samples."""
    params = {"n": n} if n is not None else {}
    return _violation(samples, 0.0, "moment", params, n_flagged)


def compare_methods(
    data,
    sigma: float,
    d: int,
    moment_orders,
    spec: BootstrapSpec,
    stream: int = 0,
) -> list[ViolationReport]:
    """Paired comparison of the bin test and the moment method on one dataset.

    Every method is evaluated on the identical resample index sets, so the
    violation degrees are directly comparable.
    """
    orders = sorted(set(int(n) for n in moment_orders))
    ratio, eigenvalues = three_bin_statistic(sigma, d), min_eigenvalue_statistic(*orders)

    def stat(x: np.ndarray) -> tuple[list[float], bool]:
        r, bad = ratio(x)
        return [r, *eigenvalues(x)[0]], bad

    values, flags = resample_values(spec, [data.x], [stream], stat)
    reports = [violation_bin(values[0], sigma=sigma, d=d, n_flagged=int(flags.sum()))]
    reports.extend(violation_moment(row, n=n) for n, row in zip(orders, values[1:]))
    return reports
