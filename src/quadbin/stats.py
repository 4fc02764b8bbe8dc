"""Bootstrap resampling and violation-degree reports for the two detectors."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .binning import bin_indices
from .detect import (
    CLASSICAL_LIMIT,
    check_moment_order,
    moment_matrix_from_moments,
    normally_ordered_moments,
    three_bin_ratio,
)
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
    "spread",
    "significant",
    "compare_methods",
]

SUBSAMPLE = "subsample-from-pool"
REPLACEMENT = "resample-with-replacement"

# A statistic maps one 1-D float array per pool to a float or a list of floats;
# NaN marks a value the resample leaves undefined (an empty bin, a failed inversion).
Statistic = Callable[..., float | list[float]]


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
    """The B values of one statistic, undefined ones pinned to 0.0 and counted in ``n_flagged``."""

    samples: np.ndarray
    n_flagged: int = 0

    @classmethod
    def of(cls, values) -> BootstrapResult:
        undefined = np.isnan(values)
        return cls(np.where(undefined, 0.0, values), int(undefined.sum()))

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        return spread(self.samples)


@dataclass(frozen=True)
class ViolationReport:
    """Statistical significance of one detector's bootstrap, the verdict of every bootstrap row.

    ``v`` is (classical limit - mean) / std with the method's limit from
    ``CLASSICAL_LIMIT``, and None when the spread is zero; ``detected`` (a
    positive ``v``) is the only verdict, so a zero-spread row is never one.
    """

    method: str
    params: dict
    mean: float
    std: float
    v: float | None
    n_flagged: int

    @classmethod
    def of(cls, method: str, params: dict, boot: BootstrapResult) -> ViolationReport:
        mean, std = boot.mean, boot.std
        v = (CLASSICAL_LIMIT[method] - mean) / std if std > 0.0 else None
        return cls(method, dict(params), mean, std, v, boot.n_flagged)

    @property
    def detected(self) -> bool:
        return self.v is not None and self.v > 0.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "detected": self.detected}


def resample_indices(spec: BootstrapSpec, pool_size: int, b: int, stream: int = 0) -> np.ndarray:
    """Index set of resample ``b``, a pure function of (spec, pool, b, stream).

    Independent of evaluation order, so any resample can be rebuilt on its own.
    """
    if spec.mode == SUBSAMPLE and pool_size < spec.resample_size:
        raise ValueError(f"pool of {pool_size} cannot supply {spec.resample_size} without replacement")
    rng = np.random.default_rng([spec.master_seed, stream, b])
    if spec.mode == SUBSAMPLE:
        return rng.choice(pool_size, size=spec.resample_size, replace=False)
    return rng.integers(0, pool_size, size=spec.resample_size)


def resample_values(spec: BootstrapSpec, pools, streams, statistic: Statistic) -> np.ndarray:
    """Evaluate ``statistic`` on ``n_resamples`` paired resamples of the 1-D arrays ``pools``.

    Resample ``b`` draws one index set per pool from that pool's stream; the
    statistic gets one resampled array per pool. Returns the values as a
    (k, B) array, one contiguous row per component, NaN entries included.
    """
    values = None
    for b in range(spec.n_resamples):
        value = statistic(*(pool[resample_indices(spec, len(pool), b, s)] for pool, s in zip(pools, streams)))
        if values is None:
            values = np.empty((np.size(value), spec.n_resamples))
        values[:, b] = value
    return values


def bootstrap(data, spec: BootstrapSpec, statistic: Statistic) -> BootstrapResult:
    """Evaluate ``statistic`` on ``n_resamples`` resamples of the dataset's outcomes.

    The B values are the full empirical estimator distribution; undefined
    ones are pinned to 0.0 and counted (see BootstrapResult).
    """
    return BootstrapResult.of(resample_values(spec, [data.x], [0], statistic)[0])


def three_bin_statistic(sigma: float, d: int) -> Statistic:
    """Binned ratio statistic at fixed (sigma, d): the point value on the whole input and each resample's value.

    An input with an empty centre or side bin has no ratio and gives NaN.
    """
    if d < 1:
        raise ValueError(f"bin distance must be a positive integer, got {d!r}")

    def stat(x: np.ndarray) -> float:
        m = bin_indices(x, sigma)
        c0, cpos, cneg = (int(np.count_nonzero(m == k)) for k in (0, d, -d))
        if c0 == 0 or cpos == 0 or cneg == 0:
            return np.nan
        return three_bin_ratio(cpos, cneg, c0, sigma, d)

    return stat


def min_eigenvalue_statistic(*orders: int) -> Statistic:
    """Smallest moment-matrix eigenvalue of each order in ``orders`` as a bootstrap statistic.

    All orders share one moment estimate; the value holds one entry per order.
    Every order is checked here, before any resample is drawn.
    """
    if not orders:
        raise ValueError("need at least one moment order")
    for n in orders:
        check_moment_order(n)
    j_max = 2 * max(orders) - 2

    def stat(x: np.ndarray) -> list[float]:
        moms = normally_ordered_moments(x, j_max)
        return [moment_matrix_from_moments(moms, n).lambda_min for n in orders]

    return stat


def spread(samples) -> float:
    """Divide-by-B standard deviation of the samples; exactly 0.0 when they differ only by rounding.

    np.std of equal values rounds to a few ulps (4.4e-16 for 100 copies of
    1.0833), and reorderings of one pool (whole-pool resamples) round one
    estimate up to about 8 ulps apart. A range within 64 ulps of the largest
    sample is read as no spread; sampling spreads are many orders above it.
    """
    s = np.asarray(samples, dtype=float)
    return 0.0 if np.ptp(s) <= 64 * np.finfo(float).eps * np.abs(s).max() else float(np.std(s))


def significant(reports: list[ViolationReport]) -> list[ViolationReport]:
    """The reports unchanged, once every one has a violation degree."""
    if any(rep.v is None for rep in reports):
        raise UndefinedStatisticError("statistic spread is zero; violation degree is undefined")
    return reports


def compare_methods(data, sigma: float, d: int, moment_orders, spec: BootstrapSpec) -> list[ViolationReport]:
    """Paired comparison of the bin test and the moment method on one dataset.

    Every method is evaluated on the identical resample index sets, so the
    violation degrees are directly comparable.
    """
    orders = sorted(set(int(n) for n in moment_orders))
    ratio, eigenvalues = three_bin_statistic(sigma, d), min_eigenvalue_statistic(*orders)
    values = resample_values(spec, [data.x], [0], lambda x: [ratio(x), *eigenvalues(x)])
    rows = [("three-bin", {"sigma": sigma, "d": d})] + [("moment", {"n": n}) for n in orders]
    return significant([ViolationReport.of(m, p, BootstrapResult.of(v)) for (m, p), v in zip(rows, values)])
