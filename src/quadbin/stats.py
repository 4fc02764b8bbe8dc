"""Bootstrap resampling and violation-degree reports for the two detectors."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .binning import bin_indices, check_bin_size
from .data import check_seed
from .detect import (
    CLASSICAL_LIMIT,
    check_bin_distance,
    check_moment_order,
    moment_matrix_from_moments,
    normally_ordered_moments,
    three_bin_ratio,
)
from .errors import UndefinedStatisticError

__all__ = [
    "SUBSAMPLE",
    "REPLACEMENT",
    "BootstrapSpec",
    "ViolationReport",
    "resample_indices",
    "resample_values",
    "bootstrap",
    "three_bin_statistic",
    "three_bin_cells",
    "min_eigenvalue_statistic",
    "spread",
    "significant",
    "compare_methods",
]

SUBSAMPLE = "subsample-from-pool"
REPLACEMENT = "resample-with-replacement"

# A statistic maps one 1-D array per pool to a float or a list of floats; NaN marks
# a value the input leaves undefined (an empty bin, a failed inversion). Under
# resample_values the arrays are index sets into the pools, so a statistic can be
# prepared on the pools once (three_bin_cells); one of values gathers first,
# ``lambda i: stat(x[i])``, and on the whole input it gives the point value.
Statistic = Callable[..., float | list[float]]


@dataclass(frozen=True)
class BootstrapSpec:
    """Resampling plan, checked before any pool is known: size per resample (None: ``sized`` sets it), number of
    resamples, seeding, mode."""

    resample_size: int | None
    n_resamples: int
    master_seed: int
    mode: str = SUBSAMPLE

    def __post_init__(self):
        if self.resample_size is not None and self.resample_size < 1:
            raise ValueError("resample size must be >= 1")
        if self.n_resamples < 2:
            raise ValueError("need at least two resamples")
        if self.mode not in (SUBSAMPLE, REPLACEMENT):
            raise ValueError(f"unknown mode {self.mode!r}")
        check_seed(self.master_seed)

    def sized(self, pool: int) -> BootstrapSpec:
        """The plan for ``pool`` records; the default size is the whole pool with replacement, else a quarter (>= 1)."""
        if pool == 0:
            raise UndefinedStatisticError("the input holds no records to resample")
        default = pool if self.mode == REPLACEMENT else max(1, pool // 4)
        return self if self.resample_size is not None else replace(self, resample_size=default)


@dataclass(frozen=True)
class ViolationReport:
    """Statistical significance of one detector's bootstrap, the verdict of every bootstrap row.

    ``of`` takes the B values of one statistic, pins the undefined (NaN) ones
    to 0.0 and counts them in ``n_flagged``. ``v`` is (classical limit - mean)
    / std with the method's limit from ``CLASSICAL_LIMIT``, and None when the
    spread is zero; ``detected`` (a positive ``v``) is the only verdict, so a
    zero-spread row is never one.
    """

    method: str
    params: dict
    mean: float
    std: float
    v: float | None
    n_flagged: int

    @classmethod
    def of(cls, method: str, params: dict, values) -> ViolationReport:
        undefined = np.isnan(values)
        samples = np.where(undefined, 0.0, values)
        mean, std = float(samples.mean()), spread(samples)
        v = (CLASSICAL_LIMIT[method] - mean) / std if std > 0.0 else None
        return cls(method, dict(params), mean, std, v, int(undefined.sum()))

    @property
    def detected(self) -> bool:
        return self.v is not None and self.v > 0.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "detected": self.detected}


def resample_indices(spec: BootstrapSpec, pool_size: int, b: int, stream: int = 0) -> np.ndarray:
    """Index set of resample ``b``, a pure function of (spec, pool, b, stream).

    Independent of evaluation order, so any resample can be rebuilt on its own.
    """
    spec = spec.sized(pool_size)
    if spec.mode == SUBSAMPLE and pool_size < spec.resample_size:
        raise ValueError(f"pool of {pool_size} cannot supply {spec.resample_size} without replacement")
    rng = np.random.default_rng([spec.master_seed, stream, b])
    if spec.mode == SUBSAMPLE:
        return rng.choice(pool_size, size=spec.resample_size, replace=False)
    return rng.integers(0, pool_size, size=spec.resample_size)


def resample_values(spec: BootstrapSpec, sizes, streams, statistic: Statistic) -> np.ndarray:
    """Evaluate ``statistic`` on ``n_resamples`` paired resamples of pools of the given ``sizes``.

    Resample ``b`` draws one index set per pool from that pool's stream, all
    of the size the smallest pool sets (``BootstrapSpec.sized``), and the
    statistic gets those index sets. Returns the values as a (k, B) array, one
    contiguous row per component, NaN entries included.
    """
    spec = spec.sized(min(sizes))
    values = None
    for b in range(spec.n_resamples):
        value = statistic(*(resample_indices(spec, n, b, s) for n, s in zip(sizes, streams)))
        if values is None:
            values = np.empty((np.size(value), spec.n_resamples))
        values[:, b] = value
    return values


def bootstrap(data, spec: BootstrapSpec, statistic: Statistic, method: str, params: dict) -> ViolationReport:
    """The ``method`` report of ``statistic`` on ``n_resamples`` index sets into the dataset's records.

    The B values are the full empirical estimator distribution; undefined
    ones are pinned to 0.0 and counted (see ViolationReport).
    """
    return ViolationReport.of(method, params, resample_values(spec, [data.n], [0], statistic)[0])


def three_bin_statistic(sigma: float, d: int) -> Statistic:
    """Binned ratio of outcome values at fixed (sigma, d): ``three_bin_cells`` on the whole input.

    The library's point-value API. An input with an empty centre or side bin
    has no ratio and gives NaN. Both options are checked when the statistic
    is built.
    """
    check_bin_distance(d)
    check_bin_size(sigma)
    return lambda x: three_bin_cells(x, [sigma], d)(np.arange(len(x)))[0]


def three_bin_cells(x, sigmas, d: int) -> Statistic:
    """Binned ratio at every bin size in ``sigmas``, prepared on the pool ``x``: index sets in, one ratio per size out.

    floor(x / sigma + 1/2) is monotone in x, so at each size the bins -d, 0
    and d are runs of the sorted pool. The sorted pool is cut at every run
    boundary of every size, and each record gets the number of its cell. A
    resample's bin counts are then exact differences of its cumulative cell
    counts, and each ratio is bit for bit that of the per-record count on the
    resampled values (the reference in tests/reference.py), NaN for an empty
    bin included.
    """
    check_bin_distance(d)
    x = np.asarray(x, dtype=float)
    # equal values share every bin, so no cut falls between them and any sort order gives the same cells
    order = np.argsort(x)
    ordered = x[order]
    edges = [-d - 0.5, -d + 0.5, -0.5, 0.5, d - 0.5, d + 0.5]
    # sorted-pool positions where bins -d, 0 and d start and end, one row per size
    bounds = np.array([np.searchsorted(bin_indices(ordered, sigma), edges) for sigma in sigmas]).reshape(-1, 6)
    cuts = np.unique(bounds)
    cell = np.empty(x.size, dtype=np.intp)
    cell[order] = np.searchsorted(cuts, np.arange(x.size), side="right")
    # a record sits before cut j exactly when its cell is at most j
    at = np.searchsorted(cuts, bounds)

    def stat(idx: np.ndarray) -> list[float]:
        before = np.cumsum(np.bincount(cell[idx], minlength=cuts.size + 1))[at]
        counts = (before[:, 1::2] - before[:, ::2]).tolist()
        return [
            three_bin_ratio(cpos, cneg, c0, sigma, d) if cneg and c0 and cpos else np.nan
            for sigma, (cneg, c0, cpos) in zip(sigmas, counts)
        ]

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
        return [moment_matrix_from_moments(moms, n) for n in orders]

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
    ratio, eigenvalues = three_bin_cells(data.x, [sigma], d), min_eigenvalue_statistic(*orders)
    values = resample_values(spec, [data.n], [0], lambda i: [*ratio(i), *eigenvalues(data.x[i])])
    rows = [("three-bin", {"sigma": sigma, "d": d})] + [("moment", {"n": n}) for n in orders]
    return significant([ViolationReport.of(m, p, v) for (m, p), v in zip(rows, values)])
