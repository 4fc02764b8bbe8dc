"""Coarse graining of quadrature outcomes into integer-indexed bins."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BinnedHistogram", "bin_indices", "histogram"]


def bin_indices(x, sigma: float) -> np.ndarray:
    """Integer bin index for each outcome: bin m covers [(m-1/2) sigma, (m+1/2) sigma).

    The left edge belongs to the bin, the right edge to the next one.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"bin size must be positive and finite, got {sigma!r}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("outcomes must be finite")
    return np.floor(xa / sigma + 0.5).astype(np.int64)


@dataclass(frozen=True)
class BinnedHistogram:
    """Sparse count histogram with bin size ``sigma``.

    ``counts`` maps nonzero bin indices to counts; ``total`` is the number of
    binned outcomes.
    """

    sigma: float
    counts: dict[int, int] = field(default_factory=dict)
    total: int = 0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"bin size must be positive, got {self.sigma!r}")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to the stated total")

    def count(self, m: int) -> int:
        return self.counts.get(int(m), 0)


def histogram(x, sigma: float) -> BinnedHistogram:
    """Histogram the outcomes ``x`` with bin size ``sigma``."""
    xa = np.asarray(x, dtype=float)
    if xa.size == 0:
        return BinnedHistogram(sigma, {}, 0)
    ms, cs = np.unique(bin_indices(xa, sigma), return_counts=True)
    return BinnedHistogram(sigma, {int(m): int(c) for m, c in zip(ms, cs)}, int(xa.size))

