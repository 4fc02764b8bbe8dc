"""Coarse graining of quadrature outcomes into integer-indexed bins."""

from __future__ import annotations

import numpy as np

__all__ = ["bin_indices", "histogram"]


def bin_indices(x, sigma: float) -> np.ndarray:
    """Integer-valued float bin index for each outcome: bin m covers [(m-1/2) sigma, (m+1/2) sigma).

    The left edge belongs to the bin, the right edge to the next one. Indices
    are exact integers up to 2**53, and a far outcome keeps a far bin of its own.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"bin size must be positive and finite, got {sigma!r}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("outcomes must be finite")
    return np.floor(xa / sigma + 0.5)


def histogram(x, sigma: float) -> dict[int, int]:
    """Count of the outcomes ``x`` in each occupied bin of size ``sigma``, keyed by bin index."""
    ms, cs = np.unique(bin_indices(x, sigma), return_counts=True)
    return {int(m): int(c) for m, c in zip(ms, cs)}
