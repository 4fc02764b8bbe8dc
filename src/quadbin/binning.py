"""Coarse graining of quadrature outcomes into integer-indexed bins."""

from __future__ import annotations

import numpy as np

__all__ = ["check_bin_size", "bin_indices", "histogram"]


def check_bin_size(sigma: float) -> float:
    """``sigma`` unchanged once it is a usable bin size; ValueError otherwise."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"bin size must be positive and finite, got {sigma!r}")
    return sigma


def bin_indices(x, sigma: float) -> np.ndarray:
    """Integer-valued float bin index for each outcome: bin m covers [(m-1/2) sigma, (m+1/2) sigma).

    The left edge belongs to the bin, the right edge to the next one. Indices
    are exact integers up to 2**53, and a far outcome keeps a far bin of its own.
    """
    check_bin_size(sigma)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("outcomes must be finite")
    return np.floor(xa / sigma + 0.5)


def histogram(x, sigma: float) -> dict[int, int]:
    """Count of the outcomes ``x`` in each occupied bin of size ``sigma``, keyed by bin index.

    A bin index that overflows float64 (x / sigma beyond about 1.8e308) has no integer key; ValueError.
    """
    ms, cs = np.unique(bin_indices(x, sigma), return_counts=True)
    overflow = ms[~np.isfinite(ms)]
    if overflow.size:
        raise ValueError(f"bin index of an outcome overflows to {float(overflow[0])!r} at bin size {sigma!r}")
    return {int(m): int(c) for m, c in zip(ms, cs)}
