"""The binned ratio counted record by record: the reference the count cells are tested against bit for bit."""

import numpy as np

from quadbin.binning import bin_indices
from quadbin.detect import three_bin_ratio


def per_record_ratio(x, sigma: float, d: int) -> float:
    """Binned ratio of the outcomes ``x`` at (sigma, d), each bin counted record by record; NaN for an empty bin."""
    m = bin_indices(x, sigma)
    c0, cpos, cneg = (int(np.count_nonzero(m == k)) for k in (0, d, -d))
    if c0 == 0 or cpos == 0 or cneg == 0:
        return np.nan
    return three_bin_ratio(cpos, cneg, c0, sigma, d)
