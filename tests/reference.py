"""Record-by-record and one-string forms of fast paths, the references those paths are tested against bit for bit."""

import json
from pathlib import Path

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


def one_string_write_csv(data, path) -> None:
    """write_csv as one joined string, the form before the block writer: the CSV and its sidecar it must match."""
    path = Path(path)
    lines = ["theta,x"]
    lines.extend(f"{float(t)!r},{float(v)!r}" for t, v in zip(data.theta, data.x))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path.with_suffix(".meta.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dict(data.meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
