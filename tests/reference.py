"""Earlier forms of rewritten paths, the references those paths are tested against bit for bit.

Each is the path's record-by-record, one-string, one-expression or named-axis form.
"""

import json
from pathlib import Path

import numpy as np

from quadbin.binning import bin_indices
from quadbin.data import _rng, _standard_normal
from quadbin.detect import three_bin_ratio
from quadbin.model import _DELTA_FLOOR, _gh_nodes, _interval_mass, rotated_variance


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


def one_expression_sample(params, n: int, seed: int, phase_window: float = 0.0, center: float = 0.0):
    """sample_dataset's (theta, x) with one whole-array expression per step, the form before the in-place sampler."""
    rng = _rng(seed)
    scan = rng.uniform(-phase_window, phase_window, n) if phase_window > 0.0 else np.zeros(n)
    phi = params.delta * _standard_normal(rng, n) if params.delta > 0.0 else np.zeros(n)
    angle = center + scan + phi
    x = np.sqrt(rotated_variance(params, angle)) * _standard_normal(rng, n)
    theta = center + scan if phase_window > 0.0 else center + phi
    return theta, x


def one_expression_inject(theta, delta_e: float, seed: int):
    """inject_phase_noise's new theta column as one expression, the form before it worked in place."""
    return theta + delta_e * _standard_normal(_rng(seed), len(theta))


def one_expression_blocks(mat: np.ndarray):
    """fock._transposed_blocks with one whole-array expression per block, the form before the in-place gather."""
    nc = mat.shape[0] - 1
    width = 2 * nc + 1
    n = np.arange(nc + 1)
    fact = np.cumprod(np.r_[1.0, np.arange(1.0, nc + 1)])
    h = np.sqrt(fact / 2.0 ** n)
    s = np.zeros((width, width), mat.dtype)
    s[: nc + 1, : nc + 1] = mat * np.outer(h, h)
    s = s.ravel()
    exchange = np.isrealobj(mat) and np.array_equal(mat, mat.T)
    if exchange:
        # pairs a < b first, then a = b, so each antisymmetric block is the leading square of its gather
        a, b = np.triu_indices(nc + 1, 1)
        a, b = np.r_[a, n], np.r_[b, n]
    else:
        a, b = np.divmod(np.arange((nc + 1) ** 2), nc + 1)
    u = 1.0 / np.sqrt(fact)
    # the parity classes of a + b decouple when nothing connects them: no odd coherence
    split = not mat[(n[:, None] - n[None, :]) % 2 == 1].any()
    for cls in [(a + b) % 2 == p for p in (0, 1)] if split else [slice(None)]:
        ca, cb = a[cls], b[cls]
        # the flat index of S[a + b', a' + b] is a sum of one term per row and one per column
        row = ca * width + cb
        uu = u[ca] * u[cb]
        diag = ((ca == cb) & exchange).astype(float)
        # exp2 gives the two diagonal-pair factors as exactly 1/2, which sqrt(1/2) squared is not
        scale = np.outer(uu, uu) * np.exp2(-0.5 * (diag[:, None] + diag[None, :]))
        g = s[row[:, None] + (cb * width + ca)[None, :]] * scale
        if not exchange:
            yield g
            continue
        swapped = s[row[:, None] + row[None, :]] * scale
        m = np.count_nonzero(ca != cb)
        yield g + swapped
        yield g[:m, :m] - swapped[:m, :m]


def axis_diffused_variance(params, axis: str) -> float:
    """diffused_variance with its axis named "x" or "p", one branch per axis, the form before it took an angle."""
    u = np.exp(-2.0 * params.delta**2)
    if axis == "x":
        mix = 0.5 * (np.exp(-2.0 * params.r) * (1.0 + u) + np.exp(2.0 * params.r) * (1.0 - u))
    else:
        mix = 0.5 * (np.exp(2.0 * params.r) * (1.0 + u) + np.exp(-2.0 * params.r) * (1.0 - u))
    return float(params.loss + (1.0 - params.loss) * mix)


def axis_bin_probabilities(params, axis: str, sigma: float, m) -> np.ndarray:
    """QuadratureDistribution.bin_probabilities with its nodes shifted by the named axis's offset, the form before it
    took an angle."""
    offset = {"x": 0.0, "p": 0.5 * np.pi}[axis]
    if params.delta < _DELTA_FLOOR:
        v, w = np.array([rotated_variance(params, offset)]), np.array([1.0])
    else:
        t, w = _gh_nodes()
        v = rotated_variance(params, np.sqrt(2.0) * params.delta * t + offset)
    scale = sigma / np.sqrt(v)
    ma = np.asarray(m, dtype=float)
    return _interval_mass((ma[..., None] - 0.5) * scale, (ma[..., None] + 0.5) * scale) @ w


def axis_quadrature_variance(state, axis: str) -> float:
    """fock.quadrature_variance with its axis named "x" or "p", one branch per axis, the form before it took an
    angle."""
    mat = state.mat
    n = np.arange(state.cutoff + 1)
    mean_n = float(np.sum(np.diag(mat).real * n))
    a1 = complex(np.sum(np.sqrt(n[1:]) * np.diag(mat, k=-1)))
    a2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * np.diag(mat, k=-2)))
    if axis == "x":
        mean = 2.0 * a1.real
        second = 2.0 * a2.real + 2.0 * mean_n + 1.0
    else:
        mean = 2.0 * a1.imag
        second = -2.0 * a2.real + 2.0 * mean_n + 1.0
    return float(second - mean**2)
