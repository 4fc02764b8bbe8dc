"""Homodyne measurement records: simulation, phase-noise injection, selection, CSV I/O.

A dataset is an ordered list of (theta, x) pairs: the recorded local-oscillator
phase in radians and the quadrature outcome in shot-noise units. Datasets are
immutable; every transform returns a new one and chains provenance metadata.

Simulation comes in two flavours, controlled by ``phase_window``:

* ``phase_window = 0`` (default): every record is taken at the nominal
  measurement phase ``center``. The recorded theta is ``center`` plus that
  record's diffusion angle, so the theta column directly exposes the angle
  spread and the x column realizes the diffused quadrature ensemble.
* ``phase_window = W > 0``: the local oscillator is scanned uniformly over
  ``center  +/- W`` and only the scan phase is recorded; the diffusion angle
  stays hidden inside the outcome. This mimics a phase-scanned acquisition,
  where window selection (and noise injection followed by re-selection)
  reshapes the effective angle spread of the surviving records exactly as in
  a real measurement chain.

All randomness is drawn from seeded PCG64 streams through the inverse normal
CDF, so any operation is a pure function of (inputs, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import CsvFormatError
from .model import StateParams, rotated_variance

__all__ = [
    "Dataset",
    "check_seed",
    "check_phase_window",
    "sample_dataset",
    "check_injected_spread",
    "inject_phase_noise",
    "check_selection_window",
    "select_phase_window",
    "read_csv",
    "write_csv",
    "simulation_params",
]


RNG_TAG = "pcg64/inverse-cdf"

CSV_HEADER = "theta,x"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable ordered collection of (theta, x) records plus provenance metadata."""

    theta: np.ndarray
    x: np.ndarray
    meta: Mapping | None = None

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        x = np.array(self.x, dtype=float)
        if theta.ndim != 1 or x.ndim != 1 or theta.shape != x.shape:
            raise ValueError("theta and x must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(x))):
            raise ValueError("records must be finite")
        theta.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta or {})))

    @property
    def n(self) -> int:
        return self.x.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.theta, other.theta)
            and np.array_equal(self.x, other.x)
            and dict(self.meta) == dict(other.meta)
        )


def check_seed(seed: int) -> int:
    """``seed`` unchanged once it is a usable master seed; ValueError otherwise."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([check_seed(seed)])


def _standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    from scipy.special import ndtri  # imported here: scipy.special costs every other CLI process 0.3 s

    # inverse-CDF transform of uniforms; clip away u = 0 so it stays finite
    u = np.clip(rng.random(size), 2.0**-53, None)
    return ndtri(u)


def check_phase_window(phase_window: float) -> float:
    """``phase_window`` unchanged once it is a usable scan half-width; ValueError otherwise."""
    if phase_window < 0.0:
        raise ValueError(f"phase window must be >= 0, got {phase_window!r}")
    if not np.isfinite(phase_window):
        raise ValueError(f"phase window must be finite, got {phase_window!r}")
    return phase_window


def sample_dataset(
    params: StateParams,
    n: int,
    seed: int,
    phase_window: float = 0.0,
    center: float = 0.0,
) -> Dataset:
    """Draw ``n`` homodyne records from the forward model.

    Each record draws a diffusion angle phi ~ N(0, delta^2) and, in scan mode,
    a scan offset u ~ U(-phase_window, phase_window); the outcome is a normal
    deviate with variance rotated_variance(params, center + u + phi). See the
    module docstring for what lands in the theta column in each mode.
    """
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n!r}")
    check_phase_window(phase_window)
    rng = _rng(seed)
    scan = rng.uniform(-phase_window, phase_window, n) if phase_window > 0.0 else np.zeros(n)
    phi = params.delta * _standard_normal(rng, n) if params.delta > 0.0 else np.zeros(n)
    angle = center + scan + phi
    x = np.sqrt(rotated_variance(params, angle)) * _standard_normal(rng, n)
    theta = center + scan if phase_window > 0.0 else center + phi
    meta = {
        "source": "simulated",
        "r": params.r,
        "loss": params.loss,
        "delta": params.delta,
        "n": int(n),
        "seed": int(seed),
        "center": float(center),
        "phase_window": float(phase_window),
        "rng": RNG_TAG,
    }
    return Dataset(theta, x, meta)


def check_injected_spread(delta_e: float) -> float:
    """``delta_e`` unchanged once it is a usable phase-noise spread; ValueError otherwise."""
    if delta_e < 0.0:
        raise ValueError(f"injected spread must be >= 0, got {delta_e!r}")
    if not np.isfinite(delta_e):
        raise ValueError(f"injected spread must be finite, got {delta_e!r}")
    return delta_e


def inject_phase_noise(data: Dataset, delta_e: float, seed: int) -> Dataset:
    """Add independent N(0, delta_e^2) noise to every recorded phase.

    Outcomes are untouched. ``delta_e = 0`` returns the input unchanged. A
    spread so large that a noisy phase overflows float64 is a ValueError.
    """
    check_injected_spread(delta_e)
    rng = _rng(seed)
    if delta_e == 0.0:
        return data
    with np.errstate(over="ignore"):
        theta = data.theta + delta_e * _standard_normal(rng, data.n)
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"injected spread {delta_e!r} makes a recorded phase overflow to a non-finite value")
    meta = {
        "source": "derived",
        "operation": "inject_phase_noise",
        "delta_e": float(delta_e),
        "seed": int(seed),
        "rng": RNG_TAG,
        "parent": dict(data.meta),
    }
    return Dataset(theta, data.x, meta)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    # map to (-pi, pi]
    return np.pi - np.mod(np.pi - a, 2.0 * np.pi)


def check_selection_window(center: float, half_width: float) -> None:
    """Nothing once (``center``, ``half_width``) is a usable phase window; ValueError otherwise."""
    if not half_width > 0.0:
        raise ValueError(f"window half-width must be positive, got {half_width!r}")
    if not (np.isfinite(center) and np.isfinite(half_width)):
        raise ValueError(f"window center and half-width must be finite, got {center!r} and {half_width!r}")


def select_phase_window(data: Dataset, center: float, half_width: float) -> Dataset:
    """Keep records whose wrapped phase lies strictly within ``half_width`` of ``center``.

    Order is preserved. An empty result is allowed and flagged in the metadata.
    """
    check_selection_window(center, half_width)
    keep = np.abs(_wrap_angle(data.theta - center)) < half_width
    meta = {
        "source": "derived",
        "operation": "select_phase_window",
        "center": float(center),
        "half_width": float(half_width),
        "empty_selection": bool(not keep.any()),
        "parent": dict(data.meta),
    }
    return Dataset(data.theta[keep], data.x[keep], meta)


def simulation_params(meta: Mapping) -> StateParams | None:
    """Forward-model parameters of a plain simulated dataset, if available.

    Returns None for ingested or transformed datasets: after injection or
    selection the stored parameters no longer describe the record stream.
    """
    if meta.get("source") != "simulated":
        return None
    try:
        return StateParams(float(meta["r"]), float(meta["loss"]), float(meta["delta"]))
    except (KeyError, TypeError, ValueError):
        return None


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_csv(data: Dataset, path) -> None:
    """Write records as ``theta,x`` CSV plus a JSON metadata sidecar.

    Floats are written with the shortest representation that round-trips, so
    read_csv(write_csv(d)) reproduces d bit for bit.
    """
    path = Path(path)
    lines = [CSV_HEADER]
    lines.extend(f"{float(t)!r},{float(v)!r}" for t, v in zip(data.theta, data.x))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(_meta_path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dict(data.meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path) -> Dataset:
    """Read a ``theta,x`` CSV written by write_csv (or by hand).

    Raises CsvFormatError with a 1-based line number on any malformed or
    non-finite entry, bytes that are not UTF-8 included. Picks up the metadata
    sidecar when present; one that is not a JSON object is a CsvFormatError too.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise CsvFormatError(f"{path}: line {line}: not UTF-8 text", line=line) from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"{path}: line 1: expected header {CSV_HEADER!r}", line=1)
    thetas, xs = _vectorized_columns(text, lines[1:]) or _line_columns(path, lines[1:])
    return Dataset(thetas, xs, _read_sidecar(path))


def _vectorized_columns(text: str, body: list[str]):
    """Both columns of ``body`` from one np.loadtxt call, or None where the line loop must read it.

    loadtxt skips empty lines and warns when no line is left, strips U+001F as
    whitespace where float() rejects it, and reads a line of one or three
    fields as another shape. So a body of empty lines, a text with U+001F, and
    every body that does not come back as one finite pair per line go to the
    line loop, which owns every CsvFormatError. Passing the lines, not the
    file, keeps the line splitting of splitlines().
    """
    if not any(body) or "\x1f" in text:
        return None
    try:
        records = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if records.shape != (len(body), 2) or not np.isfinite(records).all():
        return None
    return records[:, 0], records[:, 1]


def _line_columns(path: Path, body: list[str]):
    """Both columns of ``body`` parsed line by line; CsvFormatError at the first bad line."""
    thetas = np.empty(len(body))
    xs = np.empty(len(body))
    for i, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}: line {i}: expected two comma-separated fields", line=i)
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise CsvFormatError(f"{path}: line {i}: could not parse {line!r}", line=i) from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise CsvFormatError(f"{path}: line {i}: non-finite value", line=i)
        thetas[i - 2], xs[i - 2] = t, v
    return thetas, xs


def _read_sidecar(path: Path) -> dict:
    """The metadata sidecar of ``path`` as a dict, or the ingested-file default when there is none."""
    meta_file = _meta_path(path)
    if not meta_file.exists():
        return {"source": "ingested", "path": str(path)}
    try:
        with open(meta_file, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CsvFormatError(f"{meta_file}: metadata sidecar is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CsvFormatError(f"{meta_file}: metadata sidecar must hold a JSON object")
    return meta
