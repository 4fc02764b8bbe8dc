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
CDF, so any operation is a pure function of (inputs, seed). That inverse is a
numpy port of Cephes ``ndtri``, the one scipy.special ships, on libm's ``log``:
it gives scipy's bits without loading scipy.

Memory is set by the output columns plus one block, not by the records'
number. The sampler and the noise injection draw their normal deviates a
block at a time into the columns they return; the window selection wraps its
angles in one buffer; the CSV reader makes one forward pass that never seeks,
so the file may be a pipe such as /dev/stdin: it reads and parses one block of
text at a time, never the whole text, and writes each block's rows straight
into its two columns. A dataset adopts the columns these producers build
instead of copying them; one built by any other caller copies its input.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import suppress
from dataclasses import KW_ONLY, InitVar, dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import CsvFormatError
from .model import QuadratureDistribution, StateParams, check_angle, rotated_variance

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
    "population",
]


RNG_TAG = "pcg64/inverse-cdf"

CSV_HEADER = "theta,x"
# CSV I/O memory is set by its blocks, not by the file. Each block's temporaries (its text, line strings and
# row arrays) stay under glibc's default 128 KiB mmap threshold, so the allocator recycles them from block to
# block instead of mapping, faulting in and unmapping fresh pages for every block.
_WRITE_BLOCK_ROWS = 1 << 11  # rows per write_csv block: at most about 94 KiB of text
_READ_BLOCK_CHARS = 1 << 16  # characters per read_csv block, cut right after the next line end


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable ordered collection of (theta, x) records plus provenance metadata.

    The columns are read-only float copies of what the caller passes, and meta
    a read-only copy all the way down. This module's producers pass
    ``_adopt=True`` with float columns they built and never touch again: those
    are checked and made read-only in place, not copied.
    """

    theta: np.ndarray
    x: np.ndarray
    meta: Mapping | None = None
    _: KW_ONLY
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt: bool):
        theta, x = (np.asarray(a) if _adopt else np.array(a, dtype=float) for a in (self.theta, self.x))
        if theta.ndim != 1 or x.ndim != 1 or theta.shape != x.shape:
            raise ValueError("theta and x must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(x))):
            raise ValueError("records must be finite")
        theta.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "meta", _frozen(self.meta or {}))

    @property
    def n(self) -> int:
        return self.x.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.theta, other.theta)
            and np.array_equal(self.x, other.x)
            and self.meta == other.meta
        )


def _frozen(value):
    """A read-only copy of metadata ``value``, all the way down: each mapping a MappingProxyType, each list a tuple."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def check_seed(seed: int) -> int:
    """``seed`` unchanged once it is a usable master seed; ValueError otherwise."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([check_seed(seed)])


# Cephes ndtri, the inverse normal CDF scipy.special ships, with its coefficients:
# P0/Q0 on y in (e^-2, 1 - e^-2), P1/Q1 on the tails down to e^-32, P2/Q2 beyond.
# np.polyval is Cephes' Horner loop started from 0 (0 * x + c0 = c0, 1.0 * x = x), so it rounds as Cephes does.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_NDTRI_BLOCK = 1 << 14  # elements per in-place ndtri or variance pass: the sampler's temporaries are set by it, not by n

# libm's log, elementwise, as Cephes calls it: numpy's SIMD log differs from it in the last ulp
_log = np.frompyfunc(math.log, 1, 1)


def _ndtri_inplace(y: np.ndarray) -> None:
    # Overwrite each 0 < y < 1 with ndtri(y), bit for bit as Cephes computes it.
    flip = y > 1.0 - _EXP_M2
    t = np.where(flip, 1.0 - y, y)
    central = t > _EXP_M2
    c = t[central] - 0.5
    c2 = c * c
    mid = (c + c * (c2 * np.polyval(_P0, c2) / np.polyval(_Q0, c2))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * np.asarray(_log(t[tail]), dtype=float))
    x0 = x - np.asarray(_log(x), dtype=float) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * np.polyval(_P1, z) / np.polyval(_Q1, z), z * np.polyval(_P2, z) / np.polyval(_Q2, z))
    y[central] = mid
    y[tail] = np.where(flip[tail], x0 - x1, x1 - x0)


def _fill_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    # out, overwritten with the inverse-CDF transform of uniforms one _NDTRI_BLOCK at a time (the stream of one
    # rng.random(out.size) call); u = 0 is clipped away so every deviate stays finite
    for start in range(0, out.size, _NDTRI_BLOCK):
        u = out[start : start + _NDTRI_BLOCK]
        rng.random(out=u)
        np.clip(u, 2.0**-53, None, out=u)
        _ndtri_inplace(u)
    return out


def _standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    return _fill_normal(rng, np.empty(size))


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
    check_angle(center)
    rng = _rng(seed)
    # one buffer holds phi, then the angle (center + scan) + phi, then, a block at a time, its standard deviation
    # and x, the second normal stream drawn block by block; each step is an operation of the one-expression form,
    # at most with its two operands swapped, so the bits are the same
    scanned = rng.uniform(-phase_window, phase_window, n) if phase_window > 0.0 else 0.0
    scanned += center
    x = _standard_normal(rng, n) if params.delta > 0.0 else np.zeros(n)
    x *= params.delta
    theta = scanned if phase_window > 0.0 else center + x
    x += scanned
    z = np.empty(min(n, _NDTRI_BLOCK))
    for block in (x[i : i + _NDTRI_BLOCK] for i in range(0, n, _NDTRI_BLOCK)):
        np.sqrt(rotated_variance(params, block), out=block)
        block *= _fill_normal(rng, z[: block.size])
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
    return Dataset(theta, x, meta, _adopt=True)


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
    theta = _standard_normal(rng, data.n)
    with np.errstate(over="ignore"):
        theta *= delta_e
        theta += data.theta
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"injected spread {delta_e!r} makes a recorded phase overflow to a non-finite value")
    meta = {
        "source": "derived",
        "operation": "inject_phase_noise",
        "delta_e": float(delta_e),
        "seed": int(seed),
        "rng": RNG_TAG,
        "parent": data.meta,
    }
    return Dataset(theta, data.x, meta, _adopt=True)


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
    # |pi - mod(pi - (theta - center), 2 pi)|, the offset wrapped to (-pi, pi], one operation at a time in one buffer
    offset = np.subtract(data.theta, center)
    np.subtract(np.pi, offset, out=offset)
    np.mod(offset, 2.0 * np.pi, out=offset)
    np.subtract(np.pi, offset, out=offset)
    keep = np.abs(offset, out=offset) < half_width
    meta = {
        "source": "derived",
        "operation": "select_phase_window",
        "center": float(center),
        "half_width": float(half_width),
        "empty_selection": bool(not keep.any()),
        "parent": data.meta,
    }
    return Dataset(data.theta[keep], data.x[keep], meta, _adopt=True)


def population(meta: Mapping) -> QuadratureDistribution | None:
    """The distribution a plain simulated dataset was drawn from: its state at its measurement angle ``center``.

    None for an ingested or transformed dataset, whose stored parameters no longer describe the records
    after injection or selection, for a phase scan, and for a sidecar that lacks a key or holds a value
    the model rejects, such as a non-finite center.
    """
    if meta.get("source") != "simulated" or meta.get("phase_window") != 0.0:
        return None
    try:
        params = StateParams(float(meta["r"]), float(meta["loss"]), float(meta["delta"]))
        return QuadratureDistribution(params, float(meta["center"]))
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _meta_path(path).unlink(missing_ok=True)  # so a write cut short reads back as ingested, not as the old data
        fh.write(CSV_HEADER + "\n")
        for rows in (slice(i, i + _WRITE_BLOCK_ROWS) for i in range(0, data.n, _WRITE_BLOCK_ROWS)):
            fh.write("".join(f"{t!r},{v!r}\n" for t, v in zip(data.theta[rows].tolist(), data.x[rows].tolist())))
    with open(_meta_path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data.meta, fh, indent=2, sort_keys=True, default=dict)
        fh.write("\n")


def read_csv(path) -> Dataset:
    """Read a ``theta,x`` CSV written by write_csv (or by hand) in one forward pass, so it may be a pipe.

    The file is read as UTF-8 text with universal newlines: a line feed, a
    carriage return or both end a line. Raises CsvFormatError with a 1-based
    line number on any malformed or non-finite entry, bytes that are not UTF-8
    included; such a byte is reported wherever it lies, before any bad line.
    Picks up the metadata sidecar when present; one that is not a JSON object
    is a CsvFormatError too.
    """
    path = Path(path)
    theta, x, n = np.empty(0), np.empty(0), 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for block, read in _blocks(path, fh):
            rows = n + len(block)
            if rows > x.size:  # grow to the rows the characters read so far predict for the file (a pipe's size is 0)
                size = max(rows, rows * os.fstat(fh.fileno()).st_size // read)
                theta.resize(size, refcheck=False)  # a realloc: the columns are ours, and no view of them exists
                x.resize(size, refcheck=False)
            theta[n:rows], x[n:rows] = block.T
            n = rows
    theta.resize(n, refcheck=False)
    x.resize(n, refcheck=False)
    return Dataset(theta, x, _read_sidecar(path), _adopt=True)


# surrogateescape decodes each byte that is not UTF-8, and only such a byte, to one of these
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _blocks(path: Path, fh):
    """The (theta, x) rows after the header, one array per text block of ``fh``, each with the characters read so far.

    ``fh`` is a text file opened with universal newlines and surrogateescape.
    A block ends right after the first line end at least _READ_BLOCK_CHARS
    characters on, or at the end of the file, and is split by splitlines(),
    its lines numbered by one running count. A byte that is not UTF-8 is an
    error on its line; a bad header or line is held while the rest is read, so
    such a byte after it wins. loadtxt skips empty lines, strips U+001F where
    float() rejects it, and reads one or three fields as another shape; so a
    block with an empty line or a U+001F, or whose one np.loadtxt call is not
    one finite pair per line, goes alone to the line loop, the owner of every
    other CsvFormatError. loadtxt accepts no block the line loop rejects, so
    the first bad line is reported.
    """
    line = read = 0
    fault = CsvFormatError(f"{path}: line 1: expected header {CSV_HEADER!r}", line=1)  # until a good header is read
    while text := fh.read(_READ_BLOCK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        read += len(text)
        if not text.isascii() and (bad := _NOT_UTF8.search(text)):
            line += len((text[: bad.start()] + "\0").splitlines())
            raise CsvFormatError(f"{path}: line {line}: not UTF-8 text", line=line)
        lines = text.splitlines()
        first, line = line + 1, line + len(lines)
        if first == 1:  # the first line of the file is the header
            if lines[0].strip() == CSV_HEADER:
                fault = None
            del lines[:1]
            first = 2
        if fault or not lines:
            continue
        block = None
        if all(lines) and "\x1f" not in text:
            with suppress(ValueError):
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if block is None or block.shape != (len(lines), 2) or not np.isfinite(block).all():
            try:
                block = _line_records(path, lines, first)
            except CsvFormatError as exc:
                fault = exc
                continue
        yield block, read
    if fault:
        raise fault


def _line_records(path: Path, lines: list[str], first: int) -> np.ndarray:
    """The (theta, x) rows of ``lines`` (from file line ``first``) one by one; CsvFormatError at the first bad line."""
    records = np.empty((len(lines), 2))
    for i, line in enumerate(lines, start=first):
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}: line {i}: expected two comma-separated fields", line=i)
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise CsvFormatError(f"{path}: line {i}: could not parse {line!r}", line=i) from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise CsvFormatError(f"{path}: line {i}: non-finite value", line=i)
        records[i - first] = t, v
    return records


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
