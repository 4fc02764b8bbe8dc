"""Photon-number-basis representation of the state and its entanglement potential.

The squeezed vacuum is expanded on the even Fock states up to a cutoff, the
loss and dephasing channels act directly on the density matrix, and the
entanglement potential is the base-2 log of the trace norm of the partial
transpose of the two-mode state obtained by mixing with vacuum on a balanced
beam splitter. Two-mode matrices use the composite row index a * (cutoff + 1) + b
for basis state |a, b> (mode A first).

Loss and dephasing keep only the coherences rho[n, m] with n - m even, so the
partial transpose is block-diagonal in the parity of a + b; the trace norm is
summed over the two half-size parity blocks whenever the off-block entries are
exactly zero. The states built here are real (float64) and stay real, so they
are solved in real arithmetic; a complex matrix passed in by a caller is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import StateParams

__all__ = [
    "FockDensityMatrix",
    "squeezed_vacuum_fock",
    "apply_loss",
    "apply_phase_diffusion",
    "beam_split_with_vacuum",
    "partial_transpose",
    "entanglement_potential",
    "state_from_params",
    "quadrature_variance",
    "check_cutoff",
]

DEFAULT_CUTOFF = 10
# Largest cutoff accepted; a two-mode state at cutoff 60 solves in about a second.
MAX_CUTOFF = 60


def check_cutoff(cutoff: int) -> int:
    """``cutoff`` unchanged once it is a supported Fock cutoff; ValueError otherwise."""
    if not 0 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"Fock cutoff must lie in [0, {MAX_CUTOFF}], got {cutoff!r}")
    return cutoff


@dataclass(frozen=True)
class FockDensityMatrix:
    """Single-mode density matrix on Fock states 0..cutoff.

    ``truncated_mass`` is the probability weight that fell above the cutoff
    before renormalization.
    """

    cutoff: int
    mat: np.ndarray
    truncated_mass: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.mat)
        if m.shape != (self.cutoff + 1, self.cutoff + 1):
            raise ValueError(f"matrix shape {m.shape} does not match cutoff {self.cutoff}")

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)



def squeezed_vacuum_fock(r: float, cutoff: int = DEFAULT_CUTOFF) -> FockDensityMatrix:
    """Pure x-squeezed vacuum, truncated at ``cutoff`` and renormalized.

    Only even photon numbers are occupied; amplitudes alternate in sign,
    which puts the squeezing on the x quadrature. The weight lost to
    truncation is reported in ``truncated_mass``.
    """
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r!r}")
    check_cutoff(cutoff)
    c = np.zeros(cutoff + 1)
    c[0] = 1.0 / np.sqrt(np.cosh(r))
    t = np.tanh(r)
    for k2 in range(2, cutoff + 1, 2):
        k = k2 // 2
        c[k2] = c[k2 - 2] * (-t) * np.sqrt((2.0 * k - 1.0) * (2.0 * k)) / (2.0 * k)
    norm2 = float(np.sum(c**2))
    c /= np.sqrt(norm2)
    return FockDensityMatrix(cutoff, np.outer(c, c), truncated_mass=1.0 - norm2)


def _comb_table(cutoff: int) -> np.ndarray:
    """binom(n, k) as floats at [n, k] for 0 <= n, k <= cutoff (zero for k > n)."""
    return np.array([[float(math.comb(n, k)) for k in range(cutoff + 1)] for n in range(cutoff + 1)])


def apply_loss(state: FockDensityMatrix, loss: float) -> FockDensityMatrix:
    """Beam-splitter loss of reflectance ``loss`` (vacuum in the idle port).

    Kraus operators A_k drop k photons with amplitude
    sqrt(binom(m, k)) (1-loss)^{(m-k)/2} loss^{k/2}; the map is trace
    preserving, the identity at loss = 0 and projects onto vacuum at loss = 1.
    """
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss must lie in [0, 1], got {loss!r}")
    if loss == 0.0:
        return state
    nc = state.cutoff
    out = np.zeros(state.mat.shape, np.result_type(state.mat, float))
    eta = 1.0 - loss
    comb = _comb_table(nc)
    for k in range(nc + 1):
        n = np.arange(nc + 1 - k)
        amp = np.sqrt(comb[n + k, k]) * eta ** (n / 2.0) * loss ** (k / 2.0)
        out[: nc + 1 - k, : nc + 1 - k] += np.outer(amp, amp) * state.mat[k:, k:]
    return FockDensityMatrix(nc, out, state.truncated_mass)


def apply_phase_diffusion(state: FockDensityMatrix, delta: float) -> FockDensityMatrix:
    """Gaussian angle spread of width ``delta``: coherence (n, m) decays by e^{-delta^2 (n-m)^2 / 2}."""
    if delta < 0.0:
        raise ValueError(f"phase diffusion must be >= 0, got {delta!r}")
    if delta == 0.0:
        return state
    n = np.arange(state.cutoff + 1)
    damp = np.exp(-0.5 * delta**2 * (n[:, None] - n[None, :]) ** 2)
    return FockDensityMatrix(state.cutoff, state.mat * damp, state.truncated_mass)


def state_from_params(params: StateParams, cutoff: int = DEFAULT_CUTOFF) -> FockDensityMatrix:
    """Forward state squeeze -> loss -> dephase (the channels commute)."""
    return apply_phase_diffusion(apply_loss(squeezed_vacuum_fock(params.r, cutoff), params.loss), params.delta)


def _bs_isometry(cutoff: int) -> np.ndarray:
    """Isometry |n> -> sum_j sqrt(binom(n, j) / 2^n) |j, n - j> of the balanced splitter."""
    n, j = np.tril_indices(cutoff + 1)
    t = np.zeros(((cutoff + 1) ** 2, cutoff + 1))
    t[j * (cutoff + 1) + (n - j), n] = np.sqrt(_comb_table(cutoff)[n, j] / 2.0**n)
    return t


def beam_split_with_vacuum(state: FockDensityMatrix) -> np.ndarray:
    """Mix the state with vacuum on a 50:50 beam splitter.

    The photons of each Fock component redistribute binomially over the two
    output modes, so no weight leaves the truncated space and the trace is
    preserved exactly.
    """
    t = _bs_isometry(state.cutoff)
    return t @ np.asarray(state.mat) @ t.T


def partial_transpose(two: np.ndarray) -> np.ndarray:
    """Transpose the second-mode indices; applying it twice is the identity."""
    nc1 = math.isqrt(len(two))
    return np.transpose(two.reshape(nc1, nc1, nc1, nc1), (0, 3, 2, 1)).reshape(nc1**2, nc1**2)


def entanglement_potential(state: FockDensityMatrix) -> float:
    """Entanglement (ebits) producible by splitting the state on a balanced beam splitter.

    log2 of the trace norm (sum of absolute eigenvalues) of the partial
    transpose of the two-mode output; 0 exactly for the vacuum and any state
    whose split output stays positive under partial transposition.
    """
    pt = partial_transpose(beam_split_with_vacuum(state))
    a, b = np.divmod(np.arange(len(pt)), state.cutoff + 1)
    even = (a + b) % 2 == 0
    # the even and odd blocks are solved apart when nothing couples them
    blocks = [even, ~even] if not pt[np.ix_(even, ~even)].any() else [np.ones_like(even)]
    vals = np.concatenate([np.linalg.eigvalsh(pt[np.ix_(idx, idx)]) for idx in blocks])
    return float(np.log2(np.abs(vals).sum()))


def quadrature_variance(state: FockDensityMatrix, axis: str = "x") -> float:
    """Quadrature variance <o^2> - <o>^2 from the matrix, o = x or p.

    Uses the ladder-operator matrix elements directly
    (<x^2> = 2 Re<a^2> + 2<n> + 1, with the sign of the Re<a^2> term flipped
    for p), so the only inaccuracy is the state's own truncated tail.
    """
    mat = np.asarray(state.mat)
    n = np.arange(state.cutoff + 1)
    mean_n = float(np.sum(np.diag(mat).real * n))
    a1 = complex(np.sum(np.sqrt(n[1:]) * np.diag(mat, k=-1)))
    a2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * np.diag(mat, k=-2)))
    if axis == "x":
        mean = 2.0 * a1.real
        second = 2.0 * a2.real + 2.0 * mean_n + 1.0
    elif axis == "p":
        mean = 2.0 * a1.imag
        second = -2.0 * a2.real + 2.0 * mean_n + 1.0
    else:
        raise ValueError(f"axis must be 'x' or 'p', got {axis!r}")
    return float(second - mean**2)
