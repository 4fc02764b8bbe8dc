"""Photon-number-basis representation of the state and its entanglement potential.

The squeezed vacuum is expanded on the even Fock states up to a cutoff, the
loss and dephasing channels act directly on the density matrix, and the
entanglement potential is the base-2 log of the trace norm of the partial
transpose of the two-mode state obtained by mixing with vacuum on a balanced
beam splitter. Two-mode matrices use the composite row index a * (cutoff + 1) + b
for basis state |a, b> (mode A first).

Loss and dephasing keep only the coherences rho[n, m] with n - m even, so the
partial transpose is block-diagonal in the parity of a + b whenever every odd
coherence is exactly zero. The states built here are also real (float64) and
exactly symmetric, and then exchanging the two modes commutes with the partial
transpose, so each parity block splits again into an exchange-symmetric and an
exchange-antisymmetric block (441, 400, 420 and 420 states at cutoff 40).
Every block is gathered straight from the single-mode matrix, never from a
two-mode one (``beam_split_with_vacuum`` and ``partial_transpose`` build those
as the tests' reference), through one index array and scaled in place; a
complex or inexactly symmetric matrix passed in by a caller is solved on its
parity blocks alone. A quadrature is named by its measurement angle in
radians, as in ``model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

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
# Largest cutoff accepted; a real state's entanglement potential at cutoff 60 takes about 0.15 s.
MAX_CUTOFF = 60


def check_cutoff(cutoff: int) -> int:
    """``cutoff`` unchanged once it is a supported Fock cutoff; ValueError otherwise."""
    if not 0 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"Fock cutoff must lie in [0, {MAX_CUTOFF}], got {cutoff!r}")
    return cutoff


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Single-mode density matrix on Fock states 0..cutoff, where ``cutoff`` is ``len(mat) - 1``.

    ``mat`` is kept as a read-only float or complex copy of the matrix given.
    ``truncated_mass`` is the probability weight that fell above the cutoff
    before renormalization.
    """

    mat: np.ndarray
    truncated_mass: float = 0.0

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex if np.iscomplexobj(self.mat) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"density matrix must be square and non-empty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        # entanglement_potential reads one triangle of each block it solves, so only rounding may break the symmetry
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"density matrix is not Hermitian: largest |rho - rho^H| entry is {asym:.3g}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockDensityMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat) and self.truncated_mass == other.truncated_mass

    def __hash__(self) -> int:
        return hash((self.mat.shape, self.truncated_mass))  # equal states share both

    @property
    def cutoff(self) -> int:
        return len(self.mat) - 1

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)


def squeezed_vacuum_fock(r: float, cutoff: int = DEFAULT_CUTOFF) -> FockDensityMatrix:
    """Pure x-squeezed vacuum, truncated at ``cutoff`` and renormalized.

    Only even photon numbers are occupied; amplitudes alternate in sign,
    which puts the squeezing on the x quadrature. The weight lost to
    truncation is reported in ``truncated_mass``; an r so large that the
    kept weight rounds to nothing next to 1 raises OverflowError.
    """
    if not r >= 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r!r}")
    check_cutoff(cutoff)
    c = np.zeros(cutoff + 1)
    c[0] = 1.0 / np.sqrt(np.cosh(r))
    t = np.tanh(r)
    for k2 in range(2, cutoff + 1, 2):
        k = k2 // 2
        c[k2] = c[k2 - 2] * (-t) * np.sqrt((2.0 * k - 1.0) * (2.0 * k)) / (2.0 * k)
    norm2 = float(np.sum(c**2))
    if not 1.0 - norm2 < 1.0:
        raise OverflowError(f"squeezing r = {r!r} leaves no weight on Fock states 0..{cutoff} to renormalise")
    c /= np.sqrt(norm2)
    return FockDensityMatrix(np.outer(c, c), truncated_mass=1.0 - norm2)


@lru_cache(maxsize=MAX_CUTOFF + 1)
def _comb_table(cutoff: int) -> np.ndarray:
    """binom(n, k) as floats at [n, k] for 0 <= n, k <= cutoff (zero for k > n), read-only: every caller shares it."""
    table = np.array([[float(math.comb(n, k)) for k in range(cutoff + 1)] for n in range(cutoff + 1)])
    table.setflags(write=False)
    return table


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
    out = np.zeros(state.mat.shape, state.mat.dtype)
    eta = 1.0 - loss
    comb = _comb_table(nc)
    for k in range(nc + 1):
        n = np.arange(nc + 1 - k)
        amp = np.sqrt(comb[n + k, k]) * eta ** (n / 2.0) * loss ** (k / 2.0)
        out[: nc + 1 - k, : nc + 1 - k] += np.outer(amp, amp) * state.mat[k:, k:]
    return replace(state, mat=out)


def apply_phase_diffusion(state: FockDensityMatrix, delta: float) -> FockDensityMatrix:
    """Gaussian angle spread of width ``delta``: coherence (n, m) decays by e^{-delta^2 (n-m)^2 / 2}."""
    if delta < 0.0:
        raise ValueError(f"phase diffusion must be >= 0, got {delta!r}")
    if delta == 0.0:
        return state
    n = np.arange(state.cutoff + 1)
    damp = np.exp(-0.5 * delta**2 * (n[:, None] - n[None, :]) ** 2)
    return replace(state, mat=state.mat * damp)


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
    return t @ state.mat @ t.T


def partial_transpose(two: np.ndarray) -> np.ndarray:
    """Transpose the second-mode indices; applying it twice is the identity."""
    nc1 = math.isqrt(len(two))
    return np.transpose(two.reshape(nc1, nc1, nc1, nc1), (0, 3, 2, 1)).reshape(nc1**2, nc1**2)


def _transposed_blocks(mat: np.ndarray):
    """The diagonal blocks of the split output's partial transpose, gathered straight from the single-mode ``mat``.

    For any Hermitian ``mat`` the partial transpose has the entry
    u(a) u(b) S[a + b', a' + b] u(a') u(b') at (a, b), (a', b'), with
    S = diag(h) rho diag(h) zero beyond the cutoff, h(n) = sqrt(n! / 2^n) and
    u(k) = 1 / sqrt(k!). Without odd coherences the pairs split by the parity
    of a + b. A real, exactly symmetric ``mat`` gives a symmetric S, so
    swapping the modes commutes with the transpose and each parity class
    splits again: on the basis |a, a> and (|a, b> +- |b, a>) / sqrt(2), a < b,
    the symmetric block is G + G' and the antisymmetric block G - G', where G'
    takes each column (a', b') at (b', a'); the rows and columns of |a, a>
    carry a further 1 / sqrt(2) each. The blocks are yielded one at a time,
    each after the index, scale and swapped gather that built it are dropped.
    """
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
        scale = np.outer(uu, uu)
        # the pairs a = b come last: sqrt(1/2) on their rows and columns, exactly 1/2 (not sqrt(1/2) squared) on both
        m = np.count_nonzero(ca != cb) if exchange else len(ca)
        scale[:m, m:] *= np.sqrt(0.5)
        scale[m:, :m] *= np.sqrt(0.5)
        scale[m:, m:] *= 0.5
        idx = np.add.outer(row, cb * width + ca)
        g = s.take(idx)
        g *= scale
        if not exchange:
            del idx, scale
            yield g
            continue
        swapped = s.take(np.add.outer(row, row, out=idx))
        swapped *= scale
        del idx, scale
        anti = g[:m, :m] - swapped[:m, :m]
        g += swapped
        del swapped
        yield g
        yield anti


def entanglement_potential(state: FockDensityMatrix) -> float:
    """Entanglement (ebits) producible by splitting the state on a balanced beam splitter.

    log2 of the trace norm (sum of absolute eigenvalues) of the partial
    transpose of the two-mode output. Never negative: 0 up to rounding (a few
    1e-16 above) for any state whose split output stays positive under partial
    transposition, and 0 where rounding puts the trace norm below 1.
    """
    vals = np.concatenate([np.linalg.eigvalsh(block) for block in _transposed_blocks(state.mat)])
    return max(float(np.log2(np.abs(vals).sum())), 0.0)


def quadrature_variance(state: FockDensityMatrix, angle: float = 0.0) -> float:
    """Variance <o^2> - <o>^2 of the quadrature o = a e^{-i angle} + a^dag e^{i angle} from the matrix.

    Uses the ladder-operator matrix elements directly
    (<o> = 2 Re(<a> e^{-i angle}), <o^2> = 2 Re(<a^2> e^{-2i angle}) + 2<n> + 1),
    so the only inaccuracy is the state's own truncated tail. Angle 0 is x,
    pi/2 is p.
    """
    mat = state.mat
    n = np.arange(state.cutoff + 1)
    mean_n = float(np.sum(np.diag(mat).real * n))
    a1 = complex(np.sum(np.sqrt(n[1:]) * np.diag(mat, k=-1)))
    a2 = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * np.diag(mat, k=-2)))
    mean = 2.0 * (a1 * np.exp(-1j * angle)).real
    second = 2.0 * (a2 * np.exp(-2j * angle)).real + 2.0 * mean_n + 1.0
    return float(second - mean**2)
