"""Fock-space tests: channels against operator oracles, splitter against the literal sum."""

import math

import numpy as np
import pytest
from scipy import integrate

from quadbin.estimate import params_from_variances
from quadbin.fock import (
    MAX_CUTOFF,
    FockDensityMatrix,
    _bs_isometry,
    apply_loss,
    apply_phase_diffusion,
    beam_split_with_vacuum,
    entanglement_potential,
    partial_transpose,
    quadrature_variance,
    squeezed_vacuum_fock,
    state_from_params,
)
from quadbin.model import StateParams, diffused_variance

# the five (r, loss, delta) states of the Fock benchmark workload
BENCH_STATES = [(1.0409, 0.414, 0.15), (1.0409, 0.414, 0.5), (0.4, 0.0, 0.0), (0.7, 0.6, 0.0), (0.3, 0.1, 0.0)]


def beam_split_oracle(mat: np.ndarray) -> np.ndarray:
    """Literal four-index sum for the balanced splitter output."""
    nc = mat.shape[0] - 1
    dim = (nc + 1) ** 2
    out = np.zeros((dim, dim), dtype=complex)
    for n in range(nc + 1):
        for m in range(nc + 1):
            for j in range(n + 1):
                for k in range(m + 1):
                    coeff = mat[n, m] * np.sqrt(math.comb(n, j) * math.comb(m, k) / 2.0 ** (n + m))
                    out[j * (nc + 1) + (n - j), k * (nc + 1) + (m - k)] += coeff
    return out


def pt_oracle(mat2: np.ndarray, nc: int) -> np.ndarray:
    """Element-by-element partial transpose on the second mode."""
    dim = nc + 1
    out = np.zeros_like(mat2)
    for a1 in range(dim):
        for b1 in range(dim):
            for a2 in range(dim):
                for b2 in range(dim):
                    out[a1 * dim + b1, a2 * dim + b2] = mat2[a1 * dim + b2, a2 * dim + b1]
    return out


def dense_ep_oracle(mat: np.ndarray) -> float:
    """EP through the literal splitter sum, the elementwise transpose and the general eigensolver."""
    vals = np.linalg.eigvals(pt_oracle(beam_split_oracle(mat), mat.shape[0] - 1))
    return float(np.log2(np.abs(vals).sum()))


class TestSqueezedVacuum:
    def test_r_zero_is_vacuum_projector(self):
        s = squeezed_vacuum_fock(0.0, cutoff=6)
        expected = np.zeros((7, 7))
        expected[0, 0] = 1.0
        assert np.array_equal(s.mat.real, expected)
        assert s.truncated_mass == 0.0

    def test_odd_entries_vanish(self):
        s = squeezed_vacuum_fock(0.6)
        odd = np.arange(s.cutoff + 1) % 2 == 1
        assert np.all(s.mat[odd, :] == 0.0)
        assert np.all(s.mat[:, odd] == 0.0)

    def test_unit_trace_and_small_tail(self):
        s = squeezed_vacuum_fock(0.4)
        assert s.trace == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= s.truncated_mass < 1e-5

    def test_quadrature_variances_match_pure_squeezing(self):
        for r in (0.1, 0.3, 0.5):
            s = squeezed_vacuum_fock(r, cutoff=10)
            tol = 1e-4 if r <= 0.4 else 1e-3  # truncation grows with r
            assert quadrature_variance(s, "x") == pytest.approx(np.exp(-2 * r), abs=tol)
            assert quadrature_variance(s, "p") == pytest.approx(np.exp(2 * r), abs=20 * tol)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_fock(-0.1)

    @pytest.mark.parametrize("cutoff", [-1, MAX_CUTOFF + 1, 100_000])
    def test_rejects_cutoff_outside_range_before_any_channel(self, cutoff):
        # a loss channel at cutoff 100000 would first build a 10^10-entry binomial table
        with pytest.raises(ValueError, match="cutoff"):
            state_from_params(StateParams(1.0, 0.1, 0.0), cutoff)

    def test_accepts_the_largest_cutoff(self):
        assert squeezed_vacuum_fock(1.0, MAX_CUTOFF).cutoff == MAX_CUTOFF

    def test_forward_states_are_real(self):
        assert squeezed_vacuum_fock(0.4).mat.dtype == np.float64
        for state in BENCH_STATES:
            assert state_from_params(StateParams(*state)).mat.dtype == np.float64


class TestLossChannel:
    def test_zero_loss_is_identity(self):
        s = squeezed_vacuum_fock(0.5)
        assert np.array_equal(apply_loss(s, 0.0).mat, s.mat)

    def test_full_loss_gives_vacuum(self):
        s = squeezed_vacuum_fock(0.5)
        out = apply_loss(s, 1.0)
        expected = np.zeros_like(out.mat)
        expected[0, 0] = 1.0
        assert np.allclose(out.mat, expected, atol=1e-14)

    def test_trace_preserved(self):
        s = squeezed_vacuum_fock(0.6)
        for loss in (0.1, 0.37, 0.9):
            assert apply_loss(s, loss).trace == pytest.approx(1.0, abs=1e-12)

    def test_variance_map(self):
        s = squeezed_vacuum_fock(0.3)
        before = quadrature_variance(s, "x")
        for loss in (0.2, 0.5):
            after = quadrature_variance(apply_loss(s, loss), "x")
            assert after == pytest.approx(loss + (1 - loss) * before, abs=1e-10)

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            apply_loss(squeezed_vacuum_fock(0.1), 1.5)

    def test_matches_kraus_sum_with_scalar_binomials(self):
        # reference: the same Kraus sum with each binomial taken from math.comb one at a time
        for nc in range(41):
            for r, loss in ((0.4, 0.2), (1.0409, 0.414), (0.7, 0.999)):
                s = squeezed_vacuum_fock(r, nc)
                ref = np.zeros_like(s.mat)
                for k in range(nc + 1):
                    n = np.arange(nc + 1 - k)
                    binom = np.array([float(math.comb(int(m) + k, k)) for m in n])
                    amp = np.sqrt(binom) * (1.0 - loss) ** (n / 2.0) * loss ** (k / 2.0)
                    ref[: nc + 1 - k, : nc + 1 - k] += np.outer(amp, amp) * s.mat[k:, k:]
                assert np.array_equal(apply_loss(s, loss).mat, ref)


class TestDephasingChannel:
    def test_zero_spread_is_identity(self):
        s = squeezed_vacuum_fock(0.5)
        assert np.array_equal(apply_phase_diffusion(s, 0.0).mat, s.mat)

    def test_damping_factor_matches_angle_average_oracle(self):
        # the coherence factor is the moment E[e^{i k theta}] of the angle draw
        delta = 0.5
        for k in (1, 2, 3):
            oracle, _ = integrate.quad(
                lambda th: np.cos(k * th) * np.exp(-th**2 / (2 * delta**2)) / (np.sqrt(2 * np.pi) * delta),
                -8 * delta,
                8 * delta,
            )
            assert np.exp(-0.5 * delta**2 * k**2) == pytest.approx(oracle, abs=1e-12)
        s = squeezed_vacuum_fock(0.5)
        out = apply_phase_diffusion(s, delta)
        assert out.mat[0, 2] == pytest.approx(s.mat[0, 2] * np.exp(-0.5), rel=1e-12)

    def test_diagonal_and_trace_unchanged(self):
        s = apply_loss(squeezed_vacuum_fock(0.7), 0.2)
        out = apply_phase_diffusion(s, 0.8)
        assert np.array_equal(np.diag(out.mat), np.diag(s.mat))
        assert out.trace == pytest.approx(s.trace, abs=0.0)

    def test_strong_dephasing_kills_coherences(self):
        out = apply_phase_diffusion(squeezed_vacuum_fock(0.5), 50.0)
        off = out.mat - np.diag(np.diag(out.mat))
        assert np.max(np.abs(off)) < 1e-300 or np.max(np.abs(off)) == 0.0


class TestChannelAlgebra:
    def test_loss_and_dephasing_commute(self):
        for r in (0.2, 0.5, 0.9):
            for loss in (0.1, 0.4):
                for delta in (0.2, 0.5):
                    s = squeezed_vacuum_fock(r)
                    a = apply_phase_diffusion(apply_loss(s, loss), delta)
                    b = apply_loss(apply_phase_diffusion(s, delta), loss)
                    assert np.max(np.abs(a.mat - b.mat)) <= 1e-10

    def test_states_stay_positive_semidefinite(self):
        for p in (StateParams(0.6, 0.2, 0.4), StateParams(1.0, 0.4, 0.15)):
            s = state_from_params(p, cutoff=10)
            assert np.linalg.eigvalsh(s.mat).min() >= -1e-10


    def test_moment_consistency_with_closed_forms(self):
        for r in (0.1, 0.2, 0.3, 0.35):
            for loss in (0.0, 0.3):
                for delta in (0.0, 0.3):
                    p = StateParams(r, loss, delta)
                    s = state_from_params(p, cutoff=10)
                    assert quadrature_variance(s, "x") == pytest.approx(diffused_variance(p, "x"), abs=1e-4)
                    assert quadrature_variance(s, "p") == pytest.approx(diffused_variance(p, "p"), abs=1e-4)

    def test_moment_deficit_at_cutoff_edge(self):
        # at r = 0.4 the weight above the cutoff contributes 1.9e-4 to the
        # anti-squeezed variance (tail populations plus the (10, 12)
        # coherence), so consistency there is capped near 2e-4 at cutoff 10
        p = StateParams(0.4, 0.0, 0.0)
        s = state_from_params(p, cutoff=10)
        assert quadrature_variance(s, "p") == pytest.approx(diffused_variance(p, "p"), abs=2.5e-4)
        assert quadrature_variance(s, "x") == pytest.approx(diffused_variance(p, "x"), abs=1e-4)


class TestBeamSplitter:
    def test_vacuum_maps_to_two_mode_vacuum(self):
        out = beam_split_with_vacuum(squeezed_vacuum_fock(0.0, cutoff=4))
        expected = np.zeros((25, 25))
        expected[0, 0] = 1.0
        assert np.allclose(out, expected, atol=0.0)

    def test_single_photon_splits_evenly(self):
        nc = 4
        mat = np.zeros((nc + 1, nc + 1), dtype=complex)
        mat[1, 1] = 1.0
        out = beam_split_with_vacuum(FockDensityMatrix(nc, mat))
        i10 = 1 * (nc + 1) + 0  # |1, 0>
        i01 = 0 * (nc + 1) + 1  # |0, 1>
        assert out[i10, i10] == pytest.approx(0.5, abs=1e-15)
        assert out[i01, i01] == pytest.approx(0.5, abs=1e-15)
        assert out[i10, i01] == pytest.approx(0.5, abs=1e-15)

    def test_trace_preserved(self):
        s = state_from_params(StateParams(0.6, 0.2, 0.3))
        assert np.trace(beam_split_with_vacuum(s)) == pytest.approx(s.trace, abs=1e-12)

    def test_isometry_matches_double_loop(self):
        for nc in range(41):
            ref = np.zeros(((nc + 1) ** 2, nc + 1))
            for n in range(nc + 1):
                for j in range(n + 1):
                    ref[j * (nc + 1) + (n - j), n] = np.sqrt(math.comb(n, j) / 2.0**n)
            assert np.array_equal(_bs_isometry(nc), ref)

    def test_matches_quadruple_sum_oracle(self):
        s = state_from_params(StateParams(0.5, 0.2, 0.3), cutoff=6)
        got = beam_split_with_vacuum(s)
        assert np.allclose(got, beam_split_oracle(np.asarray(s.mat)), atol=1e-14)

    def test_balanced_outputs_have_equal_photon_distributions(self):
        s = state_from_params(StateParams(0.7, 0.1, 0.2), cutoff=8)
        nc1 = s.cutoff + 1
        m4 = beam_split_with_vacuum(s).reshape(nc1, nc1, nc1, nc1)
        pops_a = np.einsum("abab->a", m4).real
        pops_b = np.einsum("abab->b", m4).real
        assert np.allclose(pops_a, pops_b, atol=1e-12)


class TestPartialTranspose:
    def test_involution_bit_exact(self):
        two = beam_split_with_vacuum(state_from_params(StateParams(0.6, 0.2, 0.4), cutoff=6))
        assert np.array_equal(partial_transpose(partial_transpose(two)), two)

    def test_matches_elementwise_oracle(self):
        two = beam_split_with_vacuum(state_from_params(StateParams(0.5, 0.3, 0.2), cutoff=4))
        assert np.array_equal(partial_transpose(two), pt_oracle(two, 4))


class TestEntanglementPotential:
    def test_vacuum_is_exactly_zero(self):
        assert entanglement_potential(squeezed_vacuum_fock(0.0)) == 0.0

    def test_matches_dense_eigenvalue_oracle(self):
        # independent route: literal splitter sum, elementwise transpose,
        # general (non-symmetric) eigensolver
        s = squeezed_vacuum_fock(0.2, cutoff=10)
        two = beam_split_oracle(np.asarray(s.mat))
        vals = np.linalg.eigvals(pt_oracle(two, s.cutoff))
        oracle = float(np.log2(np.abs(vals).sum()))
        assert entanglement_potential(s) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize(
        "r, loss, expected", [(0.4, 0.0, 0.577078), (0.7, 0.6, 0.258691), (0.3, 0.1, 0.375817)]
    )
    def test_gaussian_states_match_closed_form(self, r, loss, expected):
        # at delta = 0 the state is Gaussian and EP = max(0, -1/2 log2 V_x)
        closed = max(0.0, -0.5 * math.log2(diffused_variance(StateParams(r, loss, 0.0), "x")))
        assert closed == pytest.approx(expected, abs=5e-7)
        assert entanglement_potential(state_from_params(StateParams(r, loss, 0.0), cutoff=40)) == pytest.approx(
            closed, abs=1e-5
        )

    def test_odd_coherences_match_dense_oracle(self):
        # (|0> + |1>)/sqrt(2) couples the two parity blocks of the partial transpose
        mat = np.zeros((5, 5))
        mat[:2, :2] = 0.5
        s = FockDensityMatrix(4, mat)
        assert entanglement_potential(s) == pytest.approx(math.log2(1.5), abs=1e-12)
        assert entanglement_potential(s) == pytest.approx(dense_ep_oracle(mat), abs=1e-12)

    def test_complex_state_matches_real_one_and_dense_oracle(self):
        s = state_from_params(StateParams(0.5, 0.2, 0.3))
        n = np.arange(s.cutoff + 1)
        rotated = FockDensityMatrix(s.cutoff, s.mat * np.exp(0.7j * (n[:, None] - n[None, :])), s.truncated_mass)
        assert rotated.mat.imag.any()
        assert entanglement_potential(rotated) == pytest.approx(entanglement_potential(s), abs=1e-12)
        assert entanglement_potential(rotated) == pytest.approx(dense_ep_oracle(rotated.mat), abs=1e-12)

    @pytest.mark.parametrize("state", BENCH_STATES)
    def test_matches_full_complex_solve(self, state):
        for cutoff in (10, 20, 30):
            s = state_from_params(StateParams(*state), cutoff)
            full = np.linalg.eigvalsh(partial_transpose(beam_split_with_vacuum(s)))
            assert entanglement_potential(s) == pytest.approx(float(np.log2(np.abs(full).sum())), abs=1e-12)

    def test_positive_under_strong_dephasing(self):
        anchor = params_from_variances(10**-0.23, 10**0.70, 0.15)
        s = state_from_params(StateParams(anchor.r, anchor.loss, 0.5))
        assert entanglement_potential(s) > 0.0

    def test_nonincreasing_in_loss(self):
        eps = [entanglement_potential(state_from_params(StateParams(0.5, l, 0.3))) for l in np.linspace(0, 0.8, 5)]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        assert entanglement_potential(state_from_params(StateParams(0.5, 1.0, 0.3))) == pytest.approx(0.0, abs=1e-12)


class TestSerialization:
    def test_json_roundtrip_keeps_the_potential(self):
        s = state_from_params(StateParams(1.0409, 0.414, 0.15), cutoff=12)
        back = FockDensityMatrix(s.cutoff, s.mat.astype(complex), s.truncated_mass)
        assert back.mat.dtype == complex  # the complex path, against the real one
        assert entanglement_potential(back) == pytest.approx(entanglement_potential(s), abs=1e-12)
