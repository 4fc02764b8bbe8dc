"""Detector tests: ratio tests against closed forms, moment estimator algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval
from scipy.special import ndtr

from quadbin.binning import histogram
from quadbin.data import sample_dataset
from quadbin.detect import (
    CLASSICAL_LIMIT,
    MAX_MOMENT_ORDER,
    MIN_MOMENT_ORDER,
    analytic_three_bin_R,
    check_bin_distance,
    moment_matrix_from_moments,
    normally_ordered_moments,
    three_bin_ratio,
    three_point_R,
)
from quadbin.errors import EigensolverError, UndefinedStatisticError
from quadbin.estimate import params_from_variances
from quadbin.model import QuadratureDistribution, StateParams
from quadbin.stats import (
    REPLACEMENT,
    BootstrapSpec,
    ViolationReport,
    bootstrap,
    min_eigenvalues,
    moment_statistic,
    resample_values,
    three_bin_cells,
    three_bin_statistic,
)

# Frozen oracle values (scipy.integrate.quad / scipy.special.ndtr):
# pure squeezed state with variance 0.5, bin size 0.5, distance 1.
SQUEEZED_HALF_R = 0.794888821958080
# anchor state (variances -2.3 dB / 7.0 dB, spread 0.15), bin size 1, distance 1.
ANCHOR_R_SIGMA1 = 0.5900061091516446

VACUUM = QuadratureDistribution(StateParams(0.0, 0.0, 0.0))


def pure_variance_half():
    # e^{-2r} = 0.5
    return QuadratureDistribution(StateParams(0.5 * np.log(2.0), 0.0, 0.0))


class TestThreePoint:
    def test_vacuum_is_one(self):
        for s in (0.2, 0.5, 1.0, 2.0):
            assert three_point_R(VACUUM, s) == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_closed_form(self):
        # zero-mean Gaussian of variance V gives e^{s^2 (1 - 1/V)}
        assert three_point_R(pure_variance_half(), 1.0) == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_thermal_like_no_false_positive(self):
        # variance 2 seen on the anti-squeezing axis
        wide = QuadratureDistribution(StateParams(0.5 * np.log(2.0), 0.0, 0.0), 0.5 * np.pi)
        assert three_point_R(wide, 1.0) == pytest.approx(np.exp(0.5), rel=1e-10)
        assert three_point_R(wide, 1.0) > 1.0

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            three_point_R(VACUUM, 0.0)


def outcomes(counts: dict[int, int]) -> np.ndarray:
    """Outcomes at the bin centres of size-1 bins, ``counts[m]`` of them in bin m."""
    return np.repeat(np.array(list(counts), dtype=float), list(counts.values()))


class TestThreeBin:
    def test_direct_arithmetic(self):
        x = outcomes({-1: 100, 0: 400, 1: 100})
        assert histogram(x, 1.0) == {-1: 100, 0: 400, 1: 100}
        r = three_bin_statistic(1.0, 1)(x)
        assert r == pytest.approx(0.0625 * np.e, rel=1e-14)
        assert r < CLASSICAL_LIMIT["three-bin"]

    def test_zero_central_bin_rejected(self):
        assert np.isnan(three_bin_statistic(1.0, 1)(outcomes({-1: 4, 1: 5})))

    def test_zero_side_count_pins_to_zero_with_flag(self):
        r = three_bin_statistic(1.0, 1)(outcomes({0: 100, 1: 3}))
        assert np.isnan(r)
        rep = ViolationReport.of("three-bin", {"sigma": 1.0, "d": 1}, np.array([r]))
        assert rep.mean == 0.0 and rep.n_flagged == 1

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            three_bin_statistic(1.0, 0)

    def test_options_checked_when_the_statistic_is_built(self):
        # no outcome is binned before either rule has run
        with pytest.raises(ValueError, match=r"^bin size must be positive and finite, got inf$"):
            three_bin_statistic(np.inf, 1)
        with pytest.raises(ValueError, match=r"^bin distance must be a positive integer, got 0$"):
            three_bin_statistic(1.0, 0)
        assert check_bin_distance(3) == 3

    def test_ratio_matches_the_float_formula_bit_for_bit(self):
        for sigma, d in itertools.product(np.linspace(0.01, 3.0, 300).tolist(), range(1, 9)):
            assert three_bin_ratio(97, 89, 401, sigma, d) == float(97 * 89 / 401**2 * np.exp(sigma**2 * d**2))

    def test_huge_bin_size_gives_inf_or_nan_not_overflow(self):
        # sigma**2 of a float raises OverflowError at 1e200; the numpy scalar gives inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert three_bin_ratio(1, 1, 1, 1e200, 1) == np.inf
            assert np.isnan(three_bin_ratio(0.0, 1e-30, 1.0, 1e200, 2))


class TestAnalyticThreeBin:
    def test_vacuum_small_bin_limit(self):
        assert analytic_three_bin_R(VACUUM, 0.1, 1) == pytest.approx(1.0, abs=1e-4)

    def test_vacuum_never_below_one(self):
        for sigma in (0.1, 0.5, 1.0, 1.5, 2.5):
            for d in (1, 2, 3):
                assert analytic_three_bin_R(VACUUM, sigma, d) >= 1.0 - 1e-12

    def test_squeezed_frozen_oracle(self):
        got = analytic_three_bin_R(pure_variance_half(), 0.5, 1)
        assert got == pytest.approx(SQUEEZED_HALF_R, abs=1e-12)
        assert got < 1.0

    def test_anchor_state_matches_reported_value(self):
        anchor = params_from_variances(10**-0.23, 10**0.70, 0.15)
        got = analytic_three_bin_R(QuadratureDistribution(anchor), 1.0, 1)
        assert got == pytest.approx(ANCHOR_R_SIGMA1, abs=1e-12)
        assert got == pytest.approx(0.60, abs=3 * 0.04)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("delta", [0.15, 0.5])
    def test_small_bins_tend_to_the_three_point_ratio_at_second_order(self, s, delta):
        # bin size s/d at distance d puts the side bins at +-s; the error falls as sigma^2
        dist = QuadratureDistribution(StateParams(1.0409, 0.414, delta))
        exact = three_point_R(dist, s)
        errors = [abs(analytic_three_bin_R(dist, s / d, d) - exact) for d in (4, 8, 16, 32)]
        assert errors[-1] <= 5e-4
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 <= coarse / fine <= 4.1

    def test_monte_carlo_converges_to_analytic(self):
        p = StateParams(0.6, 0.25, 0.2)
        data = sample_dataset(p, 10_000, seed=50)
        dist = QuadratureDistribution(p)
        for sigma, d in ((0.6, 1), (1.0, 1), (0.5, 2)):
            spec = BootstrapSpec(10_000, 100, 3, REPLACEMENT)
            boot = bootstrap(data, spec, three_bin_cells(data.x, [sigma], d), "three-bin", {"sigma": sigma, "d": d})
            point = three_bin_statistic(sigma, d)(data.x)
            assert abs(point - analytic_three_bin_R(dist, sigma, d)) <= 4 * boot.std


class TestNormallyOrderedMoments:
    def test_order_zero_is_one(self):
        assert normally_ordered_moments(np.array([1.0, 2.0]), 0)[0] == 1.0

    def test_order_two_is_raw_variance_minus_one(self):
        x = np.random.default_rng(1).normal(0, 1.4, 5000)
        got = normally_ordered_moments(x, 2)[2]
        assert got == pytest.approx(float((x**2).mean()) - 1.0, rel=1e-12)

    def test_single_datum_third_order(self):
        # H_3 expansion gives x^3 - 3x
        got = normally_ordered_moments(np.array([2.0]), 3)[3]
        assert got == pytest.approx(2.0**3 - 3 * 2.0, rel=1e-13)

    def test_vacuum_second_moment_vanishes(self):
        data = sample_dataset(StateParams(0.0, 0.0, 0.0), 100_000, seed=14)
        assert normally_ordered_moments(data.x, 2)[2] == pytest.approx(0.0, abs=0.01)

    def test_recurrence_matches_hermval_oracle(self):
        # independent evaluation of the physicists' polynomials
        y = np.random.default_rng(2).uniform(-3, 3, 200)
        x = y * np.sqrt(2.0)
        moms = normally_ordered_moments(x, 14)
        for j in range(15):
            coeffs = np.zeros(j + 1)
            coeffs[j] = 1.0
            expected = hermval(y, coeffs).mean() / 2.0 ** (j / 2.0)
            assert moms[j] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_buffered_recurrence_is_bit_identical_to_the_expression_form(self):
        x = np.random.default_rng(3).normal(0, 1.7, 5000)
        y = x / np.sqrt(2.0)
        h_prev, h_cur = np.ones_like(y), 2.0 * y
        expected = [1.0, h_cur.mean() / 2.0**0.5]
        for j in range(2, 15):
            h_prev, h_cur = h_cur, 2.0 * y * h_cur - 2.0 * (j - 1) * h_prev
            expected.append(h_cur.mean() / 2.0 ** (j / 2.0))
        assert np.array_equal(normally_ordered_moments(x, 14), expected)

    def test_overflow_is_a_data_error(self):
        with np.errstate(all="ignore"), pytest.raises(UndefinedStatisticError, match="moments overflow"):
            normally_ordered_moments(np.array([1e200, -1e200] * 4), 2)


def hankel(moments, n):
    """The order-``n`` moment matrix built entry by entry: (i, j) holds the moment of order i + j."""
    return np.array([[moments[i + j] for j in range(n)] for i in range(n)])


class TestMomentMatrix:
    @pytest.mark.parametrize("moments", [[1.0, np.nan, 0.5], [1.0, 0.0, np.inf]], ids=["nan", "inf"])
    def test_nonfinite_moments_fail_the_residual_check(self, moments):
        with np.errstate(invalid="ignore"), pytest.raises(EigensolverError):
            moment_matrix_from_moments(moments, 2)

    @pytest.mark.parametrize("j, bad", [(1, np.nan), (3, np.nan), (2, np.inf), (4, np.inf)])
    def test_one_non_finite_row_fails_the_whole_stack(self, j, bad):
        # NaN in the off-diagonal or inf on the diagonal makes LAPACK give up; the others fail the residual check
        stack = np.tile([1.0, 0.1, 0.3, 0.2, 2.0], (6, 1))
        assert moment_matrix_from_moments(stack, 3).shape == (6,)
        stack[4, j] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(EigensolverError):
                moment_matrix_from_moments(stack, 3)
            with pytest.raises(EigensolverError):
                moment_matrix_from_moments(stack[4], 3)

    @pytest.mark.parametrize("n", range(MIN_MOMENT_ORDER, MAX_MOMENT_ORDER + 1))
    def test_batched_stack_equals_the_per_row_calls(self, n):
        data = sample_dataset(StateParams(0.5, 0.2, 0.3), 4000, seed=6)
        statistic = moment_statistic(n)
        moments = resample_values(BootstrapSpec(1000, 64, 5), [data.n], [0], lambda i: statistic(data.x[i]))
        assert moments.shape == (2 * n - 1, 64)
        batched = moment_matrix_from_moments(moments.T, n)
        assert batched.shape == (64,)
        assert np.array_equal(batched, [moment_matrix_from_moments(row, n) for row in moments.T])
        (resampled,) = min_eigenvalues(moments, [n])
        assert np.array_equal(resampled, batched)
        # the point value is the float of one vector, as before
        (point,) = min_eigenvalues(statistic(data.x), [n])
        assert type(point) is float and point == moment_matrix_from_moments(statistic(data.x), n)

    def test_overflowing_resamples_are_a_data_error(self):
        x = np.array([1e200, -1e200] * 4)
        statistic = moment_statistic(2, 3)
        with np.errstate(all="ignore"), pytest.raises(UndefinedStatisticError, match="moments overflow"):
            resample_values(BootstrapSpec(4, 3, 1), [x.size], [0], lambda i: statistic(x[i]))
        with np.errstate(all="ignore"), pytest.raises(UndefinedStatisticError, match="moments overflow"):
            min_eigenvalues(moment_statistic(2, 3)(x), [2, 3])

    def test_exact_injection_two_by_two(self):
        v = 10**-0.23  # the -2.3 dB squeezed variance
        moments = [1.0, 0.0, v - 1.0]
        lam = moment_matrix_from_moments(moments, 2)
        assert np.array_equal(hankel(moments, 2), [[1.0, 0.0], [0.0, v - 1.0]])
        assert lam == np.linalg.eigh(hankel(moments, 2))[0][0]
        assert lam == pytest.approx(v - 1.0, abs=1e-12)
        assert lam == pytest.approx(-0.411, abs=5e-4)
        assert lam < CLASSICAL_LIMIT["moment"]

    def test_vacuum_exact_moments_on_boundary(self):
        for n in (2, 3):
            lam = moment_matrix_from_moments(np.zeros(2 * n - 1) + (np.arange(2 * n - 1) == 0), n)
            assert abs(lam) <= 1e-12

    def test_hankel_structure_bit_exact(self):
        data = sample_dataset(StateParams(0.5, 0.2, 0.3), 4000, seed=6)
        moments = normally_ordered_moments(data.x, 8)
        assert moment_matrix_from_moments(moments, 5) == np.linalg.eigh(hankel(moments, 5))[0][0]

    def test_verdict_equals_variance_criterion(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            scale = rng.uniform(0.7, 1.3)
            x = rng.normal(0, scale, 2000)
            (lambda_min,) = min_eigenvalues(moment_statistic(2)(x), [2])
            var = float(((x - x.mean()) ** 2).mean())
            assert (lambda_min < CLASSICAL_LIMIT["moment"]) == (var < 1.0)

    def test_order_bounds(self):
        data = sample_dataset(StateParams(0.1, 0.0, 0.0), 100, seed=1)
        with pytest.raises(ValueError, match="matrix order must lie in"):
            min_eigenvalues(moment_statistic(1)(data.x), [1])
        with pytest.raises(ValueError, match="matrix order must lie in"):
            min_eigenvalues(moment_statistic(9)(data.x), [9])

    def test_orders_checked_when_the_statistic_is_built(self):
        # no moment of order 2e8 is ever computed
        with pytest.raises(ValueError, match="got 100000000"):
            moment_statistic(2, 100_000_000)

    def test_high_order_runs_with_residual_guard(self):
        data = sample_dataset(StateParams(0.8, 0.1, 0.4), 20_000, seed=8)
        (lambda_min,) = min_eigenvalues(moment_statistic(8)(data.x), [8])
        assert np.isfinite(lambda_min)


def coherent_bin_masses(mus, sigma: float, d: int) -> np.ndarray:
    """Masses of bins -d, 0 and d of size ``sigma`` (rows) for N(mu, 1) outcomes, the x marginal of a coherent
    state, at each mean in ``mus`` (columns). A bin above the mean is a difference of upper tails, so it does not
    cancel to 0."""
    edge = np.array([-d, 0, d])[:, None] * sigma - np.asarray(mus, dtype=float)
    lo, hi = edge - 0.5 * sigma, edge + 0.5 * sigma
    return np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


# relative slack for rounding only: the bounds below hold exactly
ROUNDING = 64 * np.finfo(float).eps


def mixtures(largest_mean: float):
    """Mixtures of up to five coherent states: the x means of the components and their probabilities."""
    pairs = st.lists(st.tuples(st.floats(-largest_mean, largest_mean), st.floats(0.01, 1.0)), min_size=1, max_size=5)
    return pairs.map(lambda p: (np.array([mu for mu, _ in p]), np.array([w for _, w in p]) / sum(w for _, w in p)))


class TestClassicalBound:
    """No mixture of coherent states crosses either detector's classical limit at the population level."""

    def test_coherent_ratio_grid(self):
        mus = np.linspace(0.0, 12.0, 121)
        worst = min(
            three_bin_ratio(ppos, pneg, p0, sigma, d)
            for sigma, d in itertools.product(np.linspace(0.05, 4.0, 80), range(1, 5))
            for pneg, p0, ppos in coherent_bin_masses(mus, sigma, d).T
        )
        # the smallest excess, about 5e-7, is at sigma = 0.05, d = 1, mu = 12
        assert worst >= CLASSICAL_LIMIT["three-bin"]

    @settings(max_examples=300, deadline=None)
    @given(mixture=mixtures(12.0), sigma=st.floats(0.05, 4.0), d=st.integers(1, 4))
    def test_coherent_mixture_ratio(self, mixture, sigma, d):
        mus, weights = mixture
        pneg, p0, ppos = coherent_bin_masses(mus, sigma, d) @ weights
        assert three_bin_ratio(ppos, pneg, p0, sigma, d) >= CLASSICAL_LIMIT["three-bin"] * (1.0 - ROUNDING)

    @settings(max_examples=300, deadline=None)
    @given(mixture=mixtures(4.0), n=st.integers(MIN_MOMENT_ORDER, MAX_MOMENT_ORDER))
    def test_coherent_mixture_moment_matrix(self, mixture, n):
        # the normally ordered moment j of a coherent state is mu^j, so the moment matrix is a sum of w v v^T
        mus, weights = mixture
        moments = weights @ mus[:, None] ** np.arange(2 * n - 1)
        assert moment_matrix_from_moments(moments, n) >= CLASSICAL_LIMIT["moment"] - ROUNDING * np.abs(moments).max()
