"""Model-layer tests: closed forms against brute-force angle quadrature."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from reference import axis_bin_probabilities, axis_diffused_variance

from quadbin.model import (
    GH_ORDER,
    QuadratureDistribution,
    StateParams,
    _ndtr,
    check_angle,
    diffused_variance,
    kurtosis_x,
    rotated_variance,
)

# Frozen oracle values, computed by scipy.integrate.quad of the rotated
# variance (and its square) against the normal angle weight.
ORACLE_VAR_X_030_020_020 = 0.678207911660496
ORACLE_VAR_P_030_020_020 = 1.618536437527133
ORACLE_KURT_030_020_020 = 3.018494008336067


def angle_average(fn, delta):
    """Brute-force oracle: quadrature of fn(theta) against N(0, delta^2)."""
    if delta == 0.0:
        return fn(0.0)
    weight = lambda th: np.exp(-(th**2) / (2 * delta**2)) / (np.sqrt(2 * np.pi) * delta)
    span = max(10.0 * delta, 1.0)
    val, _ = integrate.quad(lambda th: fn(th) * weight(th), -span, span, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


class TestStateParams:
    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            StateParams(-0.1, 0.0, 0.0)

    def test_rejects_loss_outside_unit_interval(self):
        with pytest.raises(ValueError):
            StateParams(0.1, 1.2, 0.0)
        with pytest.raises(ValueError):
            StateParams(0.1, -0.01, 0.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            StateParams(0.1, 0.0, -0.3)

    def test_full_loss_gives_vacuum_statistics(self):
        p = StateParams(0.7, 1.0, 0.4)
        assert diffused_variance(p) == pytest.approx(1.0, abs=1e-14)
        assert diffused_variance(p, 0.5 * np.pi) == pytest.approx(1.0, abs=1e-14)
        assert kurtosis_x(p) == pytest.approx(3.0, abs=1e-14)


class TestRotatedVariance:
    def test_lossless_squeezing_axis(self):
        assert rotated_variance(StateParams(0.5, 0.0, 0.0), 0.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_full_loss_is_vacuum_at_any_angle(self):
        for th in (0.0, 0.3, 2.0, -1.1):
            assert rotated_variance(StateParams(0.8, 1.0, 0.0), th) == pytest.approx(1.0)

    def test_antisqueezing_axis_closed_form(self):
        got = rotated_variance(StateParams(0.5, 0.1, 0.0), np.pi / 2)
        assert got == pytest.approx(0.1 + 0.9 * np.e, rel=1e-12)

    def test_periodic_and_even(self):
        rng = np.random.default_rng(11)
        p = StateParams(0.6, 0.2, 0.0)
        th = rng.uniform(-4, 4, 50)
        assert np.allclose(rotated_variance(p, th), rotated_variance(p, th + np.pi), rtol=1e-12)
        assert np.allclose(rotated_variance(p, th), rotated_variance(p, -th), rtol=1e-12)

    def test_range_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = StateParams(rng.uniform(0, 1), rng.uniform(0, 1), 0.0)
            v = rotated_variance(p, rng.uniform(-np.pi, np.pi, 40))
            assert np.all(v >= min(np.exp(-2 * p.r), 1.0) - 1e-12)
            assert np.all(v <= max(np.exp(2 * p.r), 1.0) + 1e-12)


class TestClosedForms:
    def test_variance_delta_zero_limit(self):
        p = StateParams(0.5, 0.1, 0.0)
        assert diffused_variance(p) == pytest.approx(0.1 + 0.9 * np.exp(-1.0), rel=1e-12)

    def test_variance_frozen_oracle_value(self):
        p = StateParams(0.3, 0.2, 0.2)
        assert diffused_variance(p) == pytest.approx(ORACLE_VAR_X_030_020_020, abs=1e-12)
        assert diffused_variance(p, 0.5 * np.pi) == pytest.approx(ORACLE_VAR_P_030_020_020, abs=1e-12)

    def test_large_delta_symmetrizes_both_axes(self):
        p = StateParams(0.4, 0.15, 60.0)
        limit = p.loss + (1 - p.loss) * np.cosh(2 * p.r)
        assert diffused_variance(p) == pytest.approx(limit, rel=1e-12)
        assert diffused_variance(p, 0.5 * np.pi) == pytest.approx(limit, rel=1e-12)

    def test_kurtosis_gaussian_limits(self):
        assert kurtosis_x(StateParams(0.7, 0.3, 0.0)) == pytest.approx(3.0, abs=1e-14)
        assert kurtosis_x(StateParams(0.0, 0.3, 0.5)) == pytest.approx(3.0, abs=1e-14)

    def test_kurtosis_frozen_oracle_value(self):
        assert kurtosis_x(StateParams(0.3, 0.2, 0.2)) == pytest.approx(ORACLE_KURT_030_020_020, abs=1e-12)

    def test_grid_agreement_with_quadrature_oracle(self):
        # second and fourth moments against brute-force quadrature
        for r in np.linspace(0.0, 1.0, 5):
            for loss in np.linspace(0.0, 0.9, 5):
                for delta in np.linspace(0.0, 0.8, 5):
                    p = StateParams(r, loss, delta)
                    vx = angle_average(lambda th: rotated_variance(p, th), delta)
                    vp = angle_average(lambda th: rotated_variance(p, th + np.pi / 2), delta)
                    k = angle_average(lambda th: 3.0 * rotated_variance(p, th) ** 2, delta) / vx**2
                    assert diffused_variance(p) == pytest.approx(vx, rel=1e-10)
                    assert diffused_variance(p, 0.5 * np.pi) == pytest.approx(vp, rel=1e-10)
                    assert kurtosis_x(p) == pytest.approx(k, rel=1e-10)

    def test_squeezed_axis_never_exceeds_antisqueezed(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = StateParams(rng.uniform(0.01, 1.2), rng.uniform(0, 0.95), rng.uniform(0, 1.0))
            assert diffused_variance(p) <= diffused_variance(p, 0.5 * np.pi) + 1e-14

    def test_uncertainty_product_at_least_one(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            p = StateParams(rng.uniform(0, 1.5), rng.uniform(0, 1), rng.uniform(0, 1.2))
            assert diffused_variance(p) * diffused_variance(p, 0.5 * np.pi) >= 1.0 - 1e-12

    def test_kurtosis_at_least_three(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            p = StateParams(rng.uniform(0, 1.5), rng.uniform(0, 1), rng.uniform(0, 1.2))
            assert kurtosis_x(p) >= 3.0 - 1e-12


class TestPdf:
    def test_delta_zero_is_single_gaussian(self):
        p = StateParams(0.4, 0.2, 0.0)
        dist = QuadratureDistribution(p)
        v = rotated_variance(p, 0.0)
        x = np.linspace(-4, 4, 33)
        expected = np.exp(-(x**2) / (2 * v)) / np.sqrt(2 * np.pi * v)
        assert np.allclose(dist.pdf(x), expected, rtol=1e-12)

    def test_even_in_x(self):
        dist = QuadratureDistribution(StateParams(0.7, 0.1, 0.3))
        x = np.random.default_rng(8).uniform(0, 8, 100)
        assert np.allclose(dist.pdf(x), dist.pdf(-x), rtol=1e-12)

    def test_normalization(self):
        for params in (StateParams(0.0, 0.0, 0.0), StateParams(0.8, 0.2, 0.4), StateParams(1.0, 0.05, 0.15)):
            for angle in (0.0, 0.5 * np.pi):
                dist = QuadratureDistribution(params, angle)
                total, _ = integrate.quad(dist.pdf, -20, 20, limit=200)
                assert total == pytest.approx(1.0, abs=1e-8)

    def test_positive(self):
        dist = QuadratureDistribution(StateParams(1.0, 0.3, 0.5))
        assert np.all(dist.pdf(np.linspace(-15, 15, 101)) > 0.0)

    def test_cdf_limits_and_center(self):
        dist = QuadratureDistribution(StateParams(0.6, 0.2, 0.3))
        assert dist.cdf(-25.0) == pytest.approx(0.0, abs=1e-10)
        assert dist.cdf(25.0) == pytest.approx(1.0, abs=1e-10)
        assert dist.cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_p_axis_uses_rotated_variance(self):
        p = StateParams(0.5, 0.0, 0.0)
        assert diffused_variance(p, 0.5 * np.pi) == pytest.approx(np.exp(1.0), rel=1e-12)


class TestStandardNormalCdf:
    """The model's Phi, 0.5 erfc(-x / sqrt 2) through math.erfc, against scipy.special.ndtr."""

    def test_within_the_conditioning_bound_of_ndtr(self):
        # Both forms round the argument x sqrt(1/2) the same way, so they differ only by their erfc. The relative
        # condition number of erfc at z is about 2 z^2, so in the lower tail any two implementations drift apart
        # as x^2; measured: at most 3.3 (1 + x^2) ulps on this grid, 9 ulps on [-3, 8], 512 ulps near x = -37.
        x = np.linspace(-37.0, 8.0, 45_001)
        ulps = np.abs(_ndtr(x) - ndtr(x)) / np.spacing(ndtr(x))
        assert np.all(ulps <= 4.0 * (1.0 + x**2))
        assert ulps[x >= -3.0].max() <= 16.0

    def test_far_lower_tail_is_subnormal_where_ndtr_is_zero(self):
        # scipy flushes to 0 below about -37.6; math.erfc keeps subnormals down to about -38.45
        x = np.linspace(-38.4, -37.7, 8)
        assert np.all(ndtr(x) == 0.0)
        got = _ndtr(x)
        assert np.all((got > 0.0) & (got < np.finfo(float).tiny))
        assert np.all(np.diff(got) > 0.0)
        assert _ndtr(np.array([-40.0, -1e300, -np.inf])).tolist() == [0.0, 0.0, 0.0]

    def test_shapes_and_exact_points(self):
        assert _ndtr(0.0) == 0.5 and np.ndim(_ndtr(0.0)) == 0
        assert _ndtr([np.inf, 40.0]).tolist() == [1.0, 1.0]
        assert _ndtr(np.empty((0, 3))).shape == (0, 3)


class TestBinProbability:
    def test_vacuum_central_bin(self):
        dist = QuadratureDistribution(StateParams(0.0, 0.0, 0.0))
        expected = ndtr(0.5) - ndtr(-0.5)
        assert dist.bin_probabilities(1.0, 0) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.38292, abs=5e-6)

    def test_even_in_m(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = StateParams(rng.uniform(0, 1), rng.uniform(0, 0.8), rng.uniform(0, 0.6))
            dist = QuadratureDistribution(p)
            assert dist.bin_probabilities(0.7, 3) == pytest.approx(dist.bin_probabilities(0.7, -3), rel=1e-12)

    def test_sums_to_one(self):
        ms = np.arange(-200, 201)
        for params in (StateParams(0.0, 0.0, 0.0), StateParams(1.0, 0.1, 0.5), StateParams(0.4, 0.6, 0.2)):
            for sigma in (0.1, 0.5, 1.3):
                dist = QuadratureDistribution(params)
                assert dist.bin_probabilities(sigma, ms).sum() == pytest.approx(1.0, abs=1e-8)

    def test_matches_quadrature_oracle(self):
        p = StateParams(0.7, 0.25, 0.3)
        dist = QuadratureDistribution(p)
        for sigma, m in ((0.5, 0), (0.5, 2), (1.0, 1), (1.0, 4)):
            oracle = angle_average(
                lambda th: ndtr((m + 0.5) * sigma / np.sqrt(rotated_variance(p, th)))
                - ndtr((m - 0.5) * sigma / np.sqrt(rotated_variance(p, th))),
                p.delta,
            )
            assert dist.bin_probabilities(sigma, m) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_bad_sigma(self):
        dist = QuadratureDistribution(StateParams(0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            dist.bin_probabilities(0.0, 0)
        with pytest.raises(ValueError, match="positive and finite"):
            dist.bin_probabilities(np.inf, [-1, 0, 1])

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match=f"measurement angle must be finite, got {angle!r}"):
            QuadratureDistribution(StateParams(0.1, 0.0, 0.0), angle)
        with pytest.raises(ValueError, match="measurement angle must be finite"):
            check_angle(angle)

    def test_check_angle_returns_a_finite_angle(self):
        assert check_angle(-7.5) == -7.5 and check_angle(0.0) == 0.0


# the measurement angles between the axes that the angle-taking forms are tested at
BETWEEN_AXES = [0.3, np.pi / 4, 1.0, 2.5]

# an (r, loss, delta) grid with the delta = 0 single-Gaussian case and a spread past pi
GRID = [StateParams(r, loss, delta) for r in (0.0, 0.3, 1.0409) for loss in (0.0, 0.414, 1.0)
        for delta in (0.0, 0.15, 0.5, 2.0)]


class TestAngles:
    @pytest.mark.parametrize("angle", BETWEEN_AXES)
    def test_diffused_variance_is_the_angle_average(self, angle):
        t, w = np.polynomial.hermite.hermgauss(GH_ORDER)
        for p in (StateParams(0.3, 0.2, 0.2), StateParams(1.0409, 0.414, 0.15), StateParams(0.8, 0.1, 0.6)):
            nodes = rotated_variance(p, angle + np.sqrt(2.0) * p.delta * t) @ w / np.sqrt(np.pi)
            assert diffused_variance(p, angle) == pytest.approx(nodes, rel=1e-12)

    @pytest.mark.parametrize("angle", BETWEEN_AXES)
    def test_distribution_variance_is_the_diffused_variance(self, angle):
        dist = QuadratureDistribution(StateParams(0.7, 0.25, 0.3), angle)
        second, _ = integrate.quad(lambda x: x * x * dist.pdf(x), -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
        assert second == pytest.approx(diffused_variance(dist.params, angle), rel=1e-9)

    def test_angle_is_pi_periodic_and_even(self):
        p = StateParams(0.6, 0.2, 0.3)
        for angle in BETWEEN_AXES:
            assert diffused_variance(p, angle + np.pi) == pytest.approx(diffused_variance(p, angle), rel=1e-14)
            assert diffused_variance(p, -angle) == diffused_variance(p, angle)

    @pytest.mark.parametrize("axis, angle", [("x", 0.0), ("p", 0.5 * np.pi)])
    def test_axes_keep_the_named_axis_bits(self, axis, angle):
        m = np.arange(-12, 13)
        for p in GRID:
            assert diffused_variance(p, angle) == axis_diffused_variance(p, axis)
            for sigma in (0.3, 1.0, 2.2):
                got = QuadratureDistribution(p, angle).bin_probabilities(sigma, m)
                assert np.array_equal(got, axis_bin_probabilities(p, axis, sigma, m))
