"""Model-layer tests: closed forms against brute-force angle quadrature."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from quadbin.model import (
    QuadratureDistribution,
    StateParams,
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
        assert diffused_variance(p, "x") == pytest.approx(1.0, abs=1e-14)
        assert diffused_variance(p, "p") == pytest.approx(1.0, abs=1e-14)
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
        assert diffused_variance(p, "x") == pytest.approx(0.1 + 0.9 * np.exp(-1.0), rel=1e-12)

    def test_variance_frozen_oracle_value(self):
        p = StateParams(0.3, 0.2, 0.2)
        assert diffused_variance(p, "x") == pytest.approx(ORACLE_VAR_X_030_020_020, abs=1e-12)
        assert diffused_variance(p, "p") == pytest.approx(ORACLE_VAR_P_030_020_020, abs=1e-12)

    def test_large_delta_symmetrizes_both_axes(self):
        p = StateParams(0.4, 0.15, 60.0)
        limit = p.loss + (1 - p.loss) * np.cosh(2 * p.r)
        assert diffused_variance(p, "x") == pytest.approx(limit, rel=1e-12)
        assert diffused_variance(p, "p") == pytest.approx(limit, rel=1e-12)

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
                    assert diffused_variance(p, "x") == pytest.approx(vx, rel=1e-10)
                    assert diffused_variance(p, "p") == pytest.approx(vp, rel=1e-10)
                    assert kurtosis_x(p) == pytest.approx(k, rel=1e-10)

    def test_squeezed_axis_never_exceeds_antisqueezed(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = StateParams(rng.uniform(0.01, 1.2), rng.uniform(0, 0.95), rng.uniform(0, 1.0))
            assert diffused_variance(p, "x") <= diffused_variance(p, "p") + 1e-14

    def test_uncertainty_product_at_least_one(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            p = StateParams(rng.uniform(0, 1.5), rng.uniform(0, 1), rng.uniform(0, 1.2))
            assert diffused_variance(p, "x") * diffused_variance(p, "p") >= 1.0 - 1e-12

    def test_kurtosis_at_least_three(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            p = StateParams(rng.uniform(0, 1.5), rng.uniform(0, 1), rng.uniform(0, 1.2))
            assert kurtosis_x(p) >= 3.0 - 1e-12


class TestPdf:
    def test_delta_zero_is_single_gaussian(self):
        p = StateParams(0.4, 0.2, 0.0)
        dist = QuadratureDistribution(p, "x")
        v = rotated_variance(p, 0.0)
        x = np.linspace(-4, 4, 33)
        expected = np.exp(-(x**2) / (2 * v)) / np.sqrt(2 * np.pi * v)
        assert np.allclose(dist.pdf(x), expected, rtol=1e-12)

    def test_even_in_x(self):
        dist = QuadratureDistribution(StateParams(0.7, 0.1, 0.3), "x")
        x = np.random.default_rng(8).uniform(0, 8, 100)
        assert np.allclose(dist.pdf(x), dist.pdf(-x), rtol=1e-12)

    def test_normalization(self):
        for params in (StateParams(0.0, 0.0, 0.0), StateParams(0.8, 0.2, 0.4), StateParams(1.0, 0.05, 0.15)):
            for axis in ("x", "p"):
                dist = QuadratureDistribution(params, axis)
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
        dist = QuadratureDistribution(p, "p")
        assert dist.variance() == pytest.approx(np.exp(1.0), rel=1e-12)


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

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            QuadratureDistribution(StateParams(0.1, 0.0, 0.0), "q")
