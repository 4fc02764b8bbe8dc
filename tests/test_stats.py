"""Bootstrap and violation-degree tests."""

import numpy as np
import pytest

from quadbin.data import Dataset, sample_dataset
from quadbin.detect import analytic_three_bin_R, moment_matrix_from_moments, normally_ordered_moments
from quadbin.errors import UndefinedStatisticError
from quadbin.model import QuadratureDistribution, StateParams
from quadbin.stats import (
    REPLACEMENT,
    SUBSAMPLE,
    BootstrapSpec,
    bootstrap,
    compare_methods,
    min_eigenvalue_statistic,
    resample_indices,
    spread,
    three_bin_statistic,
    violation_bin,
    violation_moment,
)

VACUUM_DATA = sample_dataset(StateParams(0.0, 0.0, 0.0), 10_000, seed=60)


class TestSpecValidation:
    def test_rejects_tiny_resample_count(self):
        with pytest.raises(ValueError):
            BootstrapSpec(10, 1, 0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            BootstrapSpec(10, 5, 0, "jackknife")

    def test_subsample_needs_big_enough_pool(self):
        spec = BootstrapSpec(100, 5, 0, SUBSAMPLE)
        with pytest.raises(ValueError):
            resample_indices(spec, 50, 0)


class TestBootstrap:
    def test_deterministic(self):
        spec = BootstrapSpec(5_000, 20, 123, SUBSAMPLE)
        a = bootstrap(VACUUM_DATA, spec, three_bin_statistic(1.0, 1))
        b = bootstrap(VACUUM_DATA, spec, three_bin_statistic(1.0, 1))
        assert a.mean == b.mean and a.std == b.std
        assert np.array_equal(a.samples, b.samples)

    def test_constant_statistic_has_zero_spread(self):
        spec = BootstrapSpec(100, 10, 0, REPLACEMENT)
        res = bootstrap(VACUUM_DATA, spec, lambda x: (1.0, False))
        assert res.std == 0.0 and res.mean == 1.0

    def test_vacuum_ratio_sits_at_the_classical_boundary(self):
        spec = BootstrapSpec(10_000, 100, 7, REPLACEMENT)
        res = bootstrap(VACUUM_DATA, spec, three_bin_statistic(1.0, 1))
        analytic = analytic_three_bin_R(QuadratureDistribution(StateParams(0.0, 0.0, 0.0)), 1.0, 1)
        assert abs(res.mean - 1.0) <= 3 * res.std
        assert abs(res.mean - analytic) <= 3 * res.std

    def test_flags_degenerate_resamples(self):
        # one lonely outlying record: many resamples will miss bin 3
        x = np.concatenate([np.zeros(200), [3.0]])
        data = Dataset(np.zeros_like(x), x)
        spec = BootstrapSpec(201, 50, 11, REPLACEMENT)
        res = bootstrap(data, spec, three_bin_statistic(1.0, 3))
        assert 0 < res.n_flagged <= 50
        assert np.isfinite(res.mean)

    def test_spread_scales_with_resample_size(self):
        # quadrupling the resample size should halve the spread; the ratio is
        # averaged over repetitions since a single std of B values is noisy
        pool = sample_dataset(StateParams(0.5, 0.2, 0.2), 40_000, seed=70)
        stat = three_bin_statistic(1.0, 1)
        ratios = []
        for rep in range(10):
            small = bootstrap(pool, BootstrapSpec(10_000, 100, 700 + rep, REPLACEMENT), stat)
            large = bootstrap(pool, BootstrapSpec(40_000, 100, 800 + rep, REPLACEMENT), stat)
            ratios.append(small.std / large.std)
        assert 1.6 <= np.mean(ratios) <= 2.4


class TestViolationReports:
    def test_bin_report_reference_numbers(self):
        rep = violation_bin(np.array([0.56, 0.60, 0.64]), sigma=1.0, d=1)
        assert rep.std == pytest.approx(np.sqrt(2 / 3) * 0.04, rel=1e-12)
        rep_paper = violation_bin(np.full(4, 0.60) + np.array([-0.04, 0.04, -0.04, 0.04]))
        assert rep_paper.mean == pytest.approx(0.60)
        assert rep_paper.v == pytest.approx(10.0, rel=1e-12)
        assert rep_paper.detected

    def test_bin_boundary_gives_zero(self):
        rep = violation_bin(np.array([0.9, 1.1, 1.0, 1.0]))
        assert rep.v == 0.0 and not rep.detected

    def test_bin_no_detection_is_negative(self):
        rep = violation_bin(np.full(4, 4.53) + np.array([-0.74, 0.74, -0.74, 0.74]))
        assert rep.v == pytest.approx((1 - 4.53) / 0.74, rel=1e-12)
        assert rep.v == pytest.approx(-4.77, abs=0.01)

    def test_moment_report_reference_numbers(self):
        rep = violation_moment(np.full(4, -0.411) + np.array([-0.0411, 0.0411, -0.0411, 0.0411]), n=2)
        assert rep.v == pytest.approx(10.0, rel=1e-12)
        zero = violation_moment(np.array([-0.1, 0.1, -0.1, 0.1]))
        assert zero.v == 0.0
        classical = violation_moment(np.full(4, 0.1) + np.array([-0.05, 0.05, -0.05, 0.05]))
        assert classical.v == pytest.approx(-2.0, rel=1e-12)
        assert not classical.detected

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            violation_bin(np.ones(5))

    def test_equal_samples_have_zero_spread(self):
        # the rounded mean leaves np.std of equal values a few ulps above zero
        assert np.full(100, 1.0833).std() > 0.0
        assert spread(np.full(100, 1.0833)) == 0.0
        with pytest.raises(UndefinedStatisticError):
            violation_bin(np.full(100, 1.0833))
        with pytest.raises(UndefinedStatisticError):
            violation_moment(np.full(20, -0.4137135046258556))
        samples = np.array([0.56, 0.60, 0.64])
        assert spread(samples) == np.std(samples)

    def test_sign_matches_mean_versus_limit(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            samples = rng.normal(rng.uniform(0.3, 1.7), 0.05, 50)
            rep = violation_bin(samples)
            assert (rep.v > 0) == (rep.mean < 1.0)


class TestCompareMethods:
    def test_paired_resamples_reproducible_by_hand(self):
        data = sample_dataset(StateParams(0.8, 0.3, 0.25), 8_000, seed=90)
        spec = BootstrapSpec(8_000, 30, 17, REPLACEMENT)
        reports = compare_methods(data, 1.0, 1, [2, 4], spec)

        # reproduce every method from the same published index stream
        r_vals, l2, l4 = [], [], []
        for b in range(spec.n_resamples):
            xs = data.x[resample_indices(spec, data.n, b)]
            r_vals.append(three_bin_statistic(1.0, 1)(xs)[0])
            moms = normally_ordered_moments(xs, 6)
            l2.append(moment_matrix_from_moments(moms, 2).lambda_min)
            l4.append(moment_matrix_from_moments(moms, 4).lambda_min)
        assert reports[0].mean == pytest.approx(np.mean(r_vals), abs=0.0)
        assert reports[1].mean == pytest.approx(np.mean(l2), abs=0.0)
        assert reports[2].mean == pytest.approx(np.mean(l4), abs=0.0)

    def test_same_seed_identical_reports(self):
        data = sample_dataset(StateParams(0.6, 0.2, 0.3), 5_000, seed=91)
        spec = BootstrapSpec(5_000, 20, 5, REPLACEMENT)
        a = compare_methods(data, 1.0, 1, [2, 3], spec)
        b = compare_methods(data, 1.0, 1, [2, 3], spec)
        assert [(r.mean, r.std, r.v) for r in a] == [(r.mean, r.std, r.v) for r in b]

    def test_statistic_under_bootstrap_matches_module_degenerate_policy(self):
        stat = three_bin_statistic(1.0, 2)
        value, flagged = stat(np.zeros(50))
        assert value == 0.0 and flagged


class TestNoFalsePositives:
    def test_classical_states_stay_classical(self):
        # vacuum, lossy vacuum and diffused vacuum over repeated experiments
        for i, params in enumerate(
            (StateParams(0.0, 0.0, 0.0), StateParams(0.0, 0.3, 0.0), StateParams(0.0, 0.2, 0.4))
        ):
            r_vals = []
            lams = {n: [] for n in (2, 3, 4)}
            for trial in range(50):
                data = sample_dataset(params, 10_000, seed=3_000 + 100 * i + trial)
                r_vals.append(three_bin_statistic(1.0, 1)(data.x)[0])
                moms = normally_ordered_moments(data.x, 6)
                for n in lams:
                    lams[n].append(moment_matrix_from_moments(moms, n).lambda_min)
            r_vals = np.array(r_vals)
            assert r_vals.mean() >= 1.0 - 2 * r_vals.std()
            for n, vals in lams.items():
                vals = np.array(vals)
                assert vals.mean() >= -2 * vals.std()
