"""Bootstrap and violation-degree tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import per_record_ratio

from quadbin.data import Dataset, sample_dataset
from quadbin.detect import analytic_three_bin_R, moment_matrix_from_moments, normally_ordered_moments
from quadbin.errors import UndefinedStatisticError
from quadbin.model import QuadratureDistribution, StateParams
from quadbin.stats import (
    REPLACEMENT,
    SUBSAMPLE,
    BootstrapSpec,
    ViolationReport,
    bootstrap,
    compare_methods,
    detector_reports,
    resample_indices,
    resample_values,
    significant,
    spread,
    three_bin_cells,
    three_bin_statistic,
)

VACUUM_DATA = sample_dataset(StateParams(0.0, 0.0, 0.0), 10_000, seed=60)


def report(samples, method="three-bin", **params):
    """The violation report of ``samples`` taken as one bootstrap of ``method``."""
    return ViolationReport.of(method, params, np.asarray(samples, dtype=float))


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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 5, 0), "resample size must be >= 1"),
            ((None, 1, 0), "need at least two resamples"),
            ((None, 5, -1), "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_every_field_is_checked_without_a_pool(self, args, message):
        with pytest.raises(ValueError) as err:
            BootstrapSpec(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "size, mode, pool, want",
        [(None, REPLACEMENT, 10, 10), (None, SUBSAMPLE, 10, 2), (None, SUBSAMPLE, 3, 1), (7, SUBSAMPLE, 10, 7)],
    )
    def test_sized_sets_the_default_for_the_pool(self, size, mode, pool, want):
        spec = BootstrapSpec(size, 5, 0, mode)
        assert spec.sized(pool) == BootstrapSpec(want, 5, 0, mode)
        assert resample_indices(spec, pool, 0).size == want

    @pytest.mark.parametrize("size", [None, 4])
    def test_empty_pool_has_nothing_to_resample(self, size):
        with pytest.raises(UndefinedStatisticError, match="^the input holds no records to resample$"):
            BootstrapSpec(size, 5, 0).sized(0)


class TestResampleValues:
    def test_returns_one_row_per_component_with_nan_kept(self):
        pool = np.arange(30, dtype=float)
        spec = BootstrapSpec(10, 6, 4, SUBSAMPLE)
        values = resample_values(spec, [pool.size], [0], lambda i: [pool[i][0], np.nan])
        assert values.shape == (2, 6)
        assert np.isnan(values[1]).all()
        assert np.array_equal(values[0], [pool[resample_indices(spec, 30, b)][0] for b in range(6)])

    def test_default_size_is_set_by_the_smallest_pool(self):
        spec = BootstrapSpec(None, 3, 2, REPLACEMENT)
        values = resample_values(spec, [40, 12], [1, 2], lambda i, j: [i.size, j.size, j.max()])
        assert values[:2].tolist() == [[12] * 3] * 2
        assert (values[2] < 12).all()


# the bin size the pool's edges are placed at, then 1e200 (every ratio overflows or is undefined) and the
# smallest subnormal, where x / sigma overflows to +-inf for every record but 0
GRID_SIGMAS = (0.3, 1.0, 1.3)
EXTREME_SIGMAS = (1e200, 5e-324)


@st.composite
def edge_pools(draw):
    """A bin size and a pool of bin edges (k +- 1/2) sigma, their float neighbours, 0, +-1e200 and ties."""
    sigma = draw(st.sampled_from(GRID_SIGMAS))
    edges = [(k + 0.5) * sigma for k in range(-5, 5)]
    values = edges + [np.nextafter(v, s) for v in edges for s in (-np.inf, np.inf)] + [0.0, 1e200, -1e200]
    return sigma, np.array(draw(st.lists(st.sampled_from(values), min_size=1, max_size=40)))


class TestThreeBinCells:
    """The count-cell ratios, and the public statistic, are bit for bit the per-record ratios of the same resamples."""

    @settings(max_examples=200, deadline=None)
    # every record in the centre bin: both side bins are empty
    @example(pool=(1.0, np.zeros(7)), d=1, mode=SUBSAMPLE, size_frac=0.5, seed=0)
    # no record in the centre bin
    @example(pool=(1.0, np.array([-1.0, 1.0, -2.0, 2.0, 3.0])), d=2, mode=REPLACEMENT, size_frac=1.0, seed=1)
    @given(
        pool=edge_pools(),
        d=st.sampled_from([1, 2, 3]),
        mode=st.sampled_from([SUBSAMPLE, REPLACEMENT]),
        size_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_per_record_statistic(self, pool, d, mode, size_frac, seed):
        sigma, x = pool
        sigmas = [sigma, *EXTREME_SIGMAS]
        spec = BootstrapSpec(max(1, round(size_frac * x.size)), 8, seed, mode)
        with np.errstate(all="ignore"):
            cells = resample_values(spec, [x.size], [0], three_bin_cells(x, sigmas, d))
            reference = resample_values(spec, [x.size], [0], lambda i: [per_record_ratio(x[i], s, d) for s in sigmas])
            whole = three_bin_cells(x, sigmas, d)(np.arange(x.size))
            public = [three_bin_statistic(s, d)(x) for s in sigmas]
            point = [per_record_ratio(x, s, d) for s in sigmas]
        assert np.array_equal(cells, reference, equal_nan=True)
        assert np.array_equal(whole, point, equal_nan=True)
        assert np.array_equal(public, point, equal_nan=True)

    def test_public_statistic_of_no_records_is_nan(self):
        # no record, so no centre bin; the pools above hold at least one record
        assert np.isnan(three_bin_statistic(1.0, 1)([])) and np.isnan(per_record_ratio([], 1.0, 1))


class TestViolationReportOf:
    def test_pins_nan_to_zero_and_counts_it(self):
        res = ViolationReport.of("three-bin", {}, np.array([0.5, np.nan, 1.5, np.nan]))
        pinned = np.array([0.5, 0.0, 1.5, 0.0])
        assert res.n_flagged == 2
        assert res.mean == 0.5 == float(pinned.mean())
        assert res.std == spread(pinned) > 0.0

    def test_finite_values_stay_bit_identical(self):
        # the mean and spread are those of the values themselves, not of a copy that moved a bit
        values = np.random.default_rng(5).normal(0.6, 0.04, 50)
        res = ViolationReport.of("three-bin", {}, values)
        assert res.n_flagged == 0
        assert res.mean == float(values.mean()) and res.std == float(np.std(values))


class TestBootstrap:
    def test_deterministic(self):
        spec = BootstrapSpec(5_000, 20, 123, SUBSAMPLE)
        a, b = (bootstrap(VACUUM_DATA, spec, three_bin_cells(VACUUM_DATA.x, [1.0], 1), "three-bin", {}) for _ in "ab")
        assert a.mean == b.mean and a.std == b.std and a == b
        stat = three_bin_cells(VACUUM_DATA.x, [1.0], 1)
        assert np.array_equal(*(resample_values(spec, [VACUUM_DATA.n], [0], stat) for _ in "ab"))

    def test_constant_statistic_has_zero_spread(self):
        spec = BootstrapSpec(100, 10, 0, REPLACEMENT)
        res = bootstrap(VACUUM_DATA, spec, lambda i: 1.0, "three-bin", {})
        assert res.std == 0.0 and res.mean == 1.0 and res.v is None

    def test_vacuum_ratio_sits_at_the_classical_boundary(self):
        spec = BootstrapSpec(10_000, 100, 7, REPLACEMENT)
        res = bootstrap(VACUUM_DATA, spec, three_bin_cells(VACUUM_DATA.x, [1.0], 1), "three-bin", {})
        analytic = analytic_three_bin_R(QuadratureDistribution(StateParams(0.0, 0.0, 0.0)), 1.0, 1)
        assert abs(res.mean - 1.0) <= 3 * res.std
        assert abs(res.mean - analytic) <= 3 * res.std

    def test_flags_degenerate_resamples(self):
        # one lonely outlying record: many resamples will miss bin 3
        x = np.concatenate([np.zeros(200), [3.0]])
        data = Dataset(np.zeros_like(x), x)
        spec = BootstrapSpec(201, 50, 11, REPLACEMENT)
        res = bootstrap(data, spec, three_bin_cells(data.x, [1.0], 3), "three-bin", {"sigma": 1.0, "d": 3})
        assert 0 < res.n_flagged <= 50
        assert np.isfinite(res.mean)

    def test_spread_scales_with_resample_size(self):
        # quadrupling the resample size should halve the spread; the ratio is
        # averaged over repetitions since a single std of B values is noisy
        pool = sample_dataset(StateParams(0.5, 0.2, 0.2), 40_000, seed=70)
        stat = three_bin_cells(pool.x, [1.0], 1)
        ratios = []
        for rep in range(10):
            small = bootstrap(pool, BootstrapSpec(10_000, 100, 700 + rep, REPLACEMENT), stat, "three-bin", {})
            large = bootstrap(pool, BootstrapSpec(40_000, 100, 800 + rep, REPLACEMENT), stat, "three-bin", {})
            ratios.append(small.std / large.std)
        assert 1.6 <= np.mean(ratios) <= 2.4


class TestViolationReports:
    def test_bin_report_reference_numbers(self):
        rep = report([0.56, 0.60, 0.64], sigma=1.0, d=1)
        assert rep.std == pytest.approx(np.sqrt(2 / 3) * 0.04, rel=1e-12)
        rep_paper = report(np.full(4, 0.60) + np.array([-0.04, 0.04, -0.04, 0.04]))
        assert rep_paper.mean == pytest.approx(0.60)
        assert rep_paper.v == pytest.approx(10.0, rel=1e-12)
        assert rep_paper.detected

    def test_bin_boundary_gives_zero(self):
        rep = report([0.9, 1.1, 1.0, 1.0])
        assert rep.v == 0.0 and not rep.detected

    def test_bin_no_detection_is_negative(self):
        rep = report(np.full(4, 4.53) + np.array([-0.74, 0.74, -0.74, 0.74]))
        assert rep.v == pytest.approx((1 - 4.53) / 0.74, rel=1e-12)
        assert rep.v == pytest.approx(-4.77, abs=0.01)

    def test_moment_report_reference_numbers(self):
        rep = report(np.full(4, -0.411) + np.array([-0.0411, 0.0411, -0.0411, 0.0411]), "moment", n=2)
        assert rep.v == pytest.approx(10.0, rel=1e-12)
        zero = report([-0.1, 0.1, -0.1, 0.1], "moment")
        assert zero.v == 0.0
        classical = report(np.full(4, 0.1) + np.array([-0.05, 0.05, -0.05, 0.05]), "moment")
        assert classical.v == pytest.approx(-2.0, rel=1e-12)
        assert not classical.detected

    def test_zero_spread_rejected(self):
        rep = report(np.ones(5))
        assert rep.v is None and not rep.detected
        with pytest.raises(ValueError):
            significant([rep])

    def test_equal_samples_have_zero_spread(self):
        # the rounded mean leaves np.std of equal values a few ulps above zero
        assert np.full(100, 1.0833).std() > 0.0
        assert spread(np.full(100, 1.0833)) == 0.0
        with pytest.raises(UndefinedStatisticError):
            significant([report(np.full(100, 1.0833))])
        with pytest.raises(UndefinedStatisticError):
            significant([report(np.full(20, -0.4137135046258556), "moment")])
        samples = np.array([0.56, 0.60, 0.64])
        assert spread(samples) == np.std(samples)

    def test_rounding_level_spread_is_zero(self):
        # reorderings of one pool give the same estimate up to a few ulps
        ulps = np.nextafter(-0.4137135046258556, 0.0) - -0.4137135046258556
        assert spread(-0.4137135046258556 + ulps * np.array([0, 3, 7, 1])) == 0.0
        assert spread(np.array([1.0, 1.0 + 1e-12])) > 0.0

    def test_sign_matches_mean_versus_limit(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            samples = rng.normal(rng.uniform(0.3, 1.7), 0.05, 50)
            rep = report(samples)
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
            r_vals.append(per_record_ratio(xs, 1.0, 1))
            moms = normally_ordered_moments(xs, 6)
            l2.append(moment_matrix_from_moments(moms, 2))
            l4.append(moment_matrix_from_moments(moms, 4))
        assert reports[0].mean == pytest.approx(np.mean(r_vals), abs=0.0)
        assert reports[1].mean == pytest.approx(np.mean(l2), abs=0.0)
        assert reports[2].mean == pytest.approx(np.mean(l4), abs=0.0)

    @pytest.mark.parametrize("mode", [SUBSAMPLE, REPLACEMENT])
    def test_detector_rows_are_paired_across_calls(self, mode):
        # every row is resampled on stream 0, so a row does not depend on which other rows share its call
        data = sample_dataset(StateParams(0.8, 0.3, 0.25), 6_000, seed=92)
        spec = BootstrapSpec(None, 25, 3, mode)
        sigmas, orders = [0.6, 1.0, 1.7], [2, 3, 5]
        both, both_points = detector_reports(data, spec, sigmas, 2, orders)
        ratio, ratio_points = detector_reports(data, spec, sigmas, 2)
        moment, moment_points = detector_reports(data, spec, orders=orders)
        assert [rep.method for rep in both] == ["three-bin"] * 3 + ["moment"] * 3
        assert [rep.params for rep in both] == [{"sigma": s, "d": 2} for s in sigmas] + [{"n": n} for n in orders]
        assert both == ratio + moment
        assert both_points == ratio_points + moment_points
        assert compare_methods(data, 1.0, 2, [5, 2, 3, 2], spec) == [both[1], *moment]

    def test_same_seed_identical_reports(self):
        data = sample_dataset(StateParams(0.6, 0.2, 0.3), 5_000, seed=91)
        spec = BootstrapSpec(5_000, 20, 5, REPLACEMENT)
        a = compare_methods(data, 1.0, 1, [2, 3], spec)
        b = compare_methods(data, 1.0, 1, [2, 3], spec)
        assert [(r.mean, r.std, r.v) for r in a] == [(r.mean, r.std, r.v) for r in b]

    def test_statistic_under_bootstrap_matches_module_degenerate_policy(self):
        stat = three_bin_statistic(1.0, 2)
        assert np.isnan(stat(np.zeros(50)))

    def test_statistic_rejects_nonpositive_bin_distance(self):
        for d in (0, -1):
            with pytest.raises(ValueError, match="bin distance"):
                three_bin_statistic(1.0, d)


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
                r_vals.append(three_bin_statistic(1.0, 1)(data.x))
                moms = normally_ordered_moments(data.x, 6)
                for n in lams:
                    lams[n].append(moment_matrix_from_moments(moms, n))
            r_vals = np.array(r_vals)
            assert r_vals.mean() >= 1.0 - 2 * r_vals.std()
            for n, vals in lams.items():
                vals = np.array(vals)
                assert vals.mean() >= -2 * vals.std()
