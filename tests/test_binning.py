"""Binning tests: index convention, histogram consistency, refinement nesting."""

from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtr

from quadbin.binning import bin_indices, check_bin_size, histogram
from quadbin.data import Dataset, sample_dataset
from quadbin.model import QuadratureDistribution, StateParams


class TestBinIndex:
    def test_direct_arithmetic(self):
        assert bin_indices([0.74], 0.5).tolist() == [1]  # bin 1 covers [0.25, 0.75)

    def test_center(self):
        for sigma in (0.1, 0.5, 1.0, 2.7):
            assert bin_indices([0.0], sigma).tolist() == [0]

    def test_right_boundary_goes_right(self):
        assert bin_indices([0.75], 0.5).tolist() == [2]
        assert bin_indices([1.5], 1.0).tolist() == [2]
        assert bin_indices([-0.5], 1.0).tolist() == [0]  # left edge belongs to the bin

    def test_far_outcomes_keep_bins_of_their_own(self):
        # an int64 cast would wrap every index beyond about 9.2e18 to -2**63
        far = [1e200, -1e200, 1e19, 0.0]
        assert len(set(bin_indices(far, 1.0).tolist())) == 4
        assert histogram(far, 1.0) == {int(-1e200): 1, 0: 1, int(1e19): 1, int(1e200): 1}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bin_indices([np.nan], 1.0)
        with pytest.raises(ValueError):
            bin_indices(np.array([1.0, np.inf]), 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            bin_indices([1.0], 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            bin_indices([1.0], np.inf)

    def test_bin_size_rule_returns_the_value_or_names_it(self):
        assert check_bin_size(0.5) == 0.5
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=rf"^bin size must be positive and finite, got {bad!r}$"):
                check_bin_size(bad)


class TestHistogram:
    def test_empty_dataset(self):
        assert histogram(Dataset([], []).x, 1.0) == {}

    def test_total_equals_dataset_size(self):
        data = sample_dataset(StateParams(0.4, 0.2, 0.3), 5000, seed=2)
        assert sum(histogram(data.x, 0.7).values()) == data.n

    def test_vacuum_central_fraction(self):
        data = sample_dataset(StateParams(0.0, 0.0, 0.0), 100_000, seed=12)
        h = histogram(data.x, 1.0)
        assert h[0] / data.n == pytest.approx(ndtr(0.5) - ndtr(-0.5), abs=0.005)

    def test_counts_match_bin_index(self):
        x = np.random.default_rng(3).normal(0, 1, 400)
        h = histogram(x, 0.5)
        for m, count in h.items():
            assert count == int(np.sum(bin_indices(x, 0.5) == m))

    @pytest.mark.parametrize("x, index", [(1e308, "inf"), (-1e308, "-inf")])
    def test_overflowing_bin_index_is_named(self, x, index):
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            histogram([x, 0.0], 1e-10)
        assert str(err.value) == f"bin index of an outcome overflows to {index} at bin size 1e-10"

    def test_multinomial_convergence(self):
        # empirical frequencies track the model bin masses on random states
        rng = np.random.default_rng(42)
        n = 20_000
        for trial in range(20):
            p = StateParams(rng.uniform(0.1, 0.8), rng.uniform(0, 0.6), rng.uniform(0, 0.5))
            sigma = rng.uniform(0.3, 1.2)
            data = sample_dataset(p, n, seed=1000 + trial)
            h = histogram(data.x, sigma)
            dist = QuadratureDistribution(p)
            ms = np.arange(-30, 31)
            probs = dist.bin_probabilities(sigma, ms)
            for m, pm in zip(ms, probs):
                if pm > 1e-4:
                    bound = 5.0 * np.sqrt(pm * (1 - pm) / n)
                    assert abs(h.get(m, 0) / n - pm) <= bound

    def test_scale_covariance_counts_bit_exact(self):
        # doubling both the outcomes and the bin size cannot move any count
        x = np.random.default_rng(9).normal(0, 1.3, 10_000)
        assert histogram(x, 0.7) == histogram(2.0 * x, 1.4)


class TestRefinement:
    def test_threefold_refinement_merges_exactly(self):
        # center-aligned bins nest only under odd refinement factors: fine
        # bins 3m - 1, 3m, 3m + 1 of width sigma / 3 make up coarse bin m
        x = np.random.default_rng(17).normal(0, 2.0, 50_000)
        sigma = 0.75
        fine = bin_indices(x, sigma / 3.0)
        assert np.array_equal(np.floor(fine / 3.0 + 0.5), bin_indices(x, sigma))

    def test_merge_shards(self):
        x = np.random.default_rng(23).normal(0, 1, 9000)
        whole = histogram(x, 0.4)
        parts = Counter(histogram(x[:4000], 0.4)) + Counter(histogram(x[4000:], 0.4))
        assert parts == whole and parts.total() == x.size
