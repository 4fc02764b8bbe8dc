"""Dataset tests: sampler fidelity, injection/selection pipeline, CSV round trips."""

import errno
import json
import math
import os
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import one_expression_inject, one_expression_sample, one_string_write_csv
from scipy import stats as sps
from scipy.special import ndtri

from quadbin import data as data_module
from quadbin.data import (
    Dataset,
    check_injected_spread,
    check_phase_window,
    check_selection_window,
    inject_phase_noise,
    population,
    read_csv,
    sample_dataset,
    select_phase_window,
    write_csv,
)
from quadbin.errors import CsvFormatError
from quadbin.estimate import db_from_variance, params_from_variances
from quadbin.model import QuadratureDistribution, StateParams, diffused_variance


def biased_var(x):
    return float(((x - x.mean()) ** 2).mean())


class TestDatasetType:
    def test_immutable(self):
        d = Dataset([0.0, 0.1], [1.0, -1.0])
        with pytest.raises(AttributeError):
            d.x = np.zeros(2)
        with pytest.raises(ValueError):
            d.x[0] = 5.0
        with pytest.raises(TypeError):
            d.meta["source"] = "hacked"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([0.0], [np.nan])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([0.0, 1.0], [1.0])

    def test_a_callers_arrays_are_copied(self):
        theta, x = np.array([0.0, 0.1]), np.array([1.0, -1.0])
        d = Dataset(theta, x)
        theta[0] = x[0] = 5.0
        assert d == Dataset([0.0, 0.1], [1.0, -1.0])
        assert theta.flags.writeable and x.flags.writeable

    def test_every_producer_returns_read_only_columns(self, tmp_path):
        d = sample_dataset(StateParams(0.5, 0.1, 0.15), 50, seed=1, phase_window=0.3)
        write_csv(d, tmp_path / "d.csv")
        made_by = [d, inject_phase_noise(d, 0.2, seed=2), select_phase_window(d, 0.0, 0.2), read_csv(tmp_path / "d.csv")]
        for made in made_by:
            assert not made.theta.flags.writeable and not made.x.flags.writeable

    def test_meta_is_read_only_all_the_way_down(self, tmp_path):
        nested = {"source": "x", "parent": {"seed": 1, "cuts": [{"at": 0.5}]}}
        d = Dataset([0.0], [1.0], nested)
        nested["parent"]["seed"] = 99
        nested["parent"]["cuts"][0]["at"] = 9.0
        assert d.meta == {"source": "x", "parent": {"seed": 1, "cuts": ({"at": 0.5},)}}
        with pytest.raises(TypeError):
            d.meta["parent"]["cuts"][0]["at"] = 9.0
        noisy = inject_phase_noise(sample_dataset(StateParams(0.5, 0.1, 0.15), 50, seed=1, phase_window=0.3), 0.2, 2)
        kept = select_phase_window(noisy, 0.0, 0.2)
        with pytest.raises(TypeError):
            kept.meta["parent"]["parent"]["seed"] = 99
        assert noisy.meta["parent"]["seed"] == 1
        write_csv(kept, tmp_path / "kept.csv")
        assert read_csv(tmp_path / "kept.csv").meta == kept.meta

    def test_equality(self):
        a = Dataset([0.0], [1.0], {"source": "x"})
        b = Dataset([0.0], [1.0], {"source": "x"})
        c = Dataset([0.0], [2.0], {"source": "x"})
        assert a == b and a != c


class TestSampler:
    def test_deterministic_byte_for_byte(self):
        p = StateParams(0.4, 0.1, 0.2)
        a = sample_dataset(p, 5000, seed=77)
        b = sample_dataset(p, 5000, seed=77)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.theta.tobytes() == b.theta.tobytes()
        assert dict(a.meta) == dict(b.meta)
        assert sample_dataset(p, 5000, seed=78).x.tobytes() != a.x.tobytes()

    def test_vacuum_variance(self):
        d = sample_dataset(StateParams(0.0, 0.0, 0.0), 100_000, seed=5)
        assert biased_var(d.x) == pytest.approx(1.0, abs=0.01)

    def test_squeezed_target_in_db(self):
        # the anchor state with -2.3 dB squeezing-axis variance
        p = params_from_variances(10**-0.23, 10**0.70, 0.15)
        d = sample_dataset(p, 10_000, seed=21)
        assert abs(db_from_variance(biased_var(d.x)) - (-2.3)) <= 0.1

    def test_theta_column_is_the_angle_spread(self):
        p = StateParams(0.5, 0.1, 0.25)
        d = sample_dataset(p, 200_000, seed=9)
        assert d.theta.std() == pytest.approx(0.25, abs=0.005)
        assert d.theta.mean() == pytest.approx(0.0, abs=0.005)

    def test_p_axis_center(self):
        p = StateParams(0.5, 0.1, 0.2)
        d = sample_dataset(p, 100_000, seed=13, center=np.pi / 2)
        assert biased_var(d.x) == pytest.approx(diffused_variance(p, 0.5 * np.pi), rel=0.02)

    def test_matches_model_distribution(self):
        # two-stage draws against the mixture CDF
        for i, p in enumerate(
            (StateParams(0.0, 0.0, 0.0), StateParams(1.04, 0.41, 0.15), StateParams(0.5, 0.3, 0.4))
        ):
            d = sample_dataset(p, 100_000, seed=100 + i)
            ks = sps.kstest(d.x, QuadratureDistribution(p).cdf)
            assert ks.statistic <= 0.01

    @pytest.mark.parametrize("center", [0.3, np.pi / 4, 1.0, 2.5])
    def test_center_between_axes_has_the_model_variance(self, center):
        p = StateParams(1.0409, 0.414, 0.15)
        x = sample_dataset(p, 200_000, seed=31, center=center).x
        dev2 = (x - x.mean()) ** 2
        se = np.sqrt(((dev2 - dev2.mean()) ** 2).mean() / len(x))
        assert abs(dev2.mean() - diffused_variance(p, center)) <= 5 * se

    @pytest.mark.parametrize("center", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_center_before_any_draw(self, center, monkeypatch):
        def no_draw(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr("quadbin.data._rng", no_draw)
        with pytest.raises(ValueError, match=f"^measurement angle must be finite, got {center!r}$"):
            sample_dataset(StateParams(0.1, 0.0, 0.0), 10, seed=1, center=center)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_dataset(StateParams(0.1, 0.0, 0.0), 0, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            sample_dataset(StateParams(0.1, 0.0, 0.0), 10, seed=-1)

    @pytest.mark.parametrize(
        "window, message",
        [(-1.0, "phase window must be >= 0, got -1.0"), (-np.inf, "phase window must be >= 0, got -inf"),
         (np.nan, "phase window must be finite, got nan"), (np.inf, "phase window must be finite, got inf")],
    )
    def test_window_rule_is_the_one_the_sampler_raises(self, window, message):
        # a NaN window used to sample a constant scan and an infinite one to fail inside numpy's uniform draw
        assert check_phase_window(0.0) == 0.0 and check_phase_window(np.pi) == np.pi
        with pytest.raises(ValueError) as rule:
            check_phase_window(window)
        with pytest.raises(ValueError) as sampler:
            sample_dataset(StateParams(0.1, 0.0, 0.0), 10, seed=1, phase_window=window)
        assert str(rule.value) == str(sampler.value) == message

    def test_metadata(self):
        p = StateParams(0.3, 0.2, 0.1)
        d = sample_dataset(p, 10, seed=3)
        assert d.meta["source"] == "simulated"
        assert population(d.meta) == QuadratureDistribution(p)

    @pytest.mark.parametrize("window, center", [(np.pi, 0.0), (0.3, 0.1)])
    def test_scan_file_has_no_population(self, window, center):
        # a scan spreads the records over a window of angles, which no one measurement angle describes
        p = StateParams(0.3, 0.2, 0.1)
        d = sample_dataset(p, 10, seed=3, phase_window=window, center=center)
        assert population(d.meta) is None
        assert population({**d.meta, "phase_window": 0.0}) == QuadratureDistribution(p, center)

    @pytest.mark.parametrize("center", [np.pi / 2, 0.3, 2.5, -1e-3, -0.0])
    def test_rotated_file_has_the_population_at_its_center(self, center):
        p = StateParams(0.3, 0.2, 0.1)
        dist = population(sample_dataset(p, 10, seed=3, center=center).meta)
        assert dist == QuadratureDistribution(p, center)
        assert math.copysign(1.0, dist.angle) == math.copysign(1.0, center)


def _ndtri_edge_points() -> np.ndarray:
    # 2^-k and 1 - 2^-k, the branch cuts e^-2, 1 - e^-2 and e^-32, and the neighbours of each, inside (0, 1)
    points = [2.0**-k for k in range(1, 54)] + [1.0 - 2.0**-k for k in range(1, 54)]
    points = np.array(points + [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)])
    points = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return np.unique(points[(points > 0.0) & (points < 1.0)])


def _cephes_branch(y: np.ndarray) -> np.ndarray:
    # which rational Cephes evaluates at each y: 0 central, 1 tail with x < 8, 2 tail with x >= 8
    t = np.where(y > 1.0 - 0.13533528323661269189, 1.0 - y, y)
    x = np.sqrt(-2.0 * np.array([math.log(v) for v in t]))
    return np.where(t > 0.13533528323661269189, 0, np.where(x < 8.0, 1, 2))


class TestInverseNormalCdf:
    """The sampler's Cephes ``ndtri`` port against ``scipy.special.ndtri``, bit for bit.

    The coefficients are typed in from Cephes; this comparison is what proves them.
    Both sides call the platform's libm ``log``, so a platform whose scipy links
    another one shows up here.
    """

    @staticmethod
    def assert_bit_equal(y, got, want):
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"{differ.size} of {y.size} differ; first: y = {y[differ[0]]!r}, "
            f"port {got[differ[0]]!r}, scipy {want[differ[0]]!r}"
        )

    def test_seeded_uniforms_as_the_sampler_draws_them(self):
        n = 1_000_000  # not a multiple of the port's block, so the short last block is covered too
        u = np.clip(np.random.default_rng(20240611).random(n), 2.0**-53, None)
        self.assert_bit_equal(u, data_module._standard_normal(np.random.default_rng(20240611), n), ndtri(u))

    def test_edge_points_and_every_branch(self):
        # the sampler reaches x >= 8 (y < e^-32) only at its edge points, so the far tail gets seeded points of its own
        deep = 2.0 ** -np.random.default_rng(7).uniform(46.2, 1022.0, 10_000)
        y = np.concatenate([_ndtri_edge_points(), deep])
        got = y.copy()
        data_module._ndtri_inplace(got)
        want = ndtri(y)
        self.assert_bit_equal(y, got, want)
        hit = set(zip(_cephes_branch(y).tolist(), np.sign(want).tolist()))
        assert {(b, s) for b in (0, 1, 2) for s in (-1.0, 1.0)} <= hit


class TestInPlaceSampler:
    """The in-place sampler and noise injection give the bits of their one-expression forms."""

    @pytest.mark.parametrize("n", [1, 7, data_module._NDTRI_BLOCK - 1, data_module._NDTRI_BLOCK,
                                   data_module._NDTRI_BLOCK + 1, 2 * data_module._NDTRI_BLOCK + 3])
    @pytest.mark.parametrize(
        "delta, window, center",
        [(0.15, 0.0, 0.0), (0.15, math.pi, 0.0), (0.15, 0.3, 0.7), (0.15, 0.0, -1.2), (0.0, 0.0, 0.7),
         (0.0, math.pi, -0.4), (0.0, 0.0, -0.0)],
        ids=["plain", "scan", "scan-centred", "centred", "delta0-centred", "delta0-scan", "delta0-minus0"],
    )
    def test_bits_of_the_one_expression_form(self, n, delta, window, center):
        params = StateParams(1.0409, 0.414, delta)
        d = sample_dataset(params, n, seed=4, phase_window=window, center=center)
        theta, x = one_expression_sample(params, n, 4, window, center)
        assert d.theta.tobytes() == theta.tobytes() and d.x.tobytes() == x.tobytes()
        assert inject_phase_noise(d, 0.34, seed=9).theta.tobytes() == one_expression_inject(d.theta, 0.34, 9).tobytes()

    def test_peaks_on_scan_sized_records(self):
        # 200k records take 1.5 MiB per column, and a Dataset adopts the columns its producer built
        params = StateParams(1.0409, 0.414, 0.15)
        sample_dataset(params, 1, 1, math.pi)  # a process's first draw imports what numpy loads lazily (0.7 MiB)
        tracemalloc.start()
        try:
            d, sample_peak = traced_peak(sample_dataset, params, 200_000, 1, math.pi)
            _, inject_peak = traced_peak(inject_phase_noise, d, 0.34, 9)
            _, select_peak = traced_peak(select_phase_window, d, 0.0, 0.087)
        finally:
            tracemalloc.stop()
        # 10.9 MiB with one whole-array temporary per step, 6.3 with the second normal stream drawn whole and the
        # Dataset's copies of both columns
        assert sample_peak < 4.5 * 2**20
        assert inject_peak < 3.5 * 2**20  # 4.8 MiB with the whole uniform draw and the Dataset's copies
        assert select_peak < 2.5 * 2**20  # 4.6 MiB with one temporary per step of the wrapped angle


class TestInject:
    def test_zero_noise_is_identity(self):
        d = sample_dataset(StateParams(0.2, 0.0, 0.1), 100, seed=1)
        assert inject_phase_noise(d, 0.0, seed=5) is d

    def test_outcomes_untouched_and_theta_variance_adds(self):
        d = sample_dataset(StateParams(0.3, 0.1, 0.2), 200_000, seed=4)
        noisy = inject_phase_noise(d, 0.3, seed=6)
        assert np.array_equal(noisy.x, d.x)
        got = noisy.theta.var() - d.theta.var()
        se = 0.3**2 * np.sqrt(2.0 / d.n) * 3  # 3 sigma on the added variance
        assert abs(got - 0.09) <= 3 * se
        assert population(noisy.meta) is None

    def test_deterministic(self):
        d = sample_dataset(StateParams(0.2, 0.0, 0.1), 1000, seed=1)
        assert np.array_equal(inject_phase_noise(d, 0.2, 9).theta, inject_phase_noise(d, 0.2, 9).theta)

    @pytest.mark.parametrize("delta_e", [np.inf, np.nan])
    def test_rejects_nonfinite_spread(self, delta_e):
        # an empty dataset has no record that would turn non-finite and trip the Dataset check
        with pytest.raises(ValueError, match="finite"):
            inject_phase_noise(Dataset([], []), delta_e, seed=1)

    def test_spread_rule_is_the_one_inject_raises(self):
        assert check_injected_spread(0.3) == 0.3
        with pytest.raises(ValueError, match=r"^injected spread must be >= 0, got -1.0$"):
            check_injected_spread(-1.0)
        with pytest.raises(ValueError, match=r"^injected spread must be >= 0, got -1.0$"):
            inject_phase_noise(Dataset([0.0], [1.0]), -1.0, seed=1)

    def test_overflowing_spread_names_itself(self):
        # a thousand normal deviates hold some beyond 1.8 in size, so a spread of 1e308 overflows float64
        d = Dataset(np.zeros(1000), np.zeros(1000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^injected spread 1e\+308 makes a recorded phase overflow"):
                inject_phase_noise(d, 1e308, seed=1)
        assert np.all(np.isfinite(inject_phase_noise(d, 1e306, seed=1).theta))

    def test_rejects_negative_seed_even_without_noise(self):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            inject_phase_noise(Dataset([0.0], [1.0]), 0.0, seed=-1)


class TestSelect:
    def test_all_zero_thetas_kept(self):
        d = Dataset(np.zeros(50), np.random.default_rng(0).normal(size=50))
        kept = select_phase_window(d, 0.0, 0.087)
        assert kept.n == 50
        assert not kept.meta["empty_selection"]

    def test_uniform_kept_fraction(self):
        rng = np.random.default_rng(31)
        theta = rng.uniform(-np.pi, np.pi, 400_000)
        d = Dataset(theta, np.zeros_like(theta))
        kept = select_phase_window(d, 0.0, 0.087)
        assert kept.n / d.n == pytest.approx(0.087 / np.pi, rel=0.05)

    def test_wraps_to_principal_interval(self):
        d = Dataset([np.pi - 0.01, -np.pi + 0.01, 2 * np.pi + 0.02], [1.0, 2.0, 3.0])
        kept = select_phase_window(d, np.pi, 0.05)
        assert kept.n == 2 and list(kept.x) == [1.0, 2.0]
        near_zero = select_phase_window(d, 0.0, 0.05)
        assert list(near_zero.x) == [3.0]

    def test_preserves_order(self):
        d = Dataset([0.0, 1.0, 0.01, -0.02], [1.0, 2.0, 3.0, 4.0])
        kept = select_phase_window(d, 0.0, 0.1)
        assert list(kept.x) == [1.0, 3.0, 4.0]

    def test_empty_flagged(self):
        d = Dataset([1.0, 2.0], [0.0, 0.0])
        kept = select_phase_window(d, 0.0, 0.01)
        assert kept.n == 0 and kept.meta["empty_selection"]

    def test_selected_file_has_no_population(self):
        d = sample_dataset(StateParams(0.3, 0.2, 0.1), 100, seed=3, center=0.4)
        assert population(select_phase_window(d, 0.4, 0.05).meta) is None

    @pytest.mark.parametrize("center, half_width", [(np.inf, 0.1), (np.nan, 0.1), (0.0, np.inf)])
    def test_rejects_nonfinite_window(self, center, half_width):
        d = Dataset([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            select_phase_window(d, center, half_width)

    def test_window_rule_is_the_one_select_raises(self):
        check_selection_window(0.0, 0.1)
        message = r"^window half-width must be positive, got 0.0$"
        with pytest.raises(ValueError, match=message):
            check_selection_window(0.0, 0.0)
        with pytest.raises(ValueError, match=message):
            select_phase_window(Dataset([0.0], [1.0]), 0.0, 0.0)

    def test_scan_selection_recovers_p_quadrature(self):
        p = StateParams(0.6, 0.2, 0.15)
        d = sample_dataset(p, 400_000, seed=8, phase_window=np.pi)
        kept = select_phase_window(d, np.pi / 2, 0.05)
        assert kept.n > 4000
        assert biased_var(kept.x) == pytest.approx(diffused_variance(p, 0.5 * np.pi), rel=0.05)


class TestScanPipeline:
    def test_injection_then_selection_dilates_the_spread(self):
        # scanned acquisition: adding phase noise and re-selecting the window
        # turns the kept ensemble into the combined-spread state
        delta0, delta_e = 0.15, np.sqrt(0.37**2 - 0.15**2)
        p = StateParams(1.04, 0.41, delta0)
        d = sample_dataset(p, 600_000, seed=42, phase_window=np.pi)
        kept = select_phase_window(inject_phase_noise(d, delta_e, seed=43), 0.0, 0.05)
        combined = StateParams(p.r, p.loss, np.sqrt(delta0**2 + delta_e**2))
        target = diffused_variance(combined)
        v = biased_var(kept.x)
        se = target * np.sqrt(6.0 / kept.n)  # heavy-tailed variance estimate, generous scale
        assert abs(v - target) <= 3 * se


class TestCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        d = sample_dataset(StateParams(0.7, 0.2, 0.3), 1000, seed=11)
        path = tmp_path / "records.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back == d

    def test_layout(self, tmp_path):
        d = Dataset([0.25], [-1.5])
        path = tmp_path / "one.csv"
        write_csv(d, path)
        assert path.read_text() == "theta,x\n0.25,-1.5\n"
        assert (tmp_path / "one.meta.json").exists()

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("theta,x\n")
        assert read_csv(path).n == 0

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,x\n0.0,1.0\n0.01,abc\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,x\n0.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line == 2

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,x\n0.0,inf\n")
        with pytest.raises(CsvFormatError):
            read_csv(path)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("fault", ["header", "line"])
    def test_a_later_undecodable_byte_wins_over_an_earlier_fault(self, tmp_path, eol, fault):
        # the bad header or line sits in the first block and the byte four full blocks on
        rows = 4 * data_module._READ_BLOCK_CHARS // len(b"0.25,-1.5") + 1
        head = b"theta,y" + eol + b"0.5,1.0" if fault == "header" else b"theta,x" + eol + b"0.5,abc"
        path = tmp_path / "late.csv"
        path.write_bytes(head + eol + (b"0.25,-1.5" + eol) * rows + b"0.5,\xff" + eol)
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}: line {rows + 3}: not UTF-8 text"
        assert err.value.line == rows + 3

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_bytes_report_line(self, tmp_path, eol):
        # 0xff, an encoded surrogate, an overlong "/", a stray continuation byte and a lead byte the file ends on:
        # strict UTF-8 rejects each, and surrogateescape reads each as lone surrogates, which read_csv looks for
        path = tmp_path / "bad.csv"
        for bad in (b"\xff" + eol, b"\xed\xa0\x80" + eol, b"\xc0\xaf" + eol, b"\x80" + eol, b"\xc3"):
            path.write_bytes(eol.join([b"theta,x", b"0.0,1.0", b"0.5," + bad]))
            with pytest.raises(CsvFormatError) as err:
                read_csv(path)
            assert err.value.line == 3
            assert str(err.value) == f"{path}: line 3: not UTF-8 text"

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_across_read_boundaries(self, tmp_path, eol):
        # the text layer decodes 8192 bytes at a time, and read_csv reads _READ_BLOCK_CHARS characters at a time;
        # each leading zero moves every line end one byte on, so over one row's length of pads a line end meets
        # each such boundary at each offset, a "\r\n" cut in two by it among them
        row = b"0.25,-1.5" + eol
        path = tmp_path / "boundary.csv"
        for pad in range(len(row)):
            path.write_bytes(b"theta,x" + eol + b"0" * pad + row * (2 * data_module._READ_BLOCK_CHARS // len(row)))
            expected = read_outcome(reference_read_csv, path)
            assert expected[0] == "data"
            assert read_outcome(read_csv, path) == expected

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line == 1

    def test_ingested_without_sidecar(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("theta,x\n0.0,0.5\n")
        d = read_csv(path)
        assert d.meta["source"] == "ingested"
        assert population(d.meta) is None

    @pytest.mark.parametrize(
        "key, value",
        [("center", None), ("center", math.nan), ("center", -math.inf), ("center", "x"), ("r", None), ("loss", 2.0)],
        ids=["no-center", "center-nan", "center-minus-inf", "center-text", "no-r", "loss-2"],
    )
    def test_sidecar_it_cannot_read_has_no_population(self, tmp_path, key, value):
        # None drops the key; a JSON NaN or -Infinity reads back as that float, which check_angle rejects
        path = tmp_path / "a.csv"
        write_csv(sample_dataset(StateParams(0.3, 0.2, 0.1), 10, seed=3, center=0.7), path)
        sidecar = path.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
        assert population(read_csv(path).meta) is None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
class TestPipedInput:
    """read_csv makes one forward pass and never seeks, so it reads a pipe as it reads a file."""

    @staticmethod
    def pipe_of(tmp_path, data: bytes) -> Path:
        """A named pipe that a writer thread fills with ``data`` once a reader opens it."""
        path = tmp_path / "piped.csv"
        os.mkfifo(path)
        threading.Thread(target=path.write_bytes, args=(data,), daemon=True).start()
        return path

    def test_records_read_bit_for_bit(self, tmp_path):
        d = sample_dataset(StateParams(1.0409, 0.414, 0.15), 20_000, seed=5, phase_window=3.0)
        write_csv(d, tmp_path / "records.csv")
        path = self.pipe_of(tmp_path, (tmp_path / "records.csv").read_bytes())
        expected = ("data", d.theta.tobytes(), d.x.tobytes(), {"source": "ingested", "path": str(path)})
        assert read_outcome(read_csv, path) == expected

    def test_a_later_undecodable_byte_wins_over_an_earlier_bad_line(self, tmp_path):
        rows = 4 * data_module._READ_BLOCK_CHARS // len(b"0.25,-1.5\n") + 1
        path = self.pipe_of(tmp_path, b"theta,x\n0.5,abc\n" + b"0.25,-1.5\n" * rows + b"0.5,\xff\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}: line {rows + 3}: not UTF-8 text"
        assert err.value.line == rows + 3


class FileFullAfter:
    """An open text file whose writes fail with EFBIG after the first ``writes``, as past RLIMIT_FSIZE."""

    def __init__(self, writes, fh):
        self.writes, self.fh = writes, fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if self.writes == 0:
            raise OSError(errno.EFBIG, "File too large")
        self.writes -= 1
        return self.fh.write(text)


# theta and x values whose shortest repr is long, short, signed zero, subnormal or at the float range's ends
EDGE_RECORDS = Dataset(
    [0.1, -0.0, 5e-324, 1e308, -2.5e-07, 1e22, 123456789.0, 0.30000000000000004, math.pi],
    [-1.7976931348623157e308, 2.2250738585072014e-308, 1.0, -0.5, 0.0, 1e-05, 7.0, -math.e, 1e16],
    {"source": "ingested", "path": "edge.csv"},
)


class TestBlockWrite:
    """write_csv writes a block of rows at a time: the bytes of the one-string writer, and no stale sidecar."""

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 9])  # 0, 1, B - 1, B, B + 1 and 2B + 1 rows at B = 4
    def test_blocks_write_the_bytes_of_one_string(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(data_module, "_WRITE_BLOCK_ROWS", 4)
        d = Dataset(EDGE_RECORDS.theta[:n], EDGE_RECORDS.x[:n], EDGE_RECORDS.meta)
        write_csv(d, tmp_path / "blocks.csv")
        one_string_write_csv(d, tmp_path / "one.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert (tmp_path / "blocks.meta.json").read_bytes() == (tmp_path / "one.meta.json").read_bytes()

    def test_full_sized_blocks_write_the_bytes_of_one_string(self, tmp_path):
        d = sample_dataset(StateParams(1.0409, 0.414, 0.15), 2 * data_module._WRITE_BLOCK_ROWS + 1, seed=3)
        write_csv(d, tmp_path / "blocks.csv")
        one_string_write_csv(d, tmp_path / "one.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_a_write_cut_short_reads_back_as_ingested(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        write_csv(sample_dataset(StateParams(1.0, 0.0, 0.0), 10, seed=1), path)
        new = sample_dataset(StateParams(0.2, 0.0, 0.0), 10, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(data_module, "_WRITE_BLOCK_ROWS", 4)
            patch.setattr(data_module, "open", lambda *args, **kw: FileFullAfter(2, open(*args, **kw)), raising=False)
            with pytest.raises(OSError, match="File too large"):
                write_csv(new, path)
        # the header and one block of the new rows made it; the old dataset's sidecar did not survive them
        assert not (tmp_path / "a.meta.json").exists()
        back = read_csv(path)
        assert back == Dataset(new.theta[:4], new.x[:4], {"source": "ingested", "path": str(path)})
        assert population(back.meta) is None


def traced_peak(fn, *args):
    """``fn(*args)`` and the bytes tracemalloc saw it hold at its peak, above what was held before the call."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - before


class TestCsvMemory:
    """CSV I/O memory is set by its blocks, not by the file (7.4 MiB of text for 200k scan records)."""

    def test_peaks_on_a_scan_sized_file(self, tmp_path):
        d = sample_dataset(StateParams(1.0409, 0.414, 0.15), 200_000, seed=1, phase_window=math.pi)
        path = tmp_path / "scan.csv"
        tracemalloc.start()
        try:
            _, write_peak = traced_peak(write_csv, d, path)
            back, read_peak = traced_peak(read_csv, path)
        finally:
            tracemalloc.stop()
        assert back == d
        assert write_peak < 4 * 2**20  # 32.9 MiB as one string: 200k line strings and two joined copies
        # 31.8 MiB with one splitlines() list of the file, 15.8 MiB with its whole text and, while decoded, its bytes,
        # 6.3 MiB with every parsed block kept for one concatenation and the Dataset's copies of the columns
        assert read_peak < 4.5 * 2**20

    @pytest.mark.parametrize("eol", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_a_cr_only_file_is_read_in_blocks_too(self, tmp_path, eol):
        # the characters read predict a CRLF file's rows high by the share of its line ends in its bytes
        d = sample_dataset(StateParams(1.0409, 0.414, 0.15), 200_000, seed=1, phase_window=math.pi)
        path = tmp_path / "scan.csv"
        write_csv(d, path)
        path.write_bytes(path.read_bytes().replace(b"\n", eol))
        tracemalloc.start()
        try:
            back, read_peak = traced_peak(read_csv, path)
        finally:
            tracemalloc.stop()
        assert back == d
        assert read_peak < 4.5 * 2**20  # 37.0 MiB when a file with no line feed was one block

    def test_a_bad_last_line_is_read_in_its_block(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_csv(sample_dataset(StateParams(1.0409, 0.414, 0.15), 200_000, seed=1, phase_window=math.pi), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0.5,oops\n")
        tracemalloc.start()  # the peak below is what read_csv held: nothing else is traced
        try:
            with pytest.raises(CsvFormatError) as err:
                read_csv(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: line 200002: could not parse '0.5,oops'"
        assert err.value.line == 200_002
        assert read_peak < 4.5 * 2**20  # 28.5 MiB when the whole file went back to the line loop as one list


def reference_read_csv(path) -> Dataset:
    """read_csv as one per-line loop over the whole file's text, the form before the block-wise vectorized parse."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # on the line splitlines() gives the text before the byte, counted from 1
        line = len((raw[: exc.start].decode("utf-8") + "\0").splitlines())
        raise CsvFormatError(f"{path}: line {line}: not UTF-8 text", line=line) from None
    if not lines or lines[0].strip() != "theta,x":
        raise CsvFormatError(f"{path}: line 1: expected header {'theta,x'!r}", line=1)
    thetas = np.empty(len(lines) - 1)
    xs = np.empty(len(lines) - 1)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}: line {i}: expected two comma-separated fields", line=i)
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise CsvFormatError(f"{path}: line {i}: could not parse {line!r}", line=i) from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise CsvFormatError(f"{path}: line {i}: non-finite value", line=i)
        thetas[i - 2], xs[i - 2] = t, v
    meta_file = path.with_suffix(".meta.json")
    if meta_file.exists():
        with open(meta_file, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    else:
        meta = {"source": "ingested", "path": str(path)}
    return Dataset(thetas, xs, meta)


def read_outcome(read, path):
    """What one reader makes of a file: the bytes of both columns and the metadata, or the error and its line."""
    try:
        d = read(path)
    except CsvFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("data", d.theta.tobytes(), d.x.tobytes(), dict(d.meta))


# fields float() reads and numpy's parser does not, or reads differently, or that neither reads; "\udcff" is written
# as the byte 0xff, which is not UTF-8
HAZARD_FIELDS = [
    "", " ", "\t", "#", "#1", "1_0", "\uff11", "\u0663", "\xa01", "1\xa0", "\u20001", "\x1f1", "1\x1f",
    "nan", "-nan", "NaN", "Infinity", "-inf", "1e400", "-1e400", "1e", "0x1p3", "1d5", "+.5", "1.", '"1"', "1 2",
    "-0.0", "1e308", "-1e308", "5e-324", "2.2250738585072014e-308", "\udcff", "1\udcff",
]
FIELDS = st.one_of(
    st.floats().map(repr),  # shortest repr, subnormals, -0.0, +-inf and nan among them
    st.sampled_from(HAZARD_FIELDS),
    st.text(alphabet="0123456789.-+eE_ #\t\r\x0b\x1f\xa0\uff11\udcffnaif", max_size=5),
)
LINES = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.floats().map(repr)).map(",".join),
    st.lists(FIELDS, min_size=1, max_size=3).map(",".join),  # one, two or three fields
    st.sampled_from(["", " ", "\t ", "\xa0"]),  # blank and whitespace-only lines
)


class TestVectorizedRead:
    """read_csv's one-call parse returns what the per-line loop returns, and leaves every error to it."""

    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("vectorized")

    @settings(max_examples=300, deadline=None)
    @given(body=st.lists(LINES, max_size=6), newline=st.sampled_from(["\n", "\r\n", "\r"]), trailing=st.booleans())
    @example(body=[], newline="\n", trailing=True)
    @example(body=["0.5,1.0", "", "1.0,2.0"], newline="\n", trailing=True)
    @example(body=["", ""], newline="\n", trailing=True)
    @example(body=["0.5,1.0", "  "], newline="\n", trailing=True)
    @example(body=["1.0", "2.0"], newline="\n", trailing=True)
    @example(body=["1.0,2.0,3.0"], newline="\n", trailing=True)
    @example(body=["#,1.0"], newline="\n", trailing=True)
    @example(body=["1_0,2.0"], newline="\n", trailing=True)
    @example(body=["\uff11,2.0", "\xa01.0,2.0\xa0"], newline="\n", trailing=True)
    @example(body=["\x1f1.0,2.0"], newline="\n", trailing=True)
    @example(body=["0.5,\r1.0"], newline="\n", trailing=False)
    @example(body=["nan,1.0"], newline="\n", trailing=True)
    @example(body=["Infinity,1.0"], newline="\n", trailing=True)
    @example(body=["0.0,1e400"], newline="\n", trailing=True)
    @example(body=["-0.0,5e-324", "1e308,-1e308", "2.2250738585072014e-308,0.1"], newline="\r\n", trailing=False)
    @example(body=["0.1,0.2", "0.5,\udcff"], newline="\r", trailing=True)
    @example(body=["0.5,abc", "0.5,1.0\x0b0.5,\udcff"], newline="\n", trailing=True)
    def test_agrees_with_the_line_loop(self, csv_dir, body, newline, trailing):
        path = csv_dir / "records.csv"
        text = newline.join(["theta,x", *body]) + (newline if trailing else "")
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body with no data; read_csv must not
            outcome = read_outcome(read_csv, path)
        assert outcome == read_outcome(reference_read_csv, path)

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("theta,x\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_csv(path).n == 0

    def test_written_records_never_reach_the_line_loop(self, tmp_path, monkeypatch):
        d = sample_dataset(StateParams(1.0409, 0.414, 0.15), 20_000, seed=5, phase_window=3.0)
        path = tmp_path / "records.csv"
        write_csv(d, path)
        expected = read_outcome(reference_read_csv, path)

        def no_loop(path, lines, first):
            raise AssertionError("a file write_csv wrote went to the line loop")

        monkeypatch.setattr(data_module, "_line_records", no_loop)
        assert read_outcome(read_csv, path) == expected
        assert read_csv(path) == d


class TestSmallReadBlocks(TestVectorizedRead):
    """TestVectorizedRead again with the read cut into blocks of a few characters.

    At 1 character every line end ends a block, so cuts land just after the header, after each "\\r\\n", between
    empty and bad lines and before a last line without a line feed; at 16 a block holds one to a few lines.
    """

    @pytest.fixture(scope="class", autouse=True, params=[1, 16])
    def read_block(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "_READ_BLOCK_CHARS", request.param)
            yield request.param

    def test_blocks_end_right_after_a_line_feed(self, tmp_path, monkeypatch, read_block):
        path = tmp_path / "records.csv"
        path.write_bytes(b"theta,x\r\n0.5,1.0\r\n1.5,2.0\n2.5,3.0")
        parsed, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda body, **kw: parsed.append(list(body)) or loadtxt(body, **kw))
        assert read_csv(path) == Dataset([0.5, 1.5, 2.5], [1.0, 2.0, 3.0], {"source": "ingested", "path": str(path)})
        blocks = {1: [["0.5,1.0"], ["1.5,2.0"], ["2.5,3.0"]], 16: [["0.5,1.0"], ["1.5,2.0", "2.5,3.0"]]}
        assert parsed == blocks[read_block]

    def test_blocks_end_right_after_a_lone_carriage_return(self, tmp_path, monkeypatch, read_block):
        path = tmp_path / "records.csv"
        path.write_bytes(b"theta,x\r0.5,1.0\r1.5,2.0\r2.5,3.0\r")  # the first 16 bytes end in a carriage return
        parsed, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda body, **kw: parsed.append(list(body)) or loadtxt(body, **kw))
        assert read_csv(path) == Dataset([0.5, 1.5, 2.5], [1.0, 2.0, 3.0], {"source": "ingested", "path": str(path)})
        blocks = {1: [["0.5,1.0"], ["1.5,2.0"], ["2.5,3.0"]], 16: [["0.5,1.0"], ["1.5,2.0", "2.5,3.0"]]}
        assert parsed == blocks[read_block]
