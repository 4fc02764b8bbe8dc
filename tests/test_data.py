"""Dataset tests: sampler fidelity, injection/selection pipeline, CSV round trips."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from quadbin import data as data_module
from quadbin.data import (
    Dataset,
    check_injected_spread,
    check_phase_window,
    check_selection_window,
    inject_phase_noise,
    read_csv,
    sample_dataset,
    select_phase_window,
    simulation_params,
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
        assert biased_var(d.x) == pytest.approx(diffused_variance(p, "p"), rel=0.02)

    def test_matches_model_distribution(self):
        # two-stage draws against the mixture CDF
        for i, p in enumerate(
            (StateParams(0.0, 0.0, 0.0), StateParams(1.04, 0.41, 0.15), StateParams(0.5, 0.3, 0.4))
        ):
            d = sample_dataset(p, 100_000, seed=100 + i)
            ks = sps.kstest(d.x, QuadratureDistribution(p, "x").cdf)
            assert ks.statistic <= 0.01

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
        assert simulation_params(d.meta) == p


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
        assert simulation_params(noisy.meta) is None

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
        assert biased_var(kept.x) == pytest.approx(diffused_variance(p, "p"), rel=0.05)


class TestScanPipeline:
    def test_injection_then_selection_dilates_the_spread(self):
        # scanned acquisition: adding phase noise and re-selecting the window
        # turns the kept ensemble into the combined-spread state
        delta0, delta_e = 0.15, np.sqrt(0.37**2 - 0.15**2)
        p = StateParams(1.04, 0.41, delta0)
        d = sample_dataset(p, 600_000, seed=42, phase_window=np.pi)
        kept = select_phase_window(inject_phase_noise(d, delta_e, seed=43), 0.0, 0.05)
        combined = StateParams(p.r, p.loss, np.sqrt(delta0**2 + delta_e**2))
        target = diffused_variance(combined, "x")
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

    def test_undecodable_bytes_report_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"theta,x\n0.0,1.0\n0.5,\xff\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: not UTF-8 text"

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
        assert simulation_params(d.meta) is None


def reference_read_csv(path) -> Dataset:
    """read_csv as one per-line loop, the form before the vectorized parse; the fast path must agree with it."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
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


# fields float() reads and numpy's parser does not, or reads differently, or that neither reads
HAZARD_FIELDS = [
    "", " ", "\t", "#", "#1", "1_0", "\uff11", "\u0663", "\xa01", "1\xa0", "\u20001", "\x1f1", "1\x1f",
    "nan", "-nan", "NaN", "Infinity", "-inf", "1e400", "-1e400", "1e", "0x1p3", "1d5", "+.5", "1.", '"1"', "1 2",
    "-0.0", "1e308", "-1e308", "5e-324", "2.2250738585072014e-308",
]
FIELDS = st.one_of(
    st.floats().map(repr),  # shortest repr, subnormals, -0.0, +-inf and nan among them
    st.sampled_from(HAZARD_FIELDS),
    st.text(alphabet="0123456789.-+eE_ #\t\r\x0b\x1f\xa0\uff11naif", max_size=5),
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
    @given(body=st.lists(LINES, max_size=6), newline=st.sampled_from(["\n", "\r\n"]), trailing=st.booleans())
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
    def test_agrees_with_the_line_loop(self, csv_dir, body, newline, trailing):
        path = csv_dir / "records.csv"
        path.write_bytes(newline.join(["theta,x", *body]).encode("utf-8") + (newline.encode() if trailing else b""))
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

        def no_loop(path, body):
            raise AssertionError("a file write_csv wrote went to the line loop")

        monkeypatch.setattr(data_module, "_line_columns", no_loop)
        assert read_outcome(read_csv, path) == expected
        assert read_csv(path) == d
