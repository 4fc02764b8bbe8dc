"""Command-line tests: outputs, determinism, exit codes, config layering."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import per_record_ratio

import quadbin
from quadbin.binning import check_bin_size
from quadbin.cli import COMMANDS, OPTIONS, _flag, main
from quadbin.data import (
    Dataset,
    check_injected_spread,
    check_phase_window,
    check_seed,
    inject_phase_noise,
    read_csv,
    sample_dataset,
    select_phase_window,
    write_csv,
)
from quadbin.detect import check_bin_distance, check_moment_order, moment_matrix_from_moments, normally_ordered_moments
from quadbin.errors import EstimationError
from quadbin.estimate import db_from_variance, estimate_params, params_from_variances, summarize
from quadbin.fock import check_cutoff
from quadbin.model import StateParams
from quadbin.stats import REPLACEMENT, SUBSAMPLE, BootstrapSpec, resample_indices

ANCHOR = StateParams(1.0409, 0.414, 0.15)


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The README's 40k-record run.csv (simulate ... --n 40000 --seed 7)."""
    path = tmp_path_factory.mktemp("readme") / "run.csv"
    write_csv(sample_dataset(ANCHOR, 40_000, seed=7), path)
    return str(path)


def write_records(path, xs):
    write_csv(Dataset(np.zeros(len(xs)), np.array(xs, dtype=float)), path)
    return str(path)


def write_pinning_file(path, xs):
    """200 records at x = 0 plus ``xs``: with --d 3 most resamples miss a side bin and are pinned."""
    return write_records(path, np.concatenate([np.zeros(200), xs]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def run_process(cwd, *argv):
    """Run ``python -m quadbin.cli`` as its own process, where numpy warnings reach stderr as they would for a user."""
    src = str(Path(quadbin.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "quadbin.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def assert_one_json_answer(code, out, err):
    """A failure writes exactly one JSON error to stderr; a success writes strict JSON to stdout and nothing to stderr."""
    if code:
        assert json.loads(err)["error"]["exit_code"] == code, err
    else:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)


class TestSimulate:
    def test_writes_files_and_reports(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, payload, _ = run(
            capsys, "simulate", "--r", "0.3", "--loss", "0.1", "--delta", "0.15",
            "--n", "10000", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert payload["n"] == 10000
        assert out.exists() and (tmp_path / "s.meta.json").exists()
        assert payload["config"]["seed"] == 7

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["simulate", "--r", "0.4", "--loss", "0.2", "--delta", "0.1",
                "--n", "2000", "--seed", "3", "--out", str(tmp_path / "a.csv")]
        code, first, _ = run(capsys, *args)
        blob1 = (tmp_path / "a.csv").read_bytes()
        meta1 = (tmp_path / "a.meta.json").read_bytes()
        code, second, _ = run(capsys, *args)
        assert code == 0
        assert first == second
        assert (tmp_path / "a.csv").read_bytes() == blob1
        assert (tmp_path / "a.meta.json").read_bytes() == meta1

    def test_target_db_reaches_requested_variance(self, capsys, tmp_path):
        code, payload, _ = run(
            capsys, "simulate", "--target-db", "-2.3", "--loss", "0.37", "--delta", "0.15",
            "--n", "10000", "--seed", "27", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        assert abs(payload["var_x_db"] - (-2.3)) <= 0.1

    def test_reported_variance_is_the_biased_sample_variance(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, payload, _ = run(
            capsys, "simulate", "--r", "0.3", "--loss", "0.1", "--delta", "0.15",
            "--n", "3000", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        x = read_csv(out).x
        assert payload["var_x_db"] == pytest.approx(db_from_variance(np.mean((x - np.mean(x)) ** 2)), abs=0.0)

    def test_requires_exactly_one_amplitude_option(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--loss", "0.1", "--out", str(tmp_path / "x.csv"))
        assert code == 1 and err["error"]["exit_code"] == 1
        code, _, err = run(
            capsys, "simulate", "--r", "0.2", "--target-db", "-1.0", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1

    def test_invalid_params_exit_usage(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--r", "0.2", "--loss", "1.4", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1


class TestThreeBinCommand:
    def test_reports_statistic_and_analytic(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        run(capsys, "simulate", "--r", "0.5", "--loss", "0.1", "--delta", "0.1",
            "--n", "20000", "--seed", "4", "--out", str(path))
        code, payload, _ = run(
            capsys, "three-bin", "--in", str(path), "--sigma", "1.0", "--d", "1",
            "--bootstrap", "50", "--seed", "8",
        )
        assert code == 0
        assert payload["nonclassical"] is True
        assert payload["analytic"] is not None
        assert abs(payload["r_mean"] - payload["analytic"]) < 6 * payload["r_std"]

    def test_missing_file_is_a_data_error(self, capsys):
        code, _, err = run(capsys, "three-bin", "--in", "/nonexistent.csv")
        assert code == 2 and err["error"]["exit_code"] == 2

    def test_malformed_file_is_a_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta,x\n0.0,whoops\n")
        code, _, err = run(capsys, "three-bin", "--in", str(bad))
        assert code == 2 and "line 2" in err["error"]["message"]

    def test_zero_spread_is_a_data_error(self, capsys, tmp_path):
        # no record at -3, so every resample is pinned to the same value
        path = write_pinning_file(tmp_path / "d.csv", [3.0])
        code, _, err = run(capsys, "three-bin", "--in", path, "--d", "3")
        assert code == 2 and err["error"]["exit_code"] == 2
        assert err["error"]["type"] == "UndefinedStatisticError" and "spread is zero" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["three-bin", "compare"])
    def test_whole_pool_resamples_are_a_data_error(self, capsys, small_files, command):
        # every resample is the whole pool, so every ratio is the same number
        code, _, err = run(capsys, command, "--in", small_files["x"], "--resample-size", "400", "--bootstrap", "20")
        assert code == 2 and err["error"]["exit_code"] == 2
        assert err["error"]["type"] == "UndefinedStatisticError" and "spread is zero" in err["error"]["message"]


class TestSweepCommand:
    def test_single_step_matches_three_bin(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        run(capsys, "simulate", "--r", "0.6", "--loss", "0.2", "--delta", "0.2",
            "--n", "20000", "--seed", "5", "--out", str(path))
        common = ["--d", "1", "--bootstrap", "40", "--seed", "9",
                  "--mode", "resample-with-replacement", "--resample-size", "20000"]
        code, single, _ = run(
            capsys, "sweep-sigma", "--in", str(path), "--sigma-from", "0.8", "--sigma-to", "0.8",
            "--steps", "1", "--out", str(tmp_path / "sweep.csv"), *common,
        )
        assert code == 0
        code, direct, _ = run(capsys, "three-bin", "--in", str(path), "--sigma", "0.8", *common)
        assert single["min_r_mean"] == direct["r_mean"]
        assert single["min_r_std"] == direct["r_std"]

    def test_emits_csv_rows(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        run(capsys, "simulate", "--r", "0.4", "--loss", "0.1", "--delta", "0.1",
            "--n", "5000", "--seed", "6", "--out", str(path))
        out = tmp_path / "sweep.csv"
        code, payload, _ = run(
            capsys, "sweep-sigma", "--in", str(path), "--sigma-from", "0.5", "--sigma-to", "1.5",
            "--steps", "5", "--d", "1", "--bootstrap", "20", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma,r_mean,r_std,r_analytic,nonclassical,n_flagged"
        assert len(lines) == 6

    def test_all_pinned_rows_are_never_detections(self, capsys, tmp_path):
        path = write_pinning_file(tmp_path / "d.csv", [3.0, -3.0])
        out = tmp_path / "sweep.csv"
        code, payload, _ = run(capsys, "sweep-sigma", "--in", path, "--d", "3", "--steps", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        # only sigma = 0.9 puts both side records into the d = 3 bins; the other rows are all pinned
        assert [int(row["n_flagged"]) for row in rows] == [100, 88, 100, 100, 100]
        assert [row["nonclassical"] for row in rows] == ["0", "1", "0", "0", "0"]
        assert payload["min_sigma"] == float(rows[1]["sigma"])
        assert payload["min_r_mean"] == float(rows[1]["r_mean"]) > 0.0

    def test_whole_pool_rows_have_zero_spread(self, capsys, tmp_path, readme_run):
        # every resample is a reordering of the pool, so each ratio differs only by rounding
        out = tmp_path / "sweep.csv"
        code, payload, _ = run(
            capsys, "sweep-sigma", "--in", readme_run, "--resample-size", "40000", "--steps", "3",
            "--bootstrap", "20", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [row["r_std"] for row in rows] == ["0.0"] * 3
        # a ratio with no spread has no violation degree, so no row is a detection
        assert [row["nonclassical"] for row in rows] == ["0"] * 3
        assert payload["min_r_std"] == 0.0

    def test_huge_bin_width_is_a_pinned_row(self, capsys, tmp_path, readme_run):
        # the analytic ratio at sigma = 1e200 has no finite value; it no longer raises OverflowError
        out = tmp_path / "sweep.csv"
        code, payload, _ = run(
            capsys, "sweep-sigma", "--in", readme_run, "--sigma-from", "1", "--sigma-to", "1e200", "--steps", "2",
            "--out", str(out),
        )
        assert code == 0 and payload["min_sigma"] == 1.0
        lines = out.read_text().splitlines()
        huge = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert (huge["sigma"], huge["r_analytic"], huge["nonclassical"], huge["n_flagged"]) == ("1e+200", "nan", "0", "100")

    def test_every_row_pinned_is_a_data_error(self, capsys, tmp_path):
        path = write_pinning_file(tmp_path / "d.csv", [3.0])
        code, _, err = run(capsys, "sweep-sigma", "--in", path, "--d", "3", "--out", str(tmp_path / "sweep.csv"))
        assert code == 2 and err["error"]["exit_code"] == 2
        assert err["error"]["type"] == "UndefinedStatisticError"


class TestMomentsCommand:
    def test_rows_for_each_order(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        run(capsys, "simulate", "--r", "0.5", "--loss", "0.1", "--delta", "0.1",
            "--n", "10000", "--seed", "3", "--out", str(path))
        code, payload, _ = run(
            capsys, "moments", "--in", str(path), "--n-max", "4", "--bootstrap", "30", "--seed", "1",
        )
        assert code == 0
        assert [row["n"] for row in payload["rows"]] == [2, 3, 4]
        assert payload["rows"][0]["nonclassical"] is True  # squeezed state

    def test_point_is_the_full_data_moment_matrix(self, capsys, small_files):
        code, payload, _ = run(capsys, "moments", "--in", small_files["x"], "--bootstrap", "5")
        assert code == 0
        data = read_csv(small_files["x"])
        assert [row["n"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
        for row in payload["rows"]:
            lam = moment_matrix_from_moments(normally_ordered_moments(data.x, 2 * row["n"] - 2), row["n"])
            assert row["lambda_point"] == pytest.approx(lam, abs=0.0)

    def test_equal_resamples_have_no_violation_degree(self, capsys, tmp_path):
        # every resample of constant records gives the same eigenvalues, whose np.std is a few ulps
        path = write_records(tmp_path / "flat.csv", [0.7] * 8)
        code, payload, _ = run(capsys, "moments", "--in", path, "--n-max", "3")
        assert code == 0
        assert [(row["lambda_std"], row["v"], row["nonclassical"]) for row in payload["rows"]] == [(0.0, None, False)] * 2

    def test_whole_pool_resamples_have_no_violation_degree(self, capsys, readme_run):
        # reorderings of one pool round the Hermite means a few ulps apart; that is no spread
        code, payload, _ = run(capsys, "moments", "--in", readme_run, "--resample-size", "40000", "--bootstrap", "20")
        assert code == 0
        assert [(row["lambda_std"], row["v"], row["nonclassical"]) for row in payload["rows"]] == [(0.0, None, False)] * 5


class TestEstimateCommand:
    def test_recovers_simulation_parameters(self, capsys, tmp_path):
        anchor = params_from_variances(10**-0.23, 10**0.70, 0.15)
        px, pp = tmp_path / "x.csv", tmp_path / "p.csv"
        run(capsys, "simulate", "--r", repr(anchor.r), "--loss", repr(anchor.loss),
            "--delta", "0.15", "--n", "20000", "--seed", "41", "--out", str(px))
        run(capsys, "simulate", "--r", repr(anchor.r), "--loss", repr(anchor.loss),
            "--delta", "0.15", "--n", "20000", "--seed", "42", "--center", repr(np.pi / 2),
            "--out", str(pp))
        code, payload, _ = run(
            capsys, "estimate", "--in-x", str(px), "--in-p", str(pp), "--bootstrap", "40", "--seed", "2",
        )
        assert code == 0
        assert abs(payload["delta"] - 0.15) <= 4 * payload["std_delta"]
        assert abs(payload["r"] - anchor.r) <= 4 * payload["std_r"]
        assert abs(payload["l"] - anchor.loss) <= 4 * payload["std_l"]
        assert payload["var_x_db"] == pytest.approx(-2.3, abs=0.2)

    def test_unphysical_inputs_are_a_numeric_failure(self, capsys, tmp_path):
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        rng = np.random.default_rng(1)
        wide.write_text("theta,x\n" + "\n".join(f"0.0,{float(v)!r}" for v in rng.normal(0, 1.5, 500)) + "\n")
        narrow.write_text("theta,x\n" + "\n".join(f"0.0,{float(v)!r}" for v in rng.normal(0, 0.7, 500)) + "\n")
        code, _, err = run(capsys, "estimate", "--in-x", str(wide), "--in-p", str(narrow))
        assert code == 3 and err["error"]["exit_code"] == 3


class TestDegenerateInput:
    """Data that fix no statistic and files that cannot be read exit 2, failed numerics exit 3, bad bin sizes and
    distances and oversized flags are usage errors."""

    HUGE = [1e200, -1e200] * 4
    NORMAL = list(np.random.default_rng(4).normal(0, 1, 400))

    @pytest.mark.parametrize(
        "argv, files, code",
        [
            (["sweep-sigma", "--in", "{a}", "--out", "{out}"], {"a": []}, 2),
            (["moments", "--in", "{a}"], {"a": []}, 2),
            (["compare", "--in", "{a}"], {"a": []}, 2),
            (["estimate", "--in-x", "{a}", "--in-p", "{b}"], {"a": [0.5], "b": [1.0, -1.0, 2.0]}, 2),
            (["estimate", "--in-x", "{a}", "--in-p", "{b}"], {"a": [0.5] * 4, "b": [1.0, -1.0, 2.0]}, 2),
            (["estimate", "--in-x", "{a}", "--in-p", "{b}"], {"a": HUGE, "b": [1.0, -1.0, 2.0]}, 2),
            (["estimate", "--in-x", "{a}", "--in-p", "{b}"], {"a": [1e100, -1e100, 0.0], "b": [1.0, -1.0, 2.0]}, 2),
            # heavy-tailed x (kurtosis 4.5) passes every check before the variance sum overflows
            (["estimate", "--in-x", "{a}", "--in-p", "{b}"], {"a": [-3.0, 3.0] + [0.0] * 7, "b": [1e80, -1e80] * 4}, 3),
            # the bootstrap plan is checked before the read, so a bad one wins over a failing inversion
            (["estimate", "--in-x", "{a}", "--in-p", "{b}", "--bootstrap", "1"],
             {"a": NORMAL, "b": [0.1, -0.1, 0.2]}, 1),
            # overflowing moments are a data error, as they are for estimate, before any eigensolve
            (["moments", "--in", "{a}"], {"a": HUGE}, 2),
            (["moments", "--in", "{a}", "--n-max", "2", "--bootstrap", "5"], {"a": HUGE[:4]}, 2),
            (["compare", "--in", "{a}", "--bootstrap", "5"], {"a": HUGE}, 2),
            (["moments", "--in", "{a}", "--resample-size", "5"], {"a": [0.1, 1.2, -1.3]}, 1),
            (["sweep-sigma", "--in", "{a}", "--d", "0", "--steps", "3", "--out", "{out}"], {"a": NORMAL}, 1),
            (["sweep-sigma", "--in", "{a}", "--d", "-1", "--steps", "3", "--out", "{out}"], {"a": NORMAL}, 1),
            (["compare", "--in", "{a}", "--d", "0", "--bootstrap", "5"], {"a": NORMAL}, 1),
            (["compare", "--in", "{a}", "--d", "-1", "--bootstrap", "5"], {"a": NORMAL}, 1),
            (["three-bin", "--in", "{a}", "--sigma", "inf", "--bootstrap", "5"], {"a": NORMAL}, 1),
            (["compare", "--in", "{a}", "--sigma", "inf", "--bootstrap", "5"], {"a": NORMAL}, 1),
            # an empty central bin in the whole input is empty in every resample: all are pinned
            (["three-bin", "--in", "{a}", "--bootstrap", "5"], {"a": [-1.0, 1.0, -1.2, 1.1] * 5}, 2),
            (["moments", "--in", "{a}", "--n-max", "1", "--bootstrap", "5"], {"a": NORMAL}, 1),
            (["moments", "--in", "{a}", "--n-max", "9", "--bootstrap", "5"], {"a": NORMAL}, 1),
            (["compare", "--in", "{a}", "--n-list", "9", "--bootstrap", "5"], {"a": NORMAL}, 1),
            # an unsupported order is rejected before any moment of that order is computed
            (["moments", "--in", "{a}", "--n-max", "100000000", "--bootstrap", "5"], {"a": NORMAL}, 1),
            (["compare", "--in", "{a}", "--n-list", "100000000", "--bootstrap", "5"], {"a": NORMAL}, 1),
            # a cutoff above fock.MAX_CUTOFF is rejected before its Fock matrices are allocated
            (["ep", "--r", "1", "--cutoff", "100000"], {}, 1),
            # a file that cannot be read or decoded is a data error, whichever option names it
            (["three-bin", "--in", "{dir}"], {}, 2),
            (["simulate", "--r", "0.3", "--n", "10", "--out", "{dir}"], {}, 2),
            (["ep", "--r", "1", "--config", "{dir}"], {}, 2),
            (["three-bin", "--in", "{a}"], {"a": b"\x89PNG\r\n\x1a\n\x00\x00"}, 2),
            # the metadata sidecar is read with the records, and one that is not a JSON object is a data error
            (["three-bin", "--in", "{a}"], {"a": NORMAL, "a.meta.json": b"{not json"}, 2),
            (["three-bin", "--in", "{a}"], {"a": NORMAL, "a.meta.json": b"[1,2]"}, 2),
        ],
        ids=[
            "sweep-no-records", "moments-no-records", "compare-no-records", "estimate-one-record",
            "estimate-constant", "estimate-moment-overflow", "estimate-kurtosis-overflow",
            "estimate-variance-sum-overflow", "estimate-bad-plan-before-failed-inversion", "moments-eigensolve-fails",
            "moments-order-2-nan-eigenpair",
            "compare-moment-overflow", "resample-larger-than-pool", "sweep-d-zero", "sweep-d-negative", "compare-d-zero", "compare-d-negative",
            "three-bin-sigma-inf", "compare-sigma-inf", "three-bin-empty-central-bin", "moments-n-max-one",
            "moments-n-max-nine", "compare-n-list-nine", "moments-n-max-huge", "compare-n-list-huge",
            "ep-cutoff-huge", "three-bin-in-directory", "simulate-out-directory", "ep-config-directory",
            "three-bin-binary-file", "three-bin-sidecar-not-json", "three-bin-sidecar-array",
        ],
    )
    def test_exit_code(self, capsys, tmp_path, argv, files, code):
        paths = {}
        for key, content in files.items():
            paths[key] = tmp_path / (key if "." in key else f"{key}.csv")
            if isinstance(content, bytes):
                paths[key].write_bytes(content)
            else:
                write_records(paths[key], content)
        got, _, err = run(capsys, *(arg.format(out=tmp_path / "out.csv", dir=tmp_path, **paths) for arg in argv))
        assert got == code and err["error"]["exit_code"] == code


# values that each rule named in the cli.OPTIONS table rejects, with the rule's own message
REJECTED = {
    check_seed: [("-1", "seed must be a non-negative integer, got -1")],
    check_bin_distance: [("0", "bin distance must be a positive integer, got 0")],
    check_bin_size: [("inf", "bin size must be positive and finite, got inf"),
                     ("-1", "bin size must be positive and finite, got -1.0")],
    check_moment_order: [("9", "matrix order must lie in [2, 8], got 9")],
    check_cutoff: [("100000", "Fock cutoff must lie in [0, 60], got 100000")],
    check_injected_spread: [("-1", "injected spread must be >= 0, got -1.0"),
                            ("inf", "injected spread must be finite, got inf")],
    check_phase_window: [("-1", "phase window must be >= 0, got -1.0"),
                         ("nan", "phase window must be finite, got nan"),
                         ("inf", "phase window must be finite, got inf")],
}

# the bootstrap plan's own rules, checked inside each command that resamples
BOOTSTRAP_RULES = [
    ("--bootstrap", "1", "need at least two resamples"),
    ("--resample-size", "0", "resample size must be >= 1"),
]


def _rejected_rows():
    """One row per command that reads input, option of it that names a rule, and value that rule rejects;
    then each plan rule of each command that resamples."""
    for name, command in COMMANDS.items():
        if "in_path" in command.options or "in_x" in command.options:
            for key in command.options:
                for value, message in REJECTED[OPTIONS[key][3]] if len(OPTIONS[key]) > 3 else []:
                    yield pytest.param([name, _flag(key), value], message, id=f"{name} {_flag(key)} {value}")
        if "bootstrap" in command.options:
            for flag, value, message in BOOTSTRAP_RULES:
                yield pytest.param([name, flag, value], message, id=f"{name} {flag} {value}")


class TestOptionsCheckedBeforeRead:
    """A bad option value fails with its rule's message although the input file does not exist."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["sweep-sigma", "--steps", "0"], "--steps must be >= 1", id="sweep-steps"),
            pytest.param(["compare", "--n-list", "2,9"], "matrix order must lie in [2, 8], got 9", id="compare-n-list"),
            pytest.param(["compare", "--n-list", ","], "need at least one moment order", id="compare-n-list-empty"),
            pytest.param(["compare", "--n-list", "a"], "--n-list expects comma-separated integers, got 'a'",
                         id="compare-n-list-letter"),
            pytest.param(["compare", "--n-list", "2,2.5"], "--n-list expects comma-separated integers, got '2,2.5'",
                         id="compare-n-list-fraction"),
            pytest.param(["select", "--half-width", "0"], "window half-width must be positive, got 0.0",
                         id="select-half-width"),
            pytest.param(["select", "--center", "inf", "--half-width", "0.1"],
                         "window center and half-width must be finite, got inf and 0.1", id="select-center"),
            *_rejected_rows(),
        ],
    )
    def test_bad_option_fails_before_the_missing_input(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing.csv")
        given = {"in_path": missing, "in_x": missing, "in_p": missing, "out": str(tmp_path / "out.csv"),
                 "delta_e": "0.3", "half_width": "0.1"}
        # the row's own flags come last, and argparse keeps the last value of a flag
        required = [tok for key in COMMANDS[argv[0]].required for tok in (_flag(key), given[key])]
        code, _, err = run(capsys, argv[0], *required, *argv[1:])
        assert code == 1 and err["error"]["exit_code"] == 1
        assert err["error"]["message"] == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (key, value, message)
            for key in COMMANDS["simulate"].options
            if len(OPTIONS[key]) > 3
            for value, message in REJECTED[OPTIONS[key][3]]
        ],
    )
    def test_bad_simulate_option_fails_before_any_draw(self, capsys, tmp_path, key, value, message):
        # a NaN phase window used to exit 0 and print "phase_window": NaN, which is not JSON
        out = tmp_path / "a.csv"
        code, payload, err = run(capsys, "simulate", "--r", "1", "--n", "3", _flag(key), value, "--out", str(out))
        assert (code, payload, err["error"]["message"]) == (1, None, message)
        assert not out.exists() and not out.with_suffix(".meta.json").exists()


class TestCleanStderr:
    """Floating-point warnings never reach stderr, in a process of its own."""

    @pytest.mark.parametrize(
        "argv, xs, code, sidecar",
        [
            (["estimate", "--in-x", "a.csv", "--in-p", "a.csv", "--bootstrap", "5"], TestDegenerateInput.HUGE, 2, None),
            (["moments", "--in", "a.csv", "--bootstrap", "5"], TestDegenerateInput.HUGE, 2, None),
            # the int64 bin cast of one huge record overflows, and the command still succeeds
            (["three-bin", "--in", "a.csv", "--bootstrap", "5"], [*np.random.default_rng(4).normal(0, 1, 400), 1e200], 0, None),
            # reading a directory raises IsADirectoryError, which ends as a JSON error and not a traceback
            (["three-bin", "--in", "."], [], 2, None),
            # a sidecar that is not a JSON object ends as a JSON error, not a JSONDecodeError or TypeError traceback
            (["three-bin", "--in", "a.csv"], TestDegenerateInput.NORMAL, 2, "{not json"),
            (["three-bin", "--in", "a.csv"], TestDegenerateInput.NORMAL, 2, "[1,2]"),
        ],
        ids=[
            "estimate-overflow", "moments-overflow", "three-bin-huge-record", "three-bin-directory",
            "three-bin-sidecar-not-json", "three-bin-sidecar-array",
        ],
    )
    def test_stderr_is_one_json_error_or_empty(self, tmp_path, argv, xs, code, sidecar):
        write_records(tmp_path / "a.csv", xs)
        if sidecar is not None:
            (tmp_path / "a.meta.json").write_text(sidecar)
        got, out, err = run_process(tmp_path, *argv)
        assert got == code
        assert_one_json_answer(got, out, err)


class TestEpCommand:
    def test_no_squeezing_means_no_entanglement(self, capsys):
        code, payload, _ = run(capsys, "ep", "--r", "0", "--loss", "0.3", "--delta", "0.4")
        assert code == 0 and payload["ep"] == 0.0

    def test_squeezed_state_is_entangling(self, capsys):
        code, payload, _ = run(capsys, "ep", "--r", "0.5", "--loss", "0.2", "--delta", "0.3")
        assert code == 0 and payload["ep"] > 0.1

    def test_negative_cutoff_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "ep", "--r", "0.5", "--cutoff", "-1")
        assert code == 1 and err["error"]["exit_code"] == 1
        assert err["error"]["type"] == "ValueError" and "cutoff" in err["error"]["message"]
        path = tmp_path / "d.csv"
        write_csv(sample_dataset(ANCHOR, 400, seed=1), path)
        code, _, err = run(capsys, "compare", "--in", str(path), "--bootstrap", "5", "--cutoff", "-1")
        assert code == 1 and err["error"]["exit_code"] == 1


class TestCompareCommand:
    def test_large_diffusion_defeats_the_variance_route_only(self, capsys, tmp_path):
        anchor = params_from_variances(10**-0.23, 10**0.70, 0.15)
        path = tmp_path / "d.csv"
        run(capsys, "simulate", "--r", repr(anchor.r), "--loss", repr(anchor.loss),
            "--delta", "0.37", "--n", "10000", "--seed", "33", "--out", str(path))
        code, payload, _ = run(
            capsys, "compare", "--in", str(path), "--sigma", "1", "--d", "1",
            "--n-list", "2,4", "--bootstrap", "60", "--seed", "3",
            "--mode", "resample-with-replacement", "--out", str(tmp_path / "table.csv"),
        )
        assert code == 0
        by_method = {(r["method"], r["params"].get("n")): r for r in payload["reports"]}
        assert by_method[("three-bin", None)]["v"] > 0
        assert by_method[("moment", 2)]["v"] < 0
        assert payload["ep"] > 0
        assert payload["delta"] == 0.37
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "method,sigma,d,n,mean,std,v,n_flagged"
        assert len(table) == 4

    def test_empty_order_list_is_a_usage_error(self, capsys, small_files):
        code, _, err = run(capsys, "compare", "--in", small_files["x"], "--n-list", ",", "--bootstrap", "5")
        assert code == 1 and err["error"]["message"] == "need at least one moment order"


class TestPipelineComposition:
    def test_cli_pipeline_matches_in_memory_bit_for_bit(self, capsys, tmp_path):
        anchor = params_from_variances(10**-0.23, 10**0.70, 0.15)
        raw, noisy, kept = (tmp_path / n for n in ("raw.csv", "noisy.csv", "kept.csv"))
        run(capsys, "simulate", "--r", repr(anchor.r), "--loss", repr(anchor.loss),
            "--delta", "0.15", "--n", "50000", "--seed", "55", "--phase-window", repr(np.pi),
            "--out", str(raw))
        code, _, _ = run(capsys, "inject", "--in", str(raw), "--delta-e", "0.25", "--seed", "56",
                         "--out", str(noisy))
        assert code == 0
        code, sel, _ = run(capsys, "select", "--in", str(noisy), "--center", "0",
                           "--half-width", "0.1", "--out", str(kept))
        assert code == 0 and sel["n_kept"] > 100
        code, cli_row, _ = run(capsys, "three-bin", "--in", str(kept), "--sigma", "0.9", "--d", "1",
                               "--bootstrap", "20", "--seed", "57",
                               "--mode", "resample-with-replacement")

        params = StateParams(anchor.r, anchor.loss, 0.15)
        data = sample_dataset(params, 50_000, seed=55, phase_window=np.pi)
        mem = select_phase_window(inject_phase_noise(data, 0.25, seed=56), 0.0, 0.1)
        point = per_record_ratio(mem.x, 0.9, 1)
        assert mem.n == sel["n_kept"]
        assert cli_row["r_point"] == point  # bit-for-bit

    def test_select_empty_flagged(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("theta,x\n1.0,0.5\n")
        code, payload, _ = run(capsys, "select", "--in", str(path), "--center", "0",
                               "--half-width", "0.01", "--out", str(tmp_path / "k.csv"))
        assert code == 0 and payload["empty"] is True and payload["n_kept"] == 0


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.2, "loss": 0.1, "delta": 0.0, "n": 500, "seed": 1}))
        out = tmp_path / "o.csv"
        code, payload, _ = run(
            capsys, "simulate", "--config", str(cfg), "--n", "800", "--out", str(out),
        )
        assert code == 0
        assert payload["config"]["n"] == 800       # flag wins
        assert payload["config"]["r"] == 0.2       # config fills the rest
        assert payload["n"] == 800

    def test_config_fills_bootstrap_options_under_a_command_default(self, capsys, tmp_path):
        px, pp = tmp_path / "x.csv", tmp_path / "p.csv"
        write_csv(sample_dataset(ANCHOR, 2_000, seed=11), px)
        write_csv(sample_dataset(ANCHOR, 2_000, seed=12, center=np.pi / 2), pp)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bootstrap": 30, "mode": SUBSAMPLE, "resample_size": 500, "seed": 4}))
        inputs = ["estimate", "--in-x", str(px), "--in-p", str(pp)]
        code, layered, _ = run(capsys, *inputs, "--config", str(cfg), "--seed", "9")
        assert code == 0
        # the config file beats estimate's own mode default; the flag beats the config file
        assert layered["config"] == {
            "in_x": str(px), "in_p": str(pp), "bootstrap": 30, "resample_size": 500, "mode": SUBSAMPLE, "seed": 9,
        }
        code, flagged, _ = run(
            capsys, *inputs, "--bootstrap", "30", "--mode", SUBSAMPLE, "--resample-size", "500", "--seed", "9"
        )
        assert code == 0 and flagged == layered

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["three-bin", "--in", "{x}"], [1, 2]),
            (["three-bin", "--in", "{x}"], {"sigma": [1]}),
            (["three-bin"], {"in_path": 5}),
            # the flags --bootstrap 2.9 and --d true are usage errors too
            (["three-bin", "--in", "{x}"], {"bootstrap": 2.9}),
            (["three-bin", "--in", "{x}"], {"d": True}),
            (["compare", "--in", "{x}"], {"n_list": 3}),
            (["three-bin", "--in", "{x}"], {"mode": 5}),
            (["three-bin", "--in", "{x}"], {"mode": "bogus"}),
        ],
        ids=[
            "not-an-object", "sigma-list", "in-path-int", "int-option-fraction", "int-option-bool", "str-option-int",
            "mode-int", "mode-not-a-choice",
        ],
    )
    def test_malformed_config_is_a_usage_error(self, capsys, tmp_path, small_files, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([arg.format(**small_files) for arg in argv] + ["--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert_one_json_answer(code, captured.out, captured.err)

    def test_config_takes_flag_text_or_a_json_number(self, capsys, tmp_path, small_files):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 1, "d": "1", "bootstrap": "20", "seed": 3}))
        inputs = ["three-bin", "--in", small_files["x"]]
        code, layered, _ = run(capsys, *inputs, "--config", str(cfg))
        assert code == 0
        code, flagged, _ = run(capsys, *inputs, "--sigma", "1", "--d", "1", "--bootstrap", "20", "--seed", "3")
        assert code == 0 and flagged == layered

    def test_config_values_that_look_like_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "-x.csv", "center": -0.5}))
        inputs = ["simulate", "--r", "0.3", "--n", "50"]
        code, layered, _ = run(capsys, *inputs, "--config", str(cfg))
        assert code == 0 and layered["config"]["out"] == "-x.csv" and layered["config"]["center"] == -0.5
        written = (tmp_path / "-x.csv").read_text()
        code, flagged, _ = run(capsys, *inputs, "--out=-x.csv", "--center=-0.5")
        assert code == 0 and flagged == layered
        assert (tmp_path / "-x.csv").read_text() == written

    def test_null_config_value_takes_the_default(self, capsys, tmp_path, small_files):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bootstrap": None, "mode": None, "seed": 3}))
        inputs = ["three-bin", "--in", small_files["x"]]
        code, layered, _ = run(capsys, *inputs, "--config", str(cfg))
        assert code == 0
        assert layered["config"]["bootstrap"] == 100 and layered["config"]["mode"] == SUBSAMPLE
        code, flagged, _ = run(capsys, *inputs, "--seed", "3")
        assert code == 0 and flagged == layered

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and err["error"]["exit_code"] == 1

    @pytest.mark.parametrize(
        "argv, flags",
        [(["three-bin"], "--in"), (["estimate", "--in-p", "p.csv"], "--in-x"), (["inject"], "--in, --delta-e, --out")],
    )
    def test_missing_option_names_its_flag(self, capsys, argv, flags):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err["error"]["message"] == "missing required option(s): " + flags

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ep", "--r", "0.1", "--bogus", "1")
        assert code == 1


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    paths = {"x": root / "x.csv", "p": root / "p.csv"}
    write_csv(sample_dataset(ANCHOR, 400, seed=5), paths["x"])
    write_csv(sample_dataset(ANCHOR, 400, seed=6, center=np.pi / 2), paths["p"])
    return {k: str(v) for k, v in paths.items()}


BOOTSTRAP_DEFAULTS = {"bootstrap": 100, "resample_size": None, "mode": SUBSAMPLE, "seed": 0}


def _default_cases(x, p, out):
    """(argv with only the required flags, built-in configuration it must echo) per subcommand."""
    return {
        "simulate": (
            ["--r", "0.3", "--out", out],
            {"r": 0.3, "target_db": None, "loss": 0.0, "delta": 0.0, "n": 10_000, "seed": 0,
             "phase_window": 0.0, "center": 0.0, "out": out},
        ),
        "three-bin": (["--in", x], {"in_path": x, "sigma": 1.0, "d": 1, **BOOTSTRAP_DEFAULTS}),
        "sweep-sigma": (
            ["--in", x, "--out", out],
            {"in_path": x, "sigma_from": 0.2, "sigma_to": 3.0, "steps": 15, "d": 1, "out": out, **BOOTSTRAP_DEFAULTS},
        ),
        "moments": (["--in", x], {"in_path": x, "n_max": 6, **BOOTSTRAP_DEFAULTS}),
        "estimate": (
            ["--in-x", x, "--in-p", p],
            {"in_x": x, "in_p": p, **BOOTSTRAP_DEFAULTS, "mode": REPLACEMENT},
        ),
        "ep": (["--r", "0.3"], {"r": 0.3, "loss": 0.0, "delta": 0.0, "cutoff": 10}),
        "compare": (
            ["--in", x],
            {"in_path": x, "sigma": 1.0, "d": 1, "n_list": "2,3,4,5,6", "cutoff": 10, "out": None,
             **BOOTSTRAP_DEFAULTS},
        ),
        "inject": (["--in", x, "--delta-e", "0.1", "--out", out], {"in_path": x, "delta_e": 0.1, "seed": 0, "out": out}),
        "select": (
            ["--in", x, "--half-width", "0.5", "--out", out],
            {"in_path": x, "center": 0.0, "half_width": 0.5, "out": out},
        ),
    }


@pytest.mark.parametrize(
    "command", ["simulate", "three-bin", "sweep-sigma", "moments", "estimate", "ep", "compare", "inject", "select"]
)
def test_required_flags_alone_echo_the_built_in_defaults(capsys, tmp_path, small_files, command):
    argv, expected = _default_cases(small_files["x"], small_files["p"], str(tmp_path / "out.csv"))[command]
    code, payload, _ = run(capsys, command, *argv)
    assert code == 0
    # compared as JSON text so that an int default turning into a float shows up
    assert json.dumps(payload["config"], sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestBootstrapNumbersByHand:
    """Each CLI bootstrap rebuilt from the published index streams, compared bit for bit."""

    @pytest.mark.parametrize("mode", [SUBSAMPLE, REPLACEMENT])
    def test_moments(self, capsys, small_files, mode):
        code, payload, _ = run(
            capsys, "moments", "--in", small_files["x"], "--n-max", "4", "--bootstrap", "25", "--seed", "3",
            "--mode", mode,
        )
        assert code == 0
        data = read_csv(small_files["x"])
        spec = BootstrapSpec(data.n if mode == REPLACEMENT else data.n // 4, 25, 3, mode)
        lam = {n: [] for n in (2, 3, 4)}
        for b in range(spec.n_resamples):
            moms = normally_ordered_moments(data.x[resample_indices(spec, data.n, b)], 6)
            for n in lam:
                lam[n].append(moment_matrix_from_moments(moms, n))
        for row in payload["rows"]:
            assert row["lambda_mean"] == pytest.approx(np.mean(lam[row["n"]]), abs=0.0)
            assert row["lambda_std"] == pytest.approx(np.std(lam[row["n"]]), abs=0.0)

    def test_sweep_sigma(self, capsys, tmp_path, small_files):
        out = tmp_path / "sweep.csv"
        code, payload, _ = run(
            capsys, "sweep-sigma", "--in", small_files["x"], "--sigma-from", "0.6", "--sigma-to", "1.4",
            "--steps", "4", "--d", "1", "--bootstrap", "30", "--seed", "8", "--out", str(out),
        )
        assert code == 0
        data = read_csv(small_files["x"])
        spec = BootstrapSpec(data.n // 4, 30, 8, SUBSAMPLE)
        sigmas = np.linspace(0.6, 1.4, 4)
        r_vals = np.empty((4, spec.n_resamples))
        for b in range(spec.n_resamples):
            xs = data.x[resample_indices(spec, data.n, b)]
            for i, s in enumerate(sigmas):
                r_vals[i, b] = per_record_ratio(xs, float(s), 1)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        for row, s, vals in zip(rows, sigmas, r_vals):
            assert float(row[0]) == float(s)
            assert float(row[1]) == pytest.approx(np.mean(vals), abs=0.0)
            assert float(row[2]) == pytest.approx(np.std(vals), abs=0.0)
        best = int(np.argmin(r_vals.mean(axis=1)))
        assert payload["min_r_mean"] == pytest.approx(np.mean(r_vals[best]), abs=0.0)

    def test_estimate_drops_failed_draws(self, capsys, small_files):
        code, payload, _ = run(
            capsys, "estimate", "--in-x", small_files["x"], "--in-p", small_files["p"], "--bootstrap", "60",
            "--seed", "4", "--resample-size", "40",
        )
        assert code == 0
        dx, dp = read_csv(small_files["x"]), read_csv(small_files["p"])
        spec = BootstrapSpec(40, 60, 4, REPLACEMENT)
        draws = {"r": [], "l": [], "delta": []}
        failed = 0
        for b in range(spec.n_resamples):
            ix = resample_indices(spec, dx.n, b, stream=1)
            ip = resample_indices(spec, dp.n, b, stream=2)
            try:
                pb = estimate_params(summarize(dx.x[ix], dp.x[ip]))
            except (EstimationError, ValueError):
                failed += 1
                continue
            draws["r"].append(pb.r)
            draws["l"].append(pb.loss)
            draws["delta"].append(pb.delta)
        assert 0 < failed < spec.n_resamples
        assert payload["n_flagged"] == failed
        for key, vals in draws.items():
            assert payload["std_" + key] == pytest.approx(np.std(vals), abs=0.0)


RECORDS = st.lists(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]), max_size=5)
# option values with the edge cases a user can type: zero, negative, nan and inf
VALUES = st.sampled_from(["0", "-0.5", "0.3", "1", "nan", "inf"])


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=60, deadline=None)
# one record: every resample is that record, so no moment row has a spread
@example(x=[0.5], p=[], values=("0.3",) * 6, cutoff=2)
@given(x=RECORDS, p=RECORDS, values=st.tuples(*[VALUES] * 6), cutoff=st.integers(-2, 12))
def test_small_files_exit_ok_data_or_numeric(property_dir, x, p, values, cutoff):
    """0-5 records never give a usage error or a traceback, odd option values at most a usage error,
    and every run writes one JSON answer."""
    xs, ps = write_records(property_dir / "x.csv", x), write_records(property_dir / "p.csv", p)
    out_path = str(property_dir / "out.csv")
    r, loss, delta, center, half_width, delta_e = values
    quick = ["--bootstrap", "3"]
    record_runs = [
        ["three-bin", "--in", xs, *quick],
        ["sweep-sigma", "--in", xs, "--steps", "3", "--out", str(property_dir / "sweep.csv"), *quick],
        ["moments", "--in", xs, *quick],
        ["compare", "--in", xs, *quick],
        ["estimate", "--in-x", xs, "--in-p", ps, *quick],
    ]
    # the two-mode matrix grows as cutoff^4, so the cutoff stays small
    option_runs = [
        ["ep", "--r", r, "--loss", loss, "--delta", delta, "--cutoff", str(cutoff)],
        ["inject", "--in", xs, "--delta-e", delta_e, "--out", out_path],
        ["select", "--in", xs, "--center", center, "--half-width", half_width, "--out", out_path],
    ]
    for argv in record_runs + option_runs:
        out, err = io.StringIO(), io.StringIO()
        # any warning raises, so none can slip onto stderr unseen
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in ((0, 2, 3) if argv in record_runs else (0, 1, 2, 3)), (argv, x, p, err.getvalue())
        assert_one_json_answer(code, out.getvalue(), err.getvalue())
        if code == 0 and argv[0] in ("three-bin", "moments", "compare"):
            payload = json.loads(out.getvalue())
            rows = {"three-bin": [payload], "moments": payload.get("rows"), "compare": payload.get("reports")}[argv[0]]
            # the one verdict: a detection exactly when the violation degree exists and is positive
            for row in rows:
                assert row.get("nonclassical", row.get("detected")) == (row["v"] is not None and row["v"] > 0), (argv, x)
