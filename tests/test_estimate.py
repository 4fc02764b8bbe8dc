"""Estimation tests: closed-form inversion against forward model and a root-finder oracle."""

import numpy as np
import pytest
from scipy import optimize

from quadbin.data import sample_dataset
from quadbin.data import Dataset
from quadbin.errors import EstimationError, UndefinedStatisticError
from quadbin.estimate import (
    MomentSummary,
    db_from_variance,
    estimate_params,
    params_from_variances,
    residuals,
    squeezing_for_target,
    summarize,
    variance_from_db,
)
from quadbin.model import StateParams, diffused_variance, kurtosis_x


def forward_summary(params: StateParams) -> MomentSummary:
    return MomentSummary(
        diffused_variance(params, "x"), diffused_variance(params, "p"), kurtosis_x(params)
    )


def forward_summary_exact(r, loss, delta) -> MomentSummary:
    # extended-precision forward moments, so the roundtrip probes the
    # inversion itself rather than the float64 representation of K - 3
    # (which keeps only ~6 digits of the excess when K - 3 ~ 1e-10)
    r, loss, delta = (np.longdouble(v) for v in (r, loss, delta))
    one = np.longdouble(1.0)
    u = np.exp(-2 * delta**2)
    vx = loss + (one - loss) * (np.exp(-2 * r) * (one + u) + np.exp(2 * r) * (one - u)) / 2
    vp = loss + (one - loss) * (np.exp(2 * r) * (one + u) + np.exp(-2 * r) * (one - u)) / 2
    w = -np.expm1(-4 * delta**2)
    kurt = 3 + np.longdouble(1.5) * (one - loss) ** 2 * w**2 * np.sinh(2 * r) ** 2 / vx**2
    return MomentSummary(vx, vp, kurt)


class TestDbConversion:
    def test_unit_variance_is_zero_db(self):
        assert db_from_variance(1.0) == 0.0

    def test_reported_squeezing_level(self):
        assert variance_from_db(-2.3) == pytest.approx(0.588843655355589, rel=1e-12)
        assert variance_from_db(-2.3) == pytest.approx(0.5888, abs=5e-5)

    def test_roundtrip(self):
        rng = np.random.default_rng(15)
        for v in rng.uniform(0.01, 20.0, 100):
            assert variance_from_db(db_from_variance(v)) == pytest.approx(v, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            db_from_variance(0.0)


class TestSummarize:
    def test_standard_normal_statistics(self):
        d = sample_dataset(StateParams(0.0, 0.0, 0.0), 100_000, seed=30)
        p = sample_dataset(StateParams(0.0, 0.0, 0.0), 100_000, seed=31)
        s = summarize(d, p)
        assert s.var_x == pytest.approx(1.0, abs=0.02)
        assert s.var_p == pytest.approx(1.0, abs=0.02)
        assert s.kurt_x == pytest.approx(3.0, abs=0.05)

    def test_constant_data_rejected(self):
        from quadbin.data import Dataset

        flat = Dataset(np.zeros(10), np.ones(10))
        with pytest.raises(ValueError):
            summarize(flat, flat)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "x",
        [[0.5], [0.5] * 10, [1e200, -1e200] * 4, [1e100, -1e100, 0.0]],
        ids=["one-record", "constant", "variance-overflow", "kurtosis-overflow"],
    )
    def test_undefined_summary_is_a_statistic_error(self, x):
        wide = sample_dataset(StateParams(0.5, 0.1, 0.1), 50, seed=3, center=np.pi / 2)
        with pytest.raises(UndefinedStatisticError):
            summarize(Dataset(np.zeros(len(x)), np.array(x)), wide)

    def test_forward_state_matches_model_within_errors(self):
        # mean over independent seeds against the closed forms, scaled by the
        # empirically estimated standard error of that mean
        params = StateParams(0.7, 0.3, 0.25)
        n, n_seeds = 20_000, 10
        vx, vp, kx = [], [], []
        for s in range(n_seeds):
            dx = sample_dataset(params, n, seed=400 + s)
            dp = sample_dataset(params, n, seed=600 + s, center=np.pi / 2)
            summ = summarize(dx, dp)
            vx.append(summ.var_x)
            vp.append(summ.var_p)
            kx.append(summ.kurt_x)
        for values, target in ((vx, diffused_variance(params, "x")),
                               (vp, diffused_variance(params, "p")),
                               (kx, kurtosis_x(params))):
            values = np.asarray(values)
            se = values.std(ddof=1) / np.sqrt(n_seeds)
            assert abs(values.mean() - target) <= 4 * se


class TestClosedFormInversion:
    def test_roundtrip_on_grid(self):
        for r in np.linspace(0.05, 1.0, 5):
            for loss in np.linspace(0.0, 0.8, 5):
                for delta in np.linspace(0.01, 0.6, 5):
                    got = estimate_params(forward_summary_exact(r, loss, delta))
                    assert got.r == pytest.approx(r, abs=1e-9)
                    assert got.loss == pytest.approx(loss, abs=1e-9)
                    assert got.delta == pytest.approx(delta, abs=1e-9)

    def test_double_precision_inputs_hit_the_representation_floor(self):
        # with float64 moments the corner (r=0.05, loss=0.8, delta=0.01) has
        # K - 3 ~ 1e-10, and rounding K against the +3 offset caps the
        # recoverable delta at ~2.9e-9 for any algorithm; the closed form
        # matches that floor (checked against a 60-digit inversion of the
        # same rounded inputs)
        truth = StateParams(0.05, 0.8, 0.01)
        got = estimate_params(forward_summary(truth))
        assert got.delta == pytest.approx(truth.delta, abs=3.2e-9)
        assert got.r == pytest.approx(truth.r, abs=1e-9)
        assert got.loss == pytest.approx(truth.loss, abs=1e-9)

    def test_frozen_example(self):
        got = estimate_params(forward_summary(StateParams(0.3, 0.2, 0.2)))
        assert (got.r, got.loss, got.delta) == pytest.approx((0.3, 0.2, 0.2), abs=1e-9)

    def test_gaussian_branch_recovers_zero_delta(self):
        truth = StateParams(0.45, 0.25, 0.0)
        got = estimate_params(forward_summary(truth))
        assert got.delta == 0.0
        assert got.r == pytest.approx(truth.r, rel=1e-10)
        assert got.loss == pytest.approx(truth.loss, abs=1e-10)

    def test_kurtosis_below_three_rejected(self):
        with pytest.raises(EstimationError) as err:
            estimate_params(MomentSummary(0.6, 2.0, 2.9))
        assert err.value.code == "kurtosis_floor"

    def test_wrong_variance_order_rejected(self):
        with pytest.raises(EstimationError) as err:
            estimate_params(MomentSummary(2.0, 0.6, 3.1))
        assert err.value.code == "variance_order"

    def test_vacuum_like_summary_rejected(self):
        with pytest.raises(EstimationError) as err:
            estimate_params(MomentSummary(0.999, 1.001, 3.0))
        assert err.value.code == "vacuum_degenerate"

    def test_unphysical_summary_rejected(self):
        with pytest.raises(EstimationError) as err:
            estimate_params(MomentSummary(0.2, 2.0, 3.0))
        assert err.value.code == "loss_range"

    def test_residuals_measure_the_forward_mismatch(self):
        truth = StateParams(0.5, 0.3, 0.25)
        assert residuals(truth, forward_summary(truth)) == {"var_x": 0.0, "var_p": 0.0, "kurt_x": 0.0}
        off = residuals(StateParams(0.5, 0.3, 0.3), forward_summary(truth))
        assert off["var_x"] > 1e-3 and off["var_p"] > 1e-3 and off["kurt_x"] > 1e-3

    def test_validated_against_black_box_root_finder(self):
        # independent oracle: solve the three forward equations numerically in
        # smooth unconstrained coordinates, from fixed neutral starts
        starts = [(np.sqrt(0.4), 0.0, 0.0), (1.0, -2.0, 0.8), (0.3, 2.0, -0.8)]

        def unpack(q):
            return StateParams(q[0] ** 2, 1.0 / (1.0 + np.exp(-q[1])), 0.8 / (1.0 + np.exp(-q[2])))

        for r in (0.2, 0.6, 1.0):
            for loss in (0.1, 0.4, 0.7):
                for delta in (0.1, 0.3, 0.5):
                    target = forward_summary(StateParams(r, loss, delta))

                    def equations(q):
                        p = unpack(q)
                        return [
                            diffused_variance(p, "x") - target.var_x,
                            diffused_variance(p, "p") - target.var_p,
                            kurtosis_x(p) - target.kurt_x,
                        ]

                    sol = None
                    for x0 in starts:
                        cand = optimize.root(equations, x0=x0, tol=1e-13)
                        if cand.success and max(abs(v) for v in equations(cand.x)) < 1e-10:
                            sol = cand
                            break
                    assert sol is not None
                    numeric = unpack(sol.x)
                    closed = estimate_params(target)
                    assert closed.r == pytest.approx(numeric.r, abs=1e-6)
                    assert closed.loss == pytest.approx(numeric.loss, abs=1e-6)
                    assert closed.delta == pytest.approx(numeric.delta, abs=1e-6)

    def test_kurtosis_rises_with_diffusion(self):
        for r, loss in ((0.3, 0.1), (0.8, 0.4), (0.15, 0.6)):
            ks = [kurtosis_x(StateParams(r, loss, d)) for d in np.linspace(0.05, 0.6, 8)]
            assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_sampled_anchor_recovers_reported_spread(self):
        anchor = params_from_variances(10**-0.23, 10**0.70, 0.15)
        dx = sample_dataset(anchor, 10_000, seed=9009)
        dp = sample_dataset(anchor, 10_000, seed=9509, center=np.pi / 2)
        got = estimate_params(summarize(dx, dp))
        assert got.delta == pytest.approx(0.15, abs=0.02)


class TestKnownDeltaInversion:
    def test_anchor_values(self):
        p = params_from_variances(10**-0.23, 10**0.70, 0.15)
        assert diffused_variance(p, "x") == pytest.approx(10**-0.23, rel=1e-12)
        assert diffused_variance(p, "p") == pytest.approx(10**0.70, rel=1e-12)
        assert p.r == pytest.approx(1.040947785368045, abs=1e-12)
        assert p.loss == pytest.approx(0.41397934477554665, abs=1e-12)

    def test_matches_full_inversion(self):
        truth = StateParams(0.5, 0.3, 0.25)
        via_K = estimate_params(forward_summary(truth))
        via_delta = params_from_variances(
            diffused_variance(truth, "x"), diffused_variance(truth, "p"), truth.delta
        )
        assert via_K.r == pytest.approx(via_delta.r, abs=1e-10)
        assert via_K.loss == pytest.approx(via_delta.loss, abs=1e-10)

    def test_rejects_bad_ordering(self):
        with pytest.raises(EstimationError):
            params_from_variances(2.0, 1.0, 0.1)

    @pytest.mark.parametrize("var_x, var_p", [(0.999, 1.001), (0.2, 2.0)], ids=["vacuum-like", "loss-range"])
    def test_fails_like_the_full_inversion(self, var_x, var_p):
        # at delta = 0 and kurtosis 3 both inversions run the same algebra with u = 1
        with pytest.raises(EstimationError) as full:
            estimate_params(MomentSummary(var_x, var_p, 3.0))
        with pytest.raises(EstimationError) as known:
            params_from_variances(var_x, var_p, 0.0)
        assert (known.value.code, str(known.value)) == (full.value.code, str(full.value))
        assert known.value.residuals == full.value.residuals


class TestTargetSqueezing:
    def test_zero_delta_closed_form(self):
        r = squeezing_for_target(0.5, 0.0, 0.0)
        assert r == pytest.approx(-0.5 * np.log(0.5), rel=1e-12)

    def test_forward_consistency_with_diffusion(self):
        for target, loss, delta in ((0.589, 0.37, 0.15), (1.05, 0.41, 0.37), (0.8, 0.1, 0.2)):
            r = squeezing_for_target(target, loss, delta)
            assert diffused_variance(StateParams(r, loss, delta), "x") == pytest.approx(target, rel=1e-10)

    def test_prefers_least_squeezing(self):
        # both quadratic roots are feasible here; the milder one is returned
        r = squeezing_for_target(10**-0.23, 0.37, 0.15)
        assert r == pytest.approx(0.650, abs=5e-3)

    def test_unreachable_target_rejected(self):
        with pytest.raises(EstimationError):
            squeezing_for_target(0.2, 0.5, 0.1)
        with pytest.raises(EstimationError):
            squeezing_for_target(1.5, 0.0, 0.0)
