"""The benchmark's workloads: inputs made from the seed, set-up, and output checks.

scan      The README's scanned-acquisition chain as four fresh-process CLI
          calls: simulate 200k records over a full phase scan (the row count
          of the ROADMAP's CSV timings), inject phase noise, select a narrow
          window, three-bin test on the ~3.8k kept records. Writing and
          reading 200k-row CSVs is most of a pass, then the four imports, so
          this is where the data layer's write and read paths show.
analysis  The README analysis commands at B = 400 resamples on 40k-record
          files that set-up writes. The resampling loops in stats, detect,
          binning and estimate are the largest part, then the five imports;
          `estimate` exercises replacement-mode resampling, the other four
          subsampling.
fock      state_from_params then entanglement_potential for five states at
          cutoffs 10..40 in one long-lived process. The cutoff-40 eigensolves
          dominate; there is no CSV, bootstrap or CLI import, so a change to
          those layers should leave this workload unchanged.

Checks compare the program's outputs with closed forms and with the model
the data were drawn from; the model's three-bin ratio comes from a quadrature
written here, independently of quadbin's. Statistical checks allow Z standard
errors of the full-data estimate (subsample spreads are rescaled to that, see
subsample_se), which makes a false alarm on a correct program rare (about 6e-7
per check for a normal estimator).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

from quadbin import (
    StateParams,
    entanglement_potential,
    read_csv,
    sample_dataset,
    state_from_params,
    write_csv,
)

ANCHOR = StateParams(1.0409, 0.414, 0.15)
Z = 5.0

SCAN_N = 200_000
SCAN_DELTA_E = 0.34
SCAN_HALF_WIDTH = 0.06
SCAN_B = 100

ANALYSIS_N = 40_000
ANALYSIS_B = 400
SWEEP_STEPS = 29

FOCK_STATES = ((1.0409, 0.414, 0.15), (1.0409, 0.414, 0.5), (0.4, 0.0, 0.0), (0.7, 0.6, 0.0), (0.3, 0.1, 0.0))
FOCK_CUTOFFS = (10, 20, 30, 40)
FOCK_WARM_UP = (0.5, 0.2, 0.1)  # a state outside the workload, solved once per cutoff before timing
ANCHOR_EP_CONVERGED = 0.4056


@dataclass
class CliOp:
    """One CLI call: its arguments, the files it writes, and the check of its JSON payload."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[dict, bool], list[str]]  # (payload, first pass) -> errors


def _seeds(seed: int, k: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(k)]


def _within(label: str, value: float, ref: float, std: float) -> list[str]:
    if std > 0.0 and abs(value - ref) <= Z * std:
        return []
    return [f"{label}: {value!r} is not within {Z} x {std!r} of {ref!r}"]


def var_x(r: float, loss: float, delta: float) -> float:
    """Closed-form squeezing-axis variance of the phase-diffused lossy squeezed vacuum."""
    u = math.exp(-2.0 * delta**2)
    return loss + (1.0 - loss) * 0.5 * (math.exp(-2.0 * r) * (1.0 + u) + math.exp(2.0 * r) * (1.0 - u))


def gaussian_ep(r: float, loss: float) -> float:
    """Entanglement potential of the Gaussian (delta = 0) state: max(0, -1/2 log2 V_x)."""
    return max(0.0, -0.5 * math.log2(var_x(r, loss, 0.0)))


def three_bin_oracle(params: StateParams, sigma: float = 1.0, d: int = 1, window: float = 0.0) -> float:
    """Population three-bin ratio P(d) P(-d) / P(0)^2 e^{sigma^2 d^2} of the model's x quadrature.

    A record's angle is off by N(0, delta^2), plus U(-window, window) for
    records kept from a phase scan by a window of that half-width. The bin
    masses are averaged over that offset with the trapezoid rule on a grid of
    4001 angles (quadbin itself uses Gauss-Hermite nodes).
    """
    if params.delta == 0.0:
        theta, weight = np.zeros(1), np.ones(1)
    else:
        theta = np.linspace(-(8.0 * params.delta + window), 8.0 * params.delta + window, 4001)
        weight = (ndtr((theta + window) / params.delta) - ndtr((theta - window) / params.delta) if window > 0.0
                  else np.exp(-0.5 * (theta / params.delta) ** 2))
        weight = weight / weight.sum()
    var = params.loss + (1.0 - params.loss) * (math.exp(-2.0 * params.r) * np.cos(theta) ** 2
                                               + math.exp(2.0 * params.r) * np.sin(theta) ** 2)
    m, sd = np.array([[-d], [0], [d]], dtype=float), np.sqrt(var)
    p_neg, p_0, p_pos = (ndtr((m + 0.5) * sigma / sd) - ndtr((m - 0.5) * sigma / sd)) @ weight
    return float(p_pos * p_neg / p_0**2 * math.exp(sigma**2 * d**2))


def subsample_se(std: float, n: int, b: int) -> float:
    """Standard error of a subsample-bootstrap mean, from the spread ``std`` of its ``b`` estimates.

    quadbin's default subsample draws m = n // 4 of the n records without
    replacement, so an estimate's spread about the full-data estimate is
    sqrt((1 - f) / f) times the full-data standard error (f = m / n); the
    mean of b such estimates adds std^2 / b.
    """
    f = max(1, n // 4) / n
    return std * math.sqrt(f / (1.0 - f) + 1.0 / b)


# ---------------------------------------------------------------- scan

def scan_ops(seed: int, work: Path) -> list[CliOp]:
    s_sim, s_inj, s_boot = _seeds(seed, 3)
    scan, noisy, kept = work / "scan.csv", work / "noisy.csv", work / "kept.csv"

    def check_simulate(out, first):
        errors = [] if out["n"] == SCAN_N else [f"simulate wrote {out['n']} records"]
        # later passes must reproduce this file's fingerprint, so one comparison per run suffices
        if first and read_csv(scan) != sample_dataset(ANCHOR, SCAN_N, s_sim, phase_window=math.pi):
            errors.append("read_csv(scan.csv) differs from the in-memory sample_dataset")
        return errors

    def check_inject(out, first):
        return [] if out["n"] == SCAN_N else [f"inject wrote {out['n']} records"]

    kept_n = {}

    def check_select(out, first):
        # the scan phase is uniform on the circle before and after noise injection
        p = SCAN_HALF_WIDTH / math.pi
        kept_n["n"] = out["n_kept"]
        return _within("kept fraction", out["n_kept"] / out["n_in"], p, math.sqrt(p * (1.0 - p) / SCAN_N))

    # a kept record's true angle is its recorded one (uniform in the window) minus the injected
    # noise, plus the state's own diffusion: U(-w, w) + N(0, delta^2 + delta_e^2)
    combined = StateParams(ANCHOR.r, ANCHOR.loss, math.hypot(ANCHOR.delta, SCAN_DELTA_E))
    r_ref = three_bin_oracle(combined, window=SCAN_HALF_WIDTH)

    def check_three_bin(out, first):
        se = subsample_se(out["r_std"], kept_n.get("n", 0), SCAN_B)
        return _within("scan three-bin r_mean", out["r_mean"], r_ref, se)

    return [
        CliOp("simulate", ["simulate", "--r", "1.0409", "--loss", "0.414", "--delta", "0.15",
                           "--n", str(SCAN_N), "--phase-window", repr(math.pi), "--seed", str(s_sim),
                           "--out", str(scan)], [scan], check_simulate),
        CliOp("inject", ["inject", "--in", str(scan), "--delta-e", str(SCAN_DELTA_E), "--seed", str(s_inj),
                         "--out", str(noisy)], [noisy], check_inject),
        CliOp("select", ["select", "--in", str(noisy), "--center", "0", "--half-width", str(SCAN_HALF_WIDTH),
                         "--out", str(kept)], [kept], check_select),
        CliOp("three-bin", ["three-bin", "--in", str(kept), "--bootstrap", str(SCAN_B), "--seed", str(s_boot)],
              [], check_three_bin),
    ]


# ---------------------------------------------------------------- analysis

def analysis_setup(seed: int, work: Path) -> None:
    s = _seeds(seed, 8)
    for name, file_seed, center in (("run.csv", s[0], 0.0), ("x.csv", s[1], 0.0), ("p.csv", s[2], math.pi / 2)):
        write_csv(sample_dataset(ANCHOR, ANALYSIS_N, file_seed, center=center), work / name)


def analysis_ops(seed: int, work: Path) -> list[CliOp]:
    s = _seeds(seed, 8)
    run, sweep = str(work / "run.csv"), work / "sweep.csv"
    boot = ["--bootstrap", str(ANALYSIS_B)]
    r_ref = three_bin_oracle(ANCHOR)
    lam2_ref = var_x(ANCHOR.r, ANCHOR.loss, ANCHOR.delta) - 1.0  # order-2 matrix: min(1, <:x^2:>)
    ep_ref = entanglement_potential(state_from_params(ANCHOR, 10))

    def se(std):
        return subsample_se(std, ANALYSIS_N, ANALYSIS_B)

    def check_analytic(label, value, ref):
        # quadbin's Gauss-Hermite average and the trapezoid rule here agree to about 1e-8
        return [] if math.isclose(value, ref, rel_tol=1e-7) else [f"{label} {value!r} != model {ref!r}"]

    def check_three_bin(out, first):
        errors = _within("three-bin r_mean", out["r_mean"], r_ref, se(out["r_std"]))
        return errors + check_analytic("three-bin analytic", out["analytic"], r_ref)

    def check_sweep(out, first):
        lines = sweep.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        if out["steps"] != SWEEP_STEPS or len(rows) != SWEEP_STEPS:
            return [f"sweep has {len(rows)} rows"]
        errors = []
        for row in rows:
            sigma = float(row["sigma"])
            ref = three_bin_oracle(ANCHOR, sigma)
            errors += _within(f"sweep r_mean at sigma {sigma:.2g}", float(row["r_mean"]), ref, se(float(row["r_std"])))
            errors += check_analytic(f"sweep r_analytic at sigma {sigma:.2g}", float(row["r_analytic"]), ref)
        return errors

    def check_moments(out, first):
        rows = out["rows"]
        if [row["n"] for row in rows] != [2, 3, 4, 5, 6]:
            return ["moments rows are not n = 2..6"]
        return _within("moments lambda_mean(n=2)", rows[0]["lambda_mean"], lam2_ref, se(rows[0]["lambda_std"]))

    def check_compare(out, first):
        by_method = {(rep["method"], rep["params"].get("n")): rep for rep in out["reports"]}
        ratio, lam2 = by_method[("three-bin", None)], by_method[("moment", 2)]
        errors = _within("compare three-bin mean", ratio["mean"], r_ref, se(ratio["std"]))
        errors += _within("compare moment(n=2) mean", lam2["mean"], lam2_ref, se(lam2["std"]))
        if len(out["reports"]) != 6 or not math.isclose(out["ep"], ep_ref, rel_tol=1e-9):
            errors.append(f"compare reports/ep differ: {len(out['reports'])} reports, ep {out['ep']!r}")
        return errors

    def check_estimate(out, first):
        errors = []
        for key, std, ref in (("r", "std_r", ANCHOR.r), ("l", "std_l", ANCHOR.loss), ("delta", "std_delta", ANCHOR.delta)):
            errors += _within(f"estimate {key}", out[key], ref, out[std] or 0.0)
        return errors

    return [
        CliOp("three-bin", ["three-bin", "--in", run, "--sigma", "1", "--d", "1", *boot, "--seed", str(s[3])],
              [], check_three_bin),
        CliOp("sweep-sigma", ["sweep-sigma", "--in", run, "--sigma-from", "0.2", "--sigma-to", "3", "--steps", str(SWEEP_STEPS),
                              "--d", "1", *boot, "--seed", str(s[4]), "--out", str(sweep)], [sweep], check_sweep),
        CliOp("moments", ["moments", "--in", run, "--n-max", "6", *boot, "--seed", str(s[5])], [], check_moments),
        CliOp("compare", ["compare", "--in", run, "--sigma", "1", "--d", "1", "--n-list", "2,3,4,5,6", *boot,
                          "--seed", str(s[6])], [], check_compare),
        CliOp("estimate", ["estimate", "--in-x", str(work / "x.csv"), "--in-p", str(work / "p.csv"), *boot,
                           "--seed", str(s[7])], [], check_estimate),
    ]


# ---------------------------------------------------------------- fock

def fock_ops(seed: int) -> list[tuple]:
    """All (r, loss, delta, cutoff) operations, in an order drawn from the seed."""
    ops = [(*state, cutoff) for state in FOCK_STATES for cutoff in FOCK_CUTOFFS]
    random.Random(seed).shuffle(ops)
    return ops


def fock_check(ops: list[tuple], eps: list) -> list[list[str]]:
    """Errors per operation; checks across cutoffs are charged to the anchor's cutoff-40 operation."""
    errors: list[list[str]] = []
    for (r, loss, delta, cutoff), ep in zip(ops, eps):
        errs = []
        if ep is None or not 0.0 <= ep <= 1.0:
            errs.append(f"EP {ep!r} at {(r, loss, delta, cutoff)} is not in [0, 1]")
        elif delta == 0.0 and cutoff == 40 and abs(ep - gaussian_ep(r, loss)) > 1e-5:
            errs.append(f"EP {ep!r} at {(r, loss)} differs from the Gaussian oracle {gaussian_ep(r, loss)!r}")
        errors.append(errs)
    if any(errors):
        return errors
    ep = {op: value for op, value in zip(ops, eps)}
    anchor = [ep[(*FOCK_STATES[0], c)] for c in FOCK_CUTOFFS]
    dephased = [ep[(*FOCK_STATES[1], c)] for c in FOCK_CUTOFFS]
    errs = errors[ops.index((*FOCK_STATES[0], 40))]
    if abs(anchor[-1] - ANCHOR_EP_CONVERGED) > 2e-4 or abs(anchor[-1] - anchor[-2]) > 1e-4:
        errs.append(f"anchor EP does not converge to {ANCHOR_EP_CONVERGED}: {anchor}")
    if any(b > a for a, b in zip(anchor, anchor[1:])):
        errs.append(f"anchor EP grows with the cutoff: {anchor}")
    if not all(0.0 < d < a for d, a in zip(dephased, anchor)):
        errs.append(f"more dephasing does not lower the EP: {dephased} vs {anchor}")
    return errors
