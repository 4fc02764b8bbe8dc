"""Command-line front end: simulation, tests, sweeps, estimation, entanglement potential.

Results go to stdout as a single JSON object; bulk tables go to CSV files.
Every run echoes its fully resolved configuration into the output. Every option
is declared once, in the OPTIONS table: type, default, help and the library rule
its value must pass, if any. COMMANDS lists each subcommand's options and default
overrides. --config values become flag tokens before the explicit flags, so one
argparse parser converts and checks every value, and a flag wins over the file.
main runs every option rule before a command reads input; a command checks only
the bootstrap plan, select's window, --steps and --n-list, before its read.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure; a package
error type carries its own, and an error writes one JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .binning import check_bin_size
from .data import (
    check_injected_spread,
    check_phase_window,
    check_seed,
    check_selection_window,
    inject_phase_noise,
    population,
    read_csv,
    sample_dataset,
    select_phase_window,
    write_csv,
)
from .detect import MIN_MOMENT_ORDER, analytic_three_bin_R, check_bin_distance, check_moment_order
from .errors import QuadbinError, UndefinedStatisticError, UsageError
from .estimate import (
    db_from_variance,
    estimate_params,
    params_statistic,
    residuals,
    squeezing_for_target,
    summarize,
    variance_from_db,
)
from .fock import DEFAULT_CUTOFF, check_cutoff, entanglement_potential, state_from_params
from .model import StateParams
from .stats import (
    REPLACEMENT,
    SUBSAMPLE,
    BootstrapSpec,
    ViolationReport,
    compare_methods,
    detector_reports,
    moment_statistic,
    resample_values,
    significant,
    spread,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token is a value, not a flag, when float() reads it after the minus: -1e-3, -.5e1, -inf and -nan too
        self._negative_number_matcher = re.compile(r"^-(?:\d|\.\d|inf(?:inity)?$|nan$)", re.I)

    # argparse exits 2 on bad flags; route through the package's exit taxonomy instead
    def error(self, message):
        raise UsageError(message)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _fail(code: int, exc: BaseException) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
    return code


def _flag(key: str) -> str:
    """Command-line flag of an option key."""
    return "--in" if key == "in_path" else "--" + key.replace("_", "-")


def _config_tokens(path: str, command: Command) -> list[str]:
    """One ``--flag=text`` token per non-null value a --config JSON object gives an option of ``command``.

    argparse converts and checks each token as it does the flag itself; this only
    asks that the file hold an object and that each value be text, or a JSON
    number for a numeric option. Keys that are not options of the command are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("--config must hold a JSON object")
    tokens = []
    for key in command.options:
        value = cfg.get(key)
        if value is None:
            continue
        kinds = (str, int, float) if OPTIONS[key][0] in (int, float) else str
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise UsageError(f"invalid config value for {_flag(key)}: {value!r}")
        tokens.append(f"{_flag(key)}={value}")
    return tokens


def _bootstrap_spec(resolved: dict) -> BootstrapSpec:
    return BootstrapSpec(resolved["resample_size"], resolved["bootstrap"], resolved["seed"], resolved["mode"])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return value if isinstance(value, str) else repr(value)


def _write_table(path: str, columns: list[str], rows) -> None:
    """Write dict rows as CSV: numbers by repr, flags as 0/1, missing cells empty."""
    lines = [",".join(columns)] + [",".join(_cell(row.get(c)) for c in columns) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- simulate


def cmd_simulate(cfg: dict) -> dict:
    if (cfg["r"] is None) == (cfg["target_db"] is None):
        raise UsageError("exactly one of --r and --target-db is required")
    if cfg["r"] is None:
        cfg["r"] = squeezing_for_target(variance_from_db(cfg["target_db"]), cfg["loss"], cfg["delta"])
    params = StateParams(cfg["r"], cfg["loss"], cfg["delta"])
    data = sample_dataset(params, cfg["n"], cfg["seed"], cfg["phase_window"], cfg["center"])
    write_csv(data, cfg["out"])
    var_x = float(np.var(data.x))  # 0 for a single record, whose variance in dB is undefined
    return {
        "n": data.n,
        "out": cfg["out"],
        "r": params.r,
        "loss": params.loss,
        "delta": params.delta,
        "var_x_db": db_from_variance(var_x) if var_x > 0.0 else None,
    }


# ---------------------------------------------------------------- three-bin and sweep-sigma


def _ratio_reports(cfg: dict, sigmas: list[float]) -> tuple[list[ViolationReport], list, list[float]]:
    """The ratio's report at each bin size in ``sigmas``, its population value (None unless the input names its
    state) and its value on the whole input; one resample stream serves every size, so neighbouring sizes are paired."""
    spec = _bootstrap_spec(cfg)
    data = read_csv(cfg["in_path"])
    reports, points = detector_reports(data, spec, sigmas, cfg["d"])
    dist = population(data.meta)
    return reports, [analytic_three_bin_R(dist, s, cfg["d"]) if dist is not None else None for s in sigmas], points


def cmd_three_bin(cfg: dict) -> dict:
    reports, (analytic,), (r_point,) = _ratio_reports(cfg, [cfg["sigma"]])
    (report,) = significant(reports)
    return {
        "sigma": cfg["sigma"],
        "d": cfg["d"],
        "r_point": r_point,
        "r_mean": report.mean,
        "r_std": report.std,
        "v": report.v,
        "nonclassical": report.detected,
        "analytic": analytic,
        "n_flagged": report.n_flagged,
    }


def cmd_sweep_sigma(cfg: dict) -> dict:
    steps = cfg["steps"]
    if steps < 1:
        raise UsageError("--steps must be >= 1")
    sigmas = np.linspace(cfg["sigma_from"], cfg["sigma_to"], steps).tolist()
    reports, analytic, _ = _ratio_reports(cfg, sigmas)
    rows = [
        {"sigma": s, "r_mean": rep.mean, "r_std": rep.std, "r_analytic": r, "nonclassical": rep.detected,
         "n_flagged": rep.n_flagged}
        for s, rep, r in zip(sigmas, reports, analytic)
    ]
    usable = [row for row in rows if row["n_flagged"] < cfg["bootstrap"]]
    if not usable:
        raise UndefinedStatisticError("every resample at every bin width has an empty bin; the sweep has no ratio")
    _write_table(cfg["out"], ["sigma", "r_mean", "r_std", "r_analytic", "nonclassical", "n_flagged"], rows)
    best = min(usable, key=lambda row: row["r_mean"])
    return {
        "out": cfg["out"],
        "d": cfg["d"],
        "steps": steps,
        "min_sigma": best["sigma"],
        "min_r_mean": best["r_mean"],
        "min_r_std": best["r_std"],
    }


# ---------------------------------------------------------------- moments


def cmd_moments(cfg: dict) -> dict:
    spec = _bootstrap_spec(cfg)
    data = read_csv(cfg["in_path"])
    reports, points = detector_reports(data, spec, orders=range(MIN_MOMENT_ORDER, cfg["n_max"] + 1))
    rows = [
        {"n": rep.params["n"], "lambda_point": point, "lambda_mean": rep.mean, "lambda_std": rep.std, "v": rep.v,
         "nonclassical": rep.detected}
        for rep, point in zip(reports, points)
    ]
    return {"rows": rows}


# ---------------------------------------------------------------- estimate


def cmd_estimate(cfg: dict) -> dict:
    spec = _bootstrap_spec(cfg)
    data_x = read_csv(cfg["in_x"])
    data_p = read_csv(cfg["in_p"])
    summary = summarize(data_x.x, data_p.x)
    params = estimate_params(summary)
    sizes = [data_x.n, data_p.n]
    statistic = params_statistic(data_x.x, data_p.x, spec.sized(min(sizes)).resample_size)
    draws = resample_values(spec, sizes, [1, 2], statistic)
    # failed draws are dropped from the spread
    failed = np.isnan(draws).any(axis=0)
    std_r, std_l, std_delta = (None if failed.all() else spread(row[~failed]) for row in draws)
    return {
        "r": params.r,
        "l": params.loss,
        "delta": params.delta,
        "std_r": std_r,
        "std_l": std_l,
        "std_delta": std_delta,
        "var_x_db": db_from_variance(summary.var_x),
        "var_p_db": db_from_variance(summary.var_p),
        "residuals": residuals(params, summary),
        "summary": {"var_x": summary.var_x, "var_p": summary.var_p, "kurt_x": summary.kurt_x},
        "n_flagged": int(failed.sum()),
    }


# ---------------------------------------------------------------- ep


def cmd_ep(cfg: dict) -> dict:
    state = state_from_params(StateParams(cfg["r"], cfg["loss"], cfg["delta"]), cfg["cutoff"])
    return {
        "ep": entanglement_potential(state),
        "cutoff": state.cutoff,
        "truncated_mass": state.truncated_mass,
        "trace": state.trace,
    }


# ---------------------------------------------------------------- compare


def cmd_compare(cfg: dict) -> dict:
    try:
        orders = [int(tok) for tok in cfg["n_list"].split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--n-list expects comma-separated integers, got {cfg['n_list']!r}") from None
    moment_statistic(*orders)  # checks the orders as compare_methods will
    spec = _bootstrap_spec(cfg)
    data = read_csv(cfg["in_path"])
    reports = compare_methods(data, cfg["sigma"], cfg["d"], orders, spec)
    dist = population(data.meta)
    ep = entanglement_potential(state_from_params(dist.params, cfg["cutoff"])) if dist is not None else None
    if cfg["out"]:
        columns = ["method", "sigma", "d", "n", "mean", "std", "v", "n_flagged"]
        _write_table(cfg["out"], columns, ({**rep.params, **rep.to_json_dict()} for rep in reports))
    return {
        "delta": dist.params.delta if dist is not None else None,
        "reports": [rep.to_json_dict() for rep in reports],
        "ep": ep,
    }


# ---------------------------------------------------------------- inject / select


def cmd_inject(cfg: dict) -> dict:
    data = read_csv(cfg["in_path"])
    noisy = inject_phase_noise(data, cfg["delta_e"], cfg["seed"])
    write_csv(noisy, cfg["out"])
    return {"n": noisy.n, "delta_e": cfg["delta_e"], "out": cfg["out"]}


def cmd_select(cfg: dict) -> dict:
    check_selection_window(cfg["center"], cfg["half_width"])
    data = read_csv(cfg["in_path"])
    kept = select_phase_window(data, cfg["center"], cfg["half_width"])
    write_csv(kept, cfg["out"])
    return {
        "n_in": data.n,
        "n_kept": kept.n,
        "fraction": kept.n / data.n if data.n else 0.0,
        "empty": kept.meta["empty_selection"],
        "out": cfg["out"],
    }


# ---------------------------------------------------------------- option table

# key: (argparse type, or a tuple of choices; built-in default; help[; the library rule the value must pass])
OPTIONS = {
    "in_path": (str, None, "input CSV"),
    "in_x": (str, None, "squeezing-axis (x) input CSV"),
    "in_p": (str, None, "anti-squeezing-axis (p) input CSV"),
    "out": (str, None, "CSV output path"),
    "r": (float, None, "squeezing parameter"),
    "target_db": (float, None, "target squeezing-axis variance in dB"),
    "loss": (float, 0.0, "loss fraction in [0, 1]; below 1 with --target-db"),
    "delta": (float, 0.0, "phase-diffusion spread (rad)"),
    "n": (int, 10_000, "number of records"),
    "seed": (int, 0, "master seed", check_seed),
    "phase_window": (float, 0.0, "half-width of a uniform phase scan (rad)", check_phase_window),
    "center": (float, 0.0, "simulate: nominal measurement phase; select: center of the kept window (rad)"),
    "sigma": (float, 1.0, "bin width", check_bin_size),
    "d": (int, 1, "bin distance", check_bin_distance),
    "sigma_from": (float, 0.2, "first bin width of the sweep", check_bin_size),
    "sigma_to": (float, 3.0, "last bin width of the sweep", check_bin_size),
    "steps": (int, 15, "number of bin widths in the sweep"),
    "n_max": (int, 6, "largest moment-matrix order", check_moment_order),
    "n_list": (str, "2,3,4,5,6", "comma-separated moment orders"),
    "cutoff": (int, DEFAULT_CUTOFF, "Fock-space cutoff", check_cutoff),
    "delta_e": (float, None, "spread of the added phase noise (rad)", check_injected_spread),
    "half_width": (float, None, "half-width of the kept phase window (rad)"),
    "bootstrap": (int, 100, "number of resamples B"),
    "resample_size": (int, None, "records per resample"),
    "mode": ((SUBSAMPLE, REPLACEMENT), SUBSAMPLE, "resampling mode"),
}

BOOTSTRAP_OPTIONS = ("bootstrap", "resample_size", "mode", "seed")


@dataclass(frozen=True)
class Command:
    """A subcommand: its run function, help, option keys, required keys and default overrides."""

    run: Callable[[dict], dict]
    help: str
    options: tuple[str, ...]
    required: tuple[str, ...]
    defaults: dict = field(default_factory=dict)


COMMANDS = {
    "simulate": Command(
        cmd_simulate,
        "draw homodyne records from the forward model",
        ("r", "target_db", "loss", "delta", "n", "seed", "phase_window", "center", "out"),
        ("out",),
    ),
    "three-bin": Command(
        cmd_three_bin,
        "binned ratio test with bootstrap errors",
        ("in_path", "d", "sigma", *BOOTSTRAP_OPTIONS),
        ("in_path",),
    ),
    "sweep-sigma": Command(
        cmd_sweep_sigma,
        "bin-size sweep of the ratio test",
        ("in_path", "steps", "d", "sigma_from", "sigma_to", "out", *BOOTSTRAP_OPTIONS),
        ("in_path", "out"),
    ),
    "moments": Command(
        cmd_moments,
        "minimum moment-matrix eigenvalues up to order n-max",
        ("in_path", "n_max", *BOOTSTRAP_OPTIONS),
        ("in_path",),
    ),
    "estimate": Command(
        cmd_estimate,
        "recover (r, loss, delta) from x and p quadrature files",
        ("in_x", "in_p", *BOOTSTRAP_OPTIONS),
        ("in_x", "in_p"),
        {"mode": REPLACEMENT},
    ),
    "ep": Command(cmd_ep, "entanglement potential of the forward state", ("r", "loss", "delta", "cutoff"), ("r",)),
    "compare": Command(
        cmd_compare,
        "paired bin-test vs moment-method comparison",
        ("in_path", "d", "sigma", "n_list", "cutoff", "out", *BOOTSTRAP_OPTIONS),
        ("in_path",),
    ),
    "inject": Command(
        cmd_inject,
        "add Gaussian noise to the recorded phases",
        ("in_path", "delta_e", "seed", "out"),
        ("in_path", "delta_e", "out"),
    ),
    "select": Command(
        cmd_select,
        "keep records inside a phase window",
        ("in_path", "center", "half_width", "out"),
        ("in_path", "half_width", "out"),
    ),
}


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadbin", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for key in command.options:
            kind, default, text = OPTIONS[key][:3]
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument(_flag(key), dest=key, default=command.defaults.get(key, default), help=text, **typed)
        sub.add_argument("--config", help="JSON file with option values; explicit flags win")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        command = COMMANDS[args.command]
        if args.config:
            # config tokens go right after the subcommand; argparse keeps the last value, so a flag wins
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_tokens(args.config, command), *argv[at:]])
        cfg = {key: getattr(args, key) for key in command.options}
        missing = [key for key in command.required if cfg[key] is None]
        if missing:
            raise UsageError("missing required option(s): " + ", ".join(_flag(k) for k in missing))
        for key in command.options:  # each option's library rule, if it has one, in option order
            if len(OPTIONS[key]) > 3 and cfg[key] is not None:
                OPTIONS[key][3](cfg[key])
        # the echo is the dict the command ran with, so simulate's resolved r shows up;
        # floating-point warnings stay off stderr, which holds at most the one JSON error
        with np.errstate(all="ignore"):
            _emit({**command.run(cfg), "config": cfg})
        return EXIT_OK
    except QuadbinError as exc:
        return _fail(exc.exit_code, exc)
    except (OSError, UnicodeDecodeError) as exc:  # a decode error here is a --config file that is not UTF-8
        return _fail(EXIT_DATA, exc)
    except (np.linalg.LinAlgError, OverflowError, MemoryError) as exc:
        return _fail(EXIT_NUMERIC, exc)
    except ValueError as exc:
        return _fail(EXIT_USAGE, exc)


if __name__ == "__main__":
    sys.exit(main())
