"""Batch command-line interface.

Four subcommands: ``analytic`` evaluates a closed-form or quadrature curve
onto a grid, ``simulate`` runs the Monte Carlo estimator, ``compare`` scores
two exported curves against each other, and ``app`` runs the link-budget and
reach calculators. Curves travel as CSV (one header row, full round-trip
float precision, ``\\n`` newlines) with a JSON metadata sidecar so every
artifact can be reproduced from its own files.

Options resolve in three layers: hard defaults, then a ``--config`` file of
``key = value`` lines, then explicit flags. Exit codes: 0 success, 2 bad
configuration or parameters, 3 quadrature tolerance not reached, 4 runtime
failures (IO and the rest). ``-v`` (before the subcommand) logs progress,
such as the Monte Carlo throughput, to stderr; it never changes an output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .analytic import (
    DEFAULT_VARIANT,
    cdf_naive_recursion,
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_two_turn_bound,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    equivalent_ppp_density,
)
from .applications import (
    REACH_POLICIES,
    RisLinkParams,
    db_to_linear,
    farfield_threshold_distance,
    nearfield_threshold_distance,
    reach_quantile,
)
from .errors import (
    DomainError,
    GridMismatch,
    LineCoxError,
    NegativeIntensity,
    NegativeT,
    NonFinite,
    NonPositiveParameter,
    NonPositiveRadius,
    NonPositiveScale,
    PolicyBudgetNegative,
    QuadratureFailure,
    TBeyondClip,
    TooManyLines,
    TooManyPoints,
    ZeroMu,
)
from .model import (
    AngleLaw,
    DistributionCurve,
    ModelParams,
    TurnPolicy,
    typical_intersection,
    typical_point,
)
from .experiments import compare as compare_curves
from .experiments import run_mc

__all__ = ["main", "RunConfig", "parse_grid"]

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_RUNTIME = 4

# canonical curve names plus the descriptive aliases
_WHICH_CANONICAL = ("thm1", "thm2", "cor1", "cor2", "thm3-bound", "naive", "ppp")
_WHICH_ALIASES = {
    "one-turn-point": "thm1",
    "one-turn-intersection": "thm2",
    "zero-turn-intersection": "cor1",
    "upper-intersection": "cor2",
    "two-turn-bound": "thm3-bound",
    "single-ray": "naive",
    "ppp-reference": "ppp",
}

_SCENARIOS = ("point", "intersection")
_SCENARIO_ALIASES = {"typical-point": "point", "typical-intersection": "intersection"}
_POLICIES = ("zero-turn", "one-turn", "two-turn-directed", "k-turn")

_ERRORS_CONFIG = (
    NonFinite, NegativeIntensity, ZeroMu, NonPositiveScale, NegativeT,
    NonPositiveParameter, NonPositiveRadius, PolicyBudgetNegative,
    GridMismatch, TBeyondClip, DomainError, TooManyLines, TooManyPoints,
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    options: Mapping[str, Any]
    provided: frozenset  # keys set by the config file or explicit flags

    def __getattr__(self, name: str) -> Any:
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:step`` into a grid, inclusive of ``stop`` when the
    step divides the span within 1e-12 (relative)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid endpoints and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"grid needs step > 0 and stop >= start, got {text!r}")
    if stop == start:
        return np.array([start])
    n = int(round((stop - start) / step))
    if n >= 1 and abs(start + n * step - stop) <= 1e-12 * max(1.0, abs(stop)):
        return np.linspace(start, stop, n + 1)
    count = int(math.floor((stop - start) / step + 1e-12)) + 1
    return start + step * np.arange(count)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _read_config_file(path: str) -> dict:
    """Plain ``key = value`` lines; ``#`` starts a comment."""
    opts = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, value = line.split("=", 1)
            opts[key.strip().replace("-", "_")] = value.strip()
    if "lambda" in opts:  # flag is --lambda, attribute is lam
        opts["lam"] = opts.pop("lambda")
    return opts


# converters applied to config-file strings; explicit flags are converted
# by argparse itself
_CONVERTERS: dict[str, Callable[[str], Any]] = {
    "lam": float, "mu": float, "density": float, "tol": float, "alpha": float,
    "t_max": float, "ks_threshold": float, "p": float,
    "trials": int, "seed": int, "workers": int, "k": int,
    "exact_turns": _parse_bool, "db": _parse_bool,
    "g_t": float, "g_r": float, "g": float, "wavelength": float, "area": float,
    "m": float, "n": float, "d_x": float, "d_y": float, "p_t": float,
    "n0": float, "gamma": float,
}

_DEFAULTS: dict[str, dict[str, Any]] = {
    "analytic": {
        "which": "thm1", "lam": 1.0, "mu": 1.0, "density": None,
        "grid": "0:3:0.01", "tol": None, "out": None,
    },
    "simulate": {
        "lam": 1.0, "mu": 1.0, "scenario": "point", "angle_law": "uniform",
        "policy": "one-turn", "k": 2, "exact_turns": False,
        "trials": 10000, "t_max": None, "grid": "0:3:0.01",
        "seed": 1, "workers": None, "alpha": 0.05, "out": None,
    },
    "compare": {"ks_threshold": 1.0, "out": None},
    "ris-nearfield": {
        "lam": 1.0, "mu": 1.0, "db": False,
        "g_t": 1.0, "g_r": 1.0, "g": 1.0, "wavelength": 1.0, "area": 1.0,
        "m": 1.0, "n": 1.0, "d_x": 1.0, "d_y": 1.0, "p_t": 1.0, "n0": 1.0,
        "gamma": 1.0,
    },
    "ev-quantile": {
        "lam": 1.0, "mu": 1.0, "p": 0.5, "policy": "one-turn-point",
        "tol": 1e-6,
    },
}
_DEFAULTS["ris-farfield"] = dict(_DEFAULTS["ris-nearfield"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linecox",
        description="Street-distance distributions on Poisson line Cox networks.")
    parser.add_argument("--version", action="version", version=f"linecox {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress (INFO) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(sp, *names, **kw):
        kw.setdefault("default", argparse.SUPPRESS)
        sp.add_argument(*names, **kw)

    pa = sub.add_parser("analytic", help="evaluate an analytic curve onto a grid")
    add(pa, "--config")
    add(pa, "--which", choices=_WHICH_CANONICAL + tuple(_WHICH_ALIASES))
    add(pa, "--lambda", dest="lam", type=float, help="line intensity")
    add(pa, "--mu", type=float, help="on-line point intensity")
    add(pa, "--density", type=float,
        help="planar intensity for --which ppp (default: equivalent PLCP density)")
    add(pa, "--grid", help="start:stop:step")
    add(pa, "--tol", type=float, help="quadrature tolerance")
    add(pa, "--out", help="CSV path; metadata goes to a .json sidecar")

    ps = sub.add_parser("simulate", help="Monte Carlo ECDF of the path length")
    add(ps, "--config")
    add(ps, "--lambda", dest="lam", type=float)
    add(ps, "--mu", type=float)
    add(ps, "--scenario", choices=_SCENARIOS + tuple(_SCENARIO_ALIASES))
    add(ps, "--angle-law", dest="angle_law", choices=("uniform", "sin"))
    add(ps, "--policy", choices=_POLICIES)
    add(ps, "--k", type=int, help="turn budget for --policy k-turn")
    add(ps, "--exact-turns", dest="exact_turns", action="store_true",
        help="count only paths using the full turn budget")
    add(ps, "--trials", type=int)
    add(ps, "--t-max", dest="t_max", type=float, help="censoring horizon")
    add(ps, "--grid", help="start:stop:step")
    add(ps, "--seed", type=int)
    add(ps, "--workers", type=int, help="process count (default: env or 1)")
    add(ps, "--alpha", type=float, help="DKW band level")
    add(ps, "--out", help="CSV path; metadata goes to a .json sidecar")

    pc = sub.add_parser("compare", help="score two exported curves")
    pc.add_argument("a", help="first curve CSV")
    pc.add_argument("b", help="second curve CSV")
    add(pc, "--config")
    add(pc, "--ks-threshold", dest="ks_threshold", type=float,
        help="verdict is pass iff ks <= this")
    add(pc, "--out", help="report JSON path (default: stdout)")

    pp = sub.add_parser("app", help="link-budget and reach calculators")
    app_sub = pp.add_subparsers(dest="app_command", required=True)
    for name in ("ris-nearfield", "ris-farfield"):
        px = app_sub.add_parser(name)
        add(px, "--config")
        add(px, "--lambda", dest="lam", type=float)
        add(px, "--mu", type=float)
        add(px, "--db", action="store_true",
            help="read --g-t/--g-r/--g/--gamma as dB")
        add(px, "--g-t", dest="g_t", type=float)
        add(px, "--g-r", dest="g_r", type=float)
        add(px, "--g", type=float)
        add(px, "--wavelength", type=float)
        add(px, "--area", type=float)
        add(px, "--m", type=float)
        add(px, "--n", type=float)
        add(px, "--d-x", dest="d_x", type=float)
        add(px, "--d-y", dest="d_y", type=float)
        add(px, "--p-t", dest="p_t", type=float)
        add(px, "--n0", type=float)
        add(px, "--gamma", type=float)
    pq = app_sub.add_parser("ev-quantile")
    add(pq, "--config")
    add(pq, "--lambda", dest="lam", type=float)
    add(pq, "--mu", type=float)
    add(pq, "--p", type=float, help="target probability in [0, 1)")
    add(pq, "--policy", choices=REACH_POLICIES)
    add(pq, "--tol", type=float)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    explicit = dict(vars(args))
    explicit.pop("verbose")
    command = explicit.pop("command")
    if command == "app":
        command = explicit.pop("app_command")
    config_path = explicit.pop("config", None)
    for positional in ("a", "b"):
        explicit.pop(positional, None)

    options = dict(_DEFAULTS[command])
    provided = set(explicit)
    if config_path is not None:
        for key, raw in _read_config_file(config_path).items():
            if key not in options:
                raise ValueError(f"unknown config key {key!r} for {command}")
            options[key] = _CONVERTERS.get(key, str)(raw)
            provided.add(key)
    unknown = provided - set(options)
    if unknown:
        raise ValueError(f"unknown options {sorted(unknown)} for {command}")
    options.update(explicit)  # flags win over the file
    return RunConfig(command, options, frozenset(provided))


def _format_float(x: float) -> str:
    # + 0.0 leaves every value unchanged except -0.0, which prints as 0.0
    return repr(float(x) + 0.0)


def _write_csv(out: str | None, header: tuple, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_float(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _sidecar_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".json"


def _write_sidecar(out: str | None, meta: dict) -> None:
    if out is None:
        return
    with open(_sidecar_path(out), "w", newline="") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _print_json(obj: dict, out: str | None = None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_analytic(cfg: RunConfig) -> int:
    which = _WHICH_ALIASES.get(cfg.which, cfg.which)
    grid = parse_grid(cfg.grid)
    err = np.zeros_like(grid)
    meta: dict[str, Any] = {
        "command": "analytic", "which": which, "grid": cfg.grid,
        "version": __version__,
    }

    if which == "ppp":
        if cfg.density is not None:
            density = cfg.density
        elif "lam" in cfg.provided and "mu" in cfg.provided:
            density = equivalent_ppp_density(ModelParams(cfg.lam, cfg.mu))
        else:
            raise ValueError(
                "ppp needs --density, or --lambda and --mu to derive the "
                "equivalent planar density")
        values = cdf_ppp2d_reference(density, grid)
        meta["params"] = {"density": density}
    else:
        params = ModelParams(cfg.lam, cfg.mu)
        meta["params"] = {"lambda": cfg.lam, "mu": cfg.mu}
        if which == "thm1":
            values = cdf_one_turn_point(params, grid)
        elif which == "naive":
            values = cdf_naive_recursion(params, grid)
        elif which == "cor1":
            values = cdf_zero_turn_intersection(params, grid)
        elif which == "cor2":
            values = cdf_upper_intersection(params, grid)
        elif which == "thm2":
            tol = cfg.tol if cfg.tol is not None else 1e-6
            values, err = cdf_one_turn_intersection(
                params, grid, tol=tol, with_err=True)
            meta["variant"] = DEFAULT_VARIANT.label()
            meta["tol"] = tol
        elif which == "thm3-bound":
            tol = cfg.tol if cfg.tol is not None else 1e-5
            values, err = cdf_two_turn_bound(params, grid, tol=tol, with_err=True)
            meta["tol"] = tol
        else:
            raise ValueError(f"unknown curve {cfg.which!r}")

    values = np.atleast_1d(np.asarray(values, dtype=float))
    err = np.atleast_1d(np.asarray(err, dtype=float))
    _write_csv(cfg.out, ("t", "F", "err_est"), zip(grid, values, err))
    _write_sidecar(cfg.out, meta)
    return EXIT_OK


def _policy_from(cfg: RunConfig) -> TurnPolicy:
    include = not cfg.exact_turns
    if cfg.policy == "zero-turn":
        return TurnPolicy.zero_turn()
    if cfg.policy == "one-turn":
        return TurnPolicy.one_turn(include_lower_turn_paths=include)
    if cfg.policy == "two-turn-directed":
        return TurnPolicy.two_turn_directed(include_lower_turn_paths=include)
    return TurnPolicy.k_turn(cfg.k, include_lower_turn_paths=include)


def cmd_simulate(cfg: RunConfig) -> int:
    params = ModelParams(cfg.lam, cfg.mu)
    kind = _SCENARIO_ALIASES.get(cfg.scenario, cfg.scenario)
    if kind == "point":
        scenario = typical_point()
    else:
        law = AngleLaw.UNIFORM if cfg.angle_law == "uniform" else AngleLaw.SIN_WEIGHTED
        scenario = typical_intersection(law)
    policy = _policy_from(cfg)
    grid = parse_grid(cfg.grid)
    t_max = cfg.t_max if cfg.t_max is not None else float(grid[-1])
    if grid[-1] > t_max + 1e-12:
        raise ValueError(
            f"grid reaches {grid[-1]} but --t-max censors at {t_max}")

    curve = run_mc(params, scenario, policy, cfg.trials, t_max, cfg.seed,
                   grid=grid, workers=cfg.workers, alpha=cfg.alpha)
    hw = curve.ci_halfwidth
    rows = zip(curve.grid, curve.values, curve.values - hw, curve.values + hw)
    _write_csv(cfg.out, ("t", "F", "ci_lo", "ci_hi"), rows)
    meta = dict(curve.meta)
    meta.update({"command": "simulate", "grid": cfg.grid, "version": __version__})
    _write_sidecar(cfg.out, meta)
    return EXIT_OK


def _load_curve(path: str) -> DistributionCurve:
    """A curve CSV written by ``analytic`` or ``simulate``, with the meta of
    its JSON sidecar when one exists. A file without data rows, with rows of
    the wrong width or with non-numeric cells raises ValueError naming it."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    widths = {("t", "F", "err_est"): 3, ("t", "F", "ci_lo", "ci_hi"): 4}
    width = widths.get(tuple(header))
    if width is None:
        raise ValueError(f"{path}: unrecognized curve header {header!r}")
    if not rows:
        raise ValueError(f"{path}: no data rows below the header")
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path}: every row needs {width} columns")
    try:
        arr = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if width == 3:
        grid, values, hw = arr[:, 0], arr[:, 1], arr[:, 2]
    else:
        grid, values = arr[:, 0], arr[:, 1]
        hw = (arr[:, 3] - arr[:, 2]) / 2.0
    meta = {}
    sidecar = _sidecar_path(path)
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:
        _log.warning("ignoring the unreadable sidecar %s: %s", sidecar, exc)
    if not isinstance(meta, dict):
        _log.warning("ignoring the sidecar %s: not a JSON object", sidecar)
        meta = {}
    return DistributionCurve(grid, values, hw, meta)


def cmd_compare(cfg: RunConfig, a_path: str, b_path: str) -> int:
    report = compare_curves(_load_curve(a_path), _load_curve(b_path))
    verdict = "pass" if report.ks_distance <= cfg.ks_threshold else "fail"
    _print_json({
        "a": a_path,
        "b": b_path,
        "ks": report.ks_distance,
        "argmax_t": report.argmax_t,
        "inside_band_fraction": report.inside_band_fraction,
        "all_inside": report.all_inside,
        "pointwise_a_le_b": report.a_le_b,
        "pointwise_b_le_a": report.b_le_a,
        "ks_threshold": cfg.ks_threshold,
        "n_grid": int(report.grid.size),
        "verdict": verdict,
    }, cfg.out)
    return EXIT_OK


def _link_from(cfg: RunConfig) -> RisLinkParams:
    vals = {name: getattr(cfg, name)
            for name in ("g_t", "g_r", "g", "wavelength", "area", "m", "n",
                         "d_x", "d_y", "p_t", "n0", "gamma")}
    if cfg.db:
        for key in ("g_t", "g_r", "g", "gamma"):
            vals[key] = db_to_linear(vals[key])
    return RisLinkParams(**vals)


def cmd_app(cfg: RunConfig) -> int:
    model = ModelParams(cfg.lam, cfg.mu)
    if cfg.command == "ev-quantile":
        t_star = reach_quantile(model, cfg.p, cfg.policy, tol=cfg.tol)
        _print_json({
            "command": "ev-quantile", "p": cfg.p, "policy": cfg.policy,
            "quantile": t_star,
            "model": {"lambda": cfg.lam, "mu": cfg.mu},
            "version": __version__,
        })
        return EXIT_OK

    link = _link_from(cfg)
    if cfg.command == "ris-nearfield":
        d_star = nearfield_threshold_distance(link)
        key = "probability"
    else:
        d_star = farfield_threshold_distance(link)
        key = "probability_lower_bound"
    _print_json({
        "command": cfg.command,
        "threshold_distance": d_star,
        key: cdf_one_turn_point(model, d_star),
        "model": {"lambda": cfg.lam, "mu": cfg.mu},
        "db_inputs": bool(cfg.db),
        "version": __version__,
    })
    return EXIT_OK


@contextlib.contextmanager
def _logging_to_stderr(verbose: bool):
    """With ``verbose``, INFO records of the package go to the current
    stderr for the duration of one command."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("linecox")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("linecox: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with _logging_to_stderr(args.verbose):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = _resolve(args)
        if cfg.command == "analytic":
            return cmd_analytic(cfg)
        if cfg.command == "simulate":
            return cmd_simulate(cfg)
        if cfg.command == "compare":
            return cmd_compare(cfg, args.a, args.b)
        return cmd_app(cfg)
    except QuadratureFailure as exc:
        print(f"linecox: quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (_ERRORS_CONFIG + (ValueError,)) as exc:
        print(f"linecox: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LineCoxError, OSError) as exc:
        print(f"linecox: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
