"""Batch command-line interface.

Four subcommands: ``analytic`` evaluates a closed-form or quadrature curve
onto a grid, ``simulate`` runs the Monte Carlo estimator, ``compare`` scores
two exported curves against each other, and ``app`` runs the link-budget and
reach calculators. Curves travel as CSV (one header row, full round-trip
float precision, ``\\n`` newlines) with a JSON metadata sidecar so every
artifact can be reproduced from its own files.

``_OPTIONS`` is the single list of each subcommand's options: key, flag,
default, type, choices, aliases and help, each declared once. The argparse
flags, the ``--config`` conversion and the defaults are all built from it.
Options resolve in three layers: hard defaults, then a ``--config`` file of
``key = value`` lines, then explicit flags. A file value goes through the
same type, aliases and choices as its flag, so a value outside a choice set
exits 2 naming its key, and every alias resolves to its canonical value.
Exit codes go by error type: 0 success, 2 any ValueError (bad
configuration or parameters; every ``errors.InputError`` is one), 3
``QuadratureFailure`` (tolerance not reached), 4 runtime failures (any
other ``LineCoxError``, IO and the rest). ``-v`` (before
the subcommand) logs progress, such as the Monte Carlo throughput, to
stderr; it never changes an output.

The argparse parser is built once per process, on the first ``main()``
call (``import linecox`` builds none), and nothing writes to it after
that: every option defaults to ``argparse.SUPPRESS``, so defaults come
from ``_OPTIONS`` alone, and argparse looks up ``sys.stdout`` and
``sys.stderr`` only when it prints. Each request only parses its argv.
A ``--grid``, or the default grid of a ``--t-max`` given alone, ends at a
stop within 1e-12 of a step (relative to the larger of |start| and
|stop|), else at the last step at or below it.
One of more than ``MAX_GRID_POINTS`` points exits 2 before any array is
allocated, and running out of memory exits 4.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields
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
    farfield_success_lower_bound,
    farfield_threshold_distance,
    nearfield_success,
    nearfield_threshold_distance,
    reach_quantile,
)
from .errors import InputError, LineCoxError, NonFinite, QuadratureFailure, _shown
from .model import (
    AngleLaw,
    DistributionCurve,
    ModelParams,
    PalmKind,
    PalmScenario,
    PolicyKind,
    TurnPolicy,
)
from .experiments import compare as compare_curves
from .experiments import MAX_GRID_POINTS, _even_grid, run_mc
from .quadrature import check_tol

__all__ = ["main", "RunConfig", "parse_grid"]

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_RUNTIME = 4

# curve token -> (curve, default quadrature tol; None for a closed form)
_CURVES = {
    "thm1": (cdf_one_turn_point, None),
    "thm2": (cdf_one_turn_intersection, 1e-6),
    "cor1": (cdf_zero_turn_intersection, None),
    "cor2": (cdf_upper_intersection, None),
    "thm3-bound": (cdf_two_turn_bound, 1e-5),
    "naive": (cdf_naive_recursion, None),
    "ppp": (cdf_ppp2d_reference, None),
}
_DB_FIELDS = ("g_t", "g_r", "g", "gamma")  # the link gains --db reads in dB


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
    """Parse ``start:stop:step`` into a grid by the rule of
    ``experiments.default_grid``: a stop within 1e-12 of a step, relative to
    the larger of |start| and |stop|, ends the grid there, else the last
    step at or below stop does."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must be start:stop:step, got {_shown(text)}")
    try:
        start, stop, step = map(float, parts)
    except ValueError:
        raise InputError(f"grid {_shown(text)} holds a value that is no number") from None
    return _even_grid(start, stop, step, f"grid {_shown(text)}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InputError(f"expected a boolean, got {_shown(text)}")


def _read_config_file(path: str) -> dict:
    """Plain ``key = value`` lines; ``#`` starts a comment."""
    opts = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key = value, got {_shown(raw)}")
            key, value = line.split("=", 1)
            opts[key.strip().replace("-", "_")] = value.strip()
    return opts


@dataclass(frozen=True)
class _Option:
    """One option of a subcommand. ``key`` is its config-file key and its
    ``RunConfig`` attribute; its flag is ``--key`` with ``-`` for ``_``
    unless ``flag`` names another. ``_parse_bool`` as the type makes a
    store_true flag. An alias is accepted wherever a choice is, and
    resolves to the canonical choice it maps to."""

    key: str
    default: Any = None
    type: Callable[[str], Any] = str
    choices: tuple = ()
    aliases: Mapping[str, str] = field(default_factory=dict)
    help: str | None = None
    flag: str | None = None

    def __post_init__(self):
        if self.flag is None:
            object.__setattr__(self, "flag", "--" + self.key.replace("_", "-"))

    @property
    def accepted(self) -> tuple:
        return self.choices + tuple(self.aliases)

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        kw: dict[str, Any] = {"dest": self.key, "default": argparse.SUPPRESS,
                              "help": self.help}
        if self.type is _parse_bool:
            kw["action"] = "store_true"
        else:
            kw.update(type=self.type, choices=self.accepted or None)
        parser.add_argument(self.flag, **kw)

    def from_text(self, raw: str) -> Any:
        """A config-file value, through the flag's type and choices."""
        try:
            value = self.type(raw)
        except ValueError as exc:
            raise InputError(f"config key {_shown(self.key)}: {exc}") from None
        if self.choices and value not in self.accepted:
            raise InputError(f"config key {_shown(self.key)}: invalid choice {_shown(value)} "
                             f"(choose from {', '.join(self.accepted)})")
        return value


_LAM = _Option("lam", 1.0, float, help="line intensity", flag="--lambda")
_MU = _Option("mu", 1.0, float, help="on-line point intensity")
_GRID = _Option("grid", "0:3:0.01", help=f"start:stop:step, at most {MAX_GRID_POINTS} points")
_CURVE_OUT = _Option("out", help="CSV path; metadata goes to a .json sidecar")

_OPTIONS: dict[str, tuple[_Option, ...]] = {
    "analytic": (
        _Option("which", "thm1", choices=tuple(_CURVES), aliases={
            "one-turn-point": "thm1",
            "one-turn-intersection": "thm2",
            "zero-turn-intersection": "cor1",
            "upper-intersection": "cor2",
            "two-turn-bound": "thm3-bound",
            "single-ray": "naive",
            "ppp-reference": "ppp",
        }),
        _LAM,
        _MU,
        _Option("density", None, float, help="planar intensity for --which "
                "ppp (default: equivalent PLCP density)"),
        _GRID,
        _Option("tol", None, float, help="quadrature tolerance"),
        _CURVE_OUT,
    ),
    "simulate": (
        _LAM,
        _MU,
        _Option("scenario", "typical-point", choices=tuple(kind.value for kind in PalmKind),
                aliases={"point": "typical-point", "intersection": "typical-intersection"}),
        _Option("angle_law", "uniform", choices=tuple(law.value for law in AngleLaw)),
        _Option("policy", "one-turn", choices=tuple(kind.value for kind in PolicyKind)),
        _Option("k", 2, int, help="turn budget for --policy k-turn"),
        _Option("exact_turns", False, _parse_bool,
                help="count only paths using the full turn budget"),
        _Option("trials", 10000, int),
        _Option("t_max", None, float, help="censoring horizon (default: the "
                "--grid end; alone, it runs on the grid 0..t_max by 0.01)"),
        _GRID,
        _Option("seed", 1, int),
        _Option("workers", 1, int, help="process count (default: 1)"),
        _Option("alpha", 0.05, float, help="DKW band level"),
        _CURVE_OUT,
    ),
    "compare": (
        _Option("ks_threshold", 1.0, float, help="verdict is pass iff ks <= this"),
        _Option("out", help="report JSON path (default: stdout)"),
    ),
    "ev-quantile": (
        _LAM,
        _MU,
        _Option("p", 0.5, float, help="target probability in [0, 1)"),
        _Option("policy", "one-turn-point", choices=REACH_POLICIES),
        _Option("tol", 1e-6, float),
    ),
}
_OPTIONS["ris-nearfield"] = _OPTIONS["ris-farfield"] = (
    _LAM,
    _MU,
    _Option("db", False, _parse_bool, help="read {} as dB".format(
        "/".join("--" + name.replace("_", "-") for name in _DB_FIELDS))),
    *(_Option(f.name, 1.0, float) for f in fields(RisLinkParams)),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; callers only parse with it."""
    parser = argparse.ArgumentParser(
        prog="linecox",
        description="Street-distance distributions on Poisson line Cox networks.")
    parser.add_argument("--version", action="version", version=f"linecox {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress (INFO) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {
        "analytic": sub.add_parser("analytic", help="evaluate an analytic curve onto a grid"),
        "simulate": sub.add_parser("simulate", help="Monte Carlo ECDF of the path length"),
        "compare": sub.add_parser("compare", help="score two exported curves"),
    }
    parsers["compare"].add_argument("a", help="first curve CSV")
    parsers["compare"].add_argument("b", help="second curve CSV")
    app_sub = sub.add_parser("app", help="link-budget and reach calculators").add_subparsers(
        dest="app_command", required=True)
    for name in ("ris-nearfield", "ris-farfield", "ev-quantile"):
        parsers[name] = app_sub.add_parser(name)
    for name, sp in parsers.items():
        sp.add_argument("--config", default=argparse.SUPPRESS)
        for opt in _OPTIONS[name]:
            opt.add_to(sp)
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

    table = {opt.key: opt for opt in _OPTIONS[command]}
    options = {key: opt.default for key, opt in table.items()}
    provided = set(explicit)
    if config_path is not None:
        # a file names an option by its key or by its flag (lambda for lam)
        names = {opt.flag[2:].replace("-", "_"): opt for opt in table.values()}
        names.update(table)
        for name, raw in _read_config_file(config_path).items():
            opt = names.get(name)
            if opt is None:
                raise InputError(f"unknown config key {_shown(name)} for {command}")
            options[opt.key] = opt.from_text(raw)
            provided.add(opt.key)
    options.update(explicit)  # flags win over the file
    options = {key: table[key].aliases.get(v, v) for key, v in options.items()}
    return RunConfig(command, options, frozenset(provided))


def _write(text: str, out: str | None = None) -> None:
    """``text`` to stdout, or to the file ``out`` when one is given."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sidecar_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".json"


def _write_curve(out: str | None, header: tuple, columns, meta: dict) -> None:
    """The curve CSV, one of ``columns`` under each name of ``header``, to
    ``out`` (stdout when None), and with a path ``meta`` to its JSON
    sidecar. A value prints as the repr of its float, a column at a time."""
    # + 0.0 leaves every value unchanged except -0.0, which prints as 0.0
    cells = [map(repr, (np.asarray(col, dtype=float) + 0.0).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    _write("\n".join(lines) + "\n", out)
    if out is not None:
        _write(_json(meta), _sidecar_path(out))


def cmd_analytic(cfg: RunConfig) -> int:
    grid = parse_grid(cfg.grid)
    err = np.zeros_like(grid)
    meta: dict[str, Any] = {
        "command": "analytic", "which": cfg.which, "grid": cfg.grid,
        "version": __version__,
    }
    curve, default_tol = _CURVES[cfg.which]
    if cfg.tol is not None:
        check_tol(cfg.tol)
    if cfg.which == "ppp":
        if cfg.density is not None:
            density = cfg.density
        elif "lam" in cfg.provided and "mu" in cfg.provided:
            density = equivalent_ppp_density(ModelParams(cfg.lam, cfg.mu))
        else:
            raise InputError(
                "ppp needs --density, or --lambda and --mu to derive the "
                "equivalent planar density")
        values = curve(density, grid)
        meta["params"] = {"density": density}
    else:
        params = ModelParams(cfg.lam, cfg.mu)
        meta["params"] = {"lambda": cfg.lam, "mu": cfg.mu}
        if default_tol is None:
            values = curve(params, grid)
        else:
            tol = cfg.tol if cfg.tol is not None else default_tol
            values, err = curve(params, grid, tol=tol, with_err=True)
            meta["tol"] = tol
        if cfg.which == "thm2":
            meta["variant"] = DEFAULT_VARIANT

    _write_curve(cfg.out, ("t", "F", "err_est"), (grid, values, err), meta)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    params = ModelParams(cfg.lam, cfg.mu)
    scenario = PalmScenario(cfg.scenario, cfg.angle_law)
    policy = TurnPolicy(cfg.policy, cfg.k, not cfg.exact_turns)
    # --t-max alone runs on run_mc's default grid, recorded as null
    grid_text = None if cfg.t_max is not None and "grid" not in cfg.provided else cfg.grid
    grid = None if grid_text is None else parse_grid(grid_text)
    t_max = cfg.t_max if cfg.t_max is not None else float(grid[-1])
    curve = run_mc(params, scenario, policy, cfg.trials, t_max, cfg.seed,
                   grid=grid, workers=cfg.workers, alpha=cfg.alpha)
    hw = curve.ci_halfwidth
    columns = (curve.grid, curve.values, curve.values - hw, curve.values + hw)
    meta = dict(curve.meta)
    meta.update({"command": "simulate", "grid": grid_text, "version": __version__})
    _write_curve(cfg.out, ("t", "F", "ci_lo", "ci_hi"), columns, meta)
    return EXIT_OK


def _load_curve(path: str) -> DistributionCurve:
    """A curve CSV written by ``analytic`` or ``simulate``, with the meta of
    its JSON sidecar when one exists. A file without data rows, with rows of
    the wrong width or with non-numeric cells, or one whose columns the
    curve refuses, raises InputError naming it."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    widths = {("t", "F", "err_est"): 3, ("t", "F", "ci_lo", "ci_hi"): 4}
    width = widths.get(tuple(header))
    if width is None:
        raise InputError(f"{path}: unrecognized curve header {_shown(header)}")
    if not rows:
        raise InputError(f"{path}: no data rows below the header")
    if any(len(row) != width for row in rows):
        raise InputError(f"{path}: every row needs {width} columns")
    try:
        arr = np.array(rows, dtype=float)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if width == 3:
        grid, values, hw = arr[:, 0], arr[:, 1], arr[:, 2]
    else:
        grid, values = arr[:, 0], arr[:, 1]
        with np.errstate(invalid="ignore", over="ignore"):  # the curve refuses nan, inf
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
    try:
        return DistributionCurve(grid, values, hw, meta)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_compare(cfg: RunConfig, a_path: str, b_path: str) -> int:
    if not math.isfinite(cfg.ks_threshold):
        raise NonFinite(f"ks_threshold must be finite, got {_shown(cfg.ks_threshold)}")
    report = compare_curves(_load_curve(a_path), _load_curve(b_path))
    verdict = "pass" if report.ks_distance <= cfg.ks_threshold else "fail"
    _write(_json({
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
    }), cfg.out)
    return EXIT_OK


def _link_from(cfg: RunConfig) -> RisLinkParams:
    vals = {f.name: getattr(cfg, f.name) for f in fields(RisLinkParams)}
    if cfg.db:
        for key in _DB_FIELDS:
            vals[key] = db_to_linear(vals[key])
    return RisLinkParams(**vals)


def cmd_app(cfg: RunConfig) -> int:
    model = ModelParams(cfg.lam, cfg.mu)
    if cfg.command == "ev-quantile":
        t_star = reach_quantile(model, cfg.p, cfg.policy, tol=cfg.tol)
        _write(_json({
            "command": "ev-quantile", "p": cfg.p, "policy": cfg.policy,
            "quantile": t_star,
            "model": {"lambda": cfg.lam, "mu": cfg.mu},
            "version": __version__,
        }))
        return EXIT_OK

    link = _link_from(cfg)
    if cfg.command == "ris-nearfield":
        d_star = nearfield_threshold_distance(link)
        key, success = "probability", nearfield_success(link, model)
    else:
        d_star = farfield_threshold_distance(link)
        key, success = "probability_lower_bound", farfield_success_lower_bound(link, model)
    _write(_json({
        "command": cfg.command,
        "threshold_distance": d_star,
        key: success,
        "model": {"lambda": cfg.lam, "mu": cfg.mu},
        "db_inputs": bool(cfg.db),
        "version": __version__,
    }))
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
    args = _build_parser().parse_args(argv)
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
    except ValueError as exc:  # every errors.InputError is one
        print(f"linecox: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LineCoxError, OSError) as exc:
        print(f"linecox: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"linecox: out of memory: {exc}" if str(exc) else "linecox: out of memory",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
