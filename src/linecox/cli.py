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
Exit codes: 0 success, 2 bad configuration or parameters, 3 quadrature
tolerance not reached, 4 runtime failures (IO and the rest). ``-v`` (before
the subcommand) logs progress, such as the Monte Carlo throughput, to
stderr; it never changes an output.

The argparse parser is built once per process, on the first ``main()``
call (``import linecox`` builds none), and nothing writes to it after
that: every option defaults to ``argparse.SUPPRESS``, so defaults come
from ``_OPTIONS`` alone, and argparse looks up ``sys.stdout`` and
``sys.stderr`` only when it prints. Each request only parses its argv.
A ``--grid`` of more than ``MAX_GRID_POINTS`` points exits 2 before any
array is allocated, and running out of memory exits 4.
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
from .quadrature import check_tol

__all__ = ["main", "RunConfig", "parse_grid"]

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_RUNTIME = 4

MAX_GRID_POINTS = 1_000_000  # a longer --grid is refused before it is allocated

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
_SCENARIOS = {
    "point": lambda law: typical_point(),
    "intersection": typical_intersection,
}
# policy token -> TurnPolicy from (k, include_lower_turn_paths)
_POLICIES = {
    "zero-turn": lambda k, include: TurnPolicy.zero_turn(),
    "one-turn": lambda k, include: TurnPolicy.one_turn(include),
    "two-turn-directed": lambda k, include: TurnPolicy.two_turn_directed(include),
    "k-turn": TurnPolicy.k_turn,
}
_DB_FIELDS = ("g_t", "g_r", "g", "gamma")  # the link gains --db reads in dB

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
    step divides the span within 1e-12 (relative). A grid of more than
    ``MAX_GRID_POINTS`` points raises ValueError before it is allocated."""
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
    steps = (stop - start) / step  # inf when the quotient overflows a float
    capped = min(steps, MAX_GRID_POINTS)  # int() never sees inf; capped still fails
    n = int(round(capped))
    inclusive = n >= 1 and abs(start + n * step - stop) <= 1e-12 * max(1.0, abs(stop))
    count = n + 1 if inclusive else int(math.floor(capped + 1e-12)) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has {steps + 1:.7g} points, more than "
                         f"the cap of {MAX_GRID_POINTS}")
    if inclusive:
        return np.linspace(start, stop, count)
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
            raise ValueError(f"config key {self.key!r}: {exc}") from None
        if self.choices and value not in self.accepted:
            raise ValueError(f"config key {self.key!r}: invalid choice {value!r} "
                             f"(choose from {', '.join(self.accepted)})")
        return value


_LAM = _Option("lam", 1.0, float, help="line intensity", flag="--lambda")
_MU = _Option("mu", 1.0, float, help="on-line point intensity")
_GRID = _Option("grid", "0:3:0.01", help="start:stop:step")
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
        _Option("scenario", "point", choices=tuple(_SCENARIOS), aliases={
            "typical-point": "point", "typical-intersection": "intersection"}),
        _Option("angle_law", "uniform", choices=tuple(law.value for law in AngleLaw)),
        _Option("policy", "one-turn", choices=tuple(_POLICIES)),
        _Option("k", 2, int, help="turn budget for --policy k-turn"),
        _Option("exact_turns", False, _parse_bool,
                help="count only paths using the full turn budget"),
        _Option("trials", 10000, int),
        _Option("t_max", None, float, help="censoring horizon"),
        _GRID,
        _Option("seed", 1, int),
        _Option("workers", None, int, help="process count (default: env or 1)"),
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
                raise ValueError(f"unknown config key {name!r} for {command}")
            options[opt.key] = opt.from_text(raw)
            provided.add(opt.key)
    options.update(explicit)  # flags win over the file
    options = {key: table[key].aliases.get(v, v) for key, v in options.items()}
    return RunConfig(command, options, frozenset(provided))


def _format_float(x: float) -> str:
    # + 0.0 leaves every value unchanged except -0.0, which prints as 0.0
    return repr(float(x) + 0.0)


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


def _write_curve(out: str | None, header: tuple, rows, meta: dict) -> None:
    """The curve CSV to ``out`` (stdout when None), and with a path ``meta``
    to its JSON sidecar."""
    lines = [",".join(header)]
    lines.extend(",".join(_format_float(v) for v in row) for row in rows)
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
            raise ValueError(
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
            meta["variant"] = DEFAULT_VARIANT.label()

    values = np.atleast_1d(np.asarray(values, dtype=float))
    err = np.atleast_1d(np.asarray(err, dtype=float))
    _write_curve(cfg.out, ("t", "F", "err_est"), zip(grid, values, err), meta)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    params = ModelParams(cfg.lam, cfg.mu)
    scenario = _SCENARIOS[cfg.scenario](AngleLaw(cfg.angle_law))
    policy = _POLICIES[cfg.policy](cfg.k, not cfg.exact_turns)
    grid = parse_grid(cfg.grid)
    t_max = cfg.t_max if cfg.t_max is not None else float(grid[-1])
    if grid[-1] > t_max + 1e-12:
        raise ValueError(
            f"grid reaches {grid[-1]} but --t-max censors at {t_max}")

    curve = run_mc(params, scenario, policy, cfg.trials, t_max, cfg.seed,
                   grid=grid, workers=cfg.workers, alpha=cfg.alpha)
    hw = curve.ci_halfwidth
    rows = zip(curve.grid, curve.values, curve.values - hw, curve.values + hw)
    meta = dict(curve.meta)
    meta.update({"command": "simulate", "grid": cfg.grid, "version": __version__})
    _write_curve(cfg.out, ("t", "F", "ci_lo", "ci_hi"), rows, meta)
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
        key = "probability"
    else:
        d_star = farfield_threshold_distance(link)
        key = "probability_lower_bound"
    _write(_json({
        "command": cfg.command,
        "threshold_distance": d_star,
        key: cdf_one_turn_point(model, d_star),
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
    except (_ERRORS_CONFIG + (ValueError,)) as exc:
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
