"""Core types and unit conventions shared by every module.

All lengths are dimensionless (pick your unit, the model is scale free, see
`rescale`). The two intensities follow one operational convention used
consistently by the samplers and the closed forms:

* ``lam`` -- line intensity, pinned so that the crossings along any fixed
  line form a 1-D Poisson process of rate ``lam``; within distance t of a
  point on that line (both directions) the crossing count is
  Poisson(2*lam*t).
* ``mu`` -- intensity of the 1-D Poisson point process each line carries,
  points per unit arc length.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    InputError,
    NegativeIntensity,
    NegativeT,
    NonFinite,
    NonPositiveScale,
    NotAnInteger,
    PolicyBudgetNegative,
    TBeyondClip,
    ZeroMu,
    _shown,
)

__all__ = [
    "ModelParams",
    "Line",
    "PointOnLine",
    "PalmKind",
    "AngleLaw",
    "PalmScenario",
    "typical_point",
    "typical_intersection",
    "PolicyKind",
    "TurnPolicy",
    "DistributionCurve",
    "rescale",
]


@dataclass(frozen=True)
class ModelParams:
    """Line intensity ``lam`` and on-line point intensity ``mu``.

    The attribute is spelled ``lam`` because ``lambda`` is a Python keyword;
    file formats and the CLI accept and emit the full word. Building one
    checks both, naming the bad field, and stores them as Python floats, so
    metadata is JSON.
    """

    lam: float
    mu: float

    def __post_init__(self):
        for name, value in (("lambda", self.lam), ("mu", self.mu)):
            if not _finite_real(value):
                raise NonFinite(f"{name} must be a finite real number, got {_shown(value)}")
        if self.lam < 0:
            raise NegativeIntensity(f"lambda must be >= 0, got {_shown(self.lam)}")
        if self.mu < 0:
            raise NegativeIntensity(f"mu must be > 0, got {_shown(self.mu)}")
        if self.mu == 0:
            raise ZeroMu("mu must be > 0: the distance distributions divide by mu")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))


def _real(x) -> bool:
    """The one number rule, read by every numeric check: a real number (numpy
    scalars too), but not a bool or a timedelta64, which numpy counts as one."""
    return isinstance(x, float) or (isinstance(x, numbers.Real)
                                and not isinstance(x, (bool, np.timedelta64)))


def _finite_real(x) -> bool:
    """A finite ``_real`` number. An int past the largest float is not
    finite either, so its caller names it."""
    if not _real(x):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_int(x, name: str) -> int:
    """The one integer check: ``x`` as an int. An integral ``_real`` number
    serves, and so does a float of integral value, such as 1e5. NonFinite
    for nan or inf, NotAnInteger naming ``name`` for anything else."""
    if _real(x):
        if isinstance(x, numbers.Integral):
            return int(x)
        if not _finite_real(x):
            raise NonFinite(f"{name} must be finite, got {_shown(x)}")
        if float(x).is_integer():
            return int(x)
    raise NotAnInteger(f"{name} must be an integer, got {_shown(x)}")


def _check_flag(x, name: str) -> bool:
    """The one flag check: ``x`` as a bool. A bool or numpy.bool_ serves,
    and so does an integral ``_real`` 0 or 1; anything else, such as "no",
    raises InputError naming ``name``, never read as its truth value."""
    if isinstance(x, (bool, np.bool_)) or (isinstance(x, numbers.Integral) and _real(x)
                                           and x in (0, 1)):
        return bool(x)
    raise InputError(f"{name} must be a bool, got {_shown(x)}")


def _check_record(value, kind: type, name: str) -> None:
    """The one record check: InputError naming the argument ``name`` unless
    ``value`` is a ``kind``, so that a string in place of a record does not
    escape as AttributeError."""
    if not isinstance(value, kind):
        raise InputError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _as_floats(values, message: str) -> np.ndarray:
    """The one conversion of a caller's numbers: ``values`` as a float array
    of their shape. Only ``_real`` numbers serve: one such number, an array
    of an integer or float dtype, or a list, tuple or object array whose
    every entry is one, which is walked for them. InputError(message) for
    anything else, such as text (even "0.5"), bytes, None, complex numbers,
    whose imaginary part a cast would drop, bools, timedeltas, a 0-d array
    inside a list, or an int past the largest float."""
    try:
        if _real(values):
            return np.array(float(values))
        if isinstance(values, np.ndarray) and values.dtype.kind != "O":
            if values.dtype.kind in "iuf":
                return values.astype(float, copy=False)
        elif isinstance(values, (list, tuple, np.ndarray)):
            arr = np.asarray(values, dtype=object)
            if all(map(_real, arr.flat)):
                return arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(message)


def _check_t(t, clip_radius: float | None = None, name: str = "t") -> np.ndarray:
    """The one t check: the distance (or distances) ``t`` as a float array
    of t's shape. NonFinite for nan or inf, NegativeT below 0, and with a
    ``clip_radius``, TBeyondClip past it, where geometry was never
    sampled. An array holding one bad entry fails whole; the message
    names the first; InputError for what is not real numbers
    (``_as_floats``)."""
    arr = _as_floats(t, f"{name} must be a real number or an array of them")

    def first(bad):
        return _shown(float(arr[bad][0]))

    if not np.isfinite(arr).all():
        raise NonFinite(f"{name} must be finite, got {first(~np.isfinite(arr))}")
    if (arr < 0).any():
        raise NegativeT(f"{name} must be >= 0, got {first(arr < 0)}")
    if clip_radius is not None and (arr > clip_radius).any():
        raise TBeyondClip(f"{name}={first(arr > clip_radius)} exceeds "
                          f"clip_radius={_shown(clip_radius)}; geometry beyond the "
                          "clip disk was never sampled")
    return arr


def _check_scalar_t(t, clip_radius: float | None = None, name: str = "t") -> float:
    """``_check_t`` of one distance, as a float; InputError for an array."""
    arr = _check_t(t, clip_radius, name)
    if arr.ndim:
        raise InputError(f"{name} must be one number, got an array of shape {arr.shape}")
    return float(arr)


@dataclass(frozen=True)
class Line:
    """An undirected line, Hesse style: unit direction at ``angle`` in
    [0, pi), displaced ``signed_offset`` along the left normal
    (-sin angle, cos angle). Arc coordinates on the line are measured from
    the foot of that normal, positive along (cos angle, sin angle); for a
    line through the origin the arc origin is the origin itself."""

    id: int
    angle: float
    signed_offset: float
    through_origin: bool = False


@dataclass(frozen=True)
class PointOnLine:
    line_id: int
    arc_coord: float


def _member(enum, value, name: str):
    """``value`` as a member of ``enum``, which takes a member or its
    value; InputError naming the field and the accepted values."""
    try:
        return enum(value)
    except ValueError:
        raise InputError(f"{name} must be one of {[m.value for m in enum]}, "
                         f"got {_shown(value)}") from None


class PalmKind(Enum):
    TYPICAL_POINT = "typical-point"
    TYPICAL_INTERSECTION = "typical-intersection"


class AngleLaw(Enum):
    """Law of the angle between the two origin lines when conditioning on a
    typical intersection. UNIFORM draws it U(0, pi); SIN_WEIGHTED uses the
    size-biased density sin(theta)/2 that weights near-perpendicular
    crossings up."""

    UNIFORM = "uniform"
    SIN_WEIGHTED = "sin"


@dataclass(frozen=True)
class PalmScenario:
    """What the distance is measured from.

    TYPICAL_POINT: origin sits on one line (the x-axis) carrying the usual
    point process; the origin itself is not a point of the process.
    TYPICAL_INTERSECTION: two lines through the origin, relative angle drawn
    from ``angle_law`` (fixed to UNIFORM for TYPICAL_POINT, which draws no
    angle). Both fields go through their enums, so values such as "sin" serve;
    any other value raises InputError.
    """

    kind: PalmKind
    angle_law: AngleLaw = AngleLaw.UNIFORM

    def __post_init__(self):
        kind = _member(PalmKind, self.kind, "kind")
        law = _member(AngleLaw, self.angle_law, "angle_law")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "angle_law",
                           AngleLaw.UNIFORM if kind is PalmKind.TYPICAL_POINT else law)


def typical_point() -> PalmScenario:
    return PalmScenario(PalmKind.TYPICAL_POINT)


def typical_intersection(angle_law: AngleLaw = AngleLaw.UNIFORM) -> PalmScenario:
    return PalmScenario(PalmKind.TYPICAL_INTERSECTION, angle_law)


class PolicyKind(Enum):
    ZERO_TURN = "zero-turn"
    ONE_TURN = "one-turn"
    TWO_TURN_DIRECTED = "two-turn-directed"
    K_TURN = "k-turn"


@dataclass(frozen=True)
class TurnPolicy:
    """Which family of street paths the oracle searches.

    ``k`` is the turn budget. ``include_lower_turn_paths`` decides whether
    paths spending fewer turns than the budget count; with False the family
    is "exactly k turns". ``first_hop_positive_x`` restricts the first leg
    to the positive arc direction of line 0 (optional for K_TURN so the
    policies can be compared like for like). ``kind`` goes through
    PolicyKind, so "one-turn" serves (InputError for a value it does not
    hold), and this is the one turn-budget map:
    ZERO_TURN fixes k = 0 with lower-turn paths, ONE_TURN k = 1 and
    TWO_TURN_DIRECTED k = 2 with the first hop directed. K_TURN's k goes
    through ``_check_int``, so 2.7 or True raises NotAnInteger, and a
    negative k then raises PolicyBudgetNegative; k is stored as an int. The
    flags go through ``_check_flag``, whatever the kind, and are stored as
    bools.
    """

    kind: PolicyKind
    k: int = 0
    include_lower_turn_paths: bool = True
    first_hop_positive_x: bool = False

    def __post_init__(self):
        kind = _member(PolicyKind, self.kind, "kind")
        k = self.k
        lower = _check_flag(self.include_lower_turn_paths, "include_lower_turn_paths")
        directed = _check_flag(self.first_hop_positive_x, "first_hop_positive_x")
        if kind is PolicyKind.ZERO_TURN:
            k, lower = 0, True
        elif kind is PolicyKind.ONE_TURN:
            k = 1
        elif kind is PolicyKind.TWO_TURN_DIRECTED:
            k, directed = 2, True
        k = _check_int(k, "k")
        if k < 0:
            raise PolicyBudgetNegative(f"turn budget must be >= 0, got {_shown(k)}")
        for name, value in (("kind", kind), ("k", k),
                            ("include_lower_turn_paths", lower),
                            ("first_hop_positive_x", directed)):
            object.__setattr__(self, name, value)

    @staticmethod
    def zero_turn() -> "TurnPolicy":
        return TurnPolicy(PolicyKind.ZERO_TURN)

    @staticmethod
    def one_turn(include_lower_turn_paths: bool = True) -> "TurnPolicy":
        return TurnPolicy(PolicyKind.ONE_TURN,
                          include_lower_turn_paths=include_lower_turn_paths)

    @staticmethod
    def two_turn_directed(include_lower_turn_paths: bool = True) -> "TurnPolicy":
        return TurnPolicy(PolicyKind.TWO_TURN_DIRECTED,
                          include_lower_turn_paths=include_lower_turn_paths)

    @staticmethod
    def k_turn(k: int, include_lower_turn_paths: bool = True,
               first_hop_positive_x: bool = False) -> "TurnPolicy":
        return TurnPolicy(PolicyKind.K_TURN, k=k,
                          include_lower_turn_paths=include_lower_turn_paths,
                          first_hop_positive_x=first_hop_positive_x)


@dataclass(frozen=True)
class DistributionCurve:
    """A CDF sampled on a grid.

    ``ci_halfwidth`` is zero for analytic curves and a simultaneous
    (DKW style) half width for empirical ones. ``meta`` is a JSON friendly
    dict describing how the curve was produced; anything but a dict raises
    InputError.
    """

    grid: np.ndarray
    values: np.ndarray
    ci_halfwidth: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_record(self.meta, dict, "meta")
        g, v, h = (_as_floats(a, "grid, values and ci_halfwidth must hold real numbers")
                   for a in (self.grid, self.values, self.ci_halfwidth))
        if h.ndim == 0:
            h = np.full_like(g, float(h))
        if not (g.shape == v.shape == h.shape) or g.ndim != 1 or g.size == 0:
            raise InputError("grid, values and ci_halfwidth must be equal length 1-D arrays")
        if not (g[1:] > g[:-1]).all():  # nan and inf after inf are no rise
            raise InputError("grid must be strictly increasing")
        if not (np.isfinite(g).all() and np.isfinite(v).all() and np.isfinite(h).all()):
            raise InputError("curve arrays must be finite")
        for name, arr in (("grid", g), ("values", v), ("ci_halfwidth", h)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.grid.size)


def rescale(curve: DistributionCurve, c: float) -> DistributionCurve:
    """Rescale lengths by c: the curve of D under (lam, mu) becomes the curve
    of c*D, which is exactly the curve of D under (lam/c, mu/c). Values and
    half widths are untouched; the grid, the metadata params and the
    censoring horizon ``t_max`` are mapped, and a mapped field that is not
    a finite real number raises InputError, as does a c that takes a grid
    point past the largest float."""
    _check_record(curve, DistributionCurve, "curve")
    if not _finite_real(c) or c <= 0:
        raise NonPositiveScale(f"scale must be finite and > 0, got {_shown(c)}")
    c = float(c)

    def number(value, name):
        if not _finite_real(value):
            raise InputError(f"meta field {name} must be a finite real number, "
                             f"got {_shown(value)}")
        return value

    meta = dict(curve.meta)
    params = meta.get("params")
    if isinstance(params, dict):
        mapped = dict(params)
        for name in ("lambda", "mu"):
            if name in mapped:
                mapped[name] = number(mapped[name], f"params.{name}") / c
        meta["params"] = mapped
    if "t_max" in meta:
        meta["t_max"] = number(meta["t_max"], "t_max") * c
    meta["rescaled_by"] = number(meta.get("rescaled_by", 1.0), "rescaled_by") * c
    with np.errstate(over="ignore"):  # an inf grid point fails the curve's check
        return DistributionCurve(curve.grid * c, curve.values, curve.ci_halfwidth, meta)
