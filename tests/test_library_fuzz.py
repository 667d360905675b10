"""Every public callable of the package returns or raises a LineCoxError.

The fuzz test walks the functions and record constructors in
``linecox.__all__`` and calls each with arguments drawn from a strategy
keyed by parameter name: values the callable accepts, mixed with nan,
+-inf, huge, tiny and negative floats, ints past 2**63, ints of
+-10**5000 and a Fraction of one, which repr cannot print, bools, numpy
timedeltas, strings, None, lists that hold a bool, a timedelta or a 0-d
array, and records of the wrong type. Whatever a
call raises must be a LineCoxError (pytest turns a RuntimeWarning into an
error, so a warning fails the draw too). The argv side of this contract
is ``test_exit_codes.test_fuzzed_argv_exits_with_a_documented_code``.

Skipped: the Enum classes, since calling one is Python's value lookup
(``PalmScenario`` and ``TurnPolicy`` already wrap it through
``model._member``), the error classes, and the constants.

Every call is cheap by construction: at most 43 trials a chunk (``stop``
- ``start``) and fewer than 50 a run, grids of a few points, lam*t_max
at most 6 (some 20 lines a trial) wherever the sampler draws, ``workers``
only 1, 2 or invalid (and fewer than four chunks, so no process starts),
policies with small exact budgets and ladder tolerances of at least 1e-3.
Budget: the 1500 draws take under 15 s, the first ``thm2`` table builds
included.
"""

import inspect
import math
import numbers
from enum import Enum
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import linecox
from linecox import (
    AngleLaw,
    DistributionCurve,
    LineCoxError,
    ModelParams,
    PalmKind,
    PolicyKind,
    RisLinkParams,
    TurnPolicy,
    sample_chunk,
    sample_palm,
    typical_intersection,
    typical_point,
)
from linecox.applications import REACH_POLICIES

_MODEL = ModelParams(1.0, 1.0)
_LINK = RisLinkParams(1.0, 1.0, 1.0, 0.01, 0.1, 10.0, 10.0, 0.005, 0.005, 1.0,
                      1e-10, 10.0)
_CURVE = DistributionCurve([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], 0.1,
                           {"params": {"lambda": 1.0, "mu": 1.0}})
_CURVES = (_CURVE, DistributionCurve([0.25, 2.0], [0.1, 0.9], 0.0),
           DistributionCurve([5.0, 6.0], [0.2, 0.3], 0.0))
_CHUNK = sample_chunk(_MODEL, typical_intersection(), 3.0, 7, 0, 3)
_REAL = sample_palm(_MODEL, typical_point(), 3.0, 11)
# one expected line and almost no points within a radius whose square overflows
_HUGE_R_MODEL = ModelParams(1.0 / (math.pi * 1e200), 1e-300)

_BAD_VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, -1.0, -0.0,
    2**64 + 5, -(2**63) - 1, 10**400, 10**5000, -10**5000, Fraction(10**5000, 3),
    np.float64(math.nan), np.int64(-3), True, False,
    np.bool_(True), "x", "", None, 1j, [0.5, True], [], (0.5, np.bool_(False)),
    np.array([0.5, True], dtype=object), np.timedelta64(1, "s"),
    [np.timedelta64(1, "s"), 0.5], [np.array(True), 0.5], _MODEL, typical_point(),
    TurnPolicy.one_turn(), _CURVE, _LINK, _CHUNK, _REAL]
_BAD = st.sampled_from(_BAD_VALUES)


def _arg(*good, bad=_BAD):
    """An argument: one of ``good``, or one time in six a ``bad`` value, so
    that a call with a few arguments often gets past its checks."""
    return st.integers(0, 5).flatmap(lambda i: bad if i == 5 else st.sampled_from(good))


# bad trial indices: a huge valid index would draw that many trials. The
# list is filtered here, not drawn through st.filter, which would print the
# values that repr cannot.
_BAD_INDEX = st.sampled_from([v for v in _BAD_VALUES
                              if not (isinstance(v, numbers.Real) and abs(v) > 64)])


def _any():
    """A field a record stores unchecked: anything."""
    return st.one_of(st.sampled_from([0, 1.5, "a", None, (), np.zeros(2)]), _BAD)


_LAMS = (0.0, 0.5, 2.0, 1e-300, 1e300)
_MUS = (0.5, 1.0, 3.0, 1e-300, 1e300)
_MODELS = [ModelParams(lam, mu) for lam in _LAMS for mu in _MUS]
_DISTANCES = (0.0, 0.3, 1.0, 2.5, [0.0, 0.5, 1.0], np.array([0.2, 3.0]), np.float32(0.7))
_RADII = (0.5, 1.0, 3.0, 1.3407807929942596e154, 1e200)
# records for the oracle and run_mc, interleaved with reach_quantile's names
_POLICIES = (TurnPolicy.one_turn(), REACH_POLICIES[0], TurnPolicy.k_turn(3, False),
             REACH_POLICIES[1], TurnPolicy.two_turn_directed(), REACH_POLICIES[2],
             TurnPolicy.zero_turn(), TurnPolicy.one_turn(False), TurnPolicy.k_turn(2),
             TurnPolicy.k_turn(1, True, True))
_FLAGS = (True, False, 0, 1, np.bool_(False))
_NUMBERS = (0.01, 1.0, 10.0, 1e-10)

# parameter name -> strategy; every parameter of every walked callable has one
_ARGS = {
    "params": _arg(*_MODELS), "model": _arg(*_MODELS),
    "scenario": _arg(typical_point(), typical_intersection(),
                     typical_intersection(AngleLaw.SIN_WEIGHTED)),
    "policy": _arg(*_POLICIES),
    "t": _arg(*_DISTANCES),
    "t_max": _arg(0.5, 1.0, 3.0, 1e150, 1e200),
    "clip_radius": _arg(*_RADII),
    "density": _arg(0.0, 0.5, 2.0),
    "lam": _arg(*_LAMS), "mu": _arg(0.5, 1.0, 1e-300),
    "w": _arg(0.0, 0.2, 0.5, 0.999), "u": _arg(0.2, 0.5, 1.0),
    "tol": _arg(1e-3, 0.1, 0.5),
    "with_err": _arg(*_FLAGS),
    "p": _arg(0.0, 0.05, 0.5, 0.99),
    "db": _arg(0.0, 10.0, -30.0),
    "link": _arg(_LINK),
    **{name: _arg(*_NUMBERS) for name in ("g_t", "g_r", "g", "wavelength", "area", "m",
                                           "n", "d_x", "d_y", "p_t", "n0", "gamma")},
    "alpha": _arg(0.05, 0.5),
    "step": _arg(0.01, 0.5, 1.0),
    "trials": _arg(1, 5, 40, 49, 10.0),
    "seed": _arg(0, 1, -7, 2**64 + 3, (1, 2), [3, 4]),
    "master": _arg(0, -7, 2**64 + 3),
    "start": _arg(0, 3, -3, 2**64, bad=_BAD_INDEX),  # stop - start <= 43
    "stop": _arg(1, 5, 40, bad=_BAD_INDEX),
    "workers": _arg(1, 2),
    "grid": _arg(None, [0.0, 0.5, 1.0], (0.0, 0.25), np.array([0.0, 2.0, 3.0])),
    "values": _arg([0.0, 0.5, 1.0], np.array([0.1, 0.9])),
    "ci_halfwidth": _arg(0.0, [0.0, 0.1, 0.1]),
    "meta": _arg({}, {"params": {"lambda": 1.0, "mu": None}}, {"rescaled_by": 2.0}),
    "curve": _arg(*_CURVES), "curve_a": _arg(*_CURVES), "curve_b": _arg(*_CURVES),
    "c": _arg(0.5, 2.0, 1e-300),
    "kind": _arg(*[m.value for m in (*PalmKind, *PolicyKind)], PalmKind.TYPICAL_POINT,
                 PolicyKind.K_TURN),
    "angle_law": _arg("uniform", "sin", AngleLaw.SIN_WEIGHTED),
    "k": _arg(0, 1, 3, 2**64),
    "include_lower_turn_paths": _arg(*_FLAGS), "first_hop_positive_x": _arg(*_FLAGS),
    "real": _arg(_REAL), "chunk": _arg(_CHUNK),
    # fields that a record stores as given
    **{name: _any() for name in (
        "id", "angle", "signed_offset", "through_origin", "line_id", "arc_coord",
        "length", "turns_used", "target", "route", "censored", "trial", "offset",
        "line_start", "arcs", "arc_start", "first_stream", "ks_distance",
        "argmax_t", "inside_band", "a_le_b", "b_le_a")},
}

_TARGETS = sorted(
    name for name in linecox.__all__
    if callable(obj := getattr(linecox, name))
    and not (isinstance(obj, type) and issubclass(obj, (Enum, BaseException))))
_SIGNATURES = {name: inspect.signature(getattr(linecox, name)).parameters
               for name in _TARGETS}


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(_TARGETS))
    return name, {arg: draw(_ARGS[arg]) for arg in _SIGNATURES[name]}


def test_every_parameter_has_a_strategy():
    assert len(_TARGETS) >= 30
    missing = {(name, arg) for name, args in _SIGNATURES.items() for arg in args
               if arg not in _ARGS}
    assert not missing, sorted(missing)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(call=_calls())
@example(call=("sample_chunk", dict(params=_HUGE_R_MODEL, scenario=typical_point(),
                                    clip_radius=1e200, master=3, start=0, stop=40)))
@example(call=("sample_palm", dict(params=_HUGE_R_MODEL, scenario=typical_point(),
                                   clip_radius=1e200, seed=3)))
@example(call=("sample_path", dict(params=_HUGE_R_MODEL, scenario=typical_point(),
                                   policy=TurnPolicy.one_turn(), t_max=1e200, seed=3)))
@example(call=("run_mc", dict(params=_HUGE_R_MODEL, scenario=typical_point(),
                              policy=TurnPolicy.one_turn(), trials=40, t_max=1e200, seed=0,
                              grid=[0.0, 1.0], workers=1, alpha=0.05)))
@example(call=("cdf_one_turn_point", dict(params=_MODEL, t=[0.5, True])))
@example(call=("cdf_one_turn_point",
               dict(params=_MODEL, t=np.array([0.5, True], dtype=object))))
@example(call=("DistributionCurve", dict(grid=[0.0, True], values=[0.0, 1.0],
                                         ci_halfwidth=0.0, meta={})))
@example(call=("run_mc", dict(params=_MODEL, scenario=typical_point(),
                              policy=TurnPolicy.one_turn(), trials=4, t_max=1.0, seed=0,
                              grid=[0.0, True], workers=1, alpha=0.05)))
@example(call=("shortest_path", dict(real=_REAL, policy=TurnPolicy.one_turn(),
                                     t_max=[0.5, 1.0])))
@example(call=("chunk_lengths", dict(chunk=_CHUNK, policy=TurnPolicy.one_turn(), t_max=[])))
@example(call=("sample_path", dict(params=_MODEL, scenario=typical_point(),
                                   policy=TurnPolicy.one_turn(), t_max="x", seed=1)))
@example(call=("sample_path", dict(params=_MODEL, scenario=typical_point(),
                                   policy=TurnPolicy.one_turn(), t_max=None, seed=1)))
@example(call=("one_turn_intersection_terms", dict(mu=1.0, t=[0.5, 0.7], tol=1e-3)))
@example(call=("reach_quantile", dict(model=_MODEL, p=0.0, policy="no-such-policy",
                                      tol=1e-3)))
@example(call=("rescale", dict(curve=_CURVES[2], c=1e308)))
@example(call=("cdf_two_turn_bound", dict(params=_MODEL, t=0.5, tol=10**400, with_err=False)))
@example(call=("reach_quantile", dict(model=_MODEL, p=0.5, policy=np.array([0.5, True]),
                                      tol=1e-3)))
@example(call=("two_turn_T", dict(w=0.0, u=1e308, t=1e308, params=ModelParams(0.0, 3.0),
                                  tol=1e-3)))
@example(call=("ModelParams", dict(lam=np.timedelta64(1, "s"), mu=1.0)))
def test_public_calls_return_or_raise_a_linecox_error(call):
    name, kwargs = call
    try:
        getattr(linecox, name)(**kwargs)
    except LineCoxError:
        pass
