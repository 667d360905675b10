"""Every request ends in a documented exit code: 0, 2, 3 or 4.

The CLI maps errors by type: a ValueError (every ``errors.InputError``)
exits 2, ``QuadratureFailure`` 3, and any other ``LineCoxError`` 4. The
fuzz test draws argv from ``cli._OPTIONS`` and runs ``cli.main`` in
process.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linecox import (
    DistributionCurve,
    ModelParams,
    PalmScenario,
    RisLinkParams,
    TurnPolicy,
    cdf_naive_recursion,
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_two_turn_bound,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    chunk_lengths,
    cli,
    compare,
    db_to_linear,
    default_grid,
    dkw_halfwidth,
    equivalent_ppp_density,
    errors,
    farfield_success_lower_bound,
    farfield_threshold_distance,
    nearfield_success,
    one_turn_intersection_terms,
    reach_quantile,
    rescale,
    run_mc,
    sample_chunk,
    sample_palm,
    sample_path,
    shortest_path,
    two_turn_T,
    typical_intersection,
    typical_point,
)
from linecox import oracle
from linecox.cli import EXIT_CONFIG, EXIT_OK, EXIT_QUADRATURE, EXIT_RUNTIME, main
from linecox.quadrature import check_tol
from linecox.sampler import Realization
from realizations import one_trial

_FAMILY = sorted((cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.LineCoxError)),
                 key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", _FAMILY, ids=lambda cls: cls.__name__)
def test_each_error_type_maps_to_its_exit(monkeypatch, capsys, error):
    def fail(args):
        raise error("the message")

    monkeypatch.setattr(cli, "_resolve", fail)
    rc = cli._run(argparse.Namespace())
    if issubclass(error, errors.InputError):
        assert issubclass(error, ValueError) and rc == EXIT_CONFIG
    elif error is errors.QuadratureFailure:
        assert rc == EXIT_QUADRATURE
    else:
        assert rc == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("linecox: ") and "the message" in captured.err


_MODEL = ModelParams(1.0, 1.0)
_LINK = RisLinkParams(*[1.0] * 12)
# one expected line and almost no points within a radius whose square overflows
_HUGE_R_MODEL = ModelParams(1.0 / (math.pi * 1e200), 1e-300)
_TD = np.timedelta64(1, "s")  # numpy counts it an integer; no entry point takes it
_HUGE = 10**5000  # past the 4,300 digits Python prints an int with


def _listed_line_start():
    chunk = sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 2)
    return dataclasses.replace(chunk, line_start=chunk.line_start.tolist())


_BAD_CALLS = {
    "run_mc trials": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 0, 1.0, 1),
    "run_mc t_max": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1, 0.0, 1),
    "run_mc grid": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1, 1.0, 1,
                                  grid=[0.0, 2.0]),
    "dkw n": lambda: dkw_halfwidth(0),
    "dkw alpha": lambda: dkw_halfwidth(10, alpha=1.0),
    "workers": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1, 1.0, 1,
                              workers=0),
    "tol": lambda: check_tol(0),
    "quantile p": lambda: reach_quantile(_MODEL, 1.0),
    "quantile policy": lambda: reach_quantile(_MODEL, 0.5, "two-turn"),
    "chunk span": lambda: sample_chunk(_MODEL, typical_point(), 1.0, 1, 3, 3),
    "curve grid": lambda: DistributionCurve([0.0, 2.0, 1.0], [0.0] * 3, 0.0),
    "curve shape": lambda: DistributionCurve([0.0, 1.0], [0.0], 0.0),
    "curve finite": lambda: DistributionCurve([0.0, 1.0], [0.0, math.nan], 0.0),
    "curve halfwidth": lambda: compare(DistributionCurve([0, 1], [0, 0.5], [-0.5, -0.1]),
                                       DistributionCurve([0, 1], [0, 0.5], 0)),
    "no origin line": lambda: shortest_path(one_trial([], []), TurnPolicy.one_turn(), 1.0),
    "chunk no origin line": lambda: chunk_lengths(one_trial([], []).chunk,
                                                  TurnPolicy.one_turn(), 1.0),
    "grid text": lambda: cli.parse_grid("0:1"),
    "grid step": lambda: cli.parse_grid("0:1:0"),
    "run_mc t_max type": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1,
                                        "abc", 1),
    "run_mc grid type": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1,
                                       1.0, 1, grid=["a"]),
    "run_mc scenario": lambda: run_mc(_MODEL, "typical-point", TurnPolicy.one_turn(), 1,
                                      1.0, 1),
    "chunk master": lambda: sample_chunk(_MODEL, typical_point(), 1.0, "x", 0, 1),
    "run_mc grid shape": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1,
                                        1.0, 1, grid=0.5),
    "dkw n type": lambda: dkw_halfwidth("x"),
    "dkw alpha type": lambda: dkw_halfwidth(10, "x"),
    "palm seed": lambda: sample_palm(_MODEL, typical_point(), 1.0, "x"),
    "default grid step 0": lambda: default_grid(2.0, 0.0),
    "default grid t_max": lambda: default_grid(-1.0),
    "default grid step sign": lambda: default_grid(3.0, -0.1),
    "default grid type": lambda: default_grid("x"),
    "default grid step inf": lambda: default_grid(3.0, math.inf),
    "grid numbers": lambda: cli.parse_grid("a:b:c"),
    "grid not increasing": lambda: cli.parse_grid("1e16:1.0000000000000002e16:1"),
    "t text": lambda: cdf_one_turn_point(_MODEL, "abc"),
    "t complex": lambda: cdf_one_turn_point(_MODEL, 1j),
    "t entry text": lambda: cdf_zero_turn_intersection(_MODEL, [0.1, "x"]),
    "thm2 t text": lambda: cdf_one_turn_intersection(_MODEL, "x"),
    "oracle t_max text": lambda: shortest_path(
        sample_palm(_MODEL, typical_point(), 1.0, 1), TurnPolicy.one_turn(), "x"),
    "curve text": lambda: DistributionCurve(["a"], [0.1], [0.0]),
    "tol type": lambda: check_tol("x"),
    "thm2 tol type": lambda: cdf_one_turn_intersection(_MODEL, 0.5, tol="x"),
    "quantile tol type": lambda: reach_quantile(_MODEL, 0.5, "one-turn-intersection",
                                                tol="x"),
    "thm2 with_err text": lambda: cdf_one_turn_intersection(_MODEL, 0.5, with_err="x"),
    "bound with_err text": lambda: cdf_two_turn_bound(_MODEL, 0.5, with_err="x"),
    "t complex array": lambda: cdf_one_turn_point(_MODEL, np.array([0.5 + 1j])),
    "t huge int": lambda: cdf_one_turn_point(_MODEL, 10**400),
    "curve complex": lambda: DistributionCurve(np.array([0.5 + 1j]), [0.1], [0.0]),
    "two_turn_T text": lambda: two_turn_T("x", 0.5, 1.0, _MODEL),
    "terms t array": lambda: one_turn_intersection_terms(1.0, [0.5, 0.7]),
    "scenario kind": lambda: PalmScenario("nope"),
    "scenario angle law": lambda: PalmScenario("typical-intersection", "nope"),
    "policy kind": lambda: TurnPolicy("nope"),
    "db text": lambda: db_to_linear("x"),
    "quantile model": lambda: reach_quantile("x", 0.5),
    "one-turn point model": lambda: cdf_one_turn_point("x", 0.5),
    "naive model": lambda: cdf_naive_recursion("x", 0.5),
    "zero-turn model": lambda: cdf_zero_turn_intersection("x", 0.5),
    "upper model": lambda: cdf_upper_intersection("x", 0.5),
    "thm2 model": lambda: cdf_one_turn_intersection("x", 0.5),
    "bound model": lambda: cdf_two_turn_bound("x", 0.5),
    "two_turn_T model": lambda: two_turn_T(0.1, 0.2, 0.5, "x"),
    "ppp density model": lambda: equivalent_ppp_density("x"),
    "nearfield model": lambda: nearfield_success(_LINK, "x"),
    "farfield model": lambda: farfield_success_lower_bound(_LINK, "x"),
    "nearfield link": lambda: nearfield_success("x", _MODEL),
    "farfield link": lambda: farfield_threshold_distance("x"),
    "palm model": lambda: sample_palm("x", typical_point(), 1.0, 1),
    "run_mc model": lambda: run_mc("x", typical_point(), TurnPolicy.one_turn(), 1, 1.0, 1),
    "run_mc policy": lambda: run_mc(_MODEL, typical_point(), "one-turn", 1, 1.0, 1),
    "chunk policy": lambda: chunk_lengths(
        sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 1), "one-turn", 1.0),
    "chunk record": lambda: chunk_lengths("x", TurnPolicy.one_turn(), 1.0),
    "oracle realization": lambda: shortest_path("x", TurnPolicy.one_turn(), 1.0),
    "oracle policy": lambda: shortest_path(
        sample_palm(_MODEL, typical_point(), 1.0, 1), "one-turn", 1.0),
    "compare curve": lambda: compare("x", DistributionCurve([0.0, 1.0], [0.0, 1.0], 0.0)),
    "rescale curve": lambda: rescale("x", 2.0),
    "policy flag text": lambda: TurnPolicy.k_turn(2, "no"),
    "policy flag int": lambda: TurnPolicy.k_turn(2, first_hop_positive_x=2),
    "curve meta": lambda: DistributionCurve([0.0, 1.0], [0.0, 1.0], 0.0, meta="x"),
    "rescale meta field": lambda: rescale(
        DistributionCurve([0.0, 1.0], [0.0, 1.0], 0.0, meta={"rescaled_by": "x"}), 2.0),
    "rescale meta params": lambda: rescale(
        DistributionCurve([0.0, 1.0], [0.0, 1.0], 0.0, meta={"params": {"mu": None}}), 2.0),
    "realization text": lambda: sample_chunk(
        _MODEL, typical_point(), 1.0, 1, 0, 1).realization("a"),
    "realization range": lambda: sample_chunk(
        _MODEL, typical_point(), 1.0, 1, 0, 1).realization(5),
    "realization bool": lambda: sample_chunk(
        _MODEL, typical_point(), 1.0, 1, 0, 1).realization(True),
    "realization past the trials": lambda: Realization(
        sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 1), 99),
    "realization negative trial": lambda: Realization(
        sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 1), -1),
    "realization float trial": lambda: Realization(
        sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 1), 1.5),
    "realization text trial": lambda: Realization(
        sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 1), "a"),
    # a hand-built chunk whose line_start is a list gives no trial count
    "realization list line_start": lambda: Realization(_listed_line_start(), 0),
    "chunk realization list line_start": lambda: _listed_line_start().realization(0),
    "tol bool": lambda: check_tol(True),
    "thm2 tol bool": lambda: cdf_one_turn_intersection(_MODEL, 0.5, tol=True),
    "bound tol bool": lambda: cdf_two_turn_bound(_MODEL, 0.5, tol=True),
    "t bool": lambda: cdf_one_turn_point(_MODEL, True),
    "t bool array": lambda: cdf_one_turn_point(_MODEL, np.array([False, True])),
    "oracle t_max bool": lambda: shortest_path(
        sample_palm(_MODEL, typical_point(), 1.0, 1), TurnPolicy.one_turn(), True),
    "curve bool grid": lambda: DistributionCurve([False, True], [0.0, 1.0], 0.0),
    "chunk radius square": lambda: sample_chunk(_HUGE_R_MODEL, typical_point(), 1e200, 3, 0, 40),
    "run_mc radius square": lambda: run_mc(_HUGE_R_MODEL, typical_point(),
                                           TurnPolicy.one_turn(), 40, 1e200, 0,
                                           grid=[0.0, 1.0]),
    "t bool in list": lambda: cdf_one_turn_point(_MODEL, [0.5, True]),
    "t bool in object array": lambda: cdf_one_turn_point(
        _MODEL, np.array([0.5, True], dtype=object)),
    "curve bool in grid": lambda: DistributionCurve([0.0, True], [0.0, 1.0], 0.0),
    "run_mc grid bool": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(), 1,
                                       1.0, 1, grid=[0.0, True]),
    "oracle t_max array": lambda: shortest_path(
        sample_palm(_MODEL, typical_point(), 1.0, 1), TurnPolicy.one_turn(), [0.5, 1.0]),
    "chunk t_max empty": lambda: chunk_lengths(
        sample_chunk(_MODEL, typical_point(), 1.0, 1, 0, 1), TurnPolicy.one_turn(), []),
    "path t_max text": lambda: sample_path(_MODEL, typical_point(), TurnPolicy.one_turn(),
                                           "x", 1),
    "path t_max None": lambda: sample_path(_MODEL, typical_point(), TurnPolicy.one_turn(),
                                           None, 1),
    "tol huge int": lambda: cdf_two_turn_bound(_MODEL, 0.5, tol=10**400),
    "quantile policy array": lambda: reach_quantile(_MODEL, 0.5, np.array(["a", "b"])),
    "rescale grid overflow": lambda: rescale(
        DistributionCurve([5.0, 6.0], [0.2, 0.3], 0.0), 1e308),
    "t numeric text": lambda: cdf_one_turn_point(_MODEL, "0.5"),
    "t numeric text in list": lambda: cdf_one_turn_point(_MODEL, ["0.5"]),
    "t numeric bytes": lambda: cdf_one_turn_point(_MODEL, b"0.5"),
    "t numeric text in object array": lambda: cdf_one_turn_point(
        _MODEL, np.array(["0.5"], dtype=object)),
    "t numeric text beside a number": lambda: cdf_one_turn_point(_MODEL, [0.5, "0.7"]),
    "t timedelta array": lambda: cdf_one_turn_point(_MODEL, np.array([1], dtype="m8[s]")),
    "curve numeric text": lambda: DistributionCurve(["0", "1"], [0, 1], 0),
    "run_mc grid numeric text": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(),
                                               1, 1.0, 1, grid=["0", "1"]),
    "chunk span past the cap": lambda: sample_chunk(ModelParams(2, 1), typical_intersection(),
                                                    1.0, 2**80, -3, 10**400),
    "policy flag timedelta": lambda: TurnPolicy.k_turn(2, _TD),
    "tol timedelta": lambda: check_tol(_TD),
    "thm2 tol timedelta": lambda: cdf_one_turn_intersection(_MODEL, 0.5, tol=_TD),
    "db timedelta": lambda: db_to_linear(_TD),
    "realization timedelta": lambda: sample_chunk(
        _MODEL, typical_point(), 1.0, 1, 0, 1).realization(_TD),
    "two_turn_T timedelta": lambda: two_turn_T(0.1, 0.2, _TD, _MODEL),
    "t timedelta in list": lambda: cdf_one_turn_point(_MODEL, [_TD, 0.5]),
    "t timedelta in object array": lambda: cdf_one_turn_point(
        _MODEL, np.array([_TD, 0.5], dtype=object)),
    "t 0-d bool array in list": lambda: cdf_one_turn_point(_MODEL, [np.array(True), 0.5]),
    "t 0-d array in list": lambda: cdf_one_turn_point(_MODEL, [np.array(0.5), 0.7]),
    "curve timedelta in grid": lambda: DistributionCurve([0.0, _TD], [0.0, 1.0], 0.0),
    "run_mc grid timedelta": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(),
                                            1, 1.0, 1, grid=[0.0, _TD]),
    # one trial's fixed cost, not its (almost no) lines and points, fills the cap
    "chunk trials past the fixed cost": lambda: sample_chunk(
        ModelParams(0, 1e-9), typical_point(), 1.0, 0, 0, 58_824),
    "huge lambda": lambda: ModelParams(_HUGE, 1),
    "huge negative k": lambda: TurnPolicy.k_turn(-_HUGE),
    "huge flag": lambda: TurnPolicy.k_turn(2, _HUGE),
    "huge dkw n": lambda: dkw_halfwidth(_HUGE),
    "huge dkw alpha": lambda: dkw_halfwidth(10, _HUGE),
    # a float of 0.0: 2/alpha raised ZeroDivisionError
    "dkw alpha fraction underflow": lambda: dkw_halfwidth(10, Fraction(1, 10**400)),
    "huge negative trials": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(),
                                           -_HUGE, 1.0, 1),
    "huge negative workers": lambda: run_mc(_MODEL, typical_point(), TurnPolicy.one_turn(),
                                            1, 1.0, 1, workers=-_HUGE),
    "huge bound tol": lambda: cdf_two_turn_bound(_MODEL, 0.5, tol=_HUGE),
    "huge quantile p": lambda: reach_quantile(_MODEL, _HUGE),
    "huge rescale c": lambda: rescale(DistributionCurve([0.0, 1.0], [0.0, 1.0], 0.0), _HUGE),
    "huge ppp density": lambda: cdf_ppp2d_reference(_HUGE, 0.5),
    "huge two_turn_T w": lambda: two_turn_T(_HUGE, 0.5, 1.0, _MODEL),
    "huge palm radius": lambda: sample_palm(_MODEL, typical_point(), _HUGE, 1),
    "huge default grid": lambda: default_grid(_HUGE),
    "huge scenario kind": lambda: PalmScenario(_HUGE),
    "huge realization": lambda: sample_chunk(
        _MODEL, typical_point(), 1.0, 1, 0, 1).realization(_HUGE),
    "huge chunk start": lambda: sample_chunk(_MODEL, typical_point(), 1.0, 1, _HUGE, 0),
    "huge link gain": lambda: RisLinkParams(_HUGE, *[1.0] * 11),
    "huge terms mu": lambda: one_turn_intersection_terms(_HUGE, 0.5),
    "huge fraction lambda": lambda: ModelParams(Fraction(_HUGE, 3), 1),
}
# each "huge" case: the field its message names, and how it shows the value
_UNPRINTABLE = {
    "huge lambda": ("lambda", "a 16610-bit int"),
    "huge negative k": ("turn budget", "a negative 16610-bit int"),
    "huge flag": ("include_lower_turn_paths", "a 16610-bit int"),
    "huge dkw n": ("n must", "a 16610-bit int"),
    "huge dkw alpha": ("alpha", "a 16610-bit int"),
    "huge negative trials": ("trials", "a negative 16610-bit int"),
    "huge negative workers": ("workers", "a negative 16610-bit int"),
    "huge bound tol": ("tol", "a 16610-bit int"),
    "huge quantile p": ("p must", "a 16610-bit int"),
    "huge rescale c": ("scale", "a 16610-bit int"),
    "huge ppp density": ("density", "a 16610-bit int"),
    "huge two_turn_T w": ("w=", "a 16610-bit int"),
    "huge palm radius": ("clip_radius", "a 16610-bit int"),
    "huge default grid": ("t_max", "a 16610-bit int"),
    "huge scenario kind": ("kind", "a 16610-bit int"),
    "huge realization": ("trial index", "a 16610-bit int"),
    "huge chunk start": ("start", "a 16610-bit int"),
    "huge link gain": ("g_t", "a 16610-bit int"),
    "huge terms mu": ("mu", "a 16610-bit int"),
    "huge fraction lambda": ("lambda", "a Fraction"),
}


@pytest.mark.parametrize("call", _BAD_CALLS.values(), ids=_BAD_CALLS)
def test_bad_library_arguments_raise_input_errors(call):
    """Everything raised on purpose is a LineCoxError, so one ``except``
    catches it; a bad argument is an InputError."""
    with pytest.raises(errors.InputError):
        call()


@pytest.mark.parametrize("value, shown", [
    (2**63 - 1, "9223372036854775807"),
    (2**63, "a 64-bit int"),
    (-2**63, "-9223372036854775808"),
    (-2**63 - 1, "a negative 64-bit int"),
    (np.int64(-7), repr(np.int64(-7))),
    (np.uint64(2**64 - 1), "a 64-bit int"),
    (0.5, "0.5"),
    ("x", "'x'"),
    (True, "True"),
    (_TD, repr(_TD)),
    (_HUGE, "a 16610-bit int"),
    (Fraction(_HUGE, 3), "a Fraction"),
], ids=["2**63-1", "2**63", "-2**63", "-2**63-1", "int64", "uint64 max", "float", "str",
        "bool", "timedelta64", "huge", "huge fraction"])
def test_shown_cuts_ints_at_int64_and_shows_the_rest_by_repr(value, shown):
    """``errors._shown``, the one text a message gives a value: an int, a
    Python or numpy one, outside [-2**63, 2**63) by its sign and bit
    length; a value repr cannot print by its type; anything else by repr."""
    assert errors._shown(value) == shown


@pytest.mark.parametrize("case", _UNPRINTABLE)
def test_a_value_repr_cannot_print_is_named_in_the_message(case):
    """Python prints no int of more than 4,300 digits, nor a Fraction of
    one; such a value is shown by its sign and bit length, or by its type,
    in a message that names the field, and never escapes as a ValueError
    raised while the message is built."""
    field, shown = _UNPRINTABLE[case]
    with pytest.raises(errors.InputError) as exc:
        _BAD_CALLS[case]()
    assert field in str(exc.value) and shown in str(exc.value)


@pytest.mark.parametrize("case", ["realization list line_start",
                                  "chunk realization list line_start"])
def test_a_chunk_with_no_trial_count_is_refused_in_the_layout_words(case):
    """A Realization of a chunk whose ``line_start`` is a list, built
    directly or by ``ChunkSample.realization``, raised AttributeError from
    the trial count; it is refused in the words of the solvers' layout
    check."""
    with pytest.raises(errors.InputError,
                       match="^line_start must be a 1-D int64 ndarray, got list$"):
        _BAD_CALLS[case]()


def test_an_exact_turn_run_at_the_smallest_t_max_exits_0(monkeypatch, capsys):
    """At t_max = 5e-324 the kernel's first reach of an exactly-k search
    rounds to 0. The run must still end, with exit 0; the spy fails the
    test after 64 kernel passes instead of letting it hang."""
    passes = []

    def counted(*args):
        passes.append(1)
        assert len(passes) <= 64, "the reach never grows to t_max"
        return search(*args)

    search = oracle._search
    monkeypatch.setattr(oracle, "_search", counted)
    assert main(["simulate", "--policy", "k-turn", "--k", "2", "--exact-turns",
                 "--t-max", "5e-324", "--trials", "3"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("t,F,ci_lo,ci_hi\n")


def test_compare_refuses_a_band_with_ci_lo_above_ci_hi(tmp_path, capsys):
    """A simulate CSV whose ci_lo lies above its ci_hi reads as a negative
    half width, which the curve refuses: exit 2, with nothing on stdout."""
    crossed = tmp_path / "crossed.csv"
    crossed.write_text("t,F,ci_lo,ci_hi\n0.0,0.0,0.5,-0.5\n1.0,0.5,0.6,0.4\n")
    good = tmp_path / "good.csv"
    good.write_text("t,F,err_est\n0.0,0.0,0.0\n1.0,0.5,0.0\n")
    assert main(["compare", str(crossed), str(good)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "ci_halfwidth" in captured.err


_REFUSED_CURVES = {
    "crossed band": ("t,F,ci_lo,ci_hi\n0.0,0.0,0.5,-0.5\n1.0,0.5,0.6,0.4\n",
                     "ci_halfwidth must be >= 0"),
    "nan F": ("t,F,err_est\n0.0,0.0,0.0\n1.0,nan,0.0\n", "curve arrays must be finite"),
    "decreasing t": ("t,F,err_est\n1.0,0.0,0.0\n0.0,0.5,0.0\n",
                     "grid must be strictly increasing"),
}


@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
@pytest.mark.parametrize("case", sorted(_REFUSED_CURVES))
def test_compare_names_the_file_whose_curve_is_refused(tmp_path, capsys, case, bad_first):
    """A file whose columns the curve refuses exits 2, and the message
    names that file, in either position."""
    text, reason = _REFUSED_CURVES[case]
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("t,F,err_est\n0.0,0.0,0.0\n1.0,0.5,0.0\n")
    paths = [str(bad), str(good)] if bad_first else [str(good), str(bad)]
    assert main(["compare", *paths]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: {reason}" in captured.err, captured.err


# ---- fuzzed argv --------------------------------------------------------------
#
# Values are adversarial: signed zeros, subnormals, the float extremes, nan
# and inf, a few ordinary numbers, and text that is no number. The
# strategies bound the work a draw may start, so the test stays within a
# few seconds: at most 5 trials (one chunk), turn budgets up to 3 (the
# @example with k = 10**9 stays on the lower-turn search, where the kernel
# stops at its first empty layer), grids of at most 11 points, one worker
# process, and no quadrature tolerance below 1e-3 (a tolerance no rung
# meets climbs every rung; tests elsewhere pin that exit 3). ``--config``
# and ``-v`` are left to the CLI tests.

_OUT = "@out"  # stands for a file in the draw's own directory
_REALS = ("0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308",
          "1e999", "nan", "inf", "-inf", "1", "0.5", "3", "-1")
_JUNK = ("", "abc", "1,5", "0x10")
_BOUNDED = {
    "trials": ("1", "2", "5", "0", "-1", "1e3"),
    "k": ("0", "1", "2", "3", "-1"),
    "seed": ("0", "1", "-1", str(2**64 + 5)),
    "workers": ("1", "0", "-1"),
    "tol": ("1e-3", "0.5", "0", "-0", "-1", "nan", "inf", "1e999"),
    "grid": ("0:1:0.5", "0:3:1", "2:2:1", "0:1:0.3", "-1:1:0.5", "0:1e308:1e307",
             "1e-300:3e-300:1e-300", "0:5e-324:5e-324", "0:nan:1", "0:1:0", "1:0:1",
             "0:1:1e-300", "0:1", "1e16:1.0000000000000002e16:1", "a:b:c", "0:3:inf"),
    "out": (_OUT, ""),
}


def _value(opt):
    if opt.key in _BOUNDED:
        return st.sampled_from(_BOUNDED[opt.key])
    if opt.choices:
        return st.sampled_from(opt.accepted)
    return st.sampled_from(_REALS)


def _argv(command):
    """argv of one subcommand: a subset of its options with values that
    parse, and one draw in eight with one value that does not (``_JUNK``,
    or a word outside the choices)."""
    opts = cli._OPTIONS[command]
    head = ["app", command] if command in ("ev-quantile", "ris-nearfield", "ris-farfield") \
        else [command]
    if command == "compare":
        head += ["@a", "@b"]

    @st.composite
    def draw(data):
        argv = list(head)
        # every draw gives --trials and --grid, whose defaults cost seconds
        chosen = [opt for opt in opts if opt.key in ("trials", "grid")]
        chosen += data(st.lists(st.sampled_from([opt for opt in opts if opt not in chosen]),
                                unique_by=lambda o: o.key))
        valued = [opt for opt in chosen if opt.type is not cli._parse_bool
                  and opt.key != "out"]  # a junk path would be written to
        junk = data(st.sampled_from(valued)) if valued and data(st.integers(0, 7)) == 7 \
            else None
        for opt in chosen:
            if opt.type is cli._parse_bool:
                argv.append(opt.flag)
            else:  # flag=value, so that argparse takes "-inf" for a value
                value = data(st.sampled_from(_JUNK + ("bogus",)) if opt is junk
                             else _value(opt))
                argv.append(f"{opt.flag}={value}")
        return argv

    return draw()


_ARGV = st.one_of([_argv(command) for command in sorted(cli._OPTIONS)])

_CURVES = {"@a": "t,F,err_est\n0.0,0.0,0.0\n0.5,0.25,0.0\n1.0,0.75,0.0\n",
           "@b": "t,F,ci_lo,ci_hi\n0.0,0.0,0.0,0.0\n0.5,0.5,0.25,0.75\n1.0,1.0,0.5,1.5\n"}


def _finite_json(text):
    def refuse(constant):
        raise AssertionError(f"{constant} in a JSON output")

    json.loads(text, parse_constant=refuse)


def _finite_csv(text):
    lines = text.splitlines()
    assert len(lines) >= 2
    for line in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(",")), line


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_ARGV)
@example(argv=["simulate", "--policy", "k-turn", "--k", "1000000000", "--trials", "64",
               "--grid", "0:1:0.5"])
@example(argv=["simulate", "--trials", "1" + "0" * 400, "--grid", "0:1:0.5"])
@example(argv=["simulate", "--t-max", "2", "--trials", "5"])
@example(argv=["app", "ris-nearfield", "--wavelength", "1e300", "--area", "1e300"])
@example(argv=["app", "ris-farfield", "--m", "1e200"])
@example(argv=["app", "ris-farfield", "--gamma=5e-324", "--n0=5e-324"])
@example(argv=["analytic", "--which", "thm2", "--lambda", "1", "--mu", "1e308",
               "--grid", "0:3:1"])
@example(argv=["analytic", "--which", "thm2", "--lambda", "1", "--mu", "1e308",
               "--grid", "0:1:0.5"])
@example(argv=["analytic", "--which", "thm3-bound", "--lambda", "1", "--mu", "1e308",
               "--grid", "0:1:0.5", "--out", _OUT])
@example(argv=["compare", "@a", "@b", "--ks-threshold=nan"])
@example(argv=["analytic", "--which", "thm1", "--grid", "0:1e308:1e307"])
@example(argv=["analytic", "--which", "ppp", "--density", "3", "--grid", "0:1e308:1e307"])
@example(argv=["analytic", "--which", "thm2", "--lambda", "1e308", "--mu", "0.5",
               "--grid", "1e-300:3e-300:1e-300"])
@example(argv=["analytic", "--which", "thm1", "--grid", "1e16:1.0000000000000002e16:1",
               "--out", _OUT])
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    """A draw ends in exit 0, 2, 3 or 4, never in a traceback (pytest
    turns a RuntimeWarning into an error, so a warning fails the draw too).
    A failure prints one ``linecox:`` line and nothing on stdout; an exit 0
    writes no nan or inf, and every curve file it writes loads back
    through the reader ``compare`` uses. argparse itself refuses some draws
    (an unknown choice, text that is no number) with its usage and exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {token: Path(tmp) / name for token, name in
                 (("@a", "a.csv"), ("@b", "b.csv"), (_OUT, "out.csv"))}
        for token, text in _CURVES.items():
            files[token].write_text(text)
        for token, path in files.items():
            argv = [a.replace(token, str(path)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                assert exc.code == EXIT_CONFIG, err.getvalue()
                assert ": error: " in err.getvalue().splitlines()[-1]
                return
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_QUADRATURE, EXIT_RUNTIME)
        assert "Traceback" not in err.getvalue()
        if rc != EXIT_OK:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("linecox: "), lines
            return
        written = [(None, out.getvalue())] + [
            (path, path.read_text()) for path in Path(tmp).iterdir()
            if path.name not in ("a.csv", "b.csv")]
        for path, text in written:
            if text.startswith("{"):
                _finite_json(text)
            elif text:
                _finite_csv(text)
                if path is not None:
                    cli._load_curve(str(path))
