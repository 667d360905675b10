"""Every request ends in a documented exit code: 0, 2, 3 or 4.

The CLI maps errors by type: a ValueError (every ``errors.InputError``)
exits 2, ``QuadratureFailure`` 3, and any other ``LineCoxError`` 4. The
fuzz test draws argv from ``cli._OPTIONS`` and runs ``cli.main`` in
process.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linecox import cli, errors
from linecox.cli import EXIT_CONFIG, EXIT_OK, EXIT_QUADRATURE, EXIT_RUNTIME, main

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
             "0:1:1e-300", "0:1"),
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
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    """A draw ends in exit 0, 2, 3 or 4, never in a traceback (pytest
    turns a RuntimeWarning into an error, so a warning fails the draw too).
    A failure prints one ``linecox:`` line and nothing on stdout; an exit 0
    writes no nan or inf. argparse itself refuses some draws (an unknown
    choice, text that is no number) with its usage and exit 2."""
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
        written = [out.getvalue()] + [path.read_text() for path in Path(tmp).iterdir()
                                      if path.name not in ("a.csv", "b.csv")]
        for text in filter(None, written):
            if text.startswith("{"):
                _finite_json(text)
            else:
                _finite_csv(text)
