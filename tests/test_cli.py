"""End-to-end CLI tests, driven in process through main(argv)."""

import argparse
import concurrent.futures
import contextlib
import io
import json
import logging
import math
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linecox import cli, experiments
from linecox.cli import EXIT_CONFIG, EXIT_OK, EXIT_QUADRATURE, EXIT_RUNTIME, main, parse_grid


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_parse_grid_inclusive_and_truncated():
    assert np.array_equal(parse_grid("0:1:0.5"), [0.0, 0.5, 1.0])
    assert np.array_equal(parse_grid("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
    g = parse_grid("0:1:0.3")  # 0.3 does not divide 1, stop stays out
    assert g.size == 4 and g[-1] == pytest.approx(0.9)
    assert np.array_equal(parse_grid("2:2:1"), [2.0])
    for bad in ("0:1", "0:1:0", "1:0:0.5", "0:inf:1", "a:b:c"):
        with pytest.raises(ValueError):
            parse_grid(bad)


@pytest.mark.parametrize("grid", ["0:3:1e-10", "0:3:1e-300", "0:1e308:1e-10"])
@pytest.mark.parametrize("command", [["analytic", "--which", "thm1"],
                                     ["simulate", "--trials", "10"]])
def test_a_grid_over_the_cap_exits_2_before_it_is_allocated(capsys, command, grid):
    rc, out, err = _run(capsys, *command, "--grid", grid)
    assert rc == EXIT_CONFIG and out == ""
    assert f"grid {grid!r} has " in err and f"cap of {cli.MAX_GRID_POINTS}" in err
    assert "Traceback" not in err


def test_a_grid_at_the_cap_is_accepted():
    step = 1.0 / (cli.MAX_GRID_POINTS - 1)
    assert parse_grid(f"0:1:{step!r}").size == cli.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="cap of"):
        parse_grid(f"0:1:{step * 0.999!r}")


def test_running_out_of_memory_exits_4_with_one_line(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_mc", no_memory)
    rc, out, err = _run(capsys, "simulate", "--trials", "1000000000000", "--grid", "0:1:0.5")
    assert rc == EXIT_RUNTIME and out == ""
    assert err == "linecox: out of memory\n"


def test_analytic_closed_forms_to_stdout(capsys):
    rc, out, _ = _run(capsys, "analytic", "--which", "cor1", "--lambda", "0",
                      "--mu", "1", "--grid", "0:1:0.5")
    assert rc == EXIT_OK
    header, data = _rows(out)
    assert header == ["t", "F", "err_est"]
    assert np.array_equal(data[:, 0], [0.0, 0.5, 1.0])
    assert data[0, 1] == 0.0
    assert data[1, 1] == pytest.approx(0.8646647167633873, rel=1e-15)
    assert data[2, 1] == pytest.approx(0.9816843611112658, rel=1e-15)
    assert np.all(data[:, 2] == 0.0)

    # the descriptive alias is the same curve
    rc2, out2, _ = _run(capsys, "analytic", "--which", "zero-turn-intersection",
                        "--lambda", "0", "--mu", "1", "--grid", "0:1:0.5")
    assert rc2 == EXIT_OK and out2 == out

    rc, out, _ = _run(capsys, "analytic", "--which", "naive", "--lambda", "1",
                      "--mu", "2", "--grid", "0:1:1")
    _, data = _rows(out)
    assert data[1, 1] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)


def test_analytic_default_grid_shape(capsys):
    rc, out, _ = _run(capsys, "analytic", "--which", "thm1",
                      "--lambda", "1", "--mu", "1")
    assert rc == EXIT_OK
    header, data = _rows(out)
    assert data.shape == (301, 3)
    assert out.splitlines()[1] == "0.0,0.0,0.0"
    assert data[-1, 0] == 3.0

    # bare invocation must mean (lambda, mu) = (1, 1), same as simulate
    rc, bare, _ = _run(capsys, "analytic", "--which", "thm1")
    assert rc == EXIT_OK
    assert bare == out


def test_analytic_out_files_and_quadrature_sidecar(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc, stdout, _ = _run(capsys, "analytic", "--which", "thm2", "--lambda", "1",
                         "--mu", "1", "--grid", "0:0.2:0.1",
                         "--out", str(out))
    assert rc == EXIT_OK and stdout == ""
    header, data = _rows(out.read_text())
    assert header == ["t", "F", "err_est"]
    assert data.shape == (3, 3)
    assert np.all(np.diff(data[:, 1]) > 0.0)
    meta = json.loads((tmp_path / "curve.json").read_text())
    assert meta["command"] == "analytic"
    assert meta["which"] == "thm2"
    assert meta["variant"] == "plus/full-angle/x"
    assert meta["tol"] == 1e-6
    assert meta["params"] == {"lambda": 1.0, "mu": 1.0}


def test_analytic_ppp_density_resolution(capsys):
    rc, out, _ = _run(capsys, "analytic", "--which", "ppp",
                      "--density", "0.5", "--grid", "0:1:1")
    assert rc == EXIT_OK
    _, data = _rows(out)
    assert data[1, 1] == pytest.approx(-math.expm1(-math.pi * 0.5), rel=1e-15)

    # --lambda/--mu derive the equivalent planar density, pi*lam*mu/2
    rc, derived, _ = _run(capsys, "analytic", "--which", "ppp", "--lambda", "1",
                          "--mu", "1", "--grid", "0:1:1")
    assert rc == EXIT_OK
    rc, explicit, _ = _run(capsys, "analytic", "--which", "ppp",
                           "--density", repr(math.pi / 2.0), "--grid", "0:1:1")
    assert rc == EXIT_OK and derived == explicit

    rc, _, err = _run(capsys, "analytic", "--which", "ppp", "--grid", "0:1:1")
    assert rc == EXIT_CONFIG and "density" in err


def test_simulate_bit_identical_repeats_and_workers(tmp_path, capsys):
    base = ["simulate", "--lambda", "1", "--mu", "1", "--policy", "one-turn",
            "--trials", "600", "--grid", "0:2:0.5", "--seed", "9"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, extra in zip(paths, ([], [], ["--workers", "2"])):
        rc, _, _ = _run(capsys, *base, "--out", str(path), *extra)
        assert rc == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()

    meta = json.loads((tmp_path / "a.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["trials"] == 600
    assert meta["seed"] == 9
    assert meta["policy"]["kind"] == "one-turn"
    assert "workers" not in meta

    rc, _, _ = _run(capsys, *base[:-1], "11", "--out", str(paths[1]))
    assert paths[0].read_bytes() != paths[1].read_bytes()


def test_simulate_through_a_process_pool_matches_one_worker(tmp_path, capsys, monkeypatch):
    """2,100 trials at lam 2, t_max 2 are 5 chunks of at most 515, so
    ``--workers 2`` runs them in a pool of two processes. The CSV and its
    sidecar equal those of one worker, and of no ``--workers`` at all."""
    asked = []

    def pool(max_workers):
        asked.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    base = ["simulate", "--lambda", "2", "--mu", "1", "--t-max", "2",
            "--trials", "2100", "--grid", "0:2:0.25", "--seed", "5"]
    outputs = []
    for name, extra in (("default", []), ("one", ["--workers", "1"]),
                        ("two", ["--workers", "2"])):
        path = tmp_path / f"{name}.csv"
        rc, _, _ = _run(capsys, *base, "--out", str(path), *extra)
        assert rc == EXIT_OK
        outputs.append((path.read_bytes(), path.with_suffix(".json").read_bytes()))
    assert asked == [2]
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_single_trial_and_band_columns(capsys):
    rc, out, _ = _run(capsys, "simulate", "--lambda", "0", "--mu", "1",
                      "--policy", "zero-turn", "--trials", "1",
                      "--grid", "0:2:1", "--seed", "4")
    assert rc == EXIT_OK
    header, data = _rows(out)
    assert header == ["t", "F", "ci_lo", "ci_hi"]
    assert set(np.unique(data[:, 1])) <= {0.0, 1.0}
    hw = data[:, 3] - data[:, 1]
    assert np.allclose(data[:, 1] - data[:, 2], hw)
    assert np.all(hw > 0.0)


def test_simulate_trials_past_int64_exit_2(capsys):
    rc, out, err = _run(capsys, "simulate", "--trials", "1" + "0" * 400,
                        "--grid", "0:1:0.5")
    assert rc == EXIT_CONFIG and out == ""
    assert err.startswith("linecox: trials must be < 2**63")
    assert len(err.splitlines()) == 1


def test_simulate_scenario_and_policy_matrix(tmp_path, capsys):
    """Each request's sidecar names the policy and scenario that ran: a
    named policy keeps its own budget and flags whatever --k and
    --exact-turns say, and a typical point draws no angle."""
    one_turn = ("one-turn", 1, True, False)
    for extra, policy, scenario in (
            (["--scenario", "intersection", "--angle-law", "sin"], one_turn,
             ("typical-intersection", "sin")),
            (["--scenario", "typical-point"], one_turn, ("typical-point", "uniform")),
            (["--policy", "k-turn", "--k", "0"], ("k-turn", 0, True, False),
             ("typical-point", "uniform")),
            (["--policy", "two-turn-directed", "--exact-turns"],
             ("two-turn-directed", 2, False, True), ("typical-point", "uniform")),
            (["--policy", "zero-turn", "--exact-turns"], ("zero-turn", 0, True, False),
             ("typical-point", "uniform")),
            (["--policy", "one-turn", "--k", "7"], one_turn, ("typical-point", "uniform")),
            (["--policy", "k-turn", "--k", "0", "--exact-turns"],
             ("k-turn", 0, False, False), ("typical-point", "uniform")),
            (["--scenario", "point", "--angle-law", "sin"], one_turn,
             ("typical-point", "uniform"))):
        out = tmp_path / "curve.csv"
        rc, _, _ = _run(capsys, "simulate", "--trials", "5",
                        "--grid", "0:1:0.5", *extra, "--out", str(out))
        assert rc == EXIT_OK
        header, data = _rows(out.read_text())
        assert data.shape == (3, 4)
        meta = json.loads((tmp_path / "curve.json").read_text())
        assert meta["policy"] == dict(zip(
            ("kind", "k", "include_lower_turn_paths", "first_hop_positive_x"), policy)), extra
        assert meta["scenario"] == dict(zip(("kind", "angle_law"), scenario)), extra

    rc, _, err = _run(capsys, "simulate", "--trials", "5", "--grid", "0:3:1",
                      "--t-max", "2")
    assert rc == EXIT_CONFIG and "censors" in err


def test_simulate_t_max_alone_runs_on_the_default_grid_for_it(tmp_path, capsys):
    """--t-max without --grid runs on run_mc's default grid for that
    horizon, and the sidecar records a null grid; the --grid default,
    0:3:0.01, reaches past a horizon of 2 and exited 2."""
    out = tmp_path / "curve.csv"
    rc, _, _ = _run(capsys, "simulate", "--t-max", "2", "--trials", "5", "--out", str(out))
    assert rc == EXIT_OK
    _, data = _rows(out.read_text())
    assert np.array_equal(data[:, 0], experiments.default_grid(2.0))
    meta = json.loads((tmp_path / "curve.json").read_text())
    assert meta["grid"] is None and meta["t_max"] == 2.0
    # a horizon whose default grid would pass the grid cap exits 2 before
    # the grid is allocated (10**10 points here)
    rc, out, err = _run(capsys, "simulate", "--lambda", "0", "--mu", "1e-30",
                        "--t-max", "1e8", "--trials", "2")
    assert rc == EXIT_CONFIG and out == ""
    assert f"cap of {cli.MAX_GRID_POINTS} points" in err


def test_compare_self_and_cross(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ["--lambda", "1", "--mu", "1", "--grid", "0:2:0.1"]
    _run(capsys, "analytic", "--which", "cor1", *common, "--out", str(a))
    _run(capsys, "analytic", "--which", "cor2", *common, "--out", str(b))

    rc, out, _ = _run(capsys, "compare", str(a), str(a))
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["ks"] == 0.0
    assert report["verdict"] == "pass"
    assert report["pointwise_a_le_b"] and report["pointwise_b_le_a"]

    out_path = tmp_path / "report.json"
    rc, stdout, _ = _run(capsys, "compare", str(a), str(b),
                         "--ks-threshold", "1e-6", "--out", str(out_path))
    assert rc == EXIT_OK and stdout == ""
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "fail"  # the gap is real, the exit code is not an error
    assert report["pointwise_a_le_b"] and not report["pointwise_b_le_a"]
    assert report["ks"] > 0.1
    assert report["n_grid"] == 21


def test_compare_disjoint_grids_is_config_error(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, "analytic", "--which", "cor1", "--lambda", "0", "--mu", "1",
         "--grid", "0:1:0.5", "--out", str(a))
    _run(capsys, "analytic", "--which", "cor1", "--lambda", "0", "--mu", "1",
         "--grid", "2:3:0.5", "--out", str(b))
    rc, _, err = _run(capsys, "compare", str(a), str(b))
    assert rc == EXIT_CONFIG and "overlap" in err


def test_quadrature_failure_exit_code(capsys):
    rc, _, err = _run(capsys, "analytic", "--which", "thm2", "--lambda", "1",
                      "--mu", "1", "--grid", "0.5:0.5:1", "--tol", "1e-15")
    assert rc == EXIT_QUADRATURE
    assert "quadrature" in err.lower()


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
@pytest.mark.parametrize("request_args", [
    ("analytic", "--which", "thm2", "--grid", "0.5:0.5:1"),
    ("analytic", "--which", "thm3-bound", "--grid", "0.5:0.5:1"),
    ("app", "ev-quantile", "--policy", "one-turn-intersection", "--p", "0.9"),
    # closed forms run no quadrature, but a bad --tol is bad input there too
    ("analytic", "--which", "thm1", "--grid", "0:1:1"),
    ("app", "ev-quantile", "--policy", "one-turn-point", "--p", "0.5"),
])
def test_bad_tolerance_is_a_config_error(capsys, request_args, tol):
    rc, _, err = _run(capsys, *request_args, "--lambda", "1", "--mu", "1",
                      "--tol", tol)
    assert rc == EXIT_CONFIG
    assert "tol must be > 0" in err


def test_a_valid_tolerance_leaves_a_closed_form_curve_alone(capsys):
    args = ("analytic", "--which", "thm1", "--lambda", "1", "--mu", "1",
            "--grid", "0:2:0.5")
    rc, plain, _ = _run(capsys, *args)
    assert rc == EXIT_OK
    rc, with_tol, _ = _run(capsys, *args, "--tol", "1e-3")
    assert rc == EXIT_OK and with_tol == plain


def test_unwritable_output_exit_code(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "curve.csv"
    rc, _, err = _run(capsys, "analytic", "--which", "thm1", "--lambda", "1",
                      "--mu", "1", "--grid", "0:1:1", "--out", str(missing))
    assert rc == EXIT_RUNTIME and err.startswith("linecox:")


def test_app_ris_nearfield_db_matches_linear(capsys):
    rc, out, _ = _run(capsys, "app", "ris-nearfield", "--lambda", "1",
                      "--mu", "1", "--g-t", "4", "--g-r", "4")
    assert rc == EXIT_OK
    linear = json.loads(out)
    assert linear["threshold_distance"] == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert linear["probability"] == pytest.approx(0.5517110841621304, rel=1e-12)
    assert linear["db_inputs"] is False

    four_db = repr(10.0 * math.log10(4.0))
    rc, out, _ = _run(capsys, "app", "ris-nearfield", "--lambda", "1",
                      "--mu", "1", "--db", "--g-t", four_db, "--g-r", four_db,
                      "--g", "0", "--gamma", "0")
    assert rc == EXIT_OK
    db = json.loads(out)
    assert db["db_inputs"] is True
    assert db["threshold_distance"] == pytest.approx(
        linear["threshold_distance"], rel=1e-12)
    assert db["probability"] == pytest.approx(linear["probability"], rel=1e-12)

    rc, out, _ = _run(capsys, "app", "ris-nearfield", "--gamma", "1e30")
    assert json.loads(out)["probability"] < 1e-10


@pytest.mark.parametrize("gains, field", [
    (("--g-t", "1e308", "--g-r", "1e308", "--gamma", "3"), "g_t"),
    (("--g-r", "1e308"), "g_r"),
    (("--gamma", "1e308"), "gamma"),
])
def test_a_db_gain_that_overflows_is_a_config_error(capsys, gains, field):
    """10^(1e308/10) is past the largest float: the request exits 2 and
    names the field instead of ending in an OverflowError."""
    rc, out, err = _run(capsys, "app", "ris-nearfield", "--db", "--lambda", "1",
                        "--mu", "1", *gains)
    assert rc == EXIT_CONFIG and out == ""
    assert err.startswith(f"linecox: {field} ") and err.count("\n") == 1


@pytest.mark.parametrize("request_args", [
    ("--which", "thm1", "--lambda", "1e308", "--mu", "1"),
    ("--which", "cor1", "--lambda", "1", "--mu", "1e308"),
    ("--which", "cor2", "--lambda", "1e308", "--mu", "1"),
    ("--which", "ppp", "--density", "1e308"),
])
def test_a_rate_that_overflows_leaves_f_of_0_at_0(capsys, request_args):
    """An overflowing rate times t used to be inf * 0 = nan at t = 0."""
    rc, out, err = _run(capsys, "analytic", *request_args, "--grid", "0:3:0.5")
    assert rc == EXIT_OK and err == ""
    _, data = _rows(out)
    assert data[0, 1] == 0.0 and np.all(data[1:, 1] == 1.0)


def test_thm1_curve_when_lam_over_mu_overflows(capsys):
    """lam/mu overflows to inf: the curve used to write F(0) = nan and
    F(t > 0) = -inf."""
    rc, out, err = _run(capsys, "analytic", "--which", "thm1", "--lambda", "1e300",
                        "--mu", "1e-10", "--grid", "0:1:0.5")
    assert rc == EXIT_OK and err == ""
    _, data = _rows(out)
    assert data[:, 1].tolist() == [0.0, 1.0, 1.0]


def test_thm1_quantile_when_lam_over_mu_overflows(capsys):
    """lam/mu overflows to inf: the quantile used to exit 2 on f(0.0) = nan.
    At lam * mu = 1 the curve is 1 - exp(-2 t^2), so F = 1/2 at
    sqrt(log(2)/2)."""
    rc, out, err = _run(capsys, "app", "ev-quantile", "--p", "0.5", "--lambda",
                        "1e300", "--mu", "1e-300", "--policy", "one-turn-point")
    assert rc == EXIT_OK and err == ""
    assert json.loads(out)["quantile"] == pytest.approx(math.sqrt(math.log(2) / 2),
                                                        rel=1e-9)


def test_app_ris_farfield_reports_lower_bound(capsys):
    rc, out, _ = _run(capsys, "app", "ris-farfield", "--lambda", "1", "--mu", "1")
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["threshold_distance"] == pytest.approx(
        2.0 * (1.0 / (64.0 * math.pi**3))**0.25, rel=1e-12)
    assert 0.0 < report["probability_lower_bound"] < 1.0


def test_app_ev_quantile_round_trip(capsys):
    rc, out, _ = _run(capsys, "app", "ev-quantile", "--lambda", "1",
                      "--mu", "1", "--p", "0.5")
    assert rc == EXIT_OK
    q = json.loads(out)["quantile"]
    assert q == pytest.approx(0.28067805291725756, rel=1e-9)

    # push the quantile back through the analytic command
    rc, out, _ = _run(capsys, "analytic", "--which", "thm1", "--lambda", "1",
                      "--mu", "1", "--grid", f"{q}:{q}:1")
    _, data = _rows(out)
    assert data[0, 1] == pytest.approx(0.5, abs=1e-8)

    rc, _, err = _run(capsys, "app", "ev-quantile", "--p", "1.0")
    assert rc == EXIT_CONFIG and "p must" in err


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 2.0  # file layer\nmu = 0.5\ngrid = 0:1:0.5\n")
    out = tmp_path / "c.csv"
    rc, _, _ = _run(capsys, "analytic", "--which", "naive",
                    "--config", str(cfg), "--mu", "1.0", "--out", str(out))
    assert rc == EXIT_OK
    _, data = _rows(out.read_text())
    # flag mu=1.0 beat the file's 0.5; the file's grid and lambda stuck
    assert data.shape == (3, 3)
    assert data[2, 1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    meta = json.loads((tmp_path / "c.json").read_text())
    assert meta["params"] == {"lambda": 2.0, "mu": 1.0}

    bad = tmp_path / "bad.cfg"
    bad.write_text("trials = 5\n")
    rc, _, err = _run(capsys, "analytic", "--which", "thm1", "--config", str(bad))
    assert rc == EXIT_CONFIG and "unknown config key" in err


def test_config_values_go_through_the_flag_checks(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    simulate = ["simulate", "--trials", "50", "--seed", "3", "--grid", "0:1:0.5"]
    analytic = ["analytic", "--grid", "0:1:0.5"]
    for argv, key, value in ((simulate, "policy", "bogus"),
                             (simulate, "scenario", "nowhere"),
                             (simulate, "angle_law", "tilted"),
                             (analytic, "which", "thm9")):
        cfg.write_text(f"{key} = {value}\n")
        rc, out, err = _run(capsys, *argv, "--config", str(cfg))
        assert rc == EXIT_CONFIG and out == ""
        assert f"config key {key!r}: invalid choice {value!r}" in err

    # an alias in the file is the same run as the alias on the command line
    for argv, key, value in ((simulate, "scenario", "typical-intersection"),
                             (analytic, "which", "one-turn-point")):
        cfg.write_text(f"{key} = {value}\n")
        via_file, via_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        rc, _, _ = _run(capsys, *argv, "--config", str(cfg), "--out", str(via_file))
        assert rc == EXIT_OK
        rc, _, _ = _run(capsys, *argv, f"--{key}", value, "--out", str(via_flag))
        assert rc == EXIT_OK
        assert via_file.read_bytes() == via_flag.read_bytes()
        assert (tmp_path / "file.json").read_bytes() == (tmp_path / "flag.json").read_bytes()


def test_config_false_flags_and_blank_lines_run_as_no_flag(tmp_path, capsys):
    """A false spelling of a flag, blank lines and comment-only lines leave
    the run as it is without the file."""
    simulate = ["simulate", "--trials", "50", "--seed", "3", "--grid", "0:1:0.5"]
    plain, via_file = tmp_path / "plain.csv", tmp_path / "file.csv"
    assert _run(capsys, *simulate, "--out", str(plain))[0] == EXIT_OK
    cfg = tmp_path / "run.cfg"
    for text in ("exact_turns = off\n", "\n   \n# a comment = 1\n  # indented\nk = 2\n"):
        cfg.write_text(text)
        rc, _, _ = _run(capsys, *simulate, "--config", str(cfg), "--out", str(via_file))
        assert rc == EXIT_OK
        assert via_file.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("text, message", [
    ("exact_turns = maybe\n", "config key 'exact_turns': expected a boolean, got 'maybe'"),
    ("trials = many\n", "config key 'trials': "),
    ("\nlambda 2\n", "run.cfg:2: expected key = value"),
], ids=["bool", "int", "no-equals"])
def test_a_bad_config_line_exits_2_naming_it(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, out, err = _run(capsys, "simulate", "--trials", "5", "--config", str(cfg))
    assert rc == EXIT_CONFIG and out == ""
    assert message in err and "Traceback" not in err


# every flag of every subcommand, as the CLI has offered them
_FLAGS = {
    "analytic": "--which --lambda --mu --density --grid --tol --out",
    "simulate": "--lambda --mu --scenario --angle-law --policy --k --exact-turns "
                "--trials --t-max --grid --seed --workers --alpha --out",
    "compare": "--ks-threshold --out",
    "ris-nearfield": "--lambda --mu --db --g-t --g-r --g --wavelength --area --m --n "
                     "--d-x --d-y --p-t --n0 --gamma",
    "ev-quantile": "--lambda --mu --p --policy --tol",
}
_FLAGS["ris-farfield"] = _FLAGS["ris-nearfield"]


def _command_argv(command):
    return [command] if command in ("analytic", "simulate", "compare") else ["app", command]


def _subparsers(parser):
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[name] = sub
                found.update(_subparsers(sub))
    return found


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_subcommand_offers_the_table_s_flags(capsys, command):
    sub = _subparsers(cli._build_parser())[command]
    strings = {s for action in sub._actions for s in action.option_strings}
    table = {opt.flag for opt in cli._OPTIONS[command]}
    assert strings - {"-h", "--help", "--config"} == table == set(_FLAGS[command].split())
    with pytest.raises(SystemExit) as exc:
        main([*_command_argv(command), "--help"])
    assert exc.value.code == 0
    shown = capsys.readouterr().out
    assert all(flag in shown for flag in table)


_TABLE = [(command, opt) for command, options in cli._OPTIONS.items() for opt in options]
_SAMPLES = {float: "0.25", int: "3", str: "0:1:0.5"}


@pytest.mark.parametrize("command, opt", _TABLE,
                         ids=[f"{command}-{opt.key}" for command, opt in _TABLE])
def test_each_option_resolves_the_same_from_a_file_and_its_flag(tmp_path, command, opt):
    """A config line, under the option's key or its flag's name, resolves to
    the same options as the flag; a choice or alias to its canonical choice."""
    parser = cli._build_parser()
    argv = _command_argv(command) + (["a.csv", "b.csv"] if command == "compare" else [])
    cfg = tmp_path / "run.cfg"
    values = opt.choices + tuple(opt.aliases) or (_SAMPLES.get(opt.type, "true"),)
    for value in values:
        flag = [opt.flag] if opt.type is cli._parse_bool else [opt.flag, value]
        via_flag = cli._resolve(parser.parse_args(argv + flag))
        assert via_flag.provided == {opt.key}
        if opt.choices:
            assert via_flag.options[opt.key] in opt.choices
        for name in (opt.key, opt.flag[2:]):
            cfg.write_text(f"{name} = {value}\n")
            assert cli._resolve(parser.parse_args(argv + ["--config", str(cfg)])) == via_flag


def test_variant_option_is_gone(tmp_path, capsys):
    for argv in (["analytic", "--which", "thm2", "--variant", "plus/full-angle/x"],
                 ["app", "ev-quantile", "--policy", "one-turn-intersection",
                  "--variant", "plus/full-angle/x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "--variant" in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = plus/full-angle/x\n")
    for command in (["analytic", "--which", "thm2"], ["app", "ev-quantile"]):
        rc, _, err = _run(capsys, *command, "--config", str(cfg))
        assert rc == EXIT_CONFIG and "unknown config key 'variant'" in err


def test_argparse_surface(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "linecox" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["analytic", "--which", "thm9"])


def test_the_parser_is_built_once_and_never_written_to(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    export = ["analytic", "--which", "thm1", "--grid", "0:1:0.25"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    rc, _, _ = _run(capsys, *export, "--out", str(first))
    assert rc == EXIT_OK
    defaults = cli._resolve(cli._build_parser().parse_args(["analytic"]))
    logger = logging.getLogger("linecox")
    handlers, level = list(logger.handlers), logger.level

    added = []
    real_add = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *a, **kw: added.append(a) or real_add(self, *a, **kw))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 3.0\nmu = 0.5\ngrid = 0:2:0.5\nwhich = naive\n")
    rc, _, _ = _run(capsys, "analytic", "--config", str(cfg))
    assert rc == EXIT_OK
    for argv, code in ((["analytic", "--which", "nope"], EXIT_CONFIG), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    rc, _, err = _run(capsys, "-v", "analytic", "--which", "thm2", "--grid", "0:1:0.5")
    assert rc == EXIT_OK and "settled per rung" in err
    rc, _, _ = _run(capsys, *export, "--out", str(second))
    assert rc == EXIT_OK

    assert added == []
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    assert logger.handlers == handlers and logger.level == level
    assert cli._resolve(cli._build_parser().parse_args(["analytic"])) == defaults
    assert defaults.options == {opt.key: opt.default for opt in cli._OPTIONS["analytic"]}


def _write_curve(path, header, rows):
    path.write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows))


def test_compare_rejects_empty_and_ragged_curves(tmp_path, capsys):
    good = tmp_path / "good.csv"
    _write_curve(good, "t,F,err_est", [("0.0", "0.0", "0.0"), ("1.0", "0.5", "0.0")])
    cases = {
        "header-only.csv": "t,F,err_est\n",
        "empty.csv": "",
        "ragged.csv": "t,F,ci_lo,ci_hi\n0.0,0.0,0.0,0.0\n1.0,0.5,0.4\n",
        "words.csv": "t,F,err_est\n0.0,zero,0.0\n",
    }
    for name, text in cases.items():
        bad = tmp_path / name
        bad.write_text(text)
        for argv in (["compare", str(bad), str(good)], ["compare", str(good), str(bad)]):
            rc, _, err = _run(capsys, *argv)
            assert rc == EXIT_CONFIG, name
            assert str(bad) in err and "Traceback" not in err


def test_compare_sidecar_warnings(tmp_path, capsys, caplog):
    a = tmp_path / "a.csv"
    _write_curve(a, "t,F,err_est", [("0.0", "0.0", "0.0"), ("1.0", "0.5", "0.0")])
    with caplog.at_level("WARNING", logger="linecox"):
        rc, _, _ = _run(capsys, "compare", str(a), str(a))
    assert rc == EXIT_OK and not caplog.records  # no sidecar: silent
    for text in ("{not json", "[1, 2]"):
        (tmp_path / "a.json").write_text(text)
        caplog.clear()
        with caplog.at_level("WARNING", logger="linecox"):
            rc, _, _ = _run(capsys, "compare", str(a), str(a))
        assert rc == EXIT_OK
        assert any(str(tmp_path / "a.json") in r.getMessage() for r in caplog.records)


def test_verbose_logs_to_stderr_and_leaves_outputs_alone(tmp_path, capsys):
    runs = (
        (["--policy", "one-turn", "--trials", "700"], "700 trials, "),
        (["--policy", "k-turn", "--k", "2", "--trials", "40"], "40 trials, "),
    )
    for policy, logged in runs:
        base = ["simulate", "--lambda", "1", "--mu", "1", *policy,
                "--grid", "0:2:0.1", "--seed", "33"]
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        rc, _, err = _run(capsys, *base, "--out", str(quiet))
        assert rc == EXIT_OK and err == ""
        rc, _, err = _run(capsys, "-v", *base, "--out", str(loud))
        assert rc == EXIT_OK
        assert logged in err and "trials/s" in err and "lines/trial" in err
        assert quiet.read_bytes() == loud.read_bytes()
        assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()
        rc, _, err = _run(capsys, *base, "--out", str(quiet))
        assert err == ""  # the handler went away with the command


def test_simulate_rejects_dense_streets_with_config_exit(capsys):
    rc, out, err = _run(capsys, "simulate", "--lambda", "1e9", "--mu", "1",
                        "--policy", "k-turn", "--k", "2", "--trials", "1000000")
    assert rc == EXIT_CONFIG and out == ""
    assert "expected lines per trial" in err and "Traceback" not in err


def test_simulate_rejects_dense_points_with_config_exit(capsys):
    rc, out, err = _run(capsys, "simulate", "--lambda", "0", "--mu", "1e13",
                        "--trials", "1", "--policy", "one-turn")
    assert rc == EXIT_CONFIG and out == ""
    assert "expected points per line" in err and "Traceback" not in err


def test_verbose_analytic_logs_the_ladder_and_leaves_outputs_alone(tmp_path, capsys):
    for which, grid in (("thm2", "0:1:0.25"), ("thm3-bound", "0:0.4:0.2")):
        base = ["analytic", "--which", which, "--lambda", "1", "--mu", "1",
                "--grid", grid]
        quiet, loud = tmp_path / f"{which}-quiet.csv", tmp_path / f"{which}-loud.csv"
        rc, _, err = _run(capsys, *base, "--out", str(quiet))
        assert rc == EXIT_OK and err == ""
        rc, _, err = _run(capsys, "-v", *base, "--out", str(loud))
        assert rc == EXIT_OK
        assert "points, settled per rung" in err and "largest increment" in err
        assert quiet.read_bytes() == loud.read_bytes()
        assert (quiet.with_suffix(".json").read_bytes()
                == loud.with_suffix(".json").read_bytes())


def test_verbose_quantile_logs_its_path_and_leaves_stdout_alone(capsys):
    base = ["app", "ev-quantile", "--policy", "one-turn-intersection",
            "--lambda", "1", "--mu", "1", "--p", "0.55"]
    rc, quiet, err = _run(capsys, *base)
    assert rc == EXIT_OK and err == ""
    rc, loud, err = _run(capsys, "-v", *base)
    assert rc == EXIT_OK
    assert loud.encode() == quiet.encode()
    assert "reach quantile (one-turn-intersection) p=0.55: 11 curve calls, " in err


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "abc", "nan", "-inf", " 1 ", "1e999", "0", "0.5", "1"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4),
)
_CURVE_FILES = st.tuples(
    st.sampled_from(["t,F,err_est", "t,F,ci_lo,ci_hi", "t,F", "", "x,y,z"]),
    st.lists(st.lists(_CELLS, min_size=1, max_size=5), max_size=6),
    st.sampled_from([None, "{}", "{broken", "[1]", '{"k": 1}']),
)


@settings(max_examples=150, deadline=None)
@given(a=_CURVE_FILES, b=st.one_of(st.none(), _CURVE_FILES))
@example(a=("t,F,ci_lo,ci_hi", [["0.0", "0.0", "0.0", "0.0"], ["-inf", "0.0", "0.0", "0.0"],
                               ["-inf", "0.0", "0.0", "0.0"]], None), b=None)
@example(a=("t,F,ci_lo,ci_hi", [["0.0", "0.0", "inf", "inf"]], None), b=None)
@example(a=("t,F,ci_lo,ci_hi", [["-1e308", "0.0", "-1e308", "1e308"],
                               ["1e308", "0.5", "0.0", "0.0"]], None), b=None)
def test_compare_fuzzed_curve_files_exit_with_a_documented_code(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, spec in (("a", a), ("b", b if b is not None else a)):
            header, rows, sidecar = spec
            path = Path(tmp) / f"{name}.csv"
            with open(path, "w") as fh:
                fh.write(header + "\n" + "".join(",".join(r) + "\n" for r in rows))
            if sidecar is not None:
                (Path(tmp) / f"{name}.json").write_text(sidecar)
            paths.append(str(path))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(["compare", *paths])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_QUADRATURE, EXIT_RUNTIME)
