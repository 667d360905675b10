"""The batched Monte Carlo kernel: chunk sampler plus the length-only turn
layer kernel, checked bit for bit against the per-trial sampler and oracle."""

import hashlib
import json
import logging
import tracemalloc

import numpy as np
import pytest

from linecox import (
    AngleLaw,
    DistributionCurve,
    ModelParams,
    NonFinite,
    PolicyBudgetNegative,
    PolicyKind,
    TBeyondClip,
    TurnPolicy,
    chunk_lengths,
    run_mc,
    sample_chunk,
    sample_palm,
    shortest_path,
    typical_intersection,
    typical_point,
)
from linecox import oracle, sampler
from linecox.experiments import default_grid, dkw_halfwidth
from linecox.oracle import _key_slots, _nearest, _nearest_dist, _point_keys, _runs
from realizations import (crossings_within, hand_chunk, intersections,
                          realization_to_json, sample_D)

T_MAX = 3.0
SCENARIOS = {
    "point": typical_point(),
    "intersection": typical_intersection(),
    "intersection-sin": typical_intersection(AngleLaw.SIN_WEIGHTED),
}
POLICIES = {
    "zero-turn": TurnPolicy.zero_turn(),
    "one-turn": TurnPolicy.one_turn(),
    "one-turn-exact": TurnPolicy.one_turn(include_lower_turn_paths=False),
    "one-turn-directed": TurnPolicy(PolicyKind.ONE_TURN, k=1,
                                    first_hop_positive_x=True),
    "two-turn-directed": TurnPolicy.two_turn_directed(),
    "two-turn-directed-exact": TurnPolicy.two_turn_directed(False),
    **{f"k-turn({k}, lower={lower}, directed={directed})":
       TurnPolicy.k_turn(k, lower, directed)
       for k in range(4) for lower in (True, False) for directed in (False, True)},
}


def _curve_md5(curve) -> str:
    h = hashlib.md5()
    for arr in (curve.grid, curve.values, curve.ci_halfwidth):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mu", [0.05, 2.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 16.0])
def test_chunk_lengths_equal_shortest_path_bit_for_bit(lam, mu):
    """Every trial, every policy, point and both intersection laws;
    mu = 0.05 leaves most lines without points and censors trials, lam = 0
    leaves no background lines, and lam = 16 (about 150 lines a trial, so
    fewer trials) crowds many crossings within each path's reach."""
    params, n = ModelParams(lam, mu), 96 if lam <= 2.0 else 8
    censored = 0
    for scenario in SCENARIOS.values():
        chunk = sample_chunk(params, scenario, T_MAX, 41, 5, 5 + n)
        reals = [sample_palm(params, scenario, T_MAX, (41, 5 + t)) for t in range(n)]
        for t, real in enumerate(reals):
            assert realization_to_json(chunk.realization(t)) == realization_to_json(real)
        for name, policy in POLICIES.items():
            batched = chunk_lengths(chunk, policy, T_MAX)
            per_trial = np.array([shortest_path(r, policy, T_MAX).length for r in reals])
            assert batched.tobytes() == per_trial.tobytes(), (name, scenario)
            censored += int(np.isinf(batched).sum())
        if lam == 0.0:
            assert np.all(np.diff(chunk.line_start) == chunk.n_origin)
    if mu == 0.05:
        assert censored > 0


def test_run_mc_curve_equals_per_trial_sample_D():
    """1,100 trials: two chunks at the point, three at the intersection
    (560 and 494 trials a chunk), at one and two workers, against a curve
    built from per-trial sample_D calls: the sorted finite lengths counted
    at each grid point, over all trials."""
    params, grid = ModelParams(1.2, 0.9), default_grid(T_MAX)
    for scenario in (typical_point(), typical_intersection()):
        for policy in (TurnPolicy.zero_turn(), TurnPolicy.one_turn(),
                       TurnPolicy.two_turn_directed()):
            lengths = np.array([sample_D(params, scenario, policy, T_MAX, (8, i))
                                for i in range(1100)])
            finite = np.sort(lengths[np.isfinite(lengths)])
            ref = DistributionCurve(grid, np.searchsorted(finite, grid, "right") / 1100,
                                    np.full_like(grid, dkw_halfwidth(1100)))
            for workers in (1, 2):
                curve = run_mc(params, scenario, policy, 1100, T_MAX, 8,
                               workers=workers)
                assert _curve_md5(curve) == _curve_md5(ref), (policy, workers)


# md5 of run_mc(ModelParams(1.5, 0.8), scenario, policy, 600, 2.5, 2024),
# recorded with the per-trial implementation that preceded the batched one
FROZEN_MD5 = {
    ("point", "zero-turn"): "1c5065c67378b3d0095fabb3fb9359ed",
    ("point", "one-turn"): "b94d278fb81b3af3f2868a6b46d6db20",
    ("point", "two-turn-directed"): "9f4c5b693cf65309eae9dab7e5da6ca4",
    ("intersection", "zero-turn"): "0bf47f0deccd64cc03c3d88bcdbb2419",
    ("intersection", "one-turn"): "8d3e9c81abf532024096ca9b4967417e",
    ("intersection", "two-turn-directed"): "41d9fe2a55e9e1d29045bab8763601cf",
    ("intersection-sin", "zero-turn"): "0bf47f0deccd64cc03c3d88bcdbb2419",
    ("intersection-sin", "one-turn"): "e8aaace07a524d4bd7f8f6b50bada950",
    ("intersection-sin", "two-turn-directed"): "5d4f369d09452a0bc49e24419b8264ed",
}
# md5 of the JSON of sample_palm(ModelParams(1.5, 0.8), scenario, 2.5,
# (2024, i)) for the three scenarios in turn and i < 200, same origin
FROZEN_REALIZATIONS_MD5 = "e86e7462ac782de314f0f0a6c694e654"


def test_curves_and_draws_match_frozen_digests():
    params = ModelParams(1.5, 0.8)
    for (scen, pol), digest in FROZEN_MD5.items():
        curve = run_mc(params, SCENARIOS[scen], POLICIES[pol], 600, 2.5, 2024)
        assert _curve_md5(curve) == digest, (scen, pol)
    h = hashlib.md5()
    for scenario in SCENARIOS.values():
        for i in range(200):
            real = sample_palm(params, scenario, 2.5, (2024, i))
            h.update(json.dumps(realization_to_json(real)).encode())
    assert h.hexdigest() == FROZEN_REALIZATIONS_MD5


@pytest.mark.parametrize("scenario", [typical_point(), typical_intersection()],
                         ids=["point", "intersection"])
@pytest.mark.parametrize("lam", [1.0, 4.0, 16.0])
def test_near_parallel_lines_lose_only_their_own_crossing(monkeypatch, lam,
                                                          scenario):
    """Sampled angles are kept as drawn, so a trial may hold lines within
    1e-12 of parallel. Each trial here gets three more background lines
    with points: two 1e-13 apart at one offset and one at pi - 1e-13 and
    offset 1e-13, near-parallel to the x-axis across 0 = pi. Both pairs
    would cross inside the disk. The batched kernel and the per-trial
    oracle still agree bit for bit, and neither pair has a crossing."""
    layout = sampler._chunk_sample

    def crowded(origin, n_bg, angles, offsets, counts, u, *rest):
        first_stream = rest[-1]
        extra = []
        for t in range(n_bg.size):
            rng = np.random.default_rng(first_stream + t)
            theta = rng.uniform(0.0, np.pi - 1.0)
            p = rng.uniform(-1.0, 1.0)
            extra.append(([theta, theta + 1e-13, np.pi - 1e-13], [p, p, 1e-13],
                          rng.uniform(-1.0, 1.0, size=9)))
        more_angles, more_offsets, more_u = (np.ravel(x) for x in zip(*extra))
        # after each trial's last background line, its last point
        line_end = np.cumsum(origin.shape[1] + n_bg)
        at_line = np.repeat(np.cumsum(n_bg), 3)
        at_point = np.repeat(np.cumsum(counts)[line_end - 1], 9)
        return layout(origin, n_bg + 3, np.insert(angles, at_line, more_angles),
                      np.insert(offsets, at_line, more_offsets),
                      np.insert(counts, np.repeat(line_end, 3), 3),
                      np.insert(u, at_point, more_u), *rest)

    monkeypatch.setattr(sampler, "_chunk_sample", crowded)
    n = 8 if lam == 16.0 else 24
    chunk = sample_chunk(ModelParams(lam, 1.5), scenario, T_MAX, 17, 0, n)
    reals = [chunk.realization(t) for t in range(n)]
    for name in ("zero-turn", "one-turn", "one-turn-exact", "one-turn-directed",
                 "two-turn-directed", "two-turn-directed-exact",
                 "k-turn(3, lower=False, directed=False)"):
        policy = POLICIES[name]
        per_trial = np.array([shortest_path(r, policy, T_MAX).length for r in reals])
        assert chunk_lengths(chunk, policy, T_MAX).tobytes() == per_trial.tobytes(), name
    for real in reals:
        m = len(real.lines)
        a, b, c = m - 3, m - 2, m - 1
        pairs = {(i, j) for i, j, *_ in intersections(real)}
        assert (a, b) not in pairs and (0, c) not in pairs
        assert b not in [rec[0] for rec in crossings_within(real, a, T_MAX)]
        assert a not in [rec[0] for rec in crossings_within(real, b, T_MAX)]
        assert c not in [rec[0] for rec in crossings_within(real, 0, T_MAX)]
        assert 0 not in [rec[0] for rec in crossings_within(real, c, T_MAX)]


_HAND_REFS = [-1e300, -3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.5,
              2.0, 3.0, 4.0, 1e300]


def test_key_search_equals_a_searchsorted_within_each_line():
    """One search of line + 1j*ref over the chunk's complex point keys
    finds, for every query, ``lo + np.searchsorted(arcs[lo:hi], ref)``
    within the query's line: on the hand-built lines with refs equal to
    arcs, 0.0 against -0.0 both ways and refs beyond every arc, and on
    sampled chunks of several trials with refs drawn at and between arcs."""
    rng = np.random.default_rng(5)
    chunks = [hand_chunk()] + [
        sample_chunk(ModelParams(lam, mu), typical_point(), T_MAX, 9, 0, 6)
        for lam, mu in ((0.5, 0.3), (4.0, 1.0))]
    for chunk in chunks:
        starts, arcs = chunk.arc_start, chunk.arcs
        n_lines = starts.size - 1
        lines = np.repeat(np.arange(n_lines), len(_HAND_REFS))
        refs = np.tile(_HAND_REFS, n_lines)
        if arcs.size:
            picks = rng.integers(0, arcs.size, 200)
            lines = np.concatenate((lines, np.searchsorted(starts, picks, "right") - 1,
                                    rng.integers(0, n_lines, 200)))
            refs = np.concatenate((refs, arcs[picks], rng.uniform(-T_MAX, T_MAX, 200)))
        got = _key_slots(_point_keys(chunk), lines, refs)
        want = [starts[m] + np.searchsorted(arcs[starts[m]:starts[m + 1]], r)
                for m, r in zip(lines, refs)]
        assert got.tolist() == want


def test_nearest_dist_equals_the_per_line_nearest():
    """``_nearest_dist`` gives every query the distance ``_nearest`` finds
    over its line's arcs, bit for bit, and inf on a line without points;
    with ``nonneg_only`` (the directed start, ref 0) it gives ``_nearest``
    over the arcs from ``searchsorted(arcs, 0.0)`` on, as ``_k_turn`` does."""
    chunks = [hand_chunk(), sample_chunk(ModelParams(2.0, 0.5), typical_point(),
                                          T_MAX, 4, 0, 5)]
    for chunk in chunks:
        keys, starts = _point_keys(chunk), chunk.arc_start
        per_line = [chunk.arcs[a:b] for a, b in zip(starts[:-1], starts[1:])]
        lines = np.repeat(np.arange(len(per_line)), len(_HAND_REFS))
        refs = np.tile(_HAND_REFS, len(per_line))
        got = _nearest_dist(chunk, keys, lines, refs)
        want = [_nearest(per_line[m], r)[0] if per_line[m].size else np.inf
                for m, r in zip(lines, refs)]
        assert got.tobytes() == np.array(want).tobytes()
        lines = np.arange(len(per_line))
        got = _nearest_dist(chunk, keys, lines, np.zeros(lines.size), nonneg_only=True)
        kept = [a[np.searchsorted(a, 0.0, side="left"):] for a in per_line]
        want = [_nearest(a, 0.0)[0] if a.size else np.inf for a in kept]
        assert got.tobytes() == np.array(want).tobytes()


def test_runs_cut_at_most_cap_or_one_size():
    """Each run starts where the last one ended and holds at most ``cap``,
    or a single size that alone exceeds it; no longer run would fit."""
    rng = np.random.default_rng(8)
    for sizes in [rng.integers(0, 40, size=n) for n in (0, 1, 7, 300)] + [
            np.array([0, 25, 3, 0, 0, 17, 9]), np.array([5, 5, 5, 5])]:
        runs = list(_runs(sizes, 20))
        cuts = [0] + [b for _, b in runs]
        assert [a for a, _ in runs] == cuts[:-1] and cuts[-1] == sizes.size
        for a, b in runs:
            assert sizes[a:b].sum() <= 20 or b == a + 1
            assert b == sizes.size or sizes[a:b + 1].sum() > 20


def test_chunk_lengths_rejects_negative_budget_and_bad_horizon():
    chunk = sample_chunk(ModelParams(1.0, 1.0), typical_point(), 2.0, 1, 0, 4)
    with pytest.raises(PolicyBudgetNegative):
        chunk_lengths(chunk, TurnPolicy.k_turn(-1), 2.0)
    with pytest.raises(ValueError):
        chunk_lengths(chunk, TurnPolicy.one_turn(), -1.0)
    with pytest.raises(TBeyondClip):
        chunk_lengths(chunk, TurnPolicy.one_turn(), 2.5)
    with pytest.raises(NonFinite):
        chunk_lengths(chunk, TurnPolicy.one_turn(), float("nan"))


def test_run_mc_logs_one_line_outside_the_curve(caplog):
    params, scenario = ModelParams(1.0, 1.0), typical_point()
    with caplog.at_level(logging.INFO, logger="linecox"):
        quiet = run_mc(params, scenario, TurnPolicy.one_turn(), 300, 2.0, 4)
        slow = run_mc(params, scenario, TurnPolicy.k_turn(1), 20, 2.0, 4)
    lines = [r.getMessage() for r in caplog.records if r.name == "linecox.experiments"]
    assert len(lines) == 2
    assert "300 trials, " in lines[0]
    assert "20 trials, " in lines[1]
    for line in lines:
        assert "trials/s" in line and "censored fraction" in line
        assert "lines/trial" in line and "path" not in line
    caplog.clear()
    again = run_mc(params, scenario, TurnPolicy.one_turn(), 300, 2.0, 4)
    assert _curve_md5(again) == _curve_md5(quiet) and again.meta == quiet.meta
    assert set(quiet.meta) == set(slow.meta) == {
        "alpha", "censored", "estimator", "params", "policy", "scenario",
        "seed", "t_max", "trials"}


def test_run_mc_never_builds_a_realization(monkeypatch):
    """Every policy runs through sample_chunk and chunk_lengths alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("run_mc built a Realization")

    monkeypatch.setattr(sampler, "Realization", refuse)
    with pytest.raises(AssertionError):
        sample_palm(ModelParams(1.0, 1.0), typical_point(), T_MAX, 1)
    for scenario in (typical_point(), typical_intersection()):
        for policy in POLICIES.values():
            run_mc(ModelParams(2.0, 1.0), scenario, policy, 40, T_MAX, 6)


# The kernel holds one label per (trial, line, came-from line) in a layer,
# sorted out of the hops the layer keeps, and searches the trials of the
# chunk it is given in one pass, so its memory grows with the chunk but not
# with how many paths a layer reaches: its layers peak near 1.2 MiB on
# these 64 trials, where run_mc's chunks at lam 16 hold five, and with the
# complex point keys of its offers (16 bytes a point, about 46,000 points)
# the call peaks near 2.4 MiB. Holding every path of
# whole layers instead, from a first reach of t_max / 4, peaked at 120 MB
# (point) and 264 MB (intersection) on 512 trials. The bound leaves room
# for numpy's own buffers.
DENSE_PEAK_BYTES = 16 * 2**20


@pytest.mark.parametrize("scenario", [typical_point(), typical_intersection()],
                         ids=["point", "intersection"])
def test_exact_three_turns_at_lam_16_are_exact_and_bounded(scenario):
    params, n = ModelParams(16.0, 1.0), 64
    policy = TurnPolicy.k_turn(3, include_lower_turn_paths=False)
    chunk = sample_chunk(params, scenario, T_MAX, 12, 0, n)
    tracemalloc.start()
    try:
        batched = chunk_lengths(chunk, policy, T_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_trial = np.array([shortest_path(chunk.realization(t), policy,
                                        T_MAX).length for t in range(n)])
    assert batched.tobytes() == per_trial.tobytes()
    assert peak < DENSE_PEAK_BYTES, peak


# A dense table of one slot per (line, came-from line) pair took 16 bytes
# x lines² for each trial: about 37 MiB at lam 160 (some 1500 lines a
# trial). The labels sorted out of the hops a layer keeps peak near 1.4 MiB,
# and the call near 2.2 MiB with the complex point keys of its offers.
DENSE_STREET_PEAK_BYTES = 8 * 2**20


def test_exact_three_turns_at_lam_160_stay_small():
    params, n = ModelParams(160.0, 1.0), 3
    policy = TurnPolicy.k_turn(3, include_lower_turn_paths=False)
    chunk = sample_chunk(params, typical_point(), T_MAX, 16, 0, n)
    tracemalloc.start()
    try:
        batched = chunk_lengths(chunk, policy, T_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_trial = np.array([shortest_path(chunk.realization(t), policy,
                                        T_MAX).length for t in range(n)])
    assert np.diff(chunk.line_start).min() > 1300
    assert batched.tobytes() == per_trial.tobytes()
    assert peak < DENSE_STREET_PEAK_BYTES, peak


@pytest.mark.parametrize("scenario", [typical_point(), typical_intersection()],
                         ids=["point", "intersection"])
def test_high_budgets_on_sparse_points_keep_one_label_per_state(scenario, monkeypatch):
    """At k 4-6 with few points, most hops find no target and some trials
    stay censored, so the number of paths grows as (crossings)^k. Each
    layer must hold one label per (trial, line, came-from line), and the
    lengths must still equal the per-trial search bit for bit."""
    layers = []
    labels = oracle._labels

    def spy(*args):
        rows = labels(*args)
        layers.append(rows)
        return rows

    monkeypatch.setattr(oracle, "_labels", spy)
    chunk = sample_chunk(ModelParams(4.0, 0.005), scenario, T_MAX, 5, 0, 6)
    reals = [chunk.realization(t) for t in range(chunk.n_trials)]
    censored = 0
    for k in (4, 6):
        for lower in (True, False):
            policy = TurnPolicy.k_turn(k, lower)
            batched = chunk_lengths(chunk, policy, T_MAX)
            per_trial = np.array([shortest_path(r, policy, T_MAX).length
                                  for r in reals])
            assert batched.tobytes() == per_trial.tobytes(), (k, lower)
            censored += int(np.isinf(batched).sum())
    assert censored > 0
    assert sum(rows[0].size for rows in layers) > 1000
    for t, m, prev, _, _ in layers:
        states = np.stack((t, m, prev))
        assert np.unique(states, axis=1).shape[1] == t.size


@pytest.mark.parametrize("lam", [1.0, 16.0])
def test_the_kernel_stops_at_its_first_empty_layer(monkeypatch, lam):
    """With lower-turn paths, k = 10**4 ends when a layer holds no label
    (about 75 us a layer otherwise), and still equals the per-trial search
    bit for bit. The spy records the labels each layer hands ``_turn``:
    the first layer holds the chunk's 8 origin lines, one a trial, and no
    call gets an empty layer."""
    calls = []

    def counted(bound, chunk, trig, rows, *rest):
        calls.append(rows[0].size)
        return turn(bound, chunk, trig, rows, *rest)

    turn = oracle._turn
    monkeypatch.setattr(oracle, "_turn", counted)
    policy, t_max = TurnPolicy.k_turn(10**4), 2.0
    chunk = sample_chunk(ModelParams(lam, 1.0), typical_point(), t_max, 11, 0, 8)
    got = chunk_lengths(chunk, policy, t_max)
    assert calls[0] == 8
    assert 0 < len(calls) < 40 and calls[-1] > 0
    want = [shortest_path(chunk.realization(i), policy, t_max).length for i in range(8)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t_max", [5e-324, 3.5e-323, 4e-323, 1e-300])
def test_an_exact_search_ends_at_the_smallest_t_max(monkeypatch, t_max):
    """From k = 2 on, an exactly-k search first reaches _FIRST_REACH *
    t_max, which rounds to 0 for the eight smallest positive t_max, and
    doubling 0 never reaches t_max. The passes must still end, and equal
    the per-trial search; the spy fails the test after 64 passes instead
    of letting it hang."""
    passes = []

    def counted(*args):
        passes.append(1)
        assert len(passes) <= 64, "the reach never grows to t_max"
        return search(*args)

    search = oracle._search
    monkeypatch.setattr(oracle, "_search", counted)
    chunk = sample_chunk(ModelParams(1.0, 1.0), typical_intersection(), 1.0, 3, 0, 4)
    for policy in (TurnPolicy.k_turn(2, False), TurnPolicy.two_turn_directed(False),
                   TurnPolicy.k_turn(3, False, True)):
        passes.clear()
        got = chunk_lengths(chunk, policy, t_max)
        want = [shortest_path(chunk.realization(i), policy, t_max).length
                for i in range(chunk.n_trials)]
        assert np.array_equal(got, want)
