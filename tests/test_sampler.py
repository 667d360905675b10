import hashlib
import itertools
import math
import shutil
import sysconfig
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from linecox import (
    AngleLaw,
    InputError,
    ModelParams,
    NonPositiveRadius,
    TooManyLines,
    TooManyPoints,
    TurnPolicy,
    cli,
    run_mc,
    sampler,
    sample_chunk,
    sample_palm,
    shortest_path,
    typical_intersection,
    typical_point,
)
from linecox.model import PalmKind
from linecox.sampler import (
    _SCALAR_COUNTS_MAX,
    MAX_EXPECTED_LINES,
    MAX_EXPECTED_POINTS,
    MAX_TRIAL_POINTS,
    _check_inputs,
    _chunk_sample,
    _uniform,
)
from realizations import crossings_within, intersections, rotate

# point process intensity that keeps realizations almost point-free when a
# test only cares about the line geometry
_CC = (sysconfig.get_config_var("CC") or "").split()
_HAS_CC = bool(_CC) and shutil.which(_CC[0]) is not None
_NO_POINTS = 1e-9


def test_determinism_and_stream_separation():
    p = ModelParams(1.0, 1.0)
    a = sample_palm(p, typical_point(), 2.0, seed=(5, 3))
    b = sample_palm(p, typical_point(), 2.0, seed=(5, 3))
    assert a.lines == b.lines
    assert all(np.array_equal(x, y) for x, y in zip(a.arcs_by_line, b.arcs_by_line))
    c = sample_palm(p, typical_point(), 2.0, seed=(5, 4))
    assert a.lines != c.lines


@pytest.mark.parametrize("master, start", [(10**5000, 0), (-1, 10**5000), (3, 2**64 - 1)],
                         ids=["huge-master", "huge-start", "start-at-the-wrap"])
def test_a_chunk_keeps_the_key_its_draws_use(master, start):
    """A chunk holds its seed and start mod 2**64, the Philox key its draws
    use, so the chunk and its trials print whatever int they were given,
    and each trial's seed draws that trial again in ``sample_palm``."""
    p = ModelParams(1.0, 1.0)
    chunk = sample_chunk(p, typical_point(), 1.0, master, start, start + 2)
    assert (chunk.master, chunk.first_stream) == (master % 2**64, start % 2**64)
    repr(chunk)
    for t in range(2):
        real = chunk.realization(t)
        repr(real)
        assert real.seed == (master % 2**64, (start + t) % 2**64)
        again = sample_palm(p, typical_point(), 1.0, real.seed)
        assert again.seed == real.seed and again.lines == real.lines
        assert all(np.array_equal(x, y)
                   for x, y in zip(again.arcs_by_line, real.arcs_by_line))


def test_crossing_rate_convention():
    # mean crossings of the origin line within distance 3 at lam=1 is 2*1*3,
    # checked to three standard errors over 10^4 realizations
    p = ModelParams(1.0, _NO_POINTS)
    n = 10_000
    total = 0
    for s in range(n):
        real = sample_palm(p, typical_point(), 3.0, seed=(101, s))
        total += len(crossings_within(real, 0, 3.0))
    mean = total / n
    se = math.sqrt(6.0 / n)
    assert abs(mean - 6.0) <= 3.0 * se, f"mean={mean:.4f} expected 6 +- {3*se:.4f}"


def test_crossing_positions_uniform():
    p = ModelParams(1.0, _NO_POINTS)
    arcs = []
    for s in range(1500):
        real = sample_palm(p, typical_point(), 3.0, seed=(202, s))
        arcs.extend(a for _, a, _ in crossings_within(real, 0, 3.0))
    res = stats.kstest(np.asarray(arcs), "uniform", args=(-3.0, 6.0))
    assert res.pvalue > 1e-3, f"crossing arcs not uniform: p={res.pvalue:.2e}"


def test_intersection_angle_laws():
    p = ModelParams(0.0, _NO_POINTS)
    uni, sin_w = [], []
    for s in range(4000):
        uni.append(sample_palm(p, typical_intersection(), 1.0,
                               seed=(303, s)).lines[1].angle)
        sin_w.append(sample_palm(
            p, typical_intersection(AngleLaw.SIN_WEIGHTED), 1.0,
            seed=(404, s)).lines[1].angle)
    res_u = stats.kstest(np.asarray(uni), "uniform", args=(0.0, math.pi))
    assert res_u.pvalue > 1e-3
    res_s = stats.kstest(np.asarray(sin_w), lambda x: (1.0 - np.cos(x)) / 2.0)
    assert res_s.pvalue > 1e-3


def test_realization_geometry_invariants():
    p = ModelParams(1.5, 2.0)
    real = sample_palm(p, typical_intersection(), 2.5, seed=11)
    R = real.clip_radius

    # every point lies inside the clip disk
    for ln, arcs in zip(real.lines, real.arcs_by_line):
        if arcs.size:
            assert np.hypot(ln.signed_offset, np.abs(arcs)).max() <= R + 1e-9

    # every listed intersection is inside the disk and on both lines
    for id_i, id_j, arc_i, arc_j, x, y in intersections(real):
        assert math.hypot(x, y) <= R + 1e-9 * R
        for lid, arc in ((id_i, arc_i), (id_j, arc_j)):
            ln = real.lines[lid]
            ca, sa = math.cos(ln.angle), math.sin(ln.angle)
            px = ln.signed_offset * -sa + arc * ca
            py = ln.signed_offset * ca + arc * sa
            assert math.hypot(px - x, py - y) <= 1e-9 * R

    # both origin lines pass through the origin
    assert [ln.id for ln in real.lines if ln.through_origin] == [0, 1]
    assert all(real.lines[k].signed_offset == 0.0 for k in (0, 1))


def test_sample_palm_validation():
    p = ModelParams(1.0, 1.0)
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveRadius):
            sample_palm(p, typical_point(), bad, seed=1)
    with pytest.raises(InputError, match="scenario"):
        sample_palm(p, "typical-point", 1.0, seed=1)
    # numpy scalars are radii too, and draw what the equal float draws
    for radius in (np.int64(3), np.float32(2.0)):
        got = sample_palm(p, typical_point(), radius, seed=1)
        want = sample_palm(p, typical_point(), float(radius), seed=1)
        assert type(got.clip_radius) is float and got.clip_radius == want.clip_radius
        assert got.lines == want.lines
        assert all(np.array_equal(x, y)
                   for x, y in zip(got.arcs_by_line, want.arcs_by_line))


def test_offsets_lie_within_the_radius_and_leave_a_chord():
    """The premise of the unclamped half chord sqrt(R*R - p*p): an offset
    p = -R + 2*R*U of a raw double U in [0, 1) lies in [-R, R], and then
    p*p rounds to at most R*R. Checked at the ends of U's range and in its
    middle, for radii from the least subnormal to about the largest whose
    square is finite, powers of two among them and others."""
    radii = [5e-324, 1e-320, 2.0**-1060, 3e-200, 2.0**-30, 0.1, 1.0, 3.0,
             2.0**40, 7e77, 2.0**500, 1e154, 1.3407807929942596e154]
    raw = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    for R in radii:
        assert math.isfinite(R * R)
        p = _uniform(raw.copy(), -R, R)
        assert np.all((-R <= p) & (p <= R)), R
        assert np.all(R * R - p * p >= 0.0), R
        assert p[0] == -R
    with pytest.raises(InputError, match="too large"):
        _check_inputs(ModelParams(0.0, 1e-300), typical_point(),
                      math.nextafter(1.3407807929942596e154, math.inf))


def test_rotation_invariance_of_path_lengths():
    p = ModelParams(1.0, 1.0)
    for s in range(20):
        real = sample_palm(p, typical_point(), 2.0, seed=(31, s))
        base = {pol.kind: shortest_path(real, pol, 2.0).length
                for pol in (TurnPolicy.one_turn(), TurnPolicy.k_turn(3))}
        for phi in (0.3, math.pi / 2, 2.1, math.pi):
            rot = rotate(real, phi)
            for pol in (TurnPolicy.one_turn(), TurnPolicy.k_turn(3)):
                got = shortest_path(rot, pol, 2.0).length
                want = base[pol.kind]
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)


def test_sampled_arcs_are_sorted_and_read_only():
    real = sample_palm(ModelParams(16.0, 2.0), typical_intersection(), 2.0,
                       seed=(3, 1))
    assert sum(a.size for a in real.arcs_by_line) > 100
    for arcs in real.arcs_by_line:
        assert not arcs.flags.writeable
        assert np.all(np.diff(arcs) >= 0)


def test_realization_takes_integral_and_negative_indices():
    chunk = sample_chunk(ModelParams(1.0, 1.0), typical_point(), 1.0, 1, 0, 3)
    assert [chunk.realization(t).trial for t in (0, -1, -3, np.int64(1), 2.0)] == [
        0, 2, 0, 1, 2]
    with pytest.raises(InputError, match="3 trials"):
        chunk.realization(-4)


def test_dense_inputs_are_rejected_before_drawing():
    """Above the cap on expected lines per trial every entry point raises
    before it draws; just below the cap the inputs are accepted."""
    R = 3.0
    cap_lam = MAX_EXPECTED_LINES / (math.pi * R)
    assert MAX_EXPECTED_LINES >= 10 * 16.0 * math.pi * 3.0
    dense = ModelParams(cap_lam * 1.001, 1.0)
    with pytest.raises(TooManyLines, match="expected lines per trial"):
        sample_palm(dense, typical_point(), R, seed=1)
    with pytest.raises(TooManyLines):
        sample_chunk(dense, typical_point(), R, 1, 0, 512)
    with pytest.raises(TooManyLines):
        run_mc(ModelParams(1e12, 1.0), typical_point(), TurnPolicy.k_turn(2),
               10, R, 1, workers=2)
    below = ModelParams(cap_lam * (1 - 1e-9), 1.0)
    assert _check_inputs(below, typical_intersection(), R) == R


def test_dense_points_are_rejected_before_drawing():
    """Above the cap on expected points per line every entry point raises
    before it draws; just below the cap the inputs are accepted."""
    R = 3.0
    cap_mu = MAX_EXPECTED_POINTS / (2.0 * R)
    assert MAX_EXPECTED_POINTS >= 100 * 2.0 * 2.0 * R
    for mu in (cap_mu * 1.001, 1e13):
        dense = ModelParams(0.0, mu)
        with pytest.raises(TooManyPoints, match="expected points per line"):
            sample_palm(dense, typical_point(), R, seed=1)
        with pytest.raises(TooManyPoints):
            sample_chunk(dense, typical_intersection(), R, 1, 0, 512)
        for policy in (TurnPolicy.one_turn(), TurnPolicy.k_turn(2)):
            with pytest.raises(TooManyPoints):
                run_mc(dense, typical_point(), policy, 1, R, 1)
    below = ModelParams(1.0, cap_mu * (1 - 1e-9))
    assert _check_inputs(below, typical_intersection(), R) == R


def test_dense_trials_are_rejected_before_drawing(capsys):
    """Each of the two caps above holds, yet a trial of lines times points
    per line above MAX_TRIAL_POINTS raises before it draws, in every entry
    point and as exit 2 in the CLI; just below that cap it is accepted."""
    R = 3.0
    mu = MAX_EXPECTED_POINTS / 2.0 / (2.0 * R)  # half the per-line cap

    def params(scale):
        lines = MAX_TRIAL_POINTS * scale / (2.0 * mu * R)  # one origin line
        assert lines < MAX_EXPECTED_LINES
        return ModelParams((lines - 1.0) / (math.pi * R), mu)

    dense = params(1.001)
    with pytest.raises(TooManyPoints, match="expected points per trial"):
        sample_palm(dense, typical_point(), R, seed=1)
    with pytest.raises(TooManyPoints):
        sample_chunk(dense, typical_point(), R, 1, 0, 1)
    with pytest.raises(TooManyPoints):
        run_mc(dense, typical_point(), TurnPolicy.one_turn(), 1, R, 1)
    argv = ["simulate", "--lambda", repr(dense.lam), "--mu", repr(mu),
            "--trials", "1", "--grid", f"0:{R}:1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "expected points per trial" in capsys.readouterr().err
    assert _check_inputs(params(1 - 1e-9), typical_point(), R) == R


_CHUNK_FIELDS = ("angle", "offset", "through_origin", "line_start", "arcs",
                 "arc_start")


def _chunk_array(chunk, name):
    """The chunk's array ``name``; for "through_origin", which the chunk
    no longer keeps, the flags its layout implies: a line's place in its
    trial is below the scenario's origin line count."""
    if name != "through_origin":
        return getattr(chunk, name)
    place = np.arange(chunk.angle.size) - chunk.line_start[:-1].repeat(
        np.diff(chunk.line_start))
    return place < chunk.n_origin


def _reference_chunk(params, scenario, R, master, start, stop):
    """Trials start..stop-1 drawn the slow way, as a dict of ChunkSample
    fields: a new Philox Generator per trial, one ``rng.uniform`` call per
    field (the second origin angle kept as drawn), and the point counts
    from one scalar ``rng.poisson`` call per line up to _SCALAR_COUNTS_MAX
    lines, from one array call above."""
    fields = {name: [] for name in _CHUNK_FIELDS}
    for stream in range(start, stop):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([master % 2**64, stream % 2**64], dtype=np.uint64)))
        origin = [0.0]
        if scenario.kind is PalmKind.TYPICAL_INTERSECTION:
            if scenario.angle_law is AngleLaw.UNIFORM:
                origin.append(rng.uniform(0.0, math.pi))
            else:
                origin.append(math.acos(1.0 - 2.0 * rng.uniform()))
        n_bg = rng.poisson(params.lam * math.pi * R)
        angles = rng.uniform(0.0, math.pi, size=n_bg)
        offsets = rng.uniform(-R, R, size=n_bg)
        half = np.concatenate((np.full(len(origin), R),
                               np.sqrt(np.maximum(R * R - offsets * offsets, 0.0))))
        rates = 2.0 * params.mu * half
        if half.size <= _SCALAR_COUNTS_MAX:
            counts = np.array([rng.poisson(r) for r in rates], dtype=np.int64)
        else:
            counts = rng.poisson(rates)
        u = rng.uniform(-1.0, 1.0, size=counts.sum())
        n_lines = half.size
        fields["angle"].append(np.concatenate((origin, angles)))
        fields["offset"].append(np.concatenate((np.zeros(len(origin)), offsets)))
        fields["through_origin"].append(np.arange(n_lines) < len(origin))
        fields["line_start"].append([n_lines])
        cuts = np.cumsum(counts)[:-1]
        fields["arcs"].append(np.concatenate(
            [np.sort(a) for a in np.split(u * np.repeat(half, counts), cuts)]))
        fields["arc_start"].append(counts)
    out = {name: np.concatenate(parts) for name, parts in fields.items()}
    out["line_start"] = np.concatenate(([0], np.cumsum(out["line_start"])))
    out["arc_start"] = np.concatenate(([0], np.cumsum(out["arc_start"])))
    return out


def _both_draws(monkeypatch):
    """Runs the loop body once on the draw the package resolves, which must
    be the compiled one where a C compiler is on PATH, and once on the
    Python loop, the loader patched to fall back. Iterate it lazily, one
    pass at a time: the patch lands when the second pass begins."""
    resolved = sampler._compiled_draw()[1]
    assert resolved == "compiled" or not _HAS_CC, resolved
    yield resolved
    monkeypatch.setattr(sampler, "_compiled_draw", lambda: (None, "python (forced)"))
    yield "python"


@pytest.mark.parametrize("lam", [0.5, 2.0, 16.0])
def test_sample_chunk_equals_slow_reference_bit_for_bit(lam, monkeypatch):
    """Every ChunkSample array equals the one-call-per-field reference, on
    both draws. lam 0.5 draws counts by scalar calls, lam 16 by array
    calls, and lam 2 both, with trials of exactly _SCALAR_COUNTS_MAX lines.
    mu 2 at radius 3 gives rates up to 12, so Poisson draws take both numpy
    branches (below and from rate 10). Masters -7 and 2**64 + 3 wrap to
    uint64 keys."""
    params, R = ModelParams(lam, 2.0), 3.0
    scenarios = (typical_point(), typical_intersection(),
                 typical_intersection(AngleLaw.SIN_WEIGHTED))
    passes = []
    for draw in _both_draws(monkeypatch):
        sizes = set()
        for scenario in scenarios:
            for master, start, n in ((-7, 0, 1), (2**64 + 3, 40, 3), (2024, 1000, 150)):
                chunk = sample_chunk(params, scenario, R, master, start, start + n)
                want = _reference_chunk(params, scenario, R, master, start, start + n)
                for name in _CHUNK_FIELDS:
                    got = _chunk_array(chunk, name)
                    assert got.dtype == want[name].dtype, name
                    assert got.tobytes() == want[name].tobytes(), (name, master, n, draw)
                sizes.update(np.diff(chunk.line_start).tolist())
        if lam == 2.0:
            assert {_SCALAR_COUNTS_MAX - 1, _SCALAR_COUNTS_MAX,
                    _SCALAR_COUNTS_MAX + 1} <= sizes, draw
        passes.append(sampler._compiled_draw()[1])
    # the patch was in force in the second pass only
    assert len(passes) == 2 and passes[0] != "python (forced)" == passes[1]


def test_chunk_sample_sorts_each_line_on_exact_integer_keys():
    """``_chunk_sample`` sorts each line's points on one uint64 key a point,
    the line's index mod 2**11 over k, where U = k * 2**-53 is the point's
    raw double and u = -1 + 2U its position. Its premises: raw doubles are
    such k * 2**-53, and u * 2**52 + 2**52 gives k back exactly. Its result
    equals a per-line ``np.sort`` bit for bit on 2,203 lines, two blocks of
    2048, with empty lines, a line of one repeated position, the extreme
    positions, and lines on both sides of the block boundary."""
    raw = np.random.Generator(np.random.Philox(key=[5, 6])).random(100_000)
    k = raw * 2.0**53
    assert np.array_equal(k, np.floor(k)) and k.max() < 2.0**53
    ends = np.array([0, 1, 2**52 - 1, 2**52, 2**53 - 1], dtype=np.uint64)
    u = _uniform(ends * 2.0**-53, -1.0, 1.0)
    assert np.array_equal((u * 2.0**52 + 2.0**52).astype(np.uint64), ends)

    rng = np.random.default_rng(11)
    R, n_bg = 3.0, np.array([1200, 0, 1000])
    origin = np.zeros((n_bg.size, 1))
    angles = _uniform(rng.random(n_bg.sum()), 0.0, math.pi)
    offsets = _uniform(rng.random(n_bg.sum()), -R, R)
    n_lines = n_bg.size + n_bg.sum()
    counts = rng.integers(0, 4, n_lines)
    counts[[3, 2047, 2048, 2049]] = [9, 5, 0, 6]
    positions = rng.integers(0, 2**53, counts.sum(), dtype=np.uint64)
    arc_start = np.concatenate(([0], np.cumsum(counts)))
    positions[arc_start[3]:arc_start[4]] = 2**52 + 12345  # one position, repeated
    positions[arc_start[7]:arc_start[7] + 2] = [0, 2**53 - 1]
    u = _uniform(positions * 2.0**-53, -1.0, 1.0)
    chunk = _chunk_sample(origin, n_bg, angles, offsets, counts, u.copy(),
                          typical_point(), R, 0, 0)
    assert chunk.angle.size == n_lines > 2048 and np.any(counts == 0)
    half = np.where(_chunk_array(chunk, "through_origin"), R,
                    np.sqrt(R * R - chunk.offset**2))
    want = np.concatenate([np.sort(a) for a in np.split(
        u * np.repeat(half, counts), arc_start[1:-1])])
    assert chunk.arcs.tobytes() == want.tobytes()
    assert chunk.arc_start.tobytes() == arc_start.tobytes()


# md5 of every ChunkSample array of sample_chunk(ModelParams(16, 2),
# typical_intersection(), 3.0, 2024, 0, 6), recorded while the chunk still
# kept three more arrays (each line's chord half length and trial, and each
# point's line) and a flag per line for the origin lines, which the hash
# now takes from the layout (``_chunk_array``)
DENSE_CHUNK_MD5 = "eabeffefc952e2b45f0ae44f1fff414c"


def _chunk_md5(chunk) -> str:
    h = hashlib.md5()
    for name in _CHUNK_FIELDS:
        h.update(np.ascontiguousarray(_chunk_array(chunk, name)).tobytes())
    return h.hexdigest()


def test_dense_chunk_matches_frozen_digest(monkeypatch):
    for draw in _both_draws(monkeypatch):
        assert sampler._compiled_draw()[1].startswith(draw)
        chunk = sample_chunk(ModelParams(16.0, 2.0), typical_intersection(), 3.0,
                             2024, 0, 6)
        assert chunk.angle.size > 6 * 100
        assert _chunk_md5(chunk) == DENSE_CHUNK_MD5


# every (scenario, master, start, trials) of this matrix draws at two of
# these (lam, mu), in turn, so that Poisson draws take both of numpy's
# branches (below and from rate 10) and line counts from 0 to about 200
_MATRIX_MODELS = [(0.0, 1.0), (0.5, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 2.0),
                  (1.3, 1.9), (4.0, 1.0), (16.0, 1.0)]


def _python_chunk(monkeypatch, *args):
    """``sample_chunk(*args)`` drawn by the Python loop."""
    with monkeypatch.context() as patch:
        patch.setattr(sampler, "_compiled_draw", lambda: (None, "python (forced)"))
        return sample_chunk(*args)


def test_compiled_and_python_draws_agree_on_108_chunks(monkeypatch):
    """The draw the package resolves and the Python loop give the same
    bits on 108 chunks: three scenarios, masters that wrap to uint64 keys,
    starts whose chunk wraps past 2**64, 1- and 150-trial chunks."""
    scenarios = (typical_point(), typical_intersection(),
                 typical_intersection(AngleLaw.SIN_WEIGHTED))
    cells = itertools.product(scenarios, (7, -5, 2**64 + 3), (0, 11, 2**64 - 2), (1, 150))
    models = itertools.cycle(_MATRIX_MODELS)
    checked = 0
    for (scenario, master, start, n), _ in itertools.product(cells, range(2)):
        args = (ModelParams(*next(models)), scenario, 3.0, master, start, start + n)
        chunk = sample_chunk(*args)
        want = _python_chunk(monkeypatch, *args)
        for name in _CHUNK_FIELDS:
            got = _chunk_array(chunk, name)
            assert got.tobytes() == _chunk_array(want, name).tobytes(), (name, args)
        checked += 1
    assert checked == 108


@pytest.mark.parametrize("cap", ["lines", "trial points"])
def test_both_draws_agree_at_the_sampler_caps(monkeypatch, cap):
    """A one-trial chunk just below MAX_EXPECTED_LINES lines, and one just
    below MAX_TRIAL_POINTS points, draw the same bits on both draws."""
    R = 3.0
    if cap == "lines":
        params = ModelParams(MAX_EXPECTED_LINES * (1 - 1e-9) / (math.pi * R), 0.1)
    else:
        mu = MAX_EXPECTED_POINTS / 4.0 / (2.0 * R)
        lines = MAX_TRIAL_POINTS * (1 - 1e-9) / (2.0 * mu * R)
        params = ModelParams((lines - 2.0) / (math.pi * R), mu)
    args = (params, typical_intersection(), R, 3, 0, 1)
    chunk = sample_chunk(*args)
    assert chunk.angle.size > (1800 if cap == "lines" else 300)
    assert _chunk_md5(chunk) == _chunk_md5(_python_chunk(monkeypatch, *args))


def test_chunk_keeps_and_draws_in_bounded_memory():
    """One 512-trial chunk at lam 16 (point scenario, mu 1, radius 3: 77k
    lines, 366k points) keeps 24 bytes per line and 8 per point, 4.6 MiB as
    tracemalloc counts it; the bound is 6 MiB. It kept 4.7 MiB with a flag
    per line for the origin lines, and 8.7 MiB with each line's chord half
    length and trial and each point's line as well. Drawing it
    peaks at 14.6 MiB, sorting on one integer key a point; the bound is 23
    MiB. It peaked at 18.2 MiB with argsorts of the arcs and the line keys,
    and at 25.8 MiB while the per-trial draws outlived their mapping."""
    params = ModelParams(16.0, 1.0)
    sample_chunk(params, typical_point(), 3.0, 7, 0, 2)  # warm caches untraced
    tracemalloc.start()
    try:
        chunk = sample_chunk(params, typical_point(), 3.0, 7, 0, 512)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (chunk.angle.size, chunk.arcs.size) == (77416, 365683)
    assert retained < 6 * 2**20, retained / 2**20
    assert peak < 23 * 2**20, peak / 2**20
