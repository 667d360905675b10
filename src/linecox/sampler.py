"""Exact sampler for the line process seen from a typical point or a
typical intersection, clipped to a disk.

Conventions (shared with the oracle):

* A line with ``angle`` a in [0, pi) and ``signed_offset`` p is the set
  {p*n + s*d : s in R} with d = (cos a, sin a), n = (-sin a, cos a); s is
  the arc coordinate.
* Background lines hit the disk of radius R with angle ~ U[0, pi), offset
  ~ U[-R, R], count ~ Poisson(lam * pi * R). That normalization makes the
  crossings along any fixed line a 1-D Poisson process of rate lam: a
  chord of half length t around a point on a line is crossed by
  Poisson(2*lam*t) others (P(cross) = (t/R) * E[sin angle] = 2t/(pi R),
  times the mean count lam*pi*R). Angles are i.i.d. as drawn: two lines
  within 1e-12 of parallel are kept, and ``_pair_arcs`` gives their
  crossing as nan, which every consumer skips.
* Conditioning is by explicit construction: TYPICAL_POINT adds the x-axis
  through the origin, TYPICAL_INTERSECTION adds the x-axis plus a second
  origin line at a random angle, kept as drawn like a background angle:
  the two origin lines cross at the start point, where a path may start
  on either line and so does not turn there from one onto the other at
  its start, and a nan crossing there loses no shortest path. Every line,
  added or background, carries an independent Poisson(mu per unit length)
  point process on its chord; the origin itself is not a point of the
  process.

Randomness is a counter-based Philox stream keyed (master seed, stream), so
trial i of a run is reproducible in isolation and independent of how trials
are batched across workers. ``sample_chunk`` draws consecutive trials into
one flat layout, the package's one layout of a realization: 24 bytes per
line and 8 per point (about 10 KiB a trial at lam 16, mu 1, radius 3).
A trial's origin lines come first, as many as its scenario has
(``_n_origin``), so the layout keeps no per-line origin flag.
A Realization is a view of one trial of a chunk, and ``sample_palm`` is
the one trial of a ``sample_chunk`` call. One loop draws a chunk's trials,
each its uniforms raw, as ``Generator.random`` doubles U, and the chunk
maps them once to ``low + (high - low) * U``: the value
``Generator.uniform(low, high)`` gives for the same draw, by the same IEEE
operations. A raw U is k * 2**-53 for an integer k, so the chunk sorts each
line's points on exact integer keys, one uint64 a point (the line over k),
in place, and only then scales them to arcs; drawing a chunk peaks near 24
bytes per point.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy loads its random submodule lazily; import it here so that the cost
# falls on `import linecox` and not on a run's first draw
from numpy.random import Generator, Philox

from .errors import InputError, NonPositiveRadius, TooManyLines, TooManyPoints, _shown
from .model import (
    AngleLaw,
    Line,
    ModelParams,
    PalmKind,
    PalmScenario,
    _check_int,
    _check_record,
    _finite_real,
)

__all__ = [
    "Realization",
    "ChunkSample",
    "sample_palm",
    "sample_chunk",
]

_PI = math.pi
_MIN_ANGLE_GAP = 1e-12
# Largest accepted expected line count per trial, lam * pi * clip_radius.
# Drawing a chunk at mu * clip_radius = 3 peaks near 210 bytes per line,
# its points included (measured at lam 60), and the finished chunk keeps
# about 62 bytes per line. At the cap run_mc draws one trial a chunk, which
# peaks near 0.45 MiB.
MAX_EXPECTED_LINES = 2000.0
# Largest accepted expected point count per line, 2 * mu * clip_radius.
# Drawing a chunk peaks near 24 bytes per point and the chunk keeps 8. At
# lam = 0 and the cap run_mc draws the intersection scenario (two
# full-length streets) 13 trials a chunk, which peaks near 3.0 MiB.
MAX_EXPECTED_POINTS = 5000.0
# Largest accepted expected point count per trial, lines times points per
# line, (n_origin + lam * pi * clip_radius) * 2 * mu * clip_radius. The two
# caps above allow some 10 million; at 24 bytes a point the draw of one
# trial at this cap peaks near 24 MiB.
MAX_TRIAL_POINTS = 1e6
# A trial's fixed cost, in expected lines and points: drawing its counts,
# origin angles and per-trial arrays holds about 300 bytes whatever the
# intensities, some 12 points' worth at 24 bytes a point; 16 keeps the
# chunk sizes set when it held 700 bytes at 42 bytes a point.
_TRIAL_FIXED_COST = 16.0


def _norm_seed(seed) -> tuple[int, int]:
    if isinstance(seed, (tuple, list)) and len(seed) == 2:
        return _check_int(seed[0], "seed"), _check_int(seed[1], "seed")
    return _check_int(seed, "seed"), 0


@dataclass(frozen=True)
class Realization:
    """Trial ``trial`` of ``chunk``: one sampled street system plus its
    points, as a view. Every field is read off the chunk, ``lines`` and
    ``arcs_by_line`` on first read. Line k of the trial has id k, and
    ``arcs_by_line[k]`` holds the sorted, read-only arc coordinates of its
    points, a view of the chunk's ``arcs``. Building one checks that
    ``trial`` is an integer (``_check_int``) that indexes a trial of the
    chunk, InputError if not."""

    chunk: ChunkSample
    trial: int

    def __post_init__(self):
        _check_record(self.chunk, ChunkSample, "chunk")
        trial, n = _check_int(self.trial, "trial"), self.chunk.n_trials
        if not 0 <= trial < n:
            raise InputError(f"trial index {_shown(trial)} is out of range for a chunk "
                             f"of {n} trials")
        object.__setattr__(self, "trial", trial)

    @property
    def _span(self) -> tuple[int, int]:
        """The trial's lines, as the slice lo:hi of the chunk's line arrays."""
        line_start = self.chunk.line_start
        return int(line_start[self.trial]), int(line_start[self.trial + 1])

    @cached_property
    def lines(self) -> tuple[Line, ...]:
        lo, hi = self._span
        c, n0 = self.chunk, self.chunk.n_origin
        ids = range(hi - lo)
        return tuple(map(Line, ids, c.angle[lo:hi].tolist(), c.offset[lo:hi].tolist(),
                         [k < n0 for k in ids]))

    @cached_property
    def arcs_by_line(self) -> tuple[np.ndarray, ...]:
        lo, hi = self._span
        arcs = self.chunk.arcs.view()
        arcs.setflags(write=False)
        cuts = self.chunk.arc_start[lo:hi + 1].tolist()
        return tuple(arcs[a:b] for a, b in zip(cuts[:-1], cuts[1:]))

    @property
    def scenario(self) -> PalmScenario:
        return self.chunk.scenario

    @property
    def clip_radius(self) -> float:
        return self.chunk.clip_radius

    @property
    def seed(self) -> tuple[int, int]:
        """The key (master, stream) the trial drew from, each in [0, 2**64):
        ``sample_palm`` with this seed draws the same trial."""
        return self.chunk.master, (self.chunk.first_stream + self.trial) % 2**64


def _pair_arcs(trig, offsets, ii, jj):
    """Arc coordinates of the crossing of line pairs (ii[k], jj[k]): returns
    (arc on line ii[k], arc on line jj[k]). Near-parallel pairs, |det| below
    _MIN_ANGLE_GAP, give nan. ``trig`` is (sin, cos) of the line angles,
    which each solver forms once per call. Either index may be a scalar.
    Each operand is gathered once, and only the pairs outside the
    near-parallel mask are divided, into arrays that start as nan, so no
    pair raises a floating-point warning.

    This is the single crossing formula used everywhere (the per-trial
    search and the batched kernel alike) so arcs agree bit for bit across
    code paths. A swap of ii and jj flips det, bx and by exactly, so it
    swaps the two arcs (only an exact zero may change sign): pass a pair in
    either order.
    """
    sa, ca = trig
    si, ci, oi = sa[ii], ca[ii], offsets[ii]
    sj, cj, oj = sa[jj], ca[jj], offsets[jj]
    det = sj * ci - cj * si
    bx = -oj * sj + oi * si
    by = oj * cj - oi * ci
    ok = np.abs(det) >= _MIN_ANGLE_GAP
    arc_i = np.full(det.shape, np.nan)
    arc_j = arc_i.copy()
    np.divide(bx * sj - by * cj, det, out=arc_i, where=ok)
    np.divide(bx * si - by * ci, det, out=arc_j, where=ok)
    return arc_i, arc_j


# one Philox bit generator per thread, reset to each trial's key: building
# one costs ~15 us, as much as a sparse trial's draws. Each trial first
# resets the whole state from a dict of Python ints, which the state setter
# reads faster than numpy arrays, so no trial depends on the one before it.
_philox = threading.local()
# up to this many lines a trial draws its point counts one scalar call per
# line: the same draws as one array call, without its ~10 us fixed cost
# (the two cost the same near 17-21 lines a trial)
_SCALAR_COUNTS_MAX = 16
# a point's sort key is one uint64: the 53 bits of its position k, over
# them its line's index mod _SORT_BLOCK, so the points of _SORT_BLOCK
# consecutive lines sort as one block
_POSITION_BITS = 53
_SORT_BLOCK = 2**(64 - _POSITION_BITS)


def _thread_philox():
    """(key, bit generator, generator, fresh state) of this thread's Philox.
    A trial writes its (master, stream) into the list ``key``, which
    ``fresh`` holds, and sets the bit generator's state to ``fresh``."""
    try:
        return _philox.parts
    except AttributeError:
        key = [0, 0]
        bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
        fresh = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0],
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _philox.parts = key, bitgen, Generator(bitgen), fresh
        return _philox.parts


def _half_chords(offsets: np.ndarray, R: float) -> np.ndarray:
    """Half lengths of the chords at offsets |p| <= R, such as -R + 2*R*U
    with U < 1, in the disk of radius R: rounding keeps p*p <= R*R, finite
    by ``_check_inputs``, so no root sees a negative number."""
    return np.sqrt(R * R - offsets * offsets)


@dataclass(frozen=True)
class ChunkSample:
    """Consecutive trials of one run as flat arrays (a ragged layout).

    Each array is a 1-D ndarray, ``float64`` but for the ``int64``
    ``line_start`` and ``arc_start``, as the draw lays them out; the public
    solvers refuse any other (``oracle._check_layout``). Line arrays hold
    one entry per line, trial by trial: ``angle`` and ``offset``. The lines
    of trial t are ``line_start[t]:line_start[t + 1]``, and its first
    ``n_origin`` lines are the origin lines of the scenario
    (``_n_origin``). ``arcs`` holds the point positions sorted within each
    line, and the arcs of line k are ``arcs[arc_start[k]:arc_start[k + 1]]``.
    Trial t drew from the stream keyed (master, (first_stream + t) mod
    2**64); ``master`` and ``first_stream`` are the seed and start given to
    ``sample_chunk`` mod 2**64, the key the draws use. The chunk holds only
    what it drew: a line's trial, whether it passes through the origin, its
    chord half length and a point's line follow from these and are not
    kept.
    """

    angle: np.ndarray
    offset: np.ndarray
    line_start: np.ndarray
    arcs: np.ndarray
    arc_start: np.ndarray
    scenario: PalmScenario
    clip_radius: float
    master: int
    first_stream: int

    @property
    def n_trials(self) -> int:
        return self.line_start.size - 1

    @property
    def n_origin(self) -> int:
        """The origin lines that open each trial, as its scenario sets them."""
        return _n_origin(self.scenario)

    def realization(self, t: int) -> Realization:
        """Trial t as a Realization, a view of this chunk, for inspecting
        one trial or searching it with ``shortest_path``. t goes through
        ``_check_int`` and counts from the end when negative, as a list
        index does; past either end ``Realization`` raises InputError."""
        t = _check_int(t, "t")
        return Realization(self, t + self.n_trials if -self.n_trials <= t < 0 else t)


def _n_origin(scenario: PalmScenario) -> int:
    """The origin lines of a trial: the x-axis, and at a typical
    intersection a second line through the origin."""
    return 1 if scenario.kind is PalmKind.TYPICAL_POINT else 2


def _expected_lines(params, scenario, clip_radius) -> float:
    """Expected lines per trial: the origin lines plus lam*pi*clip_radius."""
    return _n_origin(scenario) + params.lam * _PI * clip_radius


def _check_inputs(params, scenario, clip_radius) -> float:
    _check_record(params, ModelParams, "params")
    _check_record(scenario, PalmScenario, "scenario")
    if not (_finite_real(clip_radius) and clip_radius > 0):
        raise NonPositiveRadius(
            f"clip_radius must be finite and > 0, got {_shown(clip_radius)}")
    clip_radius = float(clip_radius)
    if clip_radius * clip_radius == math.inf:
        raise InputError(
            f"clip_radius={_shown(clip_radius)} is too large: its square overflows")
    expected = params.lam * _PI * clip_radius
    if expected > MAX_EXPECTED_LINES:
        raise TooManyLines(
            f"lam * pi * clip_radius = {expected:.6g} expected lines per trial "
            f"exceeds the cap of {MAX_EXPECTED_LINES:g}")
    per_line = 2.0 * params.mu * clip_radius
    if per_line > MAX_EXPECTED_POINTS:
        raise TooManyPoints(
            f"2 * mu * clip_radius = {per_line:.6g} expected points per line "
            f"exceeds the cap of {MAX_EXPECTED_POINTS:g}")
    expected = _expected_lines(params, scenario, clip_radius) * per_line
    if expected > MAX_TRIAL_POINTS:
        raise TooManyPoints(
            f"{expected:.6g} expected points per trial (lines times points "
            f"per line) exceeds the cap of {MAX_TRIAL_POINTS:g}")
    return clip_radius


def sample_chunk(params: ModelParams, scenario: PalmScenario,
                 clip_radius: float, master: int, start: int,
                 stop: int) -> ChunkSample:
    """Draw trials ``start..stop-1`` of a run, trial i from the stream
    (master, i), as one ChunkSample. ``realization(i - start)`` is trial i
    as ``sample_palm(params, scenario, clip_radius, (master, i))`` gives
    it, whatever chunk it was drawn in. TooManyPoints for a chunk of more
    than one trial whose cost, (stop - start) * (C + L * (1 +
    2*mu*clip_radius)) with C = ``_TRIAL_FIXED_COST`` and L =
    ``_expected_lines``, passes ``MAX_TRIAL_POINTS``. A stream is keyed by
    master and i mod 2**64, so masters (or trials) that agree mod 2**64
    draw alike."""
    R = _check_inputs(params, scenario, clip_radius)
    master = _check_int(master, "master")
    start, stop = _check_int(start, "start"), _check_int(stop, "stop")
    if stop <= start:
        raise InputError(f"need start < stop, got {_shown(start)}, {_shown(stop)}")
    # the most trials whose fixed cost, expected lines and points stay
    # within one trial's cap; a run_mc chunk never holds more (_chunk_trials)
    limit = max(1, int(MAX_TRIAL_POINTS // (_TRIAL_FIXED_COST + _expected_lines(
        params, scenario, R) * (1.0 + 2.0 * params.mu * R))))
    span = stop - start
    if span > limit:
        raise TooManyPoints(f"{_shown(span)} trials in one chunk exceed the cap of {limit} "
                            "trials a chunk at these intensities and clip radius")
    return _draw_chunk(params, scenario, R, master, start, stop)


def _draw_chunk(params: ModelParams, scenario: PalmScenario, R: float,
                master: int, start: int, stop: int) -> ChunkSample:
    """``sample_chunk`` of arguments it has checked, ``R`` the float clip
    radius, for a chunk within its cap.

    Trial i draws from the Philox stream keyed (master, i mod 2**64),
    master mod 2**64, in this order, which the loop below holds in its one
    copy: the second origin angle (intersection only), the background line
    count n, the raw U of their angles (row 0) and of their offsets (row 1)
    in one ``random((2, n))`` call, the point count of every line (rate
    2 mu times its half chord; one scalar call a line up to
    ``_SCALAR_COUNTS_MAX`` lines, else one array call) and the raw U of the
    point positions. A raw U is a ``Generator.random`` double, which the
    chunk maps once to ``low + (high - low) * U``, the value
    ``Generator.uniform(low, high)`` gives for the same draw by the same
    IEEE operations: angles in [0, pi), offsets in [-R, R) and positions in
    [-1, 1) per unit half chord. The counts take each offset mapped in the
    loop by the same operations, and its half chord as ``_half_chords``
    forms it: in scalar arithmetic up to ``_SCALAR_COUNTS_MAX`` lines, else
    by the helper itself."""
    master %= 2**64
    key, bitgen, rng, fresh = _thread_philox()
    key[0] = master
    random, poisson, sqrt = rng.random, rng.poisson, math.sqrt
    mean_lines, two_mu, span = params.lam * _PI * R, 2.0 * params.mu, R - -R
    sine = scenario.angle_law is AngleLaw.SIN_WEIGHTED
    n_origin = _n_origin(scenario)
    origin_rates = [two_mu * R] * n_origin
    second, n_bg, line_u, counts, point_u = [], [], [], [], []
    for stream in range(start, stop):
        key[1] = stream % 2**64
        bitgen.state = fresh
        if n_origin == 2:
            # uniform(0, pi) is 0.0 + pi * U, and adding 0.0 to pi * U >= 0
            # changes no bit
            v = random()
            second.append(math.acos(1.0 - 2.0 * v) if sine else _PI * v)
        n = poisson(mean_lines)
        u = random((2, n))
        if n_origin + n <= _SCALAR_COUNTS_MAX:
            # the offsets and _half_chords in scalar arithmetic, rounded the
            # same
            c = list(map(poisson, origin_rates + [
                two_mu * sqrt(R * R - p * p)
                for v in u[1].tolist() for p in (-R + span * v,)]))
        else:
            # span*U - R rounds as _uniform's U*span + (-R)
            c = poisson(np.concatenate(
                (origin_rates, two_mu * _half_chords(span * u[1] - R, R)))).tolist()
        n_bg.append(n)
        line_u.append(u)
        counts += c
        point_u.append(random(sum(c)))
    # each field in one array, the per-trial draws let go as they are read
    n_bg = np.array(n_bg, dtype=np.int64)
    angle_u, offset_u = np.concatenate(line_u, axis=1)
    angle_bg = _uniform(angle_u, 0.0, _PI)
    offset_bg = _uniform(offset_u, -R, R)
    origin = np.zeros((n_bg.size, n_origin))
    if second:
        origin[:, 1] = second
    counts = np.array(counts, dtype=np.int64)
    point_u = _uniform(np.concatenate(point_u), -1.0, 1.0)
    return _chunk_sample(origin, n_bg, angle_bg, offset_bg, counts, point_u,
                         scenario, R, master, start % 2**64)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` of each raw double U of ``u``, in
    place: low + (high - low) * U, the same operations."""
    u *= high - low
    u += low
    return u


def _chunk_sample(origin, n_bg, angle_bg, offset_bg, counts, u, scenario,
                  R, master, first_stream) -> ChunkSample:
    """The ChunkSample of trials drawn from the streams (master,
    first_stream + t): their origin angles (trials x origin lines), the
    background line count of each trial, the background angles and offsets
    trial by trial, the point count of every line (a trial's origin lines
    first) and the point positions per unit half chord, line by line, as
    -1 + 2U of raw doubles U. ``u`` is the chunk's own array: its buffer
    becomes the arcs.

    A raw U is k * 2**-53 with an integer k < 2**53, so u is exact and so is
    k = u * 2**52 + 2**52. A point's sort key is one uint64: its line's
    index mod ``_SORT_BLOCK`` above k. Sorting the keys of each block of
    ``_SORT_BLOCK`` lines in place orders the block's points by line and
    then by k, and so by arc, since a line's arcs are its positions times
    its half chord, a monotone map; equal arcs have equal bits, and a line
    of half chord 0 has rate 0 and no points. The positions come back from
    the sorted k by exact operations and only then become arcs."""
    n_origin = origin.shape[1]
    line_start = np.zeros(n_bg.size + 1, dtype=np.int64)
    (n_bg + n_origin).cumsum(out=line_start[1:])
    through_origin = np.zeros(line_start[-1], dtype=bool)
    through_origin[line_start[:-1, None] + np.arange(n_origin)] = True
    background = ~through_origin
    angle = np.empty(through_origin.size)
    angle[through_origin] = origin.ravel()
    angle[background] = angle_bg
    offset = np.zeros(through_origin.size)
    offset[background] = offset_bg
    half = _half_chords(offset, R)
    half[through_origin] = R
    arc_start = np.zeros(counts.size + 1, dtype=np.int64)
    counts.cumsum(out=arc_start[1:])
    u *= 2.0**52
    u += 2.0**52
    keys = u.astype(np.uint64)
    # a uint64 shift keeps the low 64 bits: the line's index mod _SORT_BLOCK
    keys |= (np.arange(half.size, dtype=np.uint64) << _POSITION_BITS).repeat(counts)
    cuts = arc_start[::_SORT_BLOCK].tolist() + [u.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        keys[lo:hi].sort()
    keys &= 2**_POSITION_BITS - 1
    arcs = np.multiply(keys, 2.0**-52, out=u)
    del keys
    arcs -= 1.0
    arcs *= half.repeat(counts)
    return ChunkSample(angle, offset, line_start, arcs, arc_start, scenario, R,
                       master, first_stream)


def sample_palm(params: ModelParams, scenario: PalmScenario,
                clip_radius: float, seed) -> Realization:
    """Draw one realization conditioned per ``scenario``: the one trial of
    a ``sample_chunk`` call on the seed's stream.

    ``seed`` is an int or an (int master, int stream) pair; equal seeds give
    bit-identical realizations.
    """
    master, stream = _norm_seed(seed)
    return sample_chunk(params, scenario, clip_radius, master, stream,
                        stream + 1).realization(0)
