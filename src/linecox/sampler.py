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
  on either line without a turn, so a nan crossing there loses no shortest
  path. Every line, added or background, carries
  an independent Poisson(mu per unit length) point process on its chord;
  the origin itself is not a point of the process.

Randomness is a counter-based Philox stream keyed (master seed, stream), so
trial i of a run is reproducible in isolation and independent of how trials
are batched across workers. ``sample_chunk`` draws consecutive trials into
one flat layout, the package's one layout of a realization: 25 bytes per
line and 8 per point (about 10 KiB a trial at lam 16, mu 1, radius 3).
A Realization is a view of one trial of a chunk, and ``sample_palm`` is
the one trial of a ``sample_chunk`` call. A trial draws its uniforms raw,
as ``Generator.random`` doubles U, and ``sample_chunk`` maps them once per
chunk to ``low + (high - low) * U``: the value
``Generator.uniform(low, high)`` gives for the same draw, by the same IEEE
operations.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy loads its random submodule lazily; import it here so that the cost
# falls on `import linecox` and not on a run's first draw
from numpy.random import Generator, Philox

from .errors import InputError, NonPositiveRadius, TooManyLines, TooManyPoints
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
# Drawing a chunk at mu * clip_radius = 3 peaks near 280 bytes per line,
# its points included (measured at lam 60), and the finished chunk keeps
# about 63 bytes per line. At the cap run_mc draws one trial a chunk, which
# peaks near 0.5 MiB.
MAX_EXPECTED_LINES = 2000.0
# Largest accepted expected point count per line, 2 * mu * clip_radius.
# Drawing a chunk peaks near 42 bytes per point and the chunk keeps 8. At
# lam = 0 and the cap run_mc draws the intersection scenario (two
# full-length streets) 13 trials a chunk, which peaks near 5.2 MiB.
MAX_EXPECTED_POINTS = 5000.0
# Largest accepted expected point count per trial, lines times points per
# line, (n_origin + lam * pi * clip_radius) * 2 * mu * clip_radius. The two
# caps above allow some 10 million; at 42 bytes a point the draw of one
# trial at this cap peaks near 42 MiB.
MAX_TRIAL_POINTS = 1e6
# A trial's fixed cost, in expected lines and points: drawing its counts,
# origin angles and per-trial arrays holds about 700 bytes whatever the
# intensities, some 16 points' worth at 42 bytes a point.
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
    points, a view of the chunk's ``arcs``."""

    chunk: ChunkSample
    trial: int

    @property
    def _span(self) -> tuple[int, int]:
        """The trial's lines, as the slice lo:hi of the chunk's line arrays."""
        line_start = self.chunk.line_start
        return int(line_start[self.trial]), int(line_start[self.trial + 1])

    @cached_property
    def lines(self) -> tuple[Line, ...]:
        lo, hi = self._span
        c = self.chunk
        return tuple(map(Line, range(hi - lo), c.angle[lo:hi].tolist(),
                         c.offset[lo:hi].tolist(),
                         c.through_origin[lo:hi].tolist()))

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
        return self.chunk.master, self.chunk.first_stream + self.trial


def _sin_cos(angles) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos) of the angles, read-only."""
    sa, ca = np.sin(angles), np.cos(angles)
    sa.setflags(write=False)
    ca.setflags(write=False)
    return sa, ca


def _pair_arcs(trig, offsets, ii, jj):
    """Arc coordinates of the crossing of line pairs (ii[k], jj[k]): returns
    (arc on line ii[k], arc on line jj[k]). Near-parallel pairs give nan.
    ``trig`` is ``_sin_cos`` of the line angles, which a ChunkSample
    computes once and keeps. Either index may be a scalar.

    This is the single crossing formula used everywhere (the per-trial
    search and the batched kernel alike) so arcs agree bit for bit across
    code paths. A swap of ii and jj flips det, bx and by exactly, so it
    swaps the two arcs (only an exact zero may change sign): pass a pair in
    either order.
    """
    sa, ca = trig
    det = sa[jj] * ca[ii] - ca[jj] * sa[ii]
    bx = -offsets[jj] * sa[jj] + offsets[ii] * sa[ii]
    by = offsets[jj] * ca[jj] - offsets[ii] * ca[ii]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        arc_i = np.where(np.abs(det) < _MIN_ANGLE_GAP, np.nan,
                         (bx * sa[jj] - by * ca[jj]) / det)
        arc_j = np.where(np.abs(det) < _MIN_ANGLE_GAP, np.nan,
                         (bx * sa[ii] - by * ca[ii]) / det)
    return arc_i, arc_j


def _draw_origin_angles(rng, scenario: PalmScenario):
    if scenario.kind is PalmKind.TYPICAL_POINT:
        return (0.0,)
    # uniform(0, pi) is 0.0 + pi * U, and adding 0.0 to pi * U >= 0 changes
    # no bit
    if scenario.angle_law is AngleLaw.UNIFORM:
        return (0.0, _PI * rng.random())
    return (0.0, math.acos(1.0 - 2.0 * rng.random()))


# one bit generator per thread, reused by every _TrialDraws: building one
# costs ~15 us, as much as a sparse trial's draws. Each draw first resets
# its whole state from a dict of Python ints, which the state setter reads
# faster than numpy arrays, so no draw depends on the one before it.
_philox = threading.local()
# up to this many lines a trial draws its point counts one scalar call per
# line: the same draws as one array call, without its ~10 us fixed cost
# (the two cost the same near 17-21 lines a trial)
_SCALAR_COUNTS_MAX = 16


def _half_chords(offsets: np.ndarray, R: float) -> np.ndarray:
    """Half lengths of the chords at offsets |p| <= R, such as -R + 2*R*U
    with U < 1, in the disk of radius R: rounding keeps p*p <= R*R, finite
    by ``_check_inputs``, so no root sees a negative number."""
    return np.sqrt(R * R - offsets * offsets)


class _TrialDraws:
    """Draws trials of one run, trial ``i`` from the Philox stream keyed
    (master, i). One bit generator per thread is reset to each trial's key
    instead of building a new generator per trial; the draws are the same.

    ``draw`` holds the one copy of the draw order: the origin angles, the
    background line count, their angles and offsets, the point count of
    every line (rate 2 mu times its half chord) and the point positions.
    Each uniform field is one ``Generator.random`` call of raw doubles U,
    which ``sample_chunk`` maps per chunk."""

    def __init__(self, params: ModelParams, scenario: PalmScenario, R: float,
                 master: int):
        self._scenario = scenario
        self._R = R
        self._mean_lines = params.lam * _PI * R
        self._two_mu = 2.0 * params.mu
        self._master = master % 2**64
        if not hasattr(_philox, "rng"):
            _philox.key = [0, 0]
            _philox.bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
            _philox.rng = Generator(_philox.bitgen)
            _philox.fresh = {"bit_generator": "Philox",
                             "state": {"counter": [0, 0, 0, 0],
                                       "key": _philox.key},
                             "buffer": [0, 0, 0, 0],
                             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._key, self._bitgen = _philox.key, _philox.bitgen
        self._rng, self._fresh = _philox.rng, _philox.fresh

    def draw(self, stream: int):
        """(origin angles, raw U of the background angles, raw U of their
        offsets, point count per line, raw U of the point positions).
        ``sample_chunk`` maps the raw U to angles in [0, pi), offsets in
        [-R, R) and positions in [-1, 1) per unit half chord; the counts
        take each offset mapped here by the same operations."""
        self._key[0] = self._master
        self._key[1] = stream % 2**64
        self._bitgen.state = self._fresh
        rng, R, two_mu = self._rng, self._R, self._two_mu
        origin = _draw_origin_angles(rng, self._scenario)
        n_bg = rng.poisson(self._mean_lines)
        u = rng.random(2 * n_bg)
        if len(origin) + n_bg <= _SCALAR_COUNTS_MAX:
            # the offsets and _half_chords in scalar arithmetic, rounded the
            # same
            poisson, span = rng.poisson, R - -R
            counts = [poisson(two_mu * R) for _ in origin] + [
                poisson(two_mu * math.sqrt(R * R - p * p))
                for p in [-R + span * v for v in u[n_bg:].tolist()]]
        else:
            counts = rng.poisson(two_mu * np.concatenate(
                (np.full(len(origin), R),
                 _half_chords(-R + (R - -R) * u[n_bg:], R)))).tolist()
        return origin, u[:n_bg], u[n_bg:], counts, rng.random(sum(counts))


def _sort_within(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Permutation sorting ``values`` within runs of equal, nondecreasing
    ``groups``."""
    order = np.argsort(values)
    return order[np.argsort(groups[order], kind="stable")]


@dataclass(frozen=True)
class ChunkSample:
    """Consecutive trials of one run as flat arrays (a ragged layout).

    Line arrays hold one entry per line, trial by trial, the origin lines of
    a trial first: ``angle``, ``offset`` and ``through_origin``. The lines
    of trial t are ``line_start[t]:line_start[t + 1]``. ``arcs`` holds the
    point positions sorted within each line, and the arcs of line k are
    ``arcs[arc_start[k]:arc_start[k + 1]]``. Trial t drew from the stream
    (master, first_stream + t). The chunk holds only what the oracle and
    ``realization`` read: a line's trial, its chord half length and a
    point's line follow from these and are not kept.
    """

    angle: np.ndarray
    offset: np.ndarray
    through_origin: np.ndarray
    line_start: np.ndarray
    arcs: np.ndarray
    arc_start: np.ndarray
    n_origin: int
    scenario: PalmScenario
    clip_radius: float
    master: int
    first_stream: int

    @property
    def n_trials(self) -> int:
        return self.line_start.size - 1

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        """(sin, cos) of every line's angle, for ``_pair_arcs``."""
        return _sin_cos(self.angle)

    def realization(self, t: int) -> Realization:
        """Trial t as a Realization, a view of this chunk, for inspecting
        one trial or searching it with ``shortest_path``. t goes through
        ``_check_int`` and counts from the end when negative, as a list
        index does; past either end it raises InputError."""
        t = _check_int(t, "t")
        n = self.n_trials
        if not -n <= t < n:
            raise InputError(f"trial index {t} is out of range for a chunk of {n} trials")
        return Realization(self, t % n)


def _expected_lines(params, scenario, clip_radius) -> float:
    """Expected lines per trial: the origin lines plus lam*pi*clip_radius."""
    n_origin = 1 if scenario.kind is PalmKind.TYPICAL_POINT else 2
    return n_origin + params.lam * _PI * clip_radius


def _check_inputs(params, scenario, clip_radius) -> float:
    _check_record(params, ModelParams, "params")
    _check_record(scenario, PalmScenario, "scenario")
    if not (_finite_real(clip_radius) and clip_radius > 0):
        raise NonPositiveRadius(f"clip_radius must be finite and > 0, got {clip_radius!r}")
    clip_radius = float(clip_radius)
    if clip_radius * clip_radius == math.inf:
        raise InputError(f"clip_radius={clip_radius!r} is too large: its square overflows")
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
    ``_expected_lines``, passes ``MAX_TRIAL_POINTS``."""
    R = _check_inputs(params, scenario, clip_radius)
    master = _check_int(master, "master")
    start, stop = _check_int(start, "start"), _check_int(stop, "stop")
    if stop <= start:
        raise InputError(f"need start < stop, got {start}, {stop}")
    # the most trials whose fixed cost, expected lines and points stay
    # within one trial's cap; a run_mc chunk never holds more (_chunk_trials)
    limit = max(1, int(MAX_TRIAL_POINTS // (_TRIAL_FIXED_COST + _expected_lines(
        params, scenario, R) * (1.0 + 2.0 * params.mu * R))))
    span = stop - start
    if span > limit:
        count = span if span < 10**15 else f"a {span.bit_length()}-bit count of"
        raise TooManyPoints(f"{count} trials in one chunk exceed the cap of {limit} "
                            "trials a chunk at these intensities and clip radius")
    draws = _TrialDraws(params, scenario, R, master)
    origin, angle_u, offset_u, counts, point_u = zip(
        *[draws.draw(i) for i in range(start, stop)])
    # each field in one array, the per-trial draws let go as they are read
    n_bg = np.fromiter(map(len, angle_u), dtype=np.int64, count=stop - start)
    angle_u, offset_u = _uniform(angle_u, 0.0, _PI), _uniform(offset_u, -R, R)
    counts = np.fromiter(itertools.chain.from_iterable(counts), dtype=np.int64)
    point_u = _uniform(point_u, -1.0, 1.0)
    return _chunk_sample(np.array(origin), n_bg, angle_u, offset_u, counts,
                         point_u, scenario, R, master, start)


def _uniform(raw, low, high) -> np.ndarray:
    """``Generator.uniform(low, high)`` of each raw double U of the arrays
    ``raw``, in one array: low + (high - low) * U, the same operations."""
    u = np.concatenate(raw)
    u *= high - low
    u += low
    return u


def _chunk_sample(origin, n_bg, angle_bg, offset_bg, counts, u, scenario,
                  R, master, first_stream) -> ChunkSample:
    """The ChunkSample of trials drawn from the streams (master,
    first_stream + t): their origin angles (trials x origin lines), the
    background line count of each trial, the background angles and offsets
    trial by trial, the point count of every line (a trial's origin lines
    first) and the point positions per unit half chord, line by line."""
    n_origin = origin.shape[1]
    line_start = np.concatenate(([0], np.cumsum(n_origin + n_bg)))
    through_origin = np.zeros(line_start[-1], dtype=bool)
    through_origin[line_start[:-1, None] + np.arange(n_origin)] = True
    angle = np.empty(through_origin.size)
    angle[through_origin] = origin.ravel()
    angle[~through_origin] = angle_bg
    offset = np.zeros(through_origin.size)
    offset[~through_origin] = offset_bg
    half = np.where(through_origin, R, _half_chords(offset, R))
    arcs = u
    arcs *= np.repeat(half, counts)  # in place: u is the chunk's own array
    # each point's line as a 16-bit key where the lines allow, which numpy
    # radix-sorts and which takes a quarter of the memory
    line = np.arange(half.size, dtype=np.uint16 if half.size <= 2**16 else np.intp)
    order = _sort_within(np.repeat(line, counts), arcs)
    return ChunkSample(angle, offset, through_origin, line_start, arcs[order],
                       np.concatenate(([0], np.cumsum(counts))),
                       n_origin, scenario, R, master, first_stream)


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
