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
  origin line at a random angle. Every line, added or background, carries
  an independent Poisson(mu per unit length) point process on its chord;
  the origin itself is not a point of the process.

Randomness is a counter-based Philox stream keyed (master seed, stream), so
trial i of a run is reproducible in isolation and independent of how trials
are batched across workers. ``sample_chunk`` draws consecutive trials into
one flat layout for the batched oracle; ``sample_palm`` is the one trial of
a ``sample_chunk`` call, as a Realization.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy loads its random submodule lazily; import it here so that the cost
# falls on `import linecox` and not on a run's first draw
from numpy.random import Generator, Philox

from .errors import (
    NonFinite,
    NonPositiveRadius,
    TBeyondClip,
    TooManyLines,
    TooManyPoints,
    UnknownLine,
)
from .model import (
    AngleLaw,
    Line,
    ModelParams,
    PalmKind,
    PalmScenario,
    _finite_real,
    validate,
)

__all__ = [
    "MAX_EXPECTED_LINES",
    "MAX_EXPECTED_POINTS",
    "Realization",
    "ChunkSample",
    "sample_palm",
    "sample_chunk",
    "crossings_within",
    "realization_to_json",
    "realization_from_json",
    "rotate",
]

_PI = math.pi
_MIN_ANGLE_GAP = 1e-12
# Largest accepted expected line count per trial, lam * pi * clip_radius.
# A 512-trial chunk holds about 300 bytes per line at mu * clip_radius = 3
# (its points included), so a chunk at the cap peaks near 310 MB.
MAX_EXPECTED_LINES = 2000.0
# Largest accepted expected point count per line, 2 * mu * clip_radius.
# A chunk holds about 50 bytes per point, so a 512-trial chunk of the
# intersection scenario (two full-length streets) at lam = 0 and the cap
# peaks near 260 MB.
MAX_EXPECTED_POINTS = 5000.0


def _norm_seed(seed) -> tuple[int, int]:
    if isinstance(seed, (tuple, list)) and len(seed) == 2:
        return int(seed[0]), int(seed[1])
    return int(seed), 0


@dataclass(frozen=True)
class Realization:
    """One sampled street system plus its points.

    ``lines[k].id == k`` for sampled realizations; hand-built ones may use
    arbitrary unique ids. ``arcs_by_line[k]`` holds the sorted arc
    coordinates of the points on ``lines[k]``.
    """

    lines: tuple[Line, ...]
    arcs_by_line: tuple[np.ndarray, ...]
    scenario: PalmScenario
    clip_radius: float
    seed: tuple[int, int] = (0, 0)

    def __post_init__(self):
        frozen = []
        for arr in self.arcs_by_line:
            a = np.sort(np.asarray(arr, dtype=float))
            a.setflags(write=False)
            frozen.append(a)
        object.__setattr__(self, "arcs_by_line", tuple(frozen))
        if len(self.arcs_by_line) != len(self.lines):
            raise ValueError("one arc array per line required")
        ids = [ln.id for ln in self.lines]
        if len(set(ids)) != len(ids):
            raise ValueError("line ids must be unique")

    @classmethod
    def _presorted(cls, lines, arcs_by_line, scenario, clip_radius, seed):
        """A realization from the sampler's own arrays: lines with ids
        0..n-1 and read-only float arcs already sorted per line, so the
        copy, the sort and the checks of ``__post_init__`` are skipped."""
        real = object.__new__(cls)
        for name, value in (("lines", lines), ("arcs_by_line", arcs_by_line),
                            ("scenario", scenario), ("clip_radius", clip_radius),
                            ("seed", seed)):
            object.__setattr__(real, name, value)
        return real

    @cached_property
    def _id_to_idx(self) -> dict:
        return {ln.id: k for k, ln in enumerate(self.lines)}

    @cached_property
    def _angles(self) -> np.ndarray:
        a = np.array([ln.angle for ln in self.lines], dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def _offsets(self) -> np.ndarray:
        p = np.array([ln.signed_offset for ln in self.lines], dtype=float)
        p.setflags(write=False)
        return p

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        """(sin, cos) of every line's angle, for ``_pair_arcs``."""
        return _sin_cos(self._angles)

    @property
    def origin_ids(self) -> tuple[int, ...]:
        return tuple(ln.id for ln in self.lines if ln.through_origin)

    def index_of(self, line_id: int) -> int:
        try:
            return self._id_to_idx[line_id]
        except KeyError:
            raise UnknownLine(f"no line with id {line_id}") from None

    @cached_property
    def intersections(self) -> tuple:
        """All pairwise crossings inside the clip disk, as tuples
        (id_i, id_j, arc_on_i, arc_on_j, x, y) with i earlier than j in
        ``lines`` order. Near-parallel pairs (|sin of angle gap| < 1e-12)
        have no crossing, in sampled realizations as in hand-built ones."""
        n = len(self.lines)
        if n < 2:
            return ()
        ii, jj = np.triu_indices(n, k=1)
        s_i, s_j = _pair_arcs(self._trig, self._offsets, ii, jj)
        keep = np.isfinite(s_i)
        out = []
        sa, ca = self._trig
        for a, b, u, v in zip(ii[keep], jj[keep], s_i[keep], s_j[keep]):
            x = self._offsets[a] * (-sa[a]) + u * ca[a]
            y = self._offsets[a] * ca[a] + u * sa[a]
            if math.hypot(x, y) <= self.clip_radius:
                out.append((self.lines[a].id, self.lines[b].id,
                            float(u), float(v), float(x), float(y)))
        return tuple(out)


def _sin_cos(angles) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos) of the angles, read-only."""
    sa, ca = np.sin(angles), np.cos(angles)
    sa.setflags(write=False)
    ca.setflags(write=False)
    return sa, ca


def _pair_arcs(trig, offsets, ii, jj):
    """Arc coordinates of the crossing of line pairs (ii[k], jj[k]): returns
    (arc on line ii[k], arc on line jj[k]). Near-parallel pairs give nan.
    ``trig`` is ``_sin_cos`` of the line angles, which a Realization or a
    ChunkSample computes once and keeps. Either index may be a scalar.

    This is the single crossing formula used everywhere (sampler queries and
    oracle graph alike) so arcs agree bit for bit across code paths. A swap
    of ii and jj flips det, bx and by exactly, so it swaps the two arcs
    (only an exact zero may change sign): pass a pair in either order.
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


def _crossings(real: Realization, li: int):
    """Crossings of line ``li`` with every other line, in other-line order:
    (arc on li, arc on the other line, other line index) as arrays. A
    near-parallel pair gives nan arcs, which every length bound rejects."""
    other = np.arange(len(real.lines) - 1)
    other[li:] += 1
    return (*_pair_arcs(real._trig, real._offsets, li, other), other)


def _draw_origin_angles(rng, scenario: PalmScenario):
    if scenario.kind is PalmKind.TYPICAL_POINT:
        return [0.0]
    for _ in range(100):
        if scenario.angle_law is AngleLaw.UNIFORM:
            theta = rng.uniform(0.0, _PI)
        else:
            theta = math.acos(1.0 - 2.0 * rng.uniform())
        if _MIN_ANGLE_GAP < theta < _PI - _MIN_ANGLE_GAP:
            return [0.0, float(theta)]
    raise RuntimeError("could not draw a non-degenerate intersection angle")


# one bit generator per thread, reused by every _TrialDraws: building one
# costs ~15 us, as much as a sparse trial's draws. Each draw first resets
# its whole state, so no draw depends on the one before it.
_philox = threading.local()
# up to this many lines a trial draws its point counts one scalar call per
# line: the same draws as one array call, without its ~10 us fixed cost
_SCALAR_COUNTS_MAX = 16


def _half_chords(offsets: np.ndarray, R: float) -> np.ndarray:
    """Half lengths of the chords at these offsets in the disk of radius R."""
    return np.sqrt(np.maximum(R * R - offsets * offsets, 0.0))


class _TrialDraws:
    """Draws trials of one run, trial ``i`` from the Philox stream keyed
    (master, i). One bit generator per thread is reset to each trial's key
    instead of building a new generator per trial; the draws are the same.

    ``draw`` holds the one copy of the draw order: the origin angles, the
    background line count, their angles and offsets, the point count of
    every line (rate 2 mu times its half chord) and the point positions."""

    def __init__(self, params: ModelParams, scenario: PalmScenario, R: float,
                 master: int):
        self._scenario = scenario
        self._R = R
        self._mean_lines = params.lam * _PI * R
        self._two_mu = 2.0 * params.mu
        self._master = master % 2**64
        if not hasattr(_philox, "rng"):
            _philox.key = np.zeros(2, dtype=np.uint64)
            _philox.bitgen = Philox(key=_philox.key)
            _philox.rng = Generator(_philox.bitgen)
            _philox.fresh = {"bit_generator": "Philox",
                             "state": {"counter": np.zeros(4, dtype=np.uint64),
                                       "key": _philox.key},
                             "buffer": np.zeros(4, dtype=np.uint64),
                             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._key, self._bitgen = _philox.key, _philox.bitgen
        self._rng, self._fresh = _philox.rng, _philox.fresh

    def draw(self, stream: int):
        """(origin angles, background angles, background offsets, point
        count per line, point positions in [-1, 1] per unit half chord)."""
        self._key[0] = self._master
        self._key[1] = stream % 2**64
        self._bitgen.state = self._fresh
        rng, R, two_mu = self._rng, self._R, self._two_mu
        origin = _draw_origin_angles(rng, self._scenario)
        n_bg = int(rng.poisson(self._mean_lines))
        angles = rng.uniform(0.0, _PI, size=n_bg)
        offsets = rng.uniform(-R, R, size=n_bg)
        if len(origin) + n_bg <= _SCALAR_COUNTS_MAX:
            # _half_chords in scalar arithmetic, rounded the same
            rates = [two_mu * R] * len(origin) + [
                two_mu * math.sqrt(max(R * R - p * p, 0.0))
                for p in offsets.tolist()]
            counts = [int(rng.poisson(r)) for r in rates]
        else:
            counts = rng.poisson(two_mu * np.concatenate(
                (np.full(len(origin), R), _half_chords(offsets, R)))).tolist()
        u = rng.uniform(-1.0, 1.0, size=sum(counts))
        return origin, angles, offsets, counts, u


def _sort_within(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Permutation sorting ``values`` within runs of equal, nondecreasing
    ``groups``."""
    order = np.argsort(values)
    g = groups[order]
    if g.size and groups[-1] < 2**16:
        g = g.astype(np.uint16)  # numpy radix-sorts 16-bit keys
    return order[np.argsort(g, kind="stable")]


@dataclass(frozen=True)
class ChunkSample:
    """Consecutive trials of one run as flat arrays (a ragged layout).

    Line arrays hold one entry per line, trial by trial, the origin lines of
    a trial first: ``angle``, ``offset``, ``half`` (chord half length),
    ``through_origin`` and ``trial`` (0-based within the chunk). The lines
    of trial t are ``line_start[t]:line_start[t + 1]``. ``arcs`` holds the
    point positions sorted within each line, ``arc_line`` their line, and
    the arcs of line k are ``arcs[arc_start[k]:arc_start[k + 1]]``. Trial t
    drew from the stream (master, first_stream + t).
    """

    angle: np.ndarray
    offset: np.ndarray
    half: np.ndarray
    through_origin: np.ndarray
    trial: np.ndarray
    line_start: np.ndarray
    arcs: np.ndarray
    arc_line: np.ndarray
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
        """Trial t as a Realization, for inspecting one trial."""
        lo, hi = int(self.line_start[t]), int(self.line_start[t + 1])
        return _realization(self.angle[lo:hi], self.offset[lo:hi],
                            self.n_origin, self.arcs,
                            self.arc_start[lo:hi + 1], self.scenario,
                            self.clip_radius,
                            (self.master, self.first_stream + t))


def _realization(angles, offsets, n_origin, arcs, cuts, scenario, R,
                 seed) -> Realization:
    """Lines k = 0, 1, ... with the points arcs[cuts[k]:cuts[k + 1]], which
    must be sorted within each line; each line gets a read-only view."""
    lines = tuple(Line(id=k, angle=a, signed_offset=p,
                       through_origin=k < n_origin)
                  for k, (a, p) in enumerate(zip(angles.tolist(),
                                                 offsets.tolist())))
    arcs = arcs.view()
    arcs.setflags(write=False)
    cuts = cuts.tolist()
    return Realization._presorted(
        lines, tuple(arcs[a:b] for a, b in zip(cuts[:-1], cuts[1:])),
        scenario, R, seed)


def _check_inputs(params, scenario, clip_radius) -> float:
    validate(params)
    if not isinstance(scenario, PalmScenario):
        raise TypeError(f"scenario must be a PalmScenario, got {type(scenario).__name__}")
    if not (_finite_real(clip_radius) and clip_radius > 0):
        raise NonPositiveRadius(f"clip_radius must be finite and > 0, got {clip_radius!r}")
    clip_radius = float(clip_radius)
    expected = params.lam * _PI * clip_radius
    if expected > MAX_EXPECTED_LINES:
        raise TooManyLines(
            f"lam * pi * clip_radius = {expected:.6g} expected lines per trial "
            f"exceeds the cap of {MAX_EXPECTED_LINES:g}")
    expected = 2.0 * params.mu * clip_radius
    if expected > MAX_EXPECTED_POINTS:
        raise TooManyPoints(
            f"2 * mu * clip_radius = {expected:.6g} expected points per line "
            f"exceeds the cap of {MAX_EXPECTED_POINTS:g}")
    return clip_radius


def _horizon(t, clip_radius: float, name: str = "t_max") -> float:
    """The query distance ``t`` as a float: NonFinite for nan or inf,
    ValueError below 0, TBeyondClip past the sampled ``clip_radius``."""
    t = float(t)
    if not math.isfinite(t):
        raise NonFinite(f"{name} must be finite, got {t}")
    if t < 0:
        raise ValueError(f"{name} must be >= 0, got {t}")
    if t > clip_radius:
        raise TBeyondClip(f"{name}={t} exceeds clip_radius={clip_radius}; "
                          "geometry beyond the clip disk was never sampled")
    return t


def sample_chunk(params: ModelParams, scenario: PalmScenario,
                 clip_radius: float, master: int, start: int,
                 stop: int) -> ChunkSample:
    """Draw trials ``start..stop-1`` of a run, trial i from the stream
    (master, i), as one ChunkSample. ``realization(i - start)`` is trial i
    as ``sample_palm(params, scenario, clip_radius, (master, i))`` gives
    it, whatever chunk it was drawn in."""
    R = _check_inputs(params, scenario, clip_radius)
    master, start, stop = int(master), int(start), int(stop)
    if stop <= start:
        raise ValueError(f"need start < stop, got {start}, {stop}")
    draws = _TrialDraws(params, scenario, R, master)
    trials = [draws.draw(i) for i in range(start, stop)]
    angle, through_origin, trial, line_start = _line_layout(trials)
    offset = np.zeros(angle.size)
    offset[~through_origin] = np.concatenate([rec[2] for rec in trials])
    half = np.where(through_origin, R, _half_chords(offset, R))
    counts = np.fromiter(itertools.chain.from_iterable(rec[3] for rec in trials),
                         dtype=np.int64, count=angle.size)
    arcs = np.concatenate([rec[4] for rec in trials]) * np.repeat(half, counts)
    arc_line = np.repeat(np.arange(angle.size), counts)
    order = _sort_within(arc_line, arcs)
    return ChunkSample(angle, offset, half, through_origin, trial, line_start,
                       arcs[order], arc_line,
                       np.concatenate(([0], np.cumsum(counts))),
                       len(trials[0][0]), scenario, R, master, start)


def _line_layout(trials):
    """Angle, through-origin flag and trial of every line, and the line
    offsets of the trials, from per-trial draws."""
    n_origin = len(trials[0][0])
    n_lines = n_origin + np.fromiter((rec[1].size for rec in trials),
                                     dtype=np.int64, count=len(trials))
    line_start = np.concatenate(([0], np.cumsum(n_lines)))
    trial = np.repeat(np.arange(len(trials)), n_lines)
    through_origin = np.arange(trial.size) - line_start[trial] < n_origin
    angle = np.empty(trial.size)
    angle[through_origin] = list(itertools.chain.from_iterable(rec[0] for rec in trials))
    angle[~through_origin] = np.concatenate([rec[1] for rec in trials])
    return angle, through_origin, trial, line_start


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


def crossings_within(real: Realization, line_id: int, t: float):
    """Crossings of other lines along ``line_id`` within arc distance t of
    the line's arc origin, as (other_line_id, arc_coord, incidence_angle)
    sorted by |arc_coord| (ties by other id). For an origin line the arc
    origin is the origin, so these are the candidate first turns."""
    i = real.index_of(line_id)
    t = _horizon(t, real.clip_radius, "t")
    s_i, _, other = _crossings(real, i)
    out = []
    for k, s in zip(other, s_i):
        if not math.isfinite(s) or abs(s) > t:
            continue
        delta = (real.lines[k].angle - real.lines[i].angle) % _PI
        out.append((real.lines[k].id, float(s), float(delta)))
    out.sort(key=lambda rec: (abs(rec[1]), rec[0]))
    return out


# ---- serialization ----------------------------------------------------------

def realization_to_json(real: Realization) -> dict:
    return {
        "clip_radius": real.clip_radius,
        "seed": list(real.seed),
        "scenario": {"kind": real.scenario.kind.value,
                     "angle_law": real.scenario.angle_law.value},
        "lines": [
            {"id": ln.id, "angle": ln.angle, "offset": ln.signed_offset,
             "through_origin": ln.through_origin}
            for ln in real.lines
        ],
        "points": [
            {"line": ln.id, "arc": float(s)}
            for ln, arcs in zip(real.lines, real.arcs_by_line) for s in arcs
        ],
    }


def realization_from_json(obj) -> Realization:
    if isinstance(obj, str):
        obj = json.loads(obj)
    scen = obj.get("scenario", {})
    scenario = PalmScenario(PalmKind(scen.get("kind", "typical-point")),
                            AngleLaw(scen.get("angle_law", "uniform")))
    lines = tuple(
        Line(id=int(rec["id"]), angle=float(rec["angle"]),
             signed_offset=float(rec["offset"]),
             through_origin=bool(rec.get("through_origin",
                                         float(rec["offset"]) == 0.0)))
        for rec in obj["lines"]
    )
    buckets = {ln.id: [] for ln in lines}
    for rec in obj.get("points", []):
        lid = int(rec["line"])
        if lid not in buckets:
            raise UnknownLine(f"point references unknown line id {lid}")
        buckets[lid].append(float(rec["arc"]))
    arcs = tuple(np.array(buckets[ln.id], dtype=float) for ln in lines)
    seed = obj.get("seed", [0, 0])
    return Realization(lines, arcs, scenario, float(obj["clip_radius"]),
                       (int(seed[0]), int(seed[1])))


def rotate(real: Realization, phi: float) -> Realization:
    """The realization rigidly rotated by phi about the origin (a testing
    aid: street-path lengths are rotation invariant). Angles are folded back
    to [0, pi); when folding flips the line's direction, the offset and the
    arc coordinates change sign together."""
    new_lines = []
    new_arcs = []
    for ln, arcs in zip(real.lines, real.arcs_by_line):
        raw = ln.angle + phi
        folded = raw % _PI
        flips = math.floor(raw / _PI) % 2
        if folded >= _PI:  # float fold-over guard
            folded -= _PI
            flips ^= 1
        sign = -1.0 if flips else 1.0
        new_lines.append(Line(ln.id, folded, sign * ln.signed_offset,
                              ln.through_origin))
        new_arcs.append(sign * arcs)
    return Realization(tuple(new_lines), tuple(new_arcs), real.scenario,
                       real.clip_radius, real.seed)
