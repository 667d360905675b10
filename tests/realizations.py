"""Helpers the tests share for building, reading and transforming single
realizations. The package keeps one layout of a realization, the
ChunkSample, and a Realization is a view of one trial of it, so a
hand-built fixture is a one-trial chunk."""

import math

import numpy as np

from linecox import (
    ChunkSample,
    ModelParams,
    PalmScenario,
    Realization,
    TurnPolicy,
    sample_path,
    typical_point,
)
from linecox.model import Line, _check_t
from linecox.sampler import _PI, _n_origin, _pair_arcs


def one_trial(lines, arcs_by_line, scenario=typical_point(), clip_radius=5.0,
              seed=(0, 0)) -> Realization:
    """A Realization of the given lines, each with the points at the given
    arcs (sorted here), as the one trial of a chunk. Line ids must be the
    lines' positions, and the lines through the origin must be the first
    ones, as many as the scenario has (``_n_origin``), as in sampled chunks:
    the chunk keeps no flag, its layout says which lines they are. Fewer
    lines than that make a trial both solvers refuse."""
    assert [ln.id for ln in lines] == list(range(len(lines))), "ids are positions"
    assert [ln.through_origin for ln in lines] == [
        k < _n_origin(scenario) for k in range(len(lines))], "origin lines first"
    arcs = [np.sort(np.asarray(a, dtype=float)) for a in arcs_by_line]
    assert len(arcs) == len(lines), "one arc array per line"
    chunk = ChunkSample(
        np.array([ln.angle for ln in lines], dtype=float),
        np.array([ln.signed_offset for ln in lines], dtype=float),
        np.array([0, len(lines)]),
        np.concatenate([np.empty(0)] + arcs),
        np.concatenate(([0], np.cumsum([a.size for a in arcs], dtype=np.int64))),
        scenario, float(clip_radius), int(seed[0]), int(seed[1]))
    return chunk.realization(0)


# hand-built lines: repeated arcs, 0.0 beside -0.0, an empty line, lines
# all below or all above 0
_HAND_ARCS = [[-1.0, 0.0, 0.0, 0.5, 2.0], [], [-0.0, 0.0, 1.5], [0.25],
              [-2.0, -1.0, -1.0], [], [0.5, 0.5, 0.5, 3.0], [-0.0]]


def hand_chunk() -> ChunkSample:
    """A one-trial chunk of eight hand-built lines, the first through the
    origin, whose points hold the cases an arc search must get right."""
    lines = [Line(i, 0.3 * i, 0.1 * i, i == 0) for i in range(len(_HAND_ARCS))]
    return one_trial(lines, _HAND_ARCS).chunk


def trial_geometry(real: Realization):
    """The trial's ``(sin, cos)`` of its line angles and its offsets, as
    ``_pair_arcs`` takes them and as the per-trial search forms them."""
    lo, hi = real._span
    angle = real.chunk.angle[lo:hi]
    return (np.sin(angle), np.cos(angle)), real.chunk.offset[lo:hi]


def sample_D(params: ModelParams, scenario: PalmScenario, policy: TurnPolicy,
             t_max: float, seed) -> float:
    """Shortest-distance draw; inf means censored at t_max."""
    return sample_path(params, scenario, policy, t_max, seed).length


def crossings_within(real: Realization, line_id: int, t: float):
    """Crossings of other lines along ``line_id`` within arc distance t of
    the line's arc origin, as (other_line_id, arc_coord, incidence_angle)
    sorted by |arc_coord| (ties by other id). For an origin line the arc
    origin is the origin, so these are the candidate first turns."""
    i = line_id
    t = float(_check_t(t, real.clip_radius))
    lines = real.lines
    other = np.arange(len(lines) - 1)
    other[i:] += 1
    s_i, _ = _pair_arcs(*trial_geometry(real), i, other)
    out = []
    for k, s in zip(other, s_i):
        if not math.isfinite(s) or abs(s) > t:
            continue
        delta = (lines[k].angle - lines[i].angle) % _PI
        out.append((lines[k].id, float(s), float(delta)))
    out.sort(key=lambda rec: (abs(rec[1]), rec[0]))
    return out


def intersections(real: Realization) -> tuple:
    """All pairwise crossings inside the clip disk, as tuples
    (id_i, id_j, arc_on_i, arc_on_j, x, y) with i earlier than j in
    ``lines`` order. Near-parallel pairs (|sin of angle gap| < 1e-12)
    have no crossing, in sampled realizations as in hand-built ones."""
    lines = real.lines
    n = len(lines)
    if n < 2:
        return ()
    trig, offsets = trial_geometry(real)
    ii, jj = np.triu_indices(n, k=1)
    s_i, s_j = _pair_arcs(trig, offsets, ii, jj)
    keep = np.isfinite(s_i)
    out = []
    sa, ca = trig
    for a, b, u, v in zip(ii[keep], jj[keep], s_i[keep], s_j[keep]):
        x = offsets[a] * (-sa[a]) + u * ca[a]
        y = offsets[a] * ca[a] + u * sa[a]
        if math.hypot(x, y) <= real.clip_radius:
            out.append((lines[a].id, lines[b].id,
                        float(u), float(v), float(x), float(y)))
    return tuple(out)


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


def rotate(real: Realization, phi: float) -> Realization:
    """The realization rigidly rotated by phi about the origin (street-path
    lengths are rotation invariant). Angles are folded back to [0, pi);
    when folding flips the line's direction, the offset and the arc
    coordinates change sign together."""
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
    return one_trial(new_lines, new_arcs, real.scenario, real.clip_radius,
                     real.seed)


def route_positions(real: Realization, route) -> list:
    """Euclidean coordinates of the route vertices."""
    out = []
    for lid, arc in route:
        ln = real.lines[lid]
        ca, sa = math.cos(ln.angle), math.sin(ln.angle)
        out.append((ln.signed_offset * -sa + arc * ca,
                    ln.signed_offset * ca + arc * sa))
    return out


def route_length(route) -> float:
    """Sum of the walked segments: consecutive vertices on the same line."""
    total = 0.0
    for (la, aa), (lb, ab) in zip(route[:-1], route[1:]):
        if la == lb:
            total += abs(ab - aa)
    return total
