"""Turn-restricted shortest street-path oracle.

Distances are measured along the lines; a path starts at the origin, walks
along the current line, and may switch ("turn") to the other line at any
crossing, at most ``k`` times per the policy. The oracle returns the exact
shortest admissible distance to any point of the process.

Two solvers exist on purpose. Both take every crossing arc from the same
pairwise routine, which gives a crossing the same two arcs whichever of
its lines asks first, and add hop lengths in the same left-to-right
order, so they agree bit for bit; the tests rely on that.
Every policy reduces to the three fields its record holds, a turn budget
``k``, a lower-turn flag and a first-hop direction, and both solvers take
just these three.

* ``shortest_path`` solves one Realization, a view of one trial of a
  ChunkSample, and also returns the route, by one label-setting search
  (``_k_turn``) over the trial's slice of the chunk's arrays. It computes
  a line's crossings the first time it expands that line and pushes only
  hops that end within the incumbent, whose first value is t_max. The
  incumbent is a plain tuple holding the winning search state, and the
  route is read off that state's chain once, when the search ends. It is
  the slow reference the batched kernel is checked against.
* ``chunk_lengths`` solves every trial of a ChunkSample at once, lengths
  only, for every policy, by one kernel: Bellman-Ford by hop count over
  flat arrays of labels. Layer j holds one label per (trial, line,
  came-from line), the shortest length that reaches it with j turns, so a
  layer never holds more labels than the chunk's trials have line pairs.
  A label turns onto every other line of its trial, and keeps the hop
  while it ends below its trial's bound: one number a trial, which starts
  just above t_max (for an exactly-k search from k = 2 on, just above a
  reach that doubles pass by pass until it holds the trial's shortest
  path) and then is the incumbent, as each offer lowers it. The next
  layer is sorted and reduced out of the hops kept. Every layer spans the
  whole chunk, so its memory grows with the chunk; ``run_mc`` sizes its
  chunks by their expected line pairs. An offer finds the points nearest
  its labels with one ``searchsorted`` over complex keys line + 1j*arc of
  the chunk's points (``_point_keys``), built once per call: they hold 16
  bytes a point while the call runs, and building them briefly takes 8
  more.

The start is a crossing like any other: a path never turns onto the line
it came from, and a path starts on an origin line as if it came from the
other one (at a typical point, from its own line, which no turn reaches).
So at a typical intersection neither solver turns from one origin line
onto the other at the start, where the path may start on either.

The ``first_hop_positive_x`` restriction (forced for TWO_TURN_DIRECTED)
makes the first leg run along the positive arc direction of the first
origin line: zero-turn targets need arc >= 0 and first turns need a
strictly positive crossing arc.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import (
    ModelParams,
    PalmScenario,
    PointOnLine,
    TurnPolicy,
    _check_record,
    _check_scalar_t,
)
from .sampler import ChunkSample, Realization, _pair_arcs, sample_palm

__all__ = ["PathResult", "shortest_path", "sample_path", "chunk_lengths"]


@dataclass(frozen=True)
class PathResult:
    """Outcome of one shortest-path query.

    ``route`` lists (line_id, arc) vertices from the origin to the target;
    at a turn the same Euclidean point appears once per line, so segments
    walked are exactly the consecutive same-line vertex pairs. When no
    admissible target lies within ``t_max`` the result is censored:
    ``length`` is inf and the remaining fields are placeholders.
    """

    length: float
    turns_used: int
    target: PointOnLine | None
    route: tuple
    censored: bool
    t_max: float


def _nearest(arcs: np.ndarray, ref: float):
    """Smallest |arc - ref| over a sorted arc array, ties resolved to the
    smaller arc (argmin picks the first, i.e. leftmost, occurrence)."""
    d = np.abs(arcs - ref)
    i = int(np.argmin(d))
    return float(d[i]), float(arcs[i])


# ---- general K-turn search --------------------------------------------------

# The search runs on states (node, line, turns used) over the trial's
# slice of the chunk's arrays; line k of the trial is line id k, and the
# first n0 lines, as many as the scenario has, start from the origin. The
# sines and cosines of the trial's angles are formed once a query. A node is a
# crossing, keyed lower*n + higher by its two line indices, and no state
# turns at its own node, which leads back to the line it came from. The
# start node is key n0 - 1: at a typical intersection the crossing of the
# two origin lines, so no start turns onto the other, and at a typical
# point key 0, which no crossing has. A line's crossing table comes from
# ``_pair_arcs`` the first time the search expands that line and is kept
# for the rest of the query, so lines the search never reaches cost
# nothing. The key orders nodes as the index into
# the list of all line pairs would, so heap ties pop in pair order. The
# incumbent is the tuple (length, line, arc, turns, state) of the best
# target offered, ordered by (length, line, arc); its route is read off
# ``via`` once the search ends (see ``shortest_path``). It starts as
# (t_max, n, nan, -1, None), which every target within t_max beats, since a
# line id is below n: so t_max is the first incumbent, and an expansion
# pushes only the hops whose length stays within the incumbent, since a
# longer one could only be popped after the pop-time break below.
def _k_turn(real, t_max, k, include_lower, directed):
    chunk = real.chunk
    lo, hi = real._span
    n, n0 = hi - lo, chunk.n_origin
    angle = chunk.angle[lo:hi]
    trig = np.sin(angle), np.cos(angle)
    offset = chunk.offset[lo:hi]
    cuts = chunk.arc_start[lo:hi + 1].tolist()
    tables = {}  # line -> (arcs here, arcs there, other, key)

    best = (t_max, n, math.nan, -1, None)
    dist = {}
    via = {}  # state -> (previous state, arc on its line, arc on this line)
    heap = []
    for oi in range(1 if directed else n0):
        state = (n0 - 1, oi, 0)
        dist[state] = 0.0
        via[state] = (None, None, 0.0)
        heapq.heappush(heap, (0.0, 0, n0 - 1, oi))

    while heap:
        length, turns, node, li = heapq.heappop(heap)
        state = (node, li, turns)
        if length > dist.get(state, math.inf):
            continue
        if length > best[0]:
            break  # every remaining candidate is strictly longer

        ref = via[state][2]
        positive = directed and turns == 0
        if include_lower or turns == k:
            # offer the point of this line nearest ref (a directed start
            # takes arcs >= 0 only)
            arcs = chunk.arcs[cuts[li]:cuts[li + 1]]
            if positive:
                arcs = arcs[np.searchsorted(arcs, 0.0, side="left"):]
            if arcs.size:
                d, arc = _nearest(arcs, ref)
                total = length + d
                if (total, li, arc) < best[:3]:
                    best = (total, li, arc, turns, state)

        if turns == k:
            continue
        if li not in tables:
            other = np.arange(n - 1)
            other[li:] += 1
            here, there = _pair_arcs(trig, offset, li, other)
            key = np.minimum(other, li) * n + np.maximum(other, li)
            tables[li] = (here, there, other, key)
        here, there, other, key = tables[li]
        length2 = length + np.abs(here - ref)
        ok = (length2 <= best[0]) & (key != node)
        if positive:
            ok &= here > 0.0
        for l2, w, o, a_from, a_to in zip(
                length2[ok].tolist(), key[ok].tolist(), other[ok].tolist(),
                here[ok].tolist(), there[ok].tolist()):
            nstate = (w, o, turns + 1)
            if l2 < dist.get(nstate, math.inf):
                dist[nstate] = l2
                via[nstate] = (state, a_from, a_to)
                heapq.heappush(heap, (l2, turns + 1, w, o))
    return best, via


# ---- batched length-only layer kernel ---------------------------------------

_PAIR_BLOCK = 8192  # (label, next line) pairs solved at once
# first reach of an exactly-k search, as a share of t_max; a reach that
# rounds to 0 starts at t_max (see _chunk_lengths)
_FIRST_REACH = 1 / 16


def _runs(sizes, cap):
    """Cuts (a, b) of ``sizes`` into consecutive runs that sum to at most
    ``cap``, or hold one size that alone exceeds it."""
    ends, a = sizes.cumsum(), 0
    while a < sizes.size:
        b = max(a + 1, int(ends.searchsorted(ends[a] - sizes[a] + cap, "right")))
        yield a, b
        a = b


def _point_keys(chunk: ChunkSample) -> np.ndarray:
    """Every point of the chunk as the complex key line + 1j*arc. numpy
    orders complex values by real part, then imaginary part, so the keys
    sort in (line, arc) order, as the chunk keeps its points. Each part is
    stored as given, so a key holds its arc's exact bits. The keys take 16
    bytes a point while ``chunk_lengths`` runs."""
    arc_start = chunk.arc_start
    keys = np.empty(chunk.arcs.size, complex)
    keys.real = np.arange(arc_start.size - 1).repeat(arc_start[1:] - arc_start[:-1])
    keys.imag = chunk.arcs
    return keys


def _key_slots(keys, lines, refs):
    """``lo + np.searchsorted(arcs[lo:hi], ref)`` of each query (line, ref),
    lo:hi the points of its line, for every query at once: one
    ``searchsorted`` of line + 1j*ref over the ``_point_keys``."""
    query = np.empty(refs.size, complex)
    query.real = lines
    query.imag = refs
    return keys.searchsorted(query)


def _nearest_dist(chunk: ChunkSample, keys, lines, refs, nonneg_only=False):
    """Smallest |arc - ref| over the points of each line (inf without
    points), as ``_nearest`` computes it: by monotone rounding the minimum
    sits next to the slot ``_key_slots`` finds for ref among the chunk's
    ``_point_keys``. ``nonneg_only`` (used with ref 0) keeps only arcs
    >= 0."""
    arcs = chunk.arcs
    lo, hi = chunk.arc_start[lines], chunk.arc_start[lines + 1]
    idx = _key_slots(keys, lines, refs)
    d = np.full(refs.shape, np.inf)
    above = idx < hi
    d[above] = np.abs(arcs[idx[above]] - refs[above])
    if not nonneg_only:
        below = idx > lo
        d[below] = np.minimum(d[below], np.abs(arcs[idx[below] - 1] - refs[below]))
    return d


def _turn(bound, chunk, trig, rows, n_lines, positive):
    """The hops one turn further from the labels ``rows``, in blocks of at
    most _PAIR_BLOCK pairs (or one label's). A label or hop is (trial,
    line, line it came from, arc on its line, length). Each label below its
    trial's ``bound`` pairs with every other line of its trial but the one
    it came from, and keeps the hops that end below the bound and,
    ``positive``, at a positive arc. ``trig`` is (sin, cos) of the chunk's
    line angles and ``n_lines`` holds each trial's line count."""
    live = rows[4] < bound[rows[0]]
    trial, line, prev, ref, length = (col[live] for col in rows)
    reps = n_lines[trial] - 1
    for a, b in _runs(reps, _PAIR_BLOCK):
        r = reps[a:b]
        f = (a + np.arange(r.size)).repeat(r)  # label of each pair
        # a label's pair q is with line q of its trial, or q + 1 from the
        # label's own line on: the trial's first line, plus the pair's
        # index less that of the label's first pair
        m = (chunk.line_start[trial[a:b]] - (r.cumsum() - r)).repeat(r)
        m += np.arange(m.size)
        t, i = trial[f], line[f]
        m += m >= i
        here, there = _pair_arcs(trig, chunk.offset, i, m)
        new = length[f] + np.abs(here - ref[f])
        keep = (new < bound[t]) & (m != prev[f])
        if positive:
            keep &= here > 0.0
        yield t[keep], m[keep], i[keep], there[keep], new[keep]


def _labels(chunk, hops):
    """The shortest of the hops onto each (trial, line, came-from line): the
    arc a hop reaches depends on the two lines alone, so every later length
    grows with this one. The hops are sorted by (line, came-from line), so
    by trial too, and each run of equal keys reduced to its minimum. ``none``
    gives the columns when no label is live and so no hop comes."""
    none = (np.empty(0, np.int64),) * 3 + (np.empty(0),) * 2
    t, m, i, there, new = map(np.concatenate, zip(none, *hops))
    key = m * chunk.angle.size + i
    order = key.argsort()
    key = key[order]
    head = np.empty(key.size, bool)  # the first hop of each run
    head[:1] = True
    head[1:] = key[1:] != key[:-1]
    first = head.nonzero()[0]
    s = order[first]
    return t[s], m[s], i[s], there[s], np.minimum.reduceat(new[order], first)


def _search(bound, chunk, trig, keys, n_lines, trials, k, lower, directed):
    """Offer every path of at most k turns (exactly k unless ``lower``) of
    the given trials that ends below its trial's ``bound``, all in one
    pass: an offer lowers the bound to its length. Layer 0 holds the
    origin lines (only the first, ``directed``) at arc 0 and length 0, each
    as if it came from the trial's other origin line (at a typical point,
    from itself), so no first turn switches origin lines at the start; layer
    j + 1 the ``_labels`` of the hops ``_turn`` takes from layer j, but
    layer k is offered block by block, unlabelled. An empty layer below
    k ends the search, since no later layer can hold a label. Lengths add
    up hop by hop as in ``_k_turn``, so each offer is the length the search
    gives that path. ``trig``, ``keys`` and ``n_lines`` are as
    ``_chunk_lengths`` forms them."""
    n0 = 1 if directed else chunk.n_origin
    t = trials.repeat(n0)
    zeros = np.zeros(t.size)
    start = chunk.line_start[trials, None]
    layer = [(t, (start + np.arange(n0)).ravel(),
              (start + (chunk.n_origin - 1 - np.arange(n0))).ravel(), zeros, zeros)]
    for j in range(k + 1):
        if j:
            hops = _turn(bound, chunk, trig, rows, n_lines, directed and j == 1)
            layer = hops if j == k else [_labels(chunk, hops)]
            if j < k and not layer[0][0].size:
                break
        for rows in layer:
            if lower or j == k:
                t, m, _, ref, length = rows
                np.minimum.at(bound, t, length + _nearest_dist(
                    chunk, keys, m, ref, nonneg_only=directed and j == 0))


# ---- public API --------------------------------------------------------------

def _check_origin_lines(chunk: ChunkSample, line_start) -> None:
    """InputError unless every trial that ``line_start``, a slice of the
    chunk's, delimits holds the origin lines its scenario opens with."""
    if (np.diff(line_start) < chunk.n_origin).any():
        raise InputError(f"a trial holds fewer lines than the {chunk.n_origin} "
                         "origin line(s) of its scenario")


def shortest_path(real: Realization, policy: TurnPolicy,
                  t_max: float) -> PathResult:
    """Exact shortest admissible street distance on one realization.

    Censors at ``t_max`` (which must not exceed the sampled clip radius).
    Ties in length are broken by (line id, arc) of the target. InputError
    for a trial with fewer lines than its scenario's origin lines.
    """
    _check_record(real, Realization, "real")
    _check_record(policy, TurnPolicy, "policy")
    _check_origin_lines(real.chunk, real.chunk.line_start[real.trial:real.trial + 2])
    t_max = _check_scalar_t(t_max, real.clip_radius, "t_max")
    (length, line, arc, turns, state), via = _k_turn(
        real, t_max, policy.k, policy.include_lower_turn_paths,
        policy.first_hop_positive_x)
    if state is None:
        return PathResult(math.inf, -1, None, (), True, t_max)
    # walk the winning state's chain back to the origin: a popped state's
    # length is final, hops are non-negative and a push needs a strictly
    # shorter length, so no entry of the chain changed after the offer
    route = [(line, arc)]
    while state is not None:
        prev, arc_from, arc_to = via[state]
        route.append((state[1], arc_to))
        if prev is not None:
            route.append((prev[1], arc_from))
        state = prev
    return PathResult(length, turns, PointOnLine(line, arc),
                      tuple(reversed(route)), False, t_max)


def sample_path(params: ModelParams, scenario: PalmScenario,
                policy: TurnPolicy, t_max: float, seed) -> PathResult:
    """One fresh trial: sample a realization, query the oracle.

    The realization is clipped at radius ``t_max``: any street path of
    length at most t_max stays inside the disk of radius t_max, and a line
    farther than t_max from the origin cannot carry a reachable point, so
    nothing that matters is clipped away.
    """
    t_max = _check_scalar_t(t_max, name="t_max")
    return shortest_path(sample_palm(params, scenario, t_max, seed), policy, t_max)


def chunk_lengths(chunk: ChunkSample, policy: TurnPolicy,
                  t_max: float) -> np.ndarray:
    """Shortest admissible length of every trial of a chunk (inf when
    censored at ``t_max``), for every policy. Each entry equals
    ``shortest_path(chunk.realization(t), policy, t_max).length`` bit for
    bit. Each search pass spans every trial still searched, bounding each
    by one number, its incumbent, so memory grows with the chunk given: a
    layer holds at most one label per line pair of those trials, and
    ``_turn`` solves at most _PAIR_BLOCK hops at once. InputError, as
    ``shortest_path`` raises it, if a trial has fewer lines than its
    scenario's origin lines."""
    _check_record(chunk, ChunkSample, "chunk")
    _check_record(policy, TurnPolicy, "policy")
    _check_origin_lines(chunk, chunk.line_start)
    return _chunk_lengths(chunk, policy,
                          _check_scalar_t(t_max, chunk.clip_radius, "t_max"))


def _chunk_lengths(chunk: ChunkSample, policy: TurnPolicy,
                   t_max: float) -> np.ndarray:
    """``chunk_lengths`` of arguments it has checked, ``t_max`` a float."""
    k, lower, directed = (policy.k, policy.include_lower_turn_paths,
                          policy.first_hop_positive_x)
    trig = np.sin(chunk.angle), np.cos(chunk.angle)
    keys = _point_keys(chunk)
    n_lines = chunk.line_start[1:] - chunk.line_start[:-1]

    # bound is each trial's incumbent. A pass within reach h starts it just
    # above h, so the pass offers every path of length <= h. Without
    # lower-turn paths no offer bounds the layers below k, so from k = 2
    # on every trial still searched has one reach, which doubles until it
    # holds the trial's shortest path or reaches t_max; a first reach that
    # rounds to 0 (t_max a few subnormals) would never grow, so it is t_max
    reach = t_max if lower or k < 2 else _FIRST_REACH * t_max or t_max
    bound = np.empty(chunk.n_trials)
    todo = np.arange(chunk.n_trials)
    while todo.size:
        bound[todo] = math.nextafter(reach, math.inf)
        _search(bound, chunk, trig, keys, n_lines, todo, k, lower, directed)
        todo = todo[(bound[todo] > reach) & (reach < t_max)]
        reach = min(2.0 * reach, t_max)
    return np.where(bound <= t_max, bound, math.inf)
