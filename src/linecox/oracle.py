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
  hops that end within min(t_max, incumbent). It is the slow reference
  the batched kernel is checked against.
* ``chunk_lengths`` solves every trial of a ChunkSample at once, lengths
  only, for every policy, by one kernel: Bellman-Ford by hop count over
  flat arrays of labels. Layer j holds one label per (trial, line,
  came-from line), the shortest length that reaches it with j turns, so a
  layer never holds more labels than a trial has line pairs. A label
  turns onto every other line of its trial, and keeps the hop while it
  ends within t_max and below the trial's incumbent; the next layer is
  sorted and reduced out of the hops kept. Without lower-turn
  paths the kernel bounds each trial by a reach that doubles until it
  holds the trial's best.

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

from .model import (
    ModelParams,
    PalmScenario,
    PointOnLine,
    TurnPolicy,
    _check_t,
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


def _censored(t_max: float) -> PathResult:
    return PathResult(math.inf, -1, None, (), True, t_max)


def _nearest(arcs: np.ndarray, ref: float):
    """Smallest |arc - ref| over a sorted arc array, ties resolved to the
    smaller arc (argmin picks the first, i.e. leftmost, occurrence)."""
    d = np.abs(arcs - ref)
    i = int(np.argmin(d))
    return float(d[i]), float(arcs[i])


class _Best:
    """Incumbent candidate ordered by (length, line id, arc)."""

    __slots__ = ("key", "route", "turns")

    def __init__(self):
        self.key = None
        self.route = None
        self.turns = -1

    @property
    def length(self) -> float:
        return math.inf if self.key is None else self.key[0]

    def offer(self, length, line_id, arc, turns, route_builder):
        key = (length, line_id, arc)
        if self.key is None or key < self.key:
            self.key = key
            self.turns = turns
            self.route = route_builder()


def _scan_targets(best, arcs, ref, base, line_id, turns, t_max, prefix,
                  nonneg_only=False):
    """Offer the best point target on one line: length = base + min dist.

    ``prefix`` is a zero-argument callable producing the route up to this
    line (kept lazy so losing candidates never materialize their routes)."""
    if nonneg_only:
        arcs = arcs[np.searchsorted(arcs, 0.0, side="left"):]
    if arcs.size == 0:
        return
    d, arc = _nearest(arcs, ref)
    length = base + d
    if length <= t_max:
        best.offer(length, line_id, arc, turns,
                   lambda: prefix() + ((line_id, arc),))


# ---- general K-turn search --------------------------------------------------

_ORIGIN = -1  # pseudo node, keyed below every crossing


# The search runs on states (node, line, turns used) over the trial's
# slice of the chunk's arrays; line k of the trial is line id k. A node is a
# crossing, keyed lower*n + higher by its two line indices, or _ORIGIN. A
# line's crossing table comes from ``_pair_arcs`` the first time the search
# expands that line and is kept for the rest of the query, so lines the
# search never reaches cost nothing. An expansion pushes only the hops whose
# length stays within min(t_max, incumbent): a longer one could only be
# popped after the pop-time break below. The key orders nodes as the index
# into the list of all line pairs would, so heap ties pop in pair order.
def _k_turn(best, real, t_max, k, include_lower, directed):
    chunk = real.chunk
    lo, hi = real._span
    n = hi - lo
    trig = tuple(x[lo:hi] for x in chunk._trig)
    offset = chunk.offset[lo:hi]
    on_origin = chunk.through_origin[lo:hi]
    cuts = chunk.arc_start[lo:hi + 1].tolist()
    tables = {}  # line -> (arcs here, arcs there, other, key, mutual)

    origin = np.flatnonzero(on_origin).tolist()
    if not origin:
        raise ValueError("realization has no origin line to start from")
    dist = {}
    via = {}  # state -> (previous state, arc on its line, arc on this line)
    heap = []
    for oi in origin[:1] if directed else origin:
        state = (_ORIGIN, oi, 0)
        dist[state] = 0.0
        via[state] = (None, None, 0.0)
        heapq.heappush(heap, (0.0, 0, _ORIGIN, oi))

    while heap:
        length, turns, node, li = heapq.heappop(heap)
        state = (node, li, turns)
        if length > dist.get(state, math.inf):
            continue
        if length > best.length:
            break  # every remaining candidate is strictly longer

        ref = via[state][2]
        at_start = node == _ORIGIN
        if include_lower or turns == k:
            _scan_targets(
                best, chunk.arcs[cuts[li]:cuts[li + 1]], ref, length, li,
                turns, t_max, _route_of(via, state),
                nonneg_only=directed and at_start,
            )

        if turns == k:
            continue
        if li not in tables:
            other = np.arange(n - 1)
            other[li:] += 1
            here, there = _pair_arcs(trig, offset, li, other)
            key = np.minimum(other, li) * n + np.maximum(other, li)
            tables[li] = (here, there, other, key, on_origin[other] & on_origin[li])
        here, there, other, key, mutual = tables[li]
        length2 = length + np.abs(here - ref)
        ok = (length2 <= min(t_max, best.length)) & (key != node)
        if at_start:
            # the mutual crossing of the origin lines is the start point
            # itself; switching lines there is not a turn, it is covered by
            # the start states
            ok &= ~mutual
            if directed:
                ok &= here > 0.0
        for l2, w, o, a_from, a_to in zip(
                length2[ok].tolist(), key[ok].tolist(), other[ok].tolist(),
                here[ok].tolist(), there[ok].tolist()):
            nstate = (w, o, turns + 1)
            if l2 < dist.get(nstate, math.inf):
                dist[nstate] = l2
                via[nstate] = (state, a_from, a_to)
                heapq.heappush(heap, (l2, turns + 1, w, o))


def _route_of(via, state):
    """Route prefix (vertex list) for a state, built lazily only when a
    candidate actually improves the incumbent."""

    def build():
        verts = []
        s = state
        while s is not None:
            prev, arc_from, arc_to = via[s]
            verts.append((s[1], arc_to))
            if prev is not None:
                verts.append((prev[1], arc_from))
            s = prev
        verts.reverse()
        return tuple(verts)

    return build


# ---- batched length-only layer kernel ---------------------------------------

_PAIR_BLOCK = 8192  # (label, next line) pairs solved at once
_LABEL_BLOCK = 1 << 16  # most labels (lines² a trial) one pass searches at once
# first reach of an exactly-k search, as a share of t_max (see chunk_lengths)
_FIRST_REACH = 1 / 16


def _runs(sizes, cap):
    """Cuts (a, b) of ``sizes`` into consecutive runs that sum to at most
    ``cap``, or hold one size that alone exceeds it."""
    ends, a = np.cumsum(sizes), 0
    while a < sizes.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + cap, "right")))
        yield a, b
        a = b


def _segment_searchsorted(a, lo, hi, x):
    """``lo + np.searchsorted(a[lo:hi], x, side="left")`` for every query at
    once, as a binary search over each query's sorted segment of ``a``."""
    lo, hi = lo.copy(), hi.copy()
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        active = lo < hi
        mid = (lo + hi) >> 1
        right = active & (a[np.minimum(mid, a.size - 1)] < x)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
    return lo


def _nearest_dist(chunk: ChunkSample, lines, refs, nonneg_only=False):
    """Smallest |arc - ref| over the points of each line (inf without
    points), as ``_nearest`` computes it: by monotone rounding the minimum
    sits next to where ref sorts in. ``nonneg_only`` (used with ref 0) keeps
    only arcs >= 0."""
    arcs = chunk.arcs
    lo, hi = chunk.arc_start[lines], chunk.arc_start[lines + 1]
    idx = _segment_searchsorted(arcs, lo, hi, refs)
    d = np.full(refs.shape, np.inf)
    above = idx < hi
    d[above] = np.abs(arcs[idx[above]] - refs[above])
    if not nonneg_only:
        below = idx > lo
        d[below] = np.minimum(d[below], np.abs(arcs[idx[below] - 1] - refs[below]))
    return d


def _offer(best, trials, lengths, t_max):
    keep = lengths <= t_max
    np.minimum.at(best, trials[keep], lengths[keep])


def _turn(best, chunk, rows, reach, first, directed):
    """The hops one turn further from the labels ``rows``, in blocks of at
    most _PAIR_BLOCK pairs (or one label's). A label or hop is (trial,
    line, line it came from, arc on its line, length). Each label shorter
    than its trial's best pairs with every other line of its trial but the
    one it came from, and keeps the hops that end within the trial's reach
    and below its best. The first turn skips the other origin line (their
    crossing is the start point) and, ``directed``, every hop to an arc
    that is not positive."""
    n_lines = np.diff(chunk.line_start)
    live = rows[4] < best[rows[0]]
    trial, line, prev, ref, length = (col[live] for col in rows)
    reps = n_lines[trial] - 1
    for a, b in _runs(reps, _PAIR_BLOCK):
        r = reps[a:b]
        f = a + np.repeat(np.arange(r.size), r)  # label of each pair
        t, i = trial[f], line[f]
        m = chunk.line_start[t] + (np.arange(f.size)
                                   - np.repeat(np.cumsum(r) - r, r))
        m += m >= i
        here, there = _pair_arcs(chunk._trig, chunk.offset, i, m)
        new = length[f] + np.abs(here - ref[f])
        keep = (new <= reach[t]) & (new < best[t]) & (m != prev[f])
        if first:
            keep &= ~chunk.through_origin[m]
            if directed:
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
    order = np.argsort(key)
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    s = order[first]
    return t[s], m[s], i[s], there[s], np.minimum.reduceat(new[order], first)


def _search(best, chunk, trials, reach, t_max, k, lower, directed):
    """Offer every path of at most k turns (exactly k unless ``lower``) of
    the given trials, in runs of at most _LABEL_BLOCK labels (lines² a
    trial) or one trial. Layer 0 holds the origin lines (only the first,
    ``directed``) at arc 0 and length 0; layer j + 1 the ``_labels`` of the
    hops ``_turn`` takes from layer j, but layer k is offered block by
    block, unlabelled. An empty layer below k ends the search, since no
    later layer can hold a label. Lengths add up hop by hop as in
    ``_k_turn``, so each offer is the length the search gives that path."""
    n_lines = np.diff(chunk.line_start)[trials]
    n0 = 1 if directed else chunk.n_origin
    for a, b in _runs(n_lines * n_lines, _LABEL_BLOCK):
        t = np.repeat(trials[a:b], n0)
        zeros = np.zeros(t.size)
        layer = [(t, chunk.line_start[t] + np.tile(np.arange(n0), b - a),
                  np.full(t.size, -1), zeros, zeros)]
        for j in range(k + 1):
            if j:
                hops = _turn(best, chunk, rows, reach, j == 1, directed)
                layer = hops if j == k else [_labels(chunk, hops)]
                if j < k and not layer[0][0].size:
                    break
            for rows in layer:
                if lower or j == k:
                    t, m, _, ref, length = rows
                    _offer(best, t, length + _nearest_dist(
                        chunk, m, ref, nonneg_only=directed and j == 0), t_max)


# ---- public API --------------------------------------------------------------

def shortest_path(real: Realization, policy: TurnPolicy,
                  t_max: float) -> PathResult:
    """Exact shortest admissible street distance on one realization.

    Censors at ``t_max`` (which must not exceed the sampled clip radius).
    Ties in length are broken by (line id, arc) of the target.
    """
    t_max = float(_check_t(t_max, real.clip_radius, "t_max"))
    best = _Best()
    _k_turn(best, real, t_max, policy.k, policy.include_lower_turn_paths,
            policy.first_hop_positive_x)
    if best.key is None:
        return _censored(t_max)
    length, line_id, arc = best.key
    return PathResult(length, best.turns, PointOnLine(line_id, arc),
                      best.route, False, t_max)


def sample_path(params: ModelParams, scenario: PalmScenario,
                policy: TurnPolicy, t_max: float, seed,
                clip_radius: float | None = None) -> PathResult:
    """One fresh trial: sample a realization, query the oracle.

    The clip radius defaults to ``t_max``: any street path of length at most
    t_max stays inside the disk of radius t_max, and a line farther than
    t_max from the origin cannot carry a reachable point, so nothing that
    matters is clipped away.
    """
    R = float(t_max if clip_radius is None else clip_radius)
    real = sample_palm(params, scenario, R, seed)
    return shortest_path(real, policy, t_max)


def chunk_lengths(chunk: ChunkSample, policy: TurnPolicy,
                  t_max: float) -> np.ndarray:
    """Shortest admissible length of every trial of a chunk (inf when
    censored at ``t_max``), for every policy. Each entry equals
    ``shortest_path(chunk.realization(t), policy, t_max).length`` bit for
    bit."""
    t_max = float(_check_t(t_max, chunk.clip_radius, "t_max"))
    k, lower, directed = (policy.k, policy.include_lower_turn_paths,
                          policy.first_hop_positive_x)

    best = np.full(chunk.n_trials, math.inf)
    # without lower-turn paths no incumbent bounds the layers below k, so
    # from k = 2 on each trial is searched within a reach that doubles
    # until it holds the trial's best: a search within reach h offers
    # every path of length <= h
    reach = np.full(chunk.n_trials,
                    t_max if lower or k < 2 else _FIRST_REACH * t_max)
    todo = np.arange(chunk.n_trials)
    while todo.size:
        _search(best, chunk, todo, reach, t_max, k, lower, directed)
        todo = todo[(best[todo] > reach[todo]) & (reach[todo] < t_max)]
        reach[todo] = np.minimum(2.0 * reach[todo], t_max)
    return best
