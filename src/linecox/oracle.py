"""Turn-restricted shortest street-path oracle.

Distances are measured along the lines; a path starts at the origin, walks
along the current line, and may switch ("turn") to the other line at any
crossing, at most ``k`` times per the policy. The oracle returns the exact
shortest admissible distance to any point of the process.

Two implementations exist on purpose: closed-form enumerators for the small
named budgets (zero, one, two-turn-directed) and a label-setting search on
the crossing graph for general K_TURN. Both take every crossing arc from
the same pairwise routine and add hop lengths in the same left-to-right
order, so the two agree bit for bit; the tests rely on that. Neither builds
the whole graph: the search computes a line's crossings the first time it
expands that line and pushes only hops that end within min(t_max,
incumbent), and the two-turn enumerator filters second lines against the
same bound as one array before its loop. A query thus costs about what the
lines near the origin hold, not the square of the line count. The named
budgets also have length-only batched enumerators (``chunk_lengths``) that
solve every trial of a ChunkSample at once with the same arithmetic, so they
agree bit for bit with ``shortest_path`` on each trial.

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

from .errors import PolicyBudgetNegative, TBeyondClip
from .model import (
    ModelParams,
    PalmScenario,
    PointOnLine,
    PolicyKind,
    TurnPolicy,
)
from .sampler import ChunkSample, Realization, _pair_arcs, sample_palm

__all__ = ["PathResult", "shortest_path", "sample_path", "sample_D",
           "chunk_lengths", "route_positions", "route_length"]


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

    ``prefix`` is the route up to this line, either a vertex tuple or a
    zero-argument callable producing one (kept lazy so losing candidates
    never materialize their routes)."""
    if nonneg_only:
        arcs = arcs[np.searchsorted(arcs, 0.0, side="left"):]
    if arcs.size == 0:
        return
    d, arc = _nearest(arcs, ref)
    length = base + d
    if length <= t_max:
        best.offer(length, line_id, arc, turns,
                   lambda: (prefix() if callable(prefix) else prefix)
                   + ((line_id, arc),))


def _origin_indices(real: Realization, directed: bool):
    idx = [k for k, ln in enumerate(real.lines) if ln.through_origin]
    if not idx:
        raise ValueError("realization has no origin line to start from")
    return idx[:1] if directed else idx


def _origin_crossings(real: Realization, oi: int, directed: bool):
    """Crossings of origin line ``oi`` with every non-origin line, as
    (sorted |arc|) arrays: base length, arc on origin, arc on other, index
    of other line."""
    n = len(real.lines)
    jj = np.array([k for k in range(n) if not real.lines[k].through_origin],
                  dtype=int)
    if jj.size == 0:
        return []
    ii = np.full_like(jj, oi)
    s_o, u_j = _pair_arcs(real._trig, real._offsets, ii, jj)
    ok = np.isfinite(s_o)
    if directed:
        ok &= s_o > 0.0
    recs = [(abs(float(s)), float(s), float(u), int(j))
            for s, u, j in zip(s_o[ok], u_j[ok], jj[ok])]
    recs.sort()
    return recs


def _crossings(real: Realization, li: int):
    """Crossings of line ``li`` with every other line, in other-line order:
    (arc on li, arc on the other line, other line index) as arrays. A
    near-parallel pair gives nan arcs, which every length bound rejects.
    Each pair goes to ``_pair_arcs`` lower index first, so a crossing has
    the same two arcs whichever of its lines asks for it."""
    other = np.arange(len(real.lines) - 1)
    other[li:] += 1
    a_lo, a_hi = _pair_arcs(real._trig, real._offsets,
                            np.minimum(other, li), np.maximum(other, li))
    return (np.concatenate((a_hi[:li], a_lo[li:])),
            np.concatenate((a_lo[:li], a_hi[li:])), other)


def _enum_zero(best, real, t_max, directed):
    for oi in _origin_indices(real, directed):
        lid = real.lines[oi].id
        _scan_targets(best, real.arcs_by_line[oi], 0.0, 0.0, lid, 0, t_max,
                      ((lid, 0.0),), nonneg_only=directed)


def _enum_one(best, real, t_max, directed):
    for oi in _origin_indices(real, directed):
        olid = real.lines[oi].id
        for base, s, u, j in _origin_crossings(real, oi, directed):
            if base >= best.length or base > t_max:
                break  # sorted by first-hop length; nothing better follows
            jlid = real.lines[j].id
            prefix = ((olid, 0.0), (olid, s), (jlid, u))
            _scan_targets(best, real.arcs_by_line[j], u, base, jlid, 1,
                          t_max, prefix)


def _enum_two_directed(best, real, t_max):
    oi = _origin_indices(real, True)[0]
    olid = real.lines[oi].id
    for base1, s, u, i in _origin_crossings(real, oi, True):
        if base1 >= best.length or base1 > t_max:
            break
        ilid = real.lines[i].id
        a_i, a_m, mm = _crossings(real, i)
        base2 = base1 + np.abs(a_i - u)
        # only second lines that can beat the incumbent as it stands now go
        # through the loop, which tests each against the incumbent again
        near = (base2 < best.length) & (base2 <= t_max) & (mm != oi)
        for b2, ai, am, m in zip(base2[near].tolist(), a_i[near].tolist(),
                                 a_m[near].tolist(), mm[near].tolist()):
            if b2 >= best.length:
                continue
            mlid = real.lines[m].id
            prefix = ((olid, 0.0), (olid, s), (ilid, u), (ilid, ai),
                      (mlid, am))
            _scan_targets(best, real.arcs_by_line[m], am, b2, mlid, 2,
                          t_max, prefix)


# ---- general K-turn search --------------------------------------------------

_ORIGIN = -1  # pseudo node, keyed below every crossing


# The search runs on states (node, line, turns used): a node is a crossing,
# keyed lower*n + higher by its two line indices, or _ORIGIN. A line's
# crossing table is built by ``_crossings`` the first time the search
# expands that line and kept for the rest of the query, so lines the search
# never reaches cost nothing. An expansion pushes only the hops whose length
# stays within min(t_max, incumbent): a longer one could only be popped
# after the pop-time break below. The key orders nodes as the index into
# the list of all line pairs would, so heap ties pop in pair order.
def _k_turn(best, real, t_max, k, include_lower, directed):
    n = len(real.lines)
    lids = [ln.id for ln in real.lines]
    on_origin = np.array([ln.through_origin for ln in real.lines])
    tables = {}  # line index -> (arcs here, arcs there, other, key, mutual)

    dist = {}
    via = {}  # state -> (previous state, arc on its line, arc on this line)
    heap = []
    for oi in _origin_indices(real, directed):
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
                best, real.arcs_by_line[li], ref, length, lids[li], turns,
                t_max, _route_of(via, state, lids),
                nonneg_only=directed and at_start,
            )

        if turns == k:
            continue
        if li not in tables:
            here, there, other = _crossings(real, li)
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


def _route_of(via, state, lids):
    """Route prefix (vertex list) for a state, built lazily only when a
    candidate actually improves the incumbent."""

    def build():
        verts = []
        s = state
        while s is not None:
            prev, arc_from, arc_to = via[s]
            verts.append((lids[s[1]], arc_to))
            if prev is not None:
                verts.append((lids[prev[1]], arc_from))
            s = prev
        verts.reverse()
        return tuple(verts)

    return build


# ---- batched length-only enumerators ----------------------------------------

_PAIR_BLOCK = 8192  # two-turn (first line, second line) pairs solved at once


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


def _origin_lines(chunk: ChunkSample, directed: bool):
    """Origin line indices of every trial, the first origin line of each
    trial first; only the first with ``directed``."""
    firsts = chunk.line_start[:-1]
    count = 1 if directed else chunk.n_origin
    return [firsts + s for s in range(count)]


def _batch_zero(best, chunk, t_max, directed):
    for lines in _origin_lines(chunk, directed):
        refs = np.zeros(lines.size)
        length = 0.0 + _nearest_dist(chunk, lines, refs, nonneg_only=directed)
        _offer(best, np.arange(lines.size), length, t_max)


def _first_hops(chunk, t_max, directed):
    """Crossings of origin lines with background lines of the same trial
    that a first hop of at most t_max reaches: (trial, other line, hop
    length, arc on the other line)."""
    bg = np.flatnonzero(~chunk.through_origin)
    out = []
    for origin in _origin_lines(chunk, directed):
        s_o, u_j = _pair_arcs(chunk._trig, chunk.offset, origin[chunk.trial[bg]], bg)
        ok = np.isfinite(s_o)
        if directed:
            ok &= s_o > 0.0
        ok[ok] = np.abs(s_o[ok]) <= t_max
        out.append((chunk.trial[bg][ok], bg[ok], np.abs(s_o[ok]), u_j[ok]))
    return [np.concatenate(parts) for parts in zip(*out)]


def _batch_one(best, chunk, t_max, directed):
    trials, j, base, u = _first_hops(chunk, t_max, directed)
    _offer(best, trials, base + _nearest_dist(chunk, j, u), t_max)


def _batch_two_directed(best, chunk, t_max):
    trials, first, base1, u = _first_hops(chunk, t_max, True)
    # as in _enum_two_directed, a leg no shorter than the trial's incumbent
    # cannot improve it
    keep = base1 < best[trials]
    trials, first, base1, u = trials[keep], first[keep], base1[keep], u[keep]
    # second lines: every line of the trial but the first origin line and
    # the first-turn line itself, in blocks of about _PAIR_BLOCK pairs
    n_second = np.diff(chunk.line_start)[trials] - 2
    ends = np.cumsum(n_second)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1] if ends.size else 0,
                                           _PAIR_BLOCK))
    for a, b in zip(cuts, np.append(cuts[1:], trials.size)):
        reps = n_second[a:b]
        f = a + np.repeat(np.arange(reps.size), reps)  # first hop of each pair
        t, i = trials[f], first[f]
        m = chunk.line_start[t] + 1 + (np.arange(f.size)
                                       - np.repeat(np.cumsum(reps) - reps, reps))
        m += m >= i
        arc_lo, arc_hi = _pair_arcs(chunk._trig, chunk.offset,
                                    np.minimum(i, m), np.maximum(i, m))
        a_i = np.where(i < m, arc_lo, arc_hi)
        a_m = np.where(i < m, arc_hi, arc_lo)
        ok = np.isfinite(a_i)
        base2 = np.full(f.size, np.inf)
        base2[ok] = base1[f][ok] + np.abs(a_i[ok] - u[f][ok])
        near = (base2 <= t_max) & (base2 < best[t])
        _offer(best, t[near],
               base2[near] + _nearest_dist(chunk, m[near], a_m[near]), t_max)


# ---- public API --------------------------------------------------------------

def _budget(policy: TurnPolicy) -> int:
    fixed = {PolicyKind.ZERO_TURN: 0, PolicyKind.ONE_TURN: 1,
             PolicyKind.TWO_TURN_DIRECTED: 2}
    k = fixed.get(policy.kind, policy.k)
    if k < 0:
        raise PolicyBudgetNegative(f"turn budget must be >= 0, got {k}")
    return int(k)


def _horizon(t_max, clip_radius: float) -> float:
    t_max = float(t_max)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if t_max > clip_radius:
        raise TBeyondClip(f"t_max={t_max} exceeds clip_radius={clip_radius}")
    return t_max


def _directed(policy: TurnPolicy) -> bool:
    return (policy.first_hop_positive_x
            or policy.kind is PolicyKind.TWO_TURN_DIRECTED)


def shortest_path(real: Realization, policy: TurnPolicy,
                  t_max: float) -> PathResult:
    """Exact shortest admissible street distance on one realization.

    Censors at ``t_max`` (which must not exceed the sampled clip radius).
    Ties in length are broken by (line id, arc) of the target.
    """
    k = _budget(policy)
    t_max = _horizon(t_max, real.clip_radius)
    directed = _directed(policy)

    best = _Best()
    if policy.kind is PolicyKind.ZERO_TURN:
        _enum_zero(best, real, t_max, directed)
    elif policy.kind is PolicyKind.ONE_TURN:
        if policy.include_lower_turn_paths:
            _enum_zero(best, real, t_max, directed)
        _enum_one(best, real, t_max, directed)
    elif policy.kind is PolicyKind.TWO_TURN_DIRECTED:
        if policy.include_lower_turn_paths:
            _enum_zero(best, real, t_max, True)
            _enum_one(best, real, t_max, True)
        _enum_two_directed(best, real, t_max)
    elif policy.kind is PolicyKind.K_TURN:
        _k_turn(best, real, t_max, k, policy.include_lower_turn_paths,
                directed)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown policy kind {policy.kind!r}")

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


def sample_D(params: ModelParams, scenario: PalmScenario, policy: TurnPolicy,
             t_max: float, seed) -> float:
    """Shortest-distance draw; inf means censored at t_max."""
    return sample_path(params, scenario, policy, t_max, seed).length


def chunk_lengths(chunk: ChunkSample, policy: TurnPolicy,
                  t_max: float) -> np.ndarray:
    """Shortest admissible length of every trial of a chunk (inf when
    censored at ``t_max``) for the named policies ZERO_TURN, ONE_TURN and
    TWO_TURN_DIRECTED; K_TURN is solved per trial by ``shortest_path``.
    Each entry equals ``shortest_path(chunk.realization(t), policy,
    t_max).length`` bit for bit."""
    t_max = _horizon(t_max, chunk.clip_radius)
    directed = _directed(policy)

    best = np.full(chunk.n_trials, math.inf)
    if policy.kind is PolicyKind.ZERO_TURN:
        _batch_zero(best, chunk, t_max, directed)
    elif policy.kind is PolicyKind.ONE_TURN:
        if policy.include_lower_turn_paths:
            _batch_zero(best, chunk, t_max, directed)
        _batch_one(best, chunk, t_max, directed)
    elif policy.kind is PolicyKind.TWO_TURN_DIRECTED:
        if policy.include_lower_turn_paths:
            _batch_zero(best, chunk, t_max, True)
            _batch_one(best, chunk, t_max, True)
        _batch_two_directed(best, chunk, t_max)
    else:
        raise ValueError(f"no batched enumerator for {policy.kind!r}; "
                         "use shortest_path per trial")
    return best


# ---- route helpers (used by tests and applications) --------------------------

def route_positions(real: Realization, route) -> list:
    """Euclidean coordinates of the route vertices."""
    out = []
    for lid, arc in route:
        ln = real.lines[real.index_of(lid)]
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
