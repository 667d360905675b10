import dataclasses
import hashlib
import heapq
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from linecox import (
    InputError,
    ModelParams,
    NonFinite,
    PolicyBudgetNegative,
    TBeyondClip,
    TurnPolicy,
    chunk_lengths,
    run_mc,
    sample_palm,
    shortest_path,
    typical_intersection,
    typical_point,
)
from linecox.model import Line
from linecox.sampler import _MIN_ANGLE_GAP, Realization, _pair_arcs
from realizations import (hand_chunk, one_trial, route_length, route_positions,
                          sample_D, trial_geometry)

HPI = math.pi / 2


def _trig(angle):
    """(sin, cos) of the angles, as ``_pair_arcs`` takes them."""
    angle = np.asarray(angle, dtype=float)
    return np.sin(angle), np.cos(angle)


def _assert_route(route, expected):
    # crossing arcs on near-axis lines carry ~1e-17 float residue
    assert len(route) == len(expected)
    for (lid, arc), (elid, earc) in zip(route, expected):
        assert lid == elid
        assert arc == pytest.approx(earc, abs=1e-12)


def build(lines, arcs, clip=5.0):
    """Hand fixture helper. Vertical line at x=c is (angle pi/2, offset -c)
    with arc = y; horizontal at y=c is (angle 0, offset c) with arc = x."""
    return one_trial(lines, arcs, typical_point(), clip)


# The hand-built trials of this module, each with the (policy, t_max)
# queries its tests make; test_both_solvers_agree_on_every_hand_built_trial
# runs every query through both solvers.
def street_metric():
    # target at (0.3, 0.5) is Euclidean-nearer (0.583) but 0.8 by street;
    # the point at arc 0.7 on the origin line must win
    return build([Line(0, 0.0, 0.0, True), Line(1, HPI, -0.3)], [[0.7], [0.5]])


def one_line():
    return build([Line(0, 0.0, 0.0, True)], [[-0.2, 0.5]])


def one_turn_away():
    return build([Line(0, 0.0, 0.0, True), Line(1, HPI, -1.0)], [[], [0.25]])


def tie_on_one_line():
    return build([Line(0, 0.0, 0.0, True)], [[-0.5, 0.5]])


def tie_at_an_intersection():
    return one_trial((Line(0, 0.0, 0.0, True), Line(1, HPI, 0.0, True)),
                     (np.array([0.5]), np.array([-0.5])), typical_intersection(), 5.0)


def nearer_zero_turn():
    return build([Line(0, 0.0, 0.0, True), Line(1, HPI, -0.4)], [[0.1], [0.3]])


def two_turns_ahead():
    return build([Line(0, 0.0, 0.0, True), Line(1, HPI, -0.5), Line(2, 0.0, 0.8)],
                 [[], [], [0.9]])


def two_turns_behind():
    return build([Line(0, 0.0, 0.0, True), Line(1, HPI, 0.5), Line(2, 0.0, 0.3)],
                 [[], [], [-0.2]])


def tie_with_the_incumbent():
    """Lines 1 and 2 cross at (0.5, 0.5), where each holds a point; line 1
    runs parallel to the origin line. The one-turn path along line 2 and
    the two-turn path onto line 1 both end there, equally long, and the
    second reaches the lower line id."""
    lines = [Line(0, 0.0, 0.0, True), Line(1, 0.0, 0.5), Line(2, HPI, -0.5)]
    trig, offset = _trig([0.0, 0.0, HPI]), np.array([0.0, 0.5, -0.5])
    on_2, on_1 = _pair_arcs(trig, offset, np.array([2]), np.array([1]))
    return build(lines, [[], on_1, on_2])


def tie_with_t_max():
    lines = [Line(0, 0.0, 0.0, True), Line(1, HPI, -0.5), Line(2, 0.0, 0.25)]
    _, on_2 = _pair_arcs(_trig([0.0, HPI, 0.0]), np.array([0.0, -0.5, 0.25]),
                         np.array([1]), np.array([2]))
    return build(lines, [[], [], on_2])


def eight_lines():
    return hand_chunk().realization(0)


HAND_QUERIES = {
    street_metric: [(TurnPolicy.one_turn(), 2.0)],
    one_line: [(TurnPolicy.zero_turn(), 2.0),
               (TurnPolicy.k_turn(0, first_hop_positive_x=True), 2.0)],
    one_turn_away: [(TurnPolicy.one_turn(), 2.0), (TurnPolicy.zero_turn(), 1.2)],
    tie_on_one_line: [(TurnPolicy.zero_turn(), 1.0)],
    tie_at_an_intersection: [(TurnPolicy.zero_turn(), 1.0)],
    nearer_zero_turn: [(TurnPolicy.k_turn(1, include_lower_turn_paths=False), 2.0),
                       (TurnPolicy.k_turn(1), 2.0)],
    two_turns_ahead: [(TurnPolicy.two_turn_directed(), 3.0)],
    two_turns_behind: [(TurnPolicy.k_turn(2), 3.0), (TurnPolicy.two_turn_directed(), 3.0)],
    tie_with_the_incumbent: [(TurnPolicy.k_turn(2), 3.0)],
    tie_with_t_max: [(TurnPolicy.two_turn_directed(), 3.0),
                     (TurnPolicy.k_turn(2, first_hop_positive_x=True), 3.0)],
    # the key-search fixture of test_batched, under every search setting
    eight_lines: [(TurnPolicy.k_turn(k, lower, directed), t_max) for k in range(4)
                  for lower in (True, False) for directed in (False, True)
                  for t_max in (3.0, 0.5)],
}


def test_street_metric_not_euclidean():
    real = street_metric()
    res = shortest_path(real, TurnPolicy.one_turn(), 2.0)
    assert res.length == 0.7
    assert res.turns_used == 0
    assert (res.target.line_id, res.target.arc_coord) == (0, 0.7)


def test_zero_turn_directed_skips_negative_axis():
    real = one_line()
    und = shortest_path(real, TurnPolicy.zero_turn(), 2.0)
    assert (und.length, und.target.arc_coord) == (0.2, -0.2)
    direct = shortest_path(real, TurnPolicy.k_turn(0, first_hop_positive_x=True),
                           2.0)
    assert (direct.length, direct.target.arc_coord) == (0.5, 0.5)


def test_one_turn_arithmetic_and_censoring():
    real = one_turn_away()
    res = shortest_path(real, TurnPolicy.one_turn(), 2.0)
    assert res.length == pytest.approx(1.25, abs=1e-12)
    assert res.turns_used == 1
    _assert_route(res.route, ((0, 0.0), (0, 1.0), (1, 0.0), (1, 0.25)))
    assert route_length(res.route) == res.length

    cens = shortest_path(real, TurnPolicy.zero_turn(), 1.2)
    assert cens.censored and math.isinf(cens.length)
    assert cens.turns_used == -1 and cens.target is None and cens.route == ()
    assert cens.t_max == 1.2


def test_tie_break_by_line_then_arc():
    res = shortest_path(tie_on_one_line(), TurnPolicy.zero_turn(), 1.0)
    assert res.target.arc_coord == -0.5

    res = shortest_path(tie_at_an_intersection(), TurnPolicy.zero_turn(), 1.0)
    assert (res.target.line_id, res.target.arc_coord) == (0, 0.5)


def test_exactly_one_turn_excludes_nearer_zero_turn_point():
    real = nearer_zero_turn()
    res = shortest_path(real, TurnPolicy.k_turn(1, include_lower_turn_paths=False),
                        2.0)
    assert res.length == pytest.approx(0.7, abs=0)
    assert res.turns_used == 1
    both = shortest_path(real, TurnPolicy.k_turn(1), 2.0)
    assert (both.length, both.turns_used) == (0.1, 0)


def test_two_turn_directed_fixture():
    real = two_turns_ahead()
    res = shortest_path(real, TurnPolicy.two_turn_directed(), 3.0)
    assert res.length == pytest.approx(1.7, abs=1e-15)
    assert res.turns_used == 2
    _assert_route(res.route, ((0, 0.0), (0, 0.5), (1, 0.0), (1, 0.8),
                              (2, 0.5), (2, 0.9)))
    pos = route_positions(real, res.route)
    # turn vertices repeat the same Euclidean point on the two lines
    assert pos[1] == pytest.approx(pos[2], abs=1e-12)
    assert pos[3] == pytest.approx(pos[4], abs=1e-12)
    assert route_length(res.route) == pytest.approx(res.length, abs=1e-12)


def test_directed_censors_when_route_needs_negative_first_hop():
    real = two_turns_behind()
    und = shortest_path(real, TurnPolicy.k_turn(2), 3.0)
    assert und.length == pytest.approx(1.1, abs=1e-15)
    direct = shortest_path(real, TurnPolicy.two_turn_directed(), 3.0)
    assert direct.censored


def test_budget_and_horizon_monotonicity():
    p = ModelParams(1.0, 1.0)
    for s in range(40):
        real = sample_palm(p, typical_point(), 3.0, seed=(77, s))
        lens = [shortest_path(real, TurnPolicy.k_turn(k), 3.0).length
                for k in range(4)]
        assert all(a >= b for a, b in zip(lens, lens[1:]))
        near = shortest_path(real, TurnPolicy.one_turn(), 1.0).length
        far = shortest_path(real, TurnPolicy.one_turn(), 3.0).length
        assert far <= near
        if far <= 1.0:
            assert far == near


def test_lengths_on_isolated_line_are_exponential():
    # lam=0 leaves only the origin line, so the one-turn distance is the
    # nearest of a rate-mu point process on each side: 1 - exp(-2 mu t)
    p = ModelParams(0.0, 1.0)
    d = np.array([sample_D(p, typical_point(), TurnPolicy.one_turn(), 8.0,
                           seed=(55, s)) for s in range(3000)])
    assert np.isfinite(d).mean() > 0.999
    res = stats.kstest(d, lambda t: -np.expm1(-2.0 * np.minimum(t, 1e300)))
    assert res.pvalue > 1e-3, f"p={res.pvalue:.2e}"


def test_validation_errors():
    real = build([Line(0, 0.0, 0.0, True)], [[0.5]], clip=2.0)
    with pytest.raises(ValueError):
        shortest_path(real, TurnPolicy.zero_turn(), -0.5)
    with pytest.raises(TBeyondClip):
        shortest_path(real, TurnPolicy.zero_turn(), 2.5)
    with pytest.raises(NonFinite):
        shortest_path(real, TurnPolicy.zero_turn(), math.nan)
    with pytest.raises(PolicyBudgetNegative):
        shortest_path(real, TurnPolicy.k_turn(-1), 1.0)
    # one of the two origin lines of a typical intersection
    half_origin = one_trial((Line(0, 0.0, 0.0, True),), (np.array([0.1]),),
                            typical_intersection(), 2.0)
    with pytest.raises(ValueError):
        shortest_path(half_origin, TurnPolicy.zero_turn(), 1.0)


def _laid_out(trial=0, **fields):
    """Trial ``trial`` of a three-line point chunk, its arrays replaced by
    ``fields`` as a caller might lay them out."""
    chunk = build([Line(0, 0.0, 0.0, True), Line(1, HPI, -0.3), Line(2, 1.0, 0.2)],
                  [[0.5, 0.7], [0.1, 0.4], [0.2]]).chunk
    return Realization(dataclasses.replace(chunk, **fields), trial)


@pytest.mark.parametrize("trial", [
    one_trial((), (), typical_point()),
    one_trial((Line(0, 0.0, 0.0, True),), ([0.5],), typical_intersection()),
    _laid_out(arcs=np.array([0.5, 0.7, 0.4, 0.1, 0.2])),
    _laid_out(line_start=np.array([0, 5])),
    _laid_out(line_start=np.array([0, 3, 2, 3]), trial=1),
    _laid_out(line_start=np.array([0, -1, 3]), trial=1),
    _laid_out(line_start=np.array([0, 5, 3]), trial=0),
    _laid_out(offset=np.zeros(2)),
    _laid_out(arc_start=np.array([0, 2, 4])),
    _laid_out(arc_start=np.array([0, 2, 4, 9])),
    _laid_out(arc_start=np.array([0, 4, 2, 5])),
    _laid_out(line_start=np.array([0.0, 3.0])),
    _laid_out(arc_start=np.array([0.0, 2.0, 4.0, 5.0])),
    _laid_out(line_start=np.array([0, 3], dtype=np.uint64)),
    _laid_out(line_start=np.array([0, 3], dtype=np.uint32)),
    _laid_out(angle=np.array([0.0, HPI, 1.0], dtype=np.float32)),
    _laid_out(offset=np.array([0.0, -0.3, 0.2], dtype=np.float32)),
    _laid_out(arcs=np.array([0.5, 0.7, 0.1, 0.4, 0.2], dtype=np.float32)),
    _laid_out(angle=np.array([[0.0, HPI, 1.0]])),
    _laid_out(arcs=[0.5, 0.7, 0.1, 0.4, 0.2]),
    _laid_out(scenario="typical-point"),
    _laid_out(clip_radius="2.0"),
    _laid_out(clip_radius=math.nan),
    _laid_out(arcs=np.array([0.5, 0.7, 0.1, math.nan, 0.2])),
    _laid_out(angle=np.array([0.0, HPI, math.inf])),
    _laid_out(offset=np.array([0.0, -0.3, math.nan]))],
    ids=["point without lines", "intersection with one line", "unsorted arcs",
         "line_start past the lines", "decreasing line_start",
         "trial's line_start below 0", "trial's line_start past the lines", "short offset",
         "short arc_start", "arc_start past the points", "decreasing arc_start",
         "float line_start", "float arc_start", "uint64 line_start",
         "uint32 line_start", "float32 angle", "float32 offset", "float32 arcs",
         "2-D angle", "list arcs", "scenario as text", "clip_radius as text",
         "nan clip_radius", "nan arc", "inf angle", "nan offset"])
def test_both_solvers_refuse_a_trial_without_its_origin_lines(trial, request):
    """The scenario says how many lines open each trial through the
    origin; a trial with fewer lines has no start to search from. Nor does
    either solver search a layout that does not hold: each refusal names
    its field, the same in both: a field of another type, shape or
    dtype than the draw gives it, which the solvers would index, cast or
    round apart, or an angle, offset or arc that is not finite. A trial
    whose own lines run outside the line arrays the search refuses as
    such; the kernel, which checks every trial of the chunk, refuses the
    chunk's decreasing ``line_start`` first."""
    with pytest.raises(InputError) as by_search:
        shortest_path(trial, TurnPolicy.one_turn(), 1.0)
    with pytest.raises(InputError) as by_kernel:
        chunk_lengths(trial.chunk, TurnPolicy.one_turn(), 1.0)
    if request.node.callspec.id.startswith("trial's line_start"):
        assert str(by_search.value) == "line_start runs past the 3 lines"
        assert str(by_kernel.value).startswith("line_start gives a trial fewer lines")
    else:
        assert str(by_search.value) == str(by_kernel.value)
    assert str(by_search.value).startswith(("line_start", "offset", "arc_start", "arcs",
                                            "angle", "scenario", "clip_radius"))


def test_the_kernel_refuses_a_line_start_that_is_no_array():
    """A chunk whose ``line_start`` is a list has no trial count, so no
    Realization of it exists; ``chunk_lengths`` read the count before its
    layout check and raised AttributeError."""
    chunk = dataclasses.replace(_laid_out().chunk, line_start=[0, 3])
    with pytest.raises(InputError, match="^line_start must be a 1-D int64 ndarray, got list$"):
        chunk_lengths(chunk, TurnPolicy.one_turn(), 1.0)


@pytest.mark.parametrize("make, queries", HAND_QUERIES.items(),
                         ids=[make.__name__ for make in HAND_QUERIES])
def test_both_solvers_agree_on_every_hand_built_trial(make, queries):
    """``chunk_lengths`` equals ``shortest_path(...).length`` bit for bit on
    every hand-built trial, under the queries its tests make, and again
    with t_max set to the length found."""
    real = make()
    for policy, t_max in queries:
        length = shortest_path(real, policy, t_max).length
        tight = [length] if math.isfinite(length) and length > 0 else []
        for t in [t_max, *tight]:
            want = np.array([shortest_path(real, policy, t).length])
            got = chunk_lengths(real.chunk, policy, t)
            assert got.tobytes() == want.tobytes(), (policy, t)


def test_route_residual_on_sampled_realizations():
    p = ModelParams(1.0, 1.0)
    checked = 0
    for s in range(30):
        real = sample_palm(p, typical_point(), 2.5, seed=(66, s))
        res = shortest_path(real, TurnPolicy.k_turn(3), 2.5)
        if res.censored:
            continue
        checked += 1
        assert route_length(res.route) == pytest.approx(res.length, abs=1e-12)
        pos = route_positions(real, res.route)
        assert pos[0] == pytest.approx((0.0, 0.0), abs=1e-12)
        tx, ty = pos[-1]
        ln = real.lines[res.target.line_id]
        ca, sa = math.cos(ln.angle), math.sin(ln.angle)
        want = (ln.signed_offset * -sa + res.target.arc_coord * ca,
                ln.signed_offset * ca + res.target.arc_coord * sa)
        assert (tx, ty) == pytest.approx(want, abs=1e-12)
    assert checked >= 20


# ---- the lazy k-turn search against the eager one it replaced ----------------

def _eager_graph(real):
    """The whole crossing graph, built before any search, as the k-turn
    search once did: adjacency per line, arcs per (node, line) and the
    crossings of two origin lines. Built once per realization here so the
    reference can serve every (k, flags) query of it."""
    n = len(real.lines)
    adj = [[] for _ in range(n)]
    node_arc = {(-1, k): 0.0 for k in range(n) if real.lines[k].through_origin}
    origin_pair_nodes = set()
    if n >= 2:
        ii, jj = np.triu_indices(n, k=1)
        arc_i, arc_j = _pair_arcs(*trial_geometry(real), ii, jj)
        node = 0
        for a, b, u, v in zip(ii, jj, arc_i, arc_j):
            if not math.isfinite(u):
                continue
            adj[a].append((float(u), node, int(b)))
            adj[b].append((float(v), node, int(a)))
            node_arc[(node, int(a))] = float(u)
            node_arc[(node, int(b))] = float(v)
            if real.lines[a].through_origin and real.lines[b].through_origin:
                origin_pair_nodes.add(node)
            node += 1
    return adj, node_arc, origin_pair_nodes


def _eager_k_turn(real, graph, t_max, k, include_lower, directed):
    """Label-setting search over the eager graph, pushing every hop within
    t_max; returns (length, turns, target, route) or None if censored."""
    adj, node_arc, origin_pair_nodes = graph
    lids = [ln.id for ln in real.lines]
    best = None  # ((length, line id, arc), turns, route)
    dist, parent, heap = {}, {}, []
    origin = [k for k, ln in enumerate(real.lines) if ln.through_origin]
    for oi in origin[:1] if directed else origin:
        dist[(-1, oi, 0)] = 0.0
        heapq.heappush(heap, (0.0, 0, -1, oi))

    def route_of(state):
        chain, s = [], state
        while s is not None:
            chain.append(s)
            s = parent.get(s)
        chain.reverse()
        verts = []
        for prev, cur in zip([None] + chain[:-1], chain):
            if prev is not None:
                verts.append((lids[prev[1]], node_arc[(cur[0], prev[1])]))
            verts.append((lids[cur[1]], node_arc[(cur[0], cur[1])]))
        return tuple(verts)

    while heap:
        length, turns, node, li = heapq.heappop(heap)
        state = (node, li, turns)
        if length > dist.get(state, math.inf):
            continue
        if best is not None and length > best[0][0]:
            break
        ref = node_arc[(node, li)]
        at_start = node == -1 and turns == 0
        if include_lower or turns == k:
            # the point of this line nearest ref, leftmost on a tie
            arcs = real.arcs_by_line[li]
            if directed and at_start:
                arcs = arcs[arcs >= 0.0]
            if arcs.size:
                i = int(np.argmin(np.abs(arcs - ref)))
                key = (length + float(np.abs(arcs[i] - ref)), lids[li], float(arcs[i]))
                if key[0] <= t_max and (best is None or key < best[0]):
                    best = (key, turns, route_of(state) + ((lids[li], key[2]),))
        if turns == k:
            continue
        for arc_w, w, other in adj[li]:
            if w == node or (at_start and w in origin_pair_nodes):
                continue
            if directed and at_start and arc_w <= 0.0:
                continue
            length2 = length + abs(arc_w - ref)
            if length2 > t_max:
                continue
            nstate = (w, other, turns + 1)
            if length2 < dist.get(nstate, math.inf):
                dist[nstate] = length2
                parent[nstate] = state
                heapq.heappush(heap, (length2, turns + 1, w, other))
    if best is None:
        return None
    (length, *target), turns, route = best
    return length, turns, tuple(target), route


# each named policy with the (k, include_lower, directed) it searches
NAMED_POLICIES = (
    (TurnPolicy.zero_turn(), (0, True, False)),
    (TurnPolicy.one_turn(), (1, True, False)),
    (TurnPolicy.one_turn(include_lower_turn_paths=False), (1, False, False)),
    (TurnPolicy.two_turn_directed(), (2, True, True)),
    (TurnPolicy.two_turn_directed(include_lower_turn_paths=False),
     (2, False, True)),
)
K_TURN_POLICIES = tuple(
    (TurnPolicy.k_turn(k, include_lower_turn_paths=lower,
                       first_hop_positive_x=directed), (k, lower, directed))
    for k in range(4) for lower in (True, False) for directed in (False, True))


@pytest.mark.parametrize("lam", [1.0, 4.0, 16.0])
def test_lazy_k_turn_equals_eager_graph_search(lam):
    """Length, turns, target and route, bit for bit, for k 0..3 with every
    flag combination and for the five named policies, from the typical
    point and the typical intersection."""
    t_max, params = 2.0, ModelParams(lam, 1.0)
    censored = 0
    for scenario in (typical_point(), typical_intersection()):
        for s in range(40):
            real = sample_palm(params, scenario, t_max, seed=(404, s))
            graph = _eager_graph(real)
            for policy, args in K_TURN_POLICIES + NAMED_POLICIES:
                want = _eager_k_turn(real, graph, t_max, *args)
                res = shortest_path(real, policy, t_max)
                if want is None:
                    assert res.censored
                    censored += 1
                    continue
                got = (res.length, res.turns_used,
                       (res.target.line_id, res.target.arc_coord), res.route)
                assert got == want, (scenario, s, policy)
    if lam == 1.0:
        assert censored > 0


# angles that often sit within 1e-12 of each other (mod pi), and offsets
# that often put two lines through one point
_ANGLE = st.one_of(st.sampled_from([0.0, 1e-13, 1.0, 1.0 + 1e-13, HPI,
                                    math.pi - 1e-13]),
                   st.floats(0.0, math.pi, exclude_max=True))
_OFFSET = st.one_of(st.sampled_from([0.0, 1.0, -2.5]), st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(_ANGLE, _OFFSET), min_size=2, max_size=8))
@example(lines=[(1.0, 0.5), (1.0 + 1e-13, -2.0), (0.0, 1.0),
                (math.pi - 1e-13, 0.0)])            # two near-parallel pairs
@example(lines=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # crossing at the origin
def test_pair_arcs_in_either_order_are_swapped_bit_for_bit(lines):
    """``_pair_arcs(j, i)`` is ``_pair_arcs(i, j)`` swapped: det, bx and by
    flip sign exactly under round-to-nearest, and near-parallel pairs give
    nan both ways. So both solvers ask for a crossing in whichever order
    they meet it. An exact zero arc may differ in sign, which no length
    reads (lengths take |here - ref|, and -0.0 > 0 is false), so the arcs
    are compared after adding 0.0. A line asked against all others at once,
    as the per-trial search asks, gives the same arcs."""
    angle, offset = (np.array(col) for col in zip(*lines))
    trig = _trig(angle)
    ii, jj = np.nonzero(~np.eye(len(lines), dtype=bool))
    on_i, on_j = _pair_arcs(trig, offset, ii, jj)
    back_j, back_i = _pair_arcs(trig, offset, jj, ii)
    assert (on_i + 0.0).tobytes() == (back_i + 0.0).tobytes()
    assert (on_j + 0.0).tobytes() == (back_j + 0.0).tobytes()
    for i in range(len(lines)):
        here, there = _pair_arcs(trig, offset, i, jj[ii == i])
        assert here.tobytes() == on_i[ii == i].tobytes()
        assert there.tobytes() == on_j[ii == i].tobytes()


def test_near_parallel_pairs_give_nan_in_either_order():
    """Also without a warning where the masked quotient overflows."""
    trig = _trig([1.0, 1.0 + 1e-13, 0.0, math.pi - 1e-13, 5e-324])
    offset = np.array([0.5, -2.0, 1.0, 0.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ii, jj in (([0, 2, 2], [1, 3, 4]), ([1, 3, 4], [0, 2, 2])):
            assert np.isnan(_pair_arcs(trig, offset, np.array(ii), np.array(jj))).all()


def _pair_arcs_reference(trig, offsets, ii, jj):
    """The crossing formula as written before ``_pair_arcs`` gathered each
    operand once: every operand gathered where it is read, and both
    quotients taken over all pairs, then replaced by nan under the mask."""
    sa, ca = trig
    det = sa[jj] * ca[ii] - ca[jj] * sa[ii]
    bx = -offsets[jj] * sa[jj] + offsets[ii] * sa[ii]
    by = offsets[jj] * ca[jj] - offsets[ii] * ca[ii]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        arc_i = np.where(np.abs(det) < _MIN_ANGLE_GAP, np.nan,
                         (bx * sa[jj] - by * ca[jj]) / det)
        arc_j = np.where(np.abs(det) < _MIN_ANGLE_GAP, np.nan,
                         (bx * sa[ii] - by * ca[ii]) / det)
    return arc_i, arc_j, det


def test_pair_arcs_equal_the_reference_and_raise_nothing():
    """Line 0 at angle 0 against lines within a few 1e-12 of it, so that
    |det| falls on both sides of _MIN_ANGLE_GAP, against exactly parallel
    lines (det 0) and lines near pi, plus general angles. Under
    ``np.errstate(all="raise")`` no pair raises, nan sits exactly where
    |det| < _MIN_ANGLE_GAP, and every arc equals the reference formula's
    bit for bit, with ii as an array and as a scalar."""
    rng = np.random.default_rng(3)
    near = [0.0, 1e-12 * (1.0 + 1e-9), 1e-12 * (1.0 - 1e-9)] + [
        1e-12 * f for f in (0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, 4.0)]
    angle = np.array(near + [math.pi - 1e-12, math.pi - 2e-12, math.pi - 5e-13,
                             1.0, 1.0] + list(rng.uniform(0.0, math.pi, 9)))
    offset = rng.uniform(-3.0, 3.0, angle.size)
    trig = _trig(angle)
    ii, jj = np.nonzero(~np.eye(angle.size, dtype=bool))
    want_i, want_j, det = _pair_arcs_reference(trig, offset, ii, jj)
    masked = np.abs(det) < _MIN_ANGLE_GAP
    assert (det == 0.0).any()
    assert ((np.abs(det) >= 0.5 * _MIN_ANGLE_GAP) & masked).any()
    assert ((np.abs(det) < 2.0 * _MIN_ANGLE_GAP) & ~masked).any()
    with np.errstate(all="raise"):
        got_i, got_j = _pair_arcs(trig, offset, ii, jj)
        rows = [_pair_arcs(trig, offset, i, jj[ii == i]) for i in range(angle.size)]
    assert (np.isnan(got_i) == masked).all() and (np.isnan(got_j) == masked).all()
    assert got_i.tobytes() == want_i.tobytes() and got_j.tobytes() == want_j.tobytes()
    for i, (here, there) in enumerate(rows):
        assert here.tobytes() == want_i[ii == i].tobytes()
        assert there.tobytes() == want_j[ii == i].tobytes()


def test_hops_tied_with_the_incumbent_or_t_max_are_kept():
    """Ties are never pruned: a hop exactly as long as the incumbent is
    still taken (a point at its crossing on a lower line id wins the tie),
    and a route exactly as long as t_max is not censored. The incumbent
    here is line 2's point, one turn away; the hop to line 1 comes from
    the same search state, after that offer, and ties it."""
    real = tie_with_the_incumbent()
    trig, offset = trial_geometry(real)
    to_2, on_2 = _pair_arcs(trig, offset, 0, np.array([2]))
    res = shortest_path(real, TurnPolicy.k_turn(2), 3.0)
    tie = abs(to_2[0]) + abs(real.arcs_by_line[2][0] - on_2[0])
    assert (res.length, res.turns_used) == (tie, 2)
    assert (res.target.line_id, res.target.arc_coord) == (1, real.arcs_by_line[1][0])
    one_turn = shortest_path(real, TurnPolicy.k_turn(1), 3.0)
    assert (one_turn.length, one_turn.target.line_id) == (tie, 2)

    real = tie_with_t_max()
    for policy in (TurnPolicy.two_turn_directed(),
                   TurnPolicy.k_turn(2, first_hop_positive_x=True)):
        free = shortest_path(real, policy, 3.0)
        assert free.length == pytest.approx(0.75, abs=1e-15)
        tight = shortest_path(real, policy, free.length)
        assert (tight.length, tight.route) == (free.length, free.route)


# md5 of run_mc(ModelParams(lam, 1.0), scenario, k_turn(k), 32, 3.0, 2026),
# recorded with the eager crossing graph that preceded the lazy one
FROZEN_K_TURN_MD5 = {
    (4.0, 2, "point"): "562a91b5a236c86030ffc29456b9b682",
    (16.0, 3, "point"): "aeeeee75e68481186e014e9c1091d3af",
    (8.0, 2, "intersection"): "2cd7388c51a9080669ed72e5fc49d654",
}


def test_k_turn_curves_match_frozen_digests():
    scenarios = {"point": typical_point(), "intersection": typical_intersection()}
    for (lam, k, scen), digest in FROZEN_K_TURN_MD5.items():
        curve = run_mc(ModelParams(lam, 1.0), scenarios[scen],
                       TurnPolicy.k_turn(k), 32, 3.0, 2026)
        h = hashlib.md5()
        for arr in (curve.grid, curve.values, curve.ci_halfwidth):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest() == digest, (lam, k, scen)
