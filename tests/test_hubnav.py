import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (adjacency_matrix, certificate_walk, hub_climb_reference,
                     ladder_level_reference, pair_hops_python, shares_attribute)
from rigkit.graphgen import BipartiteIncidence, generate
from rigkit.graphops import TraversalCore, bfs_distance
from rigkit.hubnav import (
    STAGES,
    LadderError,
    LayerThresholds,
    decompose,
    escape_bfs,
    hub_climb,
    loglog_certificate,
    thresholds,
)
from rigkit.model import ModelParams, VertexWeights, iterated_log, trial_rng


def k_star_by_scan(n, alpha, floor):
    k, best = 1, 0
    while True:
        power = n ** (alpha**k / (1.0 + alpha))
        if power >= floor:
            best = k
            k += 1
        else:
            return best
        if k > 200:
            raise AssertionError("runaway scan")


def test_rung_formula_and_small_n_collapse():
    # n = 1e4, alpha = 0.5: the first rung power is 10^(4/3) ~ 21.5 < 101,
    # so the ladder is empty; a floor of 20 keeps that rung and no other
    # (the second rung power is 10^(2/3) ~ 4.6)
    l2n = iterated_log(10**4)
    th = thresholds(10**4, 0.5, 1.0)
    assert th.k_star == 0
    assert th.t == ()
    th = thresholds(10**4, 0.5, 1.0, floor=20.0)
    assert th.t == pytest.approx((10 ** (4 / 3) * l2n,), rel=1e-12)


def test_t0_formula():
    th = thresholds(10**5, 0.8, 1.0)
    l2n = iterated_log(10**5)
    assert th.t0 == pytest.approx((10**5) ** (1 / 1.8) * l2n ** (-0.8), rel=1e-12)
    assert th.t[0] == pytest.approx((10**5) ** (0.8 / 1.8) * l2n, rel=1e-12)


def test_k_star_matches_scan():
    for n in (10**2, 10**4, 10**6, 10**8):
        for alpha in (0.3, 0.5, 0.8):
            for c0 in (1.0, 2.0):
                th = thresholds(n, alpha, c0)
                assert th.k_star == k_star_by_scan(n, alpha, 100.0 + c0), \
                    (n, alpha, c0)


def test_k_star_positive_case():
    th = thresholds(10**5, 0.8, 1.0)
    assert th.k_star >= 1
    assert th.k_star <= iterated_log(10**5) / math.log(1.0 / 0.8)


def test_rungs_decrease_and_respect_floor():
    th = thresholds(10**8, 0.8, 1.0)
    floor = 100.0 + 1.0  # the default floor, 100 + c0
    assert th.k_star >= 2
    assert all(a > b for a, b in zip(th.t, th.t[1:]))
    for k in range(1, th.k_star + 1):
        power = math.exp(0.8**k * math.log(10**8) / 1.8)
        assert power >= floor  # every kept rung clears the floor
    # the next rung would dip under
    next_power = (10**8) ** (0.8 ** (th.k_star + 1) / 1.8)
    assert next_power < floor


def test_thresholds_validation():
    with pytest.raises(ValueError):
        thresholds(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        thresholds(100, 1.0, 1.0)
    with pytest.raises(ValueError):
        thresholds(100, 0.5, -1.0)
    with pytest.raises(ValueError):
        thresholds(100, 0.5, 1.0, floor=0.5)
    with pytest.raises(ValueError, match="more than 1000 rungs"):
        thresholds(20000, 1 - 1e-6, 1.0)  # 70,402 rungs


def test_rung_limit_boundary():
    # a floor between the bare powers of rungs k and k + 1 gives k rungs
    n, alpha = 10**9, 0.999

    def floor_for(k):
        return math.exp((alpha**k + alpha**(k + 1)) / 2 * math.log(n) / (1 + alpha))

    assert thresholds(n, alpha, 1.0, floor_for(1000)).k_star == 1000
    with pytest.raises(ValueError, match="more than 1000 rungs"):
        thresholds(n, alpha, 1.0, floor_for(1001))


def toy_ladder():
    """A hand-built 2-rung ladder: t = (20, 10), hub cutoff t0 = 50."""
    return LayerThresholds(t0=50.0, t=(20.0, 10.0))


def toy_weights(tz):
    tz = np.asarray(tz, dtype=float)
    return VertexWeights(tilde_z=tz, sizes=(tz * 2).astype(np.int64))


def test_decompose_nesting_and_boundaries():
    th = toy_ladder()
    # weights sit exactly on the cut points: >= for rungs, strict > for t0
    w = toy_weights([50.0, 20.0, 10.0, 9.99, 60.0])
    dec = decompose(w, th)
    assert dec.level.tolist() == [1, 1, 2, 3, 1]
    u1, u2 = (np.flatnonzero(dec.level <= k) for k in (1, 2))
    assert u1.tolist() == [0, 1, 4]                  # U_1: tz >= 20
    assert u2.tolist() == [0, 1, 2, 4]               # U_2: tz >= 10, nested
    assert set(u1) <= set(u2)
    assert dec.layer_sizes().tolist() == [3, 4]
    assert dec.top.tolist() == [0, 1, 2, 4]
    assert dec.hub_core.tolist() == [4]              # V0: tz > 50, strict


def test_decompose_rungs_above_top_weight():
    # rungs at and above the largest weight: the one equal to it keeps its
    # vertex, those above hold no vertex
    th = LayerThresholds(t0=50.0, t=(90.0, 40.0 + 1e-9, 40.0, 20.0))
    dec = decompose(toy_weights([40.0, 20.0, 5.0]), th)
    assert dec.level.tolist() == [3, 4, 5]
    assert [np.flatnonzero(dec.level <= k).tolist() for k in range(1, 5)] == \
        [[], [], [0], [0, 1]]
    assert dec.layer_sizes().tolist() == [0, 0, 1, 2]
    assert dec.top.tolist() == [0, 1]
    assert dec.level.dtype == dec.top.dtype == np.int64
    assert dec.hub_core.tolist() == []


def test_level_and_layer_index():
    th = toy_ladder()
    dec = decompose(toy_weights([25.0, 15.0, 5.0]), th)
    assert dec.level.tolist() == [1, 2, 3]
    # rungs cleared, k* - level: -1 off the ladder
    assert (dec.k_star - dec.level).tolist() == [1, 0, -1]


def test_level_of_empty_ladder():
    th = LayerThresholds(t0=50.0, t=())
    dec = decompose(toy_weights([60.0, 1.0]), th)
    assert dec.level.tolist() == [1, 1]
    assert dec.layer_sizes().tolist() == [] and dec.top.tolist() == []
    targets, degenerate = dec.escape_targets()
    assert degenerate and targets.tolist() == [0]


def test_escape_targets_error_when_nothing_qualifies():
    th = LayerThresholds(t0=50.0, t=())
    dec = decompose(toy_weights([1.0, 2.0]), th)
    with pytest.raises(LadderError):
        dec.escape_targets()


def climb_toy():
    """4 vertices: apex 0 (tz 100), rung-1 vertex 2 (tz 25), top-layer
    vertex 3 (tz 12), background vertex 1.  Edges: 3-2 (attr 0), 2-0 (attr 1).
    Returns the incidence, its traversal core and the decomposition.
    """
    inc = BipartiteIncidence.from_sets(4, 4, [[1], [3], [0, 1], [0]])
    w = toy_weights([100.0, 1.0, 25.0, 12.0])
    dec = decompose(w, toy_ladder())
    return inc, TraversalCore(inc), dec


def test_hub_climb_full_ladder_walk():
    _, core, dec = climb_toy()
    path = hub_climb(core, dec, 3)
    assert path == [3, 2, 0]
    # rungs cleared climb 0, 1 and k* at the apex
    assert [dec.k_star - dec.level[v] for v in path[:-1]] == [0, 1]
    assert path[-1] == dec.u_max
    assert len(path) - 1 == 2 <= dec.k_star


def test_hub_climb_short_cases():
    _, core, dec = climb_toy()
    assert hub_climb(core, dec, 2) == [2, 0]
    at_apex = hub_climb(core, dec, 0)
    assert at_apex == [0]
    assert at_apex[-1] == dec.u_max
    assert len(at_apex) - 1 == 0


def test_hub_climb_start_outside_top_layer():
    _, core, dec = climb_toy()
    with pytest.raises(ValueError):
        hub_climb(core, dec, 1)  # tz 1 < t_k* = 10


def test_hub_climb_dead_end_returns_none():
    # same shape, but vertex 2 now sits below rung 1, and 3 has no other
    # neighbor at level 1 and no edge to the apex
    core = TraversalCore(BipartiteIncidence.from_sets(4, 4, [[1], [3], [0, 1], [0]]))
    w = toy_weights([100.0, 1.0, 15.0, 12.0])
    dec = decompose(w, toy_ladder())
    assert hub_climb(core, dec, 3) is None


def test_hub_climb_tie_break_smallest_index():
    # vertices 1 and 2 tie at tz 25; both are adjacent to 3 and to the apex,
    # so either choice would complete the climb: ties must go to index 1
    core = TraversalCore(BipartiteIncidence.from_sets(4, 4, [[1], [0, 1, 3], [0, 1], [0]]))
    w = toy_weights([100.0, 25.0, 25.0, 12.0])
    dec = decompose(w, toy_ladder())
    path = hub_climb(core, dec, 3)
    assert path == [3, 1, 0]
    assert [dec.k_star - dec.level[v] for v in path[:-1]] == [0, 1]
    assert path[-1] == dec.u_max
    assert len(path) - 1 == 2
    assert len(path) - 1 <= dec.k_star


def test_hub_climb_apex_shortcut():
    # the apex qualifies as a next hop whenever adjacent, even from the top
    # layer, so a 1-hop finish beats walking the rungs
    core = TraversalCore(BipartiteIncidence.from_sets(3, 3, [[0], [2], [0, 2]]))
    w = toy_weights([100.0, 1.0, 12.0])
    dec = decompose(w, toy_ladder())
    path = hub_climb(core, dec, 2)
    assert path == [2, 0]
    assert len(path) - 1 == 1


def test_escape_bfs_modes():
    _, core, dec = climb_toy()
    # vertex 3 is already in the top layer: zero hops
    esc = escape_bfs(core, dec, 3)
    assert esc == [3] and len(esc) - 1 == 0
    # vertex 1 is isolated from the ladder: no route
    assert escape_bfs(core, dec, 1) is None
    # off-ladder vertex adjacent to the ladder: one hop
    inc2 = BipartiteIncidence.from_sets(3, 3, [[0, 1], [1], [2]])
    w2 = toy_weights([12.0, 1.0, 1.0])
    dec2 = decompose(w2, toy_ladder())
    esc2 = escape_bfs(TraversalCore(inc2), dec2, 1)
    assert esc2 == [1, 0]
    assert [dec2.k_star - dec2.level[v] for v in esc2] == [-1, 0]


def test_escape_bfs_vertex_range():
    _, core, dec = climb_toy()
    for v in (core.n, -1):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            escape_bfs(core, dec, v)
    # no target set outranks a bad vertex
    empty = decompose(toy_weights([1.0] * core.n),
                      LayerThresholds(t0=50.0, t=()))
    with pytest.raises(LadderError):
        escape_bfs(core, empty, core.n)


def test_escape_bfs_distance_is_minimal(small_instances):
    params, inc, w = small_instances[0]
    # custom low floor so the ladder is nonempty at n = 60
    th = thresholds(params.n, params.alpha, params.c0, floor=2.0)
    dec = decompose(w, th)
    targets, _ = dec.escape_targets()
    core = TraversalCore(inc)
    rng = trial_rng(13, 0, 0)
    for v in rng.choice(params.n, size=15, replace=False):
        esc = escape_bfs(core, dec, int(v))
        per_target = [bfs_distance(core, int(v), int(t)).hops for t in targets]
        finite = [h for h in per_target if h is not None]
        if esc is None:
            assert not finite
        else:
            assert len(esc) - 1 == min(finite)
            assert esc[-1] in set(targets.tolist())


def test_certificate_on_toy():
    inc, core, dec = climb_toy()
    cert = loglog_certificate(core, dec, 3, 2)
    exact = pair_hops_python(adjacency_matrix(inc), 3)[2]
    assert exact == 1
    assert cert.certificate_hops == 3  # 0 + 2 up, 1 + 0 down
    assert cert.certificate_hops >= exact
    assert cert.failed_stage is None
    walk = certificate_walk(cert)
    assert walk[0] == 3 and walk[-1] == 2
    assert len(walk) == cert.certificate_hops + 1
    assert cert.climb_a == [3, 2, 0]


def test_certificate_records_failure_stage():
    inc, core, dec = climb_toy()
    cert = loglog_certificate(core, dec, 1, 3)  # vertex 1 cannot escape
    assert cert.certificate_hops is None
    assert cert.failed_stage == "escape_a"
    assert cert.climb_a is None  # a failed escape leaves no climb
    assert pair_hops_python(adjacency_matrix(inc), 1)[3] == -1  # disconnected
    assert certificate_walk(cert) is None
    # the other end fails first when v1 can finish its half
    cert = loglog_certificate(core, dec, 3, 1)
    assert cert.escape_a is not None and cert.climb_a is not None
    assert (cert.escape_b, cert.climb_b) == (None, None)
    assert cert.failed_stage == "escape_b"
    assert cert.certificate_hops is None


def test_certificate_sound_on_random_instances(small_instances):
    # exact hops from a plain BFS on the dense adjacency matrix
    finished = 0
    for params, inc, w in small_instances:
        th = thresholds(params.n, params.alpha, params.c0, floor=2.0)
        dec = decompose(w, th)
        assert dec.k_star >= 1  # the floor of 2 gives a real ladder at n = 60
        adj = adjacency_matrix(inc)
        core = TraversalCore(inc)
        indptr, ids = inc.set_indptr, inc.set_attrs
        rng = trial_rng(17, 0, 0)
        for _ in range(10):
            v1, v2 = (int(v) for v in rng.choice(params.n, size=2, replace=False))
            cert = loglog_certificate(core, dec, v1, v2)
            stages = [getattr(cert, s) for s in STAGES]
            missing = [s for s, stage in zip(STAGES, stages) if stage is None]
            assert cert.failed_stage == (missing[0] if missing else None)
            for climb in (cert.climb_a, cert.climb_b):
                if climb is not None:
                    assert len(climb) - 1 <= dec.k_star
                    assert climb[-1] == dec.u_max
                    # every hop clears a rung: the level falls, with the
                    # apex at level 0
                    levels = [0 if v == dec.u_max else dec.level[v]
                              for v in climb]
                    assert all(a > b for a, b in zip(levels, levels[1:]))
            if cert.certificate_hops is None:
                assert certificate_walk(cert) is None
                continue
            finished += 1
            exact = pair_hops_python(adj, v1)[v2]
            assert exact != -1
            assert cert.certificate_hops == sum(len(s) - 1 for s in stages)
            assert cert.certificate_hops >= exact
            walk = certificate_walk(cert)
            assert walk[0] == v1 and walk[-1] == v2
            assert len(walk) == cert.certificate_hops + 1
            for a, b in zip(walk, walk[1:]):
                assert a != b and shares_attribute(indptr, ids, int(a), int(b))
    assert finished > 0


def test_decompose_apex_tie_goes_to_smallest_id():
    # vertices 1 and 3 tie on the largest set size; vertex 0 has the
    # largest tilde_z but a smaller set
    w = VertexWeights(tilde_z=np.array([90.0, 30.0, 5.0, 30.0]),
                      sizes=np.array([40, 60, 10, 60], dtype=np.int64))
    dec = decompose(w, toy_ladder())
    assert dec.u_max == 1


def test_degenerate_mode_climb():
    # empty ladder, nonempty hub core: escape goes to V0, climb is a single
    # adjacency test against the apex
    th = LayerThresholds(t0=5.0, t=())
    core = TraversalCore(BipartiteIncidence.from_sets(3, 3, [[0], [0, 1], [1]]))
    w = toy_weights([10.0, 7.0, 1.0])
    dec = decompose(w, th)
    targets, degenerate = dec.escape_targets()
    assert degenerate and targets.tolist() == [0, 1]
    esc = escape_bfs(core, dec, 2)
    assert esc == [2, 1]
    path = hub_climb(core, dec, 1)
    assert path == [1, 0]


@st.composite
def weighted_ladders(draw):
    """Weights and a ladder: random weights, weights exactly on a rung or on
    t0, rungs above the top weight, no rungs, and hundreds of rungs."""
    count = draw(st.sampled_from([0, 1, 2, 3, 7, 300, 704]))
    lo, hi = sorted(draw(st.lists(st.floats(1.0, 1e4), min_size=2, max_size=2,
                                  unique=True)))
    t = tuple(float(x) for x in np.geomspace(hi, lo, count))
    t0 = draw(st.floats(0.0, 2.0 * hi))
    top = draw(st.floats(0.0, 2.0 * hi))  # below hi, the upper rungs are empty
    weight = st.floats(0.0, top) | st.sampled_from(t + (t0,))
    tz = draw(st.lists(weight, min_size=1, max_size=30))
    return toy_weights(tz), LayerThresholds(t0=t0, t=t)


PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPS
@example((toy_weights([5.0, 20.0, 10.0, 60.0]), LayerThresholds(t0=50.0, t=(20.0, 10.0))))
@given(weighted_ladders())
def test_level_array_matches_rung_comparisons(case):
    w, th = case
    tz = w.tilde_z
    dec = decompose(w, th)
    assert dec.level.tolist() == [ladder_level_reference(tz, th.t, v) for v in range(tz.size)]
    layers = [np.flatnonzero(tz >= tk) for tk in th.t]
    for k, layer in enumerate(layers, start=1):
        assert np.flatnonzero(dec.level <= k).tolist() == layer.tolist()
    assert dec.layer_sizes().tolist() == [layer.size for layer in layers]
    top = layers[-1] if layers else np.empty(0, dtype=np.int64)
    assert dec.top.tolist() == top.tolist()
    assert dec.top.dtype == np.int64
    hub_core = np.flatnonzero(tz > th.t0)
    assert dec.hub_core.tolist() == hub_core.tolist()
    want = (top, False) if th.k_star else (hub_core, True)
    if want[0].size == 0:
        with pytest.raises(LadderError):
            dec.escape_targets()
    else:
        targets, degenerate = dec.escape_targets()
        assert (targets.tolist(), degenerate) == (want[0].tolist(), want[1])
        # built once by decompose, not on each call
        assert dec.escape_targets()[0] is targets


def test_hub_climb_matches_rung_floor_reference(small_instances):
    # every start in the widest layer, on ladders of several rungs: the
    # level comparison takes the same hops as the rung floors
    climbs = 0
    for params, inc, w in small_instances:
        adj = adjacency_matrix(inc)
        core = TraversalCore(inc)
        for floor in (2.0, 5.0, 20.0):
            th = thresholds(params.n, params.alpha, params.c0, floor=floor)
            dec = decompose(w, th)
            for v in dec.top:
                path = hub_climb(core, dec, int(v))
                assert path == hub_climb_reference(adj, w.tilde_z, th.t, dec.u_max, int(v))
                climbs += path is not None and len(path) > 2
    assert climbs > 0
