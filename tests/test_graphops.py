import tracemalloc

import numpy as np
import pytest

from rigkit import graphops
from rigkit.graphgen import BipartiteIncidence, generate
from rigkit.graphops import (
    UNREACHED,
    TraversalCore,
    bfs_distance,
    components,
    degrees,
    distances_from,
    nearest_of,
    nearest_routes,
    neighbors,
    unique_edges,
)
from rigkit.hubnav import decompose, thresholds
from rigkit.model import ModelParams, default_attribute_count, trial_rng
from rigkit.storage import read_graph, write_graph

from cores import core_of
from oracles import (
    adjacency_matrix,
    all_pairs_hops,
    component_labels_bfs,
    pair_hops_python,
    shares_attribute,
)
from test_benchmark_hooks import load_perfbench


def path_graph(k: int) -> BipartiteIncidence:
    """0-1-2-...-k-1 via shared attributes i between i and i+1."""
    sets = [[0]] + [[i - 1, i] for i in range(1, k - 1)] + [[k - 2]]
    return BipartiteIncidence.from_sets(k, k, sets)


def test_path_graph_distances():
    core = core_of(path_graph(5))
    res = bfs_distance(core, 0, 4)
    assert res.hops == 4
    assert res.path == [0, 1, 2, 3, 4]
    assert bfs_distance(core, 2, 2).hops == 0
    d = distances_from(core, 0)
    assert d.tolist() == [0, 1, 2, 3, 4]


def test_disconnected_components():
    core = core_of(BipartiteIncidence.from_sets(5, 10, [[0], [0], [5], [5], []]))
    comp = components(core, 2)
    assert comp.count == 3
    assert comp.labels.tolist() == [0, 0, 1, 1, 2]
    assert comp.sizes.tolist() == [2, 2, 1]
    # tie between the two 2-vertex components: smallest label wins
    assert comp.giant == 0
    assert comp.giant_fraction() == pytest.approx(0.4)
    assert bfs_distance(core, 0, 2).hops is None
    assert bfs_distance(core, 0, 2).path is None


def test_components_canonical_order():
    # vertex 0 must always carry label 0, first unseen vertex the next label
    inc = BipartiteIncidence.from_sets(6, 20, [[3], [7], [3], [9], [7], [9]])
    for root in range(6):
        comp = components(core_of(inc), root)
        assert comp.labels.tolist() == [0, 1, 0, 2, 1, 2]


def test_components_match_bfs_oracle(small_instances):
    for params, inc, w in small_instances:
        adj = adjacency_matrix(inc)
        expect = component_labels_bfs(adj)
        got = components(core_of(inc), int(np.argmax(inc.sizes())))
        assert np.array_equal(got.labels, expect)
        assert np.array_equal(got.sizes, np.bincount(expect))


def walk_graph(n, walks):
    """n vertices; consecutive vertices of each walk share an attribute of
    their own."""
    sets = [[] for _ in range(n)]
    attr = 0
    for walk in walks:
        for x, y in zip(walk, walk[1:]):
            sets[x].append(attr)
            sets[y].append(attr)
            attr += 1
    return BipartiteIncidence.from_sets(n, attr, sets)


def alternating_walk(ids):
    """A path of odd length with ids[0] in the middle and ids[1], ids[2],
    ... placed alternately at its two ends, moving inward."""
    ids = list(ids)
    walk = [None] * len(ids)
    walk[len(ids) // 2] = ids[0]
    lo, hi, ends = 0, len(ids) - 1, []
    while lo < hi:
        ends += [lo, hi]
        lo, hi = lo + 1, hi - 1
    for pos, v in zip(ends, ids[1:]):
        walk[pos] = v
    return walk


def halving_walk(k):
    """Ids along a path on which each hook round only halves the roots: the
    even positions carry the halving walk of their own count, the odd
    positions the larger ids."""
    if k == 1:
        return [0]
    inner = halving_walk((k + 1) // 2)
    big = iter(range((k + 1) // 2, k))
    return [inner[i // 2] if i % 2 == 0 else next(big) for i in range(k)]


def joined_walks(k):
    """Two alternating paths of k vertices, on the even and on the odd ids,
    sharing the first path's last vertex; the second path's own last id
    stays isolated."""
    a = alternating_walk(range(0, 2 * k, 2))
    b = alternating_walk(range(1, 2 * k, 2))
    b[-1] = a[-1]
    return [a, b]


LONG_DIAMETER = {
    # the smallest id's label must cross 150 hops to either end
    "alternating-path": walk_graph(301, [alternating_walk(range(301))]),
    "joined-paths": walk_graph(602, joined_walks(301)),
    # about log2(301) hook rounds
    "halving-path": walk_graph(301, [halving_walk(301)]),
    # every attribute has one holder, so the core has none
    "no-core": BipartiteIncidence.from_sets(5, 8, [[0, 1], [], [2], [5, 7], [3]]),
}


@pytest.mark.parametrize("name", sorted(LONG_DIAMETER))
def test_components_large_diameter_match_bfs_oracle(name, monkeypatch):
    # roots at both ends, in the middle, isolated (joined-paths and no-core
    # have one) and drawn; the ball of each is left complete, so
    # distances_from(root) only copies it
    inc = LONG_DIAMETER[name]
    adj = adjacency_matrix(inc)
    expect = component_labels_bfs(adj)
    core = core_of(inc)
    isolated = np.flatnonzero(inc.sizes() == 0)[:1]
    drawn = trial_rng(17, inc.n, 0).choice(inc.n, size=3, replace=False)
    for root in [0, inc.n // 2, inc.n - 1, *isolated.tolist(), *drawn.tolist()]:
        got = components(core, root)
        assert np.array_equal(got.labels, expect)
        assert np.array_equal(got.sizes, np.bincount(expect))
        assert got.giant == int(np.argmax(np.bincount(expect)))
        with monkeypatch.context() as mp:
            mp.setattr(graphops._TargetBall, "expand", None)  # a call raises TypeError
            assert np.array_equal(distances_from(core, root), pair_hops_python(adj, root))


def test_distances_match_floyd_warshall(small_instances):
    for params, inc, w in small_instances:
        adj = adjacency_matrix(inc)
        fw = all_pairs_hops(adj)
        core = core_of(inc)
        rng = trial_rng(31, 0, 0)
        for _ in range(40):
            u, v = rng.choice(params.n, size=2, replace=False)
            res = bfs_distance(core, int(u), int(v))
            expect = fw[u, v]
            if np.isinf(expect):
                assert res.hops is None
            else:
                assert res.hops == int(expect)


def test_distances_from_matches_single_source(small_instances):
    params, inc, w = small_instances[0]
    adj = adjacency_matrix(inc)
    core = core_of(inc)
    for s in (0, 13, 59):
        assert np.array_equal(distances_from(core, s), pair_hops_python(adj, s))


def test_shortest_path_is_a_real_walk(small_instances):
    for params, inc, w in small_instances:
        core = core_of(inc)
        indptr, ids = inc.set_indptr, inc.set_attrs
        rng = trial_rng(47, 0, 0)
        for _ in range(20):
            u, v = rng.choice(params.n, size=2, replace=False)
            res = bfs_distance(core, int(u), int(v))
            if res.hops is None:
                continue
            assert len(res.path) == res.hops + 1
            assert res.path[0] == u and res.path[-1] == v
            assert len(set(res.path)) == len(res.path)
            for a, b in zip(res.path, res.path[1:]):
                assert shares_attribute(indptr, ids, a, b)


def test_finite_distance_iff_same_component(small_instances):
    params, inc, w = small_instances[1]
    core = core_of(inc)
    comp = components(core, 0)
    d = distances_from(core, 0)
    same = comp.labels == comp.labels[0]
    assert np.array_equal(d != UNREACHED, same)


def test_nearest_of_min_distance_and_tie_break():
    core = core_of(path_graph(7))
    # targets at distance 2 (vertex 1) and 2 (vertex 5) from 3: tie -> id 1
    res = nearest_of(core, 3, np.array([5, 1]))
    assert res.hops == 2
    assert res.path[-1] == 1
    # target unreachable
    core2 = core_of(BipartiteIncidence.from_sets(3, 6, [[0], [0], [4]]))
    assert nearest_of(core2, 0, np.array([2])).hops is None
    # source already a target
    res = nearest_of(core, 4, np.array([4, 0]))
    assert res.hops == 0 and res.path == [4]
    with pytest.raises(ValueError):
        nearest_of(core, 0, np.array([], dtype=np.int64))


def test_unique_edges_and_degrees(small_instances):
    for params, inc, w in small_instances:
        adj = adjacency_matrix(inc)
        expect = np.argwhere(np.triu(adj, 1))
        core = core_of(inc)
        got = unique_edges(core)
        assert np.array_equal(got, expect)
        assert np.array_equal(degrees(core), adj.sum(axis=1))


def test_bfs_vertex_range_checks():
    core = core_of(path_graph(3))
    with pytest.raises(ValueError):
        bfs_distance(core, 0, 3)
    with pytest.raises(ValueError):
        distances_from(core, -1)


def test_multi_vertex_attribute_is_a_clique():
    core = core_of(BipartiteIncidence.from_sets(4, 5, [[2], [2], [2], [4]]))
    e = unique_edges(core)
    assert e.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert bfs_distance(core, 0, 2).hops == 1


@pytest.fixture(scope="module")
def instance_1e5():
    """The n = 1e5 default-m instance at seed 1, with its apex."""
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, w = generate(params, trial_rng(1, n, 0))
    return inc, decompose(w, thresholds(n, 0.8, 1.0)).u_max


def traced_peak(run):
    """run()'s result and the peak traced bytes it allocated."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_components_memory_beyond_the_ball(instance_1e5):
    # Peak traced bytes of components(core, u_max) once its ball is
    # complete, against 8 bytes per core entry (an int64 array of the
    # core's length): the hook runs on what the ball did not reach.  A hook
    # over the whole core peaks near 1.71x, and a core-length int64 gather
    # such as ball.adist[attr_of] alone adds 1.0x.
    inc, u_max = instance_1e5
    core = core_of(inc)
    distances_from(core, u_max)
    comp, peak = traced_peak(lambda: components(core, u_max))
    assert comp.labels[u_max] == comp.giant
    assert peak <= 1.2 * 8 * core.attr_vertices.shape[0]  # 0.90x measured


def test_fresh_ball_memory(instance_1e5):
    # Peak traced bytes of completing a fresh ball of {u_max} with
    # distances_from, against 8 bytes per core entry: the ball walks each
    # level in slices of graphgen._RUN ids, so beside its own int32 counts
    # and the copy it returns only run-sized temporaries and the levels'
    # ids exist.  Walking a whole level at once peaked at 2.30x.
    inc, u_max = instance_1e5
    core = core_of(inc)
    dist, peak = traced_peak(lambda: distances_from(core, u_max))
    assert dist[u_max] == 0
    assert peak <= 1.2 * 8 * core.attr_vertices.shape[0]  # 1.08x measured


def test_packed_keys_past_2_31_match_scipy(instance_1e5):
    # n * num_attrs is about 2.3e10, far past 2**31, so a key that
    # _first_by, a tagged _hop or _descend packs from the core's int32 ids
    # wraps unless it is formed in int64.  Pair hops, the hub distances,
    # the component labels and routes down the hub's ball are checked
    # against scipy's csgraph on the star graph of the incidence.
    from scipy.sparse.csgraph import connected_components, shortest_path

    inc, u_max = instance_1e5
    n = inc.n
    core = core_of(inc)
    assert n * core.num_attrs > 2**34
    checks = load_perfbench("checks")
    graph = checks.star_graph(inc)
    _, star_labels = connected_components(graph, directed=False)
    _, first, which = np.unique(star_labels[:n], return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.shape[0])  # by first vertex
    comp = components(core, u_max)
    assert np.array_equal(comp.labels, rank[which])
    hub = shortest_path(graph, unweighted=True, indices=u_max)[:n]
    hub[np.isinf(hub)] = 2 * UNREACHED  # star hops are twice the graph's
    want = (hub // 2).astype(np.int64)
    assert np.array_equal(distances_from(core, u_max), want)
    pairs = trial_rng(5, n, 0).choice(comp.giant_vertices(), size=(20, 2))
    for u, v in pairs.tolist():
        assert bfs_distance(core, u, v).hops == checks.hops_from(graph, u, [v])[0]
    sources = pairs.ravel()
    for s, res in zip(sources.tolist(), nearest_routes(core, sources, np.array([u_max]))):
        assert res.hops == want[s] and res.path[0] == s and res.path[-1] == u_max
        for a, b in zip(res.path, res.path[1:]):
            assert b in neighbors(core, a)


def test_traversal_core_needs_a_core_only_instance(tmp_path):
    # a full instance, as generate, read_graph and from_sets give it, is
    # refused with a pointer to keep_core; its core-only form is built
    n = 200
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    generated, _ = generate(params, trial_rng(3, n, 0))
    path = tmp_path / "g.rig"
    write_graph(path, generated.m, generated.set_indptr, generated.set_attrs,
                params.alpha, params.c0, seed=3)
    for inc in (generated, read_graph(path)[0], path_graph(5)):
        assert not inc.core_only
        with pytest.raises(ValueError, match="keep_core"):
            TraversalCore(inc)
        inc.keep_core()
        assert TraversalCore(inc).n == inc.n


def test_int32_core_guard(monkeypatch):
    # ids and offsets of the core must stay below 2**31 to fit in int32;
    # TraversalCore passes its vertex, attribute and entry counts
    graphops._check_int32(2**31 - 1, 2**31 - 1, 2**31 - 1)
    for counts in ((2**31, 1, 1), (1, 2**31, 1), (1, 1, 2**31)):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            graphops._check_int32(*counts)
    calls = []
    monkeypatch.setattr(graphops, "_check_int32", lambda *counts: calls.append(counts))
    core_of(path_graph(5))
    assert calls == [(5, 4, 8)]
