import numpy as np
import pytest

from rigkit.graphgen import BipartiteIncidence, generate
from rigkit.graphops import (
    UNREACHED,
    TraversalCore,
    bfs_distance,
    components,
    degrees,
    distances_from,
    nearest_of,
    unique_edges,
)
from rigkit.model import ModelParams, trial_rng

from oracles import (
    adjacency_matrix,
    all_pairs_hops,
    component_labels_bfs,
    pair_hops_python,
    shares_attribute,
)


def path_graph(k: int) -> BipartiteIncidence:
    """0-1-2-...-k-1 via shared attributes i between i and i+1."""
    sets = [[0]] + [[i - 1, i] for i in range(1, k - 1)] + [[k - 2]]
    return BipartiteIncidence.from_sets(k, k, sets)


def test_path_graph_distances():
    core = TraversalCore(path_graph(5))
    res = bfs_distance(core, 0, 4)
    assert res.hops == 4
    assert res.path == [0, 1, 2, 3, 4]
    assert bfs_distance(core, 2, 2).hops == 0
    d = distances_from(core, 0)
    assert d.tolist() == [0, 1, 2, 3, 4]


def test_disconnected_components():
    core = TraversalCore(BipartiteIncidence.from_sets(5, 10, [[0], [0], [5], [5], []]))
    comp = components(core)
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
    comp = components(TraversalCore(inc))
    assert comp.labels.tolist() == [0, 1, 0, 2, 1, 2]


def test_components_match_bfs_oracle(small_instances):
    for params, inc, w in small_instances:
        adj = adjacency_matrix(inc)
        expect = component_labels_bfs(adj)
        got = components(TraversalCore(inc))
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
def test_components_large_diameter_match_bfs_oracle(name):
    inc = LONG_DIAMETER[name]
    expect = component_labels_bfs(adjacency_matrix(inc))
    got = components(TraversalCore(inc))
    assert np.array_equal(got.labels, expect)
    assert np.array_equal(got.sizes, np.bincount(expect))
    assert got.giant == int(np.argmax(np.bincount(expect)))


def test_distances_match_floyd_warshall(small_instances):
    for params, inc, w in small_instances:
        adj = adjacency_matrix(inc)
        fw = all_pairs_hops(adj)
        core = TraversalCore(inc)
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
    core = TraversalCore(inc)
    for s in (0, 13, 59):
        assert np.array_equal(distances_from(core, s), pair_hops_python(adj, s))


def test_shortest_path_is_a_real_walk(small_instances):
    for params, inc, w in small_instances:
        core = TraversalCore(inc)
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
                assert shares_attribute(inc, a, b)


def test_finite_distance_iff_same_component(small_instances):
    params, inc, w = small_instances[1]
    core = TraversalCore(inc)
    comp = components(core)
    d = distances_from(core, 0)
    same = comp.labels == comp.labels[0]
    assert np.array_equal(d != UNREACHED, same)


def test_nearest_of_min_distance_and_tie_break():
    core = TraversalCore(path_graph(7))
    # targets at distance 2 (vertex 1) and 2 (vertex 5) from 3: tie -> id 1
    res = nearest_of(core, 3, np.array([5, 1]))
    assert res.hops == 2
    assert res.path[-1] == 1
    # target unreachable
    core2 = TraversalCore(BipartiteIncidence.from_sets(3, 6, [[0], [0], [4]]))
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
        core = TraversalCore(inc)
        got = unique_edges(core)
        assert np.array_equal(got, expect)
        assert np.array_equal(degrees(core), adj.sum(axis=1))


def test_bfs_vertex_range_checks():
    core = TraversalCore(path_graph(3))
    with pytest.raises(ValueError):
        bfs_distance(core, 0, 3)
    with pytest.raises(ValueError):
        distances_from(core, -1)


def test_multi_vertex_attribute_is_a_clique():
    core = TraversalCore(BipartiteIncidence.from_sets(4, 5, [[2], [2], [2], [4]]))
    e = unique_edges(core)
    assert e.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert bfs_distance(core, 0, 2).hops == 1
