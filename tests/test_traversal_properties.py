"""Property tests of the traversal core against the dense oracles.

Random small incidences cover the corner cases of the shared-attribute
core: isolated vertices, empty sets, attributes with a single holder and
several components.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigkit.graphgen import BipartiteIncidence, adjacent
from rigkit.graphops import (UNREACHED, bfs_distance, components, degrees,
                             distances_from, nearest_of, neighbors, unique_edges)

from oracles import (adjacency_matrix, all_pairs_hops, component_labels_bfs,
                     pair_hops_python)

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def incidences(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 16))
    sets = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=4),
                         min_size=n, max_size=n))
    return BipartiteIncidence.from_sets(n, m, [sorted(s) for s in sets])


def copy_of(inc):
    """The same graph as a fresh object, so with a fresh traversal cache."""
    return BipartiteIncidence.from_sets(inc.n, inc.m,
                                        [inc.set_of(v) for v in range(inc.n)])


def assert_walk(inc, path, start, end, hops):
    assert len(path) == hops + 1
    assert path[0] == start and path[-1] == end
    for a, b in zip(path, path[1:]):
        assert adjacent(inc, a, b)


def masks_clear(inc):
    core = inc._traversal_core
    return core is None or not any(mask.any() for mask in core.visited + core.seen)


@PROPS
@given(incidences())
def test_pair_hops_match_floyd_warshall(inc):
    fw = all_pairs_hops(adjacency_matrix(inc))
    for u in range(inc.n):
        for v in range(inc.n):
            res = bfs_distance(inc, u, v)
            if np.isinf(fw[u, v]):
                assert res.hops is None and res.path is None
            else:
                assert res.hops == int(fw[u, v])
                assert_walk(inc, res.path, u, v, res.hops)
    assert masks_clear(inc)


@PROPS
@given(incidences())
def test_distances_from_match_python_bfs(inc):
    adj = adjacency_matrix(inc)
    for s in range(inc.n):
        assert np.array_equal(distances_from(inc, s), pair_hops_python(adj, s))
    assert masks_clear(inc)


@PROPS
@given(incidences())
def test_component_labels_match_queue_bfs(inc):
    expect = component_labels_bfs(adjacency_matrix(inc))
    comp = components(inc)
    assert np.array_equal(comp.labels, expect)
    assert np.array_equal(comp.sizes, np.bincount(expect))


@PROPS
@given(incidences(), st.data())
def test_nearest_of_takes_smallest_target_at_min_distance(inc, data):
    source = data.draw(st.integers(0, inc.n - 1))
    targets = data.draw(st.lists(st.integers(0, inc.n - 1), min_size=1, max_size=5))
    dist = pair_hops_python(adjacency_matrix(inc), source)
    reach = [t for t in targets if dist[t] != UNREACHED]
    res = nearest_of(inc, source, np.array(targets))
    if not reach:
        assert res.hops is None and res.path is None
    else:
        best = min(dist[t] for t in reach)
        assert res.hops == best
        assert res.path[-1] == min(t for t in reach if dist[t] == best)
        assert_walk(inc, res.path, source, res.path[-1], res.hops)
    assert masks_clear(inc)


@PROPS
@given(incidences())
def test_neighbors_edges_degrees_match_adjacency(inc):
    adj = adjacency_matrix(inc)
    for u in range(inc.n):
        assert neighbors(inc, u).tolist() == np.flatnonzero(adj[u]).tolist()
    edges = unique_edges(inc)
    assert edges.tolist() == np.argwhere(np.triu(adj)).tolist()
    assert degrees(inc).tolist() == adj.sum(axis=1).tolist()
    assert masks_clear(inc)


@PROPS
@given(incidences())
def test_num_occupied_counts_distinct_attributes(inc):
    held = set()
    for v in range(inc.n):
        held.update(inc.set_of(v).tolist())
    assert inc.num_occupied == len(held)


def ask(inc, query):
    kind, a, b = query
    if kind == "pair":
        res = bfs_distance(inc, a, b)
        return res.hops, res.path
    if kind == "near":
        res = nearest_of(inc, a, np.array(b))
        return res.hops, res.path
    return distances_from(inc, a).tolist()


@st.composite
def query_plans(draw):
    """Two incidences and an interleaved list of (instance, query) pairs,
    some of them invalid."""
    graphs = [draw(incidences()), draw(incidences())]
    plan = []
    for _ in range(draw(st.integers(1, 12))):
        which = draw(st.integers(0, 1))
        n = graphs[which].n
        vertex = st.integers(-1, n)  # one past either end is invalid
        kind = draw(st.sampled_from(["pair", "near", "from"]))
        if kind == "near":
            query = (kind, draw(vertex), draw(st.lists(vertex, max_size=3)))
        else:
            query = (kind, draw(vertex), draw(vertex))
        plan.append((which, query))
    return graphs, plan


@PROPS
@given(query_plans())
def test_interleaved_queries_leave_no_trace(plan):
    graphs, queries = plan
    for which, query in queries:
        inc = graphs[which]
        try:
            got = ask(inc, query)
        except ValueError:
            # a rejected query must be rejected on a fresh cache too
            with pytest.raises(ValueError):
                ask(copy_of(inc), query)
        else:
            assert got == ask(copy_of(inc), query)
        assert masks_clear(inc)
