"""Property tests of the traversal core against the dense oracles.

Random small incidences cover the corner cases of the shared-attribute
core: isolated vertices, empty sets, attributes with a single holder and
several components.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigkit import graphops
from rigkit.graphgen import PACK_LIMIT, BipartiteIncidence, _attr_major, _occupied_attrs
from rigkit.graphops import (UNREACHED, TraversalCore, _descent_levels,
                             _first_by, bfs_distance, components, degrees,
                             distances_from, nearest_of, nearest_routes, neighbors,
                             unique_edges)

from oracles import (adjacency_matrix, all_pairs_hops, balanced_pair_reference,
                     component_labels_bfs, first_by_reference, nearest_route_reference,
                     pair_hops_python, shares_attribute, target_ball_reference,
                     traversal_core_reference, traversal_core_two_sorts)

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def incidences(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 16))
    sets = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=4),
                         min_size=n, max_size=n))
    return BipartiteIncidence.from_sets(n, m, [sorted(s) for s in sets])


def assert_walk(inc, path, start, end, hops):
    assert len(path) == hops + 1
    assert path[0] == start and path[-1] == end
    indptr, ids = inc.set_indptr, inc.set_attrs
    for a, b in zip(path, path[1:]):
        assert a != b and shares_attribute(indptr, ids, a, b)


def masks_clear(core):
    return not any(mask.any() for mask in core.visited + core.seen)


@PROPS
# two crossing 3-hop routes, 0-1-4-5 and 0-2-3-5, where every frontier
# weighs the same: the tie rule decides which side meets the other, and so
# which route the path takes
@example(BipartiteIncidence.from_sets(6, 6, [[0, 1], [0, 2], [1, 3], [3, 5], [2, 4], [4, 5]]))
@given(incidences())
def test_pair_hops_match_floyd_warshall(inc):
    fw = all_pairs_hops(adjacency_matrix(inc))
    core = TraversalCore(inc)
    for u in range(inc.n):
        for v in range(inc.n):
            res = bfs_distance(core, u, v)
            assert res.path == balanced_pair_reference(inc, u, v)
            if np.isinf(fw[u, v]):
                assert res.hops is None and res.path is None
            else:
                assert res.hops == int(fw[u, v])
                assert_walk(inc, res.path, u, v, res.hops)
    assert masks_clear(core)


@PROPS
@given(incidences())
def test_distances_from_match_python_bfs(inc):
    adj = adjacency_matrix(inc)
    core = TraversalCore(inc)
    for s in range(inc.n):
        assert np.array_equal(distances_from(core, s), pair_hops_python(adj, s))
    assert masks_clear(core)


@PROPS
@given(inc=incidences(), data=st.data())
def test_component_labels_match_queue_bfs(each_block, inc, data):
    # the root may be isolated or in a small component; its ball is left
    # complete, so distances_from(root) only copies it; under each_block the
    # ball walks its levels in slices of 1, 5 and 16 ids
    adj = adjacency_matrix(inc)
    expect = component_labels_bfs(adj)
    root = data.draw(st.integers(0, inc.n - 1))

    def check():
        core = TraversalCore(inc)
        comp = components(core, root)
        assert np.array_equal(comp.labels, expect)
        assert np.array_equal(comp.sizes, np.bincount(expect))
        assert comp.giant == int(np.argmax(np.bincount(expect)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphops._TargetBall, "expand", None)  # a call raises TypeError
            assert np.array_equal(distances_from(core, root), pair_hops_python(adj, root))
        assert masks_clear(core)
    each_block(check)


@PROPS
@given(incidences(), st.data())
def test_nearest_of_takes_smallest_target_at_min_distance(inc, data):
    source = data.draw(st.integers(0, inc.n - 1))
    targets = data.draw(st.lists(st.integers(0, inc.n - 1), min_size=1, max_size=5))
    dist = pair_hops_python(adjacency_matrix(inc), source)
    reach = [t for t in targets if dist[t] != UNREACHED]
    core = TraversalCore(inc)
    res = nearest_of(core, source, np.array(targets))
    if not reach:
        assert res.hops is None and res.path is None
    else:
        best = min(dist[t] for t in reach)
        assert res.hops == best
        assert res.path[-1] == min(t for t in reach if dist[t] == best)
        assert_walk(inc, res.path, source, res.path[-1], res.hops)
    assert masks_clear(core)


@PROPS
@given(incidences(), st.data())
def test_nearest_of_route_matches_python_bfs(inc, data):
    # the documented tie-breaks, hop for hop: smallest-id attribute, then
    # smallest-id owner; every single target, so that routes reach ties
    drawn = data.draw(st.lists(st.integers(0, inc.n - 1), min_size=1, max_size=5))
    core = TraversalCore(inc)
    for source in range(inc.n):
        for targets in [[t] for t in range(inc.n)] + [drawn]:
            res = nearest_of(core, source, np.array(targets))
            assert res.path == nearest_route_reference(inc, source, targets)
    assert masks_clear(core)


@st.composite
def ball_sources(draw):
    """An incidence and a nonempty source list, unsorted and with repeats."""
    inc = draw(incidences())
    return inc, draw(st.lists(st.integers(0, inc.n - 1), min_size=1, max_size=6))


def complete_ball(inc, sources):
    core = TraversalCore(inc)
    ball = core.ball_around(np.array(sources, dtype=np.int64))
    while ball.frontier.size:
        ball.expand(core)
    return core, ball


@PROPS
@example(case=(BipartiteIncidence.from_sets(4, 3, [[0], [0, 1], [1, 2], [2]]), [3, 0, 3]))
@given(case=ball_sources())
def test_target_ball_matches_reference(each_block, case):
    # level by level: a partly grown ball holds exactly the reference's
    # counts up to its depth (attributes: below it); before it first grows,
    # only its members' counts are read.  It starts where a complete ball
    # of other sources left its arrays.  Under each_block it walks each
    # frontier and attribute level in slices of 1, 5 and 16 ids.
    inc, sources = case
    dist, adist = target_ball_reference(inc, sources)

    def check():
        core, ball = complete_ball(inc, [inc.n - 1 - s for s in sources])
        ball.restart(core, np.array(sources, dtype=np.int64))
        assert ball.sources.tolist() == sources
        while True:
            depth = ball.depth
            within = [d if d <= depth else UNREACHED for d in dist]
            assert ball.inside.tolist() == [d != UNREACHED for d in within]
            assert np.where(ball.inside, ball.dist, UNREACHED).tolist() == within
            if depth:
                assert ball.dist.tolist() == within
                assert ball.adist.tolist() == [d if d < depth else UNREACHED
                                               for d in adist]
            assert ball.frontier.tolist() == [v for v, d in enumerate(dist) if d == depth]
            if ball.frontier.size == 0:
                break
            ball.expand(core)
    each_block(check)


@PROPS
@given(ball_sources())
def test_descend_keeps_only_shortest_route_levels(case):
    # every reachable vertex v descends at once, joining at its own hop
    # count D(v): step k from v keeps the vertices k hops from v and D(v) - k
    # from the sources, and the attributes at hop D(v) - k held by the step
    # before: nothing off a shortest route, with the smallest-id via and
    # owner, and nothing of v's before it joins
    inc, sources = case
    dist, adist = target_ball_reference(inc, sources)
    ref = traversal_core_reference(inc)
    held = [ref["set_attrs"][ref["set_indptr"][v]:ref["set_indptr"][v + 1]]
            for v in range(inc.n)]
    adj = adjacency_matrix(inc)
    core, ball = complete_ball(inc, sources)
    n, num_attrs = inc.n, core.num_attrs
    starts = [v for v in range(n) if dist[v] != UNREACHED]
    keys = np.array([i * n + v for i, v in enumerate(starts)], dtype=np.int64)
    levels = _descent_levels(core, ball, keys)
    depth = max(dist[v] for v in starts)
    assert len(levels) == depth
    for i, v in enumerate(starts):
        for verts, _, attrs, _ in levels[:depth - dist[v]]:
            assert i not in (verts // n).tolist() + (attrs // num_attrs).tolist()
        hops = pair_hops_python(adj, v)
        prev = [v]
        for k in range(1, dist[v] + 1):
            down = dist[v] - k
            verts, via, attrs, owners = levels[depth - 1 - down]
            mine = attrs // num_attrs == i
            got = (attrs[mine] % num_attrs).tolist()
            assert got == sorted({a for x in prev for a in held[x] if adist[a] == down})
            assert owners[mine].tolist() == [min(x for x in prev if a in held[x])
                                             for a in got]
            mine = verts // n == i
            want = [y for y in range(n) if hops[y] == k and dist[y] == down]
            assert (verts[mine] % n).tolist() == want
            assert via[mine].tolist() == [min(a for a in got if a in held[y])
                                          for y in want]
            prev = want
        assert all(dist[x] == 0 for x in prev)


@PROPS
@given(incidences(), st.data())
def test_warm_ball_routes_match_python_bfs(inc, data):
    # target set by target set, one partly grown ball serves every source in
    # three orders; a second set of the same size and distances_from calls,
    # whose results the caller overwrites, restart or complete it in between
    n = inc.n
    vertex = st.integers(0, n - 1)
    first = data.draw(st.lists(vertex, min_size=1, max_size=4))
    second = data.draw(st.lists(vertex, min_size=len(first), max_size=len(first)))
    hub = data.draw(vertex)
    orders = [range(n), range(n - 1, -1, -1), data.draw(st.permutations(range(n)))]
    hub_hops = pair_hops_python(adjacency_matrix(inc), hub).tolist()
    core = TraversalCore(inc)
    routes = {}
    for targets in (first, second, [hub], first):
        for order in orders:
            for v in order:
                key = (v, tuple(targets))
                if key not in routes:
                    routes[key] = nearest_route_reference(inc, v, targets)
                assert nearest_of(core, v, np.array(targets)).path == routes[key]
        got = distances_from(core, hub)
        assert got.tolist() == hub_hops
        got[:] = 0
    assert masks_clear(core)


def test_warm_ball_edge_cases():
    # a path 0-1-2-3-4 whose end 0 holds three attributes, and an edge 5-6
    core = TraversalCore(BipartiteIncidence.from_sets(
        7, 12, [[0, 8, 9, 10], [0, 1, 8, 9, 10], [1, 2], [2, 3], [3], [11], [11]]))
    targets = np.array([0])
    # the forward side (one entry a level) runs dry while the ball, four
    # entries wide, has not grown at all
    assert nearest_of(core, 5, targets).path is None
    ball = core.ball
    assert ball.depth == 0 and ball.frontier.tolist() == [0]
    assert nearest_of(core, 4, targets).path == [4, 3, 2, 1, 0]
    grown = ball.depth
    assert grown >= 1
    for v in range(grown + 1):  # inside the grown ball: no growth needed
        assert nearest_of(core, v, targets).path == list(range(v, -1, -1))
        assert core.ball is ball and ball.depth == grown
    # a caller's copy from distances_from is its own
    got = distances_from(core, 0)
    got[:] = 0
    assert distances_from(core, 0).tolist() == [0, 1, 2, 3, 4, UNREACHED, UNREACHED]
    assert nearest_of(core, 4, targets).path == [4, 3, 2, 1, 0]
    # the ball is complete: an escape from outside it stops without growing it
    depth = ball.depth
    assert nearest_of(core, 6, targets).path is None
    assert ball.depth == depth
    assert masks_clear(core)


def route_paths(core, sources, targets):
    return [res.path for res in nearest_routes(core, sources, np.array(targets))]


@PROPS
@given(incidences(), st.data())
def test_nearest_routes_match_python_bfs(inc, data):
    # every vertex, some of them again and the targets once more, so the
    # batch holds sources inside, outside and unreachable from the ball,
    # repeats and targets; each of three orders runs on a restarted ball that
    # earlier queries grew part way and whose routes they left behind, and
    # asking again only looks the kept routes up
    n = inc.n
    vertex = st.integers(0, n - 1)
    targets = data.draw(st.one_of(st.lists(vertex, min_size=1, max_size=1),
                                  st.lists(vertex, min_size=2, max_size=4)))
    sources = list(range(n)) + data.draw(st.lists(vertex, max_size=6)) + targets
    warm = data.draw(st.lists(vertex, max_size=3))
    grow = data.draw(st.integers(0, 3))
    want = {v: nearest_route_reference(inc, v, targets) for v in range(n)}
    core = TraversalCore(inc)
    orders = [sources, sources[::-1], data.draw(st.permutations(sources))]
    for order in orders:
        ball = core.ball_around(np.array(targets))
        ball.restart(core, np.array(targets))
        assert ball.routes == {}
        for v in warm:
            assert nearest_of(core, v, np.array(targets)).path == want[v]
        for _ in range(grow):
            if ball.frontier.size:
                ball.expand(core)
        for _ in range(2):
            res = nearest_routes(core, order, np.array(targets))
            assert [r.path for r in res] == [want[v] for v in order]
            assert [r.hops for r in res] == [None if want[v] is None else len(want[v]) - 1
                                             for v in order]
        assert core.ball is ball and sorted(ball.routes) == sorted(set(sources))
        assert masks_clear(core)


def test_kept_routes_are_the_callers_copies():
    # the path 0-1-2-3-4 and the edge 5-6 of test_warm_ball_edge_cases
    core = TraversalCore(BipartiteIncidence.from_sets(
        7, 12, [[0, 8, 9, 10], [0, 1, 8, 9, 10], [1, 2], [2, 3], [3], [11], [11]]))
    first = nearest_routes(core, [4, 4, 2, 6], np.array([0]))
    assert [r.path for r in first] == [[4, 3, 2, 1, 0]] * 2 + [[2, 1, 0], None]
    first[0].path.append(9)
    first[1].path[:] = []
    nearest_of(core, 2, np.array([0])).path.reverse()
    assert route_paths(core, [2, 4, 6], [0]) == [[2, 1, 0], [4, 3, 2, 1, 0], None]
    assert nearest_of(core, 4, np.array([0])).hops == 4
    # another target set restarts the ball and drops its routes
    assert route_paths(core, [4], [6]) == [None]
    assert list(core.ball.routes) == [4]


@PROPS
@given(incidences())
def test_traversal_core_matches_reference(inc):
    core = TraversalCore(inc)
    want = traversal_core_reference(inc)
    assert core.num_attrs == want["num_attrs"]
    for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
        got = getattr(core, name)
        assert got.dtype == np.int32, name
        assert got.tolist() == want[name], name
    assert core.ball.dist.dtype == core.ball.adist.dtype == np.int32


def assert_core_matches_two_sorts(each_block, inc):
    """TraversalCore(inc) has the two-sort formula's arrays under every
    block size, and leaves inc as it was."""
    ids, indptr, keys = inc.set_attrs, inc.set_indptr.copy(), inc.keys.copy()
    want = traversal_core_two_sorts(indptr, ids)

    def check():
        core = TraversalCore(inc)
        assert core.num_attrs == want["num_attrs"]
        for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
            assert np.array_equal(getattr(core, name), want[name]), name
        assert np.array_equal(core.set_sizes, np.diff(want["set_indptr"]))
    each_block(check)
    assert np.array_equal(inc.keys, keys) and np.array_equal(inc.set_indptr, indptr)


@PROPS
@example(inc=BipartiteIncidence.from_sets(3, 6, [[], [], []]))  # empty
@example(inc=BipartiteIncidence.from_sets(4, 6, [[0], [3, 5], [1], []]))  # nothing shared
@given(inc=incidences())
def test_traversal_core_matches_two_sort_formula(each_block, inc):
    assert_core_matches_two_sorts(each_block, inc)


@st.composite
def wide_incidences(draw):
    """Incidences with few ids in a pool far larger than the entries, around
    2**32 and up to n * m just below PACK_LIMIT, half of the ids packed
    within 64 of each other (often at the top of the pool): packed keys
    then reach the top of their range, and shared and private attributes
    lie side by side."""
    n = draw(st.integers(1, 10))
    m = draw(st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**33, 2**40,
                              (PACK_LIMIT - 1) // n]))
    base = draw(st.one_of(st.just(m - 64), st.integers(0, m - 64)))
    near = st.integers(base, base + 63)
    pool = draw(st.lists(st.one_of(near, st.integers(0, m - 1)), min_size=1, max_size=8))
    sets = draw(st.lists(st.sets(st.sampled_from(pool), max_size=4),
                         min_size=n, max_size=n))
    return BipartiteIncidence.from_sets(n, m, [sorted(s) for s in sets])


@PROPS
@given(inc=wide_incidences())
def test_traversal_core_on_wide_id_pools(each_block, inc):
    assert_core_matches_two_sorts(each_block, inc)


@PROPS
@given(inc=wide_incidences(), data=st.data())
def test_nearest_routes_on_wide_id_pools(inc, data):
    # a descent key (source index, id) stays below PACK_LIMIT: the chunk of
    # sources is PACK_LIMIT // (n * num_attrs), so with the limit at one or
    # two chunks' worth every batch holds that many sources, every key that
    # _first_by packs stays below the limit, and the routes do not change
    n = inc.n
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    sources = list(range(n)) * 2
    want = [nearest_route_reference(inc, v, targets) for v in sources]
    core = TraversalCore(inc)
    room = max(n * core.num_attrs, 1)
    route_batch, first_by = graphops._route_batch, graphops._first_by
    for per_chunk in (1, 2, None):
        limit = PACK_LIMIT if per_chunk is None else room * per_chunk
        batches = []

        def counted(core, ball, batch):
            batches.append(len(batch))
            route_batch(core, ball, batch)

        def bounded(keys, vals, base):
            assert keys.size == 0 or int(keys.max()) * base + base - 1 < limit
            return first_by(keys, vals, base)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphops, "PACK_LIMIT", limit)
            mp.setattr(graphops, "_route_batch", counted)
            mp.setattr(graphops, "_first_by", bounded)
            core.ball_around(np.array(targets)).restart(core, np.array(targets))
            assert route_paths(core, sources, targets) == want
        assert sum(batches) == n
        if per_chunk is not None:
            assert max(batches) <= per_chunk
    assert masks_clear(core)


def test_candidate_keys_keep_every_shared_entry():
    # attribute 5 is shared; 7, its near neighbour, and 2**39 are private;
    # the core keeps attribute 5 alone
    inc = BipartiteIncidence.from_sets(3, 2**40, [[5, 7], [5], [2**39]])
    core = TraversalCore(inc)
    assert core.num_attrs == 1 and core.attr_vertices.tolist() == [0, 1]


@st.composite
def keyed_vals(draw):
    """(keys, vals, base) as _first_by takes them: vals in [0, base) and
    key * base below PACK_LIMIT, with small and near-limit magnitudes."""
    base = draw(st.one_of(st.integers(1, 6), st.integers(1, 2**31)))
    key_max = 12 if base <= 6 else (PACK_LIMIT - 1) // base
    size = draw(st.integers(0, 40))
    keys = draw(st.lists(st.integers(0, key_max), min_size=size, max_size=size))
    vals = draw(st.lists(st.integers(0, base - 1), min_size=size, max_size=size))
    return keys, vals, base


@PROPS
@example(([], [], 5))
@example(([3] * 6, [4, 0, 2, 4, 1, 0], 5))
@example(([2, 0, 2, 0, 1], [1, 1, 1, 1, 0], 2))
@example(([7, 7, 1, 1], [4, 4, 4, 4], 5))
@example(([2**31 - 1] * 3, [2**31 - 1, 2**31 - 2, 2**31 - 1], 2**31))
@given(keyed_vals())
def test_first_by_matches_dict_reference(case):
    keys, vals, base = case
    got_keys, got_vals = _first_by(np.array(keys, dtype=np.int64),
                                   np.array(vals, dtype=np.int64), base)
    assert (got_keys.tolist(), got_vals.tolist()) == first_by_reference(keys, vals)


@PROPS
@given(incidences())
def test_neighbors_edges_degrees_match_adjacency(inc):
    adj = adjacency_matrix(inc)
    core = TraversalCore(inc)
    for u in range(inc.n):
        assert neighbors(core, u).tolist() == np.flatnonzero(adj[u]).tolist()
    edges = unique_edges(core)
    assert edges.tolist() == np.argwhere(np.triu(adj)).tolist()
    assert degrees(core).tolist() == adj.sum(axis=1).tolist()
    assert masks_clear(core)


@PROPS
@given(incidences())
def test_sorted_unique_counts_occupied_attributes(each_block, inc):
    # how generate's sidecar and the union-coverage check count occupied
    # attributes: run by run over the sorted keys, across run edges
    held = set(inc.set_attrs.tolist())

    def check():
        keys = _attr_major(inc.set_attrs, inc.n, inc.set_indptr)
        assert _occupied_attrs(keys, inc.n) == len(held)
    each_block(check)


def ask(core, query):
    kind, a, b = query
    if kind == "pair":
        res = bfs_distance(core, a, b)
        return res.hops, res.path
    if kind == "near":
        res = nearest_of(core, a, np.array(b))
        return res.hops, res.path
    return distances_from(core, a).tolist()


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
    cores = [TraversalCore(inc) for inc in graphs]
    for which, query in queries:
        core = cores[which]
        try:
            got = ask(core, query)
        except ValueError:
            # a rejected query must be rejected on a fresh core too
            with pytest.raises(ValueError):
                ask(TraversalCore(graphs[which]), query)
        else:
            assert got == ask(TraversalCore(graphs[which]), query)
        assert masks_clear(core)
