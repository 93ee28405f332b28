"""Connectivity and shortest paths on the intersection graph.

Every traversal runs on the *shared-attribute core* of the incidence: the
bipartite vertex-attribute structure restricted to attributes held by at
least two vertices.  An attribute with a single holder creates no edge, so
leaving it out keeps every component, distance, neighbour list and degree.
Under the default m-rule at n = 1e5 the core keeps about 12% of the
incidence entries (474k of 4.04M) and 6% of the occupied attributes (232k of
3.80M).  It is the only attribute-side view of an instance, and it is built
only from a core-only instance (graphgen's keep_core): from its shared
entries, held as sorted keys attribute * n + vertex, whose runs of equal
attributes are the core's attribute side, and from one packed sort of
vertex * num_attrs + core id for the vertex side; core attributes are
numbered in increasing order of original id.  A one-sided search thus makes
the same smallest-id parent choices, and traces the same paths, as it would
on the full incidence.  A full instance, as generate and read_graph give
it, raises ValueError.  graphgen._shared_entries only reads the keys, into
a copy.  The core is held in int32, and each int64 temporary of the build
is freed as soon as its int32 result exists: at n = 1e5 the build alone
peaks at 2.37x the bytes of the core-only keys, 0.28x those of the full
keys (test_graphgen's test_instance_build_memory).  Every packed key is
formed in int64: numpy keeps an int32 array times a Python int in int32,
and wraps on overflow.

Component labels start from a root: its component is the completed target
ball of {root} (below), the ball that distances_from(root) then copies.
Only the core attributes the ball did not reach, and their holders, go
through min-label hook and compress, with numpy scatters and no second
graph.  Rooted at an instance's apex, the ball holds the giant, about 95%
of the vertices at n = 1e5, so the hook runs on a small remainder.  The
final label of a vertex is its component's smallest id, so the canonical
numbering is a cumulative sum.  Outside the package, this module imports
only numpy.

Searches alternate vertex-side and attribute-side frontiers; an
intersection-graph hop is two bipartite hops.  This keeps hub cliques
implicit: a popular attribute is expanded once instead of contributing
quadratically many edges.  One function takes that hop for a search and for
a descent through the target ball, so both pick the same smallest-id
attribute and owner.

Every search between two sides runs through one balanced loop, _meet: each
step advances, by one full hop, the side whose frontier holds fewer core
entries, until a new level meets the other side, so a query scans a small
fraction of the core.  A pair distance is a search from u against one from
v (balanced bidirectional BFS).  A search to a vertex set is a search from
the source against a *target ball*: a multi-source BFS from the set, grown
one level at a time and only as far as queries need it.  The ball records
the hop count of every vertex it reaches and of every core attribute (the
count of the attribute's nearest holder).  It makes no via or owner choice,
so it needs no sort: each level is scattered into the count arrays, in
slices of graphgen._RUN vertices and then attributes, and read back with
np.flatnonzero.  The ball of the last set asked about stays in the core,
so the searches of one trial that share their targets share its levels,
and components(root) and distances_from(u) complete the ball of {root} or
{u}: the component labels leave behind the ball that the hub distances
copy and the escapes to {u_max} then use.

nearest_routes answers many sources at once.  Each source's forward search
runs alone until it meets the ball; then one descent carries every source
down through the ball, one hop per hop count over the union of their
levels, each entry keyed by source index * n + id (source index *
num_attrs + id for an attribute), so that every source keeps its own
smallest-id target, attribute and owner; the trace-back is vectorized
across the sources.  They are taken in chunks of
max(1, PACK_LIMIT // (n * num_attrs)), which keeps every packed key below
PACK_LIMIT.  The ball keeps each route it has found, keyed by source, until
it restarts for another set, so asking again is a lookup that hands out a
copy; nearest_of is the one-source case.

A TraversalCore is built once from an incidence, keeps no reference to it,
and is passed to every function here.  Besides the two CSR sides it owns a
visited mask over vertices and a seen mask over core attributes for each
of the two sides of a search, and the target ball: n + num_attrs int32
counts, an n-byte membership mask and the routes it keeps.  A query allocates in
proportion to what it scans, and on the way out clears only the mask
entries it set; a ball for a new target set clears the ball's arrays.  At
n = 1e5 a core holds about 8.0 MB, 1.4 MB of it the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import graphgen
from .graphgen import (PACK_LIMIT, BipartiteIncidence, _shared_entries, _sorted_unique,
                       concat_ranges)

__all__ = [
    "ComponentLabeling",
    "DistanceResult",
    "TraversalCore",
    "components",
    "bfs_distance",
    "distances_from",
    "nearest_of",
    "nearest_routes",
    "neighbors",
    "unique_edges",
    "degrees",
]

UNREACHED = -1  # in-array marker for "no finite distance"; JSON uses null


@dataclass(frozen=True)
class ComponentLabeling:
    """Vertex component labels, canonical: label k's first vertex precedes
    label k+1's first vertex.  sizes[k] counts vertices; giant is the label
    of a largest component (smallest label on ties)."""

    labels: np.ndarray
    sizes: np.ndarray
    giant: int

    @property
    def count(self) -> int:
        return self.sizes.shape[0]

    def giant_fraction(self) -> float:
        return float(self.sizes[self.giant]) / float(self.labels.shape[0])

    def giant_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == self.giant)


class TraversalCore:
    """CSR of the shared-attribute core plus the masks of two search sides.

    set_indptr/set_attrs list each vertex's core attributes, numbered
    0..num_attrs-1 in increasing order of original id, and set_sizes counts
    them, so that balancing a search costs one gather; attr_indptr/
    attr_vertices list each core attribute's holders, sorted.  visited[side]
    (length n) and seen[side] (length num_attrs) are all False between
    queries.  ball is the target ball of the last source set that
    nearest_routes, distances_from or components asked about (it has no
    sources before the first).  The incidence is read once, here: only its
    n, whether it is core-only and its keys, which are left as they were
    and not kept; its vertex-major ids are not derived.  It must be
    core-only (graphgen's keep_core), and a full one raises ValueError.

    Both sides come from packed int64 keys: the incidence's attribute * n +
    vertex, sorted, then vertex * num_attrs + core id.  Attribute ids are
    below m and num_attrs <= m, so every key stays below n * m < PACK_LIMIT.
    The four CSR arrays are int32 (set_sizes is int64): a core whose n,
    attribute count or entry count reaches 2**31 raises ValueError
    (_check_int32).  The build frees each int64 temporary once its int32
    result exists: the int64 holders from _shared_entries are packed into
    the vertex-major keys in place, the core ids are an in-place cumulative
    sum over int32 flags, and set_indptr is counted from the sorted keys
    run by run (_row_pointer), so no int64 array of the core's length
    outlives its use or is made beside them.
    """

    def __init__(self, inc: BipartiteIncidence):
        if not inc.core_only:
            raise ValueError("a traversal core is built from a core-only instance: "
                             "call its keep_core() first")
        n = inc.n
        self.n = n
        keys, starts = _shared_entries(inc)
        entries = keys.shape[0]
        self.num_attrs = int(np.count_nonzero(starts))
        _check_int32(n, self.num_attrs, entries)
        self.attr_vertices = keys.astype(np.int32)
        self.attr_indptr = np.empty(self.num_attrs + 1, dtype=np.int32)
        self.attr_indptr[:-1] = np.flatnonzero(starts)
        self.attr_indptr[-1] = entries
        # vertex-major: each vertex's core ids come out increasing; the
        # int64 holders become the packed keys in place
        keys *= self.num_attrs
        ids = starts.astype(np.int32)
        del starts
        np.cumsum(ids, out=ids)
        ids -= 1
        keys += ids
        del ids
        keys.sort()
        self.set_indptr = _row_pointer(keys, n, self.num_attrs)
        keys %= self.num_attrs
        self.set_attrs = keys.astype(np.int32)
        del keys
        self.set_sizes = np.diff(self.set_indptr).astype(np.int64)
        self.visited = (np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
        self.seen = (np.zeros(self.num_attrs, dtype=bool),
                     np.zeros(self.num_attrs, dtype=bool))
        self.ball = _TargetBall(self)

    def ball_around(self, sources: np.ndarray) -> "_TargetBall":
        """The cached target ball of sources, restarted for a new set."""
        if not np.array_equal(self.ball.sources, sources):
            self.ball.restart(self, sources)
        return self.ball

    def entries(self, verts: np.ndarray) -> int:
        """Core incidence entries held by the given vertices."""
        return int(self.set_sizes[verts].sum())


def _row_pointer(keys: np.ndarray, n: int, num_attrs: int) -> np.ndarray:
    """The int32 row pointer of n vertices' sorted vertex * num_attrs + id
    keys.  The keys are counted graphgen._RUN at a time: a run's vertices
    span a range from its first, which one np.bincount counts, so each
    temporary spans one run's keys or its vertex range, the ranges add up
    to at most n plus the number of runs, and no search per vertex
    boundary is made."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    for start in range(0, keys.shape[0], graphgen._RUN):
        verts = keys[start:start + graphgen._RUN] // num_attrs
        first = int(verts[0])
        verts -= first
        counts = np.bincount(verts)
        indptr[first + 1:first + 1 + counts.shape[0]] += counts
    np.cumsum(indptr, out=indptr)
    return indptr


def _check_int32(n: int, num_attrs: int, entries: int) -> None:
    """Raise ValueError unless a core of n vertices, num_attrs attributes
    and entries incidence entries has every id and offset below 2**31."""
    if max(n, num_attrs, entries) >= 2**31:
        raise ValueError(f"a core of n = {n}, {num_attrs} attributes and {entries} "
                         f"entries needs each of them below 2**31 to fit in int32")


def _first_by(keys: np.ndarray, vals: np.ndarray, base: int):
    """Sorted distinct keys, each paired with its smallest val.

    Every val lies in [0, base), so one in-place sort of key * base + val
    orders by key, then by val, and the first entry of each key's run holds
    its smallest val.  The callers pair core attributes with owners
    (base n) and vertices with core attributes (base num_attrs), so a packed
    key stays below n * num_attrs <= n * m < PACK_LIMIT; a tagged _hop over
    a chunk of c sources packs keys below c * n * num_attrs <= PACK_LIMIT.
    The keys may be the core's int32 ids, so they are packed in int64: an
    int32 product would wrap once n * num_attrs passes 2**31.  Both results
    are int64.
    """
    if keys.size == 0:
        return keys, vals
    packed = np.multiply(keys, base, dtype=np.int64)
    packed += vals
    packed.sort()
    keys = packed // base
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep], packed[keep] % base


def _hop(core: TraversalCore, verts: np.ndarray, attr_mark: np.ndarray,
         attr_want: int, vert_mark: np.ndarray, vert_want: int,
         tagged: bool = False) -> tuple:
    """One intersection hop out of the sorted vertices verts, as a level.

    Returns (nxt, via, attrs, owners) laid out as _Search records a level:
    attrs are the core attributes a held by verts with attr_mark[a] ==
    attr_want, sorted, each with its smallest-id holder in verts; nxt are
    the holders x of attrs with vert_mark[x] == vert_want, sorted, each with
    the smallest-id attribute of attrs it holds.  A search and a descent
    share this step, so both make the same via and owner choices.

    tagged hops many searches at once: verts then holds keys i * n + x of
    a vertex x on search i's level, attrs comes out as keys i * num_attrs + a
    and nxt as keys i * n + x, each formed in int64 from the core's int32
    ids, and each search makes its own choices; via and owners stay plain
    ids.  Every array returned is int64.
    """
    n, num_attrs = core.n, core.num_attrs
    attrs, lens = concat_ranges(core.set_indptr, core.set_attrs,
                                verts % n if tagged else verts)
    owners = np.repeat(verts, lens)
    keep = attr_mark.take(attrs) == attr_want
    attrs, owners = attrs[keep], owners[keep]
    if tagged:
        tags, owners = np.divmod(owners, n)
        attrs = tags * num_attrs + attrs
    keys, owners = _first_by(attrs, owners, n)
    attrs = keys % num_attrs if tagged else keys
    nxt, lens = concat_ranges(core.attr_indptr, core.attr_vertices, attrs)
    via = np.repeat(keys, lens)
    keep = vert_mark.take(nxt) == vert_want
    nxt, via = nxt[keep], via[keep]
    if tagged:
        tags, via = np.divmod(via, num_attrs)
        nxt = tags * n + nxt
    nxt, via = _first_by(nxt, via, num_attrs)
    return nxt, via, keys, owners


_EMPTY = np.empty(0, dtype=np.int64)


class _Search:
    """One side of a level-synchronous BFS on the core, using that side's masks.

    levels[k] = (verts, via, attrs, owners): the vertices first reached at
    hop k, sorted, each with the core attribute it came through; and the
    attributes first seen in that step, sorted, each with the frontier
    vertex it came from.  Every choice takes the smallest id, so routes
    traced back through these arrays are deterministic.  As a side of
    _meet, frontier is the last level's vertices, entries their core
    entries, set as the level is added, and inside the side's visited mask.
    The search keeps no reference to its core: expand takes it.  reset()
    must run before the masks serve another search.
    """

    def __init__(self, core: TraversalCore, side: int, source: int):
        self.inside = core.visited[side]
        self.seen = core.seen[side]
        src = np.array([source], dtype=np.int64)
        self.inside[src] = True
        self.levels = []
        self._add(core, (src, _EMPTY, _EMPTY, _EMPTY))

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def _add(self, core: TraversalCore, level: tuple) -> None:
        self.levels.append(level)
        self.frontier = level[0]
        self.entries = core.entries(self.frontier)

    def expand(self, core: TraversalCore) -> np.ndarray:
        """Advance one intersection hop; returns the new (possibly empty) level."""
        level = _hop(core, self.frontier, self.seen, False, self.inside, False)
        verts, _, attrs, _ = level
        self.seen[attrs] = True
        self.inside[verts] = True
        self._add(core, level)
        return verts

    def route_to(self, x: int) -> list:
        """Vertices of the recorded route from the source to x, on the last level."""
        return _trace_back(self.levels[1:], x)[::-1]

    def reset(self) -> None:
        """Clear every mask entry this search set."""
        for verts, _, attrs, _ in self.levels:
            self.inside[verts] = False
            self.seen[attrs] = False


def _trace_back(levels: list, x: int) -> list:
    """x, then its owner on each level before, back through (verts, via,
    attrs, owners) levels laid out as _Search records them."""
    path = [int(x)]
    for verts, via, attrs, owners in reversed(levels):
        attr = via[np.searchsorted(verts, path[-1])]
        path.append(int(owners[np.searchsorted(attrs, attr)]))
    return path


class _TargetBall:
    """Multi-source BFS from a vertex set on the core, grown one level at a time.

    inside marks the vertices within depth hops of a source: a search checks
    its levels against it, because a byte mask costs a fraction of the cache
    misses of an int32 array.  dist[x] (int32) is x's hop count to the
    nearest source when x is inside; adist[a] (int32) is the hop count of a
    core attribute's nearest holder when that is below depth.  Both hold
    UNREACHED everywhere else.  frontier lists the vertices at hop depth,
    sorted, and entries counts their core entries; the frontier is empty
    once the ball holds the sources' whole components.  With inside and
    expand, which adds a level and returns it, these make the ball a side
    of _meet.  routes maps each vertex that nearest_routes has answered for
    to its route (None when it has none); a route does not depend on how
    far the ball has grown, so it is kept until a restart.

    No search needs a via or owner choice here, so a level is found without
    sorting: it is scattered into dist or adist and read back with
    np.flatnonzero.  expand walks the frontier, and then the new attribute
    level, in slices of graphgen._RUN ids, read at each call, so its
    temporaries stay run-sized however large a level is.  The arrays are
    allocated once per core and reused by every restart.  The ball keeps no
    reference to its core: the methods that read the core take it, so a
    core that its last user drops is freed by reference counting, without
    waiting for the cyclic collector.
    """

    def __init__(self, core: TraversalCore):
        self.sources = _EMPTY
        self.dist = np.empty(core.n, dtype=np.int32)
        self.adist = np.empty(core.num_attrs, dtype=np.int32)
        self.inside = np.empty(core.n, dtype=bool)
        self.routes = {}

    def restart(self, core: TraversalCore, sources: np.ndarray) -> None:
        """Forget the ball and start one from sources (nonempty)."""
        self.sources = sources.copy()
        self.routes = {}
        self.inside.fill(False)
        self.inside[sources] = True
        self.dist.fill(UNREACHED)
        self.dist[sources] = 0
        self.adist.fill(UNREACHED)
        self.depth = 0
        self._set_frontier(core, _sorted_unique(self.sources.copy()))

    def _set_frontier(self, core: TraversalCore, verts: np.ndarray) -> None:
        self.frontier = verts
        self.entries = core.entries(verts)

    def expand(self, core: TraversalCore) -> np.ndarray:
        """Add the vertices at hop depth + 1, and the attributes at hop depth;
        returns the new level, the new frontier."""
        hop, run = self.depth, graphgen._RUN
        for start in range(0, self.frontier.shape[0], run):
            attrs, _ = concat_ranges(core.set_indptr, core.set_attrs,
                                     self.frontier[start:start + run])
            self.adist[attrs[self.adist.take(attrs) == UNREACHED]] = hop
        level = np.flatnonzero(self.adist == hop)
        for start in range(0, level.shape[0], run):
            verts, _ = concat_ranges(core.attr_indptr, core.attr_vertices,
                                     level[start:start + run])
            verts = verts[~self.inside.take(verts)]
            self.dist[verts] = hop + 1
            self.inside[verts] = True
        self.depth = hop + 1
        self._set_frontier(core, np.flatnonzero(self.dist == hop + 1))
        return self.frontier


def _check_vertex(core: TraversalCore, x: int) -> None:
    if not (0 <= x < core.n):
        raise ValueError(f"vertex {x} out of range")


def _complete_ball(core: TraversalCore, u: int) -> _TargetBall:
    """The cached target ball of {u}, grown until it holds u's component."""
    _check_vertex(core, u)
    ball = core.ball_around(np.array([u], dtype=np.int64))
    while ball.frontier.size:
        ball.expand(core)
    return ball


def components(core: TraversalCore, root: int) -> ComponentLabeling:
    """Label connected components of the intersection graph.

    root's component comes from the completed target ball of {root}, the
    ball that distances_from(core, root) then copies: its members get the
    label of the smallest of them.  The rest of the graph is every core
    attribute the ball did not reach and their holders, and there labels
    come from min-label hook and compress (Shiloach-Vishkin).  label starts
    as the identity and stays a forest of pointers to smaller ids whose
    roots point to themselves.  Each round scatters, with np.minimum.at
    over the rest's entries, every holder's label onto its attribute and
    every attribute's smallest label back onto its holders, which gives the
    smallest label each vertex sees.  When no vertex sees a label below its
    own, every edge joins equal labels and the loop stops.  Otherwise each
    root is hooked to the smallest label that a vertex labelled with it
    sees below it, and pointer jumping (label = label[label] until it stops
    changing) compresses the forest so that every label is a root again.
    Labels only decrease, and a round that hooks leaves fewer roots, so the
    loop ends after at most n rounds.  Rooted at the apex of an instance,
    the ball holds the giant and the hook runs on a small remainder.

    Labels and the rest's attribute numbers are int32, as the core's ids
    are.  A label is always a vertex of its own component and never exceeds
    the vertex's id, so the final label is the component's smallest vertex
    id, which is also its first vertex.  The canonical rank of a component
    is then the count of roots up to its own, minus one: a cumulative sum,
    with no sort.
    """
    ball = _complete_ball(core, root)
    ids = np.arange(core.n, dtype=np.int32)
    label = ids.copy()
    rest = np.flatnonzero(ball.adist == UNREACHED)
    holders, lens = concat_ranges(core.attr_indptr, core.attr_vertices, rest)
    attr_of = np.repeat(np.arange(rest.shape[0], dtype=np.int32), lens)
    while True:
        amin = np.full(rest.shape[0], core.n, dtype=np.int32)
        np.minimum.at(amin, attr_of, label[holders])
        sees = label.copy()
        np.minimum.at(sees, holders, amin[attr_of])
        lower = sees < label
        if not lower.any():
            break
        np.minimum.at(label, label[lower], sees[lower])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    label[ball.inside] = np.argmax(ball.inside)  # the ball's smallest member
    labels = (np.cumsum(label == ids) - 1)[label]
    sizes = np.bincount(labels)
    giant = int(np.argmax(sizes))  # first max, i.e. smallest label
    return ComponentLabeling(labels=labels, sizes=sizes, giant=giant)


@dataclass(frozen=True)
class DistanceResult:
    """hops is None exactly when no path exists; path lists the vertices of
    one shortest path (hops + 1 of them), endpoints included."""

    hops: Optional[int]
    path: Optional[list]


def _meet(core: TraversalCore, first, second) -> Optional[np.ndarray]:
    """Grow two search sides until they meet: the sorted meeting vertices,
    or None when a side has no new level.

    A side (_Search or _TargetBall) has a frontier, the core entries of
    that frontier, an inside mask and expand(core), which adds the next
    level and returns it.  Each step expands, by one full hop, the side
    whose frontier holds fewer core entries (first on ties); when that side's
    frontier is empty, it is not expanded and the search ends.  The step's
    new level is checked against the whole of the other side's inside, and
    the first level that meets it ends the search.  The sides were disjoint
    before that step, so every meeting vertex lies on the other side's last
    level too, and the distance between the two sides' sources is the sum
    of their depths.
    """
    while True:
        grow, other = (first, second) if first.entries <= second.entries else (second, first)
        if grow.frontier.size == 0:
            return None
        verts = grow.expand(core)
        meet = verts[other.inside[verts]]
        if meet.size:
            return meet


def bfs_distance(core: TraversalCore, u: int, v: int) -> DistanceResult:
    """Shortest path between two vertices; hops=None when disconnected.

    Balanced bidirectional BFS: _meet grows a search from u against one
    from v (u's side on ties).  The path runs through the smallest-id
    meeting vertex.
    """
    _check_vertex(core, u)
    _check_vertex(core, v)
    if u == v:
        return DistanceResult(hops=0, path=[int(u)])
    fwd, bwd = _Search(core, 0, u), _Search(core, 1, v)
    try:
        meet = _meet(core, fwd, bwd)
        if meet is None:
            return DistanceResult(hops=None, path=None)
        x = int(meet[0])
        return DistanceResult(hops=fwd.depth + bwd.depth,
                              path=fwd.route_to(x) + bwd.route_to(x)[-2::-1])
    finally:
        fwd.reset()
        bwd.reset()


def distances_from(core: TraversalCore, u: int) -> np.ndarray:
    """Hop counts from u to every vertex; UNREACHED (-1) where no path.

    Grows the cached target ball of {u} to completion and returns a copy of
    its int32 distances, so that later routes to [u] (nearest_routes) start
    from a full ball.
    """
    return _complete_ball(core, u).dist.copy()


def _reach_ball(core: TraversalCore, ball: _TargetBall, source: int):
    """The forward half of source's route: (levels, hits), or None.

    _meet grows the ball against a search from source (the ball on ties).
    Returns the search's levels past the source, as _Search records them,
    and the sorted vertices where the two met, all on the search's last
    level (the source itself, when it lies in the ball and levels is
    empty); None when source has no path to the ball's sources.  The search
    uses the first side's masks only, and clears them on the way out: the
    ball marks its members with its own mask.
    """
    if ball.inside[source]:
        return [], np.array([source], dtype=np.int64)
    search = _Search(core, 0, source)
    try:
        hits = _meet(core, ball, search)
        return None if hits is None else (search.levels[1:], hits)
    finally:
        search.reset()


def _descent_levels(core: TraversalCore, ball: _TargetBall, keys: np.ndarray) -> list:
    """The levels of every shortest route down to the ball's sources from
    where each of many searches met the ball, for all searches at once.

    keys, sorted, hold i * n + x for each vertex x where search i met the
    ball; all of search i's lie at one hop count D_i from the sources.  One
    tagged _hop per hop count, from the largest D_i down, carries every
    search that far out, and search i joins when the hop count reaches D_i.
    The step to hop count h keeps the attributes at h held by the level
    before and the vertices at h that hold them, so no level leaves a
    shortest route, and every holder a kept attribute has on the level
    before was kept there: each search makes the same smallest-id via and
    owner choices as a one-sided search would.
    """
    joins = ball.dist[keys % core.n]
    level, levels = _EMPTY, []
    for hop in range(int(joins.max(initial=0)) - 1, -1, -1):
        joining = keys[joins == hop + 1]
        if joining.size:
            level = np.concatenate((level, joining))
            level.sort()
        levels.append(_hop(core, level, ball.adist, hop, ball.dist, hop, tagged=True))
        level = levels[-1][0]
    return levels


def _descend(core: TraversalCore, ball: _TargetBall, hits: list) -> list:
    """Each search's route from its hits down to its smallest-id target.

    hits[i] are the sorted vertices where search i met the ball.  The last
    of their _descent_levels holds each search's targets, and the first key
    of search i's run there is its smallest-id target.  The trace-back then
    takes one via and one owner lookup per hop for every search still on
    its route.  Returns, per search, the vertex list from the hit its route
    leaves the forward levels at down to its target.
    """
    n, num_attrs = core.n, core.num_attrs
    keys = np.concatenate([_EMPTY, *hits])
    keys += np.repeat(np.arange(len(hits), dtype=np.int64) * n, [h.shape[0] for h in hits])
    levels = _descent_levels(core, ball, keys)
    keys = levels[-1][0] if levels else _EMPTY
    tags = keys // n
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(tags[1:], tags[:-1], out=first[1:])
    keys, tags = keys[first], tags[first]
    togo = ball.dist[np.array([h[0] for h in hits], dtype=np.int64)][tags]
    # steps[h] holds each search's vertex h hops from the targets, read up
    # to its own togo
    steps = np.empty((len(levels) + 1, keys.shape[0]), dtype=np.int64)
    steps[0] = keys % n
    for hop, (verts, via, attrs, owners) in enumerate(reversed(levels)):
        live = np.flatnonzero(togo > hop)
        attr = via[np.searchsorted(verts, keys[live])]
        owner = owners[np.searchsorted(attrs, tags[live] * num_attrs + attr)]
        keys[live] = tags[live] * n + owner
        steps[hop + 1, live] = owner
    down = [[int(h[0])] for h in hits]  # a hit at hop count 0 is a target
    for i, up, col in zip(tags.tolist(), togo.tolist(), steps.T.tolist()):
        down[i] = col[up::-1]
    return down


def _route_batch(core: TraversalCore, ball: _TargetBall, batch: list) -> None:
    """Find and keep in ball.routes the route of every vertex in batch."""
    found = [_reach_ball(core, ball, s) for s in batch]
    met = [i for i, f in enumerate(found) if f is not None]
    for s in batch:
        ball.routes[s] = None
    for i, down in zip(met, _descend(core, ball, [found[i][1] for i in met])):
        ball.routes[batch[i]] = _trace_back(found[i][0], down[0])[:0:-1] + down


def nearest_routes(core: TraversalCore, sources, targets: np.ndarray) -> list:
    """Shortest paths from each of sources to its nearest member of targets.

    Returns one DistanceResult per entry of sources, in order.  Each path is
    the route a one-sided BFS from its source would trace: ties go to the
    smallest-id target at the minimal distance, then to the smallest-id
    attribute and owner at each hop back.  The routes run against the
    cached target ball of targets, which grows lazily and keeps every route
    it has found, keyed by source, until it restarts for other targets; a
    source found before is a lookup, and every result holds a copy of its
    path.  The sources not found before are taken in chunks of
    max(1, PACK_LIMIT // (n * num_attrs)), so that a tagged key of the
    descent stays below PACK_LIMIT, each chunk in three stages:

    * forward, source by source (_reach_ball): _meet grows a search from
      the source against the ball, and where they meet, at forward depth f
      and ball depth b, fixes the distance at L = f + b (L is the ball's
      count when the source lies in the ball, and then no search step is
      taken);
    * descent, once for the chunk (_descend): one tagged _hop per hop count
      over the union of the chunk's levels inside the ball, so that every
      source keeps its own smallest-id target, attribute and owner;
    * trace-back, vectorized across the chunk down the ball, then through
      each source's own forward levels.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise ValueError("targets must be nonempty")
    sources = np.asarray(sources, dtype=np.int64).tolist()
    for s in sources:
        _check_vertex(core, s)
    if targets.min() < 0 or targets.max() >= core.n:
        raise ValueError("targets out of range")
    ball = core.ball_around(targets)
    todo = [s for s in dict.fromkeys(sources) if s not in ball.routes]
    chunk = max(1, PACK_LIMIT // max(core.n * core.num_attrs, 1))
    for start in range(0, len(todo), chunk):
        _route_batch(core, ball, todo[start:start + chunk])
    results = []
    for s in sources:
        path = ball.routes[s]
        results.append(DistanceResult(hops=None, path=None) if path is None
                       else DistanceResult(hops=len(path) - 1, path=list(path)))
    return results


def nearest_of(core: TraversalCore, source: int, targets: np.ndarray) -> DistanceResult:
    """Shortest path from source to the nearest member of targets.

    nearest_routes(core, [source], targets)[0]: the route a one-sided BFS
    from source would trace, found against the cached target ball of
    targets, or looked up there when that ball has found it before.
    """
    return nearest_routes(core, [source], targets)[0]


def neighbors(core: TraversalCore, u: int) -> np.ndarray:
    """Sorted neighbours of u, int32: every other vertex sharing an attribute."""
    _check_vertex(core, u)
    attrs = core.set_attrs[core.set_indptr[u]:core.set_indptr[u + 1]]
    verts, _ = concat_ranges(core.attr_indptr, core.attr_vertices, attrs)
    verts = _sorted_unique(verts)
    return verts[verts != u]


def unique_edges(core: TraversalCore) -> np.ndarray:
    """All intersection-graph edges as an (E, 2) array with u < v.

    Expands each core attribute into its vertex pairs and dedups them as
    int64 keys u * n + v.  Intended for the sparse-overlap regime (m well
    above n); an attribute shared by k vertices contributes k(k-1)/2 raw
    pairs.
    """
    counts = np.diff(core.attr_indptr)
    n = core.n
    keys = []
    for k in np.unique(counts):
        which = np.flatnonzero(counts == k)
        block, _ = concat_ranges(core.attr_indptr, core.attr_vertices, which)
        block = block.astype(np.int64).reshape(-1, int(k))
        iu, ju = np.triu_indices(int(k), 1)
        # vertex lists are sorted, so block[:, iu] < block[:, ju] holds
        keys.append((block[:, iu] * n + block[:, ju]).ravel())
    if not keys:
        return np.empty((0, 2), dtype=np.int64)
    pairs = _sorted_unique(np.concatenate(keys))
    return np.column_stack((pairs // n, pairs % n))


def degrees(core: TraversalCore) -> np.ndarray:
    """Intersection-graph degree of every vertex."""
    edges = unique_edges(core)
    deg = np.bincount(edges[:, 0], minlength=core.n)
    deg += np.bincount(edges[:, 1], minlength=core.n)
    return deg
