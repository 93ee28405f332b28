"""Connectivity and shortest paths on the intersection graph.

Every traversal runs on the *shared-attribute core* of the incidence: the
bipartite vertex-attribute structure restricted to attributes held by at
least two vertices.  An attribute with a single holder creates no edge, so
leaving it out keeps every component, distance, neighbour list and degree.
Under the default m-rule at n = 1e5 the core keeps about 12% of the
incidence entries (474k of 4.04M) and 6% of the occupied attributes (232k of
3.80M).  It is the only attribute-side view of an instance: it is built from
the incidence's sorted vertex lists with two packed sorts, attribute * n +
vertex for the attribute side and vertex * num_attrs + core id for the
vertex side, and core attributes are numbered in increasing order of
original id.  A one-sided search thus makes the same smallest-id parent
choices, and traces the same paths, as it would on the full incidence.
Only the entries that may be shared are packed for the first sort: a sorted
copy of the ids, uint32 (half their bytes) while m <= 2**32, shows which
attributes have a second holder, and a one-byte mark on each span of ids
that holds one picks the candidates, which are every shared entry and, at
n = 1e5, about 5% of the others.  The shared ones among them are then
marked in a one-byte mask, graphgen._BLOCK entries at a time.  The build
only reads the incidence, and beside it peaks near 0.65x its ids' bytes.

Component labels come from min-label hook and compress on the core's
attribute side, with numpy scatters and no second graph: the final label of
a vertex is its component's smallest id, so the canonical numbering is a
cumulative sum.  Outside the package, this module imports only numpy.

Searches alternate vertex-side and attribute-side frontiers; an
intersection-graph hop is two bipartite hops.  This keeps hub cliques
implicit: a popular attribute is expanded once instead of contributing
quadratically many edges.  One function takes that hop for a search and for
a descent through the target ball, so both pick the same smallest-id
attribute and owner.  Pair distances use balanced bidirectional BFS:
each step advances, by one full hop, the side whose frontier holds fewer
incidence entries, so a pair query scans a small fraction of the core.

Searches to a vertex set run against a *target ball*: a multi-source BFS
from the set, grown one level at a time and only as far as queries need it.
It records the hop count of every vertex it reaches and of every core
attribute (the count of the attribute's nearest holder).  It makes no via
or owner choice, so it needs no sort: each level is scattered into the
count arrays and read back with np.flatnonzero.  The ball of the last set
asked about stays in the core, so the searches of one trial that share
their targets share its levels, and distances_from(u) is the completed
ball of {u}: the hub distances leave behind the ball that the escapes to
{u_max} then use.

A TraversalCore is built once from an incidence, keeps no reference to it,
and is passed to every function here.  Besides the two CSR sides it owns a
visited mask over vertices and a seen mask over core attributes for each
of the two sides of a search, and the target ball's arrays: n + num_attrs
int64 counts and an n-byte membership mask.  A query allocates in
proportion to what it scans, and on the way out clears only the mask
entries it set; a ball for a new target set clears the ball's arrays.  At
n = 1e5 a core holds about 14.5 MB, 2.8 MB of it the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphgen import _BLOCK, BipartiteIncidence, _sorted_unique, concat_ranges
from .model import VertexWeights

__all__ = [
    "ComponentLabeling",
    "DistanceResult",
    "TraversalCore",
    "components",
    "bfs_distance",
    "distances_from",
    "maximal_vertex",
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
    nearest_of or distances_from asked about (it has no sources before the
    first).  The incidence is read once, here, left as it was, and not
    kept.

    Both sides come from packed int64 sorts: attribute * n + vertex of the
    candidate entries (_shared_entries), then vertex * num_attrs + core id.
    Attribute ids are below m and num_attrs <= m, so every key stays below
    n * m < PACK_LIMIT.
    """

    def __init__(self, inc: BipartiteIncidence):
        n = inc.n
        self.n = n
        self.attr_vertices, starts = _shared_entries(inc)
        self.num_attrs = int(np.count_nonzero(starts))
        self.attr_indptr = np.append(np.flatnonzero(starts), starts.shape[0])
        # vertex-major: each vertex's core ids come out increasing
        keys = self.attr_vertices * self.num_attrs
        keys += np.cumsum(starts) - 1
        keys.sort()
        self.set_attrs = keys % self.num_attrs
        self.set_sizes = np.bincount(self.attr_vertices, minlength=n)
        self.set_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.set_sizes, out=self.set_indptr[1:])
        self.visited = (np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
        self.seen = (np.zeros(self.num_attrs, dtype=bool),
                     np.zeros(self.num_attrs, dtype=bool))
        self.ball = _TargetBall(self)

    def ball_around(self, sources: np.ndarray) -> "_TargetBall":
        """The cached target ball of sources, restarted for a new set."""
        if not np.array_equal(self.ball.sources, sources):
            self.ball.restart(sources)
        return self.ball

    def entries(self, verts: np.ndarray) -> int:
        """Core incidence entries held by the given vertices."""
        return int(self.set_sizes[verts].sum())


def _candidate_keys(inc: BipartiteIncidence) -> np.ndarray:
    """Packed attribute * n + vertex keys of the entries that may be shared.

    A sorted copy of the ids, as uint32 when every id fits (m <= 2**32, half
    the ids' bytes), shows the attributes with a second holder: the ids
    that repeat their predecessor.  The id range is cut into spans of
    2**shift ids, about 16 spans per repeat and never more than there are
    entries, and a one-byte mark goes on every span that holds a repeated
    id.  An entry is a candidate when its id lies in a marked span: every
    shared entry is one, and so, at ids spread uniformly, are about 5% of
    the others.  The candidates are packed in incidence order, _BLOCK
    entries at a time, into one array of exactly their count; each block
    takes its entries' owners from one np.repeat over its vertex range.
    The incidence is only read.
    """
    ids, total, m = inc.set_attrs, inc.total_incidence, inc.m
    vals = ids.astype(np.uint32 if m <= 2**32 else np.int64)
    vals.sort()
    repeated = vals[1:][vals[1:] == vals[:-1]]
    del vals
    spans = min(16 * repeated.shape[0], total)
    shift = max((m - 1).bit_length() - spans.bit_length(), 0)
    marked = np.zeros(((m - 1) >> shift) + 1, dtype=bool)
    marked[repeated >> shift] = True
    del repeated
    candidate = np.empty(total, dtype=bool)
    for start in range(0, total, _BLOCK):
        candidate[start:start + _BLOCK] = marked[ids[start:start + _BLOCK] >> shift]
    del marked
    keys = np.empty(int(np.count_nonzero(candidate)), dtype=np.int64)
    indptr = inc.set_indptr
    size = 0
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        # the owner of every entry in the block, from its vertex range
        first, last = np.searchsorted(indptr, [start, stop - 1], side="right") - 1
        bounds = np.clip(indptr[first:last + 2], start, stop)
        owners = np.repeat(np.arange(first, last + 1, dtype=np.int64), np.diff(bounds))
        at = np.flatnonzero(candidate[start:stop])
        block = keys[size:size + at.shape[0]]
        np.multiply(ids[start:stop][at], inc.n, out=block)
        block += owners[at]
        size += at.shape[0]
    return keys


def _shared_entries(inc: BipartiteIncidence):
    """The core's attribute side: (attr_vertices, starts).

    attr_vertices lists the holders of every attribute with two or more
    holders, attribute by attribute in increasing original id, each
    attribute's holders sorted; starts flags the first entry of each
    attribute.  Only the candidate entries (_candidate_keys) are packed and
    sorted; the shared ones among them are found _BLOCK entries at a time
    with a one-byte mask.
    """
    n = inc.n
    keys = _candidate_keys(inc)
    total = keys.shape[0]
    keys.sort()
    # an entry is shared when its attribute is that of a neighbouring entry
    shared = np.empty(total, dtype=bool)
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        lo, hi = max(start - 1, 0), min(stop + 1, total)
        attrs = keys[lo:hi] // n
        # same[j]: entries lo + j - 1 and lo + j hold the same attribute
        same = np.zeros(hi - lo + 1, dtype=bool)
        np.equal(attrs[1:], attrs[:-1], out=same[1:-1])
        shared[start:stop] = (same[:-1] | same[1:])[start - lo:stop - lo]
    core = keys[shared]
    del keys, shared
    attrs = core // n
    starts = np.empty(core.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(attrs[1:], attrs[:-1], out=starts[1:])
    np.remainder(core, n, out=core)
    return core, starts


def _first_by(keys: np.ndarray, vals: np.ndarray, base: int):
    """Sorted distinct keys, each paired with its smallest val.

    Every val lies in [0, base), so one in-place sort of key * base + val
    orders by key, then by val, and the first entry of each key's run holds
    its smallest val.  The callers pair core attributes with owners
    (base n) and vertices with core attributes (base num_attrs), so a packed
    key stays below n * num_attrs <= n * m < PACK_LIMIT.
    """
    if keys.size == 0:
        return keys, vals
    packed = keys * base
    packed += vals
    packed.sort()
    keys = packed // base
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep], packed[keep] % base


def _hop(core: TraversalCore, verts: np.ndarray, attr_mark: np.ndarray,
         attr_want: int, vert_mark: np.ndarray, vert_want: int) -> tuple:
    """One intersection hop out of the sorted vertices verts, as a level.

    Returns (nxt, via, attrs, owners) laid out as _Search records a level:
    attrs are the core attributes a held by verts with attr_mark[a] ==
    attr_want, sorted, each with its smallest-id holder in verts; nxt are
    the holders x of attrs with vert_mark[x] == vert_want, sorted, each with
    the smallest-id attribute of attrs it holds.  A search and a descent
    share this step, so both make the same via and owner choices.
    """
    attrs, lens = concat_ranges(core.set_indptr, core.set_attrs, verts)
    owners = np.repeat(verts, lens)
    keep = attr_mark[attrs] == attr_want
    attrs, owners = _first_by(attrs[keep], owners[keep], core.n)
    nxt, lens = concat_ranges(core.attr_indptr, core.attr_vertices, attrs)
    via = np.repeat(attrs, lens)
    keep = vert_mark[nxt] == vert_want
    nxt, via = _first_by(nxt[keep], via[keep], core.num_attrs)
    return nxt, via, attrs, owners


_EMPTY = np.empty(0, dtype=np.int64)


class _Search:
    """One side of a level-synchronous BFS on the core, using that side's masks.

    levels[k] = (verts, via, attrs, owners): the vertices first reached at
    hop k, sorted, each with the core attribute it came through; and the
    attributes first seen in that step, sorted, each with the frontier
    vertex it came from.  Every choice takes the smallest id, so routes
    traced back through these arrays are deterministic.  reset() must run
    before the masks serve another search.
    """

    def __init__(self, core: TraversalCore, side: int, source: int):
        self.core = core
        self.visited = core.visited[side]
        self.seen = core.seen[side]
        src = np.array([source], dtype=np.int64)
        self.visited[src] = True
        self.levels = [(src, _EMPTY, _EMPTY, _EMPTY)]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def frontier(self) -> np.ndarray:
        return self.levels[-1][0]

    def expand(self) -> np.ndarray:
        """Advance one intersection hop; returns the new (possibly empty) level."""
        level = _hop(self.core, self.frontier, self.seen, False, self.visited, False)
        verts, _, attrs, _ = level
        self.seen[attrs] = True
        self.visited[verts] = True
        self.levels.append(level)
        return verts

    def route_to(self, x: int, hop: int) -> list:
        """Vertices of the recorded route from the source to x, reached at hop."""
        return _trace_back(self.levels[1:hop + 1], x)[::-1]

    def reset(self) -> None:
        """Clear every mask entry this search set."""
        for verts, _, attrs, _ in self.levels:
            self.visited[verts] = False
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
    misses of an int64 array.  dist[x] is x's hop count to the nearest source
    when x is inside; adist[a] is the hop count of a core attribute's
    nearest holder when that is below depth.  Both hold UNREACHED everywhere
    else.  frontier lists the vertices at hop depth, sorted; it is empty
    once the ball holds the sources' whole components.

    No search needs a via or owner choice here, so a level is found without
    sorting: it is scattered into dist or adist and read back with
    np.flatnonzero.  The arrays are allocated once per core and reused by
    every restart.
    """

    def __init__(self, core: TraversalCore):
        self.core = core
        self.sources = _EMPTY
        self.dist = np.empty(core.n, dtype=np.int64)
        self.adist = np.empty(core.num_attrs, dtype=np.int64)
        self.inside = np.empty(core.n, dtype=bool)

    def restart(self, sources: np.ndarray) -> None:
        """Forget the ball and start one from sources (nonempty)."""
        self.sources = sources.copy()
        self.inside.fill(False)
        self.inside[sources] = True
        self.dist.fill(UNREACHED)
        self.dist[sources] = 0
        self.adist.fill(UNREACHED)
        self.depth = 0
        self._set_frontier(_sorted_unique(self.sources.copy()))

    def _set_frontier(self, verts: np.ndarray) -> None:
        self.frontier = verts
        self.entries = self.core.entries(verts)

    def grow(self) -> None:
        """Add the vertices at hop depth + 1, and the attributes at hop depth."""
        core, hop = self.core, self.depth
        attrs, _ = concat_ranges(core.set_indptr, core.set_attrs, self.frontier)
        self.adist[attrs[self.adist[attrs] == UNREACHED]] = hop
        attrs = np.flatnonzero(self.adist == hop)
        verts, _ = concat_ranges(core.attr_indptr, core.attr_vertices, attrs)
        verts = verts[~self.inside[verts]]
        self.dist[verts] = hop + 1
        self.inside[verts] = True
        self.depth = hop + 1
        self._set_frontier(np.flatnonzero(self.dist == hop + 1))

    def descend(self, verts: np.ndarray, togo: int) -> list:
        """The levels of every shortest route from verts down to the sources.

        verts must be sorted and all lie togo <= depth hops from the sources.
        Step k keeps the attributes at hop togo - k held by the level before
        and the vertices at hop togo - k that hold them.  Each step is the
        _hop of a search, so the levels come out as _Search records them,
        with the same smallest-id via and owner choices: every holder a kept
        attribute has on the level before was kept there.
        """
        levels = []
        for hop in range(togo - 1, -1, -1):
            levels.append(_hop(self.core, verts, self.adist, hop, self.dist, hop))
            verts = levels[-1][0]
        return levels


def _check_vertex(core: TraversalCore, x: int) -> None:
    if not (0 <= x < core.n):
        raise ValueError(f"vertex {x} out of range")


def components(core: TraversalCore) -> ComponentLabeling:
    """Label connected components of the intersection graph.

    Min-label hook and compress (Shiloach-Vishkin) on the core's
    attribute side.  label starts as the identity and stays a forest of
    pointers to smaller ids whose roots point to themselves.  Each round
    scatters, with np.minimum.at over the core entries, every holder's label
    onto its attribute and every attribute's smallest label back onto its
    holders, which gives the smallest label each vertex sees.  When no
    vertex sees a label below its own, every edge joins equal labels and the
    loop stops.  Otherwise each root is hooked to the smallest label that a
    vertex labelled with it sees below it, and pointer jumping (label =
    label[label] until it stops changing) compresses the forest so that
    every label is a root again.  Labels only decrease, and a round that
    hooks leaves fewer roots, so the loop ends after at most n rounds.

    A label is always a vertex of its own component and never exceeds the
    vertex's id, so the final label is the component's smallest vertex id,
    which is also its first vertex.  The canonical rank of a component is
    then the count of roots up to its own, minus one: a cumulative sum, with
    no sort.
    """
    # labels and attribute numbers fit in int32 below 2**31, which halves
    # the core-length temporaries of each round
    small = np.int32 if max(core.n, core.num_attrs) < 2**31 else np.int64
    ids = np.arange(core.n, dtype=small)
    label = ids.copy()
    attr_of = np.repeat(np.arange(core.num_attrs, dtype=small), np.diff(core.attr_indptr))
    while True:
        amin = np.full(core.num_attrs, core.n, dtype=small)
        np.minimum.at(amin, attr_of, label[core.attr_vertices])
        sees = label.copy()
        np.minimum.at(sees, core.attr_vertices, amin[attr_of])
        lower = sees < label
        if not lower.any():
            break
        np.minimum.at(label, label[lower], sees[lower])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
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


def bfs_distance(core: TraversalCore, u: int, v: int) -> DistanceResult:
    """Shortest path between two vertices; hops=None when disconnected.

    Balanced bidirectional BFS: each step expands, by one full hop, the side
    whose frontier holds fewer core entries (u's side on ties), and the
    search ends with the first level that meets the other side.  The path
    runs through the smallest-id meeting vertex.
    """
    _check_vertex(core, u)
    _check_vertex(core, v)
    if u == v:
        return DistanceResult(hops=0, path=[int(u)])
    fwd, bwd = _Search(core, 0, u), _Search(core, 1, v)
    try:
        while True:
            if core.entries(fwd.frontier) <= core.entries(bwd.frontier):
                grow, other = fwd, bwd
            else:
                grow, other = bwd, fwd
            verts = grow.expand()
            if verts.size == 0:
                return DistanceResult(hops=None, path=None)
            meet = verts[other.visited[verts]]
            if meet.size:
                # The two balls were disjoint before this step, so
                # d(u, v) >= fwd.depth + bwd.depth, and any meeting vertex
                # closes a walk of at most that length: it lies on the other
                # side's last level and d(u, v) is exactly the sum.
                x = int(meet[0])
                head = fwd.route_to(x, fwd.depth)
                tail = bwd.route_to(x, bwd.depth)
                return DistanceResult(hops=fwd.depth + bwd.depth,
                                      path=head + tail[-2::-1])
    finally:
        fwd.reset()
        bwd.reset()


def distances_from(core: TraversalCore, u: int) -> np.ndarray:
    """Hop counts from u to every vertex; UNREACHED (-1) where no path.

    Grows the cached target ball of {u} to completion and returns a copy of
    its distances, so a later nearest_of(core, v, [u]) starts from a full ball.
    """
    _check_vertex(core, u)
    ball = core.ball_around(np.array([u], dtype=np.int64))
    while ball.frontier.size:
        ball.grow()
    return ball.dist.copy()


def nearest_of(core: TraversalCore, source: int, targets: np.ndarray) -> DistanceResult:
    """Shortest path from source to the nearest member of targets.

    The path is the route a one-sided BFS from source would trace: ties go
    to the smallest-id target at the minimal distance, then to the
    smallest-id attribute and owner at each hop back.  It is found by
    balancing, as in bfs_distance, a search from source against the cached
    target ball of targets, which grows lazily and is kept for the next call
    with the same targets: each step advances the side whose frontier holds
    fewer core entries (the ball on ties).  The first forward level f that
    meets a ball of depth b fixes the distance at L = f + b (L is the ball's
    count when source lies in the ball), and the route goes on from level f
    with _TargetBall.descend, which needs no masks.  The search from source
    uses the first side's masks only: the targets are marked by the ball's
    own membership mask, not by core.visited[1].
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise ValueError("targets must be nonempty")
    _check_vertex(core, source)
    if targets.min() < 0 or targets.max() >= core.n:
        raise ValueError("targets out of range")
    ball = core.ball_around(targets)
    search = _Search(core, 0, source)
    try:
        verts = search.frontier
        while True:
            hits = verts[ball.inside[verts]]
            if hits.size:
                # The forward levels before this one missed the ball, so all
                # hits lie equally far from the targets: at the ball's depth,
                # or anywhere inside it when the hit is the source itself.
                down = ball.descend(hits, int(ball.dist[hits[0]]))
                target = down[-1][0][0] if down else hits[0]
                back = _trace_back(down, target)
                path = search.route_to(back[-1], search.depth) + back[-2::-1]
                return DistanceResult(hops=len(path) - 1, path=path)
            if ball.frontier.size == 0:
                break
            if ball.entries <= core.entries(search.frontier):
                # Only the last forward level can meet the new ball level:
                # a vertex of an earlier level at hop depth + 1 from the
                # targets would have a neighbour at hop depth, and that
                # neighbour lies in the forward levels already checked.
                ball.grow()
                verts = search.frontier
            else:
                verts = search.expand()
                if verts.size == 0:
                    break
        return DistanceResult(hops=None, path=None)
    finally:
        search.reset()


def maximal_vertex(weights: VertexWeights) -> int:
    """Index of the vertex with the largest attribute-set size (ties: smallest id)."""
    return int(np.argmax(weights.sizes))


def neighbors(core: TraversalCore, u: int) -> np.ndarray:
    """Sorted neighbours of u: every other vertex sharing an attribute."""
    _check_vertex(core, u)
    attrs = core.set_attrs[core.set_indptr[u]:core.set_indptr[u + 1]]
    verts, _ = concat_ranges(core.attr_indptr, core.attr_vertices, attrs)
    verts = _sorted_unique(verts)
    return verts[verts != u]


def unique_edges(core: TraversalCore) -> np.ndarray:
    """All intersection-graph edges as an (E, 2) array with u < v.

    Expands each core attribute into its vertex pairs and dedups.  Intended
    for the sparse-overlap regime (m well above n); an attribute shared by
    k vertices contributes k(k-1)/2 raw pairs.
    """
    counts = np.diff(core.attr_indptr)
    n = core.n
    keys = []
    for k in np.unique(counts):
        which = np.flatnonzero(counts == k)
        block, _ = concat_ranges(core.attr_indptr, core.attr_vertices, which)
        block = block.reshape(-1, int(k))
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
