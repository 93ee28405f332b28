"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: exact rational arithmetic, explicit
adjacency matrices, textbook traversals.  None of it shares code paths with
the package.
"""

import json
import math
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
from scipy.sparse.csgraph import floyd_warshall


def sample_subset(m: int, z: int, rng: np.random.Generator) -> np.ndarray:
    """Reference sampler: a uniform z-subset of {0, ..., m-1}, sorted.

    Sparse regime (z <= m/2): the first z distinct values of an iid uniform
    stream, which is exactly uniform over z-subsets.  Dense regime: a
    permutation prefix.
    """
    if z < 0 or z > m:
        raise ValueError(f"subset size {z} outside [0, {m}]")
    if z == 0:
        return np.empty(0, dtype=np.int64)
    if z > m // 2:
        return np.sort(rng.permutation(m)[:z].astype(np.int64))
    got = np.unique(rng.integers(0, m, size=z, dtype=np.int64))
    while got.shape[0] < z:
        extra = rng.integers(0, m, size=z - got.shape[0], dtype=np.int64)
        got = np.union1d(got, extra)
    return got


def sample_incidence_reference(m: int, sizes, rng: np.random.Generator):
    """Reference batch sampler: (set_indptr, set_attrs) of every vertex's
    uniform subset, drawing from rng exactly as rigkit's sampler does.

    One batch of iid draws packed as vertex*m + attr and deduplicated with
    np.unique; vertices left short are topped up in later rounds merged in
    with np.union1d.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = sizes.shape[0]
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    if int(sizes.sum()) == 0:
        return indptr, np.empty(0, dtype=np.int64)
    vert_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
    keys = np.unique(vert_of * m + rng.integers(0, m, size=vert_of.shape[0],
                                                dtype=np.int64))
    deficit = sizes - np.bincount(keys // m, minlength=n)
    while np.any(deficit > 0):
        need = np.flatnonzero(deficit)
        extra_vert = np.repeat(need, deficit[need])
        extra = extra_vert * m + rng.integers(0, m, size=extra_vert.shape[0],
                                              dtype=np.int64)
        keys = np.union1d(keys, extra)
        deficit = sizes - np.bincount(keys // m, minlength=n)
    return indptr, keys % m


def hyper_pmf_exact(j: int, k: int, m: int, r: int) -> Fraction:
    """P(|j-subset cap k-subset| = r) as an exact rational."""
    if r < 0 or r > min(j, k) or j - r > m - k:
        return Fraction(0)
    return Fraction(comb(k, r) * comb(m - k, j - r), comb(m, j))


def no_overlap_exact(j: int, k: int, m: int) -> Fraction:
    return hyper_pmf_exact(j, k, m, 0)


def conditional_overlap_exact(a: int, b: int, d: int, m: int) -> Fraction:
    """P(|S_b cap S_d| >= b/2 | S_b cap S_a nonempty), S_a inside S_d fixed.

    Enumerates the joint law of (y, w) = (|S_b cap S_a|, |S_b cap (S_d-S_a)|)
    over the three-block partition {S_a, S_d - S_a, rest}.
    """
    num = Fraction(0)
    den = Fraction(0)
    total = comb(m, b)
    for y in range(0, min(a, b) + 1):
        for w in range(0, min(d - a, b - y) + 1):
            rest = b - y - w
            if rest > m - d:
                continue
            p = Fraction(comb(a, y) * comb(d - a, w) * comb(m - d, rest), total)
            if y >= 1:
                den += p
                if 2 * (y + w) >= b:
                    num += p
    return num / den


def explicit_sets(inc) -> list:
    return [set(inc.set_of(v).tolist()) for v in range(inc.n)]


def adjacency_matrix(inc) -> np.ndarray:
    """Dense boolean adjacency by pairwise set intersection."""
    sets = explicit_sets(inc)
    n = inc.n
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if sets[u] & sets[v]:
                adj[u, v] = adj[v, u] = True
    return adj


def shares_attribute(inc, u: int, v: int) -> bool:
    """True when the attribute sets of u and v intersect."""
    return np.intersect1d(inc.set_of(u), inc.set_of(v)).size > 0


def certificate_walk(cert):
    """A certificate's v1 -> apex -> v2 vertex walk, or None if a stage is
    missing.  Each stage is a vertex list; the climbs end at the apex."""
    stages = (cert.escape_a, cert.climb_a, cert.escape_b, cert.climb_b)
    if any(s is None for s in stages):
        return None
    escape_a, climb_a, escape_b, climb_b = stages
    return escape_a + climb_a[1:] + climb_b[::-1][1:] + escape_b[::-1][1:]


def first_by_reference(keys, vals):
    """Sorted distinct keys and the smallest val seen with each, via a dict."""
    best = {}
    for k, v in zip(keys, vals):
        best[k] = min(v, best.get(k, v))
    ordered = sorted(best)
    return ordered, [best[k] for k in ordered]


def traversal_core_reference(inc) -> dict:
    """The shared-attribute core's arrays, from explicit sets and dicts.

    Attributes with at least two holders get core ids in increasing order of
    original id; every list is sorted.
    """
    sets = explicit_sets(inc)
    holders = {}
    for v, s in enumerate(sets):
        for a in s:
            holders.setdefault(a, []).append(v)
    shared = sorted(a for a, hs in holders.items() if len(hs) >= 2)
    core_id = {a: i for i, a in enumerate(shared)}
    attr_indptr, attr_vertices = [0], []
    for a in shared:
        attr_vertices.extend(sorted(holders[a]))
        attr_indptr.append(len(attr_vertices))
    set_indptr, set_attrs = [0], []
    for s in sets:
        set_attrs.extend(sorted(core_id[a] for a in s if a in core_id))
        set_indptr.append(len(set_attrs))
    return {"num_attrs": len(shared), "attr_indptr": attr_indptr,
            "attr_vertices": attr_vertices, "set_indptr": set_indptr,
            "set_attrs": set_attrs}


def traversal_core_two_sorts(inc) -> dict:
    """The shared-attribute core's arrays by two full-length packed sorts.

    The formula the traversal core was first built with: attribute * n +
    vertex keys for every incidence entry, sorted; run start and end masks
    over the whole array to find the attributes with two or more holders;
    then vertex * num_attrs + core id keys for the vertex side.
    """
    n = inc.n
    sizes = np.diff(inc.set_indptr)
    keys = inc.set_attrs * n + np.repeat(np.arange(n, dtype=np.int64), sizes)
    keys.sort()
    attrs = keys // n
    starts = np.ones(keys.shape[0], dtype=bool)
    starts[1:] = attrs[1:] != attrs[:-1]
    ends = np.ones(keys.shape[0], dtype=bool)
    ends[:-1] = starts[1:]
    shared = ~(starts & ends)
    starts = starts[shared]
    num_attrs = int(np.count_nonzero(starts))
    attr_vertices = keys[shared] % n
    keys = attr_vertices * num_attrs + np.cumsum(starts) - 1
    keys.sort()
    set_sizes = np.bincount(attr_vertices, minlength=n)
    return {"num_attrs": num_attrs,
            "attr_indptr": np.append(np.flatnonzero(starts), starts.shape[0]),
            "attr_vertices": attr_vertices,
            "set_indptr": np.concatenate(([0], np.cumsum(set_sizes))),
            "set_attrs": keys % num_attrs}


def nearest_route_reference(inc, source: int, targets):
    """Route of a one-sided BFS from source to the nearest target, or None.

    Ties go to the smallest-id target at the minimal distance.  A vertex
    first reached at hop k+1 comes through the smallest-id attribute it
    shares with hop k, from the smallest-id hop-k holder of that attribute.
    """
    sets = explicit_sets(inc)
    targets = set(int(t) for t in targets)
    parent = {source: None}
    frontier = [source]
    while frontier:
        hits = [v for v in frontier if v in targets]
        if hits:
            path = [min(hits)]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        owner = {}
        for u in sorted(frontier):
            for a in sets[u]:
                owner.setdefault(a, u)
        reached = {}
        for a in sorted(owner):
            for w in range(inc.n):
                if a in sets[w] and w not in parent and w not in reached:
                    reached[w] = owner[a]
        parent.update(reached)
        frontier = sorted(reached)
    return None


def ladder_level_reference(tilde_z, t, v: int) -> int:
    """Smallest k with tilde_z[v] >= t[k-1], or len(t) + 1 off the ladder.

    A scan down the rungs t_1 > ... > t_k*, from the widest, one comparison
    each; with no rungs every vertex is at level 1.
    """
    for k in range(len(t), 0, -1):
        if tilde_z[v] < t[k - 1]:
            return k + 1
    return 1


def hub_climb_reference(adj, tilde_z, t, u_max: int, start: int):
    """Greedy climb by rung floors on a dense adjacency matrix, or None.

    From level k the next hop needs tilde_z >= t_{k-1}, with an infinite
    floor at level 1, unless it is u_max; the largest tilde_z wins, the
    smallest id on ties.
    """
    path = [start]
    while path[-1] != u_max:
        target = ladder_level_reference(tilde_z, t, path[-1]) - 1
        floor = t[target - 1] if target else math.inf
        qual = [x for x in range(len(tilde_z))
                if adj[path[-1], x] and (tilde_z[x] >= floor or x == u_max)]
        if not qual:
            return None
        path.append(max(qual, key=lambda x: (tilde_z[x], -x)))
    return path


def target_ball_reference(inc, sources):
    """Hop counts from a vertex set, by a multi-source queue BFS over sets.

    Returns (dist, adist): dist[v] is v's hop count to the nearest source
    (-1 when unreachable); adist lists, for each core attribute in increasing
    order of original id, the smallest hop count among its holders (-1 when
    no holder is reached).
    """
    sets = explicit_sets(inc)
    dist = [-1] * inc.n
    queue = []
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            queue.append(s)
    for u in queue:  # the list grows while it is read: a FIFO queue
        for w in range(inc.n):
            if dist[w] == -1 and sets[u] & sets[w]:
                dist[w] = dist[u] + 1
                queue.append(w)
    holders = {}
    for v, s in enumerate(sets):
        for a in s:
            holders.setdefault(a, []).append(v)
    adist = []
    for a in sorted(a for a, hs in holders.items() if len(hs) >= 2):
        reached = [dist[v] for v in holders[a] if dist[v] != -1]
        adist.append(min(reached) if reached else -1)
    return dist, adist


def component_labels_bfs(adj: np.ndarray) -> np.ndarray:
    """First-seen canonical component labels via plain queue BFS."""
    n = adj.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for s in range(n):
        if labels[s] != -1:
            continue
        labels[s] = nxt
        queue = [s]
        while queue:
            u = queue.pop()
            for v in np.flatnonzero(adj[u]):
                if labels[v] == -1:
                    labels[v] = nxt
                    queue.append(int(v))
        nxt += 1
    return labels


def all_pairs_hops(adj: np.ndarray) -> np.ndarray:
    """Floyd-Warshall hop counts; np.inf where disconnected."""
    graph = adj.astype(float)
    return floyd_warshall(graph, directed=False, unweighted=True)


def pair_hops_python(adj: np.ndarray, s: int) -> np.ndarray:
    """Single-source BFS hop counts on the dense matrix (-1 unreachable)."""
    n = adj.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[s] = 0
    frontier = [s]
    level = 0
    while frontier:
        level += 1
        new = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if dist[v] == -1:
                    dist[v] = level
                    new.append(int(v))
        frontier = new
    return dist


def verify_report_reference(reports) -> str:
    """Reference text of verify_bounds.json: the reports as dicts (NaN in
    lhs, rhs and slack becomes None), their status counts, then json.dumps
    with sorted keys and indent 2, plus a final line break."""
    def num(x):
        return None if math.isnan(x) else x

    doc = {"kind": "verify",
           "counts": dict(Counter(rep.status for rep in reports)),
           "reports": [{"bound_id": rep.bound_id, "params": dict(rep.params),
                        "lhs": num(rep.lhs), "rhs": num(rep.rhs),
                        "satisfied": rep.satisfied, "slack": num(rep.slack),
                        "status": rep.status, "note": rep.note}
                       for rep in reports]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
