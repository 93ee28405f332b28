"""Sampling and storage layout for the bipartite vertex-attribute incidence.

A graph instance is stored once, as a vertex-major CSR: each vertex's
attribute ids, strictly increasing, back to back in vertex order.  Graph
files hold the same layout.  The attribute pool can be enormous (the default
m-rule gives m ~ n ln^2 n ln ln n), so nothing here ever allocates an array
of length m.  The attribute side is not stored: graphops.TraversalCore
builds it from an incidence, for the attributes held by two or more
vertices only.
The vertex-vertex edge list is likewise never materialized: heavy vertices
share attributes with thousands of others and the induced cliques would blow
up memory, so traversals run on the bipartite structure.

The sampler draws every vertex's attributes straight into the incidence's
id array, in its final slots, one run of whole vertices and about _RUN
(2**15) entries at a time.  A run is offset by vertex, sorted while it sits
in cache and offset back, which leaves each vertex's draws sorted in its
own slots and puts every repeated draw next to its twin.  Only the slots
of vertices with a repeat are gathered, topped up and written back.  Every
temporary is run-sized, _BLOCK entries long or those few slots long, so
building an instance peaks near 1.05x the incidence's bytes.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, VertexWeights, sample_tilde_weights

__all__ = [
    "BipartiteIncidence",
    "sample_incidence",
    "generate",
    "concat_ranges",
]

# Largest n*m for which the packed keys vertex*m + attr (sampler) and
# attr*n + vertex (traversal core) fit in int64 with headroom.
PACK_LIMIT = 2**62

# Entries per step of the passes that work in place on an incidence-length
# array: each step allocates only block-sized temporaries.
_BLOCK = 1 << 18

# Entries per sampler run: a run's keys and offsets stay in cache while it
# sorts them.
_RUN = 1 << 15


def _range_slots(indptr: np.ndarray, items: np.ndarray):
    """Positions of data[indptr[i]:indptr[i+1]] for every i in items, back
    to back, and each range's length.  One np.repeat + one arange."""
    items = np.asarray(items, dtype=np.int64)
    starts = indptr[items]
    lens = indptr[items + 1] - starts
    ends = np.cumsum(lens)
    idx = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
    idx += np.repeat(starts + lens - ends, lens)  # item i's offset: start - first slot
    return idx, lens


def concat_ranges(indptr: np.ndarray, data: np.ndarray, items: np.ndarray):
    """Concatenate data[indptr[i]:indptr[i+1]] for every i in items.

    Returns (values, lengths).  Vectorized: one np.repeat + one arange,
    no per-item Python loop.
    """
    idx, lens = _range_slots(indptr, items)
    return data[idx], lens


class BipartiteIncidence:
    """Vertex-major CSR incidence: each vertex's attribute ids, sorted.

    Attributes
    ----------
    n, m : int
        Vertex count and attribute pool size; n * m < PACK_LIMIT.
    set_indptr : (n+1,) int64
        Row pointer for per-vertex attribute lists.
    set_attrs : int64
        Original attribute ids, strictly increasing within each vertex.
    """

    def __init__(self, n, m, set_indptr, set_attrs):
        self.n = int(n)
        self.m = int(m)
        self.set_indptr = set_indptr
        self.set_attrs = set_attrs

    # -- construction ------------------------------------------------------

    @classmethod
    def from_flat(cls, n: int, m: int, sizes: np.ndarray,
                  flat: np.ndarray) -> "BipartiteIncidence":
        """Build from concatenated per-vertex attribute lists.

        flat holds the lists back to back in vertex order; sizes gives each
        length.  Each list must be strictly increasing, which rules out
        repeats too; nothing is sorted here.
        """
        n = int(n)
        m = int(m)
        if n * m >= PACK_LIMIT:
            raise ValueError(f"n * m = {n * m} must stay below 2**62 so that "
                             f"packed vertex-attribute keys fit in int64")
        sizes = np.asarray(sizes, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        if sizes.shape != (n,):
            raise ValueError("sizes must have length n")
        if int(sizes.sum()) != flat.shape[0]:
            raise ValueError("sizes do not add up to the flat list length")
        if np.any(sizes < 0) or np.any(sizes > m):
            raise ValueError("set sizes must lie in [0, m]")
        if flat.size and (flat.min() < 0 or flat.max() >= m):
            raise ValueError("attribute ids must lie in [0, m)")

        set_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=set_indptr[1:])
        # rises[i] compares flat[i + 1] with flat[i]; a new list may start low
        rises = flat[1:] > flat[:-1]
        starts = set_indptr[1:-1]
        rises[starts[(starts > 0) & (starts < flat.shape[0])] - 1] = True
        if not rises.all():
            i = int(np.argmin(rises)) + 1
            v = int(np.searchsorted(set_indptr, i, side="right")) - 1
            raise ValueError(f"vertex {v} lists attribute {flat[i]} after "
                             f"{flat[i - 1]}; each list must be strictly increasing")
        return cls(n, m, set_indptr, flat)

    @classmethod
    def from_sets(cls, n: int, m: int, sets) -> "BipartiteIncidence":
        """Build from an iterable of n attribute-id collections, in any order."""
        sets = [np.sort(np.asarray(s, dtype=np.int64)) for s in sets]
        if len(sets) != n:
            raise ValueError(f"expected {n} sets, got {len(sets)}")
        sizes = np.array([s.shape[0] for s in sets], dtype=np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        return cls.from_flat(n, m, sizes, flat)

    # -- accessors ---------------------------------------------------------

    @property
    def total_incidence(self) -> int:
        return self.set_attrs.shape[0]

    def set_of(self, v: int) -> np.ndarray:
        """Sorted original attribute ids of vertex v."""
        return self.set_attrs[self.set_indptr[v]:self.set_indptr[v + 1]]

    def sizes(self) -> np.ndarray:
        return np.diff(self.set_indptr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteIncidence):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.set_indptr, other.set_indptr)
            and np.array_equal(self.set_attrs, other.set_attrs)
        )

    def __repr__(self) -> str:
        return (f"BipartiteIncidence(n={self.n}, m={self.m}, "
                f"incidence={self.total_incidence})")


def _sorted_unique(keys: np.ndarray, kind=None) -> np.ndarray:
    """Sorted distinct values of a 1-d array, as np.unique returns them.

    Sorts keys in place with the given np.sort kind, so callers pass an
    array they own and no longer need, then moves each entry that differs
    from its predecessor to the front of keys, _BLOCK entries at a time, and
    returns a view of that front.  Nothing of the input's length is
    allocated, and for large integer arrays this is far cheaper than numpy's
    hash-based np.unique.
    """
    keys.sort(kind=kind)
    size = 0
    for start in range(0, keys.shape[0], _BLOCK):
        block = keys[start:start + _BLOCK]
        keep = np.empty(block.shape[0], dtype=bool)
        # the last kept value equals the previous block's last entry
        keep[0] = size == 0 or block[0] != keys[size - 1]
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        kept = block[keep]
        keys[size:size + kept.shape[0]] = kept
        size += kept.shape[0]
    return keys[:size]


def _add_draws(keys: np.ndarray, m: int, rng: np.random.Generator) -> None:
    """Add an iid uniform attribute in [0, m) to every key, in place.

    The draws are taken _BLOCK at a time; numpy's bounded integers keep no
    state between calls, so the blocks consume the stream exactly as one
    rng.integers call of the full length would.
    """
    for start in range(0, keys.shape[0], _BLOCK):
        block = keys[start:start + _BLOCK]
        block += rng.integers(0, m, size=block.shape[0], dtype=np.int64)


def _run_starts(set_indptr: np.ndarray) -> list:
    """First vertex of each sampler run, then n.

    Runs hold whole vertices, and a new one starts at the first vertex whose
    slots start at or after each multiple of _RUN entries.  So a run holds
    about _RUN entries, more when its last vertex is longer than that.
    """
    n, total = set_indptr.shape[0] - 1, int(set_indptr[-1])
    if total <= _RUN:
        return [0, n]
    cuts = np.searchsorted(set_indptr, np.arange(_RUN, total, _RUN), side="left")
    return list(dict.fromkeys([0, *cuts.tolist(), n]))


def sample_incidence(m: int, sizes: np.ndarray, rng: np.random.Generator) -> "BipartiteIncidence":
    """Sample every vertex's uniform subset, sizes[v] attributes each.

    Vertex v draws exactly sizes[v] raw attributes into its final slots
    [indptr[v], indptr[v+1]), in vertex order.  The draws are taken run by
    run (_run_starts), and numpy's bounded integers keep no state between
    calls, so the runs consume the stream exactly as one rng.integers call
    of the full length would.  Each run adds the offset (v - first) * m to
    the draws of its vertex v, first being its first vertex, sorts, notes
    the vertices with a draw that repeats its predecessor, and subtracts
    the same offsets: sorting keeps every key in its own vertex's slots, so
    each vertex's draws come out sorted.  Only the vertices with a repeat
    come up short.  Their slots are gathered, packed as vertex * m + attr,
    and deduplicated, and the top-up rounds run on that small array alone:
    each round draws the missing keys into its tail, short vertices in
    ascending order, and sorts and dedups it again (a sorted front and a
    short tail, which a stable sort merges in one pass).  The result goes
    back into those vertices' slots.  Per vertex this keeps the first z
    distinct values of an iid uniform stream, so the subsets are exactly
    uniform and mutually independent.  Each list ends strictly increasing
    by construction, so the incidence is built without a re-scan.  Pools
    with n*m >= 2**62, where the packed keys would overflow int64, raise
    ValueError before anything is drawn.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = sizes.shape[0]
    if np.any(sizes < 0) or np.any(sizes > m):
        raise ValueError("set sizes must lie in [0, m]")
    if n * int(m) >= PACK_LIMIT:
        raise ValueError(f"n * m = {n * int(m)} must stay below 2**62 so that "
                         f"vertex * m + attribute fits in int64")
    set_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=set_indptr[1:])

    attrs = np.empty(int(set_indptr[-1]), dtype=np.int64)
    repeated = np.zeros(n, dtype=bool)
    starts = _run_starts(set_indptr)
    for first, last in zip(starts[:-1], starts[1:]):
        run = attrs[set_indptr[first]:set_indptr[last]]
        offsets = np.repeat(np.arange(0, (last - first) * m, m, dtype=np.int64),
                            sizes[first:last])
        np.add(rng.integers(0, m, size=run.shape[0], dtype=np.int64), offsets, out=run)
        run.sort()
        repeated[run[1:][run[1:] == run[:-1]] // m + first] = True
        run -= offsets

    short = np.flatnonzero(repeated)
    if short.size:
        slots, lens = _range_slots(set_indptr, short)
        firsts = short * m
        packed = np.repeat(firsts, lens)
        held = attrs[slots] + packed
        keys = _sorted_unique(held, kind="stable")
        while keys.shape[0] < held.shape[0]:
            have = np.diff(np.searchsorted(keys, firsts), append=keys.shape[0])
            deficit = sizes[short] - have
            need = np.flatnonzero(deficit)
            tail = held[keys.shape[0]:]
            tail[:] = np.repeat(firsts[need], deficit[need])
            _add_draws(tail, m, rng)
            # a sorted front and a short tail: timsort merges them in one pass
            keys = _sorted_unique(held, kind="stable")
        held -= packed
        attrs[slots] = held
    return BipartiteIncidence(n, m, set_indptr, attrs)


def generate(params: ModelParams, rng: np.random.Generator):
    """Sample a full instance: weights first, then all attribute subsets.

    Returns (incidence, weights).  The rng is consumed in a fixed order
    (one weight batch, then the subset batch), so a given (params, seed)
    pair reproduces the instance bit for bit.
    """
    weights = sample_tilde_weights(params, rng)
    inc = sample_incidence(params.m, weights.sizes, rng)
    return inc, weights
