"""Sampling and layout of the bipartite vertex-attribute incidence.

An instance is held in one layout: its row pointer and the sorted keys
attr * n + vertex of its entries.  The sampler draws the keys, from_flat
packs checked vertex-major ids into them in place (both graph readers and
from_sets build through it; the binary reader hands it a row pointer that
holds the file's size words, _from_row_sizes), and graphops.TraversalCore
reads its core straight off a core-only instance's keys (_shared_entries).
The vertex-major view, each vertex's attribute ids strictly increasing and
back to back in vertex order, is the layout of graph files; each read of
set_attrs derives it from a copy of the keys, with one sort, and nothing
keeps it.  The attribute pool can be enormous (the default m-rule gives
m ~ n ln^2 n ln ln n), so nothing here ever allocates an array of length m.
The vertex-vertex edge list is likewise never materialized: heavy vertices
share attributes with thousands of others and the induced cliques would
blow up memory, so traversals run on the bipartite structure.

An instance is full, as generate, sample_incidence and the graph readers
give it, or core-only: the same layout holding only the shared entries,
those of attributes with two or more holders, with each vertex's count of
them as its set size.  An attribute with one holder creates no edge, so a
core-only instance has the full one's traversal core, its components and
its distances; at n = 1e5 it keeps 12% of the entries.  One method makes
it, in place (keep_core), and a traversal core is built only from its
output (_shared_entries): harness's Trial.generated shrinks the sampler's
instance, and Trial.from_file a graph file's, whose full row pointer
keep_core leaves as it is, so the full sizes are taken from it once the
core is built.  One rule tells a shared entry (_shared_run): its attribute
is that of a neighbouring key.

Every pass over an incidence-length array walks it _RUN (2**15) entries
at a time, and every whole-array sort is numpy's, in place.

sample_incidence takes each vertex's draws in vertex order, a run at a
time, packs them as attr * n + vertex, sorts the whole array in place once
and compacts away the repeats, which tell each vertex's shortfall.  Each
top-up round (_top_up) draws the shortfalls into the tail, a run at a
time, short vertices in ascending order, and checks only those draws
against the keys held, so a round costs its shortfall; one merge at the end
(_merge) sorts the whole array again.  Every temporary is run-sized or
round-sized, so sampling peaks near 1.05x the keys' bytes, and keep_core
then moves the shared entries to the front of the keys and shrinks them in
place, with nothing of the core's size beside them, and counts each
vertex's kept entries only after the shrink.  from_flat checks a file's
ids, their range and their order, in the walk that packs them, run by run
too, so reading one holds only the ids, their row pointer and run-sized
temporaries, and peaks near 1.04x its ids' bytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import ModelParams, VertexWeights, sample_tilde_weights

__all__ = [
    "BipartiteIncidence",
    "sample_incidence",
    "generate",
    "concat_ranges",
    "pack_error",
]

# Largest n*m for which the packed keys vertex*m + attr and attr*n + vertex
# fit in int64 with headroom.
PACK_LIMIT = 2**62

# Entries per run of every pass that walks an incidence-length array: the
# sampler's draws and top-up draws, the compaction of _sorted_unique, the
# range and order checks and packing of from_flat, the packing of keys to
# and from the vertex-major view, and the neighbour compares of
# _occupied_attrs, _shared_entries and _keep_shared.  A run stays in cache
# while a pass works on it, and the pass's temporaries are a run long.
_RUN = 1 << 15


def pack_error(n: int, m: int) -> Optional[str]:
    """Why n vertices over an m-pool cannot be packed into int64 keys, or
    None: it needs n * m < PACK_LIMIT."""
    if n * m >= PACK_LIMIT:
        return f"n * m = {n * m} must stay below 2**62 so that packed keys fit in int64"
    return None


def _set_indptr(n: int, m: int, set_indptr: np.ndarray) -> None:
    """Sum n int64 set sizes over an m-pool, held in set_indptr[1:] of an
    (n + 1,)-array, in place into their row pointer.  Raises ValueError
    unless n * m packs (pack_error) and every size lies in [0, m], which
    keeps the running sums below n * m."""
    error = pack_error(n, m)
    if error is not None:
        raise ValueError(error)
    sizes = set_indptr[1:]
    if np.any(sizes < 0) or np.any(sizes > m):
        raise ValueError("set sizes must lie in [0, m]")
    set_indptr[0] = 0
    np.cumsum(sizes, out=sizes)


def concat_ranges(indptr: np.ndarray, data: np.ndarray, items: np.ndarray):
    """Concatenate data[indptr[i]:indptr[i+1]] for every i in items.

    Returns (values, lengths).  Vectorized: one np.repeat + one arange,
    no per-item Python loop.
    """
    items = np.asarray(items, dtype=np.int64)
    starts = indptr[items]
    lens = indptr[items + 1] - starts
    ends = np.cumsum(lens)
    idx = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
    idx += np.repeat(starts + lens - ends, lens)  # item i's offset: start - first slot
    return data[idx], lens


def _owners(indptr: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The vertex of every entry start..stop-1 (start < stop) of a
    vertex-major layout: one np.repeat over the vertices that hold them."""
    first, last = np.searchsorted(indptr, [start, stop - 1], side="right") - 1
    bounds = np.clip(indptr[first:last + 2], start, stop)
    return np.repeat(np.arange(first, last + 1, dtype=np.int64), np.diff(bounds))


def _attr_major(ids: np.ndarray, n: int, m: int, indptr: np.ndarray) -> np.ndarray:
    """Check vertex-major ids and pack them, in place, into sorted
    attr * n + vertex keys.

    The caller owns ids and gives them up: they are returned as the keys,
    and on a fault the runs before it are packed already.  Each run of _RUN
    entries is checked before it is packed: every id must lie in [0, m),
    by the run's min and max, and every list must strictly increase, which
    rules out repeats too, a run's first id compared with the last original
    id of the run before.  A range fault raises ValueError; the first order
    fault raises ValueError naming its vertex and its two ids.  Each run
    takes its owners from one np.repeat, and the whole array is then sorted
    in place once.
    """
    last = None
    for start in range(0, ids.shape[0], _RUN):
        block = ids[start:start + _RUN]
        stop = start + block.shape[0]
        if block.min() < 0 or block.max() >= m:
            raise ValueError("attribute ids must lie in [0, m)")
        # rises[j] compares block[j] with the id before it; a new list may
        # start low
        rises = np.empty(block.shape[0], dtype=bool)
        rises[0] = last is None or block[0] > last
        np.greater(block[1:], block[:-1], out=rises[1:])
        lo, hi = np.searchsorted(indptr, [start, stop])
        rises[indptr[lo:hi] - start] = True
        owners = _owners(indptr, start, stop)
        if not rises.all():
            j = int(np.argmin(rises))
            before = block[j - 1] if j else last
            raise ValueError(f"vertex {owners[j]} lists attribute {block[j]} after "
                             f"{before}; each list must be strictly increasing")
        last = block[-1]
        block *= n
        block += owners
    ids.sort()
    return ids


def _vertex_major(keys: np.ndarray, n: int, m: int, indptr: np.ndarray) -> np.ndarray:
    """Unpack sorted attr * n + vertex keys, in place, into vertex-major ids.

    The caller owns keys and gives them up: they are returned as the ids.
    They are packed into vertex * m + attr _RUN entries at a time, sorted in
    place once and unpacked against the owners, so that only run-sized
    temporaries exist beside them.
    """
    ids = keys
    scratch = np.empty((2, min(_RUN, ids.shape[0])), dtype=np.int64)
    for start in range(0, ids.shape[0], _RUN):
        block = ids[start:start + _RUN]
        attrs, verts = scratch[:, :block.shape[0]]
        np.floor_divide(block, n, out=attrs)
        # vertex = key - attr * n: cheaper than the remainder np.divmod takes
        np.multiply(attrs, n, out=verts)
        np.subtract(block, verts, out=verts)
        np.multiply(verts, m, out=block)
        block += attrs
    ids.sort()
    for start in range(0, ids.shape[0], _RUN):
        out = ids[start:start + _RUN]
        firsts = _owners(indptr, start, start + out.shape[0])
        firsts *= m
        out -= firsts
    return ids


def _occupied_attrs(keys: np.ndarray, n: int) -> int:
    """How many distinct attributes sorted attr * n + vertex keys hold.

    Counted _RUN keys at a time, each run's attributes against the last
    attribute of the run before, so no temporary is longer than a run.
    """
    count, last = 0, -1
    for start in range(0, keys.shape[0], _RUN):
        attrs = keys[start:start + _RUN] // n
        count += int(attrs[0] != last) + int(np.count_nonzero(attrs[1:] != attrs[:-1]))
        last = attrs[-1]
    return count


def _shared_run(keys: np.ndarray, start: int, stop: int, n: int) -> np.ndarray:
    """Which of the sorted attr * n + vertex keys[start:stop] are shared: an
    entry is when its attribute is that of a neighbouring entry.  Reads only
    keys[start - 1:stop + 1], so the mask is run-sized."""
    total = keys.shape[0]
    lo, hi = max(start - 1, 0), min(stop + 1, total)
    attrs = keys[lo:hi] // n
    # same[j]: entries lo + j - 1 and lo + j hold the same attribute
    same = np.zeros(hi - lo + 1, dtype=bool)
    np.equal(attrs[1:], attrs[:-1], out=same[1:-1])
    return (same[:-1] | same[1:])[start - lo:stop - lo]


def _shared_entries(inc: "BipartiteIncidence"):
    """The shared-attribute core's attribute side: (attr_vertices, starts).

    inc is core-only (keep_core): its sorted attr * n + vertex keys, which
    are only read, are the shared entries.  attr_vertices lists the holders
    of every attribute with two or more holders, attribute by attribute in
    increasing original id, each attribute's holders sorted; starts flags
    the first entry of each attribute.  The keys are copied, and the
    attribute starts and the holders are taken from the copy _RUN entries
    at a time, the holders in place.
    """
    n = inc.n
    core = inc.keys.copy()
    starts = np.empty(core.shape[0], dtype=bool)
    last = -1
    for start in range(0, core.shape[0], _RUN):
        block = core[start:start + _RUN]
        attrs = block // n
        flags = starts[start:start + block.shape[0]]
        flags[0] = attrs[0] != last
        np.not_equal(attrs[1:], attrs[:-1], out=flags[1:])
        last = attrs[-1]
        attrs *= n
        block -= attrs
    return core, starts


def _keep_shared(keys: np.ndarray, n: int) -> int:
    """Move the shared entries (_shared_run) of sorted attr * n + vertex
    keys, which the caller owns, to the front of keys, in order, and return
    their count.

    Each run of _RUN entries is marked before anything is written, and the
    kept entries never pass the run being read, so the neighbour that the
    next run reads is still in place.
    """
    size = 0
    for start in range(0, keys.shape[0], _RUN):
        stop = min(start + _RUN, keys.shape[0])
        # np.compress: a boolean index of a run takes about 2.5x as long
        kept = np.compress(_shared_run(keys, start, stop, n), keys[start:stop])
        keys[size:size + kept.shape[0]] = kept
        size += kept.shape[0]
    return size


class BipartiteIncidence:
    """Every vertex's attribute set: its set sizes and its sorted keys.

    Attributes
    ----------
    n, m : int
        Vertex count and attribute pool size; n * m < PACK_LIMIT.
    set_indptr : (n+1,) int64
        Row pointer for per-vertex attribute lists.  keep_core replaces it
        with a new one and leaves the full one as it is.
    keys : int64
        Every entry as attr * n + vertex, sorted: what sample_incidence draws
        and from_flat packs.  Nothing else of the entries is held.  In a
        core-only instance (keep_core) the keys are only the shared entries,
        those of attributes with two or more holders, and set_indptr counts
        each vertex's shared entries; everything else reads it as it reads
        a full one.
    core_only : bool
        Whether keep_core has shrunk the instance to its shared entries:
        graphops.TraversalCore builds only from such an instance.
    set_attrs : int64, read-only
        The vertex-major view: original attribute ids, strictly increasing
        within each vertex.  Each read sorts it out of a copy of the keys
        and keeps nothing.
    """

    def __init__(self, n, m, set_indptr, keys):
        self.n = int(n)
        self.m = int(m)
        self.set_indptr = set_indptr
        self.keys = keys
        self.core_only = False

    @property
    def set_attrs(self) -> np.ndarray:
        return _vertex_major(self.keys.copy(), self.n, self.m, self.set_indptr)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_flat(cls, n: int, m: int, sizes: np.ndarray,
                  flat: np.ndarray) -> "BipartiteIncidence":
        """Build from concatenated per-vertex attribute lists.

        flat holds the lists back to back in vertex order; sizes gives each
        length, and is left as it is: its row pointer is a new array
        (_from_row_sizes takes a caller's).  Each list must be strictly
        increasing, which rules out repeats too, and every id must lie in
        [0, m).  flat is checked and packed in place into the keys in one
        walk (_attr_major), _RUN entries at a time, so the checks' masks
        are run-sized, and the first order fault names its vertex and its
        two ids.  The caller gives flat up, and an int64 flat is returned
        as the keys.  The instance is full.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape != (int(n),):
            raise ValueError("sizes must have length n")
        return cls._from_row_sizes(n, m, np.concatenate(([0], sizes)), flat)

    @classmethod
    def _from_row_sizes(cls, n: int, m: int, set_indptr: np.ndarray,
                        flat: np.ndarray) -> "BipartiteIncidence":
        """from_flat, with the n sizes given in set_indptr[1:] of an int64
        (n + 1,)-array that the caller gives up: it is checked and summed
        in place into the instance's row pointer (_set_indptr), so a graph
        reader that reads its size words straight into it holds no other
        n-length array."""
        n = int(n)
        m = int(m)
        _set_indptr(n, m, set_indptr)
        flat = np.asarray(flat, dtype=np.int64)
        if set_indptr[-1] != flat.shape[0]:
            raise ValueError("sizes do not add up to the flat list length")
        return cls(n, m, set_indptr, _attr_major(flat, n, m, set_indptr))

    @classmethod
    def from_sets(cls, n: int, m: int, sets) -> "BipartiteIncidence":
        """Build from an iterable of n attribute-id collections, in any order."""
        sets = [np.sort(np.asarray(s, dtype=np.int64)) for s in sets]
        if len(sets) != n:
            raise ValueError(f"expected {n} sets, got {len(sets)}")
        sizes = np.array([s.shape[0] for s in sets], dtype=np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        return cls.from_flat(n, m, sizes, flat)

    def keep_core(self) -> None:
        """Shrink this instance, in place, to its core-only form.

        The shared entries, those of attributes with two or more holders,
        are moved to the front of the keys, run by run (_keep_shared), and
        the keys are shrunk to them in place (ndarray.resize), so nothing of
        the core's size is made beside the full keys.  Only then are each
        vertex's kept entries counted, by one np.bincount over the shrunk
        keys, into a new set_indptr.  The instance gives up its keys, and
        any other holder of them finds them overwritten; the full row
        pointer is left as it is, so a holder of it still reads the full
        sizes.  numpy refuses the resize while another reference to the
        keys or a view of them exists, or when they are a view themselves,
        and a trace or profile function holds a reference during the call:
        the kept front is then copied out instead.
        """
        n = self.n
        size = _keep_shared(self.keys, n)
        try:
            self.keys.resize(size)
        except ValueError:  # the keys are shared or not their own
            self.keys = self.keys[:size].copy()
        # bin v + 1 counts vertex v's kept entries; their running sum is the row pointer
        set_indptr = np.bincount(self.keys % n + 1, minlength=n + 1)
        np.cumsum(set_indptr, out=set_indptr)
        self.set_indptr = set_indptr
        self.core_only = True

    # -- accessors ---------------------------------------------------------

    @property
    def total_incidence(self) -> int:
        return int(self.set_indptr[-1])

    def sizes(self) -> np.ndarray:
        return np.diff(self.set_indptr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteIncidence):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.set_indptr, other.set_indptr)
            and np.array_equal(self.keys, other.keys)
        )

    def __repr__(self) -> str:
        return (f"BipartiteIncidence(n={self.n}, m={self.m}, "
                f"incidence={self.total_incidence})")


def _merge(keys: np.ndarray) -> None:
    """Sort in place keys that are a few sorted runs back to back: timsort
    finds the runs and merges them, in about a tenth of a full sort's time
    on a long sorted run with a short one behind it."""
    keys.sort(kind="stable")


def _sorted_unique(keys: np.ndarray, repeats=None) -> np.ndarray:
    """Sorted distinct values of a 1-d array, as np.unique returns them.

    Sorts keys in place, so callers pass an array they own and no longer
    need, then moves each entry that differs from its predecessor to the
    front of keys, _RUN entries at a time, and returns a view of that front.
    Nothing of the input's length is allocated, and for large integer arrays
    this is far cheaper than numpy's hash-based np.unique.  When repeats is
    a list, each block's dropped entries are appended to it.
    """
    keys.sort()
    size = 0
    for start in range(0, keys.shape[0], _RUN):
        block = keys[start:start + _RUN]
        keep = np.empty(block.shape[0], dtype=bool)
        # the last kept value equals the previous block's last entry
        keep[0] = size == 0 or block[0] != keys[size - 1]
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        if keep.all():  # most blocks of sampled keys: move them, if at all, whole
            kept = block
        else:
            kept = block[keep]
            if repeats is not None:
                repeats.append(block[~keep])
        if kept is not block or size < start:
            keys[size:size + kept.shape[0]] = kept
        size += kept.shape[0]
    return keys[:size]


def _top_up(buf: np.ndarray, size: int, repeats: np.ndarray, n: int, m: int,
            rng: np.random.Generator) -> None:
    """Redraw every repeat of buf until each vertex holds distinct keys.

    buf[:size] are sorted distinct attr * n + vertex keys, and repeats the
    draws dropped from them, one per missing key, so buf[size:] is the room
    for the missing keys.  Each round draws the shortfalls into that tail,
    a run at a time, short vertices in ascending order (the sorted owners
    of the repeats), sorts the tail alone and drops its repeats: draws
    repeated within it, found by one compare of neighbours, or held by the
    front or by a key accepted in an earlier round, found by one
    np.searchsorted per sorted run, each on the draws that the runs before
    it left.  The rest are accepted as a new sorted run behind the others.
    An accepted run shorter than _RUN, or at most twice as long as the run
    behind it, merges with that run (_merge), so the runs stay few, and a
    round costs its shortfall, not the whole buffer.  Once no vertex is
    short, one _merge sorts the whole buffer.  The keys and the draws are
    those of merging every round into the whole sorted buffer.
    """
    bounds = [0, size]  # the front, then each accepted run: buf[bounds[i]:bounds[i + 1]]
    while repeats.shape[0]:
        tail = buf[size:]
        np.remainder(repeats, n, out=tail)
        tail.sort()
        for start in range(0, tail.shape[0], _RUN):
            block = tail[start:start + _RUN]
            block += rng.integers(0, m, size=block.shape[0], dtype=np.int64) * n
        tail.sort()
        # fresh marks each draw's first copy, then the accepted draws alone
        fresh = np.empty(tail.shape[0], dtype=bool)
        fresh[0] = True
        np.not_equal(tail[1:], tail[:-1], out=fresh[1:])
        new = fresh.nonzero()[0]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            draws, held = tail[new], buf[lo:hi]
            new = new[held.take(held.searchsorted(draws), mode="clip") != draws]
        fresh[:] = False
        fresh[new] = True
        repeats = tail[~fresh]
        if new.shape[0]:
            tail[:new.shape[0]] = tail[new]
            size += new.shape[0]
            bounds.append(size)
        while len(bounds) > 3 and (bounds[-2] - bounds[-3] < _RUN or
                                   bounds[-2] - bounds[-3] <= 2 * (bounds[-1] - bounds[-2])):
            _merge(buf[bounds[-3]:bounds[-1]])
            del bounds[-2]
    if len(bounds) > 2:
        _merge(buf)


def sample_incidence(m: int, sizes: np.ndarray, rng: np.random.Generator) -> "BipartiteIncidence":
    """Sample every vertex's uniform subset, sizes[v] attributes each.

    Every vertex draws sizes[v] raw attributes, in vertex order, _RUN
    entries at a time, and so does each top-up round; numpy's bounded
    integers keep no state between calls, so the pieces consume the stream
    exactly as one rng.integers call of the full length would.  Each draw
    is packed as attr * n + vertex (_owners); the whole array is sorted in
    place once and _sorted_unique drops the repeats, which it hands back.
    Each vertex's shortfall is the count of its dropped keys, and _top_up
    redraws them in rounds that each cost their shortfall, then merges the
    accepted keys into the sorted front once.  Per vertex this keeps the
    first sizes[v] distinct values of an iid uniform stream, so the subsets
    are exactly uniform and mutually independent.  Returns the full
    incidence, its keys sorted and distinct.  A pool with n * m >= 2**62,
    where the packed keys would overflow int64, or a size outside [0, m]
    raises ValueError before anything is drawn (_set_indptr).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = sizes.shape[0]
    set_indptr = np.concatenate(([0], sizes))
    _set_indptr(n, int(m), set_indptr)
    total = int(set_indptr[-1])
    buf = np.empty(total, dtype=np.int64)
    for start in range(0, total, _RUN):
        block = buf[start:start + _RUN]
        np.multiply(rng.integers(0, m, size=block.shape[0], dtype=np.int64), n, out=block)
        block += _owners(set_indptr, start, start + block.shape[0])
    repeats = []
    size = _sorted_unique(buf, repeats=repeats).shape[0]
    if repeats:
        _top_up(buf, size, np.concatenate(repeats), n, m, rng)
    return BipartiteIncidence(n, m, set_indptr, buf)


def generate(params: ModelParams, rng: np.random.Generator):
    """Sample a full instance: weights first, then all attribute subsets.

    Returns (incidence, weights).  The rng is consumed in a fixed order
    (one weight batch, then the subset batch), so a given (params, seed)
    pair reproduces the instance bit for bit.  A traversal core is built
    once the incidence is shrunk to its shared entries (keep_core); its
    vertex-major ids are sorted out of a copy of the keys at each read of
    set_attrs, or, by a caller that gives the keys up, unpacked over them
    in place (_vertex_major).
    """
    weights = sample_tilde_weights(params, rng)
    inc = sample_incidence(params.m, weights.sizes, rng)
    return inc, weights

