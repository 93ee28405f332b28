"""Sampling and layout of the bipartite vertex-attribute incidence.

An instance is held in one layout: its set sizes and the sorted keys
attr * n + vertex of its entries.  The sampler draws the keys, from_flat
packs checked vertex-major ids into them in place (both graph readers and
from_sets build through it), and graphops.TraversalCore reads its core
straight off them (_shared_entries).  The vertex-major view, each vertex's
attribute ids strictly increasing and back to back in vertex order, is the
layout of graph files; each read of set_attrs derives it from a copy of the
keys, with one sort, and nothing keeps it.  The attribute pool can be enormous
(the default m-rule gives m ~ n ln^2 n ln ln n), so nothing here ever
allocates an array of length m.  The vertex-vertex edge list is
likewise never materialized: heavy vertices share attributes with thousands
of others and the induced cliques would blow up memory, so traversals run
on the bipartite structure.

This module alone sizes work to the machine.  Every pass over an
incidence-length array walks it _RUN (2**15) entries at a time, and _cpus()
counts the CPUs this process may run on: every whole-array sort (_sort)
splits over them, and harness caps its pool workers by them.

sample_incidence takes each vertex's draws in vertex order, a run at a
time, packs them as attr * n + vertex, sorts the whole array in place once,
on every CPU (_sort), and compacts away the repeats, which tell each
vertex's shortfall.  Each top-up round draws the shortfalls into the tail,
a run at a time, short vertices in ascending order, and a stable sort
merges the sorted front with that short tail.  Every temporary is
run-sized, so sampling peaks near 1.05x the keys' bytes.
"""

from __future__ import annotations

import os
import threading
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
# packing of keys to and from the vertex-major view, and the neighbour
# compares of _occupied_attrs and _shared_entries.  A run stays in cache
# while a pass works on it, and the pass's temporaries are a run long.
_RUN = 1 << 15

# Shortest part of an array that _sort splits between two threads; shorter
# parts sort on the thread that holds them.  On 2 CPUs (x86-64, AVX-512) two
# threads sort random int64 keys in 0.78x one thread's time at 1e5 keys,
# 0.89x at 5e4 and 1.2x at 2.5e4.
_SPLIT = 1 << 17

# How many processes share the CPUs this process may run on: more than one
# only in a worker of a process pool (_share_cpus).
_SHARERS = 1


def pack_error(n: int, m: int) -> Optional[str]:
    """Why n vertices over an m-pool cannot be packed into int64 keys, or
    None: it needs n * m < PACK_LIMIT."""
    if n * m >= PACK_LIMIT:
        return f"n * m = {n * m} must stay below 2**62 so that packed keys fit in int64"
    return None


def _set_indptr(n: int, m: int, sizes: np.ndarray) -> np.ndarray:
    """The row pointer of n int64 set sizes over an m-pool.  Raises
    ValueError unless n * m packs (pack_error) and every size lies in
    [0, m], which keeps the running sums below n * m."""
    error = pack_error(n, m)
    if error is not None:
        raise ValueError(error)
    if np.any(sizes < 0) or np.any(sizes > m):
        raise ValueError("set sizes must lie in [0, m]")
    set_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=set_indptr[1:])
    return set_indptr


def _share_cpus(processes: int) -> None:
    """Process-pool initializer: this worker and processes - 1 siblings
    share the CPUs, so its sorts take only its share of them."""
    global _SHARERS
    _SHARERS = processes


def _cpus() -> int:
    """How many CPUs this process's sorts and pool workers may use: its
    share of the CPUs it may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _SHARERS)


def _sort(keys: np.ndarray) -> None:
    """Sort a 1-d integer array in place on every CPU the process may use
    (in a pool worker, on its share of them).

    An array of at least _SPLIT entries is partitioned at its median, so
    every key below it comes first, and its two halves are sorted at once,
    the upper half on a thread of its own; each half splits again while
    CPUs and length remain.  Sorted integers have one order, so the result
    is keys.sort()'s.  An exception raised on any thread reaches the caller
    after every thread has joined.
    """
    _sort_part(keys, _cpus())


def _sort_part(part: np.ndarray, cpus: int) -> None:
    """_sort on the given number of CPUs: this thread and cpus - 1 more."""
    if cpus < 2 or part.shape[0] < _SPLIT:
        part.sort()
        return
    mid = part.shape[0] // 2
    part.partition(mid)  # one kth: numpy partitions at a kth list far slower
    half = cpus // 2
    errors = []

    def upper():
        try:
            _sort_part(part[mid:], cpus - half)
        except BaseException as exc:  # handed to the thread that joins
            errors.append(exc)

    thread = threading.Thread(target=upper)
    thread.start()
    try:
        _sort_part(part[:mid], half)
    finally:
        thread.join()
    if errors:
        raise errors[0]


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


def _attr_major(ids: np.ndarray, n: int, indptr: np.ndarray) -> np.ndarray:
    """Pack vertex-major ids, in place, into sorted attr * n + vertex keys.

    The caller owns ids and gives them up: they are returned as the keys.
    Each run of _RUN entries takes its owners from one np.repeat, and the
    whole array is then sorted in place once, on every CPU (_sort).
    """
    for start in range(0, ids.shape[0], _RUN):
        block = ids[start:start + _RUN]
        block *= n
        block += _owners(indptr, start, start + block.shape[0])
    _sort(ids)
    return ids


def _vertex_major(keys: np.ndarray, n: int, m: int, indptr: np.ndarray) -> np.ndarray:
    """Unpack sorted attr * n + vertex keys, in place, into vertex-major ids.

    The caller owns keys and gives them up: they are returned as the ids.
    They are packed into vertex * m + attr _RUN entries at a time, sorted in
    place once, on every CPU (_sort), and unpacked against the owners, so
    that only run-sized temporaries exist beside them.
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
    _sort(ids)
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


def _shared_entries(keys: np.ndarray, n: int):
    """The shared-attribute core's attribute side: (attr_vertices, starts).

    keys are an incidence's sorted attr * n + vertex keys, which are only
    read.  attr_vertices lists the holders of every attribute with two or
    more holders, attribute by attribute in increasing original id, each
    attribute's holders sorted; starts flags the first entry of each
    attribute.  The shared entries are marked in a one-byte mask, _RUN
    entries at a time, each run's attributes against the entries on either
    side of it, and copied out before anything else of their size is made.
    """
    total = keys.shape[0]
    # an entry is shared when its attribute is that of a neighbouring entry
    shared = np.empty(total, dtype=bool)
    for start in range(0, total, _RUN):
        stop = min(start + _RUN, total)
        lo, hi = max(start - 1, 0), min(stop + 1, total)
        attrs = keys[lo:hi] // n
        # same[j]: entries lo + j - 1 and lo + j hold the same attribute
        same = np.zeros(hi - lo + 1, dtype=bool)
        np.equal(attrs[1:], attrs[:-1], out=same[1:-1])
        shared[start:stop] = (same[:-1] | same[1:])[start - lo:stop - lo]
    core = keys[shared]
    del shared
    attrs = core // n
    starts = np.empty(core.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(attrs[1:], attrs[:-1], out=starts[1:])
    np.remainder(core, n, out=core)
    return core, starts


class BipartiteIncidence:
    """Every vertex's attribute set: its set sizes and its sorted keys.

    Attributes
    ----------
    n, m : int
        Vertex count and attribute pool size; n * m < PACK_LIMIT.
    set_indptr : (n+1,) int64
        Row pointer for per-vertex attribute lists.
    keys : int64
        Every entry as attr * n + vertex, sorted: what sample_incidence draws
        and from_flat packs.  Nothing else of the entries is held.
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

    @property
    def set_attrs(self) -> np.ndarray:
        return _vertex_major(self.keys.copy(), self.n, self.m, self.set_indptr)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_flat(cls, n: int, m: int, sizes: np.ndarray,
                  flat: np.ndarray) -> "BipartiteIncidence":
        """Build from concatenated per-vertex attribute lists.

        flat holds the lists back to back in vertex order; sizes gives each
        length.  Each list must be strictly increasing, which rules out
        repeats too.  Once checked, flat is packed in place into the keys
        (_attr_major): the caller gives it up, and an int64 flat is returned
        as the keys.
        """
        n = int(n)
        m = int(m)
        sizes = np.asarray(sizes, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        if sizes.shape != (n,):
            raise ValueError("sizes must have length n")
        set_indptr = _set_indptr(n, m, sizes)
        if set_indptr[-1] != flat.shape[0]:
            raise ValueError("sizes do not add up to the flat list length")
        if flat.size and (flat.min() < 0 or flat.max() >= m):
            raise ValueError("attribute ids must lie in [0, m)")

        # rises[i] compares flat[i + 1] with flat[i]; a new list may start low
        rises = flat[1:] > flat[:-1]
        starts = set_indptr[1:-1]
        rises[starts[(starts > 0) & (starts < flat.shape[0])] - 1] = True
        if not rises.all():
            i = int(np.argmin(rises)) + 1
            v = int(np.searchsorted(set_indptr, i, side="right")) - 1
            raise ValueError(f"vertex {v} lists attribute {flat[i]} after "
                             f"{flat[i - 1]}; each list must be strictly increasing")
        return cls(n, m, set_indptr, _attr_major(flat, n, set_indptr))

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


def _sorted_unique(keys: np.ndarray, kind=None, repeats=None) -> np.ndarray:
    """Sorted distinct values of a 1-d array, as np.unique returns them.

    Sorts keys in place, on every CPU (_sort) or, given a kind, with that
    np.sort kind, so callers pass an array they own and no longer need,
    then moves each entry that differs from its predecessor to the front of
    keys, _RUN entries at a time, and returns a view of that front.  Nothing
    of the input's length is allocated, and for large integer arrays this is
    far cheaper than numpy's hash-based np.unique.  When repeats is a list,
    each block's dropped entries are appended to it.
    """
    if kind is None:
        _sort(keys)
    else:
        keys.sort(kind=kind)
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


def sample_incidence(m: int, sizes: np.ndarray, rng: np.random.Generator) -> "BipartiteIncidence":
    """Sample every vertex's uniform subset, sizes[v] attributes each.

    Every vertex draws sizes[v] raw attributes, in vertex order, _RUN
    entries at a time, and so does each top-up round; numpy's bounded
    integers keep no state between calls, so the pieces consume the stream
    exactly as one rng.integers call of the full length would.  Each draw
    is packed as attr * n + vertex (_owners); the whole array is sorted in
    place once and _sorted_unique drops the repeats, which it hands back.
    Each vertex's shortfall is the count of its dropped keys.  A top-up
    round draws the shortfalls into the tail, short vertices in ascending
    order, and a stable sort merges the sorted front with that short tail
    before the repeats are dropped again.  Per vertex this keeps the first
    sizes[v] distinct values of an iid uniform stream, so the subsets are
    exactly uniform and mutually independent.  Returns an incidence whose
    keys are sorted and distinct.  A pool with n * m >= 2**62, where the
    packed keys would overflow int64, or a size outside [0, m] raises
    ValueError before anything is drawn (_set_indptr).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = sizes.shape[0]
    set_indptr = _set_indptr(n, int(m), sizes)
    total = int(set_indptr[-1])
    buf = np.empty(total, dtype=np.int64)
    for start in range(0, total, _RUN):
        block = buf[start:start + _RUN]
        np.multiply(rng.integers(0, m, size=block.shape[0], dtype=np.int64), n, out=block)
        block += _owners(set_indptr, start, start + block.shape[0])
    repeats = []
    keys = _sorted_unique(buf, repeats=repeats)
    while repeats:
        deficit = np.bincount(np.concatenate(repeats) % n, minlength=n)
        short = np.flatnonzero(deficit)
        tail = buf[keys.shape[0]:]
        tail[:] = np.repeat(short, deficit[short])
        for start in range(0, tail.shape[0], _RUN):
            block = tail[start:start + _RUN]
            block += rng.integers(0, m, size=block.shape[0], dtype=np.int64) * n
        repeats = []
        # a sorted front and a short tail: timsort merges them in one pass
        keys = _sorted_unique(buf, kind="stable", repeats=repeats)
    return BipartiteIncidence(n, m, set_indptr, buf)


def generate(params: ModelParams, rng: np.random.Generator):
    """Sample a full instance: weights first, then all attribute subsets.

    Returns (incidence, weights).  The rng is consumed in a fixed order
    (one weight batch, then the subset batch), so a given (params, seed)
    pair reproduces the instance bit for bit.  TraversalCore reads the
    incidence's keys; its vertex-major ids are sorted out of a copy of them
    at each read of set_attrs, or, by a caller that gives the keys up,
    unpacked over them in place (_vertex_major).
    """
    weights = sample_tilde_weights(params, rng)
    inc = sample_incidence(params.m, weights.sizes, rng)
    return inc, weights
