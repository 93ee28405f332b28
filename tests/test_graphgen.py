import hashlib
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigkit import graphgen
from rigkit.graphgen import (
    PACK_LIMIT,
    BipartiteIncidence,
    _sort,
    _sorted_unique,
    concat_ranges,
    generate,
    sample_incidence,
)
from rigkit.graphops import TraversalCore, neighbors
from rigkit.model import (ModelParams, default_attribute_count, sample_tilde_weights,
                          trial_rng)
from rigkit.storage import read_graph, write_graph

from oracles import (adjacency_matrix, explicit_sets, sample_incidence_reference,
                     sample_subset, shares_attribute, traversal_core_two_sorts)

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_concat_ranges_basic():
    indptr = np.array([0, 2, 2, 5])
    data = np.array([10, 11, 20, 21, 22])
    vals, lens = concat_ranges(indptr, data, np.array([2, 0]))
    assert vals.tolist() == [20, 21, 22, 10, 11]
    assert lens.tolist() == [3, 2]
    vals, lens = concat_ranges(indptr, data, np.array([1]))
    assert vals.shape == (0,)


def test_sample_subset_edges():
    rng = trial_rng(0, 0, 0)
    assert sample_subset(10, 0, rng).shape == (0,)
    full = sample_subset(10, 10, rng)
    assert full.tolist() == list(range(10))
    with pytest.raises(ValueError):
        sample_subset(10, 11, rng)
    with pytest.raises(ValueError):
        sample_subset(10, -1, rng)


def test_sample_subset_valid_draws():
    rng = trial_rng(5, 0, 0)
    for m, z in ((100, 3), (100, 50), (100, 97), (7, 4)):
        for _ in range(20):
            s = sample_subset(m, z, rng)
            assert s.shape == (z,)
            assert np.all(np.diff(s) > 0)  # sorted and distinct
            assert s[0] >= 0 and s[-1] < m


def test_sample_subset_uniform():
    # all C(4,2)=6 subsets equally likely; 3 sigma per cell, seeded
    rng = trial_rng(2024, 0, 0)
    counts = {}
    trials = 6000
    for _ in range(trials):
        key = tuple(sample_subset(4, 2, rng).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(combinations(range(4), 2))
    p = 1.0 / 6.0
    sigma = (trials * p * (1 - p)) ** 0.5
    for key, c in counts.items():
        assert abs(c - trials * p) <= 3 * sigma, (key, c)


def test_sample_incidence_matches_quota():
    rng = trial_rng(3, 0, 0)
    sizes = np.array([0, 1, 5, 17, 3])
    inc = sample_incidence(40, sizes, rng)
    assert np.array_equal(inc.sizes(), sizes)
    indptr, ids = inc.set_indptr, inc.set_attrs
    for v in range(5):
        s = ids[indptr[v]:indptr[v + 1]]
        assert np.all(np.diff(s) > 0)
        assert s.shape[0] == sizes[v]


def test_sample_incidence_row_uniformity():
    # with every size 2 over m=4, rows should be uniform over the 6 pairs
    rng = trial_rng(2025, 0, 0)
    n = 6000
    inc = sample_incidence(4, np.full(n, 2, dtype=np.int64), rng)
    counts = {}
    for key in map(tuple, inc.set_attrs.reshape(n, 2).tolist()):
        counts[key] = counts.get(key, 0) + 1
    p = 1.0 / 6.0
    sigma = (n * p * (1 - p)) ** 0.5
    for key, c in counts.items():
        assert abs(c - n * p) <= 3 * sigma, (key, c)


def test_sample_incidence_marginal_rate():
    # each attribute lands in a given vertex's set with probability z/m
    rng = trial_rng(77, 0, 0)
    n, m, z = 4000, 10, 3
    inc = sample_incidence(m, np.full(n, z, dtype=np.int64), rng)
    hits = np.bincount(inc.set_attrs, minlength=m)
    p = z / m
    sigma = (n * p * (1 - p)) ** 0.5
    assert np.all(np.abs(hits - n * p) <= 4 * sigma)


def test_sample_incidence_one_vertex_matches_reference():
    # one sparse vertex consumes the stream exactly as the reference does
    for m, z in ((50, 1), (50, 20), (1000, 500), (7, 3)):
        got = sample_incidence(m, np.array([z]), trial_rng(11, m, z)).set_attrs
        assert got.tolist() == sample_subset(m, z, trial_rng(11, m, z)).tolist()


def test_sample_incidence_rejects_packing_overflow():
    # n * m >= 2**62 would overflow the packed keys; the guard fires before
    # the 2**22 draws below are allocated or the stream is touched
    rng = trial_rng(0, 0, 0)
    state = rng.bit_generator.state
    sizes = np.full(4, 2**20, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*62"):
            sample_incidence(2**61, sizes, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("values", [
    [],
    [5],
    [3, 3, 3, 3],
    [0, 1, 2, 7],
    [9, 7, 7, 4, 1, 0],
    [PACK_LIMIT - 1, 0, PACK_LIMIT - 1, PACK_LIMIT - 2, 2**63 - 1, -2**63],
], ids=["empty", "single", "all-equal", "already-unique", "reverse-sorted",
        "extremes"])
def test_sorted_unique_cases(each_block, values):
    want = np.unique(np.array(values, dtype=np.int64))

    def check():
        got = _sorted_unique(np.array(values, dtype=np.int64))
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    each_block(check)


@PROPS
@given(st.lists(st.integers(0, 12) | st.integers(PACK_LIMIT - 12, PACK_LIMIT - 1)
                | st.integers(-2**63, 2**63 - 1), max_size=60))
def test_sorted_unique_matches_np_unique(each_block, values):
    want = np.unique(np.array(values, dtype=np.int64))

    def check():
        # the result is a view of the front of the sorted input
        keys = np.array(values, dtype=np.int64)
        got = _sorted_unique(keys)
        assert got.base is keys and got.tolist() == want.tolist()
    each_block(check)


@st.composite
def sort_inputs(draw):
    # numpy's partition sorts a part of up to 256 int64 entries whole, so
    # the split of a part that long is never seen: lengths up to 1200 let
    # both levels of each_block's 2 + 1 split sort their halves themselves
    length = draw(st.integers(0, 3) | st.integers(0, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1, 2, 5, None]))  # equal, repeats, distinct
    if span is None:
        keys = rng.integers(-2**63, 2**63 - 1, size=length, endpoint=True)
    else:
        keys = rng.integers(0, span, size=length)
    order = draw(st.sampled_from(["shuffled", "sorted", "reversed"]))
    if order != "shuffled":
        keys.sort()
    return keys[::-1].copy() if order == "reversed" else keys


@PROPS
@given(sort_inputs())
@example(np.array([], dtype=np.int64))
@example(np.array([5]))
@example(np.array([9, 4]))
@example(np.array([2, 7, 1]))
@example(np.full(601, 3))  # all equal
@example(np.repeat([2, 4, 4, 4, 6], 121))  # repeats of the median both sides
@example(np.arange(701))  # sorted
@example(np.arange(702, 0, -1))  # reversed
def test_sort_matches_np_sort(each_block, values):
    want = np.sort(values)

    def check():
        keys = values.astype(np.int64)
        _sort(keys)
        assert np.array_equal(keys, want)
    each_block(check)


def test_sort_raises_what_a_worker_thread_raised(monkeypatch):
    monkeypatch.setattr(graphgen, "_SPLIT", 2)
    monkeypatch.setattr(graphgen, "_cpus", lambda: 2)
    sort_part = graphgen._sort_part

    def failing_on_workers(part, cpus):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker thread")
        sort_part(part, cpus)
    monkeypatch.setattr(graphgen, "_sort_part", failing_on_workers)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker thread"):
        _sort(np.arange(10, dtype=np.int64)[::-1].copy())
    assert threading.active_count() == before  # joined before raising


@st.composite
def size_plans(draw):
    # tiny pools with sizes up to m need several top-up rounds; in a large
    # pool no draw repeats and nothing is topped up
    m = draw(st.integers(1, 40) | st.integers(10**6, 2**56))
    sizes = draw(st.lists(st.integers(0, min(m, 40)), max_size=25))
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return m, np.array([0] * lead + sizes + [0] * trail, dtype=np.int64)


@PROPS
@given(size_plans(), st.integers(0, 2**32 - 1))
@example((3, np.array([0, 3, 1, 3, 0])), 0)
@example((2**56, np.array([0, 0, 40, 1, 0])), 0)
# dense sets near m: several top-up rounds, each vertex short again
@example((6, np.array([6, 5, 6, 4, 6, 6])), 0)
@example((40, np.array([40, 39, 0, 40, 38])), 1)
# empty vertices only, around a set, and n = 1 with m = 1
@example((5, np.array([0, 0, 0])), 0)
@example((5, np.array([0, 0, 3, 0])), 0)
@example((1, np.array([1])), 0)
@example((1, np.array([0])), 0)
# a set longer than a default run, and empty vertices at a run's edges
@example((2**40, np.array([0, 3, 40000, 0, 5])), 0)
@example((2**40, np.array([30000, 2768, 0, 0, 5, 0])), 1)
@example((2**20, np.array([30000, 2768, 0, 0, 40, 0, 0])), 2)
# under each_block's runs of 5 and 16: edges at empty vertices, top-ups
@example((4, np.array([2, 3, 0, 0, 4, 1, 0, 3, 4, 0, 2])), 3)
def test_sample_incidence_matches_reference(each_block, plan, seed):
    m, sizes = plan
    n = sizes.shape[0]

    def check():
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        inc = sample_incidence(m, sizes, rng)
        indptr, attrs = sample_incidence_reference(m, sizes, ref_rng)
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
        assert np.array_equal(inc.keys, np.sort(attrs * n + np.repeat(
            np.arange(n, dtype=np.int64), sizes)))
        # the core reads the keys and leaves them as they were
        keys = inc.keys.copy()
        core = TraversalCore(inc)
        assert np.array_equal(inc.keys, keys)
        two_sorts = traversal_core_two_sorts(indptr, attrs)
        assert core.num_attrs == two_sorts["num_attrs"]
        for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
            assert np.array_equal(getattr(core, name), two_sorts[name]), name
        ids = inc.set_attrs
        assert np.array_equal(inc.set_indptr, indptr)
        assert np.array_equal(ids, attrs)
        assert inc.set_indptr.dtype == ids.dtype == np.int64
    each_block(check)
    # the sampler builds its incidence unchecked: from_flat validates it
    inc = sample_incidence(m, sizes, np.random.default_rng(seed))
    assert BipartiteIncidence.from_flat(n, m, sizes, inc.set_attrs) == inc


def test_sample_incidence_golden_1e5():
    # sha256 of set_indptr || set_attrs, and the next draw: fixed seeds must
    # keep reproducing the same graphs and streams bit for bit
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    for seed, digest, after in ((1, "f1b3605c9b5a3211", 2142831427617085177),
                                (7, "8c09a87da5765c9c", 592074099967024443)):
        rng = trial_rng(seed, n, 0)
        inc, _ = generate(params, rng)
        h = hashlib.sha256(inc.set_indptr.tobytes())
        h.update(inc.set_attrs.tobytes())
        assert h.hexdigest()[:16] == digest
        assert int(rng.integers(0, 2**62)) == after


def test_instance_build_memory():
    # Peak traced bytes, against the keys' own: the sampler draws into the
    # keys with run-sized temporaries and sorts them in place; the core
    # build only reads them, with a one-byte mask and its own int32 arrays
    # beside them, each int64 temporary freed once its int32 result exists
    # (an int64 core peaks at 0.58x); the vertex-major ids, the view's one
    # array of the keys' length, are packed, sorted and unpacked in place,
    # run by run.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    rng = trial_rng(1, n, 0)
    weights = sample_tilde_weights(params, rng)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        inc = sample_incidence(params.m, weights.sizes, rng)
        _, sampler_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base_core, _ = tracemalloc.get_traced_memory()
        core = TraversalCore(inc)
        _, core_peak = tracemalloc.get_traced_memory()
        del core
        tracemalloc.reset_peak()
        base_view, _ = tracemalloc.get_traced_memory()
        inc.set_attrs
        _, view_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = inc.keys.nbytes
    assert sampler_peak - base <= 1.5 * size
    assert sampler_peak - base <= 1.15 * size
    assert sampler_peak - base <= 1.08 * size  # 1.05x measured
    assert core_peak - base_core <= 1.75 * size
    assert core_peak - base_core <= 0.65 * size
    assert core_peak - base_core <= 0.35 * size  # 0.29x measured
    assert view_peak - base_view <= 1.1 * size  # 1.03x measured


def test_core_build_memory(tmp_path):
    # Peak traced bytes of reading an n = 1e5 binary graph file and building
    # its core, against the ids' bytes: the reader packs the one array of
    # ids it reads into the keys in place, and the core build only reads
    # them, into an int32 core (an int64 core peaks at 1.60x).  Packing a
    # second, incidence-length array of keys beside the ids would add 1.0x.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, _ = generate(params, trial_rng(1, n, 0))
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    size = inc.keys.nbytes
    del inc
    tracemalloc.start()
    try:
        TraversalCore(read_graph(path)[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.65 * size
    assert peak <= 1.38 * size  # 1.31x measured


def test_from_flat_validation():
    with pytest.raises(ValueError):  # sizes do not sum to flat length
        BipartiteIncidence.from_flat(2, 5, np.array([1, 1]), np.array([0]))
    with pytest.raises(ValueError):  # attr out of range
        BipartiteIncidence.from_flat(1, 5, np.array([1]), np.array([5]))
    with pytest.raises(ValueError):  # negative attr
        BipartiteIncidence.from_flat(1, 5, np.array([1]), np.array([-1]))
    with pytest.raises(ValueError):  # duplicate attr within a vertex
        BipartiteIncidence.from_flat(1, 5, np.array([2]), np.array([3, 3]))
    with pytest.raises(ValueError):  # size above m
        BipartiteIncidence.from_flat(1, 2, np.array([3]), np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="2\\*\\*62"):  # n * m overflows keys
        BipartiteIncidence.from_flat(2, 2**61, np.array([0, 0]),
                                     np.empty(0, dtype=np.int64))


def test_from_flat_rejects_unsorted_from_sets_sorts():
    with pytest.raises(ValueError, match="vertex 0 lists attribute 0 after 4"):
        BipartiteIncidence.from_flat(2, 6, np.array([3, 2]),
                                     np.array([4, 0, 2, 5, 1]))
    # a new vertex's list may start below the previous list's last id
    a = BipartiteIncidence.from_flat(2, 6, np.array([3, 2]),
                                     np.array([0, 2, 4, 1, 5]))
    b = BipartiteIncidence.from_sets(2, 6, [[4, 0, 2], [5, 1]])
    assert a == b
    assert a.set_attrs.tolist() == [0, 2, 4, 1, 5]


def test_from_sets_and_inverted_index():
    inc = BipartiteIncidence.from_sets(3, 100, [[7, 50], [50], []])
    assert _sorted_unique(inc.set_attrs.copy()).tolist() == [7, 50]
    assert inc.total_incidence == 3
    assert inc.sizes()[2] == 0


def test_adjacent_and_neighbors_against_brute_force(medium_instance):
    params, inc, w = medium_instance
    adj = adjacency_matrix(inc)
    indptr, ids = inc.set_indptr, inc.set_attrs
    rng = trial_rng(123, 0, 0)
    for _ in range(400):
        u, v = rng.choice(params.n, size=2, replace=False)
        assert shares_attribute(indptr, ids, int(u), int(v)) == bool(adj[u, v])
    core = TraversalCore(inc)
    for u in range(0, params.n, 10):
        assert neighbors(core, u).tolist() == np.flatnonzero(adj[u]).tolist()


def test_empty_set_is_isolated():
    inc = BipartiteIncidence.from_sets(3, 9, [[], [1, 2], [2]])
    assert neighbors(TraversalCore(inc), 0).shape == (0,)
    indptr, ids = inc.set_indptr, inc.set_attrs
    assert not shares_attribute(indptr, ids, 0, 1)
    assert shares_attribute(indptr, ids, 1, 2)


def test_generate_determinism():
    params = ModelParams(n=400, m=3000, alpha=0.8, c0=1.0)
    inc1, w1 = generate(params, trial_rng(9, 400, 0))
    inc2, w2 = generate(params, trial_rng(9, 400, 0))
    assert inc1 == inc2
    assert np.array_equal(w1.tilde_z, w2.tilde_z)
    # incidence rows realize the sampled sizes
    assert np.array_equal(inc1.sizes(), w1.sizes)


def test_generate_respects_m_cap():
    # m < typical sizes forces the cap; sets stay valid subsets
    params = ModelParams(n=50, m=50, alpha=0.5, c0=5.0)
    inc, w = generate(params, trial_rng(1, 50, 0))
    assert np.all(w.sizes <= 50)
    assert explicit_sets(inc)  # structure is well formed
