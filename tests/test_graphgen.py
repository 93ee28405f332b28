import hashlib
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
    _sorted_unique,
    concat_ranges,
    generate,
    sample_incidence,
)
from rigkit.graphops import TraversalCore, neighbors
from rigkit.model import (ModelParams, default_attribute_count, sample_tilde_weights,
                          trial_rng)
from rigkit.storage import read_graph, write_graph

from cores import core_of
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
        core = core_of(inc)
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


def test_top_up_rounds_cost_their_shortfall(monkeypatch):
    # sets of the whole pool or nearly so need hundreds of top-up rounds,
    # and each round works on its own draws: however many rounds run, the
    # whole buffer is sorted at most twice, once after the first draws
    # (in _sorted_unique, which compacts it) and once to merge the
    # topped-up keys into them (_merge)
    m = 300
    sizes = np.array([300, 290, 150, 40, 0, 300, 5] * 3)
    total = int(sizes.sum())
    whole, draws = [], []

    def counting(name, fn):
        def call(keys, *args, **kwargs):
            if keys.shape[0] == total:
                whole.append(name)
            return fn(keys, *args, **kwargs)
        return call
    for name in ("_merge", "_sorted_unique"):
        monkeypatch.setattr(graphgen, name, counting(name, getattr(graphgen, name)))

    class Stream:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, *args, **kwargs):
            draws.append(kwargs["size"])
            return self.rng.integers(*args, **kwargs)

    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    inc = sample_incidence(m, sizes, Stream(rng))
    indptr, attrs = sample_incidence_reference(m, sizes, ref_rng)
    assert draws[0] == total and len(draws) > 300  # one first draw, then the rounds
    assert whole.count("_sorted_unique") == 1
    assert whole.count("_merge") <= 1
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
    assert np.array_equal(inc.set_indptr, indptr)
    assert np.array_equal(inc.set_attrs, attrs)


# small pools with sets up to m need top-up rounds; a large pool with a
# small c0 keeps most entries private
POOLS = (st.tuples(st.integers(1, 60), st.floats(1.0, 20.0))
         | st.tuples(st.integers(1000, 5000), st.floats(1.0, 2.0)))


@settings(PROPS, max_examples=60)
@given(st.integers(1, 30), POOLS, st.sampled_from([0.5, 0.8]), st.integers(0, 2**32 - 1))
# a top-up draw makes both first-round private attributes shared
# (test_keep_core_keeps_what_a_top_up_shares)
@example(2, (2, 2.0), 0.5, 1)
@example(1, (5, 3.0), 0.8, 0)  # one vertex: nothing is shared
@example(30, (5000, 1.0), 0.8, 0)  # a sparse pool: few shared entries
def test_keep_core_keeps_the_shared_entries(each_block, n, pool, alpha, seed):
    # keep_core shrinks the sampler's instance to exactly the shared entries
    # of the full one, sorted, with each vertex's core size, and the
    # traversal core built from it has the arrays of the two-sort formula
    # on the full instance
    m, c0 = pool
    params = ModelParams(n=n, m=m, alpha=alpha, c0=c0)

    def check():
        inc, _ = generate(params, np.random.default_rng(seed))
        full, _ = generate(params, np.random.default_rng(seed))
        inc.keep_core()
        assert inc.core_only and not full.core_only
        assert (inc.n, inc.m) == (full.n, full.m)
        _, holders = np.unique(inc.keys // n, return_counts=True)
        assert np.all(holders >= 2)
        _, which, holders = np.unique(full.keys // n, return_inverse=True, return_counts=True)
        want = full.keys[holders[which] >= 2]
        assert np.array_equal(inc.keys, want)
        assert np.array_equal(inc.sizes(), np.bincount(want % n, minlength=n))
        assert inc.keys.dtype == inc.set_indptr.dtype == np.int64
        core = TraversalCore(inc)
        two_sorts = traversal_core_two_sorts(full.set_indptr, full.set_attrs)
        assert core.num_attrs == two_sorts["num_attrs"]
        for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
            assert np.array_equal(getattr(core, name), two_sorts[name]), name
        assert np.array_equal(core.set_sizes, np.diff(two_sorts["set_indptr"]))
    each_block(check)


def test_keep_core_keeps_what_a_top_up_shares():
    # n = 2 over m = 2, both sets of size 2: the first draws give each vertex
    # one attribute of its own, and the top-up round gives each the other's
    params = ModelParams(n=2, m=2, alpha=0.5, c0=2.0)
    rng = np.random.default_rng(1)
    sizes = sample_tilde_weights(params, rng).sizes
    first = np.unique(rng.integers(0, 2, size=int(sizes.sum())) * 2 + np.repeat([0, 1], sizes))
    attrs, holders = np.unique(first // 2, return_counts=True)
    assert sizes.tolist() == [2, 2] and attrs[holders == 1].tolist() == [0, 1]
    inc, _ = generate(params, np.random.default_rng(1))
    inc.keep_core()
    assert inc.keys.tolist() == [0, 1, 2, 3] and inc.sizes().tolist() == [2, 2]


def test_keep_core_of_a_core_only_instance_changes_nothing(each_block):
    # every entry of a core-only instance is shared, so shrinking it again
    # keeps its keys, its set sizes and its flag
    n = 300
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)

    def check():
        inc, _ = generate(params, trial_rng(2, n, 0))
        total = inc.total_incidence
        inc.keep_core()
        keys, indptr = inc.keys.copy(), inc.set_indptr.copy()
        assert 0 < keys.shape[0] < total
        inc.keep_core()
        assert inc.core_only
        assert np.array_equal(inc.keys, keys) and np.array_equal(inc.set_indptr, indptr)
    each_block(check)


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
    # Peak traced bytes, each step in its own window: the sampler draws
    # into the keys with run-sized temporaries and sorts them in place; the
    # vertex-major ids, the view's one array of the keys' length, are
    # packed, sorted and unpacked in place, run by run; keep_core moves the
    # shared entries to the front of the keys, run by run, and shrinks them
    # in place; the core build reads those 12% of the keys into its own
    # int32 arrays, each int64 temporary freed once its int32 result
    # exists.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    rng = trial_rng(1, n, 0)
    weights = sample_tilde_weights(params, rng)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        inc = sample_incidence(params.m, weights.sizes, rng)
        _, sampler_peak = tracemalloc.get_traced_memory()
        size = inc.keys.nbytes
        tracemalloc.reset_peak()
        base_view, _ = tracemalloc.get_traced_memory()
        inc.set_attrs
        _, view_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base_keep, _ = tracemalloc.get_traced_memory()
        inc.keep_core()
        _, keep_peak = tracemalloc.get_traced_memory()
        core_size = inc.keys.nbytes
        tracemalloc.reset_peak()
        base_core, _ = tracemalloc.get_traced_memory()
        core = TraversalCore(inc)
        _, core_peak = tracemalloc.get_traced_memory()
        del core
    finally:
        tracemalloc.stop()
    assert sampler_peak - base <= 1.5 * size
    assert sampler_peak - base <= 1.15 * size
    assert sampler_peak - base <= 1.08 * size  # 1.05x measured
    assert view_peak - base_view <= 1.1 * size  # 1.03x measured
    assert keep_peak - base_keep <= 0.03 * size  # 0.011x measured
    assert core_peak - base_core <= 1.75 * size
    assert core_peak - base_core <= 0.65 * size
    assert core_peak - base_core <= 0.35 * size  # 0.28x measured
    # the same peak against the core-only keys it is built from
    assert core_peak - base_core <= 2.5 * core_size  # 2.37x measured


def test_core_build_memory(tmp_path):
    # Peak traced bytes of reading an n = 1e5 binary graph file, shrinking
    # its instance in place to its shared entries (keep_core) and building
    # its core, against the ids' bytes: the reader packs the one array of
    # ids it reads into the keys in place (packing a second,
    # incidence-length array of keys beside the ids would add 1.0x), and
    # the core is built beside 12% of the keys, so the read itself, the ids
    # with two n-length arrays, is the peak.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, _ = generate(params, trial_rng(1, n, 0))
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    size = inc.keys.nbytes
    del inc
    tracemalloc.start()
    try:
        inc = read_graph(path)[0]
        inc.keep_core()
        TraversalCore(inc)
        del inc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.07 * size  # 1.059x measured


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


def test_from_flat_names_the_first_order_fault_across_runs(each_block):
    # the order check walks runs of _RUN ids, each run's first id compared
    # with the last id of the run before: a fault at any position, run
    # boundaries included, names its vertex and both ids, as one pass over
    # the whole array did, and a later fault is not named; a list may start
    # below the one before it, on a boundary or not
    sizes = np.array([4, 0, 7, 1, 6, 0, 0, 9, 5])
    n, m = sizes.shape[0], 100
    good = np.concatenate([1 + v + 3 * np.arange(s) for v, s in enumerate(sizes)])
    firsts = set(np.cumsum(sizes).tolist())
    owner = np.repeat(np.arange(n), sizes)
    want = BipartiteIncidence.from_sets(n, m, np.split(good, np.cumsum(sizes)[:-1]))

    def check_good():
        assert BipartiteIncidence.from_flat(n, m, sizes, good.copy()) == want
    each_block(check_good)
    for i in range(1, good.shape[0]):
        if i in firsts:
            continue
        flat = good.copy()
        flat[i] = flat[i - 1] - (i % 2)  # a repeat or a drop
        flat[-1] = flat[-2]  # a later fault
        message = (f"^vertex {owner[i]} lists attribute {flat[i]} after {flat[i - 1]}; "
                   "each list must be strictly increasing$")

        def check():
            with pytest.raises(ValueError, match=message):
                BipartiteIncidence.from_flat(n, m, sizes, flat.copy())
        each_block(check)


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
    core = core_of(inc)
    for u in range(0, params.n, 10):
        assert neighbors(core, u).tolist() == np.flatnonzero(adj[u]).tolist()


def test_empty_set_is_isolated():
    inc = BipartiteIncidence.from_sets(3, 9, [[], [1, 2], [2]])
    assert neighbors(core_of(inc), 0).shape == (0,)
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
