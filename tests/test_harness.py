import concurrent.futures
import gc
import json
import math
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigkit import cli, graphgen, harness, report_schema
from rigkit.graphgen import BipartiteIncidence
from rigkit.graphops import UNREACHED, TraversalCore, distances_from
from rigkit.harness import ConfigError, ExperimentConfig
from rigkit.model import (ModelParams, default_attribute_count, iterated_log, realized_weights,
                          trial_rng)
from rigkit.storage import file_checksum, read_graph, write_graph

from oracles import (adjacency_matrix, component_labels_bfs, pair_hops_python,
                     traversal_core_two_sorts)
from test_benchmark_hooks import load_perfbench

jsonschema = pytest.importorskip("jsonschema")


def cfg_with(tmp_path, **kw):
    base = dict(n_values=[300], trials=1, pairs_per_trial=5, seed=5,
                out_dir=str(tmp_path))
    base.update(kw)
    return ExperimentConfig(**base)


# --- configuration -----------------------------------------------------------


def test_config_validation_catalogue(tmp_path):
    bad = [
        dict(n_values=[]),
        dict(n_values=[1]),
        dict(n_values=[2.5]),
        dict(n_values=[100], alpha=1.0),
        dict(n_values=[100], alpha=0.0),
        dict(n_values=[100], c0=0.0),
        dict(n_values=[100], epsilon=0.0),
        dict(n_values=[100], pairs_per_trial=0),
        dict(n_values=[100], trials=0),
        dict(n_values=[100], seed=-1),
        dict(n_values=[100], threads=0),
        dict(n_values=[100], format="xml"),
        dict(n_values=[100], graph_format="hdf5"),
        dict(n_values=[100], m=50),
        dict(n_values=[100], hub_samples_per_trial=0),
        # wrong types, non-finite numbers, out-of-range integers
        dict(n_values=[100], seed=1.5),
        dict(n_values=[100], seed=True),
        dict(n_values=[100], seed=2**64),
        dict(n_values=[100], trials=True),
        dict(n_values=[100], pairs_per_trial=2.5),
        dict(n_values=[100], pairs_per_trial="4"),
        dict(n_values=[100], m=1e7),
        dict(n_values=[100], m=2**63),
        dict(n_values=[100], epsilon=math.nan),
        dict(n_values=[100], c0=math.inf),
        dict(n_values=[100], c0=1e308),   # c0^(1+alpha) overflows
        dict(n_values=[100], c0=1e-300),  # c0^(1+alpha) underflows to 0
        dict(n_values=[100], alpha="0.5"),
        dict(n_values=[100], hub_floor=1.0),
        dict(n_values=[100], hub_floor=math.nan),
        dict(n_values=[True]),
        dict(n_values=[math.inf]),
        dict(n_values="100"),
        dict(n_values=[2**40]),           # n * m beyond the sampler's int64 keys
        dict(n_values=[100], out_dir=5),
        dict(n_values=[100], overlap_point=[40, 16, 100]),
        dict(n_values=[100], verify_m_values=[100.5]),
        dict(n_values=[100], coverage_gamma1=0.5),
        dict(n_values=[100], mass_trials=1),
        dict(n_values=[300, 300]),        # each (n, trial) cell counted twice
        dict(n_values=[1000.0, 1000]),    # the same n once normalised
        # ladders past MAX_RUNGS: 15,408 and 70,402 rungs
        dict(n_values=[20000], alpha=0.999, hub_floor=1.000001),
        dict(n_values=[300, 20000], alpha=1 - 1e-6),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw)


def test_config_normalises_integral_n():
    cfg = ExperimentConfig(n_values=[1e3, 300.0, 50])
    assert cfg.n_values == [1000, 300, 50]
    assert all(type(n) is int for n in cfg.n_values)


def test_config_defaults_and_derived():
    cfg = ExperimentConfig(n_values=[1000])
    assert cfg.m_for(1000) == default_attribute_count(1000)
    assert cfg.epsilon == 1.0
    l2n = iterated_log(1000)
    params = cfg.params_for(1000)
    assert cfg.pair_bound(params) == pytest.approx(3.0 * l2n / math.log(1.0 / cfg.alpha))
    assert cfg.hub_bound(params) == pytest.approx(2.0 * l2n / math.log(1.0 / cfg.alpha))
    assert cfg.hub_samples() == cfg.pairs_per_trial
    cfg2 = ExperimentConfig(n_values=[1000], m=5000, hub_samples_per_trial=7)
    assert cfg2.m_for(1000) == 5000
    assert cfg2.hub_samples() == 7


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_values": [200], "alpha": 0.5, "seed": 9}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.n_values == [200] and cfg.alpha == 0.5 and cfg.seed == 9

    path.write_text(json.dumps({"n_values": [200], "bogus_knob": 1}))
    with pytest.raises(ConfigError, match="bogus_knob"):
        ExperimentConfig.from_json(path)

    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)

    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(tmp_path / "missing.json")


# --- generate ----------------------------------------------------------------


def test_run_generate_round_trip(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[150], trials=2)
    metas = harness.run_generate(cfg)
    assert len(metas) == 2
    for meta in metas:
        path = os.path.join(cfg.out_dir, meta["path"])
        assert os.path.exists(path)
        assert meta["sha256"] == file_checksum(path)
        from rigkit.storage import read_graph

        inc, params, _ = read_graph(path)
        assert params.n == 150
        assert inc.total_incidence == meta["incidence"]
        assert meta["occupied_attrs"] == len(set(inc.set_attrs.tolist()))
        jsonschema.validate(meta, report_schema())


def test_run_generate_rerun_identical(tmp_path):
    cfg1 = cfg_with(tmp_path / "a", n_values=[150])
    cfg2 = cfg_with(tmp_path / "b", n_values=[150])
    m1 = harness.run_generate(cfg1)
    m2 = harness.run_generate(cfg2)
    assert [m["sha256"] for m in m1] == [m["sha256"] for m in m2]


def test_run_generate_writes_the_generated_instance(tmp_path):
    # the file reads back as the instance that generate draws from the same
    # stream, and the reader packs it into the same sorted keys
    cfg = cfg_with(tmp_path, n_values=[150])
    want, _ = graphgen.generate(cfg.params_for(150), trial_rng(cfg.seed, 150, 0))
    meta, = harness.run_generate(cfg)
    got = read_graph(os.path.join(cfg.out_dir, meta["path"]))[0]
    assert np.array_equal(got.keys, want.keys)
    assert got == want


def test_run_generate_unpacks_the_keys_in_place(tmp_path, monkeypatch):
    # once the sidecar has counted the keys, the file's vertex-major view is
    # unpacked over them with run-sized temporaries; a second array of their
    # length would add 1.0x
    n = 100_000
    cfg = cfg_with(tmp_path, n_values=[n])
    params = cfg.params_for(n)
    want = graphgen.generate(params, trial_rng(cfg.seed, n, 0))[0].set_attrs
    inc, weights = graphgen.generate(params, trial_rng(cfg.seed, n, 0))
    keys = inc.keys
    monkeypatch.setattr(graphgen, "generate", lambda params, rng: (inc, weights))
    written = {}

    def write_graph(path, m, set_indptr, ids, *args, **kwargs):
        written["peak"] = tracemalloc.get_traced_memory()[1]
        written["ids"] = ids
        open(path, "wb").close()
    monkeypatch.setattr(harness.storage, "write_graph", write_graph)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        meta, = harness.run_generate(cfg)
    finally:
        tracemalloc.stop()
    assert written["ids"] is keys
    assert np.array_equal(keys, want)
    assert meta["occupied_attrs"] == np.unique(want).shape[0]
    assert written["peak"] - base <= 0.1 * keys.nbytes


def test_run_generate_minimal_n(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[2])
    metas = harness.run_generate(cfg)
    assert len(metas) == 1


def test_run_generate_json_format(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[50], graph_format="json")
    metas = harness.run_generate(cfg)
    assert metas[0]["path"].endswith(".json")


@pytest.mark.parametrize("fmt", ["binary", "json"])
def test_file_trial_core_matches_two_sort_formula(tmp_path, fmt):
    # the core a Trial builds from either graph file, whose instance it
    # shrinks to the shared entries first, has the arrays of the two
    # full-length packed sorts on the full incidence read from that file;
    # its weights come from the full sizes, and distances_from(u_max) gives
    # scipy's breadth-first hops on the star graph of the full incidence
    cfg = cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, graph_format=fmt)
    path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])
    inc = read_graph(path)[0]
    want = traversal_core_two_sorts(inc.set_indptr, inc.set_attrs)
    t = harness.Trial.from_file(cfg, path, 0)
    assert t.core.num_attrs == want["num_attrs"] > 0
    for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
        assert np.array_equal(getattr(t.core, name), want[name]), name
    assert np.array_equal(t.core.set_sizes, np.diff(want["set_indptr"]))
    assert np.array_equal(t.weights.sizes, inc.sizes())
    checks = load_perfbench("checks")
    u_max = t.dec.u_max
    hops = checks.hops_from(checks.star_graph(inc), u_max, range(inc.n))
    got = distances_from(t.core, u_max)
    assert got.tolist() == [UNREACHED if h is None else h for h in hops]
    assert np.count_nonzero(got > 1) > 0


def test_trials_under_a_trace_or_profile_function(tmp_path):
    # a trace or profile function holds a reference to the keys while the
    # shrink to the shared entries resizes them, which numpy refuses: the
    # kept entries are copied out instead, so both constructors work under
    # a tracer, a profiler or a debugger and give the cores they give
    # without one
    cfg = cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1)
    path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])

    def cores():
        return [harness.Trial.generated(cfg, 2000, 0).core,
                harness.Trial.from_file(cfg, path, 0).core]

    def ignore(frame, event, arg):
        return ignore

    want = cores()
    for set_hook, get_hook in ((sys.settrace, sys.gettrace), (sys.setprofile, sys.getprofile)):
        before = get_hook()
        set_hook(ignore)
        try:
            got = cores()
        finally:
            set_hook(before)
        for core, ref in zip(got, want):
            assert core.num_attrs == ref.num_attrs
            for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs",
                         "set_sizes"):
                assert np.array_equal(getattr(core, name), getattr(ref, name)), name


def test_trial_keeps_one_core_from_either_graph_file(tmp_path):
    # a generated instance and its binary and rig-json files give cores with
    # equal arrays, and the two files the same pairs and hub samples; no
    # Trial keeps the incidence that its core was built from
    trials = [harness.Trial.generated(cfg_with(tmp_path, n_values=[2000], hub_floor=20.0),
                                      2000, 0)]
    for fmt in ("binary", "json"):
        cfg = cfg_with(tmp_path / fmt, n_values=[2000], hub_floor=20.0, graph_format=fmt)
        path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])
        trials.append(harness.Trial.from_file(cfg, path, 0))
    for t in trials:
        assert not hasattr(t, "inc")
        assert not any(isinstance(value, BipartiteIncidence) for value in vars(t).values())
        assert isinstance(t.core, TraversalCore)
        assert t.core.num_attrs == trials[0].core.num_attrs
        for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs", "set_sizes"):
            assert np.array_equal(getattr(t.core, name), getattr(trials[0].core, name)), name
        assert np.array_equal(t.comp.labels, trials[0].comp.labels)
    binary, text = trials[1:]
    sampled, fixed = binary.pairs(30)
    assert len(sampled) == 30 and (sampled, fixed) == text.pairs(30)
    degenerate, error, samples = binary.hub_samples(30)
    assert error is None and len(samples) == 30
    assert (degenerate, error, samples) == text.hub_samples(30)


def test_trial_leaves_the_complete_ball_of_u_max(tmp_path, monkeypatch):
    # components runs the hub BFS, so the core's ball is the complete ball
    # of {u_max}, and distances_from(u_max) in hub_samples only copies it
    from rigkit import graphops

    cfg = cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1)
    path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])
    adj = adjacency_matrix(read_graph(path)[0])
    trials = [harness.Trial.generated(cfg, 2000, 0), harness.Trial.from_file(cfg, path, 0)]
    monkeypatch.setattr(graphops._TargetBall, "expand", None)  # a call raises TypeError
    for t in trials:
        u_max = t.dec.u_max
        want = pair_hops_python(adj, u_max)
        ball = t.core.ball
        assert ball.sources.tolist() == [u_max] and ball.frontier.size == 0
        assert np.array_equal(ball.dist, want)
        assert np.array_equal(graphops.distances_from(t.core, u_max), want)



def test_trial_core_is_freed_by_reference_counting(tmp_path):
    # the core owns its target ball and the ball keeps no reference back to
    # it, so a dropped Trial frees its core at once, with the cyclic
    # collector off: a serial experiment holds no finished cell's core
    cfg = cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1)
    t = harness.Trial.generated(cfg, 2000, 0)
    t.pairs(5)
    t.hub_samples(5)
    core = weakref.ref(t.core)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del t
        assert core() is None
    finally:
        if enabled:
            gc.enable()


def test_trial_gives_up_its_incidence_before_components(tmp_path, monkeypatch):
    # each constructor drops its own reference to the incidence once the
    # core is built, so with the cyclic collector off the keys are freed
    # before the components are labelled; the incidence is only the
    # constructors' to drop, so a caller that holds it keeps it
    cfg = cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1)
    path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])
    keys, alive = [], []

    def keeping_a_weakref(fn):
        def call(*args):
            out = fn(*args)
            keys.append(weakref.ref(out[0].keys))
            return out
        return call

    def components(core, root):
        alive.append(keys[-1]() is not None)
        return graphops_components(core, root)

    graphops_components = harness.components
    monkeypatch.setattr(harness, "generate", keeping_a_weakref(harness.generate))
    monkeypatch.setattr(harness.storage, "read_graph",
                        keeping_a_weakref(harness.storage.read_graph))
    monkeypatch.setattr(harness, "components", components)
    enabled = gc.isenabled()
    gc.disable()
    try:
        harness.Trial.generated(cfg, 2000, 0)
        harness.Trial.from_file(cfg, path, 0)
    finally:
        if enabled:
            gc.enable()
    assert len(keys) == 2 and alive == [False, False]


def test_generated_instance_is_core_only_1e5():
    # a trial's instance, harness.generate's shrunk as Trial.generated
    # shrinks it, holds only the shared entries of the full one: they are
    # moved to the front of the sampler's keys and the keys shrunk to them
    # in place (keep_core), so the core is built from 12% of the entries
    # and the traced peak of sampling, shrinking and the core build is the
    # sampler's own, against the full keys' bytes.  With the full keys kept
    # through the build it was 1.36x.  The core has the arrays of the
    # two-sort formula on the full instance.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    full, _ = graphgen.generate(params, trial_rng(1, n, 0))
    size = full.keys.nbytes
    want = traversal_core_two_sorts(full.set_indptr, full.set_attrs)
    del full
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        inc, _ = harness.generate(params, trial_rng(1, n, 0))
        inc.keep_core()
        core = TraversalCore(inc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inc.keys.shape[0] == inc.total_incidence == 474_271
    assert peak - base <= 1.10 * size  # 1.08x measured
    assert core.num_attrs == want["num_attrs"]
    for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
        assert np.array_equal(getattr(core, name), want[name]), name


def test_file_trial_weights_its_full_sizes_after_the_shrink_1e5(tmp_path):
    # Trial.from_file takes the full sizes of the instance it reads from
    # its full row pointer, which keep_core leaves as it is, and makes
    # their float weights only once the instance is shrunk to its shared
    # entries and the core is built, so the traced peak of the whole
    # constructor is the reader's, against the ids' bytes.  With the
    # weights made before the shrink it was 1.086x, and with the size
    # words read into an array beside the row pointer, 1.068x.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, _ = graphgen.generate(params, trial_rng(1, n, 0))
    path = str(tmp_path / "g.rig")
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    size, sizes = inc.keys.nbytes, inc.sizes()
    del inc
    cfg = cfg_with(tmp_path, n_values=[n])
    tracemalloc.start()
    try:
        t = harness.Trial.from_file(cfg, path, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * size  # 1.043x measured
    want = realized_weights(params, sizes)
    assert t.weights.sizes.dtype == np.int64 and t.weights.tilde_z.dtype == np.float64
    assert t.weights.sizes.tobytes() == want.sizes.tobytes()
    assert t.weights.tilde_z.tobytes() == want.tilde_z.tobytes()


# the apex, vertex 3, holds only attributes of its own: it is isolated, and
# the giant is {0, 1, 2}; scripts/same_output_sweep.py runs the same graph
ISOLATED_APEX_SETS = [[0], [0, 1], [1], [10, 11, 12, 13, 14, 15], [2], [2], [3], []]


def test_isolated_apex_graph_file(tmp_path):
    inc = BipartiteIncidence.from_sets(8, 20, ISOLATED_APEX_SETS)
    path = str(tmp_path / "isolated-apex.rig")
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, alpha=0.8, c0=1.0, seed=3)
    cfg = cfg_with(tmp_path, n_values=[8])
    t = harness.Trial.from_file(cfg, path, 0)
    assert t.dec.u_max == 3 and t.u_max_in_giant is False
    assert np.array_equal(t.comp.labels, component_labels_bfs(adjacency_matrix(inc)))
    analyze = harness.run_analyze(cfg, t)
    assert (analyze["u_max"], analyze["components"], analyze["giant_size"]) == (3, 5, 3)
    hub = harness.run_hubpath(cfg, t)
    assert hub["u_max"] == 3 and hub["u_max_in_giant"] is False
    assert all(s["v"] == 3 or s["exact"] is None for s in hub["samples"])
    jsonschema.validate(analyze, report_schema())
    jsonschema.validate(hub, report_schema())


def test_file_trial_draws_from_the_config_seed(tmp_path):
    # a graph file supplies the instance and the seed its report carries;
    # the config supplies the stream, trial_rng(cfg.seed, file n, trial),
    # whatever its n_values
    made = cfg_with(tmp_path / "made", n_values=[300], seed=1)
    path = os.path.join(made.out_dir, harness.run_generate(made)[0]["path"])
    cfg = cfg_with(tmp_path, n_values=[1000], seed=2)
    t = harness.Trial.from_file(cfg, path, 3)
    header = t.header("distances")
    assert (header["seed"], header["n"]) == (1, 300)
    assert np.array_equal(t.rng.random(8), trial_rng(2, 300, 3).random(8))


# --- distances ---------------------------------------------------------------


def complete_overlap_graph(tmp_path, n=8, hub_size=1):
    """Every vertex holds attribute 0: the intersection graph is complete.

    hub_size > 1 pads vertex 0 with extra attributes so it clears the hub
    threshold at this scale.
    """
    sets = [list(range(hub_size))] + [[0]] * (n - 1)
    inc = BipartiteIncidence.from_sets(n, 10, sets)
    path = str(tmp_path / "complete.rig")
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, alpha=0.8, c0=1.0, seed=3)
    return path


def test_run_distances_complete_graph(tmp_path):
    path = complete_overlap_graph(tmp_path)
    cfg = cfg_with(tmp_path, n_values=[8], pairs_per_trial=12)
    frag = harness.run_distances(cfg, harness.Trial.from_file(cfg, path, 0))
    assert frag["empty"] is False
    assert [p["hops"] for p in frag["pairs"]] == [1] * 12
    assert frag["pass_rate"] == 1.0
    assert frag["fixed_pair"]["both_in_giant"] is True
    assert frag["fixed_pair"]["hops"] == 1
    assert frag["fixed_pair"]["pass"] is True
    jsonschema.validate(frag, report_schema())


def test_run_distances_huge_epsilon(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[300], epsilon=1000.0, pairs_per_trial=10)
    frag = harness.run_distances(cfg, harness.Trial.generated(cfg, 300, 0))
    assert frag["pass_rate"] == 1.0


def test_run_distances_empty_giant(tmp_path):
    inc = BipartiteIncidence.from_sets(5, 10, [[0], [1], [2], [3], [4]])
    path = str(tmp_path / "isolated.rig")
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, alpha=0.8, c0=1.0, seed=3)
    cfg = cfg_with(tmp_path, n_values=[5])
    frag = harness.run_distances(cfg, harness.Trial.from_file(cfg, path, 0))
    assert frag["empty"] is True
    assert frag["pairs"] == [] and frag["pass_rate"] is None
    jsonschema.validate(frag, report_schema())


def test_run_distances_seeded_golden(tmp_path):
    # frozen reference: cfg(n=300, seed=5, trial 0) reproduces these numbers
    cfg = cfg_with(tmp_path, n_values=[300], pairs_per_trial=4)
    frag = harness.run_distances(cfg, harness.Trial.generated(cfg, 300, 0))
    assert [p["hops"] for p in frag["pairs"]] == [2, 3, 5, 4]
    assert frag["fixed_pair"]["hops"] == 5
    assert frag["pass_rate"] == 1.0
    cfg2 = cfg_with(tmp_path, n_values=[300], pairs_per_trial=4)
    frag2 = harness.run_distances(cfg2, harness.Trial.generated(cfg2, 300, 0))
    assert frag == frag2


# --- hubpath -----------------------------------------------------------------


def test_run_hubpath_seeded_golden(tmp_path):
    # frozen reference: cfg(n=300, seed=5, trial 0) with 6 hub samples
    cfg = cfg_with(tmp_path, n_values=[300], pairs_per_trial=6)
    frag = harness.run_hubpath(cfg, harness.Trial.generated(cfg, 300, 0))
    assert frag["u_max"] == 223
    assert [(s["v"], s["exact"], s["certificate"], s["failed_stage"])
            for s in frag["samples"]] == [
        (51, 3, 3, None), (139, 2, 2, None), (157, 2, 2, None),
        (138, 3, 3, None), (265, 3, 3, None), (273, 1, 1, None)]
    assert frag["pass_rate"] == 1.0
    assert frag["escape_success_rate"] == 1.0
    assert frag["climb_success_rate"] == 1.0


def test_run_hubpath_small_n(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[300], pairs_per_trial=6)
    frag = harness.run_hubpath(cfg, harness.Trial.generated(cfg, 300, 0))
    # n = 300 sits below the ladder cutoff: degenerate mode via the hub core
    assert frag["k_star"] == 0
    assert frag["degenerate"] is True
    assert frag["error"] is None
    assert len(frag["samples"]) == 6
    for s in frag["samples"]:
        if s["exact"] is not None and s["certificate"] is not None:
            assert s["certificate"] >= s["exact"]
    jsonschema.validate(frag, report_schema())


def test_run_hubpath_ladder_error(tmp_path):
    inc = BipartiteIncidence.from_sets(5, 10, [[0], [1], [2], [3], [4]])
    path = str(tmp_path / "isolated.rig")
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, alpha=0.8, c0=1.0, seed=3)
    cfg = cfg_with(tmp_path, n_values=[5])
    frag = harness.run_hubpath(cfg, harness.Trial.from_file(cfg, path, 0))
    assert frag["degenerate"] is True
    assert frag["error"] is not None
    assert frag["samples"] == []
    jsonschema.validate(frag, report_schema())


def test_run_hubpath_u_max_sample(tmp_path):
    path = complete_overlap_graph(tmp_path, hub_size=6)
    cfg = cfg_with(tmp_path, n_values=[8], pairs_per_trial=20)
    frag = harness.run_hubpath(cfg, harness.Trial.from_file(cfg, path, 0))
    assert frag["error"] is None
    assert frag["u_max"] == 0
    assert len(frag["samples"]) == 20
    # on the complete graph every distance to the hub is 0 or 1
    for s in frag["samples"]:
        assert s["exact"] in (0, 1)
        assert s["pass"] is True
        assert s["certificate"] >= s["exact"]
    assert frag["pass_rate"] == 1.0


def test_hub_samples_reuse_the_hub_bfs(tmp_path, monkeypatch):
    # each record equals a fresh certificate, and each exact distance the
    # pair BFS to u_max; hub_samples itself runs no pair BFS: the exact
    # distances come from hub_dist
    from rigkit import graphops
    from rigkit.hubnav import loglog_certificate

    calls = []
    real = graphops.bfs_distance

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphops, "bfs_distance", counting)
    monkeypatch.setattr(harness, "bfs_distance", counting)
    trials = [
        # degenerate ladder (k* = 0), escapes into the hub core
        harness.Trial.generated(cfg_with(tmp_path, n_values=[300]), 300, 0),
        # one rung; two of the samples lie off u_max's component
        harness.Trial.generated(cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1),
                                2000, 0),
        # complete graph: u_max itself is drawn
        harness.Trial.from_file(cfg_with(tmp_path, n_values=[8]),
                                complete_overlap_graph(tmp_path, hub_size=6), 0),
    ]
    seen = set()
    for t, count in zip(trials, (12, 40, 20)):
        degenerate, error, samples = t.hub_samples(count)
        assert error is None and len(samples) == count
        assert calls == []
        for v, exact, cert in samples:
            assert cert == loglog_certificate(t.core, t.dec, v, t.dec.u_max)
            assert exact == graphops.bfs_distance(t.core, v, t.dec.u_max).hops
            seen.add(("degenerate", degenerate))
            seen.add(("off-component", exact is None))
            seen.add(("u_max", v == t.dec.u_max))
        assert len(calls) == count
        calls.clear()
    assert seen == {(kind, flag) for kind in ("degenerate", "off-component", "u_max")
                    for flag in (False, True)}


def test_hub_samples_descend_once_for_all_samples(tmp_path, monkeypatch):
    # the top layer is {u_max}, so the hub BFS leaves the escapes a complete
    # ball: no escape takes a search step, and the one batched descent takes
    # one _hop per hop count, at most the largest hub distance, where a
    # descent per escape would take one per hop of every escape
    from rigkit import graphops

    t = harness.Trial.generated(cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1),
                                2000, 0)
    assert t.dec.top.tolist() == [t.dec.u_max]
    calls = []
    real = graphops._hop

    def counting(*args, **kwargs):
        calls.append(kwargs.get("tagged", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphops, "_hop", counting)
    _, error, samples = t.hub_samples(400)
    assert error is None and len(samples) == 400
    hub = [exact for _, exact, _ in samples if exact is not None]
    assert 0 < len(calls) <= max(hub) < sum(hub)
    assert all(calls)  # no search step


# --- verify ------------------------------------------------------------------


def small_verify_cfg(tmp_path, **kw):
    base = dict(
        n_values=[300], seed=5, out_dir=str(tmp_path),
        verify_m_values=[60], verify_jk_max=6,
        coverage_m=13000, coverage_trials=50, coverage_n=1000,
        overlap_point=[40, 16, 100, 10000], overlap_trials=3000,
        mass_n=2000, mass_trials=10,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_verify_statuses(tmp_path):
    cfg = small_verify_cfg(tmp_path)
    reports = harness.run_verify(cfg)
    by_id = {}
    for r in reports:
        by_id.setdefault(r.bound_id, []).append(r)
    # the exact families never fail
    for bid in ("no_overlap_lower", "no_overlap_upper", "edge_prob_lower",
                "edge_prob_upper", "overlap_tail_upper", "overlap_tail_lower",
                "no_overlap_exp"):
        assert all(r.status in ("pass", "skipped") for r in by_id[bid]), bid
    assert by_id["union_coverage"][0].status == "pass"
    assert by_id["conditional_overlap"][0].status == "vacuous"
    assert "max_weight_window" in by_id


def test_config_rejects_mass_n_below_14(tmp_path):
    for mass_n in (2, 13):
        with pytest.raises(ConfigError, match=r"mass_n: .*T\* = .*n\^\(1/\(1\+alpha\)\) = "):
            small_verify_cfg(tmp_path, mass_n=mass_n)
    assert small_verify_cfg(tmp_path, mass_n=14).mass_n == 14


def test_run_verify_coverage_consistency_check(tmp_path):
    # the config itself rejects the grid, before any suite runs
    with pytest.raises(ConfigError, match="coverage grid inconsistent"):
        small_verify_cfg(tmp_path, coverage_m=200)


def test_verify_report_memory_is_flat_in_the_grid(tmp_path):
    # Peak traced bytes of writing run_verify's reports, at a grid with 5.7x
    # the intersection reports of another (28,350 against 4,966).  The
    # reports stream into the file, so the peak does not grow with them;
    # holding every report in one list grew it by 8.3 MB.
    peaks = []
    tracemalloc.start()
    try:
        for jk_max in (12, 24):
            cfg = small_verify_cfg(tmp_path / str(jk_max), verify_m_values=[60, 100],
                                   verify_jk_max=jk_max)
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            harness.write_verify_report(cfg, harness.run_verify(cfg))
            _, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failing_suite_leaves_out_dir_as_it_was(tmp_path, monkeypatch, capsys, fmt):
    # a suite that raises part way through exits 2 and leaves no partial
    # report and no temporary file; an earlier report keeps its bytes
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        n_values=[300], seed=5, out_dir=str(out), verify_m_values=[60], verify_jk_max=6,
        coverage_trials=50, overlap_trials=3000, mass_n=2000, mass_trials=10,
        window_min=0.0, format=fmt)))
    assert cli.main(["verify-lemmas", "--config", str(cfg_path)]) == 0
    report = out / f"verify_bounds.{fmt}"
    assert os.listdir(out) == [report.name]
    earlier = report.read_bytes()

    def raising(**kwargs):
        raise ValueError("tail mass broke")

    monkeypatch.setattr(harness, "check_tail_mass", raising)
    capsys.readouterr()
    assert cli.main(["verify-lemmas", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "runtime failure: tail mass broke\n"
    assert os.listdir(out) == [report.name]
    assert report.read_bytes() == earlier
    # an out_dir that did not exist is not left behind, nor are its parents
    nested = tmp_path / "fresh" / "nested"
    assert cli.main(["verify-lemmas", "--config", str(cfg_path),
                     "--out", str(nested)]) == 2
    assert not (tmp_path / "fresh").exists()


def test_run_verify_csv_bytes_stable(tmp_path):
    cfg = small_verify_cfg(tmp_path)
    reports = harness.run_verify(cfg)
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    harness.write_bound_reports(p1, reports)
    harness.write_bound_reports(p2, harness.run_verify(cfg))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "bound_id,params,lhs,rhs,slack,status"


# --- experiment --------------------------------------------------------------


def test_run_experiment_tiny_ladder(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[200, 300], trials=2, pairs_per_trial=4)
    report = harness.run_experiment(cfg)
    assert report["kind"] == "experiment"
    assert len(report["cells"]) == 4
    per_n = report["aggregates"]["per_n"]
    assert [row["n"] for row in per_n] == [200, 300]
    for row in per_n:
        assert row["trials_ok"] == 2 and row["trials_failed"] == 0
        assert 0.0 < row["rho_hat_min"] <= 1.0
        assert row["pair_pass_rate"] == 1.0
        assert row["mean_over_l2n"] > 0
    jsonschema.validate(report, report_schema())


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[200], trials=2, pairs_per_trial=3)
    r1 = harness.run_experiment(cfg)
    r2 = harness.run_experiment(cfg)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    harness.write_json_report(p1, r1)
    harness.write_json_report(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_experiment_threads_match(tmp_path):
    cfg1 = cfg_with(tmp_path, n_values=[200], trials=2, pairs_per_trial=3)
    cfg2 = cfg_with(tmp_path, n_values=[200], trials=2, pairs_per_trial=3,
                    threads=2)
    assert harness.run_experiment(cfg1)["cells"] == harness.run_experiment(cfg2)["cells"]


def test_run_experiment_caps_workers(tmp_path, monkeypatch):
    # a pool starts all of its workers at once, so it gets no more than
    # there are cells or CPUs this process may run on (its affinity mask,
    # which harness._cpus reads); a stub pool maps serially and starts none
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    one = cfg_with(tmp_path, n_values=[200], trials=1, pairs_per_trial=3, threads=64)
    assert harness.run_experiment(one)["cells"][0]["error"] is None
    assert started == []  # one cell runs in this process
    three = cfg_with(tmp_path, n_values=[200], trials=3, pairs_per_trial=3, threads=2)
    assert len(harness.run_experiment(three)["cells"]) == 3
    assert started == [2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    three.threads = 64
    harness.run_experiment(three)
    assert started == [2, 2]
    # the machine has 8 CPUs, but this process may run on one of them
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    three.threads = 4
    assert len(harness.run_experiment(three)["cells"]) == 3
    assert started == [2, 2]


def test_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without an affinity call counts every CPU, and at least one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._cpus() == 1


def test_experiment_cell_seeded_golden(tmp_path):
    # frozen reference: n=300, seed=5, trial 1 draws pairs, then hub vertices
    cfg = cfg_with(tmp_path, n_values=[300], trials=2, pairs_per_trial=5)
    cell = harness._experiment_cell_inner(cfg, 300, 1)
    assert cell["error"] is None and cell["degenerate"] is True
    assert cell["pair_hops"] == [3, 4, 3, 1, 5]
    assert cell["fixed_pair"] == {"both_in_giant": True, "hops": 3}
    assert cell["hub"] == {"samples": 5, "finite": 5, "passed": 5,
                           "escape_ok": 5, "climb_ok": 5, "certificates": 5,
                           "cert_sound": True, "max_climb_hops": 1,
                           "finite_escape_ok": 5}
    # trial 0 of the same config is the instance pinned by the distances golden
    cell = harness._experiment_cell_inner(cfg, 300, 0)
    assert cell["pair_hops"] == [2, 3, 5, 4, 4]
    assert cell["fixed_pair"]["hops"] == 5
    assert cell["hub"]["max_climb_hops"] == 0


def test_run_experiment_records_cell_failure(tmp_path, monkeypatch):
    real = harness._experiment_cell_inner

    def flaky(cfg, n, trial):
        if trial == 1:
            raise RuntimeError("boom")
        return real(cfg, n, trial)

    monkeypatch.setattr(harness, "_experiment_cell_inner", flaky)
    cfg = cfg_with(tmp_path, n_values=[200], trials=2, pairs_per_trial=3)
    report = harness.run_experiment(cfg)
    errors = [c for c in report["cells"] if c.get("error")]
    assert len(errors) == 1 and "boom" in errors[0]["error"]
    row = report["aggregates"]["per_n"][0]
    assert row["trials_ok"] == 1 and row["trials_failed"] == 1


def test_run_experiment_keeps_ladder_error_cells(tmp_path):
    # trials 2 and 3 have an empty ladder top: they ran, so they count
    cfg = cfg_with(tmp_path, n_values=[2000], trials=4, pairs_per_trial=10,
                   hub_floor=20.0, seed=1)
    report = harness.run_experiment(cfg)
    assert [c["degenerate"] for c in report["cells"]] == [False, False, True, True]
    assert all(c["error"] for c in report["cells"][2:])
    row = report["aggregates"]["per_n"][0]
    assert row["trials_ok"] == 4 and row["trials_failed"] == 0
    assert row["pair_distance"]["mean"] == pytest.approx(3.725)
    jsonschema.validate(report, report_schema())


def test_run_experiment_rows_show_hub_denominators(tmp_path):
    # n = 1000 has no escape targets and draws no hub samples; at n = 2000
    # one of six samples lies off u_max's component and fails to escape
    cfg = cfg_with(tmp_path, n_values=[1000, 2000], pairs_per_trial=6,
                   hub_floor=20.0, seed=13, format="csv")
    report = harness.run_experiment(cfg)
    empty, full = report["aggregates"]["per_n"]
    assert report["cells"][0]["error"] and report["cells"][0]["degenerate"]
    assert (empty["hub_samples"], empty["hub_finite"]) == (0, 0)
    assert empty["escape_success_rate"] is None
    assert empty["giant_escape_success_rate"] is None
    assert (full["hub_samples"], full["hub_finite"]) == (6, 5)
    assert full["escape_success_rate"] == pytest.approx(5 / 6)
    assert full["giant_escape_success_rate"] == 1.0
    jsonschema.validate(report, report_schema())
    csv_path = harness.write_experiment_report(cfg, report)[1]
    header, first, second = open(csv_path).read().splitlines()
    assert header.endswith(",hub_samples,hub_finite,giant_escape_success_rate")
    assert first.endswith(",0,0,") and second.endswith(",6,5,1.0")


def test_hub_counts_escapes_among_finite_only():
    # a vertex off u_max's component may still escape to a top-layer vertex
    # of its own component; the giant escape count leaves it out
    def record(v, exact, escaped):
        return {"v": v, "exact": exact, "certificate": None,
                "escape_hops": 1 if escaped else None, "climb_hops": None,
                "failed_stage": "climb_a" if escaped else "escape_a",
                "pass": None if exact is None else exact <= 10.0}

    samples = [record(0, 2, True), record(1, 3, False), record(2, None, True),
               record(3, None, False)]
    hub = harness._hub_counts(samples)
    assert (hub["samples"], hub["finite"]) == (4, 2)
    assert (hub["escape_ok"], hub["finite_escape_ok"]) == (2, 1)


def test_loglog_slope_matches_polyfit(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[200, 300], trials=2, pairs_per_trial=4)
    agg = harness.run_experiment(cfg)["aggregates"]
    rows = agg["per_n"]
    want = np.polyfit([r["l2n"] for r in rows],
                      [r["pair_distance"]["mean"] for r in rows], 1)[0]
    assert agg["loglog_slope"]["slope"] == pytest.approx(want, rel=1e-9)
    assert agg["loglog_slope"]["rows"] == 2
    assert agg["loglog_slope"]["asymptotic"] == pytest.approx(2 / math.log(1 / 0.8))


def test_loglog_slope_none_on_one_n(tmp_path):
    agg = harness.run_experiment(cfg_with(tmp_path))["aggregates"]
    assert agg["loglog_slope"]["slope"] is None and agg["loglog_slope"]["rows"] == 1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 12).map(float) | st.floats(-1e12, 1e12),
                min_size=1, max_size=40))
def test_quantiles_match_numpy(values):
    # one sort in place of np.median and np.quantile, which import numpy.ma
    got = harness._quantiles(values)
    arr = np.array(values)
    want = {"mean": float(np.mean(arr)), "median": float(np.median(arr)),
            "p90": float(np.quantile(arr, 0.9)), "max": float(np.max(arr))}
    assert got == want
    assert harness._quantiles([]) is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-40, 40).map(lambda k: k / 8), max_size=6))
def test_loglog_slope_needs_two_distinct_n(l2n):
    rows = [{"l2n": x, "pair_distance": {"mean": 1.0 + x * x}} for x in l2n]
    rows.append({"l2n": 9.0, "pair_distance": None})  # never enters the fit
    got = harness._loglog_slope(rows, 0.8)
    assert got["rows"] == len(l2n)
    assert (got["slope"] is not None) == (np.unique(np.array(l2n)).shape[0] >= 2)


def test_experiment_conditioning_never_counts_infinite(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[200], trials=3, pairs_per_trial=6)
    report = harness.run_experiment(cfg)
    for cell in report["cells"]:
        finite = [h for h in cell["pair_hops"] if h is not None]
        if cell["pair_pass_rate"] is not None:
            bound = cfg.pair_bound(cfg.params_for(cell["n"]))
            expect = sum(h <= bound for h in finite) / len(finite)
            assert cell["pair_pass_rate"] == pytest.approx(expect)
        hub = cell["hub"]
        assert hub["passed"] <= hub["finite"] <= hub["samples"]


def test_experiment_certificates_sound(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[300], trials=2, pairs_per_trial=5)
    report = harness.run_experiment(cfg)
    for cell in report["cells"]:
        assert cell["hub"]["cert_sound"] is True


# --- report files ------------------------------------------------------------


def test_write_fragment_formats(tmp_path):
    cfg = cfg_with(tmp_path, format="csv")
    frag = harness.run_distances(cfg, harness.Trial.generated(cfg, 300, 0))
    path = harness.write_fragment(cfg, "d", frag, harness.distances_rows)
    assert path.endswith(".csv")
    lines = open(path).read().splitlines()
    assert lines[0].startswith("kind,n,trial,u,v,hops")
    cfg_json = cfg_with(tmp_path, format="json")
    path = harness.write_fragment(cfg_json, "d", frag, harness.distances_rows)
    assert path.endswith(".json")
    jsonschema.validate(json.load(open(path)), report_schema())


def test_flatten_params_sorted():
    assert harness._flatten_params({"b": 2, "a": 1}) == "a=1;b=2"
