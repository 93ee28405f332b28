"""The names the benchmark in perfbench/ wraps must exist in the package.

perfbench/spans.py replaces each (module, attribute) of its BINDINGS with a
timing wrapper, and perfbench/checks.py wraps three functions to record the
inputs of its output checks, so the package must call them through those
names, and its hop check must still read the incidences it records.  A
rename in the package would otherwise only show up as a broken benchmark
run; so would a config rule that the bounds workload's config no longer
meets.
"""

import importlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_every_span_binding_resolves_to_a_callable():
    bindings = load_spans().BINDINGS
    assert bindings
    for module_name, attr, _, _ in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_output_check_hooks_exist():
    from rigkit import harness, storage

    for module, attr in ((harness, "generate"), (harness, "bfs_distance"),
                         (storage, "read_graph")):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_output_check_reads_a_generated_and_a_read_back_incidence(tmp_path):
    # the benchmark's hop check builds its star graph from the set_attrs of
    # the incidence it captures from harness.generate (cell-1e5) or from
    # storage.read_graph (hub-file): each is full when captured, and the
    # Trial then shrinks it in place (keep_core) before the check runs.  On
    # each of them, full or shrunk, it must agree with bfs_distance on a
    # core with the two-sort formula's arrays on the full instance
    import numpy as np

    from rigkit import harness
    from rigkit.graphgen import generate
    from rigkit.graphops import bfs_distance
    from rigkit.model import ModelParams, default_attribute_count, trial_rng
    from rigkit.storage import read_graph, write_graph

    from cores import core_of
    from oracles import traversal_core_two_sorts

    checks = load_perfbench("checks")
    n = 300
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, _ = generate(params, trial_rng(5, n, 0))
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=5)
    core = core_of(inc)
    two_sorts = traversal_core_two_sorts(inc.set_indptr, inc.set_attrs)
    for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
        assert np.array_equal(getattr(core, name), two_sorts[name]), name
    shrunk = read_graph(path)[0]
    shrunk.keep_core()
    generated = harness.generate(params, trial_rng(5, n, 0))[0]
    generated.keep_core()
    targets = list(range(0, n, 23))
    for source in (0, 1, 150):
        want = [bfs_distance(core, source, v).hops for v in targets]
        assert any(hops and hops > 1 for hops in want)
        for got in (inc, read_graph(path)[0], shrunk, generated):
            assert checks.hops_from(checks.star_graph(got), source, targets) == want


def test_trial_constructors_call_the_hooked_names(tmp_path, monkeypatch):
    # the benchmark's capture and spans replace harness.generate and
    # storage.read_graph; a constructor that reached either function some
    # other way (say, from .storage import read_graph) would bypass them
    from rigkit import harness, storage
    from rigkit.harness import ExperimentConfig, Trial

    cfg = ExperimentConfig(n_values=[300], trials=1, seed=5, out_dir=str(tmp_path))
    path = tmp_path / harness.run_generate(cfg)[0]["path"]
    calls = []

    def recording(name, fn):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return record

    monkeypatch.setattr(harness, "generate", recording("generate", harness.generate))
    monkeypatch.setattr(storage, "read_graph", recording("read_graph", storage.read_graph))
    t = Trial.generated(cfg, 300, 0)
    assert calls == [("generate", (t.params, t.rng), {})]  # a Generator equals only itself
    calls.clear()
    Trial.from_file(cfg, path, 0)
    assert calls == [("read_graph", (path,), {})]


def test_bounds_workload_config_is_valid():
    from rigkit.harness import ExperimentConfig

    cfg = ExperimentConfig.from_json(PERFBENCH / "bounds_config.json")
    assert cfg.overlap_trials == 20000


def test_hub_samples_call_loglog_certificate_once_per_sample(tmp_path, monkeypatch):
    # the benchmark's certificate spans wrap harness.loglog_certificate, so
    # every hub sample must go through that name exactly once
    from rigkit import harness
    from rigkit.harness import ExperimentConfig, Trial

    calls = []
    real = harness.loglog_certificate

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "loglog_certificate", counting)
    cfg = ExperimentConfig(n_values=[300], trials=1, pairs_per_trial=5, seed=5,
                           out_dir=str(tmp_path))
    _, error, samples = Trial.generated(cfg, 300, 0).hub_samples(7)
    assert error is None
    assert calls == [v for v, _, _ in samples] and len(calls) == 7


def test_traced_verify_lemmas_keeps_the_bound_layer_metrics(tmp_path, monkeypatch, capsys):
    # the bounds workload's per-layer figures come from the spans of the
    # four suites: each call's fails are counted from the list it returns,
    # so the count must equal the FAIL lines that verify-lemmas prints
    from rigkit import cli

    spans = load_spans()
    for module_name, attr, _, _ in spans.BINDINGS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after
    tracer = spans.Tracer("op")
    spans.instrument(tracer)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        n_values=[300], seed=5, out_dir=str(tmp_path / "out"), verify_m_values=[60],
        verify_jk_max=6, coverage_trials=50, overlap_trials=3000, mass_n=2000,
        mass_trials=10, window_min=2.0)))
    root = tracer.open("cli.main")
    rc = cli.main(["verify-lemmas", "--config", str(cfg)])
    tracer.close(root)
    fails = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("FAIL ")]
    assert rc == 3 and fails
    layers = spans.layer_metrics(tracer.spans)
    assert layers["verify.fail_reports"] == (len(fails), "count")
    assert layers["verify.intersection_s"][0] > 0
    assert all(layers[f"verify.{suite}_s"][0] > 0
               for suite in ("coverage", "overlap", "tail_mass"))
