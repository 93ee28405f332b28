import concurrent.futures
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigkit import harness, report_schema
from rigkit.graphgen import BipartiteIncidence
from rigkit.graphops import TraversalCore
from rigkit.harness import ConfigError, ExperimentConfig
from rigkit.model import default_attribute_count, iterated_log
from rigkit.storage import file_checksum, read_graph, write_graph

from oracles import traversal_core_two_sorts

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
    # the core a Trial builds from either graph file has the arrays of the
    # two full-length packed sorts on the incidence read from that file
    cfg = cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, graph_format=fmt)
    path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])
    want = traversal_core_two_sorts(read_graph(path)[0])
    core = harness.Trial(cfg, 2000, 0, graph_path=path).core
    assert core.num_attrs == want["num_attrs"] > 0
    for name in ("attr_indptr", "attr_vertices", "set_indptr", "set_attrs"):
        assert np.array_equal(getattr(core, name), want[name]), name


def test_trial_keeps_one_core_from_either_graph_file(tmp_path):
    # a generated instance and its binary and rig-json files give cores with
    # equal arrays, and the two files the same pairs and hub samples; no
    # Trial keeps the incidence that its core was built from
    trials = [harness.Trial(cfg_with(tmp_path, n_values=[2000], hub_floor=20.0), 2000, 0)]
    for fmt in ("binary", "json"):
        cfg = cfg_with(tmp_path / fmt, n_values=[2000], hub_floor=20.0, graph_format=fmt)
        path = os.path.join(cfg.out_dir, harness.run_generate(cfg)[0]["path"])
        trials.append(harness.Trial(cfg, 2000, 0, graph_path=path))
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


# --- distances ---------------------------------------------------------------


def complete_overlap_graph(tmp_path, n=8, hub_size=1):
    """Every vertex holds attribute 0: the intersection graph is complete.

    hub_size > 1 pads vertex 0 with extra attributes so it clears the hub
    threshold at this scale.
    """
    sets = [list(range(hub_size))] + [[0]] * (n - 1)
    inc = BipartiteIncidence.from_sets(n, 10, sets)
    path = str(tmp_path / "complete.rig")
    write_graph(path, inc, alpha=0.8, c0=1.0, seed=3)
    return path


def test_run_distances_complete_graph(tmp_path):
    path = complete_overlap_graph(tmp_path)
    cfg = cfg_with(tmp_path, n_values=[8], pairs_per_trial=12)
    frag = harness.run_distances(cfg, graph_path=path)
    assert frag["empty"] is False
    assert [p["hops"] for p in frag["pairs"]] == [1] * 12
    assert frag["pass_rate"] == 1.0
    assert frag["fixed_pair"]["both_in_giant"] is True
    assert frag["fixed_pair"]["hops"] == 1
    assert frag["fixed_pair"]["pass"] is True
    jsonschema.validate(frag, report_schema())


def test_run_distances_huge_epsilon(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[300], epsilon=1000.0, pairs_per_trial=10)
    frag = harness.run_distances(cfg)
    assert frag["pass_rate"] == 1.0


def test_run_distances_empty_giant(tmp_path):
    inc = BipartiteIncidence.from_sets(5, 10, [[0], [1], [2], [3], [4]])
    path = str(tmp_path / "isolated.rig")
    write_graph(path, inc, alpha=0.8, c0=1.0, seed=3)
    cfg = cfg_with(tmp_path, n_values=[5])
    frag = harness.run_distances(cfg, graph_path=path)
    assert frag["empty"] is True
    assert frag["pairs"] == [] and frag["pass_rate"] is None
    jsonschema.validate(frag, report_schema())


def test_run_distances_seeded_golden(tmp_path):
    # frozen reference: cfg(n=300, seed=5, trial 0) reproduces these numbers
    cfg = cfg_with(tmp_path, n_values=[300], pairs_per_trial=4)
    frag = harness.run_distances(cfg)
    assert [p["hops"] for p in frag["pairs"]] == [2, 3, 5, 4]
    assert frag["fixed_pair"]["hops"] == 5
    assert frag["pass_rate"] == 1.0
    frag2 = harness.run_distances(cfg_with(tmp_path, n_values=[300],
                                           pairs_per_trial=4))
    assert frag == frag2


# --- hubpath -----------------------------------------------------------------


def test_run_hubpath_seeded_golden(tmp_path):
    # frozen reference: cfg(n=300, seed=5, trial 0) with 6 hub samples
    cfg = cfg_with(tmp_path, n_values=[300], pairs_per_trial=6)
    frag = harness.run_hubpath(cfg)
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
    frag = harness.run_hubpath(cfg)
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
    write_graph(path, inc, alpha=0.8, c0=1.0, seed=3)
    cfg = cfg_with(tmp_path, n_values=[5])
    frag = harness.run_hubpath(cfg, graph_path=path)
    assert frag["degenerate"] is True
    assert frag["error"] is not None
    assert frag["samples"] == []
    jsonschema.validate(frag, report_schema())


def test_run_hubpath_u_max_sample(tmp_path):
    path = complete_overlap_graph(tmp_path, hub_size=6)
    cfg = cfg_with(tmp_path, n_values=[8], pairs_per_trial=20)
    frag = harness.run_hubpath(cfg, graph_path=path)
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
        harness.Trial(cfg_with(tmp_path, n_values=[300]), 300, 0),
        # one rung; two of the samples lie off u_max's component
        harness.Trial(cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1),
                      2000, 0),
        # complete graph: u_max itself is drawn
        harness.Trial(cfg_with(tmp_path, n_values=[8]), 8, 0,
                      graph_path=complete_overlap_graph(tmp_path, hub_size=6)),
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

    t = harness.Trial(cfg_with(tmp_path, n_values=[2000], hub_floor=20.0, seed=1), 2000, 0)
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
    # there are cells or cores; a stub pool maps serially and starts none
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
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    one = cfg_with(tmp_path, n_values=[200], trials=1, pairs_per_trial=3, threads=64)
    assert harness.run_experiment(one)["cells"][0]["error"] is None
    assert started == []  # one cell runs in this process
    three = cfg_with(tmp_path, n_values=[200], trials=3, pairs_per_trial=3, threads=2)
    assert len(harness.run_experiment(three)["cells"]) == 3
    assert started == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    three.threads = 64
    harness.run_experiment(three)
    assert started == [2, 2]


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
    def cert(escaped):
        return SimpleNamespace(escape_a=object() if escaped else None,
                               climb_a=None, certificate_hops=None)

    samples = [(0, 2, cert(True)), (1, 3, cert(False)), (2, None, cert(True)),
               (3, None, cert(False))]
    hub = harness._hub_counts(samples, bound=10.0)
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
    frag = harness.run_distances(cfg)
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
