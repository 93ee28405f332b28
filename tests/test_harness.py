import json
import math
import os

import numpy as np
import pytest

from rigkit import harness, report_schema
from rigkit.graphgen import BipartiteIncidence
from rigkit.harness import ConfigError, ExperimentConfig
from rigkit.model import default_attribute_count, iterated_log
from rigkit.storage import file_checksum, write_graph

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
    assert cfg.pair_bound(1000) == pytest.approx(3.0 * l2n / math.log(1.0 / cfg.alpha))
    assert cfg.hub_bound(1000) == pytest.approx(2.0 * l2n / math.log(1.0 / cfg.alpha))
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

        inc, header, _ = read_graph(path)
        assert header.n == 150
        assert inc.total_incidence == meta["incidence"]
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


def test_run_verify_coverage_consistency_check(tmp_path):
    cfg = small_verify_cfg(tmp_path, coverage_m=200)
    with pytest.raises(ConfigError):
        harness.run_verify(cfg)


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


def test_experiment_cell_seeded_golden(tmp_path):
    # frozen reference: n=300, seed=5, trial 1 draws pairs, then hub vertices
    cfg = cfg_with(tmp_path, n_values=[300], trials=2, pairs_per_trial=5)
    cell = harness._experiment_cell_inner(cfg, 300, 1)
    assert cell["error"] is None and cell["degenerate"] is True
    assert cell["pair_hops"] == [3, 4, 3, 1, 5]
    assert cell["fixed_pair"] == {"both_in_giant": True, "hops": 3}
    assert cell["hub"] == {"samples": 5, "finite": 5, "passed": 5,
                           "escape_ok": 5, "climb_ok": 5, "certificates": 5,
                           "cert_sound": True, "max_climb_hops": 1}
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


def test_experiment_conditioning_never_counts_infinite(tmp_path):
    cfg = cfg_with(tmp_path, n_values=[200], trials=3, pairs_per_trial=6)
    report = harness.run_experiment(cfg)
    for cell in report["cells"]:
        finite = [h for h in cell["pair_hops"] if h is not None]
        if cell["pair_pass_rate"] is not None:
            bound = cfg.pair_bound(cell["n"])
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
