import ast
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from rigkit import cli, report_schema
from rigkit.graphgen import BipartiteIncidence, generate
from rigkit.harness import ConfigError, ExperimentConfig
from rigkit.model import ModelParams, default_attribute_count, trial_rng
from rigkit.storage import GraphFormatError, read_graph, write_graph

jsonschema = pytest.importorskip("jsonschema")


def write_config(tmp_path, **kw):
    doc = dict(n_values=[300], seed=5, trials=1, pairs_per_trial=4,
               out_dir=str(tmp_path / "out"))
    doc.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def verify_config(tmp_path, window_min, **kw):
    # tiny grids so the whole suite runs in about a second
    return write_config(
        tmp_path, verify_m_values=[60], verify_jk_max=6,
        coverage_m=13000, coverage_trials=50, coverage_n=1000,
        overlap_point=[40, 16, 100, 10000], overlap_trials=3000,
        mass_n=2000, mass_trials=10, window_min=window_min, **kw)


# --- imports -----------------------------------------------------------------


def _modules_after(code, prefix):
    # a fresh interpreter, with this checkout's rigkit on the path, runs code
    # and prints the loaded modules whose names start with prefix
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += f"; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
def test_import_defaults_openblas_to_one_thread(preset, want):
    # each OpenBLAS thread started at import slows it: on 2 vCPUs a fresh
    # `import rigkit.cli` took 0.148 s with one BLAS thread and 0.216 s
    # with two; a value the user set is kept
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, rigkit; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    value, threads = out.stdout.split()
    assert value == want
    if preset is None:
        assert threads == "1"


def test_cli_import_leaves_out_scipy_sparse():
    # every graph query runs on numpy alone; scipy.sparse would add about
    # 0.1 s to each start of the CLI
    assert _modules_after("import rigkit.cli", "scipy.sparse") == "[]"


def test_cli_import_leaves_out_process_pool():
    # no run with one worker starts a pool, and the experiment harness
    # imports concurrent.futures, which brings multiprocessing with its
    # process pool, only when it starts one
    assert _modules_after("import rigkit.cli", "multiprocessing") == "[]"
    assert _modules_after("import rigkit.cli", "concurrent") == "[]"


def test_verify_lemmas_runs_without_scipy(tmp_path):
    # the bound suites compute every hypergeometric law in rigkit.verify
    # itself, by a ratio recursion, so not even verify-lemmas loads scipy
    path = verify_config(tmp_path, window_min=0.0)
    code = ("import rigkit.cli; "
            f"assert rigkit.cli.main(['verify-lemmas', '--config', {path!r}]) == 0")
    assert _modules_after(code, "scipy") == "[]"


def test_experiment_leaves_out_numpy_ma(tmp_path):
    # the per-n quantiles and the slope's distinct-n test are read off plain
    # arrays: np.median, np.quantile and np.unique would import numpy.ma
    code = ("import rigkit.cli; assert rigkit.cli.main(['experiment', '-n', '300', "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    loaded = ast.literal_eval(_modules_after(code, "numpy.ma"))
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


# --- config handling ---------------------------------------------------------


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    assert cli.main(["analyze", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# files that json.load rejects with something other than JSONDecodeError: an
# integer past Python's 4300-digit limit (ValueError), nesting past the
# recursion limit (RecursionError) and a byte that is not UTF-8
# (UnicodeDecodeError); each starts with "{", as a rig-json graph does
MALFORMED_JSON = {
    "int_5000_digits": b'{"seed": ' + b"9" * 5000 + b"}",
    "nested_200000": b'{"seed": ' + b"[" * 200_000,
    "invalid_utf8": b'{"seed": "\xff"}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_malformed_json_config(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_bytes(MALFORMED_JSON[name])
    assert cli.main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read config (")
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize("command", ["distances", "hubpath"])
def test_negative_trial_is_a_config_error(tmp_path, capsys, command):
    rc = cli.main([command, "-n", "50", "--trial", "-1", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --trial must be a nonnegative integer, got -1\n")
    assert not any(tmp_path.iterdir())


def test_config_fails_validation(tmp_path, capsys):
    path = write_config(tmp_path, alpha=1.5)
    assert cli.main(["analyze", "--config", path]) == 1
    assert "alpha" in capsys.readouterr().err


def test_config_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path, widget=3)
    assert cli.main(["analyze", "--config", path]) == 1
    assert "widget" in capsys.readouterr().err


def test_flag_fails_validation(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = cli.main(["distances", "-n", "300", "--alpha", "1.5", "--out", out])
    assert rc == 1


def test_flags_override_config(tmp_path, capsys):
    path = write_config(tmp_path, n_values=[300])
    out = str(tmp_path / "alt")
    rc = cli.main(["generate", "--config", path, "-n", "100", "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [os.path.join(out, "graph_n100_t0.rig")]
    assert os.path.exists(lines[0])


HOSTILE_CONFIGS = {
    "seed_1.5": {"seed": 1.5},
    "pairs_2.5": {"pairs_per_trial": 2.5},
    "m_float": {"m": 1e7},
    "epsilon_nan": {"epsilon": float("nan")},
    "seed_true": {"seed": True},
    "trials_true": {"trials": True},
    "hub_floor_1": {"hub_floor": 1.0},
}


@pytest.mark.parametrize("command", ["distances", "hubpath", "analyze", "experiment"])
@pytest.mark.parametrize("fields", list(HOSTILE_CONFIGS.values()),
                         ids=list(HOSTILE_CONFIGS))
def test_hostile_config(tmp_path, capsys, command, fields):
    path = write_config(tmp_path, **fields)
    assert cli.main([command, "--config", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(tmp_path / "out")


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.integers(2**63, 2**70), st.integers(-2**70, -2**63),
    st.floats(), st.text(max_size=3))
HOSTILE = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2))
# threads is left out: a valid draw would start worker processes, one per
# cell up to the number of cores
FIELDS = sorted(set(ExperimentConfig.__dataclass_fields__) - {"threads"})


def field_change(name):
    """(name, value): a hostile value, or a plausible one of the field's type
    (tiny and huge floats included) so that many draws reach a real run."""
    default = ExperimentConfig.__dataclass_fields__[name].default
    if isinstance(default, float):
        plausible = st.floats(0.0, 2.0) | st.floats(1e-300, 1e308)
    elif isinstance(default, str):
        plausible = st.nothing()
    elif default is dataclasses.MISSING:  # the list fields
        plausible = st.lists(st.integers(0, 12), min_size=1, max_size=4)
    else:
        plausible = st.integers(0, 12)
    return st.tuples(st.just(name), plausible | HOSTILE)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["generate", "analyze", "distances", "hubpath",
                                "verify-lemmas", "experiment"]),
       changes=st.lists(st.sampled_from(FIELDS).flatmap(field_change),
                        min_size=1, max_size=2).map(dict))
def test_random_config_keeps_exit_codes(tmp_path, command, changes):
    # a relative out_dir would write into the working directory
    assume(not isinstance(changes.get("out_dir"), str))
    small = dict(n_values=[40], pairs_per_trial=3, verify_m_values=[20],
                 verify_jk_max=3, coverage_trials=5, overlap_trials=200,
                 mass_n=200, mass_trials=3)
    path = write_config(tmp_path, **{**small, **changes})
    rc = cli.main([command, "--config", path])
    event(f"{command} exit {rc}")
    # verify-lemmas exits 3 when a bound report is red, e.g. a window_min of 2
    assert rc in ((0, 1, 2, 3) if command == "verify-lemmas" else (0, 1, 2))


# --- runtime failures --------------------------------------------------------


def test_missing_graph_file(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = cli.main(["analyze", "--config", path, "--graph",
                   str(tmp_path / "no-such.rig")])
    assert rc == 2
    assert "runtime failure" in capsys.readouterr().err


def test_corrupt_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.rig"
    bad.write_bytes(b"NOPE" + bytes(60))
    path = write_config(tmp_path)
    rc = cli.main(["distances", "--config", path, "--graph", str(bad)])
    assert rc == 2


def crafted_graph(tmp_path, offset, fmt, value):
    """A valid little graph file with one header or body field overwritten."""
    inc = BipartiteIncidence.from_sets(3, 50, [[1, 7], [7], []])
    path = tmp_path / "crafted.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, 0.5, 1.0, seed=0)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    return str(path)


# header: magic 0, version 4, n 8, m 16, alpha 24, c0 32, seed 40; then the
# size words 2, 1, 0 at 48, 56, 64 and the ids 1, 7, 7 at 72, 80, 88
@pytest.mark.parametrize("offset,fmt,value,message", [
    (48, "<Q", 2**63 + 5, "claims 9223372036854775813 attributes"),
    (8, "<Q", 2**40, "header claims 1099511627776 vertices"),
    (24, "<d", 1.5, "alpha must lie in (0, 1)"),
    (72, "<Q", 9, "vertex 0 lists attribute 7 after 9"),
    (72, "<Q", 7, "vertex 0 lists attribute 7 after 7"),
    (4, "<I", 1, "unsupported version 1"),
    (16, "<Q", 2**61, "must stay below 2**62"),
    (56, "<Q", 2, "vertex 1 claims 2 attributes but only 1 words are left"),
    (56, "<Q", 0, "1 trailing words"),
], ids=["size_word_2p63_plus_5", "header_n_2p40", "alpha_1.5", "ids_unsorted",
        "id_repeated", "version_1", "n_times_m_2p62", "sizes_sum_over",
        "sizes_sum_under"])
def test_hostile_graph_file(tmp_path, capsys, offset, fmt, value, message):
    bad = crafted_graph(tmp_path, offset, fmt, value)
    path = write_config(tmp_path)
    rc = cli.main(["analyze", "--config", path, "--graph", bad])
    assert rc == 2
    assert message in capsys.readouterr().err
    with pytest.raises(GraphFormatError):
        read_graph(bad)


def crafted_json_graph(tmp_path, key, value):
    """The little graph of crafted_graph as rig-json, one field replaced."""
    inc = BipartiteIncidence.from_sets(3, 50, [[1, 7], [7], []])
    path = tmp_path / "crafted.json"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, 0.5, 1.0, seed=0, fmt="json")
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    return str(path)


# each value once loaded as a different but valid graph or header
@pytest.mark.parametrize("key,value,message", [
    ("sets", [[1, 7], [0.9, 7], []], "field 'sets' must hold integers only, found ['float']"),
    ("sets", [[True, 7], [7], []], "field 'sets' must hold integers only, found ['bool']"),
    ("n", 3.7, "field 'n' must be an integer, got 3.7"),
    ("n", "3", "field 'n' must be an integer, got '3'"),
    ("m", True, "field 'm' must be an integer, got True"),
    ("alpha", "0.5", "field 'alpha' must be a number, got '0.5'"),
    ("c0", True, "field 'c0' must be a number, got True"),
    ("seed", 2**70, "field 'seed' must lie in [0, 2**64), got 1180591620717411303424"),
    ("seed", -1, "field 'seed' must lie in [0, 2**64), got -1"),
    ("seed", 1.0, "field 'seed' must be an integer, got 1.0"),
], ids=["attr_0.9", "attr_true", "n_3.7", "n_string", "m_true", "alpha_string",
        "c0_true", "seed_2p70", "seed_negative", "seed_float"])
def test_hostile_json_graph_file(tmp_path, capsys, key, value, message):
    bad = crafted_json_graph(tmp_path, key, value)
    path = write_config(tmp_path)
    rc = cli.main(["hubpath", "--config", path, "--graph", bad])
    assert rc == 2
    assert message in capsys.readouterr().err
    with pytest.raises(GraphFormatError, match=key):
        read_graph(bad)


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_malformed_json_graph_file(tmp_path, capsys, name):
    bad = tmp_path / "crafted.json"
    bad.write_bytes(MALFORMED_JSON[name])
    path = write_config(tmp_path)
    assert cli.main(["hubpath", "--config", path, "--graph", str(bad)]) == 2
    assert f"{bad}: invalid JSON (" in capsys.readouterr().err
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        read_graph(bad)


def test_json_graph_bounds_and_number_kinds(tmp_path):
    # the largest u64 seed fits the binary header; an integer c0 is a number
    _, _, seed = read_graph(crafted_json_graph(tmp_path, "seed", 2**64 - 1))
    assert seed == 2**64 - 1
    _, params, _ = read_graph(crafted_json_graph(tmp_path, "c0", 1))
    assert params.c0 == 1.0 and isinstance(params.c0, float)


def test_graph_header_alpha_near_one_is_refused(tmp_path, capsys):
    # alpha 0.999999 at n = 20000 asks for a ladder of 70,402 rungs
    params = ModelParams(n=20000, m=default_attribute_count(20000), alpha=0.8)
    inc, _ = generate(params, trial_rng(1, 20000, 0))
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 24, 0.999999)
    path.write_bytes(bytes(blob))
    out = tmp_path / "out"
    rc = cli.main(["hubpath", "--graph", str(path), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("runtime failure: the ladder at n = 20000, alpha = "
                            "0.999999, floor 101.0 would have more than 1000 rungs\n")
    assert captured.out == "" and not out.exists()


# --- happy paths -------------------------------------------------------------


def test_generate_then_analyze_graph(tmp_path, capsys):
    path = write_config(tmp_path, trials=2)
    assert cli.main(["generate", "--config", path]) == 0
    graphs = capsys.readouterr().out.splitlines()
    assert len(graphs) == 2
    for g in graphs:
        assert os.path.exists(g) and os.path.exists(g + ".meta.json")

    rc = cli.main(["analyze", "--config", path, "--graph", graphs[0]])
    assert rc == 0
    report_path = capsys.readouterr().out.strip()
    frag = json.load(open(report_path))
    assert frag["kind"] == "analyze" and frag["n"] == 300
    jsonschema.validate(frag, report_schema())


def test_distances_csv_format(tmp_path, capsys):
    path = write_config(tmp_path, format="csv")
    rc = cli.main(["distances", "--config", path])
    assert rc == 0
    report_path = capsys.readouterr().out.strip()
    assert report_path.endswith("distances_n300_t0.csv")
    lines = open(report_path).read().splitlines()
    assert lines[0].split(",")[:3] == ["kind", "n", "trial"]
    assert len(lines) >= 5


def test_hubpath_default_config(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = cli.main(["hubpath", "-n", "300", "--seed", "5", "--pairs", "4",
                   "--out", out])
    assert rc == 0
    report_path = capsys.readouterr().out.strip()
    frag = json.load(open(report_path))
    assert frag["kind"] == "hubpath"
    jsonschema.validate(frag, report_schema())


def test_experiment_csv_aggregates(tmp_path, capsys):
    path = write_config(tmp_path, format="csv", trials=2)
    rc = cli.main(["experiment", "--config", path])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("experiment_report.json")
    assert lines[1].endswith("experiment_aggregates.csv")
    report = json.load(open(lines[0]))
    jsonschema.validate(report, report_schema())
    rows = open(lines[1]).read().splitlines()
    assert rows[0].startswith("n,m,l2n,trials_ok")
    assert len(rows) == 2


# --- verify-lemmas exit codes ------------------------------------------------


def test_verify_lemmas_all_clear(tmp_path, capsys):
    path = verify_config(tmp_path, window_min=0.0)
    rc = cli.main(["verify-lemmas", "--config", path])
    captured = capsys.readouterr()
    assert rc == 0
    assert "FAIL" not in captured.err
    rep = json.load(open(captured.out.strip()))
    assert rep["kind"] == "verify"
    assert set(rep["counts"]) <= {"pass", "vacuous", "skipped", "boundary",
                                  "inconclusive"}
    jsonschema.validate(rep, report_schema())


def test_verify_lemmas_report_golden(tmp_path, capsys):
    # the sha256 prefix of verify_bounds.json as json.dump wrote it
    path = verify_config(tmp_path, window_min=0.0)
    assert cli.main(["verify-lemmas", "--config", path]) == 0
    with open(capsys.readouterr().out.strip(), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest()[:16] == "6661f3f8e261214c"


@pytest.mark.parametrize("command, seed, pairs, digest", [
    ("hubpath", 1, 12, "7468d7ea50ffe663"),
    ("experiment", 13, 6, "17ee1e4e5e0d5b33"),
])
def test_hub_reports_golden(tmp_path, monkeypatch, capsys, command, seed, pairs, digest):
    # sha256 prefixes of reports with a one-rung ladder, whose hub samples
    # include vertices off u_max's component; the experiment report carries
    # its config, so out_dir is relative
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, n_values=[2000], seed=seed, pairs_per_trial=pairs,
                        hub_floor=20.0, out_dir="out")
    assert cli.main([command, "--config", path]) == 0
    with open(capsys.readouterr().out.strip(), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest()[:16] == digest


@pytest.mark.parametrize("field, value", [
    ("verify_jk_max", 21),                  # above the least verify_m_values
    ("overlap_point", [40, 16, 100, 1000]),  # d > m/100
    ("mass_tau", 2.0),                      # outside (1, 1 + alpha)
    ("mass_gamma", 0),
    ("coverage_m", 10**18),                 # 10 sets * m >= 2**62
    ("overlap_point", [40, 16, 100, 10**16]),  # a batch of 3000 * m >= 2**62
])
def test_verify_lemmas_rejects_invalid_suite_settings(tmp_path, capsys, field, value):
    # each broke a suite's own rule and ended in a runtime failure (exit 2)
    # once the suites before it had run; the config now rejects it up front
    doc = dict(verify_m_values=[20], verify_jk_max=6, coverage_trials=50,
               overlap_trials=3000, mass_n=2000, mass_trials=10, window_min=0.0)
    doc[field] = value
    path = write_config(tmp_path, **doc)
    assert cli.main(["verify-lemmas", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}:")
    assert "FAIL" not in captured.err and captured.out == ""


def test_graph_file_bounds_use_the_file_alpha(tmp_path, capsys):
    # the graph's alpha is 0.5; the config's is the default 0.8, and the
    # bounds must follow the graph's: 3*l2n/ln 2 and 2*l2n/ln 2 at n = 2000
    out = str(tmp_path / "out")
    assert cli.main(["generate", "-n", "2000", "--alpha", "0.5", "--seed", "3",
                     "--trials", "1", "--out", out]) == 0
    graph = capsys.readouterr().out.strip()
    bounds = {"distances": 8.779081257559394, "hubpath": 5.852720838372929}
    for command, bound in bounds.items():
        assert cli.main([command, "--graph", graph, "--out", out]) == 0
        with open(capsys.readouterr().out.strip()) as fh:
            frag = json.load(fh)
        assert frag["alpha"] == 0.5
        assert frag["bound"] == pytest.approx(bound, rel=1e-12)
        # the pass fields follow the same bound
        if command == "distances":
            hops = [p["hops"] for p in frag["pairs"] if p["hops"] is not None]
            assert frag["pass_rate"] == sum(h <= bound for h in hops) / len(hops)
        else:
            assert all(s["pass"] == (s["exact"] <= bound)
                       for s in frag["samples"] if s["exact"] is not None)


@pytest.mark.parametrize("mass_n", [10, 13])
def test_verify_lemmas_rejects_mass_n_below_14(tmp_path, capsys, mass_n):
    path = write_config(tmp_path, mass_n=mass_n)
    assert cli.main(["verify-lemmas", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mass_n:")
    assert "T* = " in err and "n^(1/(1+alpha)) = " in err
    assert "FAIL" not in err


def test_verify_lemmas_flags_violation(tmp_path, capsys):
    path = verify_config(tmp_path, window_min=2.0)
    rc = cli.main(["verify-lemmas", "--config", path])
    captured = capsys.readouterr()
    assert rc == 3
    assert "FAIL max_weight_window" in captured.err


@pytest.mark.parametrize("c0", [1e308, 1e-300])
def test_verify_lemmas_extreme_c0(tmp_path, capsys, c0):
    # c0^(1+alpha) overflows, or underflows to 0: the config rejects it with
    # the tail law's text, which names c0, before any suite runs
    path = verify_config(tmp_path, window_min=0.0, c0=c0)
    assert cli.main(["verify-lemmas", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"c0 = {c0}" in captured.err and "c0^(1+alpha)" in captured.err
    assert "FAIL" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["experiment", "distances"])
@pytest.mark.parametrize("c0", ["1e308", "1e-300"])
def test_extreme_c0_is_a_config_error(tmp_path, capsys, command, c0):
    # experiment recorded the error in every cell, then failed to aggregate
    # them with exit 2 and no report; distances exited 2 as well
    out = tmp_path / "out"
    assert cli.main([command, "-n", "300", "--trials", "1", "--c0", c0,
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "c0^(1+alpha)" in captured.err
    assert "FAIL" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    # 70,402 rungs at n = 20000: the message names n, alpha and the floor
    (["analyze", "-n", "20000", "--alpha", "0.999999"],
     "the ladder at n = 20000, alpha = 0.999999, floor 101.0 would have more "
     "than 1000 rungs"),
    # each (n, trial) cell would be run and counted twice
    (["experiment", "-n", "300", "-n", "300", "--trials", "2"],
     "n_values must not repeat an n, got [300, 300]"),
], ids=["rungs_70402", "n_repeated"])
def test_ladder_limit_and_repeated_n_are_config_errors(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_verify_lemmas_csv(tmp_path, capsys):
    path = verify_config(tmp_path, window_min=0.0)
    rc = cli.main(["verify-lemmas", "--config", path, "--format", "csv"])
    assert rc == 0
    report_path = capsys.readouterr().out.strip()
    assert report_path.endswith("verify_bounds.csv")
    lines = open(report_path).read().splitlines()
    assert lines[0] == "bound_id,params,lhs,rhs,slack,status"
    assert all(line.rsplit(",", 1)[1] != "fail" for line in lines[1:])
