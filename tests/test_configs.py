"""The checked-in configs, the README quick tour and the public names keep
working.

Each configs/<subcommand>-<name>.json must load unchanged, and a shrunk
copy must run through the CLI and write reports that validate against the
report schema.  The README's python block is executed as written.  Every
name the package and its modules list in __all__ resolves.
"""

import importlib
import inspect
import json
import pathlib
import re

import pytest

import rigkit
from rigkit import cli, report_schema
from rigkit.harness import ExperimentConfig

jsonschema = pytest.importorskip("jsonschema")

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
COMMANDS = ("generate", "analyze", "distances", "hubpath", "verify-lemmas", "experiment")
SMALL_VERIFY = {"verify_m_values": [100], "verify_jk_max": 5, "coverage_trials": 100,
                "overlap_trials": 2000, "mass_n": 2000, "mass_trials": 10}


def test_configs_cover_the_paper_runs():
    assert [p.name for p in CONFIGS] == [
        "analyze-n30000.json", "experiment-alpha05.json", "experiment-alpha08.json",
        "hubpath-n30000.json", "verify-lemmas-default.json"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_runs_shrunk(path, tmp_path):
    ExperimentConfig.from_json(path)
    command = next(c for c in COMMANDS if path.stem.startswith(c + "-"))
    doc = json.loads(path.read_text())
    # a ladder shrinks to n = 200 and 300, a single n to 300
    doc.update(n_values=[200, 300][-len(doc["n_values"]):], trials=1, pairs_per_trial=5,
               out_dir=str(tmp_path / "out"))
    if command == "verify-lemmas":
        doc.update(SMALL_VERIFY)
    small = tmp_path / path.name
    small.write_text(json.dumps(doc))
    rc = cli.main([command, "--config", str(small)])
    assert rc in ((0, 3) if command == "verify-lemmas" else (0,))
    written = sorted((tmp_path / "out").glob("*.json"))
    assert written
    for report in written:
        jsonschema.validate(json.loads(report.read_text()), report_schema())


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    giant_fraction, certificate = capsys.readouterr().out.split()
    assert 0.0 < float(giant_fraction) <= 1.0 and int(certificate) >= 0


@pytest.mark.parametrize("name", ["rigkit"] + [f"rigkit.{m}" for m in (
    "cli", "graphgen", "graphops", "harness", "hubnav", "model", "storage", "verify")])
def test_public_names_resolve(name):
    # a stale __all__ entry makes `from <module> import *` raise AttributeError;
    # a function or class the module defines under a public name is listed,
    # and one that only the module and its tests use takes a leading underscore
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert [entry for entry in listed if not hasattr(module, entry)] == []
    assert len(set(listed)) == len(listed)
    own = [key for key, obj in vars(module).items() if not key.startswith("_")
           and (inspect.isfunction(obj) or inspect.isclass(obj))
           and obj.__module__ == name]
    assert [key for key in own if key not in listed] == []


def test_package_lists_every_function_and_class_it_imports():
    public = [name for name, obj in vars(rigkit).items() if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))]
    assert public and set(public) <= set(rigkit.__all__)
