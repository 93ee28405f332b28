"""The same-output rule in Tier-1: the sweep's small commands, run in-process,
write the bytes that tests/golden/sweep.sha256 records.

scripts/same_output_sweep.py holds the one command list, and checks every
command against the same manifest too (--manifest check), one interpreter
each.  The commands on larger instances run here under the long marker,
which pyproject.toml deselects by default: `pytest -m long` runs them.
"""

import importlib.util
import pathlib

import pytest

from rigkit import cli

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "same_output_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("same_output_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_against_manifest(cmds, root, monkeypatch):
    """Run cmds in-process into root and assert that each of their outputs
    has its manifest digest; a path that differs, or that only one side
    holds, is named."""
    sweep = load_sweep()
    sweep.write_inputs(str(root))
    monkeypatch.chdir(root)
    for cmd in cmds:
        cli.main([*cmd.args, "--out", cmd.out])
    outs = tuple(cmd.out + "/" for cmd in cmds)
    header, want = sweep.read_manifest()
    want = {path: digest for path, digest in want.items() if path.startswith(outs)}
    got = sweep.output_digests(str(root), [cmd.out for cmd in cmds])
    assert len(want) > len(cmds)
    differ = sweep.differing(want, got)
    assert not differ, (f"{len(differ)} of {len(want)} outputs differ from the manifest "
                        f"({header[2:]}; this run {sweep.versions()[2:]}): "
                        + ", ".join(differ))


def test_small_sweep_matches_manifest(tmp_path, monkeypatch):
    # every command of n <= 2000: both graph formats and the reports read
    # from them, the top-up-heavy --m 2000, --m 300 and -n 100 --c0 100
    # cells, the isolated-apex graph and the ten small verify-lemmas configs
    sweep = load_sweep()
    check_against_manifest([cmd for cmd in sweep.commands() if cmd.n <= sweep.TIER1_N],
                           tmp_path, monkeypatch)


@pytest.mark.long
def test_large_sweep_matches_manifest(tmp_path, monkeypatch):
    # every command of n >= 20000, about a minute: the n = 1e5 graph-file
    # reads of the hub-file instance, the ladders at n = 1e5 and 3e5, the
    # three-n experiment and verify-lemmas with perfbench's bounds config.
    # Deselected by default (pyproject.toml); run it with `pytest -m long`.
    sweep = load_sweep()
    check_against_manifest([cmd for cmd in sweep.commands() if cmd.n > sweep.TIER1_N],
                           tmp_path, monkeypatch)
