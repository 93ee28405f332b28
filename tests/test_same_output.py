"""The same-output rule in Tier-1: the sweep's small commands, run in-process,
write the bytes that tests/golden/sweep.sha256 records.

scripts/same_output_sweep.py holds the one command list, and checks the
commands on larger instances against the same manifest (--manifest check).
"""

import importlib.util
import pathlib

from rigkit import cli

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "same_output_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("same_output_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_sweep_matches_manifest(tmp_path, monkeypatch):
    # every command of n <= 2000: both graph formats and the reports read
    # from them, the top-up-heavy --m 2000, --m 300 and -n 100 --c0 100
    # cells, the isolated-apex graph and the ten small verify-lemmas
    # configs; a path that differs, or that only one side holds, is named
    sweep = load_sweep()
    small = [cmd for cmd in sweep.commands() if cmd.n <= sweep.TIER1_N]
    sweep.write_inputs(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for cmd in small:
        cli.main([*cmd.args, "--out", cmd.out])
    outs = [cmd.out + "/" for cmd in small]
    header, want = sweep.read_manifest()
    want = {path: digest for path, digest in want.items() if path.startswith(tuple(outs))}
    got = sweep.output_digests(str(tmp_path), [cmd.out for cmd in small])
    assert len(want) > len(small)
    differ = sweep.differing(want, got)
    assert not differ, (f"{len(differ)} of {len(want)} outputs differ from the manifest "
                        f"({header[2:]}; this run {sweep.versions()[2:]}): "
                        + ", ".join(differ))
