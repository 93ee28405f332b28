"""Same-output sweep: run a fixed set of rigkit commands and keep every output.

Usage, from the root of a rigkit source tree:

    python3 scripts/same_output_sweep.py ROOT [--src DIR] [--manifest check|write]

Runs 209 CLI commands, one fresh interpreter each, with the rigkit package
in DIR (default: this tree's src/):

* distances, hubpath, analyze and a two-trial experiment, in JSON and in
  CSV, at n in {300, 2000, 20000} x seeds {1, 5, 9};
* generate at the same n and seeds, as a binary and as a JSON graph file,
  then distances, hubpath and analyze on each graph file; the reports of
  the two files of one cell are the same bytes;
* generate at n = 2000 with a pool of m = 2000, seeds {1, 5, 9}, as a
  binary graph file, then analyze on each file: the largest sets are a
  sizeable share of the pool, so the sampler's top-up runs several rounds
  (6, 1 and 1); and the same cells sampled by analyze itself, beside a
  two-trial experiment at n = 300 with a pool of m = 300 (top-up rounds
  1 and 3, 1 and 1, 1 and 2);
* hubpath at n = 100 with c0 = 100, seed 1: sets of nearly the whole pool,
  whose last free attributes the sampler tops up over 6,752 rounds, so
  that every change to the sampler meets a many-round instance;
* hubpath at n = 100000 with 400 samples, seeds {51, 53, 56}, where the
  ladder has a rung (k* = 1), so the climbs walk a real ladder; at the
  smaller n every certificate is degenerate (k* = 0);
* hubpath with 400 samples on the graph file of generate -n 100000
  --seed 1 (binary), at seeds {1, 2}: the benchmark's hub-file instance,
  whose top layer is {u_max}, so the hub BFS leaves a complete ball and
  every escape is a pure descent through it; distances with 50 pairs on
  the same file at seed 2, whose pairs are drawn at the config's seed
  while its report carries the file's; and hubpath at n = 100000, seed 85,
  with 400 samples, whose top layer holds six vertices, the apex (vertex
  73975) among them, so the hub BFS's ball is restarted for that layer and
  each escape that does not start in it is a forward search;
* hubpath at n = 300000, alpha = 0.9, with 200 samples, seeds {1, 5, 6},
  in JSON and in CSV, and analyze on the same cells, where the ladder has
  three rungs (k* = 3) of which two are occupied: climbs of two hops,
  climbs that dead-end below the apex, and the layer sizes of a real
  ladder;
* analyze, and hubpath in JSON and in CSV, at n = 20000, seed 1, with
  alpha 0.999 (70 rungs) and 0.9999 (704 rungs): long ladders whose top
  layer is empty, so hubpath reports that it has no escape targets;
* analyze and hubpath on a hand-built rig-json graph of 8 vertices whose
  apex (vertex 3) holds only attributes of its own, so u_max is isolated
  and lies outside the giant, which no seed in 1-119 gives at n = 300, 2000
  or 20000;
* a three-n experiment ladder, and verify-lemmas with
  perfbench/bounds_config.json, each in JSON and in CSV;
* verify-lemmas with ten small configs, in JSON and in CSV, so that
  every bound-report status is written: the base config alone gives 60
  skipped intersection reports, and six others each change one thing
  to give a boundary, an inconclusive and an adjudicated conditional
  overlap, 40 skipped tail-mass reports, and failing mass checks at
  mass_n 14 and at mass_n 20 with alpha 0.5; the eighth checks the
  intersection bounds at the large pools m = 5000 and m = 1.5e8; the
  ninth checks j, k up to 45 at m = 90 and m = 1.5e8, so one command
  writes tails up to t = 45 and skipped points where j + k >= 90; every
  intersection report of these two passes or is skipped, and each writes
  one fail, the max-weight window of criterion 9c; the tenth sets c0 and
  mass_gamma to JSON integers, which the tail-mass reports carry in their
  params as they are.

Every command runs inside ROOT with relative paths, so no output names ROOT.
ROOT/log.txt gets each command's arguments, exit code, standard output and
standard error.  To compare two source trees, sweep each into its own root
and compare the roots:

    python3 scripts/same_output_sweep.py /tmp/sweep-a --src /path/to/a/src
    python3 scripts/same_output_sweep.py /tmp/sweep-b --src /path/to/b/src
    diff -r /tmp/sweep-a /tmp/sweep-b

tests/golden/sweep.sha256 holds the SHA-256 of every output, one
"digest  path" line each (sha256sum's layout, relative to ROOT), under a
header naming the Python and numpy versions that made it.  --manifest check
compares every output of the sweep with it, names each path whose digest
differs or that is missing on either side, and exits 1 if any does;
--manifest write rewrites it from the sweep.  An intended output change
rewrites the manifest, so its diff names the files that moved.
tests/test_same_output.py runs the commands of n <= 2000 (TIER1_N)
in-process through rigkit.cli.main and checks their outputs against the
same manifest; its long-marked test does the same for the larger ones
(`pytest -m long`, deselected by default).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)
MANIFEST = os.path.join(TREE, "tests", "golden", "sweep.sha256")
# the commands whose instances have at most this many vertices run in the
# default test run; the larger ones, in the long-marked test
TIER1_N = 2000
BOUNDS_CONFIG = "bounds_config.json"
# the vertex count of perfbench/bounds_config.json's largest instance: its
# mass suite keeps the default mass_n
BOUNDS_N = 100000
NS = (300, 2000, 20000)
SEEDS = (1, 5, 9)
FORMATS = ("json", "csv")
SINGLE = ("distances", "hubpath", "analyze")
LADDER_SEEDS = (51, 53, 56)
RUNGS_SEEDS = (1, 5, 6)
HUB_FILE_SEEDS = (1, 2)
LONG_ALPHAS = ("0.999", "0.9999")
# the small verify-lemmas configs: each is SMALL_VERIFY with its changes
SMALL_VERIFY = {"n_values": [1000], "verify_m_values": [20, 100, 1000],
                "verify_jk_max": 12, "coverage_trials": 200, "overlap_trials": 2000,
                "mass_n": 2000, "mass_trials": 20}
SMALL_CHANGES = {
    "base": {},
    "boundary": {"overlap_point": [50, 3, 100, 10000]},
    "inconclusive": {"overlap_point": [1, 4, 9, 10000], "overlap_trials": 20},
    "adjudicated": {"overlap_point": [500, 64, 1000, 100000]},
    "c0-above-pole": {"c0": 100.0},  # above 2000^(1/1.8), the t-grid's top
    "mass-n14": {"mass_n": 14, "mass_trials": 10},
    "mass-n20-a0.5": {"mass_n": 20, "mass_trials": 10, "alpha": 0.5},
    "large-m": {"verify_m_values": [5000, 150000000]},
    "long-tails": {"verify_m_values": [90, 150000000], "verify_jk_max": 45},
    "int-params": {"c0": 2, "mass_gamma": 1},
}
# the apex, vertex 3, holds only attributes of its own (the graph of
# tests/test_harness.py's ISOLATED_APEX_SETS)
ISOLATED_APEX = {"format": "rig-json", "version": 1, "n": 8, "m": 20, "alpha": 0.8,
                 "c0": 1.0, "seed": 3,
                 "sets": [[0], [0, 1], [1], [10, 11, 12, 13, 14, 15], [2], [2], [3], []]}


class Command(NamedTuple):
    """One CLI command: its output directory, its arguments without --out,
    and the vertex count of the largest instance it samples or reads."""

    out: str
    args: list
    n: int


def commands() -> list:
    """Every Command, in run order."""
    cmds = []
    for n in NS:
        for seed in SEEDS:
            cell = f"n{n}-s{seed}"
            common = ["-n", str(n), "--seed", str(seed)]
            for fmt in FORMATS:
                for sub in SINGLE:
                    cmds.append(Command(f"{sub}/{cell}-{fmt}", [sub, *common, "--format", fmt],
                                        n))
                cmds.append(Command(f"experiment/{cell}-{fmt}",
                                    ["experiment", *common, "--trials", "2", "--format", fmt],
                                    n))
            for graph_format in ("binary", "json"):
                cmds.append(Command(f"generate/{cell}-{graph_format}",
                                    ["generate", *common, "--trials", "1",
                                     "--graph-format", graph_format], n))
            for graph, kind in ((f"generate/{cell}-binary/graph_n{n}_t0.rig", "graph"),
                                (f"generate/{cell}-json/graph_n{n}_t0.json", "jsongraph")):
                for sub in SINGLE:
                    cmds.append(Command(f"{sub}-{kind}/{cell}",
                                        [sub, "--graph", graph, "--seed", str(seed)], n))
    for seed in SEEDS:
        cell = f"n2000-m2000-s{seed}"
        cmds.append(Command(f"generate/{cell}",
                            ["generate", "-n", "2000", "--m", "2000", "--seed", str(seed),
                             "--trials", "1", "--graph-format", "binary"], 2000))
        cmds.append(Command(f"analyze-graph/{cell}",
                            ["analyze", "--graph", f"generate/{cell}/graph_n2000_t0.rig",
                             "--seed", str(seed)], 2000))
        cmds.append(Command(f"analyze/{cell}",
                            ["analyze", "-n", "2000", "--m", "2000", "--seed", str(seed)],
                            2000))
        cmds.append(Command(f"experiment/n300-m300-s{seed}",
                            ["experiment", "-n", "300", "--m", "300", "--seed", str(seed),
                             "--trials", "2"], 300))
    cmds.append(Command("hubpath/n100-c100-s1",
                        ["hubpath", "-n", "100", "--c0", "100", "--seed", "1"], 100))
    for seed in LADDER_SEEDS:
        for fmt in FORMATS:
            cmds.append(Command(f"hubpath/n100000-s{seed}-{fmt}",
                                ["hubpath", "-n", "100000", "--seed", str(seed),
                                 "--pairs", "400", "--format", fmt], 100000))
    hub_file = "generate/n100000-s1-binary"
    cmds.append(Command(hub_file, ["generate", "-n", "100000", "--seed", "1", "--trials", "1",
                                   "--graph-format", "binary"], 100000))
    for seed in HUB_FILE_SEEDS:
        cmds.append(Command(f"hubpath-graph/n100000-s{seed}",
                            ["hubpath", "--graph", f"{hub_file}/graph_n100000_t0.rig",
                             "--seed", str(seed), "--pairs", "400"], 100000))
    cmds.append(Command("distances-graph/n100000-s2",
                        ["distances", "--graph", f"{hub_file}/graph_n100000_t0.rig",
                         "--seed", "2", "--pairs", "50"], 100000))
    cmds.append(Command("hubpath/n100000-s85",
                        ["hubpath", "-n", "100000", "--seed", "85", "--pairs", "400"], 100000))
    for seed in RUNGS_SEEDS:
        for fmt in FORMATS:
            cmds.append(Command(f"hubpath/n300000-a0.9-s{seed}-{fmt}",
                                ["hubpath", "-n", "300000", "--alpha", "0.9", "--seed",
                                 str(seed), "--pairs", "200", "--format", fmt], 300000))
        cmds.append(Command(f"analyze/n300000-a0.9-s{seed}",
                            ["analyze", "-n", "300000", "--alpha", "0.9", "--seed", str(seed)],
                            300000))
    for alpha in LONG_ALPHAS:
        common = ["-n", "20000", "--seed", "1", "--alpha", alpha]
        cmds.append(Command(f"analyze/n20000-a{alpha}-s1", ["analyze", *common], 20000))
        for fmt in FORMATS:
            cmds.append(Command(f"hubpath/n20000-a{alpha}-s1-{fmt}",
                                ["hubpath", *common, "--format", fmt], 20000))
    for sub in ("analyze", "hubpath"):
        cmds.append(Command(f"{sub}-graph/isolated-apex",
                            [sub, "--graph", "isolated-apex.json", "--seed", "1"],
                            ISOLATED_APEX["n"]))
    ladder = [arg for n in NS for arg in ("-n", str(n))]
    for fmt in FORMATS:
        cmds.append(Command(f"ladder/{fmt}",
                            ["experiment", *ladder, "--seed", "1", "--trials", "2",
                             "--format", fmt], max(NS)))
    for fmt in FORMATS:
        cmds.append(Command(f"verify/{fmt}",
                            ["verify-lemmas", "--config", BOUNDS_CONFIG, "--seed", "1",
                             "--format", fmt], BOUNDS_N))
    for name, changes in SMALL_CHANGES.items():
        config = {**SMALL_VERIFY, **changes}
        for fmt in FORMATS:
            cmds.append(Command(f"verify-{name}/{fmt}",
                                ["verify-lemmas", "--config", f"verify-{name}.json",
                                 "--seed", "1", "--format", fmt],
                                max(*config["n_values"], config["mass_n"])))
    return cmds


def write_inputs(root: str) -> None:
    """Write the files that the commands read into root, so that their
    paths inside root are relative: perfbench's bounds config, the small
    verify-lemmas configs and the isolated-apex graph."""
    with open(os.path.join(TREE, "perfbench", "bounds_config.json")) as fh:
        config = fh.read()
    with open(os.path.join(root, BOUNDS_CONFIG), "w") as fh:
        fh.write(config)
    for name, changes in SMALL_CHANGES.items():
        with open(os.path.join(root, f"verify-{name}.json"), "w") as fh:
            json.dump({**SMALL_VERIFY, **changes}, fh)
    with open(os.path.join(root, "isolated-apex.json"), "w") as fh:
        json.dump(ISOLATED_APEX, fh)


def versions() -> str:
    """The manifest's header line: the Python and numpy versions."""
    import numpy

    return f"# python {platform.python_version()}, numpy {numpy.__version__}"


def output_digests(root: str, outs) -> dict:
    """The SHA-256 of every file under root/out, for each out in outs,
    keyed by its path relative to root."""
    digests = {}
    for out in outs:
        for folder, dirs, files in os.walk(os.path.join(root, out)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return digests


def read_manifest(path: str = MANIFEST):
    """(header line, {path: digest}) of a manifest."""
    digests = {}
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        for line in fh:
            digest, name = line.rstrip("\n").split("  ", 1)
            digests[name] = digest
    return header, digests


def write_manifest(digests: dict, path: str = MANIFEST) -> None:
    with open(path, "w") as fh:
        fh.write(versions() + "\n")
        for name in sorted(digests):
            fh.write(f"{digests[name]}  {name}\n")


def differing(want: dict, got: dict) -> list:
    """The paths whose digests differ, or that only one side holds."""
    return sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="directory for every output (created)")
    parser.add_argument("--src", default=os.path.join(TREE, "src"),
                        help="directory holding the rigkit package")
    parser.add_argument("--manifest", choices=("check", "write"),
                        help="after the sweep, check every output against "
                             "tests/golden/sweep.sha256, or rewrite it")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "rigkit")):
        parser.error(f"no rigkit package under {src}")
    os.makedirs(args.root, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    write_inputs(args.root)
    cmds = commands()
    with open(os.path.join(args.root, "log.txt"), "w") as log:
        for i, cmd in enumerate(cmds, start=1):
            argv_ = [*cmd.args, "--out", cmd.out]
            proc = subprocess.run([sys.executable, "-m", "rigkit.cli", *argv_],
                                  cwd=args.root, env=env, capture_output=True,
                                  text=True)
            log.write(f"$ rigkit {' '.join(argv_)}\nexit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}\n")
            print(f"[{i}/{len(cmds)}] exit {proc.returncode}: rigkit {' '.join(argv_)}",
                  flush=True)
    if args.manifest is None:
        return 0
    got = output_digests(args.root, [cmd.out for cmd in cmds])
    if args.manifest == "write":
        write_manifest(got)
        print(f"wrote {len(got)} digests to {MANIFEST}")
        return 0
    header, want = read_manifest()
    differ = differing(want, got)
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(differ)} of {len(want.keys() | got.keys())} outputs differ from "
          f"{MANIFEST} ({header[2:]}; this run {versions()[2:]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
