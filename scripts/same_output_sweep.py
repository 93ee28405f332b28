"""Same-output sweep: run a fixed set of rigkit commands and keep every output.

Usage, from the root of a rigkit source tree:

    python3 scripts/same_output_sweep.py ROOT [--src DIR]

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
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)
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


def commands(bounds_config: str) -> list:
    """(output directory, CLI arguments) of every command, in run order."""
    cmds = []
    for n in NS:
        for seed in SEEDS:
            cell = f"n{n}-s{seed}"
            common = ["-n", str(n), "--seed", str(seed)]
            for fmt in FORMATS:
                for sub in SINGLE:
                    cmds.append((f"{sub}/{cell}-{fmt}", [sub, *common, "--format", fmt]))
                cmds.append((f"experiment/{cell}-{fmt}",
                             ["experiment", *common, "--trials", "2", "--format", fmt]))
            for graph_format in ("binary", "json"):
                cmds.append((f"generate/{cell}-{graph_format}",
                             ["generate", *common, "--trials", "1",
                              "--graph-format", graph_format]))
            for graph, kind in ((f"generate/{cell}-binary/graph_n{n}_t0.rig", "graph"),
                                (f"generate/{cell}-json/graph_n{n}_t0.json", "jsongraph")):
                for sub in SINGLE:
                    cmds.append((f"{sub}-{kind}/{cell}",
                                 [sub, "--graph", graph, "--seed", str(seed)]))
    for seed in SEEDS:
        cell = f"n2000-m2000-s{seed}"
        cmds.append((f"generate/{cell}",
                     ["generate", "-n", "2000", "--m", "2000", "--seed", str(seed),
                      "--trials", "1", "--graph-format", "binary"]))
        cmds.append((f"analyze-graph/{cell}",
                     ["analyze", "--graph", f"generate/{cell}/graph_n2000_t0.rig",
                      "--seed", str(seed)]))
        cmds.append((f"analyze/{cell}",
                     ["analyze", "-n", "2000", "--m", "2000", "--seed", str(seed)]))
        cmds.append((f"experiment/n300-m300-s{seed}",
                     ["experiment", "-n", "300", "--m", "300", "--seed", str(seed),
                      "--trials", "2"]))
    cmds.append(("hubpath/n100-c100-s1",
                 ["hubpath", "-n", "100", "--c0", "100", "--seed", "1"]))
    for seed in LADDER_SEEDS:
        for fmt in FORMATS:
            cmds.append((f"hubpath/n100000-s{seed}-{fmt}",
                         ["hubpath", "-n", "100000", "--seed", str(seed),
                          "--pairs", "400", "--format", fmt]))
    hub_file = "generate/n100000-s1-binary"
    cmds.append((hub_file, ["generate", "-n", "100000", "--seed", "1", "--trials", "1",
                            "--graph-format", "binary"]))
    for seed in HUB_FILE_SEEDS:
        cmds.append((f"hubpath-graph/n100000-s{seed}",
                     ["hubpath", "--graph", f"{hub_file}/graph_n100000_t0.rig",
                      "--seed", str(seed), "--pairs", "400"]))
    cmds.append(("distances-graph/n100000-s2",
                 ["distances", "--graph", f"{hub_file}/graph_n100000_t0.rig",
                  "--seed", "2", "--pairs", "50"]))
    cmds.append(("hubpath/n100000-s85",
                 ["hubpath", "-n", "100000", "--seed", "85", "--pairs", "400"]))
    for seed in RUNGS_SEEDS:
        for fmt in FORMATS:
            cmds.append((f"hubpath/n300000-a0.9-s{seed}-{fmt}",
                         ["hubpath", "-n", "300000", "--alpha", "0.9", "--seed",
                          str(seed), "--pairs", "200", "--format", fmt]))
        cmds.append((f"analyze/n300000-a0.9-s{seed}",
                     ["analyze", "-n", "300000", "--alpha", "0.9", "--seed", str(seed)]))
    for alpha in LONG_ALPHAS:
        common = ["-n", "20000", "--seed", "1", "--alpha", alpha]
        cmds.append((f"analyze/n20000-a{alpha}-s1", ["analyze", *common]))
        for fmt in FORMATS:
            cmds.append((f"hubpath/n20000-a{alpha}-s1-{fmt}",
                         ["hubpath", *common, "--format", fmt]))
    for sub in ("analyze", "hubpath"):
        cmds.append((f"{sub}-graph/isolated-apex",
                     [sub, "--graph", "isolated-apex.json", "--seed", "1"]))
    ladder = [arg for n in NS for arg in ("-n", str(n))]
    for fmt in FORMATS:
        cmds.append((f"ladder/{fmt}",
                     ["experiment", *ladder, "--seed", "1", "--trials", "2",
                      "--format", fmt]))
    for fmt in FORMATS:
        cmds.append((f"verify/{fmt}",
                     ["verify-lemmas", "--config", bounds_config, "--seed", "1",
                      "--format", fmt]))
    for name in SMALL_CHANGES:
        for fmt in FORMATS:
            cmds.append((f"verify-{name}/{fmt}",
                         ["verify-lemmas", "--config", f"verify-{name}.json",
                          "--seed", "1", "--format", fmt]))
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="directory for every output (created)")
    parser.add_argument("--src", default=os.path.join(TREE, "src"),
                        help="directory holding the rigkit package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "rigkit")):
        parser.error(f"no rigkit package under {src}")
    os.makedirs(args.root, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    # the config is copied in, so that its path inside ROOT is relative too
    with open(os.path.join(TREE, "perfbench", "bounds_config.json")) as fh:
        config = fh.read()
    with open(os.path.join(args.root, "bounds_config.json"), "w") as fh:
        fh.write(config)
    for name, changes in SMALL_CHANGES.items():
        with open(os.path.join(args.root, f"verify-{name}.json"), "w") as fh:
            json.dump({**SMALL_VERIFY, **changes}, fh)
    with open(os.path.join(args.root, "isolated-apex.json"), "w") as fh:
        json.dump(ISOLATED_APEX, fh)
    cmds = commands("bounds_config.json")
    with open(os.path.join(args.root, "log.txt"), "w") as log:
        for i, (out, cli_args) in enumerate(cmds, start=1):
            argv_ = [*cli_args, "--out", out]
            proc = subprocess.run([sys.executable, "-m", "rigkit.cli", *argv_],
                                  cwd=args.root, env=env, capture_output=True,
                                  text=True)
            log.write(f"$ rigkit {' '.join(argv_)}\nexit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}\n")
            print(f"[{i}/{len(cmds)}] exit {proc.returncode}: rigkit {' '.join(argv_)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
