"""Command line front end.

Subcommands: generate, analyze, distances, hubpath, verify-lemmas,
experiment.  Every subcommand accepts --config (a JSON file whose keys are
ExperimentConfig fields) plus a handful of overriding flags; flags win over
the file.  Exit codes: 0 success, 1 invalid configuration, 2 runtime
failure, 3 verify-lemmas found a violated bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness
from .harness import ConfigError, ExperimentConfig

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3

# the subcommands on one instance, generated or read from --graph: each
# one's report function and its CSV rows; analyze has none, writes JSON
# only, and names its report without n and trial
_SINGLE = {"analyze": (harness.run_analyze, None),
           "distances": (harness.run_distances, harness.distances_rows),
           "hubpath": (harness.run_hubpath, harness.hubpath_rows)}


def _add_common(sub: argparse.ArgumentParser) -> None:
    # every dest that names an ExperimentConfig field overrides that field
    sub.add_argument("--config", metavar="PATH",
                     help="JSON config file (keys = ExperimentConfig fields)")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    sub.add_argument("--threads", type=int, help="worker processes")
    sub.add_argument("--format", choices=("json", "csv"),
                     help="report file format")
    sub.add_argument("-n", type=int, action="append", dest="n_values",
                     metavar="N", help="vertex count (repeatable)")
    sub.add_argument("--alpha", type=float, help="tail exponent in (0,1)")
    sub.add_argument("--c0", type=float, help="weight scale")
    sub.add_argument("--m", type=int, help="attribute pool size (default: m-rule)")
    sub.add_argument("--trials", type=int, help="trials per n")
    sub.add_argument("--epsilon", type=float, help="bound slack")
    sub.add_argument("--pairs", type=int, dest="pairs_per_trial",
                     help="sampled pairs / vertices per trial")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigkit",
        description="Power-law random intersection graphs: generation, "
                    "distances, hub navigation, bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample graphs and write graph files")
    _add_common(p)
    p.add_argument("--graph-format", choices=("binary", "json"),
                   dest="graph_format", help="graph file format")

    p = sub.add_parser("analyze", help="structure summary of one instance")
    _add_common(p)
    p.add_argument("--graph", metavar="PATH", help="existing graph file")

    p = sub.add_parser("distances", help="giant-pair distances vs the (2+eps) bound")
    _add_common(p)
    p.add_argument("--graph", metavar="PATH", help="existing graph file")
    p.add_argument("--trial", type=int, default=0, help="trial index")

    p = sub.add_parser("hubpath", help="hub distances and certificates")
    _add_common(p)
    p.add_argument("--graph", metavar="PATH", help="existing graph file")
    p.add_argument("--trial", type=int, default=0, help="trial index")

    p = sub.add_parser("verify-lemmas", help="run all bound suites")
    _add_common(p)

    p = sub.add_parser("experiment", help="full n-ladder with aggregation")
    _add_common(p)
    return parser


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "trial", 0) < 0:
        raise ConfigError(f"--trial must be a nonnegative integer, got {args.trial}")
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig(n_values=[1000])
    overrides = {f.name: value for f in dataclasses.fields(cfg)
                 if (value := getattr(args, f.name, None)) is not None}
    return dataclasses.replace(cfg, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "generate":
            metas = harness.run_generate(cfg)
            for meta in metas:
                print(os.path.join(cfg.out_dir, meta["path"]))
            return EXIT_OK

        if args.command in _SINGLE:
            run, rows = _SINGLE[args.command]
            trial = getattr(args, "trial", 0)
            t = (harness.Trial.generated(cfg, cfg.n_values[0], trial) if args.graph is None
                 else harness.Trial.from_file(cfg, args.graph, trial))
            frag = run(cfg, t)
            name = "analyze" if rows is None else f"{args.command}_n{frag['n']}_t{trial}"
            print(harness.write_fragment(cfg, name, frag, rows))
            return EXIT_OK

        if args.command == "verify-lemmas":
            failed = []

            def noting_failures(reports):
                # the reports stream into the file; only the failing ones stay
                for rep in reports:
                    if rep.status == "fail":
                        failed.append(rep)
                    yield rep

            print(harness.write_verify_report(cfg, noting_failures(harness.run_verify(cfg))))
            for rep in failed:
                print(f"FAIL {rep.bound_id} at {rep.params}: "
                      f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}", file=sys.stderr)
            return EXIT_CHECK if failed else EXIT_OK

        if args.command == "experiment":
            report = harness.run_experiment(cfg)
            for path in harness.write_experiment_report(cfg, report):
                print(path)
            return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
