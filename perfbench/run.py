"""Benchmark of the rigkit CLI on three workloads.

Usage, from the root of a rigkit source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one CLI process at a time, default --threads 1):

* cell-1e5: `rigkit experiment -n 100000 --trials 1 --seed N`, the headline
  experiment cell: one generation with heavy-tailed set sizes, 50 pair BFS
  runs (51 when vertices 0 and 1 are in the giant) and 50 hub certificates.
* bounds: `rigkit verify-lemmas --seed N` with the config in
  bounds_config.json, which keeps every default grid but runs the
  conditional-overlap Monte Carlo with 20000 instead of 100000 trials.  The
  sampler runs here in its other regime: many small equal-size sets in a
  small pool.
* hub-file: set-up writes one fixed n = 1e5 graph with `rigkit generate
  --seed 1`; the measured operation is `rigkit hubpath --graph FILE
  --pairs 400 --seed N`, 400 certificates on a graph read from a file, with
  no sampling of the graph.

Each measured operation runs in a fresh interpreter (perfbench/child.py), so
its peak RSS is its own; hub-file's set-up runs in another process again.
Operations start until --seconds have been spent (at least one runs).  The
last line of standard output is one JSON object; with --trace 0 it carries
the end-to-end metrics, with --trace 1 the per-layer metrics of one traced
operation, taken next to one untraced operation of the same seed.

Every CLI output goes to a temporary --out directory that is deleted at the
end.  Timings are never written there.  Spans of traced runs (with the run
record) and the result digest of each seed are kept under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cell-1e5", "bounds", "hub-file")
N = 100000
HUB_SAMPLES = 400
GRAPH_SEED = 1           # hub-file: one fixed graph; --seed draws the queries
IMPORT_PROBES = 7
TIME_LIMIT_S = 170.0     # a run must end within 180 s
STATE_DIR = ".perfbench_runs"


def op_argv(workload: str, seed: int, out_dir: str, graph: str | None) -> list:
    if workload == "cell-1e5":
        return ["experiment", "-n", str(N), "--trials", "1", "--seed", str(seed),
                "--out", out_dir]
    if workload == "bounds":
        return ["verify-lemmas", "--config", os.path.join(HERE, "bounds_config.json"),
                "--seed", str(seed), "--out", out_dir]
    return ["hubpath", "--graph", graph, "--pairs", str(HUB_SAMPLES),
            "--seed", str(seed), "--out", out_dir]


class Run:
    """One benchmark invocation: set-up, measured operations, checks."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONDONTWRITEBYTECODE="1")
        self.state = os.path.join(root, STATE_DIR)
        os.makedirs(os.path.join(self.state, "tmp"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(self.state, "tmp"))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.versions = None

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, name: str, argv: list, trace: bool, check: bool) -> dict:
        """Run one CLI command in a fresh interpreter; returns its result."""
        out_dir = os.path.join(self.work, name)
        spec = {"workload": self.workload, "seed": self.seed, "argv": argv,
                "out_dir": out_dir, "trace": trace, "check": check,
                "op": f"{self.workload}/seed{self.seed}/{name}"}
        spec_path = os.path.join(self.work, f"{name}.spec.json")
        result_path = os.path.join(self.work, f"{name}.result.json")
        log_path = os.path.join(self.work, f"{name}.log")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            with open(log_path, "w") as log:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            self.failures.append(f"{name}: stopped after {exc.timeout:.0f} s, "
                                 f"the run's time limit")
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            self.failures.append(f"{name}: benchmark child exited {proc.returncode}: {tail}")
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        self.versions = result["versions"]
        for problem in result["failures"]:
            self.failures.append(f"{name}: {problem}")
        return result

    def import_probe(self):
        """Seconds to start an interpreter and import rigkit.cli, or None."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", "import rigkit.cli"],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.failures.append("import probe: stopped at the run's time limit")
            return None
        if proc.returncode != 0:
            self.failures.append(f"import probe exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
            return None
        return time.perf_counter() - t0

    def build_graph(self):
        """hub-file set-up: `rigkit generate` in its own process, then the
        graph file's sha256 against the one the CLI wrote to .meta.json.
        Returns (graph path or None when generation failed, child result)."""
        out_dir = os.path.join(self.work, "setup")
        argv = ["generate", "-n", str(N), "--trials", "1", "--seed", str(GRAPH_SEED),
                "--out", out_dir]
        self.attempted += 1
        result = self.child("setup", argv, self.trace, check=False)
        if result is None or result["rc"] != 0:
            self.failed += 1
            if result is not None:
                self.failures.append(f"setup: rigkit generate exited {result['rc']}")
            return None, result
        graph = os.path.join(out_dir, f"graph_n{N}_t0.rig")
        with open(graph + ".meta.json") as fh:
            meta = json.load(fh)
        digest = hashlib.sha256()
        with open(graph, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        if digest.hexdigest() != meta["sha256"]:
            self.failed += 1
            self.failures.append("setup: graph file sha256 differs from .meta.json")
        return graph, result

    def same_as_before(self, name: str, projection) -> None:
        """Every run of one seed must give the same result projection.  After
        changing a workload's definition, delete .perfbench_runs/projections."""
        if projection is None:
            return
        doc = json.dumps(projection, sort_keys=True)
        digest = hashlib.sha256(doc.encode()).hexdigest()
        path = os.path.join(self.state, "projections", f"{self.workload}-seed{self.seed}.sha256")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            with open(path) as fh:
                before = fh.read().strip()
            if before != digest:
                self.failures.append(f"{name}: result projection differs from an "
                                     f"earlier run of seed {self.seed}")
        elif not self.failures:
            with open(path, "w") as fh:
                fh.write(digest + "\n")

    def measured(self, name: str, graph, trace: bool) -> dict:
        before = len(self.failures)
        self.attempted += 1
        argv = op_argv(self.workload, self.seed, os.path.join(self.work, name), graph)
        result = self.child(name, argv, trace, check=True)
        if result is not None:
            self.same_as_before(name, result["projection"])
        if len(self.failures) > before:
            self.failed += 1
        return result

    def execute(self) -> dict:
        """Set-up and measured operations.  When set-up fails no operation
        runs, and no metric is reported."""
        probes = [p for p in (self.import_probe() for _ in range(IMPORT_PROBES))
                  if p is not None]
        res = {"probes": probes, "inputs_s": 0.0, "setup_s": None,
               "setup": None, "ops": [], "traced": None}
        graph = None
        if self.workload == "hub-file":
            graph, res["setup"] = self.build_graph()
            if graph is None:
                return res
            res["inputs_s"] = res["setup"]["wall_s"]
        if probes:
            res["setup_s"] = statistics.median(probes) + res["inputs_s"]

        # Start operations until --seconds have been spent measuring; a traced
        # run takes one untraced operation as its reference.
        ops = res["ops"]
        t0 = time.perf_counter()
        while True:
            result = self.measured(f"op{len(ops)}", graph, trace=False)
            ops.append(result)
            spent = time.perf_counter() - t0
            if (result is None or self.trace or spent >= self.seconds
                    or self.remaining() < 2 * spent / len(ops)):
                break
        if self.trace and result is not None:
            res["traced"] = self.measured("traced", graph, trace=True)
        return res

    def record(self) -> dict:
        commit = None
        if os.path.isdir(os.path.join(self.root, ".git")):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        mem_total = None
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
        return {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                "trace": self.trace, "commit": commit, "nproc": os.cpu_count(),
                "mem_total": mem_total, **(self.versions or {})}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def tail_note(values) -> str:
    import spans
    q = spans.tail_percentile(len(values))
    if q is None or q == 50:
        return "no higher percentile (needs >= 20 samples)"
    return f"p{q} {spans.percentile(values, q):.4f}"


def end_to_end(run: Run, res: dict):
    walls = [op["wall_s"] for op in res["ops"]]
    rss = [op["peak_rss_mb"] for op in res["ops"]]
    lines = [
        f"wall_s       p50 {statistics.median(walls):.4f} s, {tail_note(walls)}, "
        f"{len(walls)} sample(s)",
        f"peak_rss_mb  p50 {statistics.median(rss):.1f} MB, max {max(rss):.1f} MB, "
        f"{len(rss)} sample(s)",
        f"setup_s      {res['setup_s']:.4f} s = import median {statistics.median(res['probes']):.4f} s "
        f"of {len(res['probes'])} + inputs {res['inputs_s']:.4f} s",
        f"error_rate   {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f} ratio",
    ]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": res["setup_s"], "unit": "s"},
    }
    return metrics, lines


def per_layer(run: Run, res: dict, record: dict):
    import spans
    traced, plain = res["traced"], res["ops"][0]
    setup_spans = (res["setup"] or {}).get("spans") or []
    layers = spans.layer_metrics(traced["spans"], setup_spans)
    tail_q = spans.tail_percentile(layers["graphops.pair_bfs_calls"][0])
    layers["hubnav.k_star"] = ((traced["projection"] or {}).get("k_star", 0), "count")
    layers["cli.import_s"] = (traced["import_s"], "s")
    layers["trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    path = os.path.join(run.state, "traces", f"{run.workload}-seed{run.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"record": record, "layers": layers,
                   "spans": setup_spans + traced["spans"]}, fh)
    lines = [f"{name:34s} {value:.6g} {unit}" for name, (value, unit) in layers.items()]
    lines.append(f"graphops.pair_bfs_tail_s is p{tail_q or 50}")
    lines.append(f"spans written to {os.path.relpath(path, run.root)}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rigkit", "cli.py")):
        print("perfbench: no rigkit source tree (src/rigkit) in the current directory",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    res = None
    try:
        res = run.execute()
    except Exception as exc:  # a broken harness still ends with a result line
        run.failures.append(f"benchmark: {type(exc).__name__}: {exc}")
        run.failed += 1
        run.attempted = max(run.attempted, run.failed)
    finally:
        run.close()

    record = run.record()
    if (res is None or res["setup_s"] is None or not res["ops"] or None in res["ops"]
            or (args.trace and res["traced"] is None)):
        metrics, lines = {}, []
    elif args.trace:
        metrics, lines = per_layer(run, res, record)
    else:
        metrics, lines = end_to_end(run, res)

    print(f"perfbench {args.workload} seed {args.seed}: {run.attempted} CLI operation(s), "
          f"{run.failed} failed")
    for line in lines:
        print("  " + line)
    for problem in run.failures:
        print("  FAILED " + problem)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
