"""Output checks of the benchmark, run after the timed region.

Each check recomputes a result with code that shares nothing with rigkit's
own algorithms:

* hop counts come from scipy.sparse.csgraph's breadth-first search on the
  vertex-attribute star graph (a hop is two bipartite steps), with the
  attributes densified here by sorting, not by rigkit;
* intersection-grid reports are recomputed with exact math.comb rationals;
* the projection (pair hops, exact hub distances, giant size, k*, bound
  statuses) is returned so that the caller can demand identical projections
  from every run of one seed.  It leaves out certificate lengths and file
  bytes, which a correct change of the program may alter.

Failures are returned as strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

# exit codes of the rigkit CLI that are results, per workload; verify-lemmas
# exits 3 when a bound report is red, which max_weight_window is by design
OK_CODES = {"cell-1e5": (0,), "bounds": (0, 3), "hub-file": (0,)}
GRID_SAMPLE = 200
# families skipped when j + k >= m, and all intersection-grid families
SIDE_CONDITION = ("no_overlap_lower", "no_overlap_upper", "edge_prob_lower", "edge_prob_upper")
INTERSECTION_FAMILIES = SIDE_CONDITION + ("overlap_tail_upper", "overlap_tail_lower",
                                          "no_overlap_exp")


class Capture:
    """Program inputs the checks need, recorded while the operation runs.

    cell-1e5 keeps the generated incidence and weights and every (u, v, hops)
    that the harness asked bfs_distance for; hub-file keeps the incidence
    read from the graph file.  The wrappers only keep references, so the measured
    operation does the same work.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.incidence = None
        self.weights = None
        self.pairs = []

    def install(self) -> None:
        from rigkit import harness, storage

        if self.workload == "cell-1e5":
            generate, bfs_distance = harness.generate, harness.bfs_distance

            def keep_graph(params, rng):
                inc, weights = generate(params, rng)
                self.incidence, self.weights = inc, weights
                return inc, weights

            def keep_pair(inc, u, v):
                res = bfs_distance(inc, u, v)
                self.pairs.append((int(u), int(v), res.hops))
                return res

            harness.generate, harness.bfs_distance = keep_graph, keep_pair
        elif self.workload == "hub-file":
            read_graph = storage.read_graph

            def keep_read(path):
                out = read_graph(path)
                self.incidence = out[0]
                return out

            storage.read_graph = keep_read


# ---------------------------------------------------------------------------
# independent hop counts


def star_graph(inc):
    """Symmetric CSR of the bipartite star graph: vertices 0..n-1, then one
    node per attribute held by at least two vertices.

    An attribute with a single holder is a leaf of the star graph and lies
    on no path between two vertices, so dropping it keeps every distance
    and makes each search several times cheaper.
    """
    import numpy as np
    import scipy.sparse as sp

    n = inc.n
    # attr_ids[set_attrs_dense] is the same array; it is the form kept once
    # set_attrs is dropped from BipartiteIncidence
    raw = getattr(inc, "set_attrs", None)
    attrs = np.asarray(raw if raw is not None else inc.attr_ids[inc.set_attrs_dense])
    order = np.argsort(attrs, kind="stable")
    ranked = attrs[order]
    first = np.ones(ranked.shape[0], dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    dense = np.empty(ranked.shape[0], dtype=np.int64)
    dense[order] = np.cumsum(first) - 1
    holders = np.bincount(dense)
    shared = holders[dense] >= 2
    new_id = np.cumsum(holders >= 2) - 1
    nodes = n + int(np.count_nonzero(holders >= 2))
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(inc.set_indptr))[shared]
    cols = n + new_id[dense[shared]]
    both_r = np.concatenate((rows, cols))
    both_c = np.concatenate((cols, rows))
    data = np.ones(both_r.shape[0], dtype=np.int8)
    return sp.csr_matrix((data, (both_r, both_c)), shape=(nodes, nodes))


def hops_from(graph, source: int, targets):
    """Intersection-graph hops from source to each target (None: unreachable)."""
    from scipy.sparse.csgraph import breadth_first_order

    _, pred = breadth_first_order(graph, source, directed=True,
                                  return_predecessors=True)
    out = []
    for t in targets:
        steps, node = 0, int(t)
        while node != source and node >= 0:
            node = int(pred[node])
            steps += 1
        out.append(steps // 2 if node == source else None)
    return out


def ladder_empty(n: int, alpha: float, c0: float, tilde_z) -> bool:
    """True when no vertex reaches the escape targets: the widest rung
    t_k* = n^(alpha^k*/(1+alpha)) ln ln(2+n), rungs kept while the power
    clears 100 + c0, or with no rung the hub cutoff t0."""
    l2n = math.log(math.log(2.0 + n))
    rungs, k = [], 1
    while (power := math.exp(alpha**k * math.log(n) / (1.0 + alpha))) >= 100.0 + c0:
        rungs.append(power * l2n)
        k += 1
    top = float(max(tilde_z))
    if rungs:
        return top < rungs[-1]
    return top <= math.exp(math.log(n) / (1.0 + alpha)) * l2n ** -alpha


# ---------------------------------------------------------------------------
# exact intersection-grid values


def _exact_terms(rep):
    """(lhs, rhs) of an intersection-family report; exact Fractions where the
    program's value is a hypergeometric probability, floats for exp bounds."""
    p = rep["params"]
    j, k, m = p["j"], p["k"], p["m"]
    total = math.comb(m, j)

    def pmf(r):
        return Fraction(math.comb(k, r) * math.comb(m - k, j - r), total)

    lo, hi = max(0, j + k - m), min(j, k)
    p0 = pmf(0) if lo == 0 else Fraction(0)
    lam = Fraction(j * k, m)
    bid = rep["bound_id"]
    if bid == "no_overlap_lower":
        return 1 - lam / (1 - Fraction(j + k, m)), p0
    if bid == "no_overlap_upper":
        return p0, 1 - lam + lam * lam
    if bid == "edge_prob_lower":
        return lam - lam * lam, 1 - p0
    if bid == "edge_prob_upper":
        return 1 - p0, lam + 2 / (1 - Fraction(j + k, m)) * lam * lam
    if bid == "no_overlap_exp":
        return p0, math.exp(-j * k / (2.0 * m))
    t = p["t"]
    lam_f = j * k / m
    if bid == "overlap_tail_upper":
        start = max(lo, math.ceil(lam + t))
        tail = sum((pmf(r) for r in range(start, hi + 1)), Fraction(0))
        rhs = 1.0 if t == 0 else math.exp(-t * t / (2.0 * (lam_f + t / 3.0)))
        return tail, rhs
    if bid == "overlap_tail_lower":
        stop = min(hi, math.floor(lam - t))
        tail = sum((pmf(r) for r in range(lo, stop + 1)), Fraction(0))
        if t == 0:
            rhs = 1.0
        else:
            rhs = 0.0 if lam == 0 else math.exp(-t * t / (2.0 * lam_f))
        return tail, rhs
    raise ValueError(f"not an intersection family: {bid}")


def check_grid_point(rep):
    """Failure text for one intersection report, or None when it agrees."""
    p = rep["params"]
    j, k, m = p["j"], p["k"], p["m"]
    where = f"{rep['bound_id']} at {p}"
    if rep["bound_id"] in SIDE_CONDITION and j + k >= m:
        return None if rep["status"] == "skipped" else f"{where}: expected skipped"
    lhs, rhs = _exact_terms(rep)
    for side, exact, got in (("lhs", lhs, rep["lhs"]), ("rhs", rhs, rep["rhs"])):
        if got is None or abs(got - float(exact)) > 1e-9 * max(1.0, abs(float(exact))):
            return f"{where}: {side} {got!r} != exact {float(exact)!r}"
    gap = float(lhs) - float(rhs) if isinstance(rhs, float) else float(lhs - rhs)
    if abs(gap) > 1e-9 and rep["status"] != ("pass" if gap < 0 else "fail"):
        return f"{where}: status {rep['status']} but exact lhs - rhs = {gap:.3g}"
    return None


# ---------------------------------------------------------------------------
# per-workload checks


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_cell(out_dir, capture):
    report = _load(os.path.join(out_dir, "experiment_report.json"))
    cell = report["cells"][0]
    failures = []
    if cell["error"] is not None:
        # An empty ladder top (about 1 instance in 7 at n = 1e5, where on
        # average 2 vertices clear t_1) is a result the harness records with
        # degenerate = true; it is verified here.  Any other error fails.
        cfg = report["config"]
        if not (cell.get("degenerate") and ladder_empty(
                cell["n"], cfg["alpha"], cfg["c0"], capture.weights.tilde_z)):
            failures.append(f"experiment cell error: {cell['error']}")
            return failures, {"error": cell["error"]}
    pairs = capture.pairs
    hops = cell["pair_hops"]
    if [h for _, _, h in pairs[:len(hops)]] != hops:
        failures.append("pair_hops in the report differ from the BFS results")
    if cell["fixed_pair"]["both_in_giant"]:
        if pairs[-1][:2] != (0, 1) or pairs[-1][2] != cell["fixed_pair"]["hops"]:
            failures.append("fixed pair (0, 1) hops differ from the BFS result")
    graph = star_graph(capture.incidence)
    for u, v, got in pairs:
        want = hops_from(graph, u, [v])[0]
        if got != want:
            failures.append(f"pair ({u}, {v}): {got} hops, independent BFS {want}")
    if not cell["hub"]["cert_sound"]:
        failures.append("a certificate is shorter than the exact distance")
    projection = {"pair_hops": hops, "fixed_pair_hops": cell["fixed_pair"]["hops"],
                  "giant_size": cell["giant_size"], "k_star": cell["k_star"]}
    return failures, projection


def check_bounds(out_dir, rc, seed):
    doc = _load(os.path.join(out_dir, "verify_bounds.json"))
    reports = doc["reports"]
    failures = []
    red = sum(rep["status"] == "fail" for rep in reports)
    if (rc == 3) != (red > 0):
        failures.append(f"exit code {rc} with {red} failing reports")
    counts = {}
    for rep in reports:
        counts[rep["status"]] = counts.get(rep["status"], 0) + 1
    if counts != doc["counts"]:
        failures.append(f"counts {doc['counts']} != tallied {counts}")
    grid = [rep for rep in reports if rep["bound_id"] in INTERSECTION_FAMILIES]
    for rep in random.Random(seed).sample(grid, min(GRID_SAMPLE, len(grid))):
        problem = check_grid_point(rep)
        if problem:
            failures.append(problem)
    projection = {"statuses": [[rep["bound_id"], rep["status"]] for rep in reports]}
    return failures, projection


def check_hubpath(out_dir, capture):
    name = [f for f in os.listdir(out_dir) if f.startswith("hubpath_")]
    frag = _load(os.path.join(out_dir, name[0]))
    failures = []
    if frag["error"] is not None:
        failures.append(f"hubpath error: {frag['error']}")
    samples = frag["samples"]
    graph = star_graph(capture.incidence)
    exact = hops_from(graph, frag["u_max"], [s["v"] for s in samples])
    for s, want in zip(samples, exact):
        if s["exact"] != want:
            failures.append(f"vertex {s['v']}: exact {s['exact']}, independent BFS {want}")
        if s["certificate"] is not None and (want is None or s["certificate"] < want):
            failures.append(f"vertex {s['v']}: certificate {s['certificate']} < exact {want}")
    projection = {"exact": [s["exact"] for s in samples], "k_star": frag["k_star"]}
    return failures, projection


def check(workload, rc, out_dir, capture, seed):
    """(failures, projection) for one finished operation."""
    if rc not in OK_CODES[workload]:
        return [f"rigkit exited with code {rc}"], None
    if workload == "cell-1e5":
        return check_cell(out_dir, capture)
    if workload == "bounds":
        return check_bounds(out_dir, rc, seed)
    return check_hubpath(out_dir, capture)
