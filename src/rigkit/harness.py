"""Experiment orchestration: configs, seed ladders, trials, report files.

Every quantity in a report is a pure function of the ExperimentConfig.  The
stream for trial t at size n is SeedSequence(seed, spawn_key=(n, t)), so
cells are independent and replayable in isolation; within a cell the rng is
consumed in a fixed order (weights, subsets, then sampling).  Reports are
written with sorted keys and no timestamps, which makes reruns byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import storage
from .graphgen import generate
from .graphops import UNREACHED, bfs_distance, components, distances_from, maximal_vertex
from .hubnav import LadderError, decompose, loglog_certificate, thresholds
from .model import ModelParams, default_attribute_count, iterated_log, trial_rng
from .verify import (
    check_conditional_overlap,
    check_intersection_bounds,
    check_tail_mass,
    check_union_coverage,
    degree_tail_report,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_generate",
    "run_analyze",
    "run_distances",
    "run_hubpath",
    "run_verify",
    "run_experiment",
    "write_json_report",
    "write_bound_reports",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Knobs for one run.  JSON configs use exactly these field names."""

    n_values: list
    alpha: float = 0.8
    c0: float = 1.0
    m: Optional[int] = None          # None -> default_attribute_count(n)
    epsilon: float = 1.0
    pairs_per_trial: int = 50
    hub_samples_per_trial: Optional[int] = None  # None -> pairs_per_trial
    trials: int = 5
    seed: int = 1
    out_dir: str = "runs"
    threads: int = 1
    format: str = "json"             # report format: json or csv
    graph_format: str = "binary"     # generate subcommand: binary or json
    hub_floor: Optional[float] = None
    # verify-lemmas knobs
    verify_m_values: list = field(default_factory=lambda: [100, 300, 1000])
    verify_jk_max: int = 30
    coverage_m: int = 13000
    coverage_gamma1: float = 0.1
    coverage_gamma2: float = 0.5
    coverage_set_count: int = 10
    coverage_trials: int = 2000
    coverage_n: int = 1000
    overlap_point: list = field(default_factory=lambda: [40, 16, 100, 10000])
    overlap_trials: int = 100000
    mass_n: int = 100000
    mass_trials: int = 100
    mass_gamma: float = 0.5
    mass_tau: Optional[float] = None
    window_min: float = 0.9

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ConfigError("n_values must be a nonempty list")
        for n in self.n_values:
            if int(n) != n or n < 2:
                raise ConfigError(f"every n must be an integer >= 2, got {n}")
        self.n_values = [int(n) for n in self.n_values]
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.c0 <= 0:
            raise ConfigError("c0 must be positive")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.pairs_per_trial < 1:
            raise ConfigError("pairs_per_trial must be >= 1")
        if self.hub_samples_per_trial is not None and self.hub_samples_per_trial < 1:
            raise ConfigError("hub_samples_per_trial must be >= 1 when set")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if self.graph_format not in ("binary", "json"):
            raise ConfigError("graph_format must be binary or json")
        if self.m is not None:
            if self.m < max(self.n_values):
                raise ConfigError("explicit m must be >= every n in the ladder")
        else:
            for n in self.n_values:
                if default_attribute_count(n) < n:
                    raise ConfigError(f"m-rule yields m < n at n = {n}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def m_for(self, n: int) -> int:
        return self.m if self.m is not None else default_attribute_count(n)

    def params_for(self, n: int) -> ModelParams:
        return ModelParams(n=n, m=self.m_for(n), alpha=self.alpha, c0=self.c0)

    def hub_samples(self) -> int:
        return (self.pairs_per_trial if self.hub_samples_per_trial is None
                else self.hub_samples_per_trial)

    def pair_bound(self, n: int) -> float:
        return (2.0 + self.epsilon) * iterated_log(n) / math.log(1.0 / self.alpha)

    def hub_bound(self, n: int) -> float:
        return (1.0 + self.epsilon) * iterated_log(n) / math.log(1.0 / self.alpha)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# report writing


def write_json_report(path, doc) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _flatten_params(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def write_bound_reports(path, reports) -> None:
    """BoundReport sequence as CSV: bound_id, params, lhs, rhs, slack, status."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bound_id", "params", "lhs", "rhs", "slack", "status"])
        for rep in reports:
            writer.writerow([rep.bound_id, _flatten_params(rep.params),
                             repr(rep.lhs), repr(rep.rhs), repr(rep.slack),
                             rep.status])


def _write_rows_csv(path, header, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


# ---------------------------------------------------------------------------
# graph materialization


def _materialize(cfg: ExperimentConfig, n: int, trial: int, graph_path=None):
    """Return (inc, weights, params, seed_used, sampling_rng).

    Fresh graphs consume the trial stream for weights and subsets and hand
    the same stream over for sampling; loaded graphs get a fresh sampling
    stream from the same splitting rule.
    """
    if graph_path is not None:
        inc, header, weights = storage.read_graph(graph_path)
        params = header.params()
        rng = trial_rng(cfg.seed, params.n, trial)
        return inc, weights, params, header.seed, rng
    params = cfg.params_for(n)
    rng = trial_rng(cfg.seed, n, trial)
    inc, weights = generate(params, rng)
    return inc, weights, params, cfg.seed, rng


# ---------------------------------------------------------------------------
# run_* operations


def run_generate(cfg: ExperimentConfig) -> list:
    """Write one graph file per (n, trial) plus a metadata sidecar each."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    ext = "rig" if cfg.graph_format == "binary" else "json"
    out = []
    for n in cfg.n_values:
        params = cfg.params_for(n)
        for trial in range(cfg.trials):
            rng = trial_rng(cfg.seed, n, trial)
            inc, _ = generate(params, rng)
            name = f"graph_n{n}_t{trial}.{ext}"
            path = os.path.join(cfg.out_dir, name)
            try:
                storage.write_graph(path, inc, cfg.alpha, cfg.c0, cfg.seed,
                                    fmt=cfg.graph_format)
            except OSError as exc:
                raise RuntimeError(f"cannot write graph to {path}: {exc}") from exc
            meta = {
                "kind": "generate",
                "n": n,
                "m": params.m,
                "alpha": cfg.alpha,
                "c0": cfg.c0,
                "seed": cfg.seed,
                "trial": trial,
                "path": name,
                "bytes": os.path.getsize(path),
                "sha256": storage.file_checksum(path),
                "incidence": inc.total_incidence,
                "occupied_attrs": inc.num_occupied,
            }
            write_json_report(path + ".meta.json", meta)
            out.append(meta)
    return out


def run_analyze(cfg: ExperimentConfig, graph_path=None) -> dict:
    """Structure summary of one instance: components, degrees, ladder."""
    n = cfg.n_values[0]
    inc, weights, params, seed, _ = _materialize(cfg, n, 0, graph_path)
    comp = components(inc)
    th = thresholds(params.n, params.alpha, params.c0, cfg.hub_floor)
    dec = decompose(weights, th)
    tail = degree_tail_report(inc)
    u_max = maximal_vertex(weights)
    return {
        "kind": "analyze",
        "n": params.n,
        "m": params.m,
        "alpha": params.alpha,
        "c0": params.c0,
        "seed": seed,
        "components": int(comp.count),
        "giant_size": int(comp.sizes[comp.giant]),
        "giant_fraction": comp.giant_fraction(),
        "u_max": int(u_max),
        "u_max_size": int(weights.sizes[u_max]),
        "k_star": dec.k_star,
        "hub_core_size": int(dec.hub_core.shape[0]),
        "layer_sizes": [int(layer.shape[0]) for layer in dec.layers],
        "degree_tail": tail.to_dict(),
    }


def _sample_pairs(pool: np.ndarray, count: int, rng: np.random.Generator):
    """count pairs drawn uniformly from pool, distinct within each pair."""
    pairs = np.empty((count, 2), dtype=np.int64)
    for i in range(count):
        pairs[i] = rng.choice(pool, size=2, replace=False)
    return pairs


def run_distances(cfg: ExperimentConfig, n: Optional[int] = None,
                  trial: int = 0, graph_path=None) -> dict:
    """Pair distances within the giant component against the (2+eps) bound.

    Samples pairs_per_trial uniform giant pairs plus the fixed labeled pair
    (0, 1) conditioned on both endpoints lying in the giant.
    """
    n = n if n is not None else cfg.n_values[0]
    inc, weights, params, seed, rng = _materialize(cfg, n, trial, graph_path)
    comp = components(inc)
    bound = cfg.pair_bound(params.n)
    frag = {
        "kind": "distances",
        "n": params.n,
        "m": params.m,
        "alpha": params.alpha,
        "c0": params.c0,
        "seed": seed,
        "trial": trial,
        "epsilon": cfg.epsilon,
        "bound": bound,
        "giant_size": int(comp.sizes[comp.giant]),
        "giant_fraction": comp.giant_fraction(),
        "empty": False,
        "pairs": [],
        "pass_rate": None,
        "fixed_pair": None,
    }
    giant = comp.giant_vertices()
    if giant.shape[0] < 2:
        frag["empty"] = True
        return frag
    pairs = _sample_pairs(giant, cfg.pairs_per_trial, rng)
    hops = []
    for u, v in pairs:
        res = bfs_distance(inc, int(u), int(v))
        hops.append(res.hops)
        frag["pairs"].append({"u": int(u), "v": int(v), "hops": res.hops})
    finite = [h for h in hops if h is not None]
    if finite:
        frag["pass_rate"] = sum(h <= bound for h in finite) / len(finite)

    both = bool(params.n > 1 and comp.labels[0] == comp.giant
                and comp.labels[1] == comp.giant)
    fixed = {"u": 0, "v": 1, "both_in_giant": both, "hops": None,
             "pass": None}
    if both:
        res = bfs_distance(inc, 0, 1)
        fixed["hops"] = res.hops
        if res.hops is not None:
            fixed["pass"] = bool(res.hops <= bound)
    frag["fixed_pair"] = fixed
    return frag


def run_hubpath(cfg: ExperimentConfig, n: Optional[int] = None,
                trial: int = 0, graph_path=None) -> dict:
    """Hub distances and certificates against the (1+eps) bound.

    Samples vertices uniformly; for those with a finite distance to the
    maximal vertex, records the exact distance and a full certificate.
    """
    n = n if n is not None else cfg.n_values[0]
    inc, weights, params, seed, rng = _materialize(cfg, n, trial, graph_path)
    bound = cfg.hub_bound(params.n)
    th = thresholds(params.n, params.alpha, params.c0, cfg.hub_floor)
    dec = decompose(weights, th)
    u_max = maximal_vertex(weights)
    comp = components(inc)
    frag = {
        "kind": "hubpath",
        "n": params.n,
        "m": params.m,
        "alpha": params.alpha,
        "c0": params.c0,
        "seed": seed,
        "trial": trial,
        "epsilon": cfg.epsilon,
        "bound": bound,
        "k_star": dec.k_star,
        "t0": dec.th.t0,
        "hub_core_size": int(dec.hub_core.shape[0]),
        "top_layer_size": int(dec.top_layer().shape[0]),
        "u_max": int(u_max),
        "u_max_in_giant": bool(comp.labels[u_max] == comp.giant),
        "degenerate": False,
        "error": None,
        "samples": [],
        "pass_rate": None,
        "escape_success_rate": None,
        "climb_success_rate": None,
    }
    try:
        _, degenerate = dec.escape_targets()
        frag["degenerate"] = bool(degenerate)
    except LadderError as exc:
        frag["degenerate"] = True
        frag["error"] = str(exc)
        return frag

    hub_dist = distances_from(inc, u_max)
    count = cfg.hub_samples()
    sampled = rng.choice(params.n, size=count, replace=count > params.n)
    finite_hits = 0
    passed = 0
    escapes = 0
    climbs = 0
    for v in sampled:
        v = int(v)
        exact = int(hub_dist[v]) if hub_dist[v] != UNREACHED else None
        cert = loglog_certificate(inc, dec, v, u_max, u_max)
        entry = {
            "v": v,
            "exact": exact,
            "certificate": cert.certificate_hops,
            "escape_hops": None if cert.escape_a is None else cert.escape_a.total_hops,
            "climb_hops": None if cert.climb_a is None else cert.climb_a.total_hops,
            "failed_stage": cert.failed_stage,
            "pass": None,
        }
        if cert.escape_a is not None:
            escapes += 1
            if cert.climb_a is not None:
                climbs += 1
        if exact is not None:
            finite_hits += 1
            entry["pass"] = bool(exact <= bound)
            passed += entry["pass"]
        frag["samples"].append(entry)
    if finite_hits:
        frag["pass_rate"] = passed / finite_hits
    frag["escape_success_rate"] = escapes / count
    if escapes:
        frag["climb_success_rate"] = climbs / escapes
    return frag


def run_verify(cfg: ExperimentConfig) -> list:
    """All four bound suites with the configured grids; returns the reports."""
    rng = trial_rng(cfg.seed, 0, 0)
    grid = [(j, k, m) for m in cfg.verify_m_values
            for j in range(cfg.verify_jk_max + 1)
            for k in range(cfg.verify_jk_max + 1)]
    reports = list(check_intersection_bounds(grid))

    g1, g2 = cfg.coverage_gamma1, cfg.coverage_gamma2
    size = math.ceil(6.0 * g2 * (g2 - g1) ** -2 * math.log(cfg.coverage_n))
    sizes = [size] * cfg.coverage_set_count
    if sum(sizes) > g1 * cfg.coverage_m:
        raise ConfigError(
            f"coverage grid inconsistent: {cfg.coverage_set_count} sets of "
            f"{size} exceed gamma1*m = {g1 * cfg.coverage_m:g}")
    reports.append(check_union_coverage(cfg.coverage_m, g1, g2, sizes,
                                        cfg.coverage_n, cfg.coverage_trials, rng))

    a, b, d, m = cfg.overlap_point
    reports.append(check_conditional_overlap(a, b, d, m, cfg.overlap_trials, rng))

    reports.extend(check_tail_mass(
        n=cfg.mass_n, alpha=cfg.alpha, c0=cfg.c0, rng=rng,
        gamma=cfg.mass_gamma, tau=cfg.mass_tau, trials=cfg.mass_trials,
        window_min=cfg.window_min))
    return reports


# ---------------------------------------------------------------------------
# the full experiment ladder


def _experiment_cell(args) -> dict:
    """One (n, trial) work unit; must stay module-level for process pools."""
    cfg_dict, n, trial = args
    cfg = ExperimentConfig(**cfg_dict)
    try:
        return _experiment_cell_inner(cfg, n, trial)
    except Exception as exc:  # recorded, the run continues
        return {"n": n, "trial": trial, "error": f"{type(exc).__name__}: {exc}"}


def _experiment_cell_inner(cfg: ExperimentConfig, n: int, trial: int) -> dict:
    params = cfg.params_for(n)
    rng = trial_rng(cfg.seed, n, trial)
    inc, weights = generate(params, rng)
    comp = components(inc)
    th = thresholds(params.n, params.alpha, params.c0, cfg.hub_floor)
    dec = decompose(weights, th)
    u_max = maximal_vertex(weights)
    l2n = iterated_log(n)

    v0 = dec.hub_core
    v0_in_giant = bool(np.all(comp.labels[v0] == comp.giant)) if v0.size else True
    v0_threshold = 2.0 * params.law().tail_constant * l2n ** (
        params.alpha * (1.0 + params.alpha))

    cell = {
        "n": n,
        "trial": trial,
        "error": None,
        "m": params.m,
        "giant_fraction": comp.giant_fraction(),
        "giant_size": int(comp.sizes[comp.giant]),
        "u_max": int(u_max),
        "u_max_in_giant": bool(comp.labels[u_max] == comp.giant),
        "v0_size": int(v0.shape[0]),
        "v0_in_giant": v0_in_giant,
        "v0_above_threshold": bool(v0.shape[0] >= v0_threshold),
        "k_star": dec.k_star,
        "degenerate": False,
        "pair_hops": [],
        "pair_pass_rate": None,
        "fixed_pair": None,
        "hub": None,
    }

    pair_bound = cfg.pair_bound(n)
    giant = comp.giant_vertices()
    if giant.shape[0] >= 2:
        pairs = _sample_pairs(giant, cfg.pairs_per_trial, rng)
        hops = [bfs_distance(inc, int(u), int(v)).hops for u, v in pairs]
        finite = [h for h in hops if h is not None]
        cell["pair_hops"] = hops
        if finite:
            cell["pair_pass_rate"] = sum(h <= pair_bound for h in finite) / len(finite)
    both = bool(comp.labels[0] == comp.giant and n > 1
                and comp.labels[1] == comp.giant)
    fixed = {"both_in_giant": both, "hops": None}
    if both:
        fixed["hops"] = bfs_distance(inc, 0, 1).hops
    cell["fixed_pair"] = fixed

    hub_bound = cfg.hub_bound(n)
    hub = {"samples": 0, "finite": 0, "passed": 0, "escape_ok": 0,
           "climb_ok": 0, "certificates": 0, "cert_sound": True,
           "max_climb_hops": 0}
    try:
        _, degenerate = dec.escape_targets()
    except LadderError as exc:
        cell["degenerate"] = True
        cell["error"] = str(exc)
        cell["hub"] = hub
        return cell
    cell["degenerate"] = bool(degenerate)

    hub_dist = distances_from(inc, u_max)
    count = cfg.hub_samples()
    sampled = rng.choice(n, size=count, replace=count > n)
    for v in sampled:
        v = int(v)
        hub["samples"] += 1
        cert = loglog_certificate(inc, dec, v, u_max, u_max)
        if cert.escape_a is not None:
            hub["escape_ok"] += 1
            if cert.climb_a is not None:
                hub["climb_ok"] += 1
                hub["max_climb_hops"] = max(hub["max_climb_hops"],
                                            cert.climb_a.total_hops)
        if cert.certificate_hops is not None:
            hub["certificates"] += 1
            if cert.exact_hops is None or cert.certificate_hops < cert.exact_hops:
                hub["cert_sound"] = False
        if hub_dist[v] != UNREACHED:
            hub["finite"] += 1
            hub["passed"] += bool(hub_dist[v] <= hub_bound)
    cell["hub"] = hub
    return cell


def _quantiles(values) -> Optional[dict]:
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(arr)),
        "median": float(np.median(arr)),
        "p90": float(np.quantile(arr, 0.9)),
        "max": float(np.max(arr)),
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """The full ladder: trials per n, aggregated per n and overall."""
    tasks = [(cfg.to_dict(), n, t) for n in cfg.n_values
             for t in range(cfg.trials)]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            cells = list(pool.map(_experiment_cell, tasks))
    else:
        cells = [_experiment_cell(t) for t in tasks]
    cells.sort(key=lambda c: (c["n"], c["trial"]))

    per_n = []
    for n in cfg.n_values:
        group = [c for c in cells if c["n"] == n and c.get("error") is None]
        failed = [c for c in cells if c["n"] == n and c.get("error") is not None]
        fractions = [c["giant_fraction"] for c in group]
        pooled_hops = [h for c in group for h in c["pair_hops"] if h is not None]
        hub_finite = sum(c["hub"]["finite"] for c in group)
        hub_passed = sum(c["hub"]["passed"] for c in group)
        hub_samples = sum(c["hub"]["samples"] for c in group)
        hub_escapes = sum(c["hub"]["escape_ok"] for c in group)
        hub_climbs = sum(c["hub"]["climb_ok"] for c in group)
        l2n = iterated_log(n)
        stats = _quantiles(pooled_hops)
        per_n.append({
            "n": n,
            "m": cfg.m_for(n),
            "l2n": l2n,
            "trials_ok": len(group),
            "trials_failed": len(failed),
            "rho_hat_min": min(fractions) if fractions else None,
            "rho_hat_mean": (float(np.mean(fractions)) if fractions else None),
            "u_max_in_giant_freq": (float(np.mean([c["u_max_in_giant"] for c in group]))
                                    if group else None),
            "v0_in_giant_freq": (float(np.mean([c["v0_in_giant"] for c in group]))
                                 if group else None),
            "v0_threshold_freq": (float(np.mean([c["v0_above_threshold"] for c in group]))
                                  if group else None),
            "pair_bound": cfg.pair_bound(n),
            "hub_bound": cfg.hub_bound(n),
            "pair_distance": stats,
            "mean_over_l2n": (stats["mean"] / l2n if stats else None),
            "pair_pass_rate": (sum(h <= cfg.pair_bound(n) for h in pooled_hops)
                               / len(pooled_hops) if pooled_hops else None),
            "hub_pass_rate": hub_passed / hub_finite if hub_finite else None,
            "escape_success_rate": (hub_escapes / hub_samples
                                    if hub_samples else None),
            "climb_success_rate": hub_climbs / hub_escapes if hub_escapes else None,
        })
    return {
        "kind": "experiment",
        "config": cfg.to_dict(),
        "cells": cells,
        "aggregates": {"per_n": per_n},
    }


# ---------------------------------------------------------------------------
# fragment -> CSV projections (used when cfg.format == "csv")


def distances_rows(frag: dict):
    header = ["kind", "n", "trial", "u", "v", "hops", "bound", "within_bound"]
    rows = []
    for p in frag["pairs"]:
        rows.append(["distances", frag["n"], frag["trial"], p["u"], p["v"],
                     p["hops"], repr(frag["bound"]),
                     None if p["hops"] is None else p["hops"] <= frag["bound"]])
    fixed = frag.get("fixed_pair")
    if fixed and fixed["both_in_giant"]:
        rows.append(["distances_fixed", frag["n"], frag["trial"], fixed["u"],
                     fixed["v"], fixed["hops"], repr(frag["bound"]),
                     fixed["pass"]])
    return header, rows


def hubpath_rows(frag: dict):
    header = ["kind", "n", "trial", "v", "exact", "certificate",
              "escape_hops", "climb_hops", "failed_stage", "bound",
              "within_bound"]
    rows = []
    for s in frag["samples"]:
        rows.append(["hubpath", frag["n"], frag["trial"], s["v"], s["exact"],
                     s["certificate"], s["escape_hops"], s["climb_hops"],
                     s["failed_stage"], repr(frag["bound"]), s["pass"]])
    return header, rows


def write_fragment(cfg: ExperimentConfig, name: str, frag: dict,
                   rows_fn=None) -> str:
    """Write a fragment in the configured format, returning the path."""
    if cfg.format == "json" or rows_fn is None:
        path = os.path.join(cfg.out_dir, f"{name}.json")
        write_json_report(path, frag)
    else:
        path = os.path.join(cfg.out_dir, f"{name}.csv")
        header, rows = rows_fn(frag)
        _write_rows_csv(path, header, rows)
    return path
