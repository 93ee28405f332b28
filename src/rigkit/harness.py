"""Experiment orchestration: configs, seed ladders, trials, report files.

Every quantity in a report is a pure function of the ExperimentConfig, and
of the graph file when one is given.  The stream for trial t at size n is
SeedSequence(seed, spawn_key=(n, t)), so cells are independent and
replayable in isolation.  Each instance is one Trial, built by
Trial.generated, whose stream is consumed for weights and subsets, or by
Trial.from_file, whose stream starts fresh at the file's n, and whose
realized weights are made from the file's full sizes only after its
instance is shrunk to its shared entries and its core is built.  Either
stream then gives the sampled pairs, then the sampled hub vertices:
run_distances and run_hubpath draw them, and an experiment cell is the
summary of those two reports.  Reports are written with sorted keys and no
timestamps, which makes reruns byte-identical.  An experiment with more
than one worker imports concurrent.futures, and multiprocessing with it,
when it starts its process pool; no other run, and no import of this
module, loads them.
verify_bounds.json is rendered directly from the bound reports as they
stream from the suites, one report at a time and none kept, in the layout of
json.dump(sort_keys=True, indent=2), with NaN in lhs, rhs and slack written
as null; every other JSON report goes through json.dump.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, Optional

import numpy as np

from . import graphgen, storage
from .graphgen import _occupied_attrs, _vertex_major, pack_error
# perfbench hooks this name
from .graphgen import generate
from .graphops import (UNREACHED, TraversalCore, bfs_distance, components, distances_from,
                       nearest_routes)
from .hubnav import LadderError, decompose, loglog_certificate, thresholds
from .model import (ModelParams, TailLaw, default_attribute_count, iterated_log,
                    realized_weights, trial_rng)
from .verify import (
    BoundReport,
    check_conditional_overlap,
    check_intersection_bounds,
    check_tail_mass,
    check_union_coverage,
    coverage_error,
    coverage_size,
    degree_tail_report,
    hypergeom_error,
    mass_gamma_error,
    mass_regime_error,
    mass_tau_error,
    overlap_point_error,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Trial",
    "run_generate",
    "run_analyze",
    "run_distances",
    "run_hubpath",
    "run_verify",
    "run_experiment",
    "write_json_report",
    "write_rows_csv",
    "write_bound_reports",
    "write_verify_report",
    "write_experiment_report",
    "write_fragment",
    "distances_rows",
    "hubpath_rows",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# Least value of the integer fields and list entries that must be positive;
# other integers must be >= 0.  Integers must fit in int64, the seed in uint64.
_LEAST = {"n_values": 2, "verify_m_values": 1, "overlap_point": 1, "m": 1,
          "pairs_per_trial": 1, "hub_samples_per_trial": 1, "trials": 1,
          "threads": 1, "coverage_m": 1, "coverage_set_count": 1,
          "coverage_trials": 1, "coverage_n": 2, "overlap_trials": 1,
          "mass_n": 2, "mass_trials": 2}


def _check_type(name: str, kind: str, value) -> None:
    """Raise ConfigError unless value fits the field's annotated type kind:
    an integer in range, a finite number, a list of integers, or a string."""
    if value is None and "Optional" in kind:
        return
    least, most = _LEAST.get(name, 0), 2**64 - 1 if name == "seed" else 2**63 - 1

    def integer(v) -> bool:  # bool is an int subclass; JSON true is not 1
        return isinstance(v, int) and not isinstance(v, bool) and least <= v <= most

    if "int" in kind:
        ok, want = integer(value), f"an integer in [{least}, {most}]"
    elif "float" in kind:
        ok, want = (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and abs(value) <= sys.float_info.max), "a finite number"
    elif "list" in kind:
        ok = isinstance(value, list) and all(map(integer, value))
        want = f"a list of integers in [{least}, {most}]"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")


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
        # integral floats such as 1e5 are accepted in n_values only
        if isinstance(self.n_values, list):
            self.n_values = [int(n) if isinstance(n, float) and n.is_integer() else n
                             for n in self.n_values]
        for f in fields(self):
            _check_type(f.name, str(f.type), getattr(self, f.name))
        if not self.n_values:
            raise ConfigError("n_values must be a nonempty list")
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigError(f"n_values must not repeat an n, got {self.n_values}")
        if len(self.overlap_point) != 4:
            raise ConfigError("overlap_point must be [a, b, d, m]")
        try:  # alpha in (0, 1), and a positive finite tail constant c0^(1+alpha)
            TailLaw(self.alpha, self.c0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # the verify-lemmas suites' own rules, each the function its suite
        # calls, checked before any suite runs; the coverage and overlap
        # rules include the packing limit of the sets their suites draw
        for name, error in (
                # the grid's worst point: j = k = verify_jk_max at the least m
                ("verify_jk_max", hypergeom_error(
                    self.verify_jk_max, self.verify_jk_max,
                    min(self.verify_m_values, default=self.verify_jk_max))),
                ("coverage_m", coverage_error(self.coverage_m, self.coverage_gamma1,
                    self.coverage_gamma2, self.coverage_n, self.coverage_set_count)),
                ("overlap_point", overlap_point_error(*self.overlap_point, self.overlap_trials)),
                ("mass_n", mass_regime_error(self.mass_n, self.alpha)),
                ("mass_tau", mass_tau_error(self.mass_tau, self.alpha)),
                ("mass_gamma", mass_gamma_error(self.mass_gamma))):
            if error is not None:
                raise ConfigError(f"{name}: {error}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if self.graph_format not in ("binary", "json"):
            raise ConfigError("graph_format must be binary or json")
        if self.m is not None and self.m < max(self.n_values):
            raise ConfigError("explicit m must be >= every n in the ladder")
        for n in self.n_values:
            error = pack_error(n, self.m_for(n))
            if error is not None:
                raise ConfigError(error)
            try:  # a ladder of at most MAX_RUNGS rungs, with a floor above 1
                thresholds(n, self.alpha, self.c0, self.hub_floor)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        # ValueError covers invalid JSON, invalid UTF-8 and integer literals
        # past Python's digit limit; RecursionError, deeply nested arrays
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
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

    def pair_bound(self, params: ModelParams) -> float:
        """(2+eps) * ln ln(2+n) / ln(1/alpha), at the instance's n and alpha."""
        return (2.0 + self.epsilon) * iterated_log(params.n) / math.log(1.0 / params.alpha)

    def hub_bound(self, params: ModelParams) -> float:
        """(1+eps) * ln ln(2+n) / ln(1/alpha), at the instance's n and alpha."""
        return (1.0 + self.epsilon) * iterated_log(params.n) / math.log(1.0 / params.alpha)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# one trial: the instance and its two sampling loops


def _instance_header(kind: str, params: ModelParams, seed: int) -> dict:
    """The fields of one instance, (params, seed), under a report kind."""
    return {"kind": kind, "n": params.n, "m": params.m, "alpha": params.alpha,
            "c0": params.c0, "seed": seed}


def _sample_pairs(pool: np.ndarray, count: int, rng: np.random.Generator):
    """count pairs drawn uniformly from pool, distinct within each pair."""
    pairs = np.empty((count, 2), dtype=np.int64)
    for i in range(count):
        pairs[i] = rng.choice(pool, size=2, replace=False)
    return pairs


class Trial:
    """One instance: its traversal core, components, ladder and stream.

    Built from the trial index, params, seed, the stream left to draw from,
    the traversal core and the weights, with the ladder's hub_floor.  Two
    constructors supply an instance: generated draws it from the config's
    stream (generate), and from_file reads a graph file in full.  Each
    shrinks its instance in place to the shared entries (graphgen's
    keep_core), builds the core once from those sorted keys and drops its
    own reference to the incidence before the components are labelled, so
    the keys are freed there unless a caller holds them; the vertex-major
    ids are never derived.  The components are labelled
    from the apex u_max, which leaves the core's ball the complete ball of
    {u_max}, so hub_samples' hub BFS is a copy.  Callers draw pairs before
    hub vertices.
    """

    def __init__(self, trial: int, params: ModelParams, seed: int,
                 rng: np.random.Generator, core: TraversalCore, weights,
                 hub_floor: Optional[float]):
        self.trial, self.params, self.seed, self.rng = trial, params, seed, rng
        self.weights = weights
        self.core = core
        self.dec = decompose(weights, thresholds(params.n, params.alpha, params.c0, hub_floor))
        self.comp = components(self.core, self.dec.u_max)
        self.giant_size = int(self.comp.sizes[self.comp.giant])
        labels, giant = self.comp.labels, self.comp.giant
        self.u_max_in_giant = bool(labels[self.dec.u_max] == giant)
        self.fixed_in_giant = bool(params.n > 1 and labels[0] == giant and labels[1] == giant)

    @classmethod
    def generated(cls, cfg: ExperimentConfig, n: int, trial: int) -> "Trial":
        """Instance (n, trial) of the config: weights and subsets are the
        first draws of trial_rng(cfg.seed, n, trial), which keeps drawing.
        generate samples the subsets attribute-major, as the core reads
        them, and the instance is shrunk in place to its shared entries
        (keep_core), so no full keys outlive the sampler."""
        params, rng = cfg.params_for(n), trial_rng(cfg.seed, n, trial)
        inc, weights = generate(params, rng)
        inc.keep_core()
        core = TraversalCore(inc)
        del inc
        return cls(trial, params, cfg.seed, rng, core, weights, cfg.hub_floor)

    @classmethod
    def from_file(cls, cfg: ExperimentConfig, path, trial: int) -> "Trial":
        """The instance of a graph file, which supplies the incidence, params
        and seed.  Its weights are the realized ones, size / sqrt(m/n) of
        the full sizes, and it draws from trial_rng(cfg.seed, file n,
        trial): the config's seed, not the file's.  The incidence read is
        full; its sizes are taken, and it is shrunk in place to its shared
        entries (keep_core), as a generated one is, so the full keys are
        gone before the core is built from those.  The float weights are
        made from the sizes only once the core is built and the keys are
        freed, so they never sit beside the full keys."""
        inc, params, seed = storage.read_graph(path)
        sizes = inc.sizes()
        inc.keep_core()
        core = TraversalCore(inc)
        del inc
        return cls(trial, params, seed, trial_rng(cfg.seed, params.n, trial), core,
                   realized_weights(params, sizes), cfg.hub_floor)

    def header(self, kind: str) -> dict:
        """The instance fields that open every single-trial report."""
        return _instance_header(kind, self.params, self.seed)

    def pairs(self, count: int):
        """Hops of count uniform giant pairs, then of the fixed pair (0, 1).

        Returns (sampled, fixed): sampled lists (u, v, hops) and is empty when
        the giant has fewer than two vertices; fixed is measured last, and only
        when both 0 and 1 lie in the giant (else it is None).
        """
        sampled = []
        giant = self.comp.giant_vertices()
        if giant.shape[0] >= 2:
            for u, v in _sample_pairs(giant, count, self.rng):
                u, v = int(u), int(v)
                sampled.append((u, v, bfs_distance(self.core, u, v).hops))
        fixed = bfs_distance(self.core, 0, 1).hops if self.fixed_in_giant else None
        return sampled, fixed

    def hub_samples(self, count: int):
        """Exact hub distance and certificate of count uniform vertices.

        Returns (degenerate, error, samples), samples listing (v, exact, cert)
        with exact None off u_max's component.  One BFS out of u_max, run
        when the trial labelled its components, gives every exact distance.
        One nearest_routes call then finds the escape of every drawn vertex
        and of u_max at once, and the target ball keeps them, so each escape
        that a certificate makes is a lookup.  When the ladder has no escape
        targets nothing is drawn: error holds the LadderError text.
        """
        try:
            targets, degenerate = self.dec.escape_targets()
        except LadderError as exc:
            return True, str(exc), []
        u_max = self.dec.u_max
        hub_dist = distances_from(self.core, u_max)
        n = self.params.n
        drawn = self.rng.choice(n, size=count, replace=count > n)
        nearest_routes(self.core, np.append(drawn, u_max), targets)
        samples = []
        for v in drawn.tolist():
            exact = None if hub_dist[v] == UNREACHED else int(hub_dist[v])
            samples.append((v, exact, loglog_certificate(self.core, self.dec, v, u_max)))
        return bool(degenerate), None, samples


def _pass_rate(hops, bound: float) -> Optional[float]:
    """Share of the finite hop counts within bound; None when none is finite."""
    finite = [h for h in hops if h is not None]
    return sum(h <= bound for h in finite) / len(finite) if finite else None


def _hub_counts(samples) -> dict:
    """Counters over hubpath sample records; they add up across trials."""
    climbs = [s["climb_hops"] for s in samples if s["climb_hops"] is not None]
    certified = [(s["exact"], s["certificate"]) for s in samples
                 if s["certificate"] is not None]
    finite = [s for s in samples if s["exact"] is not None]
    return {
        "samples": len(samples),
        "finite": len(finite),
        "passed": sum(s["pass"] for s in finite),
        "escape_ok": sum(s["escape_hops"] is not None for s in samples),
        "climb_ok": len(climbs),
        "certificates": len(certified),
        "cert_sound": all(e is not None and h >= e for e, h in certified),
        "max_climb_hops": max(climbs, default=0),
        "finite_escape_ok": sum(s["escape_hops"] is not None for s in finite),
    }


def _ratio(counts: dict, part: str, whole: str) -> Optional[float]:
    return counts[part] / counts[whole] if counts[whole] else None


# ---------------------------------------------------------------------------
# run_* operations


def run_generate(cfg: ExperimentConfig) -> list:
    """Write one graph file per (n, trial) plus a metadata sidecar each.

    Each instance is graphgen.generate's, in full.  The sidecar counts
    the occupied attributes off its sorted keys, which are then given up:
    unpacked in place into the vertex-major ids the file holds and passed
    with the row pointer to storage.write_graph, so no second array of
    their length is made.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    ext = "rig" if cfg.graph_format == "binary" else "json"
    out = []
    for n in cfg.n_values:
        params = cfg.params_for(n)
        for trial in range(cfg.trials):
            inc, _ = graphgen.generate(params, trial_rng(cfg.seed, n, trial))
            occupied = _occupied_attrs(inc.keys, n)
            ids = _vertex_major(inc.keys, n, inc.m, inc.set_indptr)
            name = f"graph_n{n}_t{trial}.{ext}"
            path = os.path.join(cfg.out_dir, name)
            try:
                storage.write_graph(path, inc.m, inc.set_indptr, ids, cfg.alpha,
                                    cfg.c0, cfg.seed, fmt=cfg.graph_format)
            except OSError as exc:
                raise RuntimeError(f"cannot write graph to {path}: {exc}") from exc
            meta = {
                **_instance_header("generate", params, cfg.seed),
                "trial": trial,
                "path": name,
                "bytes": os.path.getsize(path),
                "sha256": storage.file_checksum(path),
                "incidence": inc.total_incidence,
                "occupied_attrs": occupied,
            }
            write_json_report(path + ".meta.json", meta)
            out.append(meta)
    return out


def run_analyze(cfg: ExperimentConfig, t: Trial) -> dict:
    """Structure summary of one instance: components, degrees, ladder."""
    return {
        **t.header("analyze"),
        "components": int(t.comp.count),
        "giant_size": t.giant_size,
        "giant_fraction": t.comp.giant_fraction(),
        "u_max": t.dec.u_max,
        "u_max_size": int(t.weights.sizes[t.dec.u_max]),
        "k_star": t.dec.k_star,
        "hub_core_size": int(t.dec.hub_core.shape[0]),
        "layer_sizes": t.dec.layer_sizes().tolist(),
        "degree_tail": degree_tail_report(t.core),
    }


def run_distances(cfg: ExperimentConfig, t: Trial) -> dict:
    """Pair distances within the giant component against the (2+eps) bound.

    Samples pairs_per_trial uniform giant pairs plus the fixed labeled pair
    (0, 1) conditioned on both endpoints lying in the giant.
    """
    bound = cfg.pair_bound(t.params)
    empty = t.giant_size < 2
    sampled, fixed = t.pairs(cfg.pairs_per_trial)
    return {
        **t.header("distances"),
        "trial": t.trial,
        "epsilon": cfg.epsilon,
        "bound": bound,
        "giant_size": t.giant_size,
        "giant_fraction": t.comp.giant_fraction(),
        "empty": empty,
        "pairs": [{"u": u, "v": v, "hops": h} for u, v, h in sampled],
        "pass_rate": _pass_rate([h for _, _, h in sampled], bound),
        "fixed_pair": None if empty else {
            "u": 0, "v": 1, "both_in_giant": t.fixed_in_giant, "hops": fixed,
            "pass": None if fixed is None else bool(fixed <= bound)},
    }


def run_hubpath(cfg: ExperimentConfig, t: Trial) -> dict:
    """Hub distances and certificates against the (1+eps) bound.

    Samples vertices uniformly; for those with a finite distance to the
    maximal vertex, records the exact distance and a full certificate.
    """
    bound = cfg.hub_bound(t.params)
    degenerate, error, drawn = t.hub_samples(cfg.hub_samples())
    samples = [{
        "v": v,
        "exact": exact,
        "certificate": cert.certificate_hops,
        "escape_hops": None if cert.escape_a is None else len(cert.escape_a) - 1,
        "climb_hops": None if cert.climb_a is None else len(cert.climb_a) - 1,
        "failed_stage": cert.failed_stage,
        "pass": None if exact is None else bool(exact <= bound),
    } for v, exact, cert in drawn]
    hub = _hub_counts(samples)
    return {
        **t.header("hubpath"),
        "trial": t.trial,
        "epsilon": cfg.epsilon,
        "bound": bound,
        "k_star": t.dec.k_star,
        "t0": t.dec.th.t0,
        "hub_core_size": int(t.dec.hub_core.shape[0]),
        "top_layer_size": int(t.dec.top.shape[0]),
        "u_max": t.dec.u_max,
        "u_max_in_giant": t.u_max_in_giant,
        "degenerate": degenerate,
        "error": error,
        "samples": samples,
        "pass_rate": _ratio(hub, "passed", "finite"),
        "escape_success_rate": _ratio(hub, "escape_ok", "samples"),
        "climb_success_rate": _ratio(hub, "climb_ok", "escape_ok"),
    }


def run_verify(cfg: ExperimentConfig) -> Iterator[BoundReport]:
    """All four bound suites with the configured grids, yielding their reports.

    The intersection suite is called once per (j, k, m) grid point, m
    outermost, so no more than one point's reports (2*min(j, k) + 7) are
    held at a time and the caller's memory need not grow with the grid.
    The coverage, overlap and tail-mass suites follow, sharing one rng.
    """
    rng = trial_rng(cfg.seed, 0, 0)
    for m in cfg.verify_m_values:
        for j in range(cfg.verify_jk_max + 1):
            for k in range(cfg.verify_jk_max + 1):
                yield from check_intersection_bounds([(j, k, m)])
    size = coverage_size(cfg.coverage_gamma1, cfg.coverage_gamma2, cfg.coverage_n)
    yield check_union_coverage(
        cfg.coverage_m, cfg.coverage_gamma1, cfg.coverage_gamma2,
        [size] * cfg.coverage_set_count, cfg.coverage_n, cfg.coverage_trials, rng)

    a, b, d, m = cfg.overlap_point
    yield check_conditional_overlap(a, b, d, m, cfg.overlap_trials, rng)

    yield from check_tail_mass(
        n=cfg.mass_n, alpha=cfg.alpha, c0=cfg.c0, rng=rng,
        gamma=cfg.mass_gamma, tau=cfg.mass_tau, trials=cfg.mass_trials,
        window_min=cfg.window_min)


# ---------------------------------------------------------------------------
# the full experiment ladder


def _experiment_cell(args) -> dict:
    """One (n, trial) work unit; must stay module-level for process pools."""
    cfg, n, trial = args
    try:
        return _experiment_cell_inner(cfg, n, trial)
    except Exception as exc:  # recorded, the run continues
        return {"n": n, "trial": trial, "error": f"{type(exc).__name__}: {exc}"}


def _experiment_cell_inner(cfg: ExperimentConfig, n: int, trial: int) -> dict:
    """The summary of one instance's distances and hubpath reports, which
    draw its pairs and then its hub vertices."""
    t = Trial.generated(cfg, n, trial)
    dist, hub = run_distances(cfg, t), run_hubpath(cfg, t)
    v0 = t.dec.hub_core
    v0_threshold = 2.0 * t.params.law().tail_constant * iterated_log(n) ** (
        t.params.alpha * (1.0 + t.params.alpha))
    return {
        "n": n,
        "trial": trial,
        "error": hub["error"],
        "m": t.params.m,
        "giant_fraction": t.comp.giant_fraction(),
        "giant_size": t.giant_size,
        "u_max": t.dec.u_max,
        "u_max_in_giant": t.u_max_in_giant,
        "v0_size": int(v0.shape[0]),
        "v0_in_giant": bool(np.all(t.comp.labels[v0] == t.comp.giant)) if v0.size else True,
        "v0_above_threshold": bool(v0.shape[0] >= v0_threshold),
        "k_star": t.dec.k_star,
        "degenerate": hub["degenerate"],
        "pair_hops": [p["hops"] for p in dist["pairs"]],
        "pair_pass_rate": dist["pass_rate"],
        "fixed_pair": {"both_in_giant": t.fixed_in_giant,
                       "hops": (dist["fixed_pair"] or {}).get("hops")},
        "hub": _hub_counts(hub["samples"]),
    }


def _quantiles(values) -> Optional[dict]:
    """Mean, median, p90 and max, equal to np.mean, np.median and
    np.quantile(..., 0.9) but read off one sort: those two numpy functions
    import numpy.ma on first use."""
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))  # before the sort: np.mean sums in the given order
    arr.sort()
    n = arr.shape[0]
    half = n // 2
    median = arr[half] if n % 2 else (arr[half - 1] + arr[half]) / 2
    # linear interpolation at virtual index (n - 1) * q, by numpy's _lerp
    at = (n - 1) * 0.9
    lo = math.floor(at)
    a, b = arr[lo], arr[min(lo + 1, n - 1)]
    t = at - lo
    p90 = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return {"mean": mean, "median": float(median), "p90": float(p90),
            "max": float(arr[-1])}


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, or every
    CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig) -> dict:
    """The full ladder: trials per n, aggregated per n and overall."""
    tasks = [(cfg, n, t) for n in cfg.n_values
             for t in range(cfg.trials)]
    # the pool starts all its workers at once: no more than cells or than
    # the CPUs this process may run on
    workers = min(cfg.threads, len(tasks), _cpus())
    if workers > 1:
        # imported here, so that a serial run, and every import of this
        # module, loads neither concurrent.futures nor multiprocessing
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_experiment_cell, tasks))
    else:
        cells = [_experiment_cell(t) for t in tasks]
    cells.sort(key=lambda c: (c["n"], c["trial"]))

    per_n = []
    for n in cfg.n_values:
        # a cell whose run raised holds only n, trial and error; a cell whose
        # ladder top is empty ran and keeps its LadderError text as its error
        group = [c for c in cells if c["n"] == n and "pair_hops" in c]
        failed = [c for c in cells if c["n"] == n and "pair_hops" not in c]
        fractions = [c["giant_fraction"] for c in group]
        pooled_hops = [h for c in group for h in c["pair_hops"] if h is not None]
        hub = {k: sum(c["hub"][k] for c in group)
               for k in ("samples", "finite", "passed", "escape_ok", "climb_ok",
                         "finite_escape_ok")}
        l2n = iterated_log(n)
        stats = _quantiles(pooled_hops)
        params = cfg.params_for(n)

        def freq(key):
            return float(np.mean([c[key] for c in group])) if group else None

        per_n.append({
            "n": n,
            "m": cfg.m_for(n),
            "l2n": l2n,
            "trials_ok": len(group),
            "trials_failed": len(failed),
            "rho_hat_min": min(fractions) if fractions else None,
            "rho_hat_mean": (float(np.mean(fractions)) if fractions else None),
            "u_max_in_giant_freq": freq("u_max_in_giant"),
            "v0_in_giant_freq": freq("v0_in_giant"),
            "v0_threshold_freq": freq("v0_above_threshold"),
            "pair_bound": cfg.pair_bound(params),
            "hub_bound": cfg.hub_bound(params),
            "pair_distance": stats,
            "mean_over_l2n": (stats["mean"] / l2n if stats else None),
            "pair_pass_rate": _pass_rate(pooled_hops, cfg.pair_bound(params)),
            "hub_pass_rate": _ratio(hub, "passed", "finite"),
            "escape_success_rate": _ratio(hub, "escape_ok", "samples"),
            "climb_success_rate": _ratio(hub, "climb_ok", "escape_ok"),
            "hub_samples": hub["samples"],
            "hub_finite": hub["finite"],
            "giant_escape_success_rate": _ratio(hub, "finite_escape_ok", "finite"),
        })
    return {
        "kind": "experiment",
        "config": cfg.to_dict(),
        "cells": cells,
        "aggregates": {"per_n": per_n, "loglog_slope": _loglog_slope(per_n, cfg.alpha)},
    }


def _loglog_slope(per_n, alpha: float) -> dict:
    """Least-squares slope of the per-n mean pair hops against l2n, over the
    rows with pair distances, beside its asymptotic value 2/ln(1/alpha)."""
    rows = [row for row in per_n if row["pair_distance"] is not None]
    x = np.array([row["l2n"] for row in rows])
    y = np.array([row["pair_distance"]["mean"] for row in rows])
    slope = None
    if x.size and x.min() < x.max():  # rows at one n alone give no slope
        dx = x - x.mean()
        slope = float(np.sum(dx * y) / np.sum(dx * dx))
    return {"slope": slope, "asymptotic": 2.0 / math.log(1.0 / alpha), "rows": len(rows)}


# ---------------------------------------------------------------------------
# report files


def write_json_report(path, doc) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_rows_csv(path, header, rows) -> None:
    """A header line, then one line per row; None becomes an empty cell."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def write_fragment(cfg: ExperimentConfig, name: str, frag: dict,
                   rows_fn=None) -> str:
    """Write a fragment in the configured format, returning the path."""
    if cfg.format == "json" or rows_fn is None:
        path = os.path.join(cfg.out_dir, f"{name}.json")
        write_json_report(path, frag)
    else:
        path = os.path.join(cfg.out_dir, f"{name}.csv")
        write_rows_csv(path, *rows_fn(frag))
    return path


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


def _flatten_params(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def write_bound_reports(path, reports) -> None:
    """BoundReport sequence as CSV: bound_id, params, lhs, rhs, slack, status."""
    write_rows_csv(path, ["bound_id", "params", "lhs", "rhs", "slack", "status"],
                   ([rep.bound_id, _flatten_params(rep.params), repr(rep.lhs),
                     repr(rep.rhs), repr(rep.slack), rep.status] for rep in reports))


def _make_dirs(directory: str) -> list:
    """Create an absolute directory and its missing parents; return those
    made, deepest first."""
    made = []
    path = directory
    while not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    return made


def write_verify_report(cfg: ExperimentConfig, reports: Iterable[BoundReport]) -> str:
    """verify_bounds.json with status counts, or verify_bounds.csv; returns the path.

    reports may be any iterable, run_verify's generator included; it is
    consumed once, and no report is kept.  The JSON report blocks go to a
    temporary file in out_dir, _BLOCKS_PER_WRITE joined into each write,
    while the statuses are tallied.  The counts lead the file, so the
    report is then written as the header with them, the blocks copied over
    and the footer: the bytes that
    json.dump(doc, fh, sort_keys=True, indent=2) writes for
    {"counts", "kind", "reports"}, plus a final line break.  CSV rows go to
    the temporary file, which is renamed to the report.  If reports raises,
    the temporary file and any directory made for it are removed, and an
    earlier report stays as it was.
    """
    path = os.path.join(cfg.out_dir, f"verify_bounds.{cfg.format}")
    directory = os.path.abspath(cfg.out_dir)
    made = _make_dirs(directory)
    body = os.path.join(directory, f".verify_bounds.{os.getpid()}.tmp")
    try:
        try:
            if cfg.format == "csv":
                write_bound_reports(body, reports)
                os.replace(body, path)
            else:
                _write_verify_json(path, body, reports)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(body)
    except BaseException:
        for made_dir in made:
            try:
                os.rmdir(made_dir)
            except OSError:
                break
        raise
    return path


# json blocks joined into one write: a few grid points' worth, so the
# memory held stays flat in the grid
_BLOCKS_PER_WRITE = 256


def _write_verify_json(path: str, body: str, reports) -> None:
    counts = {}
    with open(body, "w") as fh:
        sep, blocks = "\n", []
        for rep in reports:
            counts[rep.status] = counts.get(rep.status, 0) + 1
            blocks.append(rep.json_block())
            if len(blocks) == _BLOCKS_PER_WRITE:
                fh.write(sep + ",\n".join(blocks))
                sep, blocks = ",\n", []
        if blocks:
            fh.write(sep + ",\n".join(blocks))
    with open(path, "wb") as out, open(body, "rb") as fh:
        header = json.dumps(counts, sort_keys=True, indent=2).replace("\n", "\n  ")
        out.write(f'{{\n  "counts": {header},\n  "kind": "verify",\n'
                  f'  "reports": ['.encode())
        shutil.copyfileobj(fh, out)
        out.write(b"\n  ]\n}\n" if counts else b"]\n}\n")


_AGGREGATE_COLUMNS = ["n", "m", "l2n", "trials_ok", "trials_failed",
                      "rho_hat_min", "rho_hat_mean", "u_max_in_giant_freq",
                      "v0_in_giant_freq", "v0_threshold_freq",
                      "pair_pass_rate", "hub_pass_rate",
                      "escape_success_rate", "climb_success_rate",
                      "hub_samples", "hub_finite", "giant_escape_success_rate"]


def write_experiment_report(cfg: ExperimentConfig, report: dict) -> list:
    """experiment_report.json, plus experiment_aggregates.csv in csv format;
    returns the paths written."""
    paths = [os.path.join(cfg.out_dir, "experiment_report.json")]
    write_json_report(paths[0], report)
    if cfg.format == "csv":
        paths.append(os.path.join(cfg.out_dir, "experiment_aggregates.csv"))
        write_rows_csv(paths[1], _AGGREGATE_COLUMNS,
                       ([row[k] for k in _AGGREGATE_COLUMNS]
                        for row in report["aggregates"]["per_n"]))
    return paths
