"""In-memory span recorder for the traced pass of the benchmark.

A span is (id, parent, name, start, end, op) plus optional counters; the
spans of one measured operation share the op id.  Spans are only recorded
in the traced pass, by wrapping each public rigkit function at every module
that binds it, so that nested calls get the right parent:

* harness binds generate, components, bfs_distance, distances_from,
  loglog_certificate and the verify suites by name;
* loglog_certificate imports bfs_distance from graphops at call time;
* escape_bfs calls nearest_of through hubnav's namespace;
* graphgen.generate calls sample_tilde_weights and sample_incidence through
  graphgen's namespace, and verify binds sample_incidence and degrees;
* harness and cli reach storage and write_json_report as module attributes.
"""

from __future__ import annotations

import functools
import os
import time


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, op: str):
        self.op = op
        self.spans = []
        self._stack = []
        self._next = 0

    def open(self, name: str) -> dict:
        span = {"id": self._next, "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "op": self.op, "start": time.perf_counter(), "end": None}
        self._next += 1
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, counters=None):
        """fn wrapped in a span; counters(result, args) adds count fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counters is not None:
                span.update(counters(result, args))
            return result

        return traced


def _incidence_counts(result, args):
    return {"entries": int(result.total_incidence)}


def _generate_counts(result, args):
    return {"entries": int(result[0].total_incidence)}


def _hops_counts(result, args):
    return {"hops": result.hops, "u": int(args[1]), "v": int(args[2])}


def _certificate_counts(result, args):
    return {"finished": result.certificate_hops is not None}


def _bound_counts(result, args):
    reports = result if isinstance(result, list) else [result]
    return {"fail_reports": sum(rep.status == "fail" for rep in reports)}


def _file_counts(result, args):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counters): every binding that the CLI's
# code paths call through.  The same function wrapped at two modules gets
# the same span name.
BINDINGS = [
    ("rigkit.graphgen", "sample_tilde_weights", "model.sample_tilde_weights", None),
    ("rigkit.graphgen", "sample_incidence", "graphgen.sample_incidence", _incidence_counts),
    ("rigkit.verify", "sample_incidence", "graphgen.sample_incidence", _incidence_counts),
    ("rigkit.harness", "generate", "graphgen.generate", _generate_counts),
    ("rigkit.harness", "components", "graphops.components", None),
    ("rigkit.harness", "bfs_distance", "graphops.bfs_distance", _hops_counts),
    ("rigkit.graphops", "bfs_distance", "graphops.bfs_distance", _hops_counts),
    ("rigkit.harness", "distances_from", "graphops.distances_from", None),
    ("rigkit.hubnav", "nearest_of", "graphops.nearest_of", None),
    ("rigkit.verify", "degrees", "graphops.degrees", None),
    ("rigkit.harness", "loglog_certificate", "hubnav.loglog_certificate", _certificate_counts),
    ("rigkit.hubnav", "hub_climb", "hubnav.hub_climb", None),
    ("rigkit.storage", "read_graph", "storage.read_graph", _file_counts),
    ("rigkit.storage", "write_graph", "storage.write_graph", _file_counts),
    ("rigkit.harness", "check_intersection_bounds", "verify.check_intersection_bounds", _bound_counts),
    ("rigkit.harness", "check_union_coverage", "verify.check_union_coverage", _bound_counts),
    ("rigkit.harness", "check_conditional_overlap", "verify.check_conditional_overlap", _bound_counts),
    ("rigkit.harness", "check_tail_mass", "verify.check_tail_mass", _bound_counts),
    ("rigkit.harness", "write_json_report", "harness.write_json_report", None),
]


def instrument(tracer: Tracer) -> None:
    """Replace every binding in BINDINGS with a span-recording wrapper."""
    import importlib

    for module_name, attr, name, counters in BINDINGS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counters))


# ---------------------------------------------------------------------------
# per-layer metrics from a list of spans


def _duration(span) -> float:
    return span["end"] - span["start"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int):
    """Highest of p50, p80, p90, p95, p99 with at least ten samples beyond it."""
    best = None
    for q in (50, 80, 90, 95, 99):
        if count * (100 - q) / 100 >= 10:
            best = q
    return best


def self_times(spans) -> dict:
    """(op, span id) -> duration minus the time its direct children cover."""
    covered = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["op"], span["parent"])
            covered[key] = covered.get(key, 0.0) + _duration(span)
    return {(s["op"], s["id"]): _duration(s) - covered.get((s["op"], s["id"]), 0.0)
            for s in spans}


def layer_metrics(op_spans, setup_spans=()) -> dict:
    """The per-layer metrics of one traced operation (plus its traced set-up).

    op_spans hold the measured operation, whose root span is "cli.main";
    setup_spans, from the set-up process, add generation and graph writing.
    """
    everything = list(op_spans) + list(setup_spans)
    by_id = {(s["op"], s["id"]): s for s in everything}
    own = self_times(everything)

    def named(name, spans=everything):
        return [s for s in spans if s["name"] == name]

    def total(spans):
        return sum(_duration(s) for s in spans)

    def under_certificate(span):
        parent = by_id.get((span["op"], span["parent"]))
        return parent is not None and parent["name"] == "hubnav.loglog_certificate"

    bfs = named("graphops.bfs_distance")
    pair = [s for s in bfs if not under_certificate(s)]
    hub = [s for s in bfs if under_certificate(s)]
    pair_times = [_duration(s) for s in pair]
    tail = tail_percentile(len(pair_times))
    p50 = percentile(pair_times, 50) if pair_times else 0.0
    certs = named("hubnav.loglog_certificate")
    sampler = named("graphgen.sample_incidence")
    reads = named("storage.read_graph")
    writes = named("storage.write_graph")
    roots = named("cli.main", op_spans)
    checks = [s for s in everything if s["name"].startswith("verify.check_")]

    return {
        "model.sample_tilde_weights_s": (total(named("model.sample_tilde_weights")), "s"),
        "graphgen.sample_incidence_s": (total(sampler), "s"),
        "graphgen.sample_incidence_calls": (len(sampler), "count"),
        "graphgen.incidence_entries": (sum(s["entries"] for s in sampler), "count"),
        "graphops.pair_bfs_s": (sum(pair_times), "s"),
        "graphops.pair_bfs_p50_s": (p50, "s"),
        "graphops.pair_bfs_tail_s": (percentile(pair_times, tail) if tail else p50, "s"),
        "graphops.pair_bfs_calls": (len(pair), "count"),
        "graphops.pair_hops_total": (sum(s["hops"] or 0 for s in pair), "count"),
        "graphops.hub_bfs_s": (total(hub), "s"),
        "graphops.hub_bfs_calls": (len(hub), "count"),
        "graphops.escape_s": (total(named("graphops.nearest_of")), "s"),
        "graphops.escape_calls": (len(named("graphops.nearest_of")), "count"),
        "graphops.components_s": (total(named("graphops.components")), "s"),
        "graphops.distances_from_s": (total(named("graphops.distances_from")), "s"),
        "hubnav.certificate_s": (total(certs), "s"),
        "hubnav.certificate_self_s": (sum(own[(s["op"], s["id"])] for s in certs), "s"),
        "hubnav.certificate_calls": (len(certs), "count"),
        "hubnav.certificate_ok_ratio": (
            sum(s["finished"] for s in certs) / len(certs) if certs else 0.0, "ratio"),
        "hubnav.climb_s": (total(named("hubnav.hub_climb")), "s"),
        "storage.read_s": (total(reads), "s"),
        "storage.write_s": (total(writes), "s"),
        "storage.file_bytes": (max((s["bytes"] for s in reads + writes), default=0), "bytes"),
        "verify.intersection_s": (total(named("verify.check_intersection_bounds")), "s"),
        "verify.coverage_s": (total(named("verify.check_union_coverage")), "s"),
        "verify.overlap_s": (total(named("verify.check_conditional_overlap")), "s"),
        "verify.tail_mass_s": (total(named("verify.check_tail_mass")), "s"),
        "verify.fail_reports": (sum(s["fail_reports"] for s in checks), "count"),
        "harness.report_write_s": (total(named("harness.write_json_report", op_spans)), "s"),
        "harness.self_s": (sum(own[(s["op"], s["id"])] for s in roots), "s"),
    }
