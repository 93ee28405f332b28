"""Acceptance battery: ten numbered end-to-end checks at pinned tolerances.

Run `pytest -v -s tests/test_acceptance.py` to get one
`criterion N: PASS/FAIL` line per check.  Statistical criteria run at the
frozen master seed below; the pinned reference constants were recorded from
the first verified run of this battery and are noted where they appear.

Criterion 9c is a known failure at this scale: the maximal-weight window
event reaches probability one only asymptotically, and at n = 1e5 its
empirical frequency sits near 0.8.  The check is kept at the 0.9 threshold
the asymptotic statement targets instead of being weakened to pass.
"""

import math
import time

import numpy as np
import pytest

from rigkit import harness
from rigkit.graphgen import generate
from rigkit.graphops import UNREACHED, bfs_distance, components, distances_from, neighbors
from rigkit.harness import ExperimentConfig
from rigkit.hubnav import decompose, loglog_certificate, thresholds
from rigkit.model import (ModelParams, default_attribute_count, iterated_log,
                          sample_tilde_weights, trial_rng)
from rigkit.verify import check_intersection_bounds, check_tail_mass

from cores import core_of
from oracles import (adjacency_matrix, all_pairs_hops, certificate_walk,
                     component_labels_bfs, shares_attribute)

SEED = 20260818
ALPHA = 0.8
C0 = 1.0
EXACT_SLACK = 1e-12
REL_TOL = 1e-9
# first verified battery run: min giant fraction 0.95028 over all 40 runs
RHO_HAT = 0.95028 - 0.02


def _criterion(label, ok, detail):
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _pair_bound(n, epsilon=1.0):
    return (2.0 + epsilon) * iterated_log(n) / math.log(1.0 / ALPHA)


def _hub_bound(n, epsilon=1.0):
    return (1.0 + epsilon) * iterated_log(n) / math.log(1.0 / ALPHA)


# --- shared batteries (module scope: built once, reused across criteria) -----


@pytest.fixture(scope="module")
def battery40():
    """20 trials at each of n = 5e4, 1e5: giant and hub-core membership."""
    start = time.perf_counter()
    runs = {}
    for n in (50_000, 100_000):
        params = ModelParams(n=n, m=default_attribute_count(n),
                             alpha=ALPHA, c0=C0)
        th = thresholds(n, ALPHA, C0)
        rows = []
        for trial in range(20):
            rng = trial_rng(SEED, n, trial)
            inc, w = generate(params, rng)
            dec = decompose(w, th)
            um = dec.u_max
            comp = components(core_of(inc), um)
            v0 = dec.hub_core
            rows.append({
                "frac": comp.giant_fraction(),
                "u_max_in": bool(comp.labels[um] == comp.giant),
                "v0_in": (bool(np.all(comp.labels[v0] == comp.giant))
                          if v0.size else True),
                "v0_size": int(v0.size),
            })
            del inc, w, comp, dec
        runs[n] = rows
    runs["seconds"] = time.perf_counter() - start
    return runs


@pytest.fixture(scope="module")
def hub_battery():
    """The n = 1e5 trial-0 instance with pair, hub and certificate samples."""
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=ALPHA, c0=C0)
    inc, w = generate(params, trial_rng(SEED, n, 0))
    core = core_of(inc)
    th = thresholds(n, ALPHA, C0)
    dec = decompose(w, th)
    um = dec.u_max
    comp = components(core, um)
    giant = comp.giant_vertices()

    pair_rng = trial_rng(SEED, n, 10**6)
    pair_hops = []
    for _ in range(200):
        u, v = pair_rng.choice(giant, size=2, replace=False)
        pair_hops.append(bfs_distance(core, int(u), int(v)).hops)

    hub_dist = distances_from(core, um)
    sample = pair_rng.choice(n, size=200, replace=False)
    certs = []
    for v in sample:
        v = int(v)
        exact = int(hub_dist[v]) if hub_dist[v] != UNREACHED else None
        certs.append((v, exact, loglog_certificate(core, dec, v, um)))
    return {"n": n, "inc": inc, "k_star": th.k_star,
            "pair_hops": pair_hops, "certs": certs}


@pytest.fixture(scope="module")
def median_ladder():
    """Median giant-pair distance at n = 2^14 and 2^17, 200 pairs each."""
    med = {}
    for n in (2**14, 2**17):
        params = ModelParams(n=n, m=default_attribute_count(n),
                             alpha=ALPHA, c0=C0)
        inc, _ = generate(params, trial_rng(SEED, n, 0))
        core = core_of(inc)
        comp = components(core, int(np.argmax(inc.sizes())))
        giant = comp.giant_vertices()
        prng = trial_rng(SEED, n, 10**6)
        hops = []
        for _ in range(200):
            u, v = prng.choice(giant, size=2, replace=False)
            hops.append(bfs_distance(core, int(u), int(v)).hops)
        med[n] = float(np.median([h for h in hops if h is not None]))
        del inc, core, comp
    return med


@pytest.fixture(scope="module")
def mass_reports():
    out = {}
    for alpha in (0.5, 0.8):
        rng = trial_rng(SEED, 100_000, 900 + int(10 * alpha))
        out[alpha] = check_tail_mass(n=100_000, alpha=alpha, c0=C0, rng=rng,
                                     trials=100)
    return out


# --- criteria ----------------------------------------------------------------


def test_criterion_01_exact_intersection_suite(default_verify_grid):
    start = time.perf_counter()
    reports = check_intersection_bounds(default_verify_grid)
    elapsed = time.perf_counter() - start
    fails = [r for r in reports if r.status == "fail"]
    assert all(r.status in ("pass", "skipped") for r in reports)
    adjudicated = [r for r in reports if r.status == "pass"]
    worst = min(r.slack for r in adjudicated)
    ok = not fails and worst >= -EXACT_SLACK and elapsed < 60.0
    _criterion(1, ok, f"{len(adjudicated)} exact bounds, 0 violations, "
                      f"worst slack {worst:.3g}, {elapsed:.1f}s (< 60s)")


def test_criterion_02_sampler_tail():
    start = time.perf_counter()
    n = 10**6
    worst_sigma = 0.0
    bad = 0
    for alpha in (0.5, 0.8):
        params = ModelParams(n=n, m=n, alpha=alpha, c0=1.0)
        rng = trial_rng(SEED, n, int(alpha * 100))
        z = sample_tilde_weights(params, rng).tilde_z
        law = params.law()
        # 20 geometric points; the deepest has survival 1e-4 (100 expected hits)
        t_hi = 1e-4 ** (-1.0 / (1.0 + alpha))
        for t in np.geomspace(1.2, t_hi, 20):
            p = law.survival(float(t))
            emp = np.count_nonzero(z > t) / n
            sigma = math.sqrt(p * (1.0 - p) / n)
            worst_sigma = max(worst_sigma, abs(emp - p) / sigma)
            bad += abs(emp - p) > 3.0 * sigma
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    _criterion(2, ok, f"40 grid points, {bad} outside 3 sigma "
                      f"(worst {worst_sigma:.2f} sigma), {elapsed:.1f}s (< 10s)")


def test_criterion_03_small_instance_oracles():
    params = ModelParams(n=200, m=5000, alpha=ALPHA, c0=C0)
    comp_bad = pair_bad = nbr_bad = 0
    pairs_checked = 0
    for trial in range(25):
        rng = trial_rng(SEED, 200, trial)
        inc, _ = generate(params, rng)
        adj = adjacency_matrix(inc)
        core = core_of(inc)

        comp = components(core, trial)
        comp_bad += not np.array_equal(comp.labels, component_labels_bfs(adj))

        hops = all_pairs_hops(adj)
        for _ in range(2):
            u, v = (int(x) for x in rng.choice(200, size=2, replace=False))
            got = bfs_distance(core, u, v).hops
            want = None if np.isinf(hops[u, v]) else int(hops[u, v])
            pair_bad += got != want
            pairs_checked += 1

        for v in range(200):
            if not np.array_equal(np.sort(neighbors(core, v)),
                                  np.flatnonzero(adj[v])):
                nbr_bad += 1
    ok = comp_bad == pair_bad == nbr_bad == 0
    _criterion(3, ok, f"25 instances: {comp_bad} label mismatches, "
                      f"{pair_bad}/{pairs_checked} distance mismatches, "
                      f"{nbr_bad} neighbor-row mismatches")


def test_criterion_04_threshold_algebra():
    worst_rel = 0.0
    bad = 0
    sandwiches = 0
    for n in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8):
        l2n = iterated_log(n)
        for alpha in (0.3, 0.5, 0.8):
            target = l2n ** (1.0 - alpha)
            for c0 in (1.0, 2.0):
                th = thresholds(n, alpha, c0)
                # ladder identities on the raw rungs
                # t_k = n^(alpha^k/(1+alpha)) * ln ln(2+n), probed
                # independently of the cutoff
                rung = [n ** (alpha**k / (1.0 + alpha)) * l2n for k in range(4)]
                vals = [th.t0 * rung[1] / n]
                for k in (2, 3):
                    vals.append(rung[k] * rung[k - 1] ** -alpha)
                for v in vals:
                    rel = abs(v - target) / target
                    worst_rel = max(worst_rel, rel)
                    bad += rel > REL_TOL

                # cutoff index: exact scan plus the exact sandwich
                floor = 100.0 + c0
                k_scan = 0
                k = 1
                while n ** (alpha ** k / (1.0 + alpha)) >= floor:
                    k_scan = k
                    k += 1
                bad += th.k_star != k_scan
                bad += not th.k_star <= l2n / math.log(1.0 / alpha)
                if th.k_star >= 1:
                    sandwiches += 1
                    t_low = th.t[-1]
                    bad += not (100.0 * l2n < t_low)
                    bad += not (t_low < floor ** (1.0 / alpha) * l2n)
    ok = bad == 0
    _criterion(4, ok, f"42 combos, {bad} violations, worst identity error "
                      f"{worst_rel:.2e} (tol {REL_TOL:g}), "
                      f"{sandwiches} sandwich cases")


def test_criterion_05_giant_fraction_stability(battery40):
    fr5, fr10 = ([r["frac"] for r in battery40[n]] for n in (50_000, 100_000))
    low = min(fr5 + fr10)
    shift = abs(float(np.mean(fr10)) - float(np.mean(fr5)))
    secs = battery40["seconds"]
    ok = low > RHO_HAT and shift < 0.05 and secs < 600.0
    _criterion(5, ok, f"40 runs: min fraction {low:.5f} > {RHO_HAT:.5f}, "
                      f"mean shift {shift:.4f} < 0.05, {secs:.0f}s (< 600s)")


def test_criterion_06_hub_membership(battery40):
    u_in = sum(r["u_max_in"] for n in (50_000, 100_000) for r in battery40[n])
    v_in = sum(r["v0_in"] for n in (50_000, 100_000) for r in battery40[n])

    freqs = {}
    ident_bad = 0
    mean_sigma = 0.0
    for n in (50_000, 100_000):
        params = ModelParams(n=n, m=default_attribute_count(n),
                             alpha=ALPHA, c0=C0)
        law = params.law()
        l2n = iterated_log(n)
        expected = l2n ** (ALPHA * (1.0 + ALPHA)) * law.tail_constant
        # closed form for the mean hub-core size: n * survival(t0)
        direct = n * law.survival(thresholds(n, ALPHA, C0).t0)
        ident_bad += abs(direct - expected) / expected > 1e-12
        sizes = [r["v0_size"] for r in battery40[n]]
        freqs[n] = float(np.mean([s >= 2.0 * expected for s in sizes]))
        mean_sigma = max(mean_sigma,
                         abs(float(np.mean(sizes)) - expected)
                         / math.sqrt(expected / len(sizes)))
    ok = (u_in >= 38 and v_in >= 36
          and freqs[100_000] <= freqs[50_000] + 0.1
          and ident_bad == 0 and mean_sigma <= 3.0)
    _criterion(6, ok, f"u_max in giant {u_in}/40 (>= 38), hub core inside "
                      f"{v_in}/40 (>= 36), oversize freq {freqs[100_000]:.2f} "
                      f"<= {freqs[50_000]:.2f} + 0.1, mean size within "
                      f"{mean_sigma:.2f} sigma of n*survival(t0)")


def test_criterion_07_distance_bounds(hub_battery, median_ladder):
    n = hub_battery["n"]
    pair_ok = np.mean([h is not None and h <= _pair_bound(n)
                       for h in hub_battery["pair_hops"]])
    finite = [(v, e) for v, e, _ in hub_battery["certs"] if e is not None]
    hub_ok = np.mean([e <= _hub_bound(n) for _, e in finite])
    growth = median_ladder[2**17] - median_ladder[2**14]
    ok = pair_ok >= 0.95 and hub_ok >= 0.90 and growth <= 2.0
    _criterion(7, ok, f"pair rate {pair_ok:.3f} >= 0.95 "
                      f"(bound {_pair_bound(n):.1f}), hub rate {hub_ok:.3f} "
                      f">= 0.90 over {len(finite)} finite, median growth "
                      f"{median_ladder[2**14]:.1f} -> {median_ladder[2**17]:.1f} "
                      f"(<= 2 hops)")


def test_criterion_08_certificate_soundness(hub_battery):
    inc = hub_battery["inc"]
    indptr, ids = inc.set_indptr, inc.set_attrs
    k_star = hub_battery["k_star"]
    total = unsound = edge_bad = climb_bad = 0
    edges = 0
    for _, exact, cert in hub_battery["certs"]:
        if cert.certificate_hops is None:
            continue
        total += 1
        unsound += exact is None or cert.certificate_hops < exact
        walk = certificate_walk(cert)
        for a, b in zip(walk, walk[1:]):
            edges += 1
            edge_bad += a == b or not shares_attribute(indptr, ids, int(a), int(b))
        for climb in (cert.climb_a, cert.climb_b):
            if climb is not None:
                climb_bad += len(climb) - 1 > k_star
    ok = total > 0 and unsound == edge_bad == climb_bad == 0
    _criterion(8, ok, f"{total} certificates: {unsound} below exact, "
                      f"{edge_bad}/{edges} walk edges failed the adjacency "
                      f"re-check, {climb_bad} climbs above k* = {k_star}")


def test_criterion_09a_mass_sandwich_exact(mass_reports):
    bad = 0
    cases = 0
    for alpha, reports in mass_reports.items():
        for r in reports:
            if r.bound_id in ("mass_sandwich_lower", "mass_sandwich_upper"):
                cases += 1
                bad += r.status != "pass"
    ok = cases == 40 and bad == 0
    _criterion("9a", ok, f"{cases} sandwich sides over 10 grid points x 2 "
                         f"alphas, {bad} outside [c1/2, c2]")


def test_criterion_09b_mass_monte_carlo(mass_reports):
    bad = 0
    cases = 0
    for alpha, reports in mass_reports.items():
        for r in reports:
            if r.bound_id == "mass_mc_agreement":
                cases += 1
                bad += r.status != "pass"
    ok = cases == 20 and bad == 0
    _criterion("9b", ok, f"{cases} grid points, {bad} beyond 3 sigma of the "
                         f"analytic value (100 trials each)")


def test_criterion_09c_max_weight_window(mass_reports):
    # Known red at this scale: the window event frequency is ~0.8 at n = 1e5,
    # short of the 0.9 the asymptotic statement calls for.  Kept unweakened.
    freqs = {}
    for alpha, reports in mass_reports.items():
        win = [r for r in reports if r.bound_id == "max_weight_window"]
        assert len(win) == 1
        freqs[alpha] = (win[0].rhs, win[0].status)
    ok = all(status == "pass" for _, status in freqs.values())
    detail = ", ".join(f"alpha={a}: freq {f:.2f} (need >= 0.9)"
                       for a, (f, status) in sorted(freqs.items()))
    _criterion("9c", ok, detail)


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "runs"
    cfg = ExperimentConfig(n_values=[2000], trials=2, pairs_per_trial=10,
                           seed=SEED, out_dir=str(out))
    vcfg = ExperimentConfig(n_values=[2000], seed=SEED, out_dir=str(out),
                            verify_m_values=[60], verify_jk_max=8,
                            coverage_trials=100, overlap_trials=5000,
                            mass_n=2000, mass_trials=20)

    def snapshot():
        harness.run_generate(cfg)
        report = harness.run_experiment(cfg)
        harness.write_json_report(str(out / "experiment_report.json"), report)
        harness.write_bound_reports(str(out / "verify_bounds.csv"),
                                    harness.run_verify(vcfg))
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = snapshot()
    second = snapshot()
    same = [name for name in first if first[name] == second.get(name)]
    ok = first == second
    _criterion(10, ok, f"{len(same)}/{len(first)} report files byte-identical "
                       f"across reruns (graphs, metadata, experiment, bounds)")
