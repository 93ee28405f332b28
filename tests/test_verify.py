import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from rigkit.graphgen import BipartiteIncidence, generate
from rigkit.model import ModelParams, TailLaw, iterated_log, trial_rng
from rigkit.verify import (
    BoundReport,
    HypergeomTable,
    _default_mass_grid,
    check_conditional_overlap,
    check_intersection_bounds,
    check_tail_mass,
    check_union_coverage,
    degree_tail_report,
    no_overlap_probability,
    wilson_interval,
)

from cores import core_of
from oracles import (conditional_overlap_exact, hyper_pmf_exact,
                     intersection_reports_reference, no_overlap_exact)


# --- exact hypergeometric machinery ----------------------------------------


def test_pmf_known_value():
    table = HypergeomTable(1, 1, 2)
    assert table.prob(1) == pytest.approx(0.5)
    assert table.prob(0) == pytest.approx(0.5)
    assert table.prob(2) == 0.0


def test_pmf_matches_exact_rational():
    for j, k, m in ((5, 7, 20), (0, 4, 9), (6, 6, 12), (30, 30, 100)):
        table = HypergeomTable(j, k, m)
        for r in range(-1, min(j, k) + 2):
            exact = float(hyper_pmf_exact(j, k, m, r))
            assert table.prob(r) == pytest.approx(exact, abs=1e-14, rel=1e-10)


def test_pmf_sums_to_one():
    for j, k, m in ((5, 7, 20), (9, 9, 10), (0, 0, 4), (17, 30, 40)):
        table = HypergeomTable(j, k, m)
        total = sum(table.prob(r) for r in range(table.lo, table.hi + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_support_includes_forced_overlap():
    table = HypergeomTable(9, 9, 10)
    assert table.lo == 8  # j + k - m
    assert table.prob(7) == 0.0


def test_sf_cdf_edges_and_complement():
    table = HypergeomTable(6, 8, 30)
    assert table.at_least(-3) == 1.0
    assert table.at_least(0) == 1.0
    assert table.at_least(7) == 0.0
    assert table.at_most(6) == 1.0
    assert table.at_most(-1) == 0.0
    for t in range(0, 7):
        assert table.at_least(t) + table.at_most(t - 1) == pytest.approx(1.0, abs=1e-12)
    # real-valued thresholds round to the right integers
    assert table.at_least(2.3) == table.at_least(3)
    assert table.at_most(2.3) == table.at_most(2)
    # monotone
    vals = [table.at_least(t) for t in range(0, 8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sf_cdf_match_exact_rational_sums():
    for j, k, m in ((6, 8, 30), (9, 9, 10), (30, 30, 100), (0, 5, 12)):
        table = HypergeomTable(j, k, m)
        exact = [hyper_pmf_exact(j, k, m, r) for r in range(min(j, k) + 1)]
        for t in (-1, 0, 0.5, 1, 2.3, 4, 7, 9, 31):
            upper = sum(exact[max(0, math.ceil(t)):], Fraction(0))
            lower = sum(exact[:max(0, math.floor(t) + 1)], Fraction(0))
            assert table.at_least(t) == pytest.approx(float(upper), abs=1e-12)
            assert table.at_most(t) == pytest.approx(float(lower), abs=1e-12)


def test_no_overlap_probability_values():
    assert no_overlap_probability(1, 1, 10) == pytest.approx(0.9, rel=1e-12)
    assert no_overlap_probability(6, 5, 10) == 0.0  # j + k > m
    assert no_overlap_probability(0, 9, 12) == 1.0
    for j, k, m in ((3, 4, 20), (10, 10, 60), (7, 2, 9)):
        exact = float(no_overlap_exact(j, k, m))
        assert no_overlap_probability(j, k, m) == pytest.approx(exact, rel=1e-12)
        assert HypergeomTable(j, k, m).prob(0) == pytest.approx(exact, rel=1e-10)


def _worst_pmf_error(j, k, m):
    """The largest relative error of HypergeomTable(j, k, m)'s pmf against
    exact rationals, over the values that are normal floats; raises on a
    NaN, an inf or a 0 among them."""
    table = HypergeomTable(j, k, m)
    worst = 0.0
    for r in range(table.lo, table.hi + 1):
        exact = hyper_pmf_exact(j, k, m, r)
        if float(exact) < sys.float_info.min:
            continue
        got = table.prob(r)
        assert math.isfinite(got) and got != 0.0, (j, k, m, r, got)
        worst = max(worst, float(abs(Fraction(got) - exact) / exact))
    return worst


def test_tables_match_exact_rationals(default_verify_grid, mixed_verify_grid):
    # the ratio recursion forms no factorial of m, so nothing cancels at any
    # pool: every normal pmf value to 1e-13, the wide supports to 1e-12,
    # and the edge probability 1 - P(H = 0) at a pool of n = 1e5's size.
    # P(H = 0) has one computation, the table's
    for j, k, m in default_verify_grid + mixed_verify_grid:
        assert no_overlap_probability(j, k, m) == HypergeomTable(j, k, m).prob(0)
    for m in (30, 10**3, 10**6, 3 * 10**7, 15 * 10**7, 2**40):
        for j in range(31):
            for k in range(31):
                assert _worst_pmf_error(j, k, m) <= 1e-13, (j, k, m)
    for j, k, m in ((1500, 1500, 3000), (400, 700, 2000)):
        assert _worst_pmf_error(j, k, m) <= 1e-12, (j, k, m)
    for j, k in ((1, 1), (2, 3)):
        m = 32_387_601
        exact = 1 - no_overlap_exact(j, k, m)
        hit = 1.0 - no_overlap_probability(j, k, m)
        assert abs(Fraction(hit) - exact) <= Fraction(1, 10**6) * exact, (j, k)


def test_wilson_interval_shape():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert lo + hi == pytest.approx(1.0, abs=1e-12)  # symmetric at p = 1/2
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0
    # interval shrinks with more data
    w1 = np.diff(wilson_interval(10, 20))
    w2 = np.diff(wilson_interval(1000, 2000))
    assert w2 < w1


# --- intersection bound suite ----------------------------------------------


def test_intersection_sandwich_brackets_exact_value():
    # (1,1,10): no-overlap probability 0.9 must sit inside the sandwich
    lam, s = 0.1, 0.2
    lower = 1.0 - lam / (1.0 - s)
    upper = 1.0 - lam + lam * lam
    assert lower <= 0.9 <= upper
    reps = {r.bound_id: r for r in check_intersection_bounds([(1, 1, 10)])}
    assert reps["no_overlap_lower"].lhs == pytest.approx(lower)
    assert reps["no_overlap_lower"].rhs == pytest.approx(0.9)
    assert reps["no_overlap_upper"].rhs == pytest.approx(upper)
    assert all(r.status == "pass" for r in reps.values())


def test_intersection_degenerate_point():
    reps = {r.bound_id: r for r in check_intersection_bounds([(0, 0, 100)])}
    # lambda = 0: everything collapses to equalities, all pass
    assert reps["no_overlap_lower"].slack == 0.0
    assert reps["no_overlap_exp"].slack == 0.0
    assert all(r.status == "pass" for r in reps.values())


def test_intersection_side_conditions_skip():
    reps = check_intersection_bounds([(6, 5, 10)])
    by_id = {}
    for r in reps:
        by_id.setdefault(r.bound_id, []).append(r)
    assert all(r.status == "skipped" for r in by_id["no_overlap_lower"])
    assert all(r.status == "skipped" for r in by_id["edge_prob_upper"])
    # the tail and exponential families still evaluate
    assert all(r.status == "pass" for r in by_id["no_overlap_exp"])
    assert all(r.status == "pass" for r in by_id["overlap_tail_upper"])


def test_tail_bound_against_exact_tail():
    # j = k = 10, m = 100: lambda = 1, deviation t = 3
    reps = [r for r in check_intersection_bounds([(10, 10, 100)])
            if r.params.get("t") == 3]
    up = next(r for r in reps if r.bound_id == "overlap_tail_upper")
    exact = sum(float(hyper_pmf_exact(10, 10, 100, r)) for r in range(4, 11))
    assert up.lhs == pytest.approx(exact, rel=1e-10)
    assert up.rhs == pytest.approx(math.exp(-9.0 / (2.0 * 2.0)))
    assert up.status == "pass"
    lo = next(r for r in reps if r.bound_id == "overlap_tail_lower")
    # P(H <= -2) = 0, bound exp(-9/2)
    assert lo.lhs == 0.0
    assert lo.status == "pass"


def test_tail_deviation_zero_is_vacuous_equality():
    reps = [r for r in check_intersection_bounds([(4, 4, 50)])
            if r.params.get("t") == 0]
    assert {r.bound_id for r in reps} == {"overlap_tail_upper", "overlap_tail_lower"}
    for r in reps:
        assert r.rhs == 1.0
        assert r.status == "pass"


def test_reports_own_their_params():
    # one grid point hands the same dict to several reports, and so does
    # one t of the tail mass, here with t = 0.5 below c0 skipped
    tail = check_tail_mass(n=10**4, alpha=0.8, c0=1, rng=trial_rng(9, 0, 0),
                           t_grid=np.array([0.5, 2.0]), gamma=1, trials=5)
    assert [r.status for r in tail[:4]] == ["skipped"] * 4
    assert tail[4].bound_id == "mass_sandwich_lower"
    for reps, key in ((check_intersection_bounds([(3, 4, 20)]), "j"), (tail, "n")):
        assert len({id(r.params) for r in reps}) == len(reps)
        first = reps[0].params[key]
        reps[0].params[key] = 99
        assert all(r.params[key] == first for r in reps[1:])
        assert all(type(r.lhs) is float and type(r.rhs) is float for r in reps)


def test_report_pins_numpy_scalars_to_plain_types():
    params = {"j": np.int64(3), "s": np.float64(0.5), "ok": np.bool_(True),
              "name": "x", "none": None}
    rep = BoundReport("b", params, np.float64(0.25), np.int64(1), "fail")
    assert {k: type(v) for k, v in rep.params.items()} == {
        "j": int, "s": float, "ok": bool, "name": str, "none": type(None)}
    assert rep.params == {"j": 3, "s": 0.5, "ok": True, "name": "x", "none": None}
    assert type(params["j"]) is np.int64  # the caller's dict is left alone
    assert [type(x) for x in (rep.lhs, rep.rhs, rep.slack)] == [float] * 3
    assert rep.satisfied is False


def test_report_derives_satisfied_and_slack():
    verdicts = {"pass": True, "vacuous": True, "fail": False, "skipped": None,
                "boundary": None, "inconclusive": None}
    for status, satisfied in verdicts.items():
        assert BoundReport("b", {}, 0.25, 1.0, status).satisfied is satisfied
    assert BoundReport("b", {}, 0.25, 1.0, "pass").slack == 0.75
    assert BoundReport("b", {}, 1.0, 0.25, "fail").slack == -0.75
    for lhs, rhs in ((math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan),
                     (math.inf, math.inf)):
        assert math.isnan(BoundReport("b", {}, lhs, rhs, "skipped").slack)


def test_full_default_grid_clean(default_verify_grid):
    reps = check_intersection_bounds(default_verify_grid)
    assert all(r.status in ("pass", "skipped") for r in reps)
    assert not any(r.status == "fail" for r in reps)


def test_empty_grid_empty_report():
    assert check_intersection_bounds([]) == []


def same_bits(x: float, y: float) -> bool:
    return math.isnan(x) and math.isnan(y) or x.hex() == y.hex()


def test_intersection_reports_match_the_reference(mixed_verify_grid):
    # the lean per-point build against the suite as it was written, report
    # by report: every field, each param's type, and lhs and rhs bit for bit
    got = check_intersection_bounds(mixed_verify_grid)
    want = intersection_reports_reference(mixed_verify_grid)
    assert {r.status for r in got} == {"pass", "skipped"}
    assert not any(r.status == "fail" for r in got if r.params["m"] == 150000000)
    assert any(r.params["j"] * r.params["k"] == 0 for r in got)
    assert len(got) == len(want) == 9066
    for a, b in zip(got, want):
        assert (a.bound_id, a.status, a.note) == (b.bound_id, b.status, b.note)
        assert ([(key, type(v), v) for key, v in a.params.items()]
                == [(key, type(v), v) for key, v in b.params.items()])
        assert same_bits(a.lhs, b.lhs) and same_bits(a.rhs, b.rhs), (a, b)
        assert type(a.lhs) is float and type(a.rhs) is float


def test_intersection_grid_of_numpy_ints_gives_plain_reports():
    grid = [(3, 4, 20), (0, 5, 9), (6, 5, 10)]
    want = check_intersection_bounds(grid)
    got = check_intersection_bounds([tuple(map(np.int64, p)) for p in grid])
    assert got == want
    for rep in got:
        assert {type(v) for v in rep.params.values()} <= {int, float}
        assert type(rep.lhs) is float and type(rep.rhs) is float
    with pytest.raises(TypeError):
        check_intersection_bounds([(3.0, 4, 20)])


# --- union coverage ----------------------------------------------------------


def test_union_coverage_preconditions():
    rng = trial_rng(0, 0, 0)
    with pytest.raises(ValueError):
        check_union_coverage(100, 0.5, 0.2, [10], 50, 10, rng)  # g1 >= g2
    with pytest.raises(ValueError):
        check_union_coverage(100, 0.1, 0.5, [11], 50, 10, rng)  # sum > g1*m
    with pytest.raises(ValueError):
        check_union_coverage(10**6, 0.1, 0.5, [10, 10], 10**6, 10, rng)  # below size floor
    with pytest.raises(ValueError):
        check_union_coverage(100, 0.1, 0.5, [], 50, 10, rng)


def test_union_coverage_single_set_trivial():
    # one set: the union IS the set, so coverage holds in every trial
    rng = trial_rng(1, 0, 0)
    g1, g2 = 0.3, 0.6
    size = math.ceil(6 * g2 * (g2 - g1) ** -2 * math.log(50))
    rep = check_union_coverage(m=size * 10, gamma1=g1, gamma2=g2,
                               sizes=[size], n=50, trials=60, rng=rng)
    assert rep.rhs == 1.0
    assert rep.status == "pass"
    assert rep.params["r"] == 1


def test_union_coverage_standard_point():
    rng = trial_rng(2, 0, 0)
    rep = check_union_coverage(13000, 0.1, 0.5, [130] * 10, 1000, 300, rng)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(1.0 - 10 * 1000.0**-3)
    assert 0.99 <= rep.rhs <= 1.0


# --- conditional overlap -----------------------------------------------------


def test_conditional_overlap_validation():
    rng = trial_rng(0, 0, 0)
    with pytest.raises(ValueError):
        check_conditional_overlap(5, 4, 3, 1000, 100, rng)  # a > d
    with pytest.raises(ValueError):
        check_conditional_overlap(2, 4, 30, 1000, 100, rng)  # d > m/100
    with pytest.raises(ValueError):
        check_conditional_overlap(0, 4, 3, 1000, 100, rng)


def test_conditional_overlap_boundary_below_b4():
    rng = trial_rng(3, 0, 0)
    rep = check_conditional_overlap(2, 2, 3, 400, 20000, rng)
    assert rep.status == "boundary"
    assert rep.satisfied is None
    # at b = 2 the claimed bound is actually beaten by the true probability:
    # the derivation needs floor(b/4) >= 1, so the point is reported, not judged
    exact = float(conditional_overlap_exact(2, 2, 3, 400))
    assert exact > rep.rhs


def test_conditional_overlap_vacuous_point():
    rng = trial_rng(4, 0, 0)
    rep = check_conditional_overlap(40, 16, 100, 10000, 30000, rng)
    assert rep.status == "vacuous"
    assert rep.rhs > 1.0
    assert rep.satisfied is True


def test_conditional_overlap_matches_enumeration():
    # indicator off (a <= b/4): bound e^(-1/2); the exact rate is 0.0200,
    # and 0 with S_a taken for S_d.  Only S_b holding attribute 0 is
    # accepted, 4 in 300, so the 10x cap stops at about 5,300 accepted.
    a, b, d, m = 1, 4, 3, 300
    exact = float(conditional_overlap_exact(a, b, d, m))
    assert 0.01 < exact < 0.5
    rng = trial_rng(5, 0, 0)
    rep = check_conditional_overlap(a, b, d, m, 40000, rng)
    assert rep.status == "pass"
    assert rep.rhs == pytest.approx(math.exp(-0.5))
    accepted = int(rep.note.rsplit("accepted=", 1)[1])
    se = math.sqrt(exact * (1 - exact) / accepted)
    assert abs(rep.lhs - exact) <= 4 * se


def test_conditional_overlap_counts_s_a_and_s_d_apart():
    # the hits of S_b in S_a and in S_d are counted apart: the exact rate is
    # 0.0209 here, and 0.0060 with S_a taken for S_d.  About 20,000 of the
    # 10^6 draws are accepted.
    a, b, d, m = 5, 4, 10, 1000
    exact = float(conditional_overlap_exact(a, b, d, m))
    rep = check_conditional_overlap(a, b, d, m, 100000, trial_rng(9, 0, 0))
    se = math.sqrt(exact * (1 - exact) / 20000)
    assert abs(rep.lhs - exact) <= 4 * se


def test_conditional_overlap_inconclusive():
    # acceptance probability ~ b*a/m = 4e-4: the 10x cap cannot reach 100
    rng = trial_rng(6, 0, 0)
    rep = check_conditional_overlap(1, 4, 9, 10000, 20, rng)
    assert rep.status == "inconclusive"
    assert rep.satisfied is None


# --- truncated mass ----------------------------------------------------------


def test_mass_grid_strictly_interior():
    g = _default_mass_grid(10**5, 0.8, 1.0)
    pole = (10**5) ** (1 / 1.8)
    assert g.shape == (10,)
    assert np.all(g > 1.0) and np.all(g < pole)
    assert np.all(np.diff(np.log(g)) > 0)


def test_mass_sandwich_analytic_all_pass():
    rng = trial_rng(7, 0, 0)
    reps = check_tail_mass(n=10**4, alpha=0.8, c0=1.0, rng=rng, trials=20)
    sandwich = [r for r in reps if r.bound_id.startswith("mass_sandwich")]
    assert sandwich and all(r.status == "pass" for r in sandwich)
    mc = [r for r in reps if r.bound_id == "mass_mc_agreement"]
    assert mc and all(r.status == "pass" for r in mc)


def test_mass_left_endpoint_evaluates():
    # t = c0 is inside the closed-left valid range and stays in the sandwich
    rng = trial_rng(8, 0, 0)
    reps = check_tail_mass(n=10**4, alpha=0.5, c0=1.0, rng=rng,
                           t_grid=np.array([1.0]), trials=20)
    lower = next(r for r in reps if r.bound_id == "mass_sandwich_lower")
    upper = next(r for r in reps if r.bound_id == "mass_sandwich_upper")
    assert lower.status == "pass" and upper.status == "pass"


def test_mass_out_of_range_skipped():
    rng = trial_rng(9, 0, 0)
    pole = (10**4) ** (1 / 1.8)
    reps = check_tail_mass(n=10**4, alpha=0.8, c0=1.0, rng=rng,
                           t_grid=np.array([0.5, pole * 2]), trials=5)
    skipped = [r for r in reps if r.status == "skipped"]
    assert len(skipped) == 8  # 4 families x 2 bad points


def test_mass_deviation_vacuous_flagged():
    # tiny n: the deviation bound blows past 1 and the check self-reports it
    rng = trial_rng(10, 0, 0)
    reps = check_tail_mass(n=50, alpha=0.8, c0=1.0, rng=rng, trials=10)
    dev = [r for r in reps if r.bound_id == "mass_deviation"]
    assert dev and all(r.status in ("vacuous", "pass", "fail") for r in dev)
    assert any(r.status == "vacuous" for r in dev)


def test_mass_window_report_present():
    rng = trial_rng(11, 0, 0)
    reps = check_tail_mass(n=10**4, alpha=0.8, c0=1.0, rng=rng, trials=40)
    win = [r for r in reps if r.bound_id == "max_weight_window"]
    assert len(win) == 1
    rep = win[0]
    assert 0.0 <= rep.rhs <= 1.0
    assert rep.lhs == 0.9
    assert (rep.status == "pass") == (rep.rhs >= 0.9)


@pytest.mark.parametrize("n", [2, 10, 13])
def test_mass_below_14_raises(n):
    # ln ln(2+n) <= 1 puts T* at or below n^(1/(1+alpha)), inside the t-grid
    with pytest.raises(ValueError, match=r"n >= 14.*T\* = .* <= n\^\(1/\(1\+alpha\)\)"):
        check_tail_mass(n=n, alpha=0.8, c0=1.0, rng=trial_rng(12, 0, 0), trials=5)


def test_mass_from_14_runs():
    assert iterated_log(13) < 1.0 < iterated_log(14)
    reps = check_tail_mass(n=14, alpha=0.8, c0=1.0, rng=trial_rng(12, 0, 0), trials=5)
    assert len(reps) == 41


def test_mass_tau_validation():
    rng = trial_rng(12, 0, 0)
    with pytest.raises(ValueError):
        check_tail_mass(n=100, alpha=0.8, c0=1.0, rng=rng, tau=2.0)
    with pytest.raises(ValueError):
        check_tail_mass(n=100, alpha=0.8, c0=1.0, rng=rng, gamma=-0.5)


def test_sandwich_constant_untruncated_identity():
    # (alpha/(1+alpha)) * t^alpha * E[Z 1{Z > t}] == c0^(1+alpha) for t >= c0
    law = TailLaw(0.8, 1.5)
    for t in (1.5, 3.0, 77.0):
        q = (0.8 / 1.8) * t**0.8 * law.interval_mean(t, math.inf)
        assert q == pytest.approx(law.tail_constant, rel=1e-12)


# --- degree tail -------------------------------------------------------------


def test_degree_tail_empty_graph():
    inc = BipartiteIncidence.from_sets(4, 10, [[], [], [], []])
    rep = degree_tail_report(core_of(inc))
    assert rep["slope"] is None
    assert rep["survival"] == [0.0]


def test_degree_tail_survival_is_valid(medium_instance):
    params, inc, w = medium_instance
    rep = degree_tail_report(core_of(inc))
    survival = np.asarray(rep["survival"])
    assert np.all(survival >= 0) and np.all(survival <= 1)
    assert np.all(np.diff(survival) <= 1e-12)  # nonincreasing
    assert len(rep["grid"]) == len(rep["survival"])
