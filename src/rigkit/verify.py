"""Machine checks of the concentration inequalities behind the distance bounds.

Four families are covered, all phrased over the shared overlap model: draw a
j-subset and k-subset of an m-pool and let H be their overlap.

* exact hypergeometric bounds on P(H = 0) and P(H >= 1), plus Bernstein-style
  tails for H around its mean jk/m (check_intersection_bounds);
* coverage of a union of independent uniform subsets against the sum of
  their sizes (check_union_coverage);
* the conditional half-overlap bound P(|S_b cap S_d| >= b/2 | S_b hits S_a)
  for nested S_a within S_d (check_conditional_overlap);
* the truncated weight mass L_n(t) = sum of normalized weights in (t, T*]:
  analytic sandwich, Monte Carlo agreement, deviation tail, and the
  max-weight window event (check_tail_mass).

Exact quantities are evaluated through log-factorials so they cannot be
corrupted by cancellation; every Monte Carlo verdict goes through a 99%
Wilson score interval and can only refute a bound from the safe side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .graphgen import BipartiteIncidence, sample_incidence
from .graphops import degrees
from .model import TailLaw, iterated_log

__all__ = [
    "HypergeomParams",
    "BoundReport",
    "DegreeTailReport",
    "hypergeom_pmf",
    "hypergeom_sf",
    "hypergeom_cdf",
    "no_overlap_probability",
    "wilson_interval",
    "check_intersection_bounds",
    "check_union_coverage",
    "check_conditional_overlap",
    "check_tail_mass",
    "degree_tail_report",
    "default_intersection_grid",
]

# 99% two-sided normal quantile, fixed for every Wilson interval here.
WILSON_Z = 2.5758293035489004

EXACT_TOL = 1e-12


@dataclass(frozen=True)
class HypergeomParams:
    """Overlap model: j draws, k marked, pool m; H = |draws cap marked|."""

    j: int
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.j < 0 or self.k < 0:
            raise ValueError("j, k, m must be non-negative")
        if self.j > self.m or self.k > self.m:
            raise ValueError("j and k cannot exceed m")

    @property
    def support(self) -> range:
        return range(max(0, self.j + self.k - self.m), min(self.j, self.k) + 1)

    @property
    def mean(self) -> float:
        return self.j * self.k / self.m if self.m else 0.0


class _Table:
    """pmf of H over its support in one vectorized log-factorial pass, with
    prefix sums for both tails; build once per (j, k, m)."""

    def __init__(self, p: HypergeomParams):
        self.lo, self.hi = p.support.start, p.support.stop - 1
        r = np.arange(self.lo, self.hi + 1)
        logs = (gammaln(p.k + 1) - gammaln(r + 1) - gammaln(p.k - r + 1)
                + gammaln(p.m - p.k + 1) - gammaln(p.j - r + 1)
                - gammaln(p.m - p.k - p.j + r + 1)
                - gammaln(p.m + 1) + gammaln(p.j + 1) + gammaln(p.m - p.j + 1))
        self.pmf = np.exp(logs)
        self.prefix = np.concatenate(([0.0], np.cumsum(self.pmf)))

    def at_least(self, x: float) -> float:
        """P(H >= x) for a real x; 1 below the support, 0 above it."""
        start = max(self.lo, math.ceil(x))
        if start <= self.lo:
            return 1.0
        if start > self.hi:
            return 0.0
        return min(1.0, float(self.prefix[-1] - self.prefix[start - self.lo]))

    def at_most(self, x: float) -> float:
        """P(H <= x) for a real x; 0 below the support, 1 above it."""
        stop = min(self.hi, math.floor(x))
        if stop >= self.hi:
            return 1.0
        if stop < self.lo:
            return 0.0
        return min(1.0, float(self.prefix[stop - self.lo + 1]))


def hypergeom_pmf(p: HypergeomParams, r: int) -> float:
    """P(H = r), exact up to log-factorial rounding (rel err <= 1e-10)."""
    if r not in p.support:
        return 0.0
    table = _Table(p)
    return float(table.pmf[r - table.lo])


def hypergeom_sf(p: HypergeomParams, t: float) -> float:
    """P(H >= t) for a real threshold t; 1 below the support, 0 above it."""
    return _Table(p).at_least(t)


def hypergeom_cdf(p: HypergeomParams, t: float) -> float:
    """P(H <= t) for a real threshold t."""
    return _Table(p).at_most(t)


def no_overlap_probability(j: int, k: int, m: int) -> float:
    """P(H = 0) = (m-k)_j / (m)_j via log-factorials (0 when j + k > m)."""
    if j + k > m:
        return 0.0
    if j == 0 or k == 0:
        return 1.0
    return math.exp(
        gammaln(m - k + 1) - gammaln(m - k - j + 1) - gammaln(m + 1) + gammaln(m - j + 1)
    )


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z):
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    ph = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class BoundReport:
    """One checked inequality instance, always oriented as lhs <= rhs.

    status: pass / fail for evaluated checks; vacuous when the bound exceeds
    1 and holds for free; boundary when the point sits outside the side
    conditions of the derivation (reported, not asserted); inconclusive when
    a conditional Monte Carlo could not collect enough samples; skipped when
    the point violates a precondition that only disables this family.
    satisfied is None whenever the check was not actually adjudicated.
    """

    bound_id: str
    params: dict
    lhs: float
    rhs: float
    satisfied: Optional[bool]
    slack: float
    status: str
    note: str = ""

    def __post_init__(self) -> None:
        # numpy scalars sneak in from vectorized arithmetic; pin plain types
        # so json and csv writers see only stdlib values
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.slack = float(self.slack)
        if self.satisfied is not None:
            self.satisfied = bool(self.satisfied)
        self.params = {k: (v.item() if isinstance(v, np.generic) else v)
                       for k, v in self.params.items()}

    def to_dict(self) -> dict:
        def num(x: float):
            return None if math.isnan(x) else x
        return {
            "bound_id": self.bound_id,
            "params": dict(self.params),
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "satisfied": self.satisfied,
            "slack": num(self.slack),
            "status": self.status,
            "note": self.note,
        }


def _exact_report(bound_id: str, params: dict, lhs: float, rhs: float,
                  note: str = "") -> BoundReport:
    tol = EXACT_TOL * max(1.0, abs(lhs), abs(rhs))
    ok = lhs <= rhs + tol
    return BoundReport(bound_id, params, lhs, rhs, ok, rhs - lhs,
                       "pass" if ok else "fail", note)


def _skip_report(bound_id: str, params: dict, note: str) -> BoundReport:
    return BoundReport(bound_id, params, math.nan, math.nan, None, math.nan,
                       "skipped", note)


def default_intersection_grid():
    """The standing grid: all j, k in 0..30 crossed with m in {100, 300, 1000}."""
    return [(j, k, m) for m in (100, 300, 1000)
            for j in range(31) for k in range(31)]


def check_intersection_bounds(grid=None, deviations: Optional[Sequence[int]] = None):
    """Exact checks of the overlap inequalities at every grid point.

    Four families per (j, k, m): the no-overlap sandwich on P(H = 0), the
    derived sandwich on the hit probability P(H >= 1), Bernstein-style tail
    bounds on deviations of H from jk/m at each integer deviation t (all of
    0..min(j,k) unless a custom list is given), and the exponential
    no-overlap bound P(H = 0) <= exp(-jk/2m).  Points that break a family's
    side condition are reported as skipped for that family only.
    """
    if grid is None:
        grid = default_intersection_grid()
    reports = []
    for j, k, m in grid:
        p = HypergeomParams(j=j, k=k, m=m)
        base = {"j": j, "k": k, "m": m}
        lam = p.mean
        p0 = no_overlap_probability(j, k, m)
        table = _Table(p)

        if j + k < m:
            lower = 1.0 - lam / (1.0 - (j + k) / m)
            upper = 1.0 - lam + lam * lam
            reports.append(_exact_report("no_overlap_lower", base, lower, p0))
            reports.append(_exact_report("no_overlap_upper", base, p0, upper))
        else:
            note = f"needs j+k < m, got {j + k} >= {m}"
            reports.append(_skip_report("no_overlap_lower", base, note))
            reports.append(_skip_report("no_overlap_upper", base, note))

        s = (j + k) / m
        if s < 1.0:
            hit = 1.0 - p0
            reports.append(_exact_report(
                "edge_prob_lower", {**base, "s": s}, lam - lam * lam, hit))
            reports.append(_exact_report(
                "edge_prob_upper", {**base, "s": s}, hit,
                lam + (2.0 / (1.0 - s)) * lam * lam))
        else:
            note = f"needs (j+k)/m < 1, got s = {s:g}"
            reports.append(_skip_report("edge_prob_lower", {**base, "s": s}, note))
            reports.append(_skip_report("edge_prob_upper", {**base, "s": s}, note))

        t_values = range(min(j, k) + 1) if deviations is None else deviations
        for t in t_values:
            if t > min(j, k):
                continue
            pt = {**base, "t": t}
            upper_tail = table.at_least(lam + t)
            rhs_up = 1.0 if t == 0 else math.exp(-t * t / (2.0 * (lam + t / 3.0)))
            reports.append(_exact_report("overlap_tail_upper", pt, upper_tail, rhs_up))
            lower_tail = table.at_most(lam - t)
            if t == 0:
                rhs_lo = 1.0
            elif lam == 0.0:
                rhs_lo = 0.0
            else:
                rhs_lo = math.exp(-t * t / (2.0 * lam))
            reports.append(_exact_report("overlap_tail_lower", pt, lower_tail, rhs_lo))

        reports.append(_exact_report(
            "no_overlap_exp", base, p0, math.exp(-j * k / (2.0 * m))))
    return reports


def check_union_coverage(m: int, gamma1: float, gamma2: float,
                         sizes: Sequence[int], n: int, trials: int,
                         rng: np.random.Generator) -> BoundReport:
    """Monte Carlo check that r independent uniform subsets barely overlap.

    Claim: P(|union S_h| >= (1 - gamma2) * sum |S_h|) >= 1 - r * n^-3,
    under sum sizes <= gamma1 * m and every size >= 6*gamma2*(gamma2-gamma1)^-2*ln(n).
    The reference scale n enters only through the bound and the size floor.
    Precondition violations raise ValueError naming the condition.
    """
    sizes = np.asarray(list(sizes), dtype=np.int64)
    r = sizes.shape[0]
    if not (0.0 < gamma1 < gamma2 < 1.0):
        raise ValueError("need 0 < gamma1 < gamma2 < 1")
    if r == 0:
        raise ValueError("need at least one set")
    if n < 2:
        raise ValueError("reference scale n must be >= 2")
    if int(sizes.sum()) > gamma1 * m:
        raise ValueError("sum of sizes exceeds gamma1 * m")
    floor = 6.0 * gamma2 * (gamma2 - gamma1) ** -2 * math.log(n)
    if np.any(sizes < floor):
        raise ValueError(f"every size must be >= {floor:.3f} = 6*g2*(g2-g1)^-2*ln(n)")

    total = int(sizes.sum())
    need = (1.0 - gamma2) * total
    hits = 0
    for _ in range(trials):
        inc = sample_incidence(m, sizes, rng)
        if inc.num_occupied >= need:
            hits += 1
    bound = 1.0 - r * float(n) ** -3
    lo, hi = wilson_interval(hits, trials)
    ok = hi >= bound  # lower-bound claim: refuted only when even hi falls short
    return BoundReport(
        "union_coverage",
        {"m": m, "gamma1": gamma1, "gamma2": gamma2, "r": r, "n": n,
         "trials": trials},
        bound, hits / trials, ok, hits / trials - bound,
        "pass" if ok else "fail",
        f"wilson99=[{lo:.6f},{hi:.6f}]",
    )


def check_conditional_overlap(a: int, b: int, d: int, m: int, trials: int,
                              rng: np.random.Generator) -> BoundReport:
    """Conditional half-overlap bound for nested fixed sets.

    With S_a = {0..a-1} inside S_d = {0..d-1} fixed (any concrete nested pair
    is equivalent by symmetry) and S_b a uniform b-subset of the m-pool:

        P(|S_b cap S_d| >= b/2 | S_b cap S_a != 0)
            <= exp(-b/8) * (1 + 4*(m/(a*b)) * 1{a > b/4, a*b <= m, b >= 3}).

    The conditioning event is rejection-sampled with a 10x trial cap; fewer
    than 100 accepted samples yields status "inconclusive".  Points with
    b < 4 sit outside the derivation (the dyadic split needs floor(b/4) >= 1)
    and are reported with status "boundary" instead of being adjudicated.
    """
    if not (1 <= a <= d <= m):
        raise ValueError("need 1 <= a <= d <= m (S_a nested in S_d)")
    if d > m / 100.0:
        raise ValueError("needs d <= m/100")
    if not (1 <= b <= m):
        raise ValueError("need 1 <= b <= m")

    indicator = 1.0 if (a > b / 4.0 and a * b <= m and b >= 3) else 0.0
    bound = math.exp(-b / 8.0) * (1.0 + 4.0 * (m / (a * b)) * indicator)
    params = {"a": a, "b": b, "d": d, "m": m, "trials": trials}

    accepted = 0
    hits = 0
    drawn = 0
    cap = 10 * trials
    batch_size = max(256, min(trials, 65536))
    while accepted < trials and drawn < cap:
        batch = min(batch_size, cap - drawn)
        inc = sample_incidence(m, np.full(batch, b, dtype=np.int64), rng)
        vert_of = np.repeat(np.arange(batch), b)
        in_a = np.bincount(vert_of[inc.set_attrs < a], minlength=batch)
        in_d = np.bincount(vert_of[inc.set_attrs < d], minlength=batch)
        cond = in_a > 0
        take = cond
        if accepted + int(cond.sum()) > trials:
            # keep only enough conditioned rows to land exactly on `trials`
            idx = np.flatnonzero(cond)[: trials - accepted]
            take = np.zeros(batch, dtype=bool)
            take[idx] = True
        accepted += int(take.sum())
        hits += int(np.sum(take & (2 * in_d >= b)))
        drawn += batch

    if accepted < 100:
        return BoundReport(
            "conditional_overlap", params, math.nan, bound, None, math.nan,
            "inconclusive",
            f"only {accepted} accepted samples in {drawn} draws",
        )
    freq = hits / accepted
    lo, hi = wilson_interval(hits, accepted)
    note = f"wilson99=[{lo:.6f},{hi:.6f}], accepted={accepted}"
    if b < 4:
        return BoundReport("conditional_overlap", params, freq, bound, None,
                           bound - freq, "boundary",
                           note + "; b < 4 sits outside the derivation")
    if bound >= 1.0:
        return BoundReport("conditional_overlap", params, freq, bound, True,
                           bound - freq, "vacuous", note + "; bound >= 1")
    ok = lo <= bound  # upper-bound claim: refuted only when even lo exceeds it
    return BoundReport("conditional_overlap", params, freq, bound, ok,
                       bound - freq, "pass" if ok else "fail", note)


def default_mass_grid(n: int, alpha: float, c0: float, points: int = 10) -> np.ndarray:
    """Strictly interior geometric t-grid between c0 and n^(1/(1+alpha))."""
    ratio = float(n) ** (1.0 / (1.0 + alpha)) / c0
    expo = np.arange(1, points + 1) / (points + 1)
    return c0 * ratio**expo


def check_tail_mass(n: int, alpha: float, c0: float,
                    rng: np.random.Generator,
                    t_grid: Optional[np.ndarray] = None,
                    gamma: float = 0.5,
                    tau: Optional[float] = None,
                    trials: int = 100,
                    window_min: float = 0.9):
    """Checks on the truncated weight mass L_n(t) = sum tilde_z in (t, T*].

    Per grid point t (valid range c0 <= t < n^(1/(1+alpha))):
      * mass_sandwich_lower / _upper: the analytic normalized mass
        (alpha/(1+alpha)) * (t^alpha/n) * E L_n(t) = c0^(1+a) * (1-(t/T*)^a)
        against [c1/2, c2];
      * mass_mc_agreement: |Monte Carlo - analytic| against 3 standard errors;
      * mass_deviation: frequency of |L_n(t) - E L_n(t)| > gamma * E L_n(t)
        against c* * gamma^-tau * n^(1-tau) * t^((tau-1)(alpha+1)) with
        c* = 8*c2/((1+alpha-tau)*c1^tau), vacuous when that bound exceeds 1.
    Plus one max_weight_window report: the frequency of
    n^(1/(1+a))/omega < max tilde_z <= n^(1/(1+a))*omega over the trials,
    with omega = ln(ln(2+n)), required to reach window_min.
    """
    law = TailLaw(alpha, c0)
    if tau is None:
        tau = 1.0 + alpha / 2.0
    if not (1.0 < tau < 1.0 + alpha):
        raise ValueError("need 1 < tau < 1 + alpha")
    if not (0.0 < gamma):
        raise ValueError("gamma must be positive")
    if t_grid is None:
        t_grid = default_mass_grid(n, alpha, c0)
    t_grid = np.asarray(t_grid, dtype=float)

    omega = iterated_log(n)
    pole = float(n) ** (1.0 / (1.0 + alpha))
    t_upper = pole * omega  # truncation point T*
    window_lo = pole / omega

    valid = (t_grid >= c0) & (t_grid < pole)
    c1 = c2 = law.tail_constant

    # one pass of sampling serves every grid point
    l_samples = np.empty((trials, t_grid.shape[0]))
    max_z = np.empty(trials)
    for i in range(trials):
        z = np.sort(np.asarray(law.quantile(1.0 - rng.random(n))))
        csum = np.concatenate(([0.0], np.cumsum(z)))
        hi_idx = np.searchsorted(z, t_upper, side="right")
        lo_idx = np.searchsorted(z, t_grid, side="right")
        l_samples[i] = csum[hi_idx] - csum[np.minimum(lo_idx, hi_idx)]
        max_z[i] = z[-1]

    reports = []
    scale_of = (alpha / (1.0 + alpha)) * t_grid**alpha / n
    cstar = 8.0 * c2 / ((1.0 + alpha - tau) * c1**tau)
    for idx, t in enumerate(t_grid):
        params = {"n": n, "alpha": alpha, "c0": c0, "t": float(t),
                  "gamma": gamma, "tau": tau, "trials": trials}
        if not valid[idx]:
            note = f"t outside [c0, n^(1/(1+alpha))) = [{c0:g}, {pole:g})"
            for bid in ("mass_sandwich_lower", "mass_sandwich_upper",
                        "mass_mc_agreement", "mass_deviation"):
                reports.append(_skip_report(bid, params, note))
            continue
        el = n * law.interval_mean(float(t), t_upper)
        q_analytic = scale_of[idx] * el
        reports.append(_exact_report("mass_sandwich_lower", params,
                                     c1 / 2.0, q_analytic))
        reports.append(_exact_report("mass_sandwich_upper", params,
                                     q_analytic, c2))

        q_draws = scale_of[idx] * l_samples[:, idx]
        q_mc = float(np.mean(q_draws))
        se = float(np.std(q_draws, ddof=1)) / math.sqrt(trials)
        gap = abs(q_mc - q_analytic)
        ok = gap <= 3.0 * se
        reports.append(BoundReport(
            "mass_mc_agreement", params, gap, 3.0 * se, ok, 3.0 * se - gap,
            "pass" if ok else "fail", f"mc={q_mc:.6f} analytic={q_analytic:.6f}"))

        dev_bound = cstar * gamma**-tau * float(n) ** (1.0 - tau) \
            * float(t) ** ((tau - 1.0) * (alpha + 1.0))
        dev_hits = int(np.sum(np.abs(l_samples[:, idx] - el) > gamma * el))
        freq = dev_hits / trials
        if dev_bound > 1.0:
            reports.append(BoundReport(
                "mass_deviation", params, freq, dev_bound, True,
                dev_bound - freq, "vacuous", "bound exceeds 1"))
        else:
            lo, hi = wilson_interval(dev_hits, trials)
            ok = lo <= dev_bound
            reports.append(BoundReport(
                "mass_deviation", params, freq, dev_bound, ok,
                dev_bound - freq, "pass" if ok else "fail",
                f"wilson99=[{lo:.6f},{hi:.6f}]"))

    in_window = np.sum((max_z > window_lo) & (max_z <= t_upper))
    freq = float(in_window) / trials
    ok = freq >= window_min
    reports.append(BoundReport(
        "max_weight_window",
        {"n": n, "alpha": alpha, "c0": c0, "omega": omega, "trials": trials},
        window_min, freq, ok, freq - window_min, "pass" if ok else "fail",
        f"window=({window_lo:.4g}, {t_upper:.4g}]"))
    return reports


@dataclass
class DegreeTailReport:
    """Empirical degree survival on a geometric grid plus a log-log slope.

    survival[i] = fraction of vertices with degree >= grid[i].  The slope is
    fitted by least squares over the top decade that still has solid support
    (at least min_support vertices at the upper fit point); slope is None
    when fewer than two grid points qualify.
    """

    grid: np.ndarray
    survival: np.ndarray
    slope: Optional[float]
    fit_lo: Optional[float] = None
    fit_hi: Optional[float] = None
    points_used: int = 0

    def to_dict(self) -> dict:
        return {
            "grid": [int(g) for g in self.grid],
            "survival": [float(s) for s in self.survival],
            "slope": None if self.slope is None else float(self.slope),
            "fit_lo": self.fit_lo,
            "fit_hi": self.fit_hi,
            "points_used": self.points_used,
        }


def degree_tail_report(inc: BipartiteIncidence, min_support: int = 50,
                       points_per_decade: int = 8) -> DegreeTailReport:
    """Degree survival table and fitted tail exponent (target -(1+alpha))."""
    deg = degrees(inc)
    n = inc.n
    dmax = int(deg.max()) if deg.size else 0
    if dmax < 1:
        grid = np.array([1], dtype=np.int64)
        return DegreeTailReport(grid=grid, survival=np.zeros(1), slope=None)

    num = max(2, int(math.ceil(math.log10(dmax) * points_per_decade)) + 1)
    grid = np.unique(np.round(np.geomspace(1, dmax, num=num)).astype(np.int64))
    sorted_deg = np.sort(deg)
    survival = 1.0 - np.searchsorted(sorted_deg, grid, side="left") / n

    # fit window: largest grid degree with >= min_support vertices above it,
    # then one decade down from there
    counts = survival * n
    eligible = np.flatnonzero(counts >= min_support)
    slope = None
    fit_lo = fit_hi = None
    used = 0
    if eligible.size:
        hi = float(grid[eligible[-1]])
        lo = max(1.0, hi / 10.0)
        window = (grid >= lo) & (grid <= hi) & (survival > 0)
        used = int(window.sum())
        if used >= 2 and grid[window][0] < grid[window][-1]:
            slope = float(np.polyfit(np.log(grid[window].astype(float)),
                                     np.log(survival[window]), 1)[0])
            fit_lo, fit_hi = float(lo), float(hi)
    return DegreeTailReport(grid=grid, survival=survival, slope=slope,
                            fit_lo=fit_lo, fit_hi=fit_hi, points_used=used)
