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

Exact quantities are evaluated through log-factorials: one HypergeomTable
per (j, k, m) holds the pmf of H and both tails.  The log-gammas come from
_log_gamma, a port of Cephes lgam to integers that reproduces
scipy.special.gammaln bit for bit, so the package needs numpy alone.  The
log-factorials of m cancel, each leaving an absolute error of the order of
m ln m * 2**-53: P(H = 0) at j = k = 12 is off by 1.5e-12 at m = 1000,
5.6e-10 at m = 1e6 and 8.8e-8 at m = 3e7, so from m near 1e6 on the exact
checks report false fails against EXACT_TOL.  Every Monte Carlo verdict goes
through a 99% Wilson score interval and can only refute a bound from the
safe side.  A BoundReport stores only lhs, rhs and its status; satisfied and
slack = rhs - lhs follow from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .graphgen import _sorted_unique, sample_incidence
from .graphops import TraversalCore, degrees
from .model import TailLaw, iterated_log

__all__ = [
    "HypergeomTable",
    "BoundReport",
    "no_overlap_probability",
    "wilson_interval",
    "check_intersection_bounds",
    "check_union_coverage",
    "check_conditional_overlap",
    "check_tail_mass",
    "degree_tail_report",
    "coverage_floor",
    "hypergeom_error",
    "overlap_point_error",
    "mass_regime_error",
    "mass_tau_error",
    "mass_gamma_error",
    "json_object",
]

# 99% two-sided normal quantile, fixed for every Wilson interval here.
WILSON_Z = 2.5758293035489004

EXACT_TOL = 1e-12

# degree_tail_report: least vertex count at the top of the fit window, and
# grid points per decade of degree
DEGREE_MIN_SUPPORT = 50
POINTS_PER_DECADE = 8


# ln sqrt(2 pi), to the digits Cephes lgam gives
_LOG_SQRT_2PI = 0.91893853320467274178


# the tables of one grid share most of their arguments (m + 1, m - k + 1, ...)
@functools.lru_cache(maxsize=4096)
def _log_gamma(x: int) -> float:
    """ln Gamma(x) of an integer x >= 1, bit for bit as scipy.special.gammaln.

    Moshier's Cephes lgam (Methods and Programs for Mathematical Functions,
    1989), which gammaln evaluates, restricted to integers: below 13 its
    product is the exact (x-1)!, and above it the Stirling series with the
    same coefficients, branches and order of operations.  math.log is libm's
    log, as in Cephes; numpy's SIMD log can differ from it in the last bit.
    """
    if x < 13:
        return math.log(float(math.factorial(x - 1)))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300E-4 * p
                   - 5.95061904284301438324E-4) * p
                  + 7.93650340457716943945E-4) * p
                 - 2.77777777730099687205E-3) * p
                + 8.33333333333331927722E-2) / x


def _log_gammas(xs: np.ndarray) -> np.ndarray:
    """_log_gamma of every entry of an integer array."""
    return np.fromiter(map(_log_gamma, xs.tolist()), float, xs.shape[0])


class HypergeomTable:
    """The law of H = |draws cap marked| for j draws from an m-pool with k
    marked: its pmf over the support lo..hi in one log-factorial pass
    (relative error of the order of m ln m * 2**-53), with prefix sums for
    both tails.  Build once per (j, k, m)."""

    def __init__(self, j: int, k: int, m: int):
        error = hypergeom_error(j, k, m)
        if error is not None:
            raise ValueError(error)
        self.mean = j * k / m if m else 0.0
        self.lo, self.hi = max(0, j + k - m), min(j, k)
        r = np.arange(self.lo, self.hi + 1)
        logs = (_log_gamma(k + 1) - _log_gammas(r + 1) - _log_gammas(k - r + 1)
                + _log_gamma(m - k + 1) - _log_gammas(j - r + 1)
                - _log_gammas(m - k - j + r + 1)
                - _log_gamma(m + 1) + _log_gamma(j + 1) + _log_gamma(m - j + 1))
        self.pmf = np.exp(logs)
        self.prefix = np.concatenate(([0.0], np.cumsum(self.pmf)))

    def prob(self, r: int) -> float:
        """P(H = r); 0 off the support."""
        return float(self.pmf[r - self.lo]) if self.lo <= r <= self.hi else 0.0

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


def hypergeom_error(j: int, k: int, m: int) -> Optional[str]:
    """Why (j, k, m) is no overlap model, or None: it needs 0 <= j, k <= m."""
    if m < 0 or j < 0 or k < 0:
        return "j, k, m must be non-negative"
    if j > m or k > m:
        return f"j and k cannot exceed m, got j = {j}, k = {k}, m = {m}"
    return None


def no_overlap_probability(j: int, k: int, m: int) -> float:
    """P(H = 0) = (m-k)_j / (m)_j via log-factorials (0 when j + k > m).

    Four log-factorials at any j, k and m, where a HypergeomTable takes a
    pass over the support; HypergeomTable.prob(0) can differ from it in the
    last bits."""
    if j + k > m:
        return 0.0
    if j == 0 or k == 0:
        return 1.0
    return math.exp(
        _log_gamma(m - k + 1) - _log_gamma(m - k - j + 1) - _log_gamma(m + 1)
        + _log_gamma(m - j + 1)
    )


def wilson_interval(successes: int, trials: int):
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    ph = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = (WILSON_Z * math.sqrt(ph * (1.0 - ph) / trials + z2 / (4 * trials * trials))
            / denom)
    return max(0.0, center - half), min(1.0, center + half)


# json's spellings of the floats that float.__repr__ writes as nan and inf;
# a report's own numbers write NaN, "not evaluated", as null
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_NUMBER = {**_JSON_FLOAT, "nan": "null"}
_PLAIN = frozenset({str, int, float, bool, type(None)})
# a report's verdict by status; every status not listed was not adjudicated
_SATISFIED = {"pass": True, "vacuous": True, "fail": False}


def _json_scalar(value) -> str:
    """value as json.dumps writes it with ensure_ascii on.

    Raises TypeError where json would (a numpy int64 or bool_, say), and for
    lists and dicts, which no report holds.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOAT.get(text, text)
    raise TypeError(f"{type(value).__name__} value {value!r} is not a JSON scalar")


def _json_number(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NUMBER.get(text, text)


def json_object(doc: dict, depth: int) -> str:
    """A dict of scalars at nesting depth `depth` as json.dump(sort_keys=True,
    indent=2) writes it, from its opening brace to its closing one."""
    if not doc:
        return "{}"
    pad = "  " * depth
    items = ",\n".join([f"{pad}  {encode_basestring_ascii(key)}: {_json_scalar(doc[key])}"
                        for key in sorted(doc)])
    return f"{{\n{items}\n{pad}}}"


@dataclass
class BoundReport:
    """One checked inequality instance, always oriented as lhs <= rhs.

    status: pass / fail for evaluated checks; vacuous when the bound exceeds
    1 and holds for free; boundary when the point sits outside the side
    conditions of the derivation (reported, not asserted); inconclusive when
    a conditional Monte Carlo could not collect enough samples; skipped when
    the point violates a precondition that only disables this family.
    satisfied follows from the status alone and is None whenever the check
    was not adjudicated; slack is rhs - lhs.
    """

    bound_id: str
    params: dict
    lhs: float
    rhs: float
    status: str
    note: str = ""

    def __post_init__(self) -> None:
        # numpy scalars sneak in from vectorized arithmetic; pin plain types
        # so json and csv writers see only stdlib values.  The params dict is
        # copied because the suites hand one dict to several reports.
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        params = dict(self.params)
        if not _PLAIN.issuperset(map(type, params.values())):
            for key, value in params.items():
                if isinstance(value, np.generic):
                    params[key] = value.item()
        self.params = params

    @property
    def satisfied(self) -> Optional[bool]:
        return _SATISFIED.get(self.status)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def json_block(self) -> str:
        """This report as json.dump(sort_keys=True, indent=2) writes it as an
        entry of the verify report's "reports" list (depth 2), without the
        line break before it.  NaN in lhs, rhs and slack is written null."""
        return (f'    {{\n'
                f'      "bound_id": {encode_basestring_ascii(self.bound_id)},\n'
                f'      "lhs": {_json_number(self.lhs)},\n'
                f'      "note": {encode_basestring_ascii(self.note)},\n'
                f'      "params": {json_object(self.params, 3)},\n'
                f'      "rhs": {_json_number(self.rhs)},\n'
                f'      "satisfied": {_json_scalar(self.satisfied)},\n'
                f'      "slack": {_json_number(self.slack)},\n'
                f'      "status": {encode_basestring_ascii(self.status)}\n'
                f'    }}')


def _exact_report(bound_id: str, params: dict, lhs: float, rhs: float,
                  note: str = "") -> BoundReport:
    tol = EXACT_TOL * max(1.0, abs(lhs), abs(rhs))
    return BoundReport(bound_id, params, lhs, rhs,
                       "pass" if lhs <= rhs + tol else "fail", note)


def _skip_report(bound_id: str, params: dict, note: str) -> BoundReport:
    return BoundReport(bound_id, params, math.nan, math.nan, "skipped", note)


def check_intersection_bounds(grid):
    """Exact checks of the overlap inequalities at every (j, k, m) of grid.

    Four families per point: the no-overlap sandwich on P(H = 0), the
    derived sandwich on the hit probability P(H >= 1), Bernstein-style tail
    bounds on the deviation of H from jk/m by each integer t in 0..min(j,k),
    and the exponential no-overlap bound P(H = 0) <= exp(-jk/2m).
    Points that break a family's side condition are reported as skipped for
    that family only.
    """
    reports = []
    for j, k, m in grid:
        table = HypergeomTable(j, k, m)
        base = {"j": j, "k": k, "m": m}
        lam = table.mean
        p0 = no_overlap_probability(j, k, m)

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

        for t in range(min(j, k) + 1):
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


def coverage_floor(gamma1: float, gamma2: float, n: int) -> float:
    """The union-coverage claim's least set size 6*g2*(g2-g1)^-2*ln(n)."""
    return 6.0 * gamma2 * (gamma2 - gamma1) ** -2 * math.log(n)


def check_union_coverage(m: int, gamma1: float, gamma2: float,
                         sizes: Sequence[int], n: int, trials: int,
                         rng: np.random.Generator) -> BoundReport:
    """Monte Carlo check that r independent uniform subsets barely overlap.

    Claim: P(|union S_h| >= (1 - gamma2) * sum |S_h|) >= 1 - r * n^-3,
    under sum sizes <= gamma1 * m and every size >= coverage_floor(gamma1, gamma2, n).
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
    floor = coverage_floor(gamma1, gamma2, n)
    if np.any(sizes < floor):
        raise ValueError(f"every size must be >= {floor:.3f} = 6*g2*(g2-g1)^-2*ln(n)")

    total = int(sizes.sum())
    need = (1.0 - gamma2) * total
    hits = 0
    for _ in range(trials):
        occupied = _sorted_unique(sample_incidence(m, sizes, rng).set_attrs).shape[0]
        if occupied >= need:
            hits += 1
    bound = 1.0 - r * float(n) ** -3
    lo, hi = wilson_interval(hits, trials)
    ok = hi >= bound  # lower-bound claim: refuted only when even hi falls short
    return BoundReport(
        "union_coverage",
        {"m": m, "gamma1": gamma1, "gamma2": gamma2, "r": r, "n": n,
         "trials": trials},
        bound, hits / trials, "pass" if ok else "fail",
        f"wilson99=[{lo:.6f},{hi:.6f}]",
    )


def overlap_point_error(a: int, b: int, d: int, m: int) -> Optional[str]:
    """Why check_conditional_overlap cannot run at (a, b, d, m), or None."""
    if not (1 <= a <= d <= m):
        return "need 1 <= a <= d <= m (S_a nested in S_d)"
    if d > m / 100.0:
        return f"needs d <= m/100, got d = {d}, m = {m}"
    if not (1 <= b <= m):
        return "need 1 <= b <= m"
    return None


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
    error = overlap_point_error(a, b, d, m)
    if error is not None:
        raise ValueError(error)

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
            "conditional_overlap", params, math.nan, bound, "inconclusive",
            f"only {accepted} accepted samples in {drawn} draws",
        )
    freq = hits / accepted
    lo, hi = wilson_interval(hits, accepted)
    note = f"wilson99=[{lo:.6f},{hi:.6f}], accepted={accepted}"
    if b < 4:
        return BoundReport("conditional_overlap", params, freq, bound, "boundary",
                           note + "; b < 4 sits outside the derivation")
    if bound >= 1.0:
        return BoundReport("conditional_overlap", params, freq, bound, "vacuous",
                           note + "; bound >= 1")
    # upper-bound claim: refuted only when even lo exceeds it
    return BoundReport("conditional_overlap", params, freq, bound,
                       "pass" if lo <= bound else "fail", note)


def _default_mass_grid(n: int, alpha: float, c0: float, points: int = 10) -> np.ndarray:
    """Strictly interior geometric t-grid between c0 and n^(1/(1+alpha))."""
    ratio = float(n) ** (1.0 / (1.0 + alpha)) / c0
    expo = np.arange(1, points + 1) / (points + 1)
    return c0 * ratio**expo


def mass_regime_error(n: int, alpha: float) -> Optional[str]:
    """Why the tail-mass checks cannot run at n, or None when they can.

    The t-grid reaches up to n^(1/(1+alpha)), so the truncation point
    T* = n^(1/(1+alpha)) * ln ln(2+n) must lie above it: ln ln(2+n) > 1,
    which holds from n = 14 on (0.9962 at n = 13, 1.0198 at n = 14).
    """
    pole = float(n) ** (1.0 / (1.0 + alpha))
    t_upper = pole * iterated_log(n)
    if t_upper > pole:
        return None
    return (f"the tail mass needs n >= 14 so that T* = n^(1/(1+alpha))*ln ln(2+n) "
            f"exceeds n^(1/(1+alpha)); at n = {n}, T* = {t_upper:.6g} <= "
            f"n^(1/(1+alpha)) = {pole:.6g}")


def mass_tau_error(tau: Optional[float], alpha: float) -> Optional[str]:
    """Why the deviation exponent tau is unusable, or None; None stands for
    the default 1 + alpha/2."""
    if tau is None or 1.0 < tau < 1.0 + alpha:
        return None
    return f"need 1 < tau < 1 + alpha = {1.0 + alpha:g}, got {tau}"


def mass_gamma_error(gamma: float) -> Optional[str]:
    """Why the relative deviation gamma is unusable, or None."""
    return None if gamma > 0.0 else f"gamma must be positive, got {gamma}"


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
    An n below 14, where T* <= n^(1/(1+alpha)), raises ValueError.
    """
    for error in (mass_regime_error(n, alpha), mass_tau_error(tau, alpha),
                  mass_gamma_error(gamma)):
        if error is not None:
            raise ValueError(error)
    law = TailLaw(alpha, c0)
    if tau is None:
        tau = 1.0 + alpha / 2.0
    if t_grid is None:
        t_grid = _default_mass_grid(n, alpha, c0)
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
        reports.append(BoundReport(
            "mass_mc_agreement", params, gap, 3.0 * se,
            "pass" if gap <= 3.0 * se else "fail",
            f"mc={q_mc:.6f} analytic={q_analytic:.6f}"))

        dev_bound = cstar * gamma**-tau * float(n) ** (1.0 - tau) \
            * float(t) ** ((tau - 1.0) * (alpha + 1.0))
        dev_hits = int(np.sum(np.abs(l_samples[:, idx] - el) > gamma * el))
        freq = dev_hits / trials
        if dev_bound > 1.0:
            reports.append(BoundReport(
                "mass_deviation", params, freq, dev_bound, "vacuous",
                "bound exceeds 1"))
        else:
            lo, hi = wilson_interval(dev_hits, trials)
            reports.append(BoundReport(
                "mass_deviation", params, freq, dev_bound,
                "pass" if lo <= dev_bound else "fail",
                f"wilson99=[{lo:.6f},{hi:.6f}]"))

    in_window = np.sum((max_z > window_lo) & (max_z <= t_upper))
    freq = float(in_window) / trials
    reports.append(BoundReport(
        "max_weight_window",
        {"n": n, "alpha": alpha, "c0": c0, "omega": omega, "trials": trials},
        window_min, freq, "pass" if freq >= window_min else "fail",
        f"window=({window_lo:.4g}, {t_upper:.4g}]"))
    return reports


def degree_tail_report(core: TraversalCore) -> dict:
    """Empirical degree survival on a geometric grid plus a log-log slope,
    the fitted tail exponent (target -(1+alpha)), as analyze reports them.

    survival[i] = fraction of vertices with degree >= grid[i].  The slope is
    fitted by least squares over the top decade that still has solid support
    (at least DEGREE_MIN_SUPPORT vertices at the upper fit point); slope,
    fit_lo and fit_hi are None when fewer than two grid points qualify.
    """
    deg = degrees(core)
    n = core.n
    dmax = int(deg.max()) if deg.size else 0
    if dmax < 1:
        return {"grid": [1], "survival": [0.0], "slope": None, "fit_lo": None,
                "fit_hi": None, "points_used": 0}

    num = max(2, int(math.ceil(math.log10(dmax) * POINTS_PER_DECADE)) + 1)
    grid = np.unique(np.round(np.geomspace(1, dmax, num=num)).astype(np.int64))
    sorted_deg = np.sort(deg)
    survival = 1.0 - np.searchsorted(sorted_deg, grid, side="left") / n

    # fit window: largest grid degree with >= DEGREE_MIN_SUPPORT vertices
    # above it, then one decade down from there
    counts = survival * n
    eligible = np.flatnonzero(counts >= DEGREE_MIN_SUPPORT)
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
    return {"grid": grid.tolist(), "survival": survival.tolist(), "slope": slope,
            "fit_lo": fit_lo, "fit_hi": fit_hi, "points_used": used}
