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

Exact quantities come from one HypergeomTable per (j, k, m), which holds
the pmf of H and both tails; P(H = 0) is its prob(0).  The pmf follows the
recursion pmf(r+1)/pmf(r) = (k-r)(j-r) / ((r+1)(m-k-j+r+1)) outward from
the mode and is normalized by math.fsum, so no factorial of m is formed and
nothing cancels.  Against exact rationals, every pmf value that is a normal
float is within 9.4e-16 relative for j, k <= 30 at any m from 30 to 2**40,
and within 1.9e-15 at (j, k, m) = (1500, 1500, 3000).  Every Monte Carlo
verdict goes through a 99% Wilson score interval and can only refute a
bound from the safe side.  A BoundReport stores only lhs, rhs and its
status; satisfied and slack = rhs - lhs follow from them.

Every exact verdict, of the intersection suite and of the tail-mass
sandwich, is one call of _exact, which states the EXACT_TOL pass/fail rule
once; a point outside a family's precondition is one call of _skipped.
Both build their reports without the constructor's type pins, so each
takes floats and a params dict of plain values that the report owns.

A report renders its own block of verify_bounds.json (json_block): one %
template per key set of params (_block_layout), every number spelled by
_json_number.  check_intersection_bounds checks each grid point in scalar
Python on the point's table and spells the point's params once per key set
(jkm, jkms, and jkmt once per t) into a _Layout that its reports carry;
json_block reuses a report's layout while the report's params hold the
very values it spelled.  Nothing is rendered until a writer asks, so a CSV
report renders no JSON.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .graphgen import _occupied_attrs, pack_error, sample_incidence
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
    "coverage_size",
    "coverage_error",
    "hypergeom_error",
    "overlap_point_error",
    "mass_regime_error",
    "mass_tau_error",
    "mass_gamma_error",
]

# 99% two-sided normal quantile, fixed for every Wilson interval here.
WILSON_Z = 2.5758293035489004

EXACT_TOL = 1e-12

# degree_tail_report: least vertex count at the top of the fit window, and
# grid points per decade of degree
DEGREE_MIN_SUPPORT = 50
POINTS_PER_DECADE = 8


class HypergeomTable:
    """The law of H = |draws cap marked| for j draws from an m-pool with k
    marked: its pmf over the support lo..hi, with prefix sums for both
    tails.  Build once per (j, k, m).

    The pmf is built from its ratios
    pmf(r+1)/pmf(r) = (k-r)(j-r) / ((r+1)(m-k-j+r+1)), each one rounded
    quotient of integers.  The mode floor((j+1)(k+1)/(m+2)) gets weight 1,
    every other r the running product of the ratios out to it, so no weight
    exceeds 1, and the pmf is each weight over their math.fsum.  No
    factorial of m is formed, so nothing cancels.
    """

    def __init__(self, j: int, k: int, m: int):
        error = hypergeom_error(j, k, m)
        if error is not None:
            raise ValueError(error)
        self.mean = j * k / m if m else 0.0
        self.lo, self.hi = lo, hi = max(0, j + k - m), min(j, k)
        mode = min(max((j + 1) * (k + 1) // (m + 2), lo), hi)
        gap = m - k - j + 1
        up = [(k - r) * (j - r) / ((r + 1) * (gap + r)) for r in range(mode, hi)]
        down = [(r + 1) * (gap + r) / ((k - r) * (j - r))
                for r in range(mode - 1, lo - 1, -1)]
        # weights lo..mode-1 (the down products, reversed), then mode..hi
        weights = [*accumulate(down, operator.mul, initial=1.0)][:0:-1]
        weights += accumulate(up, operator.mul, initial=1.0)
        total = math.fsum(weights)
        self.pmf = [w / total for w in weights]
        self.prefix = [0.0, *accumulate(self.pmf)]

    def prob(self, r: int) -> float:
        """P(H = r); 0 off the support."""
        return self.pmf[r - self.lo] if self.lo <= r <= self.hi else 0.0

    def at_least(self, x: float) -> float:
        """P(H >= x) for a real x; 1 below the support, 0 above it."""
        start = max(self.lo, math.ceil(x))
        if start <= self.lo:
            return 1.0
        if start > self.hi:
            return 0.0
        return min(1.0, self.prefix[-1] - self.prefix[start - self.lo])

    def at_most(self, x: float) -> float:
        """P(H <= x) for a real x; 0 below the support, 1 above it."""
        stop = min(self.hi, math.floor(x))
        if stop >= self.hi:
            return 1.0
        if stop < self.lo:
            return 0.0
        return min(1.0, self.prefix[stop - self.lo + 1])


def hypergeom_error(j: int, k: int, m: int) -> Optional[str]:
    """Why (j, k, m) is no overlap model, or None: it needs 0 <= j, k <= m."""
    if m < 0 or j < 0 or k < 0:
        return "j, k, m must be non-negative"
    if j > m or k > m:
        return f"j and k cannot exceed m, got j = {j}, k = {k}, m = {m}"
    return None


def no_overlap_probability(j: int, k: int, m: int) -> float:
    """P(H = 0) = (m-k)_j / (m)_j, 0 when j + k > m: the very float
    HypergeomTable(j, k, m).prob(0), from a pass over its at most
    min(j, k) + 1 support points.  A (j, k, m) that hypergeom_error
    rejects raises ValueError."""
    return HypergeomTable(j, k, m).prob(0)


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


# json's spellings of the floats that float.__repr__ writes as nan and inf,
# in a report's own numbers, which write NaN, "not evaluated", as null
_JSON_NUMBER = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
# a report's verdict by status; every status not listed was not adjudicated
_SATISFIED = {"pass": True, "vacuous": True, "fail": False}


def _json_number(x: float) -> str:
    """A report's lhs, rhs or slack as json writes it, NaN as null."""
    text = float.__repr__(x)
    return _JSON_NUMBER.get(text, text)


def _json_scalar(value) -> str:
    """value as json.dumps writes it with ensure_ascii on.

    Raises TypeError where json would (a numpy int64 or bool_, say), and for
    lists and dicts, which no report holds.
    """
    if type(value) is int:  # a grid's params are mostly ints
        return int.__repr__(value)
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
        text = _json_number(value)
        return "NaN" if text == "null" else text
    raise TypeError(f"{type(value).__name__} value {value!r} is not a JSON scalar")


@dataclass(slots=True)
class BoundReport:
    """One checked inequality instance, always oriented as lhs <= rhs.

    status: pass / fail for evaluated checks; vacuous when the bound exceeds
    1 and holds for free; boundary when the point sits outside the side
    conditions of the derivation (reported, not asserted); inconclusive when
    a conditional Monte Carlo could not collect enough samples; skipped when
    the point violates a precondition that only disables this family.
    satisfied follows from the status alone and is None whenever the check
    was not adjudicated; slack is rhs - lhs.

    The constructor pins numpy scalars to plain types and copies params;
    the Monte Carlo checks and callers outside this module build through
    it.  The exact checks build with _exact and _skipped instead, from
    values that are plain already; check_intersection_bounds gives each of
    its reports the _Layout of its grid point's params, so that json_block
    need not spell them again.
    """

    bound_id: str
    params: dict
    lhs: float
    rhs: float
    status: str
    note: str = ""
    _layout: Optional["_Layout"] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        # numpy scalars sneak in from vectorized arithmetic; pin plain types
        # so json and csv writers see only stdlib values.  The params dict is
        # copied because the suites hand one dict to several reports.
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        params = dict(self.params)
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
        line break before it.  NaN in lhs, rhs and slack is written null.

        The params come from a _Layout: the % template of their key set,
        with one %s per value, and the values' texts.  A report of
        check_intersection_bounds carries its grid point's layout, used
        while its params still hold those very value objects; any other
        report spells its params here.  The numbers go through
        _json_number, and slack reuses rhs's text when lhs is 0.0.  The
        encoded status, and the satisfied it implies, are cached, since a
        grid's reports share a few of them.
        """
        layout = self._layout
        if layout is None or not layout.holds(self.params):
            layout = _Layout.of(self.params)
        status, satisfied = _status_json(self.status)
        lhs, rhs = self.lhs, self.rhs
        lhs_text, rhs_text = _json_number(lhs), _json_number(rhs)
        # rhs - 0.0 is rhs, bit for bit
        slack = rhs_text if lhs_text == "0.0" else _json_number(rhs - lhs)
        return layout.template % (encode_basestring_ascii(self.bound_id), lhs_text,
                                  encode_basestring_ascii(self.note), *layout.texts, rhs_text,
                                  satisfied, slack, status)


_new_report = BoundReport.__new__


def _exact(bound_id: str, params: dict, lhs: float, rhs: float,
           layout: Optional["_Layout"] = None) -> BoundReport:
    """The report of an exact check, the one place its verdict is ruled:
    pass when lhs <= rhs up to EXACT_TOL relative to the larger side, fail
    otherwise.

    Made in one Python call, without the constructor's type pins and params
    copy: lhs and rhs must be floats, and params the report's own dict of
    plain values.  layout, when given, is the _Layout of those values.
    """
    rep = _new_report(BoundReport)
    rep.bound_id = bound_id
    rep.params = params
    rep.lhs = lhs
    rep.rhs = rhs
    rep.status = "pass" if lhs <= rhs + EXACT_TOL * max(1.0, abs(lhs), abs(rhs)) else "fail"
    rep.note = ""
    rep._layout = layout
    return rep


def _skipped(bound_id: str, params: dict, note: str,
             layout: Optional["_Layout"] = None) -> BoundReport:
    """The report of a check skipped at a point that breaks its family's
    precondition: _exact's report of no values, with its own status and note."""
    rep = _exact(bound_id, params, math.nan, math.nan, layout)
    rep.status = "skipped"
    rep.note = note
    return rep


class _Layout:
    """How json_block writes one set of params: order, the sorted keys, and
    template, from _block_layout; values, the params' values in that order,
    and texts, their json spellings."""

    __slots__ = ("order", "template", "values", "texts")

    def __init__(self, order: tuple, template: str, values: tuple, texts: tuple):
        self.order, self.template = order, template
        self.values, self.texts = values, texts

    @classmethod
    def of(cls, params: dict) -> "_Layout":
        order, template = _block_layout(tuple(params))
        values = tuple(map(params.__getitem__, order))
        return cls(order, template, values, tuple(map(_json_scalar, values)))

    def holds(self, params: dict) -> bool:
        """Whether params has these keys, inserted in sorted order, each
        bound to the very object in values.  An equal object is not enough:
        3, 3.0 and True are equal and are spelled apart."""
        return tuple(params) == self.order and all(
            map(operator.is_, params.values(), self.values))


@functools.lru_cache(maxsize=256)
def _status_json(status: str) -> tuple:
    """A status and the satisfied it implies, each as json writes it."""
    return encode_basestring_ascii(status), _json_scalar(_SATISFIED.get(status))


@functools.lru_cache(maxsize=256)
def _block_layout(keys: tuple) -> tuple:
    """The sorted params keys, and the % template of a json_block whose
    params has these keys, as json.dump(sort_keys=True, indent=2) writes
    params at nesting depth 3, with one %s per value."""
    order = tuple(sorted(keys))
    if order:
        items = ",\n".join([f"        {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                            for key in order])
        params = f"{{\n{items}\n      }}"
    else:
        params = "{}"
    return order, ('    {\n'
                   '      "bound_id": %s,\n'
                   '      "lhs": %s,\n'
                   '      "note": %s,\n'
                   f'      "params": {params},\n'
                   '      "rhs": %s,\n'
                   '      "satisfied": %s,\n'
                   '      "slack": %s,\n'
                   '      "status": %s\n'
                   '    }')


def check_intersection_bounds(grid):
    """Exact checks of the overlap inequalities at every (j, k, m) of grid.

    Four families per point: the no-overlap sandwich on P(H = 0), the
    derived sandwich on the hit probability P(H >= 1), Bernstein-style tail
    bounds on the deviation of H from jk/m by each integer t in 0..min(j,k),
    and the exponential no-overlap bound P(H = 0) <= exp(-jk/2m).
    Points that break a family's side condition are reported as skipped for
    that family only.

    Each point is checked in scalar Python on its HypergeomTable, whose
    prob(0) is the P(H = 0) of the no-overlap and edge families, and each
    check is one _exact or _skipped call.  Its params are spelled once per
    point (j, k, m and s) and once per t, into the _Layout of each key set
    (jkm, jkms and jkmt), which every report of that key set carries; each
    report still owns its params dict.
    """
    reports = []
    add = reports.append
    tail_order, tail_template = _block_layout(("j", "k", "m", "t"))
    for jkm in grid:
        # numpy integers are taken, and the reports hold plain ints
        j, k, m = map(operator.index, jkm)
        table = HypergeomTable(j, k, m)
        base = {"j": j, "k": k, "m": m}
        point = _Layout.of(base)
        lam = table.mean
        p0 = table.prob(0)

        if j + k < m:
            lower = 1.0 - lam / (1.0 - (j + k) / m)
            upper = 1.0 - lam + lam * lam
            add(_exact("no_overlap_lower", dict(base), lower, p0, point))
            add(_exact("no_overlap_upper", dict(base), p0, upper, point))
        else:
            note = f"needs j+k < m, got {j + k} >= {m}"
            add(_skipped("no_overlap_lower", dict(base), note, point))
            add(_skipped("no_overlap_upper", dict(base), note, point))

        s = (j + k) / m
        with_s = {**base, "s": s}
        edge = _Layout.of(with_s)
        if s < 1.0:
            hit = 1.0 - p0
            lower = lam - lam * lam
            upper = lam + (2.0 / (1.0 - s)) * lam * lam
            add(_exact("edge_prob_lower", with_s, lower, hit, edge))
            add(_exact("edge_prob_upper", dict(with_s), hit, upper, edge))
        else:
            note = f"needs (j+k)/m < 1, got s = {s:g}"
            add(_skipped("edge_prob_lower", with_s, note, edge))
            add(_skipped("edge_prob_upper", dict(with_s), note, edge))

        texts = point.texts
        for t in range(min(j, k) + 1):
            tail = _Layout(tail_order, tail_template, (j, k, m, t), (*texts, int.__repr__(t)))
            upper_tail = table.at_least(lam + t)
            rhs_up = 1.0 if t == 0 else math.exp(-t * t / (2.0 * (lam + t / 3.0)))
            add(_exact("overlap_tail_upper", {**base, "t": t}, upper_tail, rhs_up, tail))
            lower_tail = table.at_most(lam - t)
            if t == 0:
                rhs_lo = 1.0
            elif lam == 0.0:
                rhs_lo = 0.0
            else:
                rhs_lo = math.exp(-t * t / (2.0 * lam))
            add(_exact("overlap_tail_lower", {**base, "t": t}, lower_tail, rhs_lo, tail))

        add(_exact("no_overlap_exp", base, p0, math.exp(-j * k / (2.0 * m)), point))
    return reports


def coverage_floor(gamma1: float, gamma2: float, n: int) -> float:
    """The union-coverage claim's least set size 6*g2*(g2-g1)^-2*ln(n)."""
    return 6.0 * gamma2 * (gamma2 - gamma1) ** -2 * math.log(n)


def coverage_size(gamma1: float, gamma2: float, n: int) -> int:
    """The least whole set size the union-coverage claim admits: each set
    run_verify draws for check_union_coverage has this size."""
    return math.ceil(coverage_floor(gamma1, gamma2, n))


def coverage_error(m: int, gamma1: float, gamma2: float, n: int, r: int,
                   total: Optional[int] = None, least: Optional[int] = None) -> Optional[str]:
    """Why check_union_coverage cannot run with r sets whose sizes add up to
    total, the smallest of size least, or None.  Without total and least,
    the r sets are each of coverage_size(gamma1, gamma2, n), as run_verify
    draws them.

    The gammas are checked before the size floor, which divides by their
    gap, and the r sets must pack over the m-pool (pack_error).
    """
    if not (0.0 < gamma1 < gamma2 < 1.0):
        return "coverage gammas need 0 < gamma1 < gamma2 < 1"
    if r == 0:
        return "need at least one set"
    if n < 2:
        return "reference scale n must be >= 2"
    floor = coverage_floor(gamma1, gamma2, n)
    if least is None:
        least = coverage_size(gamma1, gamma2, n)
        total = r * least
    if total > gamma1 * m:
        return (f"coverage grid inconsistent: {r} sets of {total} attributes in all "
                f"exceed gamma1*m = {gamma1 * m:g}")
    if least < floor:
        return f"every size must be >= {floor:.3f} = 6*g2*(g2-g1)^-2*ln(n)"
    return pack_error(r, m)


def check_union_coverage(m: int, gamma1: float, gamma2: float,
                         sizes: Sequence[int], n: int, trials: int,
                         rng: np.random.Generator) -> BoundReport:
    """Monte Carlo check that r independent uniform subsets barely overlap.

    Claim: P(|union S_h| >= (1 - gamma2) * sum |S_h|) >= 1 - r * n^-3,
    under sum sizes <= gamma1 * m and every size >= coverage_floor(gamma1, gamma2, n).
    The reference scale n enters only through the bound and the size floor.
    A point that breaks coverage_error's rules raises ValueError naming it.
    """
    sizes = np.asarray(list(sizes), dtype=np.int64)
    r = sizes.shape[0]
    total = int(sizes.sum())
    error = coverage_error(m, gamma1, gamma2, n, r, total, int(sizes.min()) if r else 0)
    if error is not None:
        raise ValueError(error)

    need = (1.0 - gamma2) * total
    hits = 0
    for _ in range(trials):
        if _occupied_attrs(sample_incidence(m, sizes, rng).keys, r) >= need:
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


def _overlap_batch(trials: int) -> int:
    """How many S_b check_conditional_overlap draws at most in one
    sample_incidence call."""
    return max(256, min(trials, 65536))


def overlap_point_error(a: int, b: int, d: int, m: int, trials: int) -> Optional[str]:
    """Why check_conditional_overlap cannot run at (a, b, d, m) with this
    many trials, or None.  Each batch of draws must pack over the m-pool
    (pack_error)."""
    if not (1 <= a <= d <= m):
        return "need 1 <= a <= d <= m (S_a nested in S_d)"
    if d > m / 100.0:
        return f"needs d <= m/100, got d = {d}, m = {m}"
    if not (1 <= b <= m):
        return "need 1 <= b <= m"
    return pack_error(_overlap_batch(trials), m)


def check_conditional_overlap(a: int, b: int, d: int, m: int, trials: int,
                              rng: np.random.Generator) -> BoundReport:
    """Conditional half-overlap bound for nested fixed sets.

    With S_a = {0..a-1} inside S_d = {0..d-1} fixed (any concrete nested pair
    is equivalent by symmetry) and S_b a uniform b-subset of the m-pool:

        P(|S_b cap S_d| >= b/2 | S_b cap S_a != 0)
            <= exp(-b/8) * (1 + 4*(m/(a*b)) * 1{a > b/4, a*b <= m, b >= 3}).

    The conditioning event is rejection-sampled with a 10x trial cap, in
    batches of up to _overlap_batch(trials) draws, of which the conditioned
    rows are taken in order until exactly `trials` are accepted; fewer
    than 100 accepted samples yields status "inconclusive".  A point that
    breaks overlap_point_error's rules raises ValueError.  Points with
    b < 4 sit outside the derivation (the dyadic split needs floor(b/4) >= 1)
    and are reported with status "boundary" instead of being adjudicated.
    """
    error = overlap_point_error(a, b, d, m, trials)
    if error is not None:
        raise ValueError(error)

    indicator = 1.0 if (a > b / 4.0 and a * b <= m and b >= 3) else 0.0
    bound = math.exp(-b / 8.0) * (1.0 + 4.0 * (m / (a * b)) * indicator)
    params = {"a": a, "b": b, "d": d, "m": m, "trials": trials}

    accepted = 0
    hits = 0
    drawn = 0
    cap = 10 * trials
    batch_size = _overlap_batch(trials)
    while accepted < trials and drawn < cap:
        batch = min(batch_size, cap - drawn)
        # sorted attr * batch + vertex keys: the entries in S_a, S_d lead
        keys = sample_incidence(m, np.full(batch, b, dtype=np.int64), rng).keys
        in_a = np.bincount(keys[:np.searchsorted(keys, a * batch)] % batch, minlength=batch)
        in_d = np.bincount(keys[:np.searchsorted(keys, d * batch)] % batch, minlength=batch)
        # the conditioned rows, only enough of them to land exactly on `trials`
        rows = np.flatnonzero(in_a)[:trials - accepted]
        accepted += rows.shape[0]
        hits += int(np.count_nonzero(2 * in_d[rows] >= b))
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
                reports.append(_skipped(bid, dict(params), note))
            continue
        el = n * law.interval_mean(float(t), t_upper)
        q_analytic = float(scale_of[idx] * el)
        reports.append(_exact("mass_sandwich_lower", dict(params), c1 / 2.0, q_analytic))
        reports.append(_exact("mass_sandwich_upper", dict(params), q_analytic, c2))

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
