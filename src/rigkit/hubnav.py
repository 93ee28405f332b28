"""Weight-layer decomposition and hub navigation.

The vertex weights are sliced into a short ladder of nested layers

    U_k = { v : tilde_z[v] >= t_k },   t_k = n^(alpha^k / (1+alpha)) * l2n,

for k = 1..k_star, where l2n = ln(ln(2+n)) and k_star is the largest k whose
layer threshold still clears a fixed floor (100 + c0 by default).  Because
alpha < 1 the exponents collapse doubly exponentially, so k_star is of order
ln(ln(n)).  Above the ladder sits the hub core

    V0 = { v : tilde_z[v] > t0 },      t0 = n^(1/(1+alpha)) * l2n^(-alpha).

The decomposition stores the ladder as one rung level per vertex: level[v]
is the smallest k with v in U_k, or k_star + 1 off the ladder, so
U_k = { v : level[v] <= k }.

Navigation: a short BFS escapes from an arbitrary vertex to the widest layer
U_{k_star}, then a greedy climb walks down the levels, at least one rung per
hop, to the apex u_max, the vertex with the largest set, which the
decomposition records.  Each route is a plain list of vertices, from its
start to its end.  Concatenating two such halves at the apex certifies
a v1-v2 distance of order ln(ln(n)).  A certificate holds only its four
stages: it is a real walk, so it can never undercut the exact distance,
and a caller that wants that distance measures it on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphops import TraversalCore, nearest_of, neighbors
from .model import VertexWeights, iterated_log

__all__ = [
    "LadderError",
    "LayerThresholds",
    "LayerDecomposition",
    "CertificateRecord",
    "thresholds",
    "decompose",
    "escape_bfs",
    "hub_climb",
    "loglog_certificate",
]

DEFAULT_FLOOR_OFFSET = 100.0

# The longest ladder thresholds builds.  The rung count grows like
# 1/(1 - alpha): alpha = 0.999 at the default floor needs at most 845 rungs
# at any n the sampler admits (n < 2**31, as m >= n and n * m < 2**62),
# while alpha = 1 - 1e-7 needs 704,018 rungs at n = 2e4.
MAX_RUNGS = 1000


class LadderError(RuntimeError):
    """The layer ladder cannot support navigation (no usable target set)."""


@dataclass(frozen=True)
class LayerThresholds:
    """The ladder for one (n, alpha, c0): hub cutoff t0, rungs t_1 > ... > t_k*.

    k_star is the number of rungs; rungs stop once the bare power
    n^(alpha^k/(1+alpha)) would drop below the floor, so
    100*l2n < t_k* < (100+c0)^(1/alpha) * l2n whenever k_star >= 1.
    """

    t0: float
    t: tuple

    @property
    def k_star(self) -> int:
        return len(self.t)


def thresholds(n: int, alpha: float, c0: float,
               floor: Optional[float] = None) -> LayerThresholds:
    """Build the threshold ladder.

    The floor defaults to 100 + c0.  Rung k exists while
    n^(alpha^k/(1+alpha)) >= floor; the exponent decays geometrically, so
    k_star <= l2n / ln(1/alpha).  A ladder of more than MAX_RUNGS rungs is
    refused with ValueError before its rung MAX_RUNGS + 1 is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if c0 <= 0.0:
        raise ValueError("c0 must be positive")
    if floor is None:
        floor = DEFAULT_FLOOR_OFFSET + c0
    if floor <= 1.0:
        raise ValueError("floor must exceed 1")
    l2n = iterated_log(n)
    log_n = math.log(n)
    t0 = math.exp(log_n / (1.0 + alpha)) * l2n ** (-alpha)
    rungs = []
    k = 1
    while True:
        power = math.exp(alpha**k * log_n / (1.0 + alpha))
        if power < floor:
            break
        if len(rungs) == MAX_RUNGS:
            raise ValueError(f"the ladder at n = {n}, alpha = {alpha}, floor {floor} "
                             f"would have more than {MAX_RUNGS} rungs")
        rungs.append(power * l2n)
        k += 1
    return LayerThresholds(t0=t0, t=tuple(rungs))


@dataclass
class LayerDecomposition:
    """Realized ladder of one weight sample.

    level[v] is the smallest k with tilde_z[v] >= t_k, or k_star + 1 when v
    is off the ladder; with an empty ladder (k_star = 0) every vertex is at
    level 1.  The layers U_k = { v : level[v] <= k } nest upward (U_1 is the
    thinnest), and the widest, U_{k_star}, is kept sorted in top.  hub_core
    is V0 (strict inequality).  u_max is the apex every climb ends at: the
    vertex with the largest set size, smallest id on ties.  It is not the
    vertex with the largest tilde_z: weights that round to the same size tie,
    and the smallest id among them wins.
    """

    th: LayerThresholds
    tilde_z: np.ndarray
    u_max: int
    level: np.ndarray
    top: np.ndarray
    hub_core: np.ndarray

    @property
    def k_star(self) -> int:
        return self.th.k_star

    def layer_sizes(self) -> np.ndarray:
        """|U_1|, ..., |U_k_star|: the cumulative vertex count per level."""
        return np.cumsum(np.bincount(self.level, minlength=self.k_star + 2)[1:-1])

    def escape_targets(self):
        """Target set for the escape stage: (vertices, degenerate_flag).

        Normally the widest layer U_{k_star}.  With an empty ladder the hub
        core V0 stands in (degenerate mode).  Raises LadderError when even
        that is empty.
        """
        if self.k_star >= 1:
            if self.top.size:
                return self.top, False
            raise LadderError("top layer is empty; no escape targets")
        if self.hub_core.size:
            return self.hub_core, True
        raise LadderError("ladder empty and hub core empty; no escape targets")


def decompose(weights: VertexWeights, th: LayerThresholds) -> LayerDecomposition:
    """Rung levels of a weight sample, its widest layer, hub core and apex.

    One searchsorted on the rungs in ascending order counts the rungs each
    weight clears; side="right" counts a weight exactly on a rung as on it,
    as tilde_z >= t_k does.  The apex u_max is the vertex with the largest
    set size (weights.sizes), smallest id on ties, not the one with the
    largest tilde_z.
    """
    tz = weights.tilde_z
    level = th.k_star + 1 - np.searchsorted(th.t[::-1], tz, side="right")
    return LayerDecomposition(th=th, tilde_z=tz, u_max=int(np.argmax(weights.sizes)),
                              level=level, top=np.flatnonzero(level <= th.k_star),
                              hub_core=np.flatnonzero(tz > th.t0))


def escape_bfs(core: TraversalCore, dec: LayerDecomposition, v: int) -> Optional[list]:
    """Shortest route from v into the widest layer (or V0 in degenerate mode).

    The route is the list of its vertices, from v to the first target
    reached.  Returns None when v has no path to any target; raises
    LadderError when there is no target set at all.
    """
    targets, _ = dec.escape_targets()
    return nearest_of(core, v, targets).path


def hub_climb(core: TraversalCore, dec: LayerDecomposition,
              start: int) -> Optional[list]:
    """Greedy climb from the widest layer down the levels to the apex dec.u_max.

    A neighbour x of the current vertex qualifies when its level is lower,
    or when x is u_max, which qualifies whenever adjacent; among qualifying
    neighbours the climb takes the largest tilde_z (smallest index on ties).
    At level 1 no level is lower, so u_max is the only candidate.  Each hop
    clears at least one rung, so a successful climb takes at most k_star
    hops (one in degenerate mode).  The climb is the list of its vertices,
    from start to u_max.  A dead end returns None: failure is a data
    outcome, not an exception.
    """
    k_star, u_max, level = dec.k_star, dec.u_max, dec.level
    if not (0 <= start < core.n):
        raise ValueError("vertex out of range")
    if k_star >= 1 and level[start] > k_star:
        raise ValueError("climb must start inside the widest layer")

    path = [int(start)]
    while path[-1] != u_max:
        nbrs = neighbors(core, path[-1])
        qual = nbrs[(level[nbrs] < level[path[-1]]) | (nbrs == u_max)]
        if qual.size == 0:
            return None
        path.append(int(qual[np.argmax(dec.tilde_z[qual])]))
    return path


STAGES = ("escape_a", "climb_a", "escape_b", "climb_b")


@dataclass(frozen=True)
class CertificateRecord:
    """Distance certificate between v1 and v2 through the apex.

    Each end's half is an escape into the widest layer followed by a climb
    to the apex.  A stage is the vertex list of its route, or None when it
    failed or was never reached.  certificate_hops adds up the hops
    (len(stage) - 1) of the four stages when all succeed, else None;
    failed_stage is the first missing one in the order of STAGES.  A finished
    certificate is a real walk, so it never undercuts the exact distance.
    """

    v1: int
    v2: int
    escape_a: Optional[list]
    climb_a: Optional[list]
    escape_b: Optional[list]
    climb_b: Optional[list]

    @property
    def failed_stage(self) -> Optional[str]:
        return next((s for s in STAGES if getattr(self, s) is None), None)

    @property
    def certificate_hops(self) -> Optional[int]:
        if self.failed_stage is not None:
            return None
        return sum(len(getattr(self, s)) - 1 for s in STAGES)


def _half(core: TraversalCore, dec: LayerDecomposition, v: int) -> tuple:
    """(escape, climb) from v to the apex; climb is None when escape is."""
    esc = escape_bfs(core, dec, v)
    return esc, None if esc is None else hub_climb(core, dec, esc[-1])


def loglog_certificate(core: TraversalCore, dec: LayerDecomposition,
                       v1: int, v2: int) -> CertificateRecord:
    """The two-sided certificate: one escape-and-climb half from each end."""
    escape_a, climb_a = _half(core, dec, v1)
    escape_b, climb_b = _half(core, dec, v2)
    return CertificateRecord(v1=int(v1), v2=int(v2), escape_a=escape_a,
                             climb_a=climb_a, escape_b=escape_b, climb_b=climb_b)
