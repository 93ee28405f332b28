"""Weight-layer decomposition and hub navigation.

The vertex weights are sliced into a short ladder of nested layers

    U_k = { v : tilde_z[v] >= t_k },   t_k = n^(alpha^k / (1+alpha)) * l2n,

for k = 1..k_star, where l2n = ln(ln(2+n)) and k_star is the largest k whose
layer threshold still clears a fixed floor (100 + c0 by default).  Because
alpha < 1 the exponents collapse doubly exponentially, so k_star is of order
ln(ln(n)).  Above the ladder sits the hub core

    V0 = { v : tilde_z[v] > t0 },      t0 = n^(1/(1+alpha)) * l2n^(-alpha).

Navigation: a short BFS escapes from an arbitrary vertex to the widest layer
U_{k_star}, then a greedy climb walks rung by rung up the ladder, one hop per
rung, to the globally heaviest vertex.  Concatenating two such routes at the
apex certifies a v1-v2 distance of order ln(ln(n)); the certificate is a real
walk, so it can never undercut the exact distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphgen import BipartiteIncidence, _sorted_unique
from .graphops import UNREACHED, nearest_of, neighbors
from .model import VertexWeights, iterated_log

__all__ = [
    "LadderError",
    "LayerThresholds",
    "LayerDecomposition",
    "HubPath",
    "CertificateRecord",
    "threshold_rung",
    "thresholds",
    "decompose",
    "escape_bfs",
    "hub_climb",
    "loglog_certificate",
]

DEFAULT_FLOOR_OFFSET = 100.0


class LadderError(RuntimeError):
    """The layer ladder cannot support navigation (no usable target set)."""


def threshold_rung(n: int, alpha: float, k: int) -> float:
    """Raw rung value t_k = n^(alpha^k/(1+alpha)) * ln(ln(2+n)), any k >= 1."""
    if k < 1:
        raise ValueError("rungs are indexed from 1")
    expo = alpha**k / (1.0 + alpha)
    return math.exp(expo * math.log(n)) * iterated_log(n)


@dataclass(frozen=True)
class LayerThresholds:
    """The ladder for one (n, alpha, c0): hub cutoff t0, rungs t_1 > ... > t_k*.

    k_star is the number of rungs; rungs stop once the bare power
    n^(alpha^k/(1+alpha)) would drop below the floor, so
    100*l2n < t_k* < (100+c0)^(1/alpha) * l2n whenever k_star >= 1.
    """

    n: int
    alpha: float
    c0: float
    floor: float
    l2n: float
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
    k_star <= l2n / ln(1/alpha).
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
        rungs.append(power * l2n)
        k += 1
    return LayerThresholds(n=n, alpha=alpha, c0=c0, floor=floor,
                           l2n=l2n, t0=t0, t=tuple(rungs))


@dataclass
class LayerDecomposition:
    """Realized layers of one weight sample against a ladder.

    layers[k-1] holds the sorted vertices of U_k; the layers are nested
    upward (U_1 is the thinnest).  hub_core is V0 (strict inequality).
    masses[k-1] is the total attribute count over U_k.
    """

    th: LayerThresholds
    tilde_z: np.ndarray
    sizes: np.ndarray
    layers: list = field(default_factory=list)
    hub_core: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    masses: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def k_star(self) -> int:
        return self.th.k_star

    def top_layer(self) -> np.ndarray:
        return self.layers[-1] if self.layers else np.empty(0, dtype=np.int64)

    def level_of(self, v: int) -> int:
        """Smallest k with tilde_z[v] >= t_k, or k_star + 1 if v is off-ladder.

        With an empty ladder (k_star = 0) every vertex is at level 1.
        """
        for k in range(self.k_star, 0, -1):
            if self.tilde_z[v] < self.th.t[k - 1]:
                return k + 1
        return 1

    def layer_index_of(self, v: int) -> int:
        """Rungs cleared by v: k_star - level, hence -1 when off-ladder."""
        return self.k_star - self.level_of(v)

    def escape_targets(self):
        """Target set for the escape stage: (vertices, degenerate_flag).

        Normally the widest layer U_{k_star}.  With an empty ladder the hub
        core V0 stands in (degenerate mode).  Raises LadderError when even
        that is empty.
        """
        if self.k_star >= 1:
            top = self.top_layer()
            if top.size:
                return top, False
            raise LadderError("top layer is empty; no escape targets")
        if self.hub_core.size:
            return self.hub_core, True
        raise LadderError("ladder empty and hub core empty; no escape targets")


def decompose(weights: VertexWeights, th: LayerThresholds) -> LayerDecomposition:
    """Slice a weight sample into ladder layers and the hub core."""
    tz = weights.tilde_z
    layers = [np.flatnonzero(tz >= tk) for tk in th.t]
    hub_core = np.flatnonzero(tz > th.t0)
    masses = np.array([int(weights.sizes[layer].sum()) for layer in layers],
                      dtype=np.int64)
    return LayerDecomposition(th=th, tilde_z=tz, sizes=weights.sizes,
                              layers=layers, hub_core=hub_core, masses=masses)


@dataclass(frozen=True)
class HubPath:
    """A concrete walk with per-vertex ladder progress.

    layer_index[i] counts rungs cleared by vertices[i] (-1 off-ladder,
    k_star at the apex); along a climb it strictly increases.
    """

    vertices: list
    layer_index: list

    @property
    def total_hops(self) -> int:
        return len(self.vertices) - 1

    def to_dict(self) -> dict:
        return {"vertices": [int(v) for v in self.vertices],
                "layer_index": [int(i) for i in self.layer_index],
                "total_hops": self.total_hops}


def escape_bfs(inc: BipartiteIncidence, dec: LayerDecomposition, v: int) -> Optional[HubPath]:
    """Shortest route from v into the widest layer (or V0 in degenerate mode).

    Returns None when v has no path to any target; raises LadderError when
    there is no target set at all.
    """
    targets, _ = dec.escape_targets()
    res = nearest_of(inc, v, targets)
    if res.hops is None:
        return None
    return HubPath(vertices=res.path,
                   layer_index=[dec.layer_index_of(u) for u in res.path])


def hub_climb(inc: BipartiteIncidence, dec: LayerDecomposition, start: int,
              u_max: int) -> Optional[HubPath]:
    """Greedy rung-by-rung climb from the widest layer to the apex u_max.

    From a vertex at level k the next hop must land in U_{k-1}, with
    U_0 = {u_max} by convention; among qualifying neighbours the climb takes
    the largest tilde_z (smallest index on ties), and u_max qualifies
    whenever adjacent.  Each hop clears at least one rung, so a successful
    climb takes at most k_star hops (one in degenerate mode).  A dead end
    returns None: failure is a data outcome, not an exception.
    """
    k_star = dec.k_star
    if not (0 <= start < inc.n) or not (0 <= u_max < inc.n):
        raise ValueError("vertex out of range")
    if k_star >= 1 and dec.tilde_z[start] < dec.th.t[k_star - 1]:
        raise ValueError("climb must start inside the widest layer")

    path = [int(start)]
    current = int(start)
    while current != u_max:
        target_level = dec.level_of(current) - 1
        nbrs = neighbors(inc, current)
        pos = np.searchsorted(nbrs, u_max)
        apex_adjacent = pos < nbrs.shape[0] and nbrs[pos] == u_max
        if target_level == 0:
            if not apex_adjacent:
                return None
            nxt = u_max
        else:
            qual = nbrs[dec.tilde_z[nbrs] >= dec.th.t[target_level - 1]]
            if apex_adjacent:
                qual = _sorted_unique(np.append(qual, u_max))
            if qual.size == 0:
                return None
            nxt = int(qual[np.argmax(dec.tilde_z[qual])])
        path.append(int(nxt))
        current = int(nxt)

    layer_index = [dec.layer_index_of(v) for v in path[:-1]]
    layer_index.append(k_star)  # the apex caps the ladder by convention
    return HubPath(vertices=path, layer_index=layer_index)


@dataclass
class CertificateRecord:
    """Distance certificate between v1 and v2 through the apex.

    certificate_hops = escape_a + climb_a + climb_b + escape_b when all four
    stages succeed, else None; exact_hops is the exact distance, None only
    when v1 and v2 are disconnected.  A finished certificate is a real walk,
    so certificate_hops >= exact_hops always.
    """

    v1: int
    v2: int
    escape_a: Optional[HubPath]
    climb_a: Optional[HubPath]
    escape_b: Optional[HubPath]
    climb_b: Optional[HubPath]
    certificate_hops: Optional[int]
    exact_hops: Optional[int]
    failed_stage: Optional[str]
    degenerate_ladder: bool

    def walk(self) -> Optional[list]:
        """The full v1 -> apex -> v2 vertex walk, or None if incomplete."""
        if self.certificate_hops is None:
            return None
        up = self.escape_a.vertices + self.climb_a.vertices[1:]
        down = self.climb_b.vertices[:-1][::-1] + self.escape_b.vertices[::-1][1:]
        # climb_b ends at the apex, which up already contains
        return up + down

    def to_dict(self) -> dict:
        def hp(p):
            return None if p is None else p.to_dict()
        return {
            "v1": int(self.v1),
            "v2": int(self.v2),
            "escape_a": hp(self.escape_a),
            "climb_a": hp(self.climb_a),
            "escape_b": hp(self.escape_b),
            "climb_b": hp(self.climb_b),
            "certificate_hops": None if self.certificate_hops is None
            else int(self.certificate_hops),
            "exact_hops": None if self.exact_hops is None else int(self.exact_hops),
            "failed_stage": self.failed_stage,
            "degenerate_ladder": bool(self.degenerate_ladder),
        }


def loglog_certificate(inc: BipartiteIncidence, dec: LayerDecomposition,
                       v1: int, v2: int, u_max: int, *,
                       exact_hops: Optional[int] = None) -> CertificateRecord:
    """Assemble the two-sided certificate: escape + climb from both ends.

    Every record carries the exact v1-v2 distance beside the certificate
    (or records which stage broke).  A caller that already knows it, such
    as an entry of distances_from(inc, v2), passes it as exact_hops, with
    UNREACHED for no path; otherwise a BFS computes it.
    """
    _, degenerate = dec.escape_targets()
    if exact_hops is None:
        from .graphops import bfs_distance

        exact = bfs_distance(inc, v1, v2).hops
    else:
        exact = None if exact_hops == UNREACHED else int(exact_hops)

    stages = {"escape_a": None, "climb_a": None, "escape_b": None, "climb_b": None}
    failed = None
    for side, v in (("a", v1), ("b", v2)):
        esc = escape_bfs(inc, dec, v)
        stages[f"escape_{side}"] = esc
        if esc is None:
            failed = failed or f"escape_{side}"
            continue
        climb = hub_climb(inc, dec, esc.vertices[-1], u_max)
        stages[f"climb_{side}"] = climb
        if climb is None:
            failed = failed or f"climb_{side}"

    cert = None
    if failed is None:
        cert = (stages["escape_a"].total_hops + stages["climb_a"].total_hops
                + stages["climb_b"].total_hops + stages["escape_b"].total_hops)
    return CertificateRecord(
        v1=int(v1), v2=int(v2),
        escape_a=stages["escape_a"], climb_a=stages["climb_a"],
        escape_b=stages["escape_b"], climb_b=stages["climb_b"],
        certificate_hops=cert, exact_hops=exact,
        failed_stage=failed, degenerate_ladder=degenerate,
    )
