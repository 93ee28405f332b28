"""Vertex weight model for power-law random intersection graphs.

Each of n vertices owns a random subset of an m-element attribute pool;
two vertices are adjacent when their subsets intersect.  Subset sizes are
driven by normalized weights

    tilde_z = size * sqrt(n / m),

sampled here from a pure Pareto law: P(tilde_z > t) = min(1, (c0/t)^(1+alpha))
with 0 < alpha < 1.  Under this law the tail constants collapse to
c1 = c2 = c0^(1+alpha), the mean is c0*(1+alpha)/alpha, and the second
moment is infinite, which is the regime where vertex-to-vertex distances
live on the ln(ln(n)) scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TailLaw",
    "ModelParams",
    "VertexWeights",
    "iterated_log",
    "default_attribute_count",
    "trial_rng",
    "sample_tilde_weights",
    "realized_weights",
]


def iterated_log(n: float) -> float:
    """ln(ln(2+n)), the loglog scale used throughout.

    The +2 guard keeps the value finite and positive for every n >= 0.
    """
    return math.log(math.log(2.0 + n))


def default_attribute_count(n: int) -> int:
    """Default pool size m for a given n: max(n, ceil(n * ln(n)^2 * ln(ln(2+n)))).

    Grows just fast enough that n * ln(n)^2 = o(m); the max(n, .) guard keeps
    m >= n for the handful of tiny n where the product dips below n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    raw = math.ceil(n * math.log(n) ** 2 * iterated_log(n))
    return max(n, raw)


@dataclass(frozen=True)
class TailLaw:
    """Pareto law on [c0, inf): survival(t) = min(1, (c0/t)^(1+alpha))."""

    alpha: float
    c0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.c0 > 0.0):
            raise ValueError(f"c0 must be positive, got {self.c0}")
        try:
            tail = self.c0 ** (1.0 + self.alpha)
        except OverflowError:
            tail = math.inf
        if not (0.0 < tail < math.inf):
            raise ValueError(f"the tail constant c0^(1+alpha) = {tail} for c0 = "
                             f"{self.c0}, alpha = {self.alpha} is not a positive "
                             f"finite float")

    @property
    def tail_constant(self) -> float:
        """c0^(1+alpha); both tail constants of the power-law sandwich equal it."""
        return self.c0 ** (1.0 + self.alpha)

    def survival(self, t):
        """P(tilde_z > t).  Accepts a scalar or an ndarray."""
        arr = np.asarray(t, dtype=float)
        out = np.where(
            arr <= self.c0,
            1.0,
            (self.c0 / np.maximum(arr, self.c0)) ** (1.0 + self.alpha),
        )
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        """Inverse survival: the t with survival(t) = p, for p in (0, 1].

        quantile(1) = c0, and quantile(U) for uniform U on (0, 1] samples
        the law.
        """
        arr = np.asarray(p, dtype=float)
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise ValueError("p must lie in (0, 1]")
        out = self.c0 * arr ** (-1.0 / (1.0 + self.alpha))
        return float(out) if out.ndim == 0 else out

    def interval_mean(self, lo: float, hi: float) -> float:
        """E[tilde_z * 1{lo < tilde_z <= hi}], closed form.

        Equals ((1+alpha)/alpha) * c0^(1+alpha) * (lo^-alpha - hi^-alpha)
        once lo is clamped to c0; hi = inf is allowed and recovers the
        full mean at lo = c0.
        """
        lo = max(lo, self.c0)
        if hi <= lo:
            return 0.0
        a = self.alpha
        hi_term = 0.0 if math.isinf(hi) else hi ** (-a)
        return ((1.0 + a) / a) * self.tail_constant * (lo ** (-a) - hi_term)


@dataclass(frozen=True)
class ModelParams:
    """Instance parameters: n vertices, m attributes, tail exponent, scale."""

    n: int
    m: int
    alpha: float
    c0: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        # TailLaw re-validates alpha and c0; construct one to fail early.
        TailLaw(self.alpha, self.c0)

    def law(self) -> TailLaw:
        return TailLaw(self.alpha, self.c0)

    @property
    def size_scale(self) -> float:
        """sqrt(m/n): multiplies a normalized weight into an attribute count."""
        return math.sqrt(self.m / self.n)


@dataclass(frozen=True)
class VertexWeights:
    """Sampled weights: latent normalized weights and integer set sizes.

    tilde_z[i] >= c0 always (it is the raw Pareto draw); sizes[i] is the
    rounded-and-capped attribute count, min(m, floor(tilde_z * sqrt(m/n) + 0.5)).
    Sizes of 0 are possible when m << n and simply produce isolated vertices.
    """

    tilde_z: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return self.tilde_z.shape[0]


def trial_rng(seed: int, n: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one (n, trial) cell.

    Streams are split as SeedSequence(seed, spawn_key=(n, trial)), so every
    cell of an experiment ladder gets its own generator no matter in which
    order (or on which worker) the cells run.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, trial)))


def _sizes_from_tilde(params: ModelParams, tilde_z: np.ndarray) -> np.ndarray:
    """Round-half-up tilde_z * sqrt(m/n) and cap at m."""
    raw = np.floor(tilde_z * params.size_scale + 0.5)
    return np.minimum(raw, float(params.m)).astype(np.int64)


def sample_tilde_weights(params: ModelParams, rng: np.random.Generator) -> VertexWeights:
    """Draw n weights from the Pareto tail law and derive set sizes.

    Uses inversion on U = 1 - rng.random(), uniform on (0, 1], so the draw
    is exactly quantile(U) and never hits the p = 0 pole.
    """
    u = 1.0 - rng.random(params.n)
    tilde_z = params.law().quantile(u)
    tilde_z = np.atleast_1d(np.asarray(tilde_z, dtype=float))
    return VertexWeights(tilde_z=tilde_z, sizes=_sizes_from_tilde(params, tilde_z))


def realized_weights(params: ModelParams, sizes: np.ndarray) -> VertexWeights:
    """Weights reconstructed from stored set sizes: tilde_z = size * sqrt(n/m).

    This is the normalized weight of the graph as realized; it differs from
    the latent draw by at most the rounding step and may dip below c0.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    return VertexWeights(tilde_z=sizes / params.size_scale, sizes=sizes)
