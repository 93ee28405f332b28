import os
import sys

# as rigkit/__init__.py does, before numpy loads: starting OpenBLAS's
# worker threads makes every import of numpy slower
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from rigkit import graphgen
from rigkit.graphgen import generate
from rigkit.harness import ExperimentConfig
from rigkit.model import ModelParams, trial_rng


@pytest.fixture(scope="session")
def each_block():
    """Run a check as is, then with graphgen's passes walking runs 1, 5 and
    16 entries long (graphgen._RUN), so that small inputs cross many run
    boundaries, runs of several vertices and top-up rounds.  The target
    ball of graphops reads graphgen._RUN at each expand, so its levels are
    walked in slices of the same lengths."""
    def run(check):
        check()
        for run_size in (1, 5, 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphgen, "_RUN", run_size)
                check()
    return run


@pytest.fixture(scope="session")
def small_instances():
    """A handful of dense little graphs for oracle comparisons."""
    out = []
    for seed in range(4):
        params = ModelParams(n=60, m=240, alpha=0.7, c0=1.0)
        inc, w = generate(params, trial_rng(seed, 60, 0))
        out.append((params, inc, w))
    return out


@pytest.fixture(scope="session")
def medium_instance():
    """One n=200, m=5000 instance shared by adjacency-heavy tests."""
    params = ModelParams(n=200, m=5000, alpha=0.8, c0=1.0)
    inc, w = generate(params, trial_rng(99, 200, 0))
    return params, inc, w


@pytest.fixture(scope="session")
def default_verify_grid():
    """The (j, k, m) grid that verify-lemmas checks at the config's defaults."""
    cfg = ExperimentConfig(n_values=[100])
    sides = range(cfg.verify_jk_max + 1)
    return [(j, k, m) for m in cfg.verify_m_values for j in sides for k in sides]


@pytest.fixture(scope="session")
def mixed_verify_grid():
    """(j, k, m) points, j, k <= 12, whose intersection reports are
    skipped where j + k >= m (m = 10 and 20) and pass elsewhere, at pools
    from 10 to 1.5e8, and the degenerate points j = 0 or k = 0."""
    return [(j, k, m) for m in (10, 20, 1000, 150000000)
            for j in range(min(m, 12) + 1) for k in range(min(m, 12) + 1)]
