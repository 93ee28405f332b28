"""How the test suite builds a traversal core from an instance.

A traversal core is built only from a core-only instance, so each test that
holds a full one shrinks a copy of it first (keep_core), as a trial shrinks
its own.  The instance passed in stays full: the oracles in oracles.py, and
the fixtures that several tests share, read the full incidence.
"""

from rigkit.graphgen import BipartiteIncidence
from rigkit.graphops import TraversalCore


def core_only(inc) -> BipartiteIncidence:
    """A copy of inc shrunk to its shared entries (keep_core)."""
    copy = BipartiteIncidence(inc.n, inc.m, inc.set_indptr.copy(), inc.keys.copy())
    copy.keep_core()
    return copy


def core_of(inc) -> TraversalCore:
    """The traversal core of inc, built from its core-only copy."""
    return TraversalCore(core_only(inc))
