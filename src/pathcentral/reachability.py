"""Reachability structure around a root vertex.

Everything the samplers need about a root ``r`` comes from two BFS passes:
one over reversed edges (who can reach r) and one over forward edges (whom r
can reach). The ratio of upstream-by-downstream pairs to all ordered vertex
pairs drives both the per-sample scaling and the stopping rule, so it is kept
as an exact rational and only converted to float at the point of use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import GuardError
from .graph import DirectedGraph, bfs_distances

__all__ = ["ReachabilityInfo", "compute_reachability", "transitive_closure_oracle"]

CLOSURE_GUARD = 2000


@dataclass(frozen=True)
class ReachabilityInfo:
    """Upstream/downstream sets of a root and the derived sampling quantities.

    ``upstream`` holds every vertex with a directed path to the root,
    ``downstream`` every vertex the root has a directed path to; the root
    itself belongs to neither. ``dist_to_root`` / ``dist_from_root`` are the
    BFS hop counts (the root maps to 0 in both). ``pair_fraction`` is the
    share of ordered vertex pairs (s, t), s != t, with s upstream and t
    downstream; ``source_fraction`` the share of vertices that are upstream.
    ``diameter_vertex_bound`` bounds from above the number of vertices on any
    shortest path between an upstream source and a downstream target.
    """

    root: int
    upstream: frozenset[int]
    downstream: frozenset[int]
    domain: frozenset[int]
    dist_to_root: Mapping[int, int]
    dist_from_root: Mapping[int, int]
    pair_fraction: Fraction
    source_fraction: Fraction
    diameter_vertex_bound: int


def compute_reachability(g: DirectedGraph, root: int) -> ReachabilityInfo:
    """Two BFS passes around ``root`` and the quantities derived from them.

    The bound on shortest-path vertices uses only the two BFS depths around
    the root: for s upstream and t downstream, d(s, t) <= d(s, r) + d(r, t),
    so the root-centred depths cover every such pair.
    """
    g._check(root)
    n = g.vertex_count

    dist_to_root = bfs_distances(g, root, direction="reverse")
    dist_from_root = bfs_distances(g, root, direction="forward")
    upstream = frozenset(dist_to_root) - {root}
    downstream = frozenset(dist_from_root) - {root}
    domain = frozenset(dist_to_root).union(dist_from_root)

    if n < 2:
        pair_fraction = Fraction(0)
    else:
        pair_fraction = Fraction(len(upstream) * len(downstream), n * (n - 1))
    source_fraction = Fraction(len(upstream), n)

    # both maps list vertices in level order, so the deepest comes last
    rev_depth = next(reversed(dist_to_root.values()))
    fwd_depth = next(reversed(dist_from_root.values()))
    bound = max(rev_depth + fwd_depth + 1, 2)

    return ReachabilityInfo(
        root=root,
        upstream=upstream,
        downstream=downstream,
        domain=domain,
        dist_to_root=dist_to_root,
        dist_from_root=dist_from_root,
        pair_fraction=pair_fraction,
        source_fraction=source_fraction,
        diameter_vertex_bound=bound,
    )


def transitive_closure_oracle(g: DirectedGraph):
    """Boolean reachability matrix; entry [u, v] is True iff u has a path to v.

    Diagonal entries are always False: the estimators never ask whether a
    vertex reaches itself, and excluding them keeps the matrix directly
    comparable with the upstream/downstream sets (which exclude the root).

    Deliberately routed through scipy's shortest-path machinery rather than
    this package's own BFS so the two can cross-check each other in tests.
    Guarded to 2000 vertices.
    """
    import numpy as np
    from scipy.sparse import csgraph

    n = g.vertex_count
    if n > CLOSURE_GUARD:
        raise GuardError(
            f"transitive closure is capped at {CLOSURE_GUARD} vertices, got {n}"
        )
    dist = csgraph.shortest_path(g._search_matrices()[0], method="D", unweighted=True)
    closure = np.isfinite(dist)
    np.fill_diagonal(closure, False)
    return closure
