"""Reachability structure around a root vertex.

Everything the samplers need about a root ``r`` comes from two BFS passes:
one over reversed edges (who can reach r) and one over forward edges (whom r
can reach). They are kept flat: a hop-count list per direction, indexed by
vertex, with one sentinel for a vertex the search never reached; the sorted
upstream and downstream vertices as tuples; and numpy forms of the same four
for the estimators that work on whole blocks of pairs. No per-vertex dict or
set is built unless a caller reads one of the set or map views. The ratio of
upstream-by-downstream pairs to all ordered vertex pairs drives both the
per-sample scaling and the stopping rule, so it is kept as an exact rational
and only converted to float at the point of use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import GuardError
from .graph import DirectedGraph, LevelMap, bfs_distances

__all__ = ["ReachabilityInfo", "compute_reachability", "transitive_closure_oracle"]

CLOSURE_GUARD = 2000


@dataclass(frozen=True)
class ReachabilityInfo:
    """Upstream/downstream vertices of a root and the derived sampling quantities.

    A vertex is upstream when it has a directed path to the root and
    downstream when the root has one to it; the root itself is neither.

    The flat fields, for a graph of n vertices:

    * ``to_root[v]`` is d(v, root) in hops and ``from_root[v]`` is d(root, v),
      both 0 at the root, and n + 1 (``unreached``) for a vertex that the
      search never reached: no hop count can equal it.
    * ``sources`` and ``targets`` are the upstream and downstream vertices
      as sorted tuples.
    * ``to_root_array``, ``from_root_array``, ``source_array`` and
      ``target_array`` are the same four as int64 arrays.

    ``pair_fraction`` is the share of ordered vertex pairs (s, t), s != t,
    with s upstream and t downstream; ``source_fraction`` the share of
    vertices that are upstream. ``diameter_vertex_bound`` bounds from above
    the number of vertices on any shortest path between an upstream source
    and a downstream target.

    The views ``upstream``, ``downstream`` and ``domain`` (frozensets; the
    domain is both sets and the root) and the maps ``dist_to_root`` and
    ``dist_from_root`` (the BFS hop counts of reached vertices, in visit
    order) are built on first read and kept. The estimators read only the
    flat fields.
    """

    root: int
    sources: tuple[int, ...] = field(repr=False)
    targets: tuple[int, ...] = field(repr=False)
    to_root: list[int] = field(repr=False)
    from_root: list[int] = field(repr=False)
    to_root_array: np.ndarray = field(repr=False, compare=False)
    from_root_array: np.ndarray = field(repr=False, compare=False)
    source_array: np.ndarray = field(repr=False, compare=False)
    target_array: np.ndarray = field(repr=False, compare=False)
    pair_fraction: Fraction
    source_fraction: Fraction
    diameter_vertex_bound: int
    _levels: tuple[LevelMap, LevelMap] = field(repr=False, compare=False)

    @property
    def unreached(self) -> int:
        """The hop count that ``to_root`` and ``from_root`` give an unreached vertex."""
        return len(self.to_root) + 1

    @cached_property
    def upstream(self) -> frozenset[int]:
        return frozenset(self.sources)

    @cached_property
    def downstream(self) -> frozenset[int]:
        return frozenset(self.targets)

    @cached_property
    def domain(self) -> frozenset[int]:
        return frozenset(self.sources).union(self.targets, (self.root,))

    @property
    def dist_to_root(self) -> LevelMap:
        return self._levels[0]

    @property
    def dist_from_root(self) -> LevelMap:
        return self._levels[1]


def compute_reachability(g: DirectedGraph, root: int) -> ReachabilityInfo:
    """Two BFS passes around ``root`` and the quantities derived from them.

    Everything is read off the two traversals' order and depth arrays. The
    bound on shortest-path vertices uses only the two BFS depths around
    the root: for s upstream and t downstream, d(s, t) <= d(s, r) + d(r, t),
    so the root-centred depths cover every such pair.
    """
    g._check(root)
    n = g.vertex_count

    levels = (bfs_distances(g, root, direction="reverse"),
              bfs_distances(g, root, direction="forward"))
    hops = []
    ends = []
    for level in levels:
        dist = np.full(n, n + 1, dtype=np.int64)
        dist[level.order] = level.depth
        hops.append(dist)
        # the root sits at hop 0 and belongs to neither side
        reached = np.flatnonzero(dist <= n)
        ends.append(reached[reached != root])
    to_root, from_root = hops
    up, down = ends

    if n < 2:
        pair_fraction = Fraction(0)
    else:
        pair_fraction = Fraction(len(up) * len(down), n * (n - 1))
    source_fraction = Fraction(len(up), n)

    # both searches list vertices in level order, so the deepest comes last
    bound = max(int(levels[0].depth[-1]) + int(levels[1].depth[-1]) + 1, 2)

    return ReachabilityInfo(
        root=root,
        sources=tuple(up.tolist()),
        targets=tuple(down.tolist()),
        to_root=to_root.tolist(),
        from_root=from_root.tolist(),
        to_root_array=to_root,
        from_root_array=from_root,
        source_array=up,
        target_array=down,
        pair_fraction=pair_fraction,
        source_fraction=source_fraction,
        diameter_vertex_bound=bound,
        _levels=levels,
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
