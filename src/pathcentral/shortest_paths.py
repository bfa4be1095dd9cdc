"""Shortest-path counting, uniform path sampling, and distance queries.

The sampling estimators need two kernels per drawn pair (s, t):

* draw one path uniformly at random among all shortest s-to-t paths, or
* just decide whether a given vertex sits on some shortest s-to-t path.

Both are served by a balanced bidirectional BFS: one frontier grows from s
over forward edges, one from t over reversed edges, and whichever frontier is
currently smaller expands by a full level. The search stops at the first
level whose expansion labels a vertex already labeled by the other side.

Expanding whole levels (never stopping mid-level) is what makes the counts
exact: when the sides first touch, every meeting vertex v satisfies
dist_f(v) + dist_b(v) = d(s, t), each shortest path crosses the meeting set
exactly once, and the number of shortest paths factors as
sum over meeting v of (paths s to v) * (paths v to t).

The distance-only search needs no counts, so it exits at the first contact
and keeps its labels in a reusable epoch-stamped scratch (``_SearchSpace``)
rather than per-call dicts. The betweenness estimator runs it as a gate
before the full builder: the root can only be on a drawn path when it is on
some shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import DirectedGraph
from .reachability import ReachabilityInfo

__all__ = [
    "ShortestPathDag",
    "PathSample",
    "build_shortest_path_dag",
    "sample_uniform_path",
    "shortest_path_length",
    "on_some_shortest_path",
]

_INT63 = 2**63 - 1


@dataclass(frozen=True)
class ShortestPathDag:
    """All shortest paths from ``source`` to ``target`` in one structure.

    ``dist`` maps each vertex on some shortest path to its (exact) distance
    from the source; ``counts`` to the number of distinct shortest
    source-to-v paths (arbitrary precision); ``preds`` to its in-neighbors
    within the structure. Every edge (u, v) implied by ``preds`` satisfies
    dist[v] = dist[u] + 1, and counts[v] equals the sum of counts over
    preds[v] (with counts[source] = 1).
    """

    source: int
    target: int
    distance: int
    path_count: int
    dist: Mapping[int, int]
    counts: Mapping[int, int]
    preds: Mapping[int, tuple[int, ...]]


@dataclass(frozen=True)
class PathSample:
    """One drawn shortest path, with a membership flag for a marked vertex."""

    vertices: tuple[int, ...]
    contains_mark: bool


def build_shortest_path_dag(
    g: DirectedGraph, source: int, target: int
) -> ShortestPathDag | None:
    """Build the shortest-path structure for (source, target).

    Returns None when target is unreachable from source. ``source == target``
    is rejected: the estimators never ask for it and the empty path would
    need its own conventions.
    """
    g._check(source)
    g._check(target)
    if source == target:
        raise ValueError("source and target must differ")

    fwd_adj = g._fwd
    rev_adj = g._rev

    dist_f = {source: 0}
    sigma_f = {source: 1}
    pred = {source: []}
    dist_b = {target: 0}
    sigma_b = {target: 1}
    succ = {target: []}
    frontier_f = [source]
    frontier_b = [target]
    meeting: list[int] = []

    while not meeting:
        if not frontier_f or not frontier_b:
            return None
        if len(frontier_f) <= len(frontier_b):
            level = dist_f[frontier_f[0]] + 1
            next_frontier = []
            for u in frontier_f:
                su = sigma_f[u]
                for v in fwd_adj[u]:
                    dv = dist_f.get(v)
                    if dv is None:
                        dist_f[v] = level
                        sigma_f[v] = su
                        pred[v] = [u]
                        next_frontier.append(v)
                        if v in dist_b:
                            meeting.append(v)
                    elif dv == level:
                        sigma_f[v] += su
                        pred[v].append(u)
            frontier_f = next_frontier
        else:
            level = dist_b[frontier_b[0]] + 1
            next_frontier = []
            for u in frontier_b:
                su = sigma_b[u]
                for w in rev_adj[u]:
                    dw = dist_b.get(w)
                    if dw is None:
                        dist_b[w] = level
                        sigma_b[w] = su
                        succ[w] = [u]
                        next_frontier.append(w)
                        if w in dist_f:
                            meeting.append(w)
                    elif dw == level:
                        sigma_b[w] += su
                        succ[w].append(u)
            frontier_b = next_frontier

    distance = dist_f[meeting[0]] + dist_b[meeting[0]]
    path_count = sum(sigma_f[v] * sigma_b[v] for v in meeting)

    # Forward half: everything that reaches the meeting set along pred
    # links. For a vertex on a shortest path, every recorded predecessor is
    # itself on one, so no filtering is needed while walking back.
    counts: dict[int, int] = {}
    position: dict[int, int] = {}
    dag_preds: dict[int, tuple[int, ...]] = {}
    seen = set(meeting)
    stack = list(meeting)
    while stack:
        v = stack.pop()
        position[v] = dist_f[v]
        counts[v] = sigma_f[v]
        ps = pred[v]
        dag_preds[v] = tuple(ps)
        for u in ps:
            if u not in seen:
                seen.add(u)
                stack.append(u)

    # Backward half: everything the meeting set reaches along succ links.
    # Source-side path counts are not known here (the backward search
    # counted paths to the target), so propagate them level by level away
    # from the meeting set.
    by_depth: dict[int, list[int]] = {}
    back_preds: dict[int, list[int]] = {}
    bseen = set(meeting)
    stack = list(meeting)
    while stack:
        v = stack.pop()
        for u in succ[v]:
            back_preds.setdefault(u, []).append(v)
            if u not in bseen:
                bseen.add(u)
                stack.append(u)
                by_depth.setdefault(dist_b[u], []).append(u)
    for depth in sorted(by_depth, reverse=True):
        for v in by_depth[depth]:
            ps = back_preds[v]
            counts[v] = sum(counts[u] for u in ps)
            position[v] = distance - depth
            dag_preds[v] = tuple(ps)

    assert counts[target] == path_count
    return ShortestPathDag(
        source=source,
        target=target,
        distance=distance,
        path_count=path_count,
        dist=position,
        counts=counts,
        preds=dag_preds,
    )


def _weighted_index(rng, weights: list[int]) -> int:
    """Index drawn proportionally to integer weights, exactly.

    Falls back to rejection sampling over raw generator bytes when the
    total exceeds the 63-bit range numpy can draw directly, so arbitrarily
    large path counts keep exact probabilities.
    """
    total = sum(weights)
    if total <= _INT63:
        x = int(rng.integers(total))
    else:
        bits = total.bit_length()
        nbytes = (bits + 7) // 8
        mask = (1 << bits) - 1
        while True:
            x = int.from_bytes(rng.bytes(nbytes), "little") & mask
            if x < total:
                break
    for i, w in enumerate(weights):
        x -= w
        if x < 0:
            return i
    raise AssertionError("weighted draw fell off the end")


def sample_uniform_path(dag: ShortestPathDag, rng, mark: int | None = None) -> PathSample:
    """Draw one path uniformly among all paths the structure describes.

    Walks backward from the target, picking each predecessor u with
    probability counts[u] / sum of counts over the candidates; multiplying
    the step probabilities telescopes to exactly 1 / path_count per path.
    ``mark`` sets the membership flag on the returned sample.
    """
    path = [dag.target]
    v = dag.target
    preds = dag.preds
    counts = dag.counts
    while v != dag.source:
        candidates = preds[v]
        if len(candidates) == 1:
            v = candidates[0]
        else:
            v = candidates[_weighted_index(rng, [counts[u] for u in candidates])]
        path.append(v)
    path.reverse()
    return PathSample(
        vertices=tuple(path),
        contains_mark=mark is not None and mark in path,
    )


class _SearchSpace:
    """Reusable scratch for the distance search: one epoch-stamped mark per vertex.

    Each search takes two fresh stamps, one per side, so a vertex is labelled
    by the forward side, by the backward side, or (stale stamp) by neither.
    Starting a search is one increment instead of clearing two dicts, and a
    run that draws many pairs allocates the marks once.
    """

    __slots__ = ("mark", "epoch")

    def __init__(self, g: DirectedGraph):
        self.mark = [0] * g.vertex_count
        self.epoch = 0


def shortest_path_length(
    g: DirectedGraph, source: int, target: int, space: _SearchSpace | None = None
) -> int | None:
    """Hop count of a shortest source-to-target path, None if unreachable.

    Same balanced bidirectional search as the full builder, but since only
    the distance is needed it exits at the first contact instead of
    finishing the level. Until that contact the two labelled balls are
    disjoint, so a shortest path is longer than the sum of their radii; the
    contact vertex closes a path one hop longer than that sum, which is
    therefore the distance. Only labels are kept, no per-vertex distances.
    ``space`` carries the marks across calls on the same graph; without one
    a fresh scratch is allocated.
    """
    g._check(source)
    g._check(target)
    if source == target:
        return 0
    if space is None:
        space = _SearchSpace(g)
    fwd_mark = space.epoch + 1
    bwd_mark = space.epoch + 2
    space.epoch = bwd_mark
    mark = space.mark
    mark[source] = fwd_mark
    mark[target] = bwd_mark
    fwd_adj = g._fwd
    rev_adj = g._rev
    frontier_f = [source]
    frontier_b = [target]
    radius = 0
    while frontier_f and frontier_b:
        if len(frontier_f) <= len(frontier_b):
            adj, frontier, own, other = fwd_adj, frontier_f, fwd_mark, bwd_mark
        else:
            adj, frontier, own, other = rev_adj, frontier_b, bwd_mark, fwd_mark
        radius += 1
        next_frontier = []
        for u in frontier:
            for v in adj[u]:
                m = mark[v]
                if m != own:
                    if m == other:
                        return radius
                    mark[v] = own
                    next_frontier.append(v)
        if own == fwd_mark:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier
    return None


def on_some_shortest_path(
    g: DirectedGraph,
    source: int,
    target: int,
    vertex: int,
    reach: ReachabilityInfo,
    space: _SearchSpace | None = None,
) -> bool:
    """True iff ``vertex`` lies on at least one shortest source-target path.

    Pure distance test: d(source, vertex) + d(vertex, target) == d(source,
    target), with the two legs read off the precomputed reachability maps.
    ``reach`` must have been computed for ``vertex``; ``space`` is passed on
    to :func:`shortest_path_length`.
    """
    to_v = reach.dist_to_root.get(source)
    from_v = reach.dist_from_root.get(target)
    if to_v is None or from_v is None:
        return False
    d = shortest_path_length(g, source, target, space)
    return d is not None and to_v + from_v == d
