"""Shortest-path counting, uniform path sampling, and distance queries.

The sampling estimators need two kernels per drawn pair (s, t):

* draw one path uniformly at random among all shortest s-to-t paths, or
* just decide whether a given vertex sits on some shortest s-to-t path.

Both are served by a balanced bidirectional BFS: one frontier grows from s
over forward edges, one from t over reversed edges, and whichever frontier is
currently smaller expands by a full level. The search stops at the first
level whose expansion reaches a vertex already labeled by the other side.

Expanding whole levels (never stopping mid-level) is what makes the counts
exact: when the sides first touch, every meeting vertex v satisfies
dist_f(v) + dist_b(v) = d(s, t), each shortest path crosses the meeting set
exactly once, and the number of shortest paths factors as
sum over meeting v of sigma_f(v) * sigma_b(v), the paths s to v times the
paths v to t.

Both searches keep their labels in one reusable scratch (``_SearchSpace``):
an epoch-stamped side mark per vertex, plus, for the counting search, flat
distance, path-count and first-parent lists for each side. The
distance-only search needs no counts, so it exits at the first contact.
The counting search finishes the contact level, but only scans it for
contact edges, and labels each meeting vertex on the expanding side as
well, so a meeting vertex carries both sides' labels. It then stops: a
path is drawn straight from those labels, as in KADABRA (Borassi &
Natale, ESA 2016). The draw picks a meeting vertex with weight
sigma_f * sigma_b, then follows parent links to each end, each parent
weighted by that side's path count, which gives every shortest path
probability exactly 1 / sigma(s, t).

The membership gate, d(s, r) + d(r, t) = d(s, t), is the coverage test:
the root can only be on a drawn betweenness path when it is on some
shortest path. The betweenness estimator passes the pairs the gate cannot
settle without a search straight to the builder with the known length,
which gives up at its first contact when the pair fails, so a passing pair
is searched once. Most drawn pairs fail the gate, and most failures are
proved without a search, from the graph's table of distances to and from its
highest-degree vertices: a detour through such a vertex that is shorter
than the route through the root shows d(s, t) is shorter too (the upper
bound of landmark distance estimation). The gate draws no random words
and gives the answer the search would give, so no sample's law moves.
``shortest_path_gate`` runs the same gate over a whole block of pairs: the
legs and the landmark bound are array operations, and only the pairs they
leave undecided are searched, one by one, in block order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

import numpy as np

from .graph import FAR, DirectedGraph
from .reachability import ReachabilityInfo

__all__ = [
    "ShortestPathDag",
    "PathSample",
    "build_shortest_path_dag",
    "sample_uniform_path",
    "shortest_path_length",
    "on_some_shortest_path",
    "shortest_path_gate",
]

_INT63 = 2**63 - 1


@dataclass(frozen=True)
class ShortestPathDag:
    """All shortest paths from ``source`` to ``target``, as the search left them.

    ``distance`` is d(source, target) in hops and ``path_count`` the number
    of shortest paths (arbitrary precision). The paths themselves stay in
    the scratch the search ran on: the meeting set, each meeting vertex's
    weight sigma_f * sigma_b, and each side's path counts and parent links,
    with the later parents grouped per vertex. The structure is only valid
    until that scratch's next search, after which
    :func:`sample_uniform_path` raises. Equality compares the four public
    fields alone, never the scratch.
    """

    source: int
    target: int
    distance: int
    path_count: int
    _meeting: list[int] = field(compare=False, repr=False)
    _weights: list[int] = field(compare=False, repr=False)
    _later: tuple[dict[int, list[int]], ...] = field(compare=False, repr=False)
    _space: _SearchSpace = field(compare=False, repr=False)
    _stamp: int = field(compare=False, repr=False)


@dataclass(frozen=True)
class PathSample:
    """One drawn shortest path, source first."""

    vertices: tuple[int, ...]


class _SearchSpace:
    """Reusable scratch for both searches: one epoch-stamped mark per vertex.

    A search takes fresh stamps, one per side, so a vertex is labelled by
    the forward side, by the backward side, or (stale stamp) by neither;
    the counting search takes a third stamp for a vertex that both sides
    have labelled. Starting a search is one increment instead of clearing
    dicts, and a run that draws many pairs allocates the marks once. The
    counting search also keeps, per side, a distance, a path count and a
    first parent per vertex. It writes a side's three entries when that
    side labels the vertex (but no distance for a meeting vertex labelled
    at the contact level, which nothing reads) and reads them only for
    vertices carrying that side's stamp or the shared one, so stale
    entries are never read.
    """

    __slots__ = ("mark", "epoch", "dist", "sigma", "parent")

    def __init__(self, g: DirectedGraph):
        n = g.vertex_count
        self.mark = [0] * n
        self.epoch = 0
        self.dist = ([0] * n, [0] * n)
        self.sigma = ([0] * n, [0] * n)
        self.parent = ([0] * n, [0] * n)


def build_shortest_path_dag(
    g: DirectedGraph,
    source: int,
    target: int,
    space: _SearchSpace | None = None,
    *,
    length: int | None = None,
) -> ShortestPathDag | None:
    """Build the shortest-path structure for (source, target).

    Returns None when target is unreachable from source. ``source == target``
    is rejected: the estimators never ask for it and the empty path would
    need its own conventions. ``space`` carries the scratch across calls on
    the same graph, shared with :func:`shortest_path_length`; without one a
    fresh scratch is allocated. The structure reads that scratch, so it
    is only valid until the scratch's next search.

    ``length``, when given, is the length of some source-target path, so
    d(source, target) is at most it. The search then also returns None
    when d(source, target) is shorter: at the first contact the two radii
    sum to the distance, and a sum below ``length`` ends the search there,
    as :func:`shortest_path_length` would end it. Otherwise the search and
    the structure are those of a call without ``length``.

    Each side labels a vertex with its distance, its path count and its
    first parent (the frontier vertex whose edge labelled it). Later
    parents go to one dict per side, under the vertex they reach, so only
    a vertex with two or more parents gets a list. Once the first contact
    shows up, the rest of that level is only scanned for contact edges,
    from the expanding frontier into the other side, and the vertices they
    reach, the meeting set, are labelled by the expanding side too;
    nothing else is labelled.
    """
    g._check(source)
    g._check(target)
    if source == target:
        raise ValueError("source and target must differ")
    if space is None:
        space = _SearchSpace(g)
    marks = (space.epoch + 1, space.epoch + 2)
    both = space.epoch + 3
    space.epoch = both
    mark = space.mark
    dist_f, dist_b = space.dist
    sigma_f, sigma_b = space.sigma
    mark[source], mark[target] = marks
    dist_f[source] = dist_b[target] = 0
    sigma_f[source] = sigma_b[target] = 1
    frontiers = [[source], [target]]
    radius = [0, 0]
    later: tuple[dict[int, list[int]], ...] = ({}, {})

    while True:
        if not frontiers[0] or not frontiers[1]:
            return None
        # side 0 grows from the source over forward edges, side 1 from the
        # target over reversed ones
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        own, other = marks[side], marks[1 - side]
        adj, frontier = (g._fwd, g._rev)[side], frontiers[side]
        dist, sigma, parent = space.dist[side], space.sigma[side], space.parent[side]
        more = later[side]
        radius[side] += 1
        level = radius[side]
        next_frontier = []
        for at, u in enumerate(frontier):
            su = sigma[u]
            for v in adj[u]:
                m = mark[v]
                if m == own:
                    if dist[v] == level:
                        sigma[v] += su
                        more.setdefault(v, []).append(u)
                elif m == other:
                    break
                else:
                    mark[v] = own
                    dist[v] = level
                    sigma[v] = su
                    parent[v] = u
                    next_frontier.append(v)
            else:
                continue
            break
        else:
            frontiers[side] = next_frontier
            continue
        break

    if length is not None and radius[0] + radius[1] < length:
        return None

    # The contact level: the frontier vertices before ``at`` have no contact
    # edge. Its contact edges are collected first, so the scan makes one
    # test per edge, and then the expanding side labels the meeting set.
    contacts = []
    for u in frontier[at:]:
        for v in adj[u]:
            if mark[v] == other:
                contacts.append((v, u))
    meeting = []
    for v, u in contacts:
        if mark[v] == other:
            mark[v] = both
            sigma[v] = sigma[u]
            parent[v] = u
            meeting.append(v)
        else:
            sigma[v] += sigma[u]
            more.setdefault(v, []).append(u)

    weights = [sigma_f[v] * sigma_b[v] for v in meeting]
    return ShortestPathDag(
        source=source,
        target=target,
        distance=radius[0] + radius[1],
        path_count=sum(weights),
        _meeting=meeting,
        _weights=weights,
        _later=later,
        _space=space,
        _stamp=both,
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


def sample_uniform_path(dag: ShortestPathDag, rng) -> PathSample:
    """Draw one path uniformly among all shortest source-to-target paths.

    Picks a meeting vertex v with probability sigma_f(v) * sigma_b(v) /
    path_count, then walks from v to the source along forward parent
    links, taking each parent u of the current vertex w with probability
    sigma_f(u) / sigma_f(w), and from v to the target along backward
    parent links weighted by sigma_b. Each walk's step probabilities
    telescope to 1 / sigma of v on that side, so every shortest path has
    probability exactly 1 / path_count. Raises ``RuntimeError`` once the
    structure's scratch has run another search.
    """
    space = dag._space
    if space.epoch != dag._stamp:
        raise RuntimeError("the structure's search scratch has run another search since")
    meeting = dag._meeting
    v = meeting[0] if len(meeting) == 1 else meeting[_weighted_index(rng, dag._weights)]
    halves = []
    for end, sigma, parent, later in zip(
        (dag.source, dag.target), space.sigma, space.parent, dag._later
    ):
        half = [v]
        w = v
        while w != end:
            u = parent[w]
            more = later.get(w)
            if more is not None:
                candidates = [u] + more
                u = candidates[_weighted_index(rng, [sigma[x] for x in candidates])]
            half.append(u)
            w = u
        halves.append(half)
    to_source, to_target = halves
    to_source.reverse()
    return PathSample(vertices=tuple(to_source + to_target[1:]))


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


def _gate_length(
    g: DirectedGraph, source: int, target: int, reach: ReachabilityInfo
) -> int | None:
    """L = d(source, root) + d(root, target), or None when no search is
    needed to see that the root is on no shortest source-target path.

    The two legs are ``reach.to_root[source]`` and ``reach.from_root[target]``;
    a leg at the ``unreached`` sentinel means no path through the root.
    When L < ``FAR`` the graph's landmark table is read
    (:meth:`DirectedGraph._landmark_distances`): a landmark h with
    d(source, h) + d(h, target) < L proves d(source, target) < L. A sum
    below L then holds no saturated entry.
    """
    unreached = reach.unreached
    to_root = reach.to_root[source]
    from_root = reach.from_root[target]
    if to_root == unreached or from_root == unreached:
        return None
    length = to_root + from_root
    if length < FAR:
        to_landmark, from_landmark, width = g._landmark_distances()
        i, j = source * width, target * width
        if min(map(add, to_landmark[i:i + width], from_landmark[j:j + width])) < length:
            return None
    return length


def on_some_shortest_path(
    g: DirectedGraph,
    source: int,
    target: int,
    reach: ReachabilityInfo,
    space: _SearchSpace | None = None,
) -> bool:
    """True iff ``reach.root`` lies on at least one shortest source-target path.

    Pure distance test: L = d(source, root) + d(root, target) equals
    d(source, target). :func:`_gate_length` decides the pairs whose legs
    or landmark distances settle it with no search. Otherwise ``space`` is
    passed on to :func:`shortest_path_length`, whose distance decides.
    """
    length = _gate_length(g, source, target, reach)
    if length is None:
        return False
    d = shortest_path_length(g, source, target, space)
    return d is not None and length == d


def shortest_path_gate(
    g: DirectedGraph,
    sources: np.ndarray,
    targets: np.ndarray,
    reach: ReachabilityInfo,
    space: _SearchSpace,
) -> list[int]:
    """Lanes i, in order, with sources[i] != targets[i] and the root on a
    shortest path between them.

    Gives, lane by lane, the answer of :func:`on_some_shortest_path`, and
    makes the same :func:`shortest_path_length` calls in lane order, but
    decides the legs and the landmark bound for the whole block at once:
    the legs come from ``reach.to_root_array`` and ``reach.from_root_array``,
    and the landmark sums from an n x width ``uint8`` view of the graph's
    table, which is read only when some lane has L < ``FAR``, as in the
    scalar test. A lane whose ends coincide fails with no search: the
    estimators score such a pair 0 before they test it.
    """
    to_leg = reach.to_root_array[sources]
    from_leg = reach.from_root_array[targets]
    length = to_leg + from_leg
    unreached = reach.unreached
    live = (to_leg != unreached) & (from_leg != unreached) & (sources != targets)
    near = np.flatnonzero(live & (length < FAR))
    if len(near):
        to_landmark, from_landmark, width = g._landmark_distances()
        n = g.vertex_count
        to_table = np.frombuffer(to_landmark, dtype=np.uint8).reshape(n, width)
        from_table = np.frombuffer(from_landmark, dtype=np.uint8).reshape(n, width)
        detour = (to_table[sources[near]].astype(np.int16) + from_table[targets[near]]).min(axis=1)
        live[near[detour < length[near]]] = False
    lanes = np.flatnonzero(live)
    return [
        i for i, s, t, d in zip(lanes.tolist(), sources[lanes].tolist(),
                                targets[lanes].tolist(), length[lanes].tolist())
        if shortest_path_length(g, s, t, space) == d
    ]
