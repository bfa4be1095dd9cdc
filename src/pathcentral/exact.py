"""Exact centrality oracles.

Ground truth for the sampling estimators: dependency-accumulation
betweenness (all vertices in one pass), a pair-restricted betweenness that
only visits the root's upstream sources, an all-pairs distance check for
coverage, and exhaustive simple-path enumeration for k-path scores.

Everything up to ``EXACT_ARITHMETIC_THRESHOLD`` vertices is computed in exact
rational arithmetic so equality tests in higher layers are meaningful; above
it the same code paths run in floats. The coverage and k-path oracles refuse
graphs above fixed caps (``COVERAGE_GUARD``, ``KPATH_*_GUARD``).

Both betweenness oracles share one counting BFS on flat lists; Brandes'
per-source sweep finds predecessors by distance but still adds in reversed
BFS order, so its float scores equal a predecessor-list sweep's bit for
bit. Float Brandes starts instead as a level-synchronous sweep on
``scipy.sparse`` over batches of sources (Kepner & Gilbert, *Graph
Algorithms in the Language of Linear Algebra*, 2011). It sums in another
order, so its scores agree with the rational ones to a relative 5e-15 on
the tested graphs rather than bit for bit. From the first batch whose BFS
runs deeper than ``LEVEL_SWEEP_MAX_LEVELS`` levels, or whose path counts
reach 2**53, the sources go back to the per-source float sweep.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

from .errors import GuardError
from .graph import DirectedGraph
from .reachability import compute_reachability

__all__ = [
    "brandes_betweenness",
    "brandes_betweenness_all",
    "restricted_pair_betweenness",
    "all_pairs_distances",
    "exact_coverage",
    "exact_kpath",
    "EXACT_ARITHMETIC_THRESHOLD",
    "COVERAGE_GUARD",
    "KPATH_VERTEX_GUARD",
    "KPATH_LENGTH_GUARD",
]

EXACT_ARITHMETIC_THRESHOLD = 1000
COVERAGE_GUARD = 2000
KPATH_VERTEX_GUARD = 15
KPATH_LENGTH_GUARD = 5
# from a batch whose BFS goes deeper, sources run in the per-source sweep
LEVEL_SWEEP_MAX_LEVELS = 24
# each n × batch float64 array of the level sweep stays within this size
LEVEL_SWEEP_BATCH_BYTES = 4 << 20


def _count_paths(adj, source: int, dist: list[int], sigma: list[int]) -> list[int]:
    """BFS from ``source`` counting shortest paths into flat lists.

    Expects ``dist`` to be -1 everywhere; fills ``dist`` and ``sigma`` for the
    reached vertices and returns them in BFS order. The caller resets ``dist``
    over that order; ``sigma`` outside it is stale and never read.
    """
    dist[source] = 0
    sigma[source] = 1
    order = [source]
    for u in order:  # the list doubles as the queue
        du = dist[u] + 1
        su = sigma[u]
        for v in adj[u]:
            dv = dist[v]
            if dv < 0:
                dist[v] = du
                sigma[v] = su
                order.append(v)
            elif dv == du:
                sigma[v] += su
    return order


def _dependency_sweep(g: DirectedGraph, sources, scores: list) -> None:
    """Add every source's dependencies into ``scores``, one BFS at a time.

    The sweep finds the predecessors of w among its in-neighbors u by
    ``dist[u] == dist[w] - 1`` instead of storing them. Each ``delta[u]``
    still receives its additions in reversed BFS order of w, with the same
    coefficients, so float scores equal a predecessor-list sweep's bit for
    bit. The arithmetic is that of ``scores``: ``Fraction`` or float.
    """
    n = g.vertex_count
    zero = scores[0] * 0
    rev = g._rev
    dist = [-1] * n
    sigma = [0] * n
    delta = [zero] * n
    for s in sources:
        order = _count_paths(g._fwd, s, dist, sigma)
        # every reached vertex but the source, farthest first
        for w in order[:0:-1]:
            pred_dist = dist[w] - 1
            coeff = (1 + delta[w]) / sigma[w]
            for u in rev[w]:
                if dist[u] == pred_dist:
                    delta[u] += sigma[u] * coeff
            scores[w] += delta[w]
        for v in order:
            dist[v] = -1
            delta[v] = zero


def _level_sweep(a, at, sources: range):
    """Dependency sums of a batch of sources, one sparse product per level.

    ``a`` is the adjacency matrix in float64 CSR and ``at`` its transpose.
    Column j of the n × len(sources) arrays belongs to ``sources[j]``. The
    forward pass grows every column's BFS level by level: ``at @ frontier``
    sums the path counts of each vertex's in-neighbors on the last level.
    The backward pass walks the levels from the deepest up and adds
    ``sigma * (a @ coeff)`` into the level above, with
    ``coeff = (1 + delta) / sigma`` on the level below.

    Returns one float per vertex, the sum over the batch with each source's
    own column left out, or None when the batch must run in Python: when a
    BFS is deeper than ``LEVEL_SWEEP_MAX_LEVELS``, or when a path count
    reaches 2**53, from where float counts are no longer exact.
    """
    import numpy as np

    n = a.shape[0]
    cols = np.arange(len(sources))
    sigma = np.zeros((n, len(sources)))
    sigma[sources, cols] = 1.0
    dist = np.full(sigma.shape, -1, dtype=np.int16)
    dist[sources, cols] = 0
    frontier = sigma
    depth = 0
    while True:
        frontier = at @ frontier
        frontier[dist >= 0] = 0.0
        new = frontier > 0
        if not new.any():
            break
        depth += 1
        if depth > LEVEL_SWEEP_MAX_LEVELS:
            return None
        dist[new] = depth
        sigma += frontier
    if not sigma.max() < 2.0**53:
        return None

    delta = np.zeros(sigma.shape)
    above = dist == depth
    for d in range(depth, 0, -1):
        level, above = above, dist == d - 1
        coeff = np.zeros(sigma.shape)
        coeff[level] = (1 + delta[level]) / sigma[level]
        delta[above] += sigma[above] * (a @ coeff)[above]
    delta[sources, cols] = 0.0
    return delta.sum(axis=1)


def brandes_betweenness_all(g: DirectedGraph):
    """Betweenness of every vertex by dependency accumulation.

    One BFS plus one backward sweep per source, normalized by the number of
    ordered vertex pairs. Computing a single vertex costs the same as all of
    them, so callers that need several scores should call this once.

    Up to ``EXACT_ARITHMETIC_THRESHOLD`` vertices the sweep runs in rational
    arithmetic, one source at a time. Above it the scores are floats, and
    sources go in batches through ``_level_sweep``, a level-synchronous
    sweep on sparse matrix products. Its scores differ from the rational
    ones by a relative 5e-15 at most on the tested graphs (float sums in
    another order). From the first batch that the level sweep refuses (a
    BFS deeper than ``LEVEL_SWEEP_MAX_LEVELS``, or a path count of 2**53 or
    more) the remaining sources run in the per-source float sweep, which
    raises on counts beyond float range. If the first batch is refused, the
    scores equal a predecessor-list sweep's bit for bit.
    """
    n = g.vertex_count
    if n < 2:
        raise GuardError("betweenness needs at least 2 vertices")
    exact = n <= EXACT_ARITHMETIC_THRESHOLD
    scores = [Fraction(0) if exact else 0.0] * n
    if exact:
        _dependency_sweep(g, range(n), scores)
    else:
        a, at = g._search_matrices()
        width = max(1, LEVEL_SWEEP_BATCH_BYTES // (8 * n))
        for start in range(0, n, width):
            sums = _level_sweep(a, at, range(start, min(n, start + width)))
            if sums is None:
                # a graph with one deep or path-rich batch tends to have
                # more, so the rest goes per source without another try
                _dependency_sweep(g, range(start, n), scores)
                break
            scores = [s + x for s, x in zip(scores, sums.tolist())]
    denom = n * (n - 1)
    return [v / denom for v in scores]


def brandes_betweenness(g: DirectedGraph, root: int):
    """Exact betweenness of one vertex; see ``brandes_betweenness_all``."""
    g._check(root)
    return brandes_betweenness_all(g)[root]


def restricted_pair_betweenness(g: DirectedGraph, root: int):
    """Betweenness of ``root`` summed over upstream-by-downstream pairs only.

    For a qualifying pair (the two legs through the root add up to the
    pair's distance) the number of shortest paths through the root factors
    into the two leg counts, so one forward BFS per upstream source plus a
    single BFS from the root covers everything. Rational up to
    ``EXACT_ARITHMETIC_THRESHOLD`` vertices, floats above, as in
    ``brandes_betweenness_all``. Agrees with the dependency-accumulation
    value on every graph; the point of keeping both is that they can check
    each other.
    """
    g._check(root)
    n = g.vertex_count
    if n < 2:
        raise GuardError("betweenness needs at least 2 vertices")
    reach = compute_reachability(g, root)
    exact = n <= EXACT_ARITHMETIC_THRESHOLD
    if not reach.sources or not reach.targets:
        return Fraction(0) if exact else 0.0

    from_root = [-1] * n
    sigma_from_root = [0] * n
    _count_paths(g._fwd, root, from_root, sigma_from_root)
    targets = reach.targets
    dist = [-1] * n
    sigma = [0] * n

    total = Fraction(0) if exact else 0.0
    divide = Fraction if exact else truediv
    for s in reach.sources:
        order = _count_paths(g._fwd, s, dist, sigma)
        d_to_root = dist[root]
        count_to_root = sigma[root]
        for t in targets:
            # each leg is at least one hop, so t == s and unreached t fail
            if d_to_root + from_root[t] == dist[t]:
                total += divide(count_to_root * sigma_from_root[t], sigma[t])
        for v in order:
            dist[v] = -1
    return total / (n * (n - 1))


def all_pairs_distances(g: DirectedGraph):
    """Hop distances between all ordered pairs, ``inf`` where unreachable.

    Comes from scipy's BFS-based shortest-path kernel, an independent code
    path from this package's own searches.
    """
    from scipy.sparse import csgraph

    return csgraph.shortest_path(g._search_matrices()[0], method="auto", unweighted=True)


def exact_coverage(g: DirectedGraph, root: int, dist=None):
    """Fraction of ordered non-root pairs with the root on a shortest path.

    A pair (s, t) counts iff d(s, root) + d(root, t) equals a finite
    d(s, t). ``dist`` is ``all_pairs_distances(g)``, computed here unless a
    caller asking about several roots passes it in. Guarded to
    ``COVERAGE_GUARD`` vertices, the matrix being n × n.
    """
    import numpy as np

    g._check(root)
    n = g.vertex_count
    if n < 2:
        raise GuardError("coverage needs at least 2 vertices")
    if n > COVERAGE_GUARD:
        raise GuardError(f"exact coverage is capped at {COVERAGE_GUARD} vertices, got {n}")

    if dist is None:
        dist = all_pairs_distances(g)
    through = dist[:, root][:, None] + dist[root, :][None, :]
    hit = np.isfinite(dist) & (through == dist)
    hit[root, :] = False
    hit[:, root] = False
    np.fill_diagonal(hit, False)
    return Fraction(int(hit.sum()), n * (n - 1))


def exact_kpath(g: DirectedGraph, root: int, k: int, weight: str = "original") -> Fraction:
    """k-path centrality of ``root`` by exhaustive simple-path enumeration.

    Sums, over every simple path of length 1..k that starts at a non-root
    vertex and touches the root, the path's weight: the product of
    reciprocal counts of unvisited out-neighbors at each step (all of them
    for ``weight="original"``, only those inside the root's domain for
    ``weight="restricted"``). Any path touching the root lies entirely
    inside the root's domain, so the enumeration can stay there without
    losing contributions.

    Guarded to ``KPATH_VERTEX_GUARD`` vertices and ``KPATH_LENGTH_GUARD``
    steps; the path count is factorial in the worst case.
    """
    g._check(root)
    n = g.vertex_count
    if n > KPATH_VERTEX_GUARD:
        raise GuardError(f"exact k-path is capped at {KPATH_VERTEX_GUARD} vertices, got {n}")
    if k > KPATH_LENGTH_GUARD:
        raise GuardError(f"exact k-path is capped at k={KPATH_LENGTH_GUARD}, got {k}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if weight not in ("original", "restricted"):
        raise ValueError(f"weight must be 'original' or 'restricted', got {weight!r}")
    reach = compute_reachability(g, root)

    in_domain = ((reach.to_root_array <= n) | (reach.from_root_array <= n)).tolist()
    adj = g._fwd
    restricted = weight == "restricted"
    total = Fraction(0)

    def extend(u: int, depth: int, weight_den: int, visited: set[int], touched: bool):
        nonlocal total
        if depth == k:
            return
        candidates = [v for v in adj[u] if in_domain[v] and v not in visited]
        if not candidates:
            return
        if restricted:
            step = len(candidates)
        else:
            step = sum(1 for v in adj[u] if v not in visited)
        den = weight_den * step
        for v in candidates:
            now_touched = touched or v == root
            if now_touched:
                total += Fraction(1, den)
            visited.add(v)
            extend(v, depth + 1, den, visited, now_touched)
            visited.remove(v)

    for s in reach.sources:
        extend(s, 0, 1, {s}, False)
    return total / (k * n)
