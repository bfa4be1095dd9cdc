"""Exact centrality oracles.

Ground truth for the sampling estimators: dependency-accumulation
betweenness (all vertices in one pass), a pair-restricted betweenness that
only visits the root's upstream sources, an all-pairs distance check for
coverage, and exhaustive simple-path enumeration for k-path scores.

Everything up to ``EXACT_ARITHMETIC_THRESHOLD`` vertices is computed in exact
rational arithmetic so equality tests in higher layers are meaningful; above
it the scores are floats. The coverage and k-path oracles refuse graphs
above fixed caps (``COVERAGE_GUARD``, ``KPATH_*_GUARD``).

Both betweenness oracles share one counting BFS on flat lists. Rational
Brandes runs Brandes' recursion on ints, scaled per source by the lcm of
its path counts, and makes ``Fraction``s only when it sums the sources'
numerators. The float per-source sweep finds predecessors by distance but
still adds in reversed BFS order, so its scores equal a predecessor-list
sweep's bit for bit. Float Brandes starts instead as a level-synchronous
sweep on ``scipy.sparse`` over batches of sources (Kepner & Gilbert,
*Graph Algorithms in the Language of Linear Algebra*, 2011). It sums in
another order, so its scores agree with the rational ones to a relative
5e-15 on the tested graphs rather than bit for bit. From the first batch
whose BFS runs deeper than ``LEVEL_SWEEP_MAX_LEVELS`` levels, or whose path
counts reach 2**53, the sources go back to the per-source float sweep.

The all-pairs distance matrix is filled one row at a time from scipy's
BFS, a code path apart from the library's counting BFS.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import truediv

from .errors import GuardError
from .graph import DirectedGraph, _bfs_levels
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
# rational sweep: denominators whose numerators are summed apart at once
OPEN_DENOMINATOR_GROUPS = 64


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


def _dependency_sweep(g: DirectedGraph, sources, scores: list[float]) -> None:
    """Add every source's float dependencies into ``scores``, one BFS at a time.

    The sweep finds the predecessors of w among its in-neighbors u by
    ``dist[u] == dist[w] - 1`` instead of storing them. Each ``delta[u]``
    still receives its additions in reversed BFS order of w, with the same
    coefficients, so the scores equal a predecessor-list sweep's bit for
    bit.
    """
    n = g.vertex_count
    rev = g._rev
    dist = [-1] * n
    sigma = [0] * n
    delta = [0.0] * n
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
            delta[v] = 0.0


def _integer_sweep(g: DirectedGraph) -> list[Fraction]:
    """Every vertex's summed dependencies over all sources, as ``Fraction``s.

    Per source s the sweep runs on ints. With D the lcm of the source's
    path counts, it sets G(v) = D / sigma_v + (sum of G(w) over the
    successors w of v in the shortest-path DAG), farthest vertex first;
    then delta_s(v) = sigma_v * G(v) / D - 1. This is Brandes' recursion
    delta_s(v) = sum of sigma_v / sigma_w * (1 + delta_s(w)) multiplied
    through by D / sigma_v, and every term of G is an int because sigma_w
    divides D.

    The numerators sigma_v * G(v) - D of sources that share D add up in
    one list of ints per D, a group. Once ``OPEN_DENOMINATOR_GROUPS`` groups
    are open, a source with a new D first folds them all into the
    ``Fraction`` sums: over the lcm of their denominators, each vertex gets
    one ``Fraction`` addition per fold instead of one per group.
    """
    n = g.vertex_count
    rev = g._rev
    dist = [-1] * n
    sigma = [0] * n
    below = [0] * n  # sum of G(w) over the successors w swept so far
    totals = [Fraction(0)] * n
    groups: dict[int, list[int]] = {}

    def fold() -> None:
        common = lcm(*groups)
        scaled = [(numerators, common // den) for den, numerators in groups.items()]
        for v in range(n):
            num = sum(numerators[v] * scale for numerators, scale in scaled)
            if num:
                totals[v] += Fraction(num, common)
        groups.clear()

    for s in range(n):
        order = _count_paths(g._fwd, s, dist, sigma)
        den = lcm(*map(sigma.__getitem__, order))
        numerators = groups.get(den)
        if numerators is None:
            if len(groups) >= OPEN_DENOMINATOR_GROUPS:
                fold()
            numerators = groups[den] = [0] * n
        # every reached vertex but the source, farthest first
        for w in order[:0:-1]:
            sw = sigma[w]
            gw = den // sw + below[w]
            below[w] = 0
            pred_dist = dist[w] - 1
            for u in rev[w]:
                if dist[u] == pred_dist:
                    below[u] += gw
            numerators[w] += sw * gw - den
        below[s] = 0
        for v in order:
            dist[v] = -1
    fold()
    return totals


def _level_sweep(a, at, sources: range):
    """Dependency sums of a batch of sources, one sparse product per level.

    ``a`` is the adjacency matrix in float64 CSR and ``at`` its transpose.
    Column j of the n × len(sources) arrays belongs to ``sources[j]``. The
    forward pass grows every column's BFS level by level: ``at @ frontier``
    sums the path counts of each vertex's in-neighbors on the last level.
    Each level is kept as the flat indices of its entries. The backward
    pass walks the levels from the deepest up and adds
    ``sigma * (a @ coeff)`` into the level above, with
    ``coeff = (1 + delta) / sigma`` on the level below and zero elsewhere.

    Returns one float per vertex, the sum over the batch with each source's
    own column left out, or None when the batch must run in Python: when a
    BFS is deeper than ``LEVEL_SWEEP_MAX_LEVELS``, or when a path count
    reaches 2**53, from where float counts are no longer exact.
    """
    import numpy as np

    n = a.shape[0]
    width = len(sources)
    sigma = np.zeros((n, width))
    flat_sigma = sigma.reshape(-1)
    levels = [np.asarray(sources) * width + np.arange(width)]
    flat_sigma[levels[0]] = 1.0
    reached = sigma > 0
    frontier = sigma
    while True:
        frontier = at @ frontier
        frontier[reached] = 0.0
        new = frontier > 0
        level = np.flatnonzero(new)
        if not level.size:
            break
        if len(levels) > LEVEL_SWEEP_MAX_LEVELS:
            return None
        levels.append(level)
        reached |= new
        sigma += frontier
    if not sigma.max() < 2.0**53:
        return None

    delta = np.zeros(sigma.shape)
    flat_delta = delta.reshape(-1)
    coeff = np.zeros(sigma.shape)
    flat_coeff = coeff.reshape(-1)
    for d in range(len(levels) - 1, 0, -1):
        level, above = levels[d], levels[d - 1]
        flat_coeff[level] = (1 + flat_delta[level]) / flat_sigma[level]
        flat_delta[above] += flat_sigma[above] * (a @ coeff).reshape(-1)[above]
        flat_coeff[level] = 0.0
    flat_delta[levels[0]] = 0.0
    return delta.sum(axis=1)


def brandes_betweenness_all(g: DirectedGraph):
    """Betweenness of every vertex by dependency accumulation.

    One BFS plus one backward sweep per source, normalized by the number of
    ordered vertex pairs. Computing a single vertex costs the same as all of
    them, so callers that need several scores should call this once.

    Up to ``EXACT_ARITHMETIC_THRESHOLD`` vertices the scores are
    ``Fraction``s from ``_integer_sweep``, one source at a time on ints.
    Above it the scores are floats, and sources go in batches through
    ``_level_sweep``, a level-synchronous sweep on sparse matrix products.
    Its scores differ from the rational ones by a relative 5e-15 at most
    on the tested graphs (float sums in another order). From the first
    batch that the level sweep refuses (a BFS deeper than
    ``LEVEL_SWEEP_MAX_LEVELS``, or a path count of 2**53 or more) the
    remaining sources run in the per-source float sweep, which raises on
    counts beyond float range. If the first batch is refused, the
    scores equal a predecessor-list sweep's bit for bit.
    """
    n = g.vertex_count
    if n < 2:
        raise GuardError("betweenness needs at least 2 vertices")
    if n <= EXACT_ARITHMETIC_THRESHOLD:
        scores = _integer_sweep(g)
    else:
        scores = [0.0] * n
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

    Row s is filled from one scipy BFS out of s (``graph._bfs_levels``).
    """
    import numpy as np

    csr = g._search_matrices()[0]
    n = g.vertex_count
    dist = np.full((n, n), np.inf)
    for s in range(n):
        order, depth = _bfs_levels(csr, s)
        dist[s, order] = depth
    return dist


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
