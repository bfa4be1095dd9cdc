"""Independent oracles and frozen expected values for the test suite.

Nothing here may call the library's BFS/searching internals: shortest paths
are enumerated by depth-capped DFS, expectations by full probability-tree
recursion with rational arithmetic, and distances (where a matrix is more
convenient) come from scipy. The point is that when a test compares the
library against these, the two sides share no traversal code.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from pathcentral.graph import DirectedGraph

# --- frozen values, hand-computed from the published formulas ------------
#
# Sample budget at C=0.5, tolerance 0.1, failure 0.1:
#   C/tol^2 = 50; ln(2/0.1) = ln 20 = 2.9957...
#   bound 4: floor(log2(2)) = 1 -> ceil(50 * (1 + 1 + 2.9957)) = ceil(249.79)
#   bound 3: level term clamps to 0 -> ceil(50 * 3.9957) = ceil(199.79)
BUDGET_TOL01_FAIL01_VD4 = 250
BUDGET_TOL01_FAIL01_VD3 = 200

# Walk budgets at tolerance 0.05, failure 0.1 (plain concentration):
#   ln(2/0.1) / (2 * 0.0025) = 2.9957/0.005 = 599.15
WALK_BUDGET_FULL = 600    # source fraction 1
WALK_BUDGET_HALF = 150    # source fraction 1/2: ceil(0.25 * 599.15)

# Gap terms at mean 0.01, samples 1000, budget 1e5, fraction 1e-3, risk 0.025:
#   L = ln 40 = 3.688879...; mass = 100; ratio = 0.1
#   K = 2 * 0.01 * 100 / L = 0.5421687
#   lower: inner = 1/3 - 0.1 = 0.2333...; sqrt(0.05444 + K) = 0.7724075
#          (L/1000) * (0.23333 + 0.77241) = 0.00371006
#   upper: inner = 1/3 + 0.1 = 0.4333...; sqrt(0.18778 + K) = 0.8543686
#          (L/1000) * (0.43333 + 0.85437) = 0.00475018
GAP_LOWER_REFERENCE = 0.0037101
GAP_UPPER_REFERENCE = 0.0047502
GAP_REFERENCE_ARGS = dict(mean=0.01, samples=1000, budget=10**5,
                          fraction=1e-3, risk=0.025)


def _plain_dfs_reachable(neighbors, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def shortest_paths_by_enumeration(
    g: DirectedGraph, source: int, target: int
) -> list[tuple[int, ...]]:
    """Every shortest source-to-target path, by iterative-deepening DFS.

    Tries path lengths 0, 1, 2, ... and returns all simple paths of the
    first length that reaches the target, descending only into vertices
    that can still reach the target at all (a sound prune: dropping a
    vertex with no route to the target discards no path). Exponential in
    the corridor size; for tiny graphs only.
    """
    if source == target:
        return [(source,)]
    if target not in _plain_dfs_reachable(g.out_neighbors, source):
        return []
    corridor = _plain_dfs_reachable(g.in_neighbors, target)
    n = g.vertex_count
    for length in range(1, n):
        found: list[tuple[int, ...]] = []

        def dfs(u: int, path: list[int]) -> None:
            depth = len(path) - 1
            if depth == length:
                if u == target:
                    found.append(tuple(path))
                return
            if u == target:
                return
            for v in g.out_neighbors(u):
                if v in corridor and v not in path:
                    path.append(v)
                    dfs(v, path)
                    path.pop()

        dfs(source, [source])
        if found:
            return found
    return []


def betweenness_by_enumeration(g: DirectedGraph) -> list[Fraction]:
    """Betweenness of every vertex straight from the definition."""
    n = g.vertex_count
    scores = [Fraction(0)] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = shortest_paths_by_enumeration(g, s, t)
            if not paths:
                continue
            sigma = len(paths)
            for r in range(n):
                if r == s or r == t:
                    continue
                through = sum(1 for p in paths if r in p)
                if through:
                    scores[r] += Fraction(through, sigma)
    return [sc / (n * (n - 1)) for sc in scores]


def brandes_with_predecessor_lists(g: DirectedGraph, exact: bool) -> list:
    """Frozen dict-based dependency accumulation, the reference for
    ``brandes_betweenness_all``.

    Each BFS keeps a predecessor list per reached vertex, in the order the
    edges were first scanned; the sweep walks the BFS order backwards and
    adds into every predecessor. Same arithmetic as the library (rational
    when ``exact``, floats otherwise), so float scores must match bit for
    bit, not just approximately.
    """
    n = g.vertex_count
    zero = Fraction(0) if exact else 0.0
    scores = [zero] * n
    for s in range(n):
        dist = {s: 0}
        sigma = {s: 1}
        preds: dict[int, list[int]] = {s: []}
        order = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.out_neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    order.append(v)
                    queue.append(v)
                elif dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = dict.fromkeys(order, zero)
        for w in reversed(order):
            if exact:
                coeff = (1 + delta[w]) / sigma[w]
            else:
                coeff = (1.0 + delta[w]) / sigma[w]
            for u in preds[w]:
                delta[u] += sigma[u] * coeff
            if w != s:
                scores[w] += delta[w]
    return [v / (n * (n - 1)) for v in scores]


def coverage_by_enumeration(g: DirectedGraph, root: int) -> Fraction:
    """Coverage straight from the definition (path membership, not distances)."""
    n = g.vertex_count
    count = 0
    for s in range(n):
        if s == root:
            continue
        for t in range(n):
            if t == root or t == s:
                continue
            paths = shortest_paths_by_enumeration(g, s, t)
            if any(root in p for p in paths):
                count += 1
    return Fraction(count, n * (n - 1))


def bfs_distances_by_queue(g: DirectedGraph, source: int, direction: str = "forward") -> dict:
    """Hop distances from ``source`` by a FIFO search over the sorted adjacency.

    The reference for ``bfs_distances``: the same dict, with vertices in the
    order the queue visits them.
    """
    neighbors = g.out_neighbors if direction == "forward" else g.in_neighbors
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def sample_walk_by_scanning(g: DirectedGraph, reach, source: int, target_length: int,
                            rng, weight: str = "original"):
    """One walk as ``sample_walk`` grows it, each step scanning the out-list.

    The reference for ``sample_walk``: every step filters the current
    vertex's full out-list for unvisited domain vertices, draws an index
    into that list (no draw for a single candidate) and, for the original
    weighting, counts the unvisited out-neighbours in a second scan.
    """
    from pathcentral.kpath import WalkSample

    beyond = g.vertex_count + 1
    visited = {source}
    path = [source]
    prob_den = weight_den = 1
    contains = False
    completed = True
    for steps_left in range(target_length, 0, -1):
        if not contains and reach.dist_to_root.get(path[-1], beyond) > steps_left:
            completed = False
            break
        neighbors = g.out_neighbors(path[-1])
        candidates = [v for v in neighbors if v in reach.domain and v not in visited]
        if not candidates:
            completed = False
            break
        prob_den *= len(candidates)
        if weight == "restricted":
            weight_den *= len(candidates)
        else:
            weight_den *= sum(1 for v in neighbors if v not in visited)
        if len(candidates) == 1:
            current = candidates[0]
        else:
            current = candidates[int(rng.integers(len(candidates)))]
        visited.add(current)
        path.append(current)
        contains = contains or current == reach.root
    return WalkSample(
        vertices=tuple(path),
        target_length=target_length,
        completed=completed,
        contains_mark=contains,
        probability_denominator=prob_den,
        weight_denominator=weight_den,
    )


def scipy_distance_matrix(g: DirectedGraph):
    """All-pairs hop distances via scipy (test-side independent route)."""
    from scipy.sparse import csgraph

    return csgraph.shortest_path(g.to_csr(), method="auto", unweighted=True)


def walk_estimator_expectation(
    g: DirectedGraph, root: int, k: int, weight: str
) -> Fraction:
    """Exact expectation of the walk estimator by full probability-tree sweep.

    Mirrors the sampler's outcome space: uniform start in the root's
    upstream set, uniform target length in 1..k, then a branch per candidate
    at every step, each taken with probability 1/(number of candidates).
    Complete walks that touched the root contribute
    upstream_count * W / (n * P); stuck walks and misses contribute zero.
    Everything is rational, so equality against the enumeration oracle is
    exact.
    """
    from pathcentral.reachability import compute_reachability

    n = g.vertex_count
    reach = compute_reachability(g, root)
    upstream = sorted(reach.upstream)
    if not upstream:
        return Fraction(0)
    domain = reach.domain
    restricted = weight == "restricted"
    rf = len(upstream)

    def branch(u: int, steps_left: int, visited: frozenset[int],
               prob: Fraction, weight_frac: Fraction, touched: bool) -> Fraction:
        if steps_left == 0:
            if touched:
                value = Fraction(rf) * weight_frac / (n * prob)
                return prob * value
            return Fraction(0)
        candidates = [v for v in g.out_neighbors(u) if v in domain and v not in visited]
        if not candidates:
            return Fraction(0)  # stuck: positive probability, zero value
        if restricted:
            step_weight = len(candidates)
        else:
            step_weight = sum(1 for v in g.out_neighbors(u) if v not in visited)
        total = Fraction(0)
        for v in candidates:
            total += branch(
                v,
                steps_left - 1,
                visited | {v},
                prob / len(candidates),
                weight_frac / step_weight,
                touched or v == root,
            )
        return total

    total = Fraction(0)
    for s in upstream:
        for length in range(1, k + 1):
            total += branch(s, length, frozenset({s}), Fraction(1), Fraction(1), False)
    return total / (rf * k)


def longest_shortest_path_vertices(g: DirectedGraph, restrict_pairs=None) -> int:
    """Vertex count of the longest finite shortest path (scipy distances)."""
    import numpy as np

    dist = scipy_distance_matrix(g)
    if restrict_pairs is not None:
        best = 0
        for s, t in restrict_pairs:
            d = dist[s, t]
            if np.isfinite(d):
                best = max(best, int(d))
        return best + 1
    finite = dist[np.isfinite(dist)]
    return int(finite.max()) + 1 if finite.size else 1
