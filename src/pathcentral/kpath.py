"""k-path centrality estimation via restricted random simple paths.

The estimator draws a start vertex from the root's upstream set and a walk
length from 1..k, then grows a self-avoiding random walk that never leaves
the root's domain (no path through the root can touch anything else, so the
restriction discards only irrelevant mass). A walk that reaches its target
length and touched the root contributes the ratio of the walk's actual draw
probability to its weight under the configured weighting, scaled by the
upstream share; everything else contributes zero.

A walk that has not touched the root yet stops as soon as the root is out
of reach: at a vertex u with j steps left and d(u, root) > j it could only
ever score zero, because a self-avoiding walk needs at least d(u, root)
hops to get there. Stopping it draws nothing more, so each sample keeps its
law and only hopeless walks get cheaper.

A step never scans the current vertex's out-list. The list, sorted and
restricted to the domain, is fixed for the run, and the at most k + 1
visited vertices are found in it by bisection: the candidates are the
list minus those, and the drawn index steps past their positions. That
gives the same candidates in the same order as a scan, so a seeded walk
takes the same draws and the same steps.

Both the draw probability and the weight are products of reciprocals of
small integers, so they are carried as integer denominator products and
only combined at the end: the per-sample contribution is an exact integer
ratio and the bound contribution <= upstream share holds by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import InitVar, dataclass

import numpy as np

from .adaptive import (
    Estimate,
    check_accuracy,
    check_count,
    run_sampling_loop,
    stopping_terms,
)
from .graph import DirectedGraph
from .reachability import ReachabilityInfo, compute_reachability

__all__ = [
    "KPathConfig",
    "WalkSample",
    "compute_walk_budget",
    "sample_walk",
    "estimate_kpath_centrality",
]


@dataclass(frozen=True)
class KPathConfig:
    """Options for the k-path estimator.

    ``weight="original"`` counts all unvisited out-neighbors in the walk
    weight's denominators, ``"restricted"`` only those inside the root's
    domain (making the weight equal to the draw probability, so every
    complete hit contributes exactly the upstream share).

    ``fixed_samples`` picks the run length, as in ``EstimatorConfig``: None
    stops once both gap terms drop below the tolerance or the fallback
    budget is spent, a count runs exactly that many draws. ``stopping``
    names the same choice (``"adaptive"`` or ``"fixed"``); it is optional,
    not stored, and refused when it disagrees with ``fixed_samples``.

    Every root with an in-edge is sampled, sinks included: a counted path
    may end at the root, so a root with no out-edge can score above zero.
    """

    k: int
    tolerance: float = 0.05
    failure_prob: float = 0.1
    seed: int | None = None
    weight: str = "original"
    stopping: InitVar[str | None] = None
    fixed_samples: int | None = None

    def __post_init__(self, stopping: str | None):
        check_count("k", self.k)
        check_accuracy(self.tolerance, self.failure_prob, self.fixed_samples)
        if self.weight not in ("original", "restricted"):
            raise ValueError(f"weight must be 'original' or 'restricted', got {self.weight!r}")
        if stopping not in (None, "adaptive", "fixed"):
            raise ValueError(f"stopping must be 'adaptive' or 'fixed', got {stopping!r}")
        if stopping is not None and (stopping == "fixed") != (self.fixed_samples is not None):
            raise ValueError(f"stopping={stopping!r} disagrees with "
                             f"fixed_samples={self.fixed_samples!r}")


@dataclass(frozen=True)
class WalkSample:
    """One drawn walk with its draw probability and weight as integers.

    ``probability_denominator`` is the product of candidate-set sizes along
    the walk, ``weight_denominator`` the product of the configured weight
    denominators; the draw probability and the weight are their
    reciprocals. The former never exceeds the latter because the candidate
    sets are subsets of the weight sets. ``completed`` is False when the
    walk stopped before the target length: either the candidate set
    emptied, or the walk had not touched the root and the root was farther
    than the steps left (such a walk could never score).
    """

    vertices: tuple[int, ...]
    target_length: int
    completed: bool
    contains_mark: bool
    probability_denominator: int
    weight_denominator: int


class _WalkSpace:
    """Reusable scratch: the out-lists restricted to the root's domain, and
    distances to the root.

    ``adj[u]`` is u's sorted out-list with the vertices outside the domain
    left out, for every u a walk can stand on. When the domain is every
    vertex it is ``g._fwd`` itself. Otherwise only the lists of upstream
    vertices that are not downstream are filtered, once per run: the root
    also reaches the out-neighbours of every vertex it reaches, so the
    other lists of domain vertices stay inside the domain.

    ``to_root`` is ``reach.to_root`` itself: the hop count from v to the
    root, or one more than the vertex count when v is not upstream (no walk
    from v can reach the root).
    """

    __slots__ = ("adj", "to_root")

    def __init__(self, g: DirectedGraph, reach: ReachabilityInfo):
        n = g.vertex_count
        upstream = reach.to_root_array <= n
        downstream = reach.from_root_array <= n
        inside = upstream | downstream
        if inside.all():
            self.adj = g._fwd
        else:
            adj = list(g._fwd)
            in_domain = inside.tolist()
            for u in np.flatnonzero(upstream & ~downstream).tolist():
                adj[u] = tuple(v for v in adj[u] if in_domain[v])
            self.adj = adj
        self.to_root = reach.to_root


def compute_walk_budget(
    tolerance: float,
    failure_prob: float,
    source_fraction: float,
) -> int:
    """Sample count sufficient for the target accuracy at the given range.

    Plain two-sided concentration over samples bounded by the source
    fraction, missing the tolerance with probability at most
    ``failure_prob``. The estimator passes half its failure probability;
    the gap terms get the other half.
    """
    base = math.log(2.0 / failure_prob) / (2.0 * tolerance**2)
    budget = math.ceil(source_fraction**2 * base)
    return max(budget, 1)


def sample_walk(
    g: DirectedGraph,
    reach: ReachabilityInfo,
    source: int,
    target_length: int,
    rng,
    weight: str = "original",
    space: _WalkSpace | None = None,
) -> WalkSample:
    """Grow one self-avoiding random walk of up to ``target_length`` steps.

    Starts at ``source`` (which must be upstream of the reachability root)
    and repeatedly steps to a uniformly drawn unvisited out-neighbor inside
    the root's domain. Stops short, with ``completed=False``, when no such
    neighbor exists, or when the walk has not touched the root and the
    root is more hops away than steps remain; the latter check runs before
    each step draws, so a walk from a source too far from the root takes
    no random words at all.
    """
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    root = reach.root
    n = g.vertex_count
    if not (0 <= source < n and source != root and reach.to_root[source] <= n):
        raise ValueError("walk sources must lie in the root's upstream set")
    if space is None:
        space = _WalkSpace(g, reach)
    adj = space.adj
    fwd = g._fwd
    to_root = space.to_root

    path = [source]
    current = source
    prob_den = 1
    weight_den = 1
    contains = False
    completed = True
    restricted = weight == "restricted"

    for steps_left in range(target_length, 0, -1):
        if not contains and to_root[current] > steps_left:
            completed = False
            break
        neighbors = adj[current]
        # positions of the visited vertices in the sorted out-list
        taken = []
        for v in path:
            i = bisect_left(neighbors, v)
            if i < len(neighbors) and neighbors[i] == v:
                taken.append(i)
        count = len(neighbors) - len(taken)
        if not count:
            completed = False
            break
        prob_den *= count
        # visited vertices all lie in the domain, so the full out-list
        # holds the same ones
        weight_den *= count if restricted else len(fwd[current]) - len(taken)
        pick = int(rng.integers(count)) if count > 1 else 0
        # the pick-th unvisited entry: step past the visited positions
        for i in sorted(taken):
            if i > pick:
                break
            pick += 1
        current = neighbors[pick]
        path.append(current)
        if current == root:
            contains = True

    return WalkSample(
        vertices=tuple(path),
        target_length=target_length,
        completed=completed,
        contains_mark=contains,
        probability_denominator=prob_den,
        weight_denominator=weight_den,
    )


def estimate_kpath_centrality(g: DirectedGraph, root: int, cfg: KPathConfig) -> Estimate:
    """Estimate the root's k-path centrality.

    Scores, per sample, the upstream share scaled by the ratio of draw
    probability to walk weight, for complete walks that touched the root;
    stuck walks and misses contribute zero but still count, which is what
    keeps the estimator unbiased over the walk space. A draw whose source
    is farther from the root than its length scores zero without growing
    a walk, consuming the same random words ``sample_walk`` would.

    A root with no in-edge reports a degenerate zero. The budget is
    ``compute_walk_budget`` at half the failure probability; a fixed run
    ignores it.
    """

    def plan(rng):
        if g.in_degree(root) == 0:
            return None

        reach = compute_reachability(g, root)
        sources = reach.sources
        bound = float(reach.source_fraction)
        budget = compute_walk_budget(cfg.tolerance, cfg.failure_prob / 2.0, bound)

        n = g.vertex_count
        n_src = len(sources)
        space = _WalkSpace(g, reach)
        to_root = space.to_root
        k = cfg.k
        weighting = cfg.weight

        def draw() -> float:
            s = sources[int(rng.integers(n_src))]
            length = int(rng.integers(1, k + 1))
            if to_root[s] > length:
                return 0.0
            walk = sample_walk(g, reach, s, length, rng, weight=weighting, space=space)
            assert walk.probability_denominator <= walk.weight_denominator
            if walk.completed and walk.contains_mark:
                return n_src * walk.probability_denominator / (n * walk.weight_denominator)
            return 0.0

        return lambda count: [draw() for _ in range(count)], budget, bound

    return run_sampling_loop(cfg, stopping_terms, plan)
