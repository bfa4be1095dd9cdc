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

Both the draw probability and the weight are products of reciprocals of
small integers, so they are carried as integer denominator products and
only combined at the end: the per-sample contribution is an exact integer
ratio and the bound contribution <= upstream share holds by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .adaptive import (
    Estimate,
    degenerate_estimate,
    gap_term_risk,
    make_rng,
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

    ``stopping`` picks the run length, as for the pair estimators:
    ``"adaptive"`` stops once both gap terms drop below the tolerance or
    the fallback budget is spent, ``"fixed"`` runs exactly
    ``fixed_samples`` draws.

    Every root with an in-edge is sampled, sinks included: a counted path
    may end at the root, so a root with no out-edge can score above zero.
    """

    k: int
    tolerance: float = 0.05
    failure_prob: float = 0.1
    seed: int | None = None
    weight: str = "original"
    stopping: str = "adaptive"
    fixed_samples: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must be in (0, 1)")
        if not (0.0 < self.failure_prob < 1.0):
            raise ValueError("failure_prob must be in (0, 1)")
        if self.weight not in ("original", "restricted"):
            raise ValueError(f"weight must be 'original' or 'restricted', got {self.weight!r}")
        if self.stopping not in ("adaptive", "fixed"):
            raise ValueError(f"stopping must be 'adaptive' or 'fixed', got {self.stopping!r}")
        if self.stopping == "fixed" and (self.fixed_samples is None or self.fixed_samples < 1):
            raise ValueError("stopping='fixed' needs fixed_samples >= 1")


@dataclass(frozen=True)
class WalkSample:
    """One drawn walk with its exact probability and weight bookkeeping.

    ``probability_denominator`` is the product of candidate-set sizes along
    the walk (the draw probability is its reciprocal); ``weight_denominator``
    the product of the configured weight denominators. The former never
    exceeds the latter because the candidate sets are subsets of the weight
    sets. ``completed`` is False when the walk stopped before the target
    length: either the candidate set emptied, or the walk had not touched
    the root and the root was farther than the steps left (such a walk
    could never score).
    """

    vertices: tuple[int, ...]
    target_length: int
    completed: bool
    contains_mark: bool
    probability_denominator: int
    weight_denominator: int

    @property
    def probability(self) -> Fraction:
        return Fraction(1, self.probability_denominator)

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.weight_denominator)


class _WalkSpace:
    """Reusable scratch: domain bitmap, distances to the root, and
    epoch-stamped visited marks.

    ``to_root[v]`` is the hop count from v to the root, or one more than
    the vertex count when v is not upstream (no walk from v can reach the
    root). Stamping makes clearing the visited set O(1) per walk, which
    keeps the per-sample memory footprint at a few integers per vertex
    regardless of how many walks a run draws.
    """

    __slots__ = ("in_domain", "to_root", "stamp", "epoch")

    def __init__(self, g: DirectedGraph, reach: ReachabilityInfo):
        n = g.vertex_count
        self.in_domain = bytearray(n)
        for v in reach.domain:
            self.in_domain[v] = 1
        self.to_root = [n + 1] * n
        for v, d in reach.dist_to_root.items():
            self.to_root[v] = d
        self.stamp = [0] * n
        self.epoch = 0


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
    if source not in reach.upstream:
        raise ValueError("walk sources must lie in the root's upstream set")
    if space is None:
        space = _WalkSpace(g, reach)
    space.epoch += 1
    epoch = space.epoch
    stamp = space.stamp
    in_domain = space.in_domain
    to_root = space.to_root
    root = reach.root

    stamp[source] = epoch
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
        neighbors = g._fwd[current]
        candidates = [v for v in neighbors if in_domain[v] and stamp[v] != epoch]
        if not candidates:
            completed = False
            break
        if restricted:
            step_weight = len(candidates)
        else:
            step_weight = sum(1 for v in neighbors if stamp[v] != epoch)
        prob_den *= len(candidates)
        weight_den *= step_weight
        if len(candidates) == 1:
            current = candidates[0]
        else:
            current = candidates[int(rng.integers(len(candidates)))]
        stamp[current] = epoch
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
    """
    started = time.perf_counter()
    rng, seed = make_rng(cfg.seed)

    if g.in_degree(root) == 0:
        return degenerate_estimate(seed, started)

    reach = compute_reachability(g, root)
    sources = tuple(sorted(reach.upstream))
    bound = float(reach.source_fraction)

    if cfg.stopping == "fixed":
        budget = cfg.fixed_samples
        gap_terms = None
    else:
        budget = compute_walk_budget(cfg.tolerance, cfg.failure_prob / 2.0, bound)
        risk = gap_term_risk(cfg.failure_prob)

        def gap_terms(mean: float, tau: int) -> tuple[float, float]:
            return stopping_terms(mean, tau, budget, bound, risk, risk)

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

    return run_sampling_loop(draw, budget, cfg.tolerance, gap_terms, bound, seed, started)
