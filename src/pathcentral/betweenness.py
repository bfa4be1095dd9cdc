"""Adaptive single-vertex betweenness and coverage estimation.

Both estimators draw endpoint pairs and test whether the root matters for
the drawn pair: betweenness samples one shortest path uniformly and checks
that the root sits on it, coverage only checks that the root sits on *some*
shortest path (a pure distance test, no path sampling). Betweenness runs
the coverage test first and draws a path only for pairs that pass it, since
no other pair can put the root on its drawn path. Restricting the
endpoint draws to the root's upstream and downstream sets shrinks the
per-sample range from 1 to the pair fraction, which is where the sample
savings over unrestricted sampling come from.
"""

from __future__ import annotations

import time

from .adaptive import (
    Estimate,
    EstimatorConfig,
    compute_sample_budget,
    degenerate_estimate,
    make_rng,
    run_sampling_loop,
    stopping_terms,
)
from .graph import DirectedGraph
from .reachability import compute_reachability
from .shortest_paths import (
    _SearchSpace,
    build_shortest_path_dag,
    on_some_shortest_path,
    sample_uniform_path,
)

__all__ = ["estimate_betweenness", "estimate_coverage"]


def _finish(
    mean: float,
    samples: int,
    hits: int,
    stop_reason: str,
    gap_lo: float | None,
    gap_hi: float | None,
    budget: int,
    bound: float,
    seed: int,
    started: float,
) -> Estimate:
    return Estimate(
        value=mean,
        samples=samples,
        sample_budget=budget,
        contribution_bound=bound,
        stop_reason=stop_reason,
        lower_conf=None if gap_lo is None else mean - gap_lo,
        upper_conf=None if gap_hi is None else mean + gap_hi,
        seed=seed,
        wall_time=time.perf_counter() - started,
        hits=hits,
    )


def _pair_loop(
    g: DirectedGraph,
    root: int,
    cfg: EstimatorConfig,
    hit_test,
) -> Estimate:
    """Common driver: draw endpoint pairs, score hits, stop adaptively.

    ``hit_test(rng, reach, s, t, space)`` decides whether the drawn pair
    counts for the root; ``space`` is search scratch allocated once per run.
    Where the endpoints come from and how much a hit contributes depends on
    the mode: restricted draws from upstream x downstream and
    contributes the pair fraction per hit; baseline draws from all
    non-root vertices and contributes 1.
    """
    started = time.perf_counter()
    rng, seed = make_rng(cfg.seed)

    if g.in_degree(root) == 0 or g.out_degree(root) == 0:
        return degenerate_estimate(seed, started)

    reach = compute_reachability(g, root, diameter_mode=cfg.diameter_mode)
    if cfg.mode == "baseline":
        pool = tuple(v for v in g.vertices() if v != root)
        sources = targets = pool
        hit_value = 1.0
        stop_fraction = 1.0
        bound = 1.0
    else:
        sources = tuple(sorted(reach.upstream))
        targets = tuple(sorted(reach.downstream))
        if not sources or not targets:
            return degenerate_estimate(seed, started)
        hit_value = float(reach.pair_fraction)
        stop_fraction = hit_value
        bound = hit_value

    budget = compute_sample_budget(
        cfg.tolerance,
        cfg.failure_prob,
        reach.diameter_vertex_bound,
        cfg.budget_constant,
    )
    if cfg.fixed_samples is not None:
        budget = cfg.fixed_samples
        gap_terms = None
    else:
        risk = cfg.gap_risk

        def gap_terms(mean: float, tau: int) -> tuple[float, float]:
            return stopping_terms(mean, tau, budget, stop_fraction, risk, risk)

    n_src = len(sources)
    n_tgt = len(targets)
    space = _SearchSpace(g)

    def draw() -> float:
        s = sources[rng.integers(n_src)]
        t = targets[rng.integers(n_tgt)]
        if s == t:
            return 0.0
        return hit_value if hit_test(rng, reach, s, t, space) else 0.0

    mean, tau, hits, reason, gap_lo, gap_hi = run_sampling_loop(
        draw, budget, cfg.tolerance, gap_terms
    )
    return _finish(mean, tau, hits, reason, gap_lo, gap_hi, budget, bound, seed, started)


def estimate_betweenness(g: DirectedGraph, root: int, cfg: EstimatorConfig) -> Estimate:
    """Estimate the root's betweenness score to the configured accuracy.

    Per sample: endpoints are drawn uniformly, one shortest path between
    them is drawn uniformly among all shortest paths, and the sample scores
    iff the root lies on that drawn path. Pairs with no connecting path
    contribute zero but still count, which keeps the estimator unbiased
    over the endpoint product space.

    The path is drawn only for pairs that pass the coverage distance test
    d(s, r) + d(r, t) = d(s, t). A pair that fails it has no shortest path
    through the root, so the draw would miss with probability 1; skipping
    it leaves each sample's law unchanged and saves the counting search,
    the path structure and the draw.
    """

    def hit_test(rng, reach, s: int, t: int, space) -> bool:
        if not on_some_shortest_path(g, s, t, root, reach, space):
            return False
        dag = build_shortest_path_dag(g, s, t)
        return sample_uniform_path(dag, rng, mark=root).contains_mark

    return _pair_loop(g, root, cfg, hit_test)


def estimate_coverage(g: DirectedGraph, root: int, cfg: EstimatorConfig) -> Estimate:
    """Estimate the fraction of ordered pairs the root covers.

    A pair counts when the root lies on at least one shortest path between
    its endpoints, decided by comparing the two precomputed BFS legs
    through the root against the pair's true distance. Same endpoint draws
    and stopping machinery as the betweenness estimator.
    """

    def hit_test(rng, reach, s: int, t: int, space) -> bool:
        return on_some_shortest_path(g, s, t, root, reach, space)

    return _pair_loop(g, root, cfg, hit_test)
