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

A coverage sample draws its two endpoints and nothing else, so coverage
draws a whole block of pairs at once and gates it in numpy
(``RawDraws.pairs`` and ``shortest_path_gate``); betweenness interleaves
path draws with its pair draws, so it draws pair by pair.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .adaptive import (
    Estimate,
    EstimatorConfig,
    compute_sample_budget,
    run_sampling_loop,
    stopping_terms,
)
from .graph import DirectedGraph
from .reachability import compute_reachability
from .shortest_paths import (
    _gate_length,
    _SearchSpace,
    build_shortest_path_dag,
    sample_uniform_path,
    shortest_path_gate,
)

__all__ = ["estimate_betweenness", "estimate_coverage"]


class _Pools(NamedTuple):
    """The vertices a run draws its sources and targets from, as sorted
    tuples and as int64 arrays."""

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    source_array: np.ndarray
    target_array: np.ndarray


def _pair_loop(
    g: DirectedGraph,
    root: int,
    cfg: EstimatorConfig,
    draws_for,
) -> Estimate:
    """Run ``run_sampling_loop`` over endpoint pairs drawn for the root.

    ``draws_for(rng, reach, pools, bound)`` returns the run's ``draws``,
    with ``pools`` a ``_Pools``. A root without an in-edge or an out-edge
    lies on no path: the plan returns None. The budget is ``compute_sample_budget``.
    Restricted mode draws from upstream x downstream and contributes the
    pair fraction per hit; baseline draws from all non-root vertices and
    contributes 1.
    """

    def plan(rng):
        # Past this check both restricted pools are non-empty: graphs hold no
        # self-loops, so an in-neighbour is upstream and an out-neighbour downstream.
        if g.in_degree(root) == 0 or g.out_degree(root) == 0:
            return None

        reach = compute_reachability(g, root)
        if cfg.mode == "baseline":
            pool = np.delete(np.arange(g.vertex_count), root)
            others = tuple(pool.tolist())
            pools = _Pools(others, others, pool, pool)
            bound = 1.0
        else:
            pools = _Pools(reach.sources, reach.targets, reach.source_array, reach.target_array)
            bound = float(reach.pair_fraction)
        budget = compute_sample_budget(
            cfg.tolerance, cfg.failure_prob, reach.diameter_vertex_bound
        )
        return draws_for(rng, reach, pools, bound), budget, bound

    return run_sampling_loop(cfg, stopping_terms, plan)


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
    it leaves each sample's law unchanged. The legs and the landmark table
    decide most pairs with no search. The rest go straight to the counting
    search, told L = d(s, r) + d(r, t): it gives up at its first contact
    when d(s, t) < L, and otherwise builds the structure the path is drawn
    from, so a passing pair is searched once.
    """

    def draws_for(rng, reach, pools, bound):
        sources, targets = pools.sources, pools.targets
        n_src = len(sources)
        n_tgt = len(targets)
        space = _SearchSpace(g)

        def draw() -> float:
            s = sources[rng.integers(n_src)]
            t = targets[rng.integers(n_tgt)]
            length = None if s == t else _gate_length(g, s, t, reach)
            if length is None:
                return 0.0
            dag = build_shortest_path_dag(g, s, t, space, length=length)
            if dag is None:
                return 0.0
            return bound if root in sample_uniform_path(dag, rng).vertices else 0.0

        return lambda count: [draw() for _ in range(count)]

    return _pair_loop(g, root, cfg, draws_for)


def estimate_coverage(g: DirectedGraph, root: int, cfg: EstimatorConfig) -> Estimate:
    """Estimate the fraction of ordered pairs the root covers.

    A pair counts when the root lies on at least one shortest path between
    its endpoints, decided by comparing the two BFS legs through the root
    against the pair's true distance. Same endpoint draws and stopping
    machinery as the betweenness estimator, but a block at a time: the
    block's pairs are the ones the scalar draws would give, and the gate
    searches its undecided pairs in stream order, so every seeded output
    is the one a pair-by-pair run gives.
    """

    def draws_for(rng, reach, pools, bound):
        source_array, target_array = pools.source_array, pools.target_array
        n_src = len(source_array)
        n_tgt = len(target_array)
        space = _SearchSpace(g)

        def draws(count: int) -> list[float]:
            first, second = rng.pairs(n_src, n_tgt, count)
            out = [0.0] * count
            for i in shortest_path_gate(g, source_array[first], target_array[second],
                                        reach, space):
                out[i] = bound
            return out

        return draws

    return _pair_loop(g, root, cfg, draws_for)
