"""Adaptive single-vertex betweenness and coverage estimation.

Both estimators draw endpoint pairs and test whether the root matters for
the drawn pair: betweenness samples one shortest path uniformly and checks
that the root sits on it, coverage only checks that the root sits on *some*
shortest path (a pure distance test, no path sampling). Restricting the
endpoint draws to the root's upstream and downstream sets shrinks the
per-sample range from 1 to the pair fraction, which is where the sample
savings over unrestricted sampling come from.

Both draw the same way (``_pair_loop``): a block of pairs at a time from the
run's stream (``RawDraws.pairs``), gated in numpy by the legs through the
root and the landmark bound (``shortest_paths._undecided_pairs``). Only the
pairs the gate leaves open reach the estimator's per-pair test, in stream
order. Betweenness draws its paths from a second stream
(``RawDraws.jumped``), which reads none of the pair stream's words. So for
one seed both estimators read the same pairs, betweenness scores a subset
of the pairs coverage scores, and no output depends on how the sampling
loop splits its blocks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import shortest_paths
from .adaptive import (
    Estimate,
    EstimatorConfig,
    RawDraws,
    compute_sample_budget,
    run_sampling_loop,
    stopping_terms,
)
from .graph import DirectedGraph
from .reachability import compute_reachability
from .shortest_paths import (
    _SearchSpace,
    _undecided_pairs,
    build_shortest_path_dag,
    sample_uniform_path,
)

__all__ = ["estimate_betweenness", "estimate_coverage"]


def _pair_loop(
    g: DirectedGraph,
    root: int,
    cfg: EstimatorConfig,
    passes: Callable[[int, int, int, _SearchSpace, RawDraws], bool],
) -> Estimate:
    """Run ``run_sampling_loop`` over endpoint pairs drawn for the root.

    Restricted mode draws from upstream x downstream and contributes the
    pair fraction per hit; baseline draws from all non-root vertices and
    contributes 1. A root without an in-edge or an out-edge lies on no
    path: the plan returns None. The budget is ``compute_sample_budget``.

    Each block of pairs is drawn with ``RawDraws.pairs`` on the run's stream
    and gated by ``_undecided_pairs``; every other pair scores 0. A pair
    (s, t) it leaves open, with L = d(s, r) + d(r, t), scores when
    ``passes(s, t, L, space, paths)`` is true, called in stream order with
    the run's search scratch and its second stream.
    """

    def plan(rng):
        # Past this check both restricted pools are non-empty: graphs hold no
        # self-loops, so an in-neighbour is upstream and an out-neighbour downstream.
        if g.in_degree(root) == 0 or g.out_degree(root) == 0:
            return None

        reach = compute_reachability(g, root)
        if cfg.mode == "baseline":
            sources = targets = np.delete(np.arange(g.vertex_count), root)
            bound = 1.0
        else:
            sources, targets = reach.source_array, reach.target_array
            bound = float(reach.pair_fraction)
        budget = compute_sample_budget(
            cfg.tolerance, cfg.failure_prob, reach.diameter_vertex_bound
        )
        n_src, n_tgt = len(sources), len(targets)
        space = _SearchSpace(g)
        paths = rng.jumped()

        def draws(count: int) -> list[float]:
            first, second = rng.pairs(n_src, n_tgt, count)
            out = [0.0] * count
            for i, s, t, length in _undecided_pairs(g, sources[first], targets[second], reach):
                if passes(s, t, length, space, paths):
                    out[i] = bound
            return out

        return draws, budget, bound

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
    search, told L: it gives up at its first contact when d(s, t) < L, and
    otherwise builds the structure the path is drawn from, so a passing
    pair is searched once. The path's draws come from the run's second
    stream: given its pair, each path has probability 1 / sigma(s, t).
    """

    def on_drawn_path(s, t, length, space, paths) -> bool:
        dag = build_shortest_path_dag(g, s, t, space, length=length)
        return dag is not None and root in sample_uniform_path(dag, paths).vertices

    return _pair_loop(g, root, cfg, on_drawn_path)


def estimate_coverage(g: DirectedGraph, root: int, cfg: EstimatorConfig) -> Estimate:
    """Estimate the fraction of ordered pairs the root covers.

    A pair counts when the root lies on at least one shortest path between
    its endpoints, decided by comparing the two BFS legs through the root
    against the pair's true distance: the same endpoint draws, gate and
    stopping machinery as the betweenness estimator, with one distance
    search per pair the gate leaves open.
    """

    def on_some_path(s, t, length, space, paths) -> bool:
        # looked up on the module, where a span tracer patches it
        return shortest_paths.shortest_path_length(g, s, t, space) == length

    return _pair_loop(g, root, cfg, on_some_path)
