import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcentral.adaptive import CompensatedSum
from pathcentral.exact import exact_kpath
from pathcentral.generate import random_digraph
from pathcentral.graph import DirectedGraph, loads_edge_list
from pathcentral.kpath import (
    KPathConfig,
    compute_walk_budget,
    estimate_kpath_centrality,
    sample_walk,
)
from pathcentral.reachability import compute_reachability

from oracles import WALK_BUDGET_FULL, WALK_BUDGET_HALF


def kcfg(k=2, **kwargs):
    kwargs.setdefault("seed", 42)
    return KPathConfig(k=k, **kwargs)


class TestWalkBudget:
    def test_frozen_full_range_budget(self):
        assert compute_walk_budget(0.05, 0.1, 1.0) == WALK_BUDGET_FULL

    def test_frozen_half_range_budget(self):
        assert compute_walk_budget(0.05, 0.1, 0.5) == WALK_BUDGET_HALF

    def test_adaptive_budget_spends_half_the_risk(self):
        # ceil(ln(4 / 0.1) / (2 * 0.05^2)) = ceil(737.77...) = 738
        assert compute_walk_budget(0.05, 0.1 / 2, 1.0) == 738

    def test_budget_never_below_one(self):
        assert compute_walk_budget(0.05, 0.1, 0.0) == 1

    def test_quadratic_shrinkage_with_the_range(self):
        full = compute_walk_budget(0.05, 0.1, 1.0)
        third = compute_walk_budget(0.05, 0.1, 1 / 3)
        assert third == 67
        assert third < full / 8


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(k=2, tolerance=0.0),
            dict(k=2, tolerance=1.5),
            dict(k=2, failure_prob=0.0),
            dict(k=2, weight="squared"),
            dict(k=2, stopping="forever"),
            dict(k=2, stopping="fixed"),
            dict(k=2, stopping="fixed", fixed_samples=0),
            dict(k=2, stopping="hoeffding"),
        ],
    )
    def test_bad_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KPathConfig(**kwargs)

    def test_defaults_accepted(self):
        cfg = KPathConfig(k=3)
        assert cfg.stopping == "adaptive"
        assert cfg.weight == "original"


class TestSampleWalk:
    def test_deterministic_chain_walk(self, three_path):
        b = three_path.id_of("b")
        reach = compute_reachability(three_path, b)
        rng = np.random.default_rng(0)
        walk = sample_walk(three_path, reach, three_path.id_of("a"), 2, rng)
        assert walk.vertices == (three_path.id_of("a"), b, three_path.id_of("c"))
        assert walk.completed and walk.contains_mark
        assert walk.probability_denominator == 1
        assert walk.weight_denominator == 1
        assert walk.probability == Fraction(1) and walk.weight == Fraction(1)

    def test_walk_stops_short_when_boxed_in(self, three_path):
        b = three_path.id_of("b")
        reach = compute_reachability(three_path, b)
        rng = np.random.default_rng(0)
        walk = sample_walk(three_path, reach, three_path.id_of("a"), 3, rng)
        assert not walk.completed
        assert len(walk.vertices) == 3

    def test_weight_counts_exits_outside_the_domain(self):
        # x is reachable from a but irrelevant to root b; the candidate set
        # for the first step is {b} alone, while the original weighting
        # still counts both unvisited neighbors b and x
        g = loads_edge_list("a b\nb c\na x\n")
        b = g.id_of("b")
        reach = compute_reachability(g, b)
        original = sample_walk(g, reach, g.id_of("a"), 1, np.random.default_rng(0))
        restricted = sample_walk(
            g, reach, g.id_of("a"), 1, np.random.default_rng(0), weight="restricted"
        )
        assert original.probability_denominator == 1
        assert original.weight_denominator == 2
        assert restricted.weight_denominator == 1

    def test_probability_never_beats_weight(self):
        g = random_digraph(12, 0.3, seed=9)
        rng = np.random.default_rng(9)
        for root in g.vertices():
            reach = compute_reachability(g, root)
            for s in sorted(reach.upstream):
                walk = sample_walk(g, reach, s, 3, rng)
                assert walk.probability_denominator <= walk.weight_denominator
                assert walk.vertices[0] == s
                assert len(set(walk.vertices)) == len(walk.vertices)

    def test_source_must_be_upstream(self, three_path):
        reach = compute_reachability(three_path, three_path.id_of("b"))
        with pytest.raises(ValueError, match="upstream"):
            sample_walk(three_path, reach, three_path.id_of("c"), 1, np.random.default_rng(0))

    def test_length_must_be_positive(self, three_path):
        reach = compute_reachability(three_path, three_path.id_of("b"))
        with pytest.raises(ValueError):
            sample_walk(three_path, reach, three_path.id_of("a"), 0, np.random.default_rng(0))


class TestRootOutOfReach:
    """A walk that has not touched the root stops once the root is farther
    than the steps it has left; it could never score from there."""

    @pytest.fixture
    def chain(self):
        """a -> b -> c -> d, scored at root c."""
        g = loads_edge_list("a b\nb c\nc d\n")
        return g, compute_reachability(g, g.id_of("c"))

    def test_root_on_the_last_step_is_not_cut(self, chain):
        g, reach = chain
        walk = sample_walk(g, reach, g.id_of("a"), 2, np.random.default_rng(0))
        assert walk.vertices == (g.id_of("a"), g.id_of("b"), g.id_of("c"))
        assert walk.completed and walk.contains_mark

    def test_root_beyond_the_length_stops_at_once(self, chain):
        g, reach = chain
        walk = sample_walk(g, reach, g.id_of("a"), 1, np.random.default_rng(0))
        assert walk.vertices == (g.id_of("a"),)
        assert not walk.completed and not walk.contains_mark
        assert walk.probability_denominator == walk.weight_denominator == 1

    def test_a_cut_walk_draws_no_random_words(self):
        # a branches to b and x, both two hops from the root c: an uncut
        # first step would draw between them
        g = loads_edge_list("a b\nb c\nc d\na x\nx c\n")
        reach = compute_reachability(g, g.id_of("c"))
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        walk = sample_walk(g, reach, g.id_of("a"), 1, rng)
        assert walk.vertices == (g.id_of("a"),) and not walk.completed
        assert rng.bit_generator.state == before

    def test_walk_stops_on_a_vertex_that_is_not_upstream(self):
        # from a the walk steps to the root r or to y, which is downstream
        # only; at y the root is out of reach, so the walk ends there
        # instead of going on to z
        g = loads_edge_list("a r\nr y\na y\ny z\n")
        a, r, y, z = (g.id_of(lab) for lab in "aryz")
        reach = compute_reachability(g, r)
        seen = set()
        for seed in range(20):
            walk = sample_walk(g, reach, a, 3, np.random.default_rng(seed))
            seen.add(walk.vertices)
            if walk.vertices[1] == y:
                assert walk.vertices == (a, y)
                assert not walk.completed and not walk.contains_mark
            else:
                assert walk.vertices == (a, r, y, z)
                assert walk.completed and walk.contains_mark
        assert seen == {(a, y), (a, r, y, z)}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
    st.integers(0, 7),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_estimate_matches_a_replay_through_sample_walk(pairs, root, k, seed):
    # The estimator skips sample_walk for sources farther from the root than
    # the drawn length; sample_walk itself cuts such walks before drawing.
    # If the two checks ever disagreed, the random streams would part.
    g = DirectedGraph.from_edges(pairs, vertex_count=8)
    roots = [v for v in g.vertices() if g.in_degree(v) and g.out_degree(v)]
    if not roots:
        return
    root = roots[root % len(roots)]
    tau = 200
    est = estimate_kpath_centrality(
        g, root, KPathConfig(k=k, seed=seed, stopping="fixed", fixed_samples=tau)
    )
    reach = compute_reachability(g, root)
    sources = tuple(sorted(reach.upstream))
    rng = np.random.default_rng(seed)
    acc = CompensatedSum()
    hits = 0
    for _ in range(tau):
        s = sources[int(rng.integers(len(sources)))]
        length = int(rng.integers(1, k + 1))
        walk = sample_walk(g, reach, s, length, rng)
        if walk.completed and walk.contains_mark:
            acc.add(len(sources) * walk.probability_denominator
                    / (g.vertex_count * walk.weight_denominator))
            hits += 1
    assert est.hits == hits
    assert est.value == acc.value / tau


class TestKPathEstimates:
    def test_chain_middle_hits_every_draw(self, three_path):
        b = three_path.id_of("b")
        est = estimate_kpath_centrality(three_path, b, kcfg(k=2))
        assert est.hits == est.samples
        assert abs(est.value - 1 / 3) < 1e-12
        assert est.samples == est.sample_budget == compute_walk_budget(0.05, 0.1 / 2, 1 / 3)
        assert est.stop_reason == "budget-reached"
        assert est.lower_conf is not None and est.upper_conf is not None

    def test_sink_root_is_sampled(self, three_path):
        # paths may end at the root, so the sink c of a -> b -> c scores
        # 1/3 at k=1: contributions are 0 or 2/3 with equal probability
        c = three_path.id_of("c")
        cfg = kcfg(k=1, seed=11)
        est = estimate_kpath_centrality(three_path, c, cfg)
        exact = float(exact_kpath(three_path, c, 1))
        assert exact == 1 / 3
        assert est.stop_reason != "degenerate-zero"
        assert abs(est.value - exact) <= cfg.tolerance
        assert est.lower_conf <= exact <= est.upper_conf
        assert 0 < est.hits < est.samples

    def test_source_root_is_degenerate(self, three_path):
        est = estimate_kpath_centrality(three_path, three_path.id_of("a"), kcfg(k=2))
        assert est.stop_reason == "degenerate-zero"

    def test_value_stays_inside_the_contribution_range(self):
        g = random_digraph(10, 0.25, seed=4)
        for root in g.vertices():
            est = estimate_kpath_centrality(
                g, root, kcfg(k=3, seed=root, stopping="fixed", fixed_samples=300)
            )
            assert 0.0 <= est.value <= est.contribution_bound + 1e-12

    def test_fixed_mean_tracks_the_exact_score(self):
        g = random_digraph(9, 0.3, seed=21)
        root = max(
            g.vertices(), key=lambda v: exact_kpath(g, v, 3) if g.out_degree(v) else 0
        )
        exact = float(exact_kpath(g, root, 3))
        bound = float(compute_reachability(g, root).source_fraction)
        tau = 30_000
        est = estimate_kpath_centrality(
            g, root, kcfg(k=3, seed=6, stopping="fixed", fixed_samples=tau)
        )
        se = math.sqrt(max(bound * exact - exact**2, 1e-18) / tau)
        assert abs(est.value - exact) <= 3 * se

    def test_same_seed_reproduces(self, shortcut):
        a = shortcut.id_of("b")
        one = estimate_kpath_centrality(shortcut, a, kcfg(k=3, seed=31))
        two = estimate_kpath_centrality(shortcut, a, kcfg(k=3, seed=31))
        assert (one.value, one.samples, one.hits, one.stop_reason) == (
            two.value, two.samples, two.hits, two.stop_reason
        )

    def test_weightings_agree_when_the_domain_is_everything(self, three_cycle):
        # strongly connected: every neighbor is in the domain, so the two
        # weightings produce identical walks and identical estimates
        a = three_cycle.id_of("a")
        runs = {}
        for weighting in ("original", "restricted"):
            runs[weighting] = estimate_kpath_centrality(
                three_cycle, a,
                kcfg(k=2, seed=19, weight=weighting, stopping="fixed", fixed_samples=500),
            )
        assert runs["original"].value == runs["restricted"].value
        assert runs["original"].hits == runs["restricted"].hits
