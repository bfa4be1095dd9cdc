from fractions import Fraction

import numpy as np
import pytest

from pathcentral.adaptive import EstimatorConfig
from pathcentral.betweenness import estimate_betweenness, estimate_coverage
from pathcentral.errors import GuardError
from pathcentral.generate import random_digraph
from pathcentral.graph import DirectedGraph, bfs_distances, loads_edge_list
from pathcentral.reachability import compute_reachability, transitive_closure_oracle

from oracles import longest_shortest_path_vertices


def test_path_root_middle(three_path):
    b = three_path.id_of("b")
    reach = compute_reachability(three_path, b)
    assert reach.upstream == {three_path.id_of("a")}
    assert reach.downstream == {three_path.id_of("c")}
    assert reach.domain == {0, 1, 2}
    assert reach.pair_fraction == Fraction(1, 6)
    assert reach.source_fraction == Fraction(1, 3)
    assert reach.dist_to_root == {b: 0, three_path.id_of("a"): 1}
    assert reach.dist_from_root == {b: 0, three_path.id_of("c"): 1}


def test_cycle_sees_everything(three_cycle):
    for v in three_cycle.vertices():
        reach = compute_reachability(three_cycle, v)
        others = set(three_cycle.vertices()) - {v}
        assert reach.upstream == others
        assert reach.downstream == others
        assert reach.pair_fraction == Fraction(4, 6)


def test_sink_root_has_empty_downstream(three_path):
    reach = compute_reachability(three_path, three_path.id_of("c"))
    assert reach.downstream == frozenset()
    assert reach.pair_fraction == 0
    assert reach.source_fraction == Fraction(2, 3)


def test_root_never_in_its_own_sets():
    g = loads_edge_list("a b\nb c\nc a")
    for v in g.vertices():
        reach = compute_reachability(g, v)
        assert v not in reach.upstream
        assert v not in reach.downstream
        assert v in reach.domain


def test_fractions_are_exact_rationals():
    g = random_digraph(30, 0.1, seed=4)
    for v in g.vertices():
        reach = compute_reachability(g, v)
        n = g.vertex_count
        assert isinstance(reach.pair_fraction, Fraction)
        assert reach.pair_fraction == Fraction(
            len(reach.upstream) * len(reach.downstream), n * (n - 1)
        )
        assert reach.source_fraction == Fraction(len(reach.upstream), n)
        assert 0 <= reach.pair_fraction <= 1
        zero_side = not reach.upstream or not reach.downstream
        assert (reach.pair_fraction == 0) == zero_side


def test_distance_maps_match_plain_bfs():
    g = random_digraph(25, 0.12, seed=9)
    for v in g.vertices():
        reach = compute_reachability(g, v)
        assert reach.dist_to_root == bfs_distances(g, v, direction="reverse")
        assert reach.dist_from_root == bfs_distances(g, v, direction="forward")


def test_flat_fields_agree_with_the_views():
    g = random_digraph(40, 0.05, seed=12)
    n = g.vertex_count
    for v in g.vertices():
        reach = compute_reachability(g, v)
        assert reach.unreached == n + 1
        assert reach.sources == tuple(sorted(reach.upstream))
        assert reach.targets == tuple(sorted(reach.downstream))
        assert reach.to_root == [reach.dist_to_root.get(u, n + 1) for u in g.vertices()]
        assert reach.from_root == [reach.dist_from_root.get(u, n + 1) for u in g.vertices()]
        for array, flat in [(reach.to_root_array, reach.to_root),
                            (reach.from_root_array, reach.from_root),
                            (reach.source_array, reach.sources),
                            (reach.target_array, reach.targets)]:
            assert array.dtype == np.int64 and array.tolist() == list(flat)
        assert reach.domain == {u for u in g.vertices()
                                if reach.to_root[u] <= n or reach.from_root[u] <= n}


VIEWS = {"upstream", "downstream", "domain", "sources", "targets", "to_root", "from_root"}


def test_views_are_built_only_when_read():
    g = random_digraph(30, 0.1, seed=3)
    reach = compute_reachability(g, 5)
    assert not VIEWS & set(vars(reach))
    assert reach.dist_to_root._dict is None and reach.dist_from_root._dict is None
    for name in sorted(VIEWS):
        assert getattr(reach, name) is getattr(reach, name)
        assert name in vars(reach)


def test_pair_estimators_build_no_view(monkeypatch):
    g = random_digraph(30, 0.1, seed=3)
    reaches = []

    def recording(g, root):
        reaches.append(compute_reachability(g, root))
        return reaches[-1]

    monkeypatch.setattr("pathcentral.betweenness.compute_reachability", recording)
    cfg = EstimatorConfig(tolerance=0.1, failure_prob=0.1, seed=4)
    estimate_betweenness(g, 5, cfg)
    estimate_coverage(g, 5, cfg)
    assert len(reaches) == 2
    for reach in reaches:
        assert not VIEWS & set(vars(reach))


def test_equality_compares_the_root_and_the_hop_counts():
    g = random_digraph(30, 0.1, seed=3)
    reach = compute_reachability(g, 5)
    assert reach == compute_reachability(g, 5)
    assert reach != compute_reachability(g, 6)
    assert reach != compute_reachability(random_digraph(30, 0.1, seed=4), 5)
    assert reach != compute_reachability(random_digraph(31, 0.1, seed=3), 5)
    assert reach != (5,)


def test_vertex_bound_covers_longest_relevant_path():
    for seed, p in [(1, 0.06), (2, 0.1), (3, 0.25)]:
        g = random_digraph(40, p, seed=seed)
        for v in g.vertices():
            reach = compute_reachability(g, v)
            pairs = [
                (s, t)
                for s in reach.upstream | {v}
                for t in reach.downstream | {v}
            ]
            longest = longest_shortest_path_vertices(g, restrict_pairs=pairs)
            assert reach.diameter_vertex_bound >= longest


def test_bound_clamped_to_two():
    g = loads_edge_list("a b")
    reach = compute_reachability(g, g.id_of("a"))
    assert reach.diameter_vertex_bound == 2
    assert compute_reachability(g, g.id_of("b")).diameter_vertex_bound == 2


class TestClosureOracle:
    def test_path(self, three_path):
        a, b, c = (three_path.id_of(x) for x in "abc")
        closure = transitive_closure_oracle(three_path)
        expected = {(a, b), (a, c), (b, c)}
        actual = {(u, v) for u in range(3) for v in range(3) if closure[u, v]}
        assert actual == expected

    def test_cycle_fully_connected(self, three_cycle):
        closure = transitive_closure_oracle(three_cycle)
        assert int(closure.sum()) == 6
        assert not closure.diagonal().any()

    def test_disconnected_edges(self):
        g = loads_edge_list("a b\nc d")
        closure = transitive_closure_oracle(g)
        actual = {(u, v) for u in range(4) for v in range(4) if closure[u, v]}
        assert actual == {(g.id_of("a"), g.id_of("b")), (g.id_of("c"), g.id_of("d"))}

    def test_guard(self):
        g = DirectedGraph.from_edges([], vertex_count=2001)
        with pytest.raises(GuardError):
            transitive_closure_oracle(g)

    def test_agrees_with_reachability_sets(self):
        g = random_digraph(35, 0.09, seed=21)
        closure = transitive_closure_oracle(g)
        for v in g.vertices():
            reach = compute_reachability(g, v)
            assert reach.upstream == set(np.flatnonzero(closure[:, v]))
            assert reach.downstream == set(np.flatnonzero(closure[v, :]))
