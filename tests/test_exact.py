from fractions import Fraction

import pytest

from pathcentral import exact as exact_module
from pathcentral.errors import GuardError
from pathcentral.exact import (
    brandes_betweenness,
    all_pairs_distances,
    brandes_betweenness_all,
    exact_coverage,
    exact_kpath,
    restricted_pair_betweenness,
)
from pathcentral.generate import hub_digraph, layered_dag, random_digraph
from pathcentral.graph import DirectedGraph, loads_edge_list

from oracles import (
    betweenness_by_enumeration,
    brandes_with_predecessor_lists,
    coverage_by_enumeration,
)

# graphs with many tied shortest paths, so float sums depend on their order
REFERENCE_GRAPHS = (
    [random_digraph(40, p, seed=seed) for seed, p in [(1, 0.06), (2, 0.1), (3, 0.2)]]
    + [hub_digraph(60, seed=seed) for seed in (1, 2, 3)]
    + [layered_dag(6, 8, 0.4, seed=seed) for seed in (1, 2, 3)]
)


def complete_layers(layers: int, width: int) -> DirectedGraph:
    """Layered DAG with every edge between consecutive layers: the sources
    of layer 0 reach the last layer by width**(layers - 1) shortest paths."""
    return DirectedGraph.from_edges(
        [(i * width + a, (i + 1) * width + b)
         for i in range(layers - 1) for a in range(width) for b in range(width)])


def braided_cycle(n: int, braids: int) -> DirectedGraph:
    """Directed n-cycle; every n // braids steps, two extra vertices give
    v -> v + 2 three shortest paths, so thirds make the float sums round
    and only the per-source sweep's order matches the reference."""
    edges = [(v, (v + 1) % n) for v in range(n)]
    for i, v in enumerate(range(0, n, n // braids)[:braids]):
        for x in (n + 2 * i, n + 2 * i + 1):
            edges += [(v, x), (x, (v + 2) % n)]
    return DirectedGraph.from_edges(edges)


class TestBetweenness:
    def test_path_middle(self, three_path):
        value = brandes_betweenness(three_path, three_path.id_of("b"))
        assert value == Fraction(1, 6)
        assert isinstance(value, Fraction)

    def test_diamond_branch(self, diamond):
        assert brandes_betweenness(diamond, diamond.id_of("a")) == Fraction(1, 24)

    def test_sink_scores_zero(self, three_path):
        assert brandes_betweenness(three_path, three_path.id_of("c")) == 0

    def test_cycle_symmetric(self, three_cycle):
        scores = brandes_betweenness_all(three_cycle)
        assert scores == [Fraction(1, 6)] * 3

    def test_rejects_trivial_graphs(self):
        g = DirectedGraph.from_edges([], vertex_count=1)
        with pytest.raises(GuardError):
            brandes_betweenness_all(g)

    def test_float_mode_above_threshold(self, monkeypatch):
        g = random_digraph(20, 0.15, seed=3)
        exact = brandes_betweenness_all(g)
        monkeypatch.setattr(exact_module, "EXACT_ARITHMETIC_THRESHOLD", 5)
        floats = brandes_betweenness_all(g)
        for e, f in zip(exact, floats):
            assert isinstance(f, float)
            assert abs(float(e) - f) < 1e-12

    def test_matches_enumeration(self):
        for seed, p in [(0, 0.2), (1, 0.35), (2, 0.5)]:
            g = random_digraph(7, p, seed=seed)
            assert brandes_betweenness_all(g) == betweenness_by_enumeration(g)

    @pytest.mark.parametrize("g", REFERENCE_GRAPHS)
    def test_equals_predecessor_list_reference(self, g, monkeypatch):
        # exact equality in both arithmetics: the flat-array sweep must add
        # into each dependency in the reference's order, not merely come close
        assert brandes_betweenness_all(g) == brandes_with_predecessor_lists(g, exact=True)
        n = g.vertex_count
        sums = [0.0] * n
        exact_module._dependency_sweep(g, range(n), sums)
        reference = brandes_with_predecessor_lists(g, exact=False)
        assert [v / (n * (n - 1)) for v in sums] == reference
        # the public float call sums batches of sources in another order
        monkeypatch.setattr(exact_module, "EXACT_ARITHMETIC_THRESHOLD", 0)
        floats = brandes_betweenness_all(g)
        assert all(isinstance(f, float) for f in floats)
        for level, ref in zip(floats, reference):
            assert abs(level - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("g", [complete_layers(20, 10), braided_cycle(200, 20)],
                             ids=["counts-beyond-2**53", "deeper-than-the-level-cap"])
    def test_refused_level_sweep_falls_back_bit_for_bit(self, g, monkeypatch):
        # 10**19 paths reach the last layer, more than floats count exactly;
        # the cycle's BFS runs close to 200 levels deep. Either graph fits in
        # one batch, so the whole call runs per source and must match the
        # reference exactly.
        monkeypatch.setattr(exact_module, "EXACT_ARITHMETIC_THRESHOLD", 0)
        floats = brandes_betweenness_all(g)
        assert floats == brandes_with_predecessor_lists(g, exact=False)

    @pytest.mark.parametrize("g", [hub_digraph(210, seed=1),
                                   layered_dag(8, 30, 0.15, seed=1)])
    def test_level_sweep_matches_the_rational_scores(self, g):
        n = g.vertex_count
        assert n <= exact_module.EXACT_ARITHMETIC_THRESHOLD
        a = g.to_csr().astype(float)
        sums = exact_module._level_sweep(a, a.T.tocsr(), range(n))
        assert sums is not None
        for level, rational in zip(sums / (n * (n - 1)), brandes_betweenness_all(g)):
            assert abs(level - float(rational)) <= 1e-12 * float(rational)

    def test_level_sweep_on_a_large_graph(self, monkeypatch):
        # above the rational threshold, batched; no batch may fall back
        g = layered_dag(11, 100, 0.04, seed=2)
        reference = brandes_with_predecessor_lists(g, exact=False)
        monkeypatch.setattr(exact_module, "_dependency_sweep", None)
        scores = brandes_betweenness_all(g)
        assert g.vertex_count > exact_module.EXACT_ARITHMETIC_THRESHOLD
        for level, ref in zip(scores, reference):
            assert abs(level - ref) <= 1e-12 * ref

        def top3(values):
            return sorted(g.vertices(), key=lambda v: (-values[v], v))[:3]
        assert top3(scores) == top3(reference)


class TestRestrictedPairs:
    def test_path_middle(self, three_path):
        assert restricted_pair_betweenness(three_path, three_path.id_of("b")) == Fraction(1, 6)

    def test_empty_side_scores_zero(self, three_path):
        assert restricted_pair_betweenness(three_path, three_path.id_of("a")) == 0
        assert restricted_pair_betweenness(three_path, three_path.id_of("c")) == 0

    def test_cycle(self, three_cycle):
        for v in three_cycle.vertices():
            assert restricted_pair_betweenness(three_cycle, v) == Fraction(1, 6)

    def test_agrees_with_dependency_accumulation(self):
        graphs = [random_digraph(n, p, seed=seed)
                  for seed, n, p in [(5, 12, 0.2), (6, 18, 0.12), (7, 25, 0.3), (8, 9, 0.55)]]
        for g in graphs + REFERENCE_GRAPHS[3:]:
            scores = brandes_betweenness_all(g)
            for v in g.vertices():
                assert restricted_pair_betweenness(g, v) == scores[v]


class TestCoverage:
    def test_path_middle(self, three_path):
        assert exact_coverage(three_path, three_path.id_of("b")) == Fraction(1, 6)

    def test_diamond_branch(self, diamond):
        assert exact_coverage(diamond, diamond.id_of("a")) == Fraction(1, 12)

    def test_source_scores_zero(self, three_path):
        assert exact_coverage(three_path, three_path.id_of("a")) == 0

    def test_guards(self):
        with pytest.raises(GuardError):
            exact_coverage(DirectedGraph.from_edges([], vertex_count=1), 0)
        big = DirectedGraph.from_edges([], vertex_count=2001)
        with pytest.raises(GuardError):
            exact_coverage(big, 0)

    def test_matches_enumeration(self):
        for seed, p in [(3, 0.25), (4, 0.4)]:
            g = random_digraph(7, p, seed=seed)
            for v in g.vertices():
                assert exact_coverage(g, v) == coverage_by_enumeration(g, v)

    def test_passed_matrix_gives_the_same_fraction(self):
        # one matrix serves every root of a graph; the answer must not change
        for g in REFERENCE_GRAPHS + [random_digraph(7, 0.4, seed=4)]:
            dist = all_pairs_distances(g)
            for v in g.vertices():
                shared = exact_coverage(g, v, dist=dist)
                assert isinstance(shared, Fraction)
                assert shared == exact_coverage(g, v)

    def test_passed_matrix_keeps_the_guards(self):
        single = DirectedGraph.from_edges([], vertex_count=1)
        with pytest.raises(GuardError):
            exact_coverage(single, 0, dist=all_pairs_distances(single))
        big = DirectedGraph.from_edges([], vertex_count=exact_module.COVERAGE_GUARD + 1)
        with pytest.raises(GuardError):
            exact_coverage(big, 0, dist=all_pairs_distances(big))

    def test_covers_at_least_the_weighted_pairs(self):
        # every pair with positive path share through r must pass the
        # distance test as well, so coverage dominates betweenness
        g = random_digraph(9, 0.3, seed=11)
        scores = brandes_betweenness_all(g)
        for v in g.vertices():
            assert exact_coverage(g, v) >= scores[v]


class TestKPath:
    def test_path_middle_k2(self, three_path):
        assert exact_kpath(three_path, three_path.id_of("b"), 2) == Fraction(1, 3)

    def test_path_end_k1(self, three_path):
        assert exact_kpath(three_path, three_path.id_of("c"), 1) == Fraction(1, 3)

    def test_isolated_root_zero(self):
        g = loads_edge_list("a b\nc d")
        # e has no edges at all
        g = DirectedGraph.from_edges(list(g.edges()), vertex_count=5)
        assert exact_kpath(g, 4, 3) == 0

    def test_shortcut_end(self, shortcut):
        # length-1 paths into c: directly from a (one of two branches) and from b
        assert exact_kpath(shortcut, shortcut.id_of("c"), 1) == Fraction(3, 8)

    def test_weight_definitions_differ_off_domain(self):
        # the walk toward x never counts, but x still halves the first-step
        # weight under the unrestricted definition: (1/2 + 1/2) / (2*4)
        g = loads_edge_list("a b\nb c\na x")
        b = g.id_of("b")
        assert exact_kpath(g, b, 2, weight="original") == Fraction(1, 8)
        assert exact_kpath(g, b, 2, weight="restricted") == Fraction(1, 4)

    def test_weight_definitions_coincide_on_full_domain(self, three_cycle):
        for v in three_cycle.vertices():
            for k in (1, 2):
                assert exact_kpath(three_cycle, v, k, "original") == exact_kpath(
                    three_cycle, v, k, "restricted"
                )

    def test_guards(self):
        big = DirectedGraph.from_edges([(0, 1)], vertex_count=16)
        with pytest.raises(GuardError):
            exact_kpath(big, 1, 2)
        small = loads_edge_list("a b")
        with pytest.raises(GuardError):
            exact_kpath(small, 1, 6)
        with pytest.raises(ValueError):
            exact_kpath(small, 1, 0)
        with pytest.raises(ValueError):
            exact_kpath(small, 1, 2, weight="fancy")
