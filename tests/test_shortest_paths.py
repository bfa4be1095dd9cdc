import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcentral.graph import DirectedGraph, bfs_distances, loads_edge_list
from pathcentral.reachability import compute_reachability
from pathcentral.shortest_paths import (
    _SearchSpace,
    build_shortest_path_dag,
    on_some_shortest_path,
    sample_uniform_path,
    shortest_path_length,
)

from oracles import shortest_paths_by_enumeration

edge_pairs = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=45
)


def test_single_chain(three_path):
    a, c = three_path.id_of("a"), three_path.id_of("c")
    dag = build_shortest_path_dag(three_path, a, c)
    assert dag.distance == 2
    assert dag.path_count == 1
    assert dag.counts[a] == 1


def test_diamond_counts_both_branches(diamond):
    s, t = diamond.id_of("s"), diamond.id_of("t")
    dag = build_shortest_path_dag(diamond, s, t)
    assert dag.distance == 2
    assert dag.path_count == 2
    assert diamond.id_of("a") in dag.dist
    assert diamond.id_of("b") in dag.dist


def test_unreachable_returns_none():
    g = loads_edge_list("a b\nc d")
    assert build_shortest_path_dag(g, g.id_of("a"), g.id_of("c")) is None


def test_identical_endpoints_rejected(three_path):
    with pytest.raises(ValueError):
        build_shortest_path_dag(three_path, 0, 0)


def test_shortcut_prefers_direct_edge(shortcut):
    a, c = shortcut.id_of("a"), shortcut.id_of("c")
    dag = build_shortest_path_dag(shortcut, a, c)
    assert dag.distance == 1
    assert dag.path_count == 1
    assert shortcut.id_of("b") not in dag.dist


def dag_structure_ok(g, dag):
    assert dag.counts[dag.source] == 1
    assert dag.counts[dag.target] == dag.path_count
    assert dag.dist[dag.source] == 0
    assert dag.dist[dag.target] == dag.distance
    for v, preds in dag.preds.items():
        if v == dag.source:
            assert preds == ()
            continue
        assert dag.counts[v] == sum(dag.counts[u] for u in preds)
        for u in preds:
            assert v in g.out_neighbors(u)
            assert dag.dist[v] == dag.dist[u] + 1


@settings(max_examples=80, deadline=None)
@given(edge_pairs, st.integers(0, 8), st.integers(0, 8))
def test_path_count_matches_enumeration(pairs, s, t):
    if s == t:
        return
    g = DirectedGraph.from_edges(pairs, vertex_count=9)
    paths = shortest_paths_by_enumeration(g, s, t)
    dag = build_shortest_path_dag(g, s, t)
    if not paths:
        assert dag is None
        return
    assert dag is not None
    assert dag.path_count == len(paths)
    assert dag.distance == len(paths[0]) - 1
    dag_structure_ok(g, dag)


@settings(max_examples=40, deadline=None)
@given(edge_pairs, st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_sampled_path_is_a_shortest_path(pairs, s, t, seed):
    if s == t:
        return
    g = DirectedGraph.from_edges(pairs, vertex_count=9)
    dag = build_shortest_path_dag(g, s, t)
    if dag is None:
        return
    sample = sample_uniform_path(dag, np.random.default_rng(seed))
    assert sample.vertices in set(shortest_paths_by_enumeration(g, s, t))


def draw_frequencies(g, s, t, draws, seed=0):
    dag = build_shortest_path_dag(g, s, t)
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(draws):
        path = sample_uniform_path(dag, rng).vertices
        counts[path] = counts.get(path, 0) + 1
    return {p: c / draws for p, c in counts.items()}, dag.path_count


def test_diamond_draws_evenly(diamond):
    freqs, sigma = draw_frequencies(diamond, diamond.id_of("s"), diamond.id_of("t"), 10_000)
    assert sigma == 2
    assert len(freqs) == 2
    for f in freqs.values():
        assert abs(f - 0.5) < 0.02


def test_three_parallel_branches_draw_evenly():
    g = loads_edge_list("s x1\ns x2\ns x3\nx1 t\nx2 t\nx3 t")
    freqs, sigma = draw_frequencies(g, g.id_of("s"), g.id_of("t"), 10_000, seed=1)
    assert sigma == 3
    assert len(freqs) == 3
    for f in freqs.values():
        assert abs(f - 1 / 3) < 0.02


def test_single_path_always_drawn(three_path):
    freqs, sigma = draw_frequencies(three_path, three_path.id_of("a"), three_path.id_of("c"), 50)
    assert sigma == 1
    assert list(freqs.values()) == [1.0]


def test_mark_flag_tracks_membership(diamond):
    s, t, a = diamond.id_of("s"), diamond.id_of("t"), diamond.id_of("a")
    dag = build_shortest_path_dag(diamond, s, t)
    rng = np.random.default_rng(7)
    for _ in range(50):
        sample = sample_uniform_path(dag, rng, mark=a)
        assert sample.contains_mark == (a in sample.vertices)


def test_huge_path_counts_stay_exact():
    # 2^70 shortest paths: 70 stacked diamonds; counts exceed 64-bit range
    lines = []
    for i in range(70):
        lines += [f"n{i} a{i}", f"n{i} b{i}", f"a{i} n{i+1}", f"b{i} n{i+1}"]
    g = loads_edge_list("\n".join(lines))
    dag = build_shortest_path_dag(g, g.id_of("n0"), g.id_of("n70"))
    assert dag.path_count == 2**70
    sample = sample_uniform_path(dag, np.random.default_rng(3))
    assert len(sample.vertices) == dag.distance + 1
    for u, v in zip(sample.vertices, sample.vertices[1:]):
        assert v in g.out_neighbors(u)


class TestDistanceOnly:
    def test_examples(self, three_path, shortcut):
        assert shortest_path_length(three_path, 0, 2) == 2
        assert shortest_path_length(three_path, 2, 0) is None
        assert shortest_path_length(three_path, 1, 1) == 0
        assert shortest_path_length(shortcut, shortcut.id_of("a"), shortcut.id_of("d")) == 2

    @settings(max_examples=60, deadline=None)
    @given(edge_pairs, st.integers(0, 8), st.integers(0, 8))
    def test_matches_enumeration(self, pairs, s, t):
        g = DirectedGraph.from_edges(pairs, vertex_count=9)
        got = shortest_path_length(g, s, t)
        paths = shortest_paths_by_enumeration(g, s, t)
        if not paths:
            assert got is None
        else:
            assert got == len(paths[0]) - 1


    @settings(max_examples=60, deadline=None)
    @given(edge_pairs, st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30))
    def test_reused_space_matches_fresh_calls(self, pairs, queries):
        # One scratch across many searches: a stale mark from an earlier
        # search would show up as a wrong distance here.
        g = DirectedGraph.from_edges(pairs, vertex_count=9)
        space = _SearchSpace(g)
        for s, t in queries:
            got = shortest_path_length(g, s, t, space)
            assert got == shortest_path_length(g, s, t)
            assert got == bfs_distances(g, s).get(t)


class TestMembershipCheck:
    def test_path_middle_is_on(self, three_path):
        a, b, c = (three_path.id_of(x) for x in "abc")
        reach = compute_reachability(three_path, b)
        assert on_some_shortest_path(three_path, a, c, b, reach)

    def test_bypassed_vertex_is_off(self):
        g = loads_edge_list("s r\nr t\ns t")
        s, r, t = (g.id_of(x) for x in "srt")
        reach = compute_reachability(g, r)
        assert not on_some_shortest_path(g, s, t, r, reach)

    def test_both_diamond_middles_are_on(self, diamond):
        s, t = diamond.id_of("s"), diamond.id_of("t")
        for mid in ("a", "b"):
            v = diamond.id_of(mid)
            reach = compute_reachability(diamond, v)
            assert on_some_shortest_path(diamond, s, t, v, reach)

    def test_missing_leg_is_off(self):
        g = loads_edge_list("a b\nc d")
        b = g.id_of("b")
        reach = compute_reachability(g, b)
        assert not on_some_shortest_path(g, g.id_of("c"), g.id_of("d"), b, reach)

    @settings(max_examples=50, deadline=None)
    @given(edge_pairs, st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_matches_enumeration(self, pairs, s, t, r):
        if s == t or r in (s, t):
            return
        g = DirectedGraph.from_edges(pairs, vertex_count=9)
        reach = compute_reachability(g, r)
        expected = any(r in p for p in shortest_paths_by_enumeration(g, s, t))
        assert on_some_shortest_path(g, s, t, r, reach) == expected
