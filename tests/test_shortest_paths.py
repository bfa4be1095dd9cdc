import math
from fractions import Fraction

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
    shortest_path_gate,
    shortest_path_length,
)

from pathcentral.generate import hub_digraph, layered_dag, random_digraph

from oracles import shortest_paths_by_enumeration

edge_pairs = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=45
)


class ScriptedDraws:
    """Generator stand-in: replays a script of ``integers`` values, 0 past
    its end, and records the range of every draw."""

    def __init__(self, script):
        self.script = script
        self.ranges = []

    def integers(self, high):
        i = len(self.ranges)
        self.ranges.append(high)
        return self.script[i] if i < len(self.script) else 0

    def bytes(self, n):
        raise AssertionError("path counts this small never need byte draws")


def path_law(dag):
    """Every path the real sampler draws from ``dag``, with its exact probability.

    Runs ``sample_uniform_path`` once per sequence of draw values: after
    each run the last draw with values left moves on by one, odometer
    style, and the draws after it start again from 0, until every value of
    every draw has been taken.
    """
    law = {}
    script = []
    while True:
        rng = ScriptedDraws(script)
        path = sample_uniform_path(dag, rng).vertices
        law[path] = law.get(path, 0) + Fraction(1, math.prod(rng.ranges))
        script = script + [0] * (len(rng.ranges) - len(script))
        while script and script[-1] == rng.ranges[len(script) - 1] - 1:
            script.pop()
        if not script:
            return law
        script[-1] += 1


def test_single_chain(three_path):
    a, b, c = (three_path.id_of(x) for x in "abc")
    dag = build_shortest_path_dag(three_path, a, c)
    assert dag.distance == 2
    assert dag.path_count == 1
    assert path_law(dag) == {(a, b, c): 1}


def test_diamond_counts_both_branches(diamond):
    s, a, b, t = (diamond.id_of(x) for x in "sabt")
    dag = build_shortest_path_dag(diamond, s, t)
    assert dag.distance == 2
    assert dag.path_count == 2
    assert path_law(dag) == {(s, a, t): Fraction(1, 2), (s, b, t): Fraction(1, 2)}


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
    assert path_law(dag) == {(a, c): 1}


def dag_structure_ok(g, dag):
    law = path_law(dag)
    assert len(law) == dag.path_count
    assert set(law.values()) == {Fraction(1, dag.path_count)}
    for path in law:
        assert path[0] == dag.source and path[-1] == dag.target
        assert len(path) == dag.distance + 1
        for u, v in zip(path, path[1:]):
            assert v in g.out_neighbors(u)


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


# Small enough to take every value of every draw. Sparse and layered graphs
# have long paths and wide levels, where a vertex has several parents on
# either side; hub graphs give meeting sets of several vertices whose two
# path counts differ.
LAW_GRAPHS = (
    [random_digraph(n, p, seed=seed) for seed in range(8) for n, p in [(10, 0.25), (14, 0.15)]]
    + [hub_digraph(n, 2, 2, seed=seed) for seed in range(8) for n in (10, 16)]
    + [layered_dag(layers, width, p, seed=seed) for seed in range(8)
       for layers, width, p in [(4, 3, 0.6), (5, 3, 0.8)]]
    # a direct edge: the forward side makes contact at the target itself
    + [DirectedGraph.from_edges([(0, 1)]),
       # s -> 1, s -> 2, 1 -> 3: the forward side expands first to two
       # vertices, then the smaller backward side makes contact at 1
       DirectedGraph.from_edges([(0, 1), (0, 2), (1, 3)])]
)


@pytest.mark.parametrize("g", LAW_GRAPHS)
def test_each_shortest_path_has_probability_one_over_path_count(g):
    # One scratch for every search, with distance-only searches between the
    # counting ones: a stale label, count or parent would move the law.
    space = _SearchSpace(g)
    n = g.vertex_count
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            if (s * n + t) % 3 == 0:
                shortest_path_length(g, t, s, space)
            paths = shortest_paths_by_enumeration(g, s, t)
            dag = build_shortest_path_dag(g, s, t, space)
            if not paths:
                assert dag is None
                continue
            assert (dag.distance, dag.path_count) == (len(paths[0]) - 1, len(paths))
            assert path_law(dag) == dict.fromkeys(paths, Fraction(1, len(paths)))


def test_sampling_after_the_next_search_raises(diamond):
    s, t = diamond.id_of("s"), diamond.id_of("t")
    rng = np.random.default_rng(5)
    space = _SearchSpace(diamond)
    dag = build_shortest_path_dag(diamond, s, t, space)
    sample_uniform_path(dag, rng)
    shortest_path_length(diamond, s, t, space)
    with pytest.raises(RuntimeError):
        sample_uniform_path(dag, rng)
    newer = build_shortest_path_dag(diamond, s, t, space)
    assert newer == dag
    with pytest.raises(RuntimeError):
        sample_uniform_path(dag, rng)
    assert sample_uniform_path(newer, rng).vertices in {
        tuple(diamond.id_of(x) for x in "sat"), tuple(diamond.id_of(x) for x in "sbt")}


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
        assert on_some_shortest_path(three_path, a, c, reach)

    def test_bypassed_vertex_is_off(self):
        g = loads_edge_list("s r\nr t\ns t")
        s, r, t = (g.id_of(x) for x in "srt")
        reach = compute_reachability(g, r)
        assert not on_some_shortest_path(g, s, t, reach)

    def test_both_diamond_middles_are_on(self, diamond):
        s, t = diamond.id_of("s"), diamond.id_of("t")
        for mid in ("a", "b"):
            v = diamond.id_of(mid)
            reach = compute_reachability(diamond, v)
            assert on_some_shortest_path(diamond, s, t, reach)

    def test_missing_leg_is_off(self):
        g = loads_edge_list("a b\nc d")
        b = g.id_of("b")
        reach = compute_reachability(g, b)
        assert not on_some_shortest_path(g, g.id_of("c"), g.id_of("d"), reach)

    @settings(max_examples=50, deadline=None)
    @given(edge_pairs, st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_matches_enumeration(self, pairs, s, t, r):
        if s == t or r in (s, t):
            return
        g = DirectedGraph.from_edges(pairs, vertex_count=9)
        reach = compute_reachability(g, r)
        expected = any(r in p for p in shortest_paths_by_enumeration(g, s, t))
        assert on_some_shortest_path(g, s, t, reach) == expected


def gate_by_search(g, s, t, reach):
    """The membership gate with no landmark table: legs, then one search."""
    to_root = reach.dist_to_root.get(s)
    from_root = reach.dist_from_root.get(t)
    if to_root is None or from_root is None:
        return False
    return shortest_path_length(g, s, t) == to_root + from_root


# 20-80 vertices: most vertices are not landmarks, so the table decides some
# failing pairs and the search the rest.
gate_graphs = st.one_of(
    st.builds(random_digraph, st.integers(20, 80), st.sampled_from([0.03, 0.06, 0.1]),
              seed=st.integers(0, 10**6)),
    st.builds(hub_digraph, st.integers(20, 80), st.integers(1, 2), st.integers(1, 2),
              seed=st.integers(0, 10**6)),
    st.builds(layered_dag, st.integers(4, 8), st.integers(5, 10),
              st.sampled_from([0.3, 0.6, 0.9]), seed=st.integers(0, 10**6)),
)


class TestLandmarkGate:
    @settings(max_examples=60, deadline=None)
    @given(gate_graphs, st.floats(0, 1, exclude_max=True), st.integers(0, 2**32 - 1))
    def test_equals_the_search(self, g, at, seed):
        n = g.vertex_count
        reach = compute_reachability(g, int(at * n))
        space = _SearchSpace(g)
        pick = np.random.default_rng(seed)
        # every upstream x downstream pair when there are few, else a draw
        pairs = [(s, t) for s in reach.upstream for t in reach.downstream if s != t]
        if len(pairs) > 400:
            pairs = [pairs[i] for i in pick.choice(len(pairs), 400, replace=False)]
        pairs += [tuple(map(int, pick.integers(n, size=2))) for _ in range(50)]
        for s, t in pairs:
            if s != t:
                assert on_some_shortest_path(g, s, t, reach, space) == gate_by_search(
                    g, s, t, reach)

    def test_a_shorter_detour_decides_without_a_search(self, monkeypatch):
        # s -> r -> x -> t (L = 3) against s -> h -> t; every vertex of a graph
        # this small is a landmark
        g = loads_edge_list("s r\nr x\nx t\ns h\nh t\n")
        s, r, t = (g.id_of(lab) for lab in "srt")
        reach = compute_reachability(g, r)

        def no_search(*args):
            raise AssertionError("the landmark table should decide this pair")

        monkeypatch.setattr("pathcentral.shortest_paths.shortest_path_length", no_search)
        assert not on_some_shortest_path(g, s, t, reach)

    def test_fewer_vertices_than_landmarks(self):
        g = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 0), (1, 4)])
        assert g._landmark_distances()[2] == 5
        for r in g.vertices():
            reach = compute_reachability(g, r)
            for s in g.vertices():
                for t in g.vertices():
                    if s != t:
                        assert on_some_shortest_path(g, s, t, reach) == gate_by_search(
                            g, s, t, reach)

    def test_saturated_distances_prove_nothing(self):
        # a 300-vertex directed path: its landmarks are vertices 1-16 (degree
        # 2, lowest ids), and a distance of 255 hops or more is stored as 255.
        # For (0, 299) through 150, L = 299 and d(0, h) + 255 < 299 for every
        # landmark h, so reading the table at L >= 255 would refuse the pair.
        g = DirectedGraph.from_edges([(v, v + 1) for v in range(299)])
        to_landmark, from_landmark, width = g._landmark_distances()
        assert width == 16
        assert from_landmark[299 * width:300 * width] == bytes([255] * 16)
        for s, r, t in [(0, 150, 299), (0, 254, 255), (20, 100, 200), (1, 2, 298)]:
            assert on_some_shortest_path(g, s, t, compute_reachability(g, r))


class TestBlockGate:
    @settings(max_examples=60, deadline=None)
    @given(gate_graphs, st.floats(0, 1, exclude_max=True), st.integers(0, 2**32 - 1))
    def test_equals_the_scalar_gate_lane_by_lane(self, g, at, seed):
        # same answers, and the same searches in the same order
        n = g.vertex_count
        reach = compute_reachability(g, int(at * n))
        pick = np.random.default_rng(seed)
        # mostly upstream x downstream pairs, and some pairs of any vertices
        ends = []
        for pool in (reach.source_array, reach.target_array):
            drawn = pick.choice(pool, 300) if len(pool) else pick.integers(n, size=300)
            ends.append(np.concatenate([drawn, pick.integers(n, size=60)]))
        sources, targets = ends
        searched = []

        def recording(g, s, t, space=None):
            searched.append((s, t))
            return shortest_path_length(g, s, t, space)

        space = _SearchSpace(g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("pathcentral.shortest_paths.shortest_path_length", recording)
            expected = [i for i, (s, t) in enumerate(zip(sources.tolist(), targets.tolist()))
                        if s != t and on_some_shortest_path(g, s, t, reach, space)]
            scalar_searches = list(searched)
            searched.clear()
            assert shortest_path_gate(g, sources, targets, reach, space) == expected
        assert searched == scalar_searches

    def test_decided_lanes_take_no_search(self, monkeypatch):
        # (s, s), a source that cannot reach the root and a landmark detour
        g = loads_edge_list("s r\nr x\nx t\ns h\nh t\nt s\nq t\n")
        s, r, t, q = (g.id_of(lab) for lab in "srtq")
        reach = compute_reachability(g, r)

        def no_search(*args):
            raise AssertionError("the block gate should decide every lane")

        monkeypatch.setattr("pathcentral.shortest_paths.shortest_path_length", no_search)
        lanes = shortest_path_gate(g, np.array([s, s, q]), np.array([s, t, t]), reach,
                                   _SearchSpace(g))
        assert lanes == []


@settings(max_examples=60, deadline=None)
@given(gate_graphs, st.floats(0, 1, exclude_max=True), st.integers(0, 2**32 - 1))
def test_a_known_length_gives_up_on_shorter_pairs_only(g, at, seed):
    # told a path length L >= d(s, t), the builder returns None when
    # d(s, t) < L and otherwise the structure and draws of a plain call
    n = g.vertex_count
    pick = np.random.default_rng(seed)
    space = _SearchSpace(g)
    for s, t in pick.integers(n, size=(60, 2)).tolist():
        d = shortest_path_length(g, s, t)
        if s == t or d is None:
            continue
        for length in (d, d + 1, d + 3):
            told = build_shortest_path_dag(g, s, t, space, length=length)
            if length > d:
                assert told is None
                continue
            drawn = sample_uniform_path(told, np.random.default_rng(seed)).vertices
            plain = build_shortest_path_dag(g, s, t)
            assert told == plain
            assert drawn == sample_uniform_path(plain, np.random.default_rng(seed)).vertices
