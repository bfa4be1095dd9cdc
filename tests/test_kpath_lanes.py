"""The k-path lane kernel against the scalar draw, lane by lane and call by call.

Most k-path runs in the other tests are shorter than one lane window and so
draw sample by sample; these tests drive ``_LaneDraws`` directly. The
half-words are crafted: a zero half-word makes Lemire's step reject any
bound that is not a power of two, and a short array leaves the last walks
without the half-words they need.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcentral.adaptive import CompensatedSum, RawDraws
from pathcentral.graph import DirectedGraph, loads_edge_list
from pathcentral.kpath import (
    _HIT,
    _LANES,
    _MISS,
    _SCALAR,
    KPathConfig,
    _LaneDraws,
    _WalkSpace,
    estimate_kpath_centrality,
    sample_walk,
)
from pathcentral.reachability import compute_reachability

from test_kpath import hub_walk_graph


class HalfStream:
    """Bounded draws, ``peek`` and ``skip`` over a fixed list of half-words,
    as ``RawDraws`` gives them over its generator's stream.

    ``rejected`` counts the draws that Lemire's step rejected. Reading past
    the end raises ``IndexError``.
    """

    def __init__(self, halves):
        self.halves = [int(h) for h in halves]
        self.at = 0
        self.rejected = 0

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        m = high - low
        if m == 1:
            return low
        while True:
            x = self.halves[self.at] * m
            self.at += 1
            if x & 0xFFFFFFFF >= (2**32 - m) % m:
                return low + (x >> 32)
            self.rejected += 1

    def peek(self, count):
        return np.array(self.halves[self.at:self.at + count], dtype=np.uint64)

    def skip(self, count):
        self.at += count


def scalar_draw(g, reach, space, k, weight):
    """The estimator's sample, drawn from ``stream``: source, length, walk."""
    sources = reach.sources
    n_src = len(sources)

    def draw(stream):
        s = sources[stream.integers(n_src)]
        length = stream.integers(1, k + 1)
        if reach.to_root[s] > length:
            return 0.0
        walk = sample_walk(g, reach, s, length, stream, weight, space)
        if walk.completed and walk.contains_mark:
            return n_src * walk.probability_denominator / (
                g.vertex_count * walk.weight_denominator)
        return 0.0

    return draw


def crafted_halves(rng, count, zero_share):
    """Random half-words with about ``zero_share`` of them zero."""
    halves = rng.integers(0, 2**32, size=count, dtype=np.uint64)
    halves[rng.random(count) < zero_share] = 0
    return halves


def restricted_rows(g, reach) -> int:
    """Out-edges from upstream vertices that leave the root's domain."""
    return sum(1 for u in reach.sources for v in g.out_neighbors(u) if v not in reach.domain)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    st.integers(0, 9),
    st.integers(1, 4),
    st.sampled_from(["original", "restricted"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.05, 0.3]),
    st.integers(0, 6),
)
@example(pairs=[(0, 1), (1, 2)], root=1, k=1, weight="original", seed=0, zero_share=0.0,
         spare=0)
@example(pairs=[(0, 1), (1, 2), (1, 3), (3, 1)], root=1, k=3, weight="original", seed=1,
         zero_share=0.3, spare=2)
# every step of every walk draws, so the last lanes run past the array
@example(pairs=[(u, v) for u in range(5) for v in range(5)], root=0, k=4, weight="original",
         seed=2, zero_share=0.0, spare=0)
def test_each_lane_is_the_scalar_sample_at_its_offset(pairs, root, k, weight, seed,
                                                        zero_share, spare):
    g = DirectedGraph.from_edges(pairs, vertex_count=10)
    roots = [v for v in g.vertices() if g.in_degree(v)]
    if not roots:
        return
    root = roots[root % len(roots)]
    reach = compute_reachability(g, root)
    space = _WalkSpace(g, reach)
    draw = scalar_draw(g, reach, space, k, weight)
    lanes = _LaneDraws(space, reach, k, None, draw)
    # the prefix takes one half-word for the source and one for the length,
    # each only when its bound is above 1
    width = (len(reach.sources) > 1) + (k > 1)
    count = 64
    halves = crafted_halves(np.random.default_rng(seed), count + width + spare, zero_share)
    nxt, kind = lanes.outcomes(halves, count)
    for p in range(count):
        stream = HalfStream(halves)
        stream.at = p
        try:
            value = draw(stream)
        except IndexError:
            # the sample needs half-words beyond the array
            assert kind[p] == _SCALAR
            continue
        if stream.rejected:
            assert kind[p] == _SCALAR
            continue
        assert nxt[p] == stream.at
        assert kind[p] == (_HIT if value > 0.0 else _MISS)


def test_restricted_rows_are_filtered():
    # a reaches the root b and also x, which is outside b's domain: the lane
    # kernel must not count x as a candidate of a
    g = loads_edge_list("a b\nb c\na x\n")
    reach = compute_reachability(g, g.id_of("b"))
    assert restricted_rows(g, reach) == 1
    space = _WalkSpace(g, reach)
    indptr, indices = space.lane_csr()
    assert len(space.adj[g.id_of("a")]) < g.out_degree(g.id_of("a"))
    for u in g.vertices():
        assert indices[indptr[u]:indptr[u + 1]].tolist() == list(space.adj[u])


def lane_graph(seed):
    """A strongly connected hub graph on n vertices plus five sources
    n .. n + 4, each with edges into it and to its own sink n + 5 + i. A
    sink lies outside the domain of every vertex of the hub graph, so a
    walk from a source has a candidate that the domain filters out."""
    g = hub_walk_graph(90, 0.03, 2, True, seed)
    n = g.vertex_count
    extra = [(n + i, v) for i in range(5) for v in (3 * i, 3 * i + 1, n + 5 + i)]
    return DirectedGraph.from_edges(list(g.edges()) + extra, vertex_count=n + 10)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from(["original", "restricted"]),
    st.sampled_from([0.0, 0.002, 0.02]),
    st.lists(st.integers(1, 3 * _LANES), min_size=1, max_size=5),
)
def test_calls_follow_the_scalar_stream(seed, k, weight, zero_share, calls):
    g = lane_graph(seed)
    busiest = max(g.vertices(), key=lambda v: (g.in_degree(v) + g.out_degree(v), -v))
    reach = compute_reachability(g, busiest)
    assert restricted_rows(g, reach) == 5
    space = _WalkSpace(g, reach)
    draw = scalar_draw(g, reach, space, k, weight)
    halves = crafted_halves(np.random.default_rng(seed), 12 * _LANES * (k + 2), zero_share)
    scalar, lane_stream = HalfStream(halves), HalfStream(halves)
    lanes = _LaneDraws(space, reach, k, lane_stream, draw)
    for count in calls:
        # calls end mid-window and the next one resumes there
        assert lanes(count) == [draw(scalar) for _ in range(count)]
        assert lane_stream.at == scalar.at


@pytest.mark.parametrize("k, weight", [(5, "original"), (1, "restricted"), (3, "original")])
def test_calls_leave_the_generator_where_scalar_draws_do(k, weight):
    g = lane_graph(7)
    root = max(g.vertices(), key=lambda v: (g.in_degree(v) + g.out_degree(v), -v))
    reach = compute_reachability(g, root)
    space = _WalkSpace(g, reach)
    draw = scalar_draw(g, reach, space, k, weight)
    scalar = RawDraws(np.random.default_rng(11))
    lane_stream = RawDraws(np.random.default_rng(11))
    lanes = _LaneDraws(space, reach, k, lane_stream, draw)
    hits = 0
    for count in (1, 4095, 2, 5000, 37, 9000):
        out = lanes(count)
        assert out == [draw(scalar) for _ in range(count)]
        assert lane_stream.peek(9).tolist() == scalar.peek(9).tolist()
        hits += sum(c > 0.0 for c in out)
    assert hits > 0
    assert lane_stream.integers(2**40) == scalar.integers(2**40)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
    st.integers(0, 7),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_a_long_estimate_matches_a_replay_through_sample_walk(pairs, root, k, seed):
    # long enough that the estimator draws through the lane kernel
    g = DirectedGraph.from_edges(pairs, vertex_count=8)
    roots = [v for v in g.vertices() if g.in_degree(v) and g.out_degree(v)]
    if not roots:
        return
    root = roots[root % len(roots)]
    tau = _LANES + 900
    est = estimate_kpath_centrality(g, root, KPathConfig(k=k, seed=seed, fixed_samples=tau))
    reach = compute_reachability(g, root)
    draw = scalar_draw(g, reach, _WalkSpace(g, reach), k, "original")
    rng = np.random.default_rng(seed)
    acc = CompensatedSum()
    hits = 0
    for _ in range(tau):
        c = draw(rng)
        if c:
            acc.add(c)
            hits += 1
    assert est.hits == hits
    assert est.value == min(acc.value / tau, est.contribution_bound)
