"""Properties every estimator run keeps, on random, hub and layered digraphs
and on arbitrary edge lists."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pathcentral.adaptive import EstimatorConfig
from pathcentral.betweenness import estimate_betweenness, estimate_coverage
from pathcentral.exact import brandes_betweenness_all, restricted_pair_betweenness
from pathcentral.generate import hub_digraph, layered_dag, random_digraph
from pathcentral.graph import DirectedGraph
from pathcentral.kpath import KPathConfig, estimate_kpath_centrality
from pathcentral.reachability import compute_reachability

from oracles import brandes_with_predecessor_lists


def edge_lists(max_vertices: int):
    """Graphs from arbitrary vertex pairs: isolated vertices and self-loops
    (which ``from_edges`` drops) come along."""
    return st.integers(2, max_vertices).flatmap(lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n,
    ).map(lambda edges: DirectedGraph.from_edges(edges, vertex_count=n)))


graphs = st.one_of(
    edge_lists(12),
    st.builds(random_digraph, st.integers(2, 14), st.floats(0.05, 0.5),
              seed=st.integers(0, 2**32 - 1)),
    st.builds(hub_digraph, st.integers(4, 16), st.integers(1, 3), st.integers(1, 3),
              seed=st.integers(0, 2**32 - 1)),
    st.builds(layered_dag, st.integers(2, 4), st.integers(1, 4), st.floats(0.2, 0.9),
              seed=st.integers(0, 2**32 - 1)),
)


@settings(max_examples=150, deadline=None)
@given(
    graphs,
    st.data(),
    st.sampled_from(["betweenness", "coverage", "kpath"]),
    st.one_of(st.none(), st.integers(1, 40)),
    st.floats(0.1, 0.3),
    st.integers(0, 2**32 - 1),
)
def test_estimates_keep_their_range_and_budget(g, data, measure, fixed, tolerance, seed):
    root = data.draw(st.integers(0, g.vertex_count - 1), label="root")
    if measure == "kpath":
        k = data.draw(st.integers(1, 4), label="k")
        est = estimate_kpath_centrality(g, root, KPathConfig(
            k=k, tolerance=tolerance, seed=seed,
            stopping="adaptive" if fixed is None else "fixed", fixed_samples=fixed))
        degenerate = g.in_degree(root) == 0
    else:
        cfg = EstimatorConfig(tolerance=tolerance, failure_prob=0.1, seed=seed,
                              fixed_samples=fixed)
        estimate = estimate_betweenness if measure == "betweenness" else estimate_coverage
        est = estimate(g, root, cfg)
        reach = compute_reachability(g, root)
        degenerate = (g.in_degree(root) == 0 or g.out_degree(root) == 0
                      or not reach.upstream or not reach.downstream)
    assert 0.0 <= est.value <= est.contribution_bound
    if est.lower_conf is not None and est.upper_conf is not None:
        assert est.lower_conf <= est.value <= est.upper_conf
    assert est.samples <= est.sample_budget
    assert (est.stop_reason == "degenerate-zero") == degenerate
    if not degenerate and fixed is not None:
        assert est.samples == fixed


@settings(max_examples=300, deadline=None)
@given(edge_lists(9))
def test_restricted_pairs_equal_brandes(g):
    scores = brandes_betweenness_all(g)
    for v in g.vertices():
        value = restricted_pair_betweenness(g, v)
        assert isinstance(value, Fraction)
        assert value == scores[v]


@settings(max_examples=200, deadline=None)
@given(edge_lists(12))
def test_integer_sweep_equals_the_predecessor_list_reference(g):
    assert brandes_betweenness_all(g) == brandes_with_predecessor_lists(g, exact=True)
