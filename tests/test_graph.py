import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcentral.errors import GraphParseError
from pathcentral.graph import (
    DirectedGraph,
    bfs_distances,
    dump_edge_list,
    load_edge_list,
    loads_edge_list,
)

edge_pairs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
)


def by_label(g: DirectedGraph, *labels: str):
    ids = tuple(g.id_of(x) for x in labels)
    return ids[0] if len(ids) == 1 else ids


class TestParsing:
    def test_two_line_list(self):
        g = loads_edge_list("a b\nb c")
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.labels == ("a", "b", "c")
        a, b, c = by_label(g, "a", "b", "c")
        assert g.out_neighbors(a) == (b,)
        assert g.out_neighbors(b) == (c,)
        assert g.in_neighbors(c) == (b,)

    def test_duplicates_and_self_loops_dropped_with_counts(self):
        g = loads_edge_list("a b\na b\nb b")
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.duplicates_dropped == 1
        assert g.self_loops_dropped == 1

    def test_comments_ignored(self):
        g = loads_edge_list("# c\n1 2\n2 3\n3 1")
        assert g.vertex_count == 3
        for v in g.vertices():
            assert g.out_degree(v) == 1
            assert g.in_degree(v) == 1

    def test_blank_lines_ignored(self):
        g = loads_edge_list("\na b\n\n   \nb c\n")
        assert g.edge_count == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            loads_edge_list("a b\nzzz\nb c")
        with pytest.raises(GraphParseError, match="line 1"):
            loads_edge_list("a b c")

    def test_empty_input_rejected(self):
        with pytest.raises(GraphParseError):
            loads_edge_list("")
        with pytest.raises(GraphParseError):
            loads_edge_list("# only comments\n")

    def test_labels_keep_first_appearance_order(self):
        g = loads_edge_list("x y\na x")
        assert g.labels == ("x", "y", "a")
        assert g.id_of("x") == 0

    def test_unknown_label_raises(self):
        g = loads_edge_list("a b")
        with pytest.raises(KeyError):
            g.id_of("q")

    def test_stream_and_string_loaders_agree(self):
        text = "a b\nb c\nc a\n"
        assert dump_edge_list(load_edge_list(io.StringIO(text))) == dump_edge_list(
            loads_edge_list(text)
        )


class TestConstruction:
    def test_from_edges_defaults_vertex_count(self):
        g = DirectedGraph.from_edges([(0, 2), (2, 1)])
        assert g.vertex_count == 3
        assert g.out_neighbors(0) == (2,)

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges([(0, 5)], vertex_count=3)

    @pytest.mark.parametrize("pairs", [[(-1, 0), (0, 1)], [(0, 1), (1, -2)]])
    def test_from_edges_rejects_negative_ids(self, pairs):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph.from_edges(pairs)
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph.from_edges(pairs, vertex_count=3)

    def test_from_edges_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges([(0, 1)], labels=("only-one",))

    def test_isolated_vertices_allowed(self):
        g = DirectedGraph.from_edges([], vertex_count=4)
        assert g.vertex_count == 4
        assert g.edge_count == 0

    def test_vertex_id_range_checked(self):
        g = loads_edge_list("a b")
        with pytest.raises(ValueError):
            g.out_neighbors(2)
        with pytest.raises(ValueError):
            g.in_degree(-1)


class TestDegreesAndEdges:
    def test_degree_examples(self, three_path, diamond, three_cycle):
        assert three_path.out_degree(by_label(three_path, "c")) == 0
        assert diamond.out_degree(by_label(diamond, "s")) == 2
        for v in three_cycle.vertices():
            assert three_cycle.out_degree(v) == 1

    def test_edges_sorted_by_id_pair(self):
        g = loads_edge_list("b a\nb c\na c\na b")
        assert list(g.edges()) == sorted(g.edges())

    def test_forward_reverse_symmetry(self):
        g = loads_edge_list("a b\nb c\nc a\na c")
        fwd = {(u, v) for u in g.vertices() for v in g.out_neighbors(u)}
        rev = {(u, v) for v in g.vertices() for u in g.in_neighbors(v)}
        assert fwd == rev

    def test_csr_adapter(self, diamond):
        m = diamond.to_csr()
        assert m.shape == (4, 4)
        assert m.nnz == diamond.edge_count


class TestBfs:
    def test_forward_on_path(self, three_path):
        a, b, c = by_label(three_path, "a", "b", "c")
        assert bfs_distances(three_path, a) == {a: 0, b: 1, c: 2}

    def test_reverse_on_path(self, three_path):
        a = by_label(three_path, "a")
        assert bfs_distances(three_path, a, direction="reverse") == {a: 0}

    def test_forward_on_diamond(self, diamond):
        s, a, b, t = by_label(diamond, "s", "a", "b", "t")
        assert bfs_distances(diamond, s) == {s: 0, a: 1, b: 1, t: 2}

    def test_direction_validated(self, three_path):
        with pytest.raises(ValueError):
            bfs_distances(three_path, 0, direction="sideways")

    @settings(max_examples=60, deadline=None)
    @given(edge_pairs, st.integers(0, 7))
    def test_reverse_bfs_equals_bfs_on_reversed_graph(self, pairs, source):
        g = DirectedGraph.from_edges(pairs, vertex_count=8)
        flipped = DirectedGraph.from_edges([(v, u) for u, v in pairs], vertex_count=8)
        assert bfs_distances(g, source, direction="reverse") == bfs_distances(
            flipped, source, direction="forward"
        )

    @settings(max_examples=40, deadline=None)
    @given(edge_pairs, st.integers(0, 7))
    def test_distances_match_scipy(self, pairs, source):
        import numpy as np

        from oracles import scipy_distance_matrix

        g = DirectedGraph.from_edges(pairs, vertex_count=8)
        dist = bfs_distances(g, source)
        matrix = scipy_distance_matrix(g)[source]
        for v in g.vertices():
            if np.isfinite(matrix[v]):
                assert dist[v] == int(matrix[v])
            else:
                assert v not in dist


class TestRoundTrip:
    def test_dump_then_load_preserves_structure(self, shortcut):
        again = loads_edge_list(dump_edge_list(shortcut))
        original = {(shortcut.label_of(u), shortcut.label_of(v)) for u, v in shortcut.edges()}
        rebuilt = {(again.label_of(u), again.label_of(v)) for u, v in again.edges()}
        assert original == rebuilt

    def test_serialization_is_idempotent(self, shortcut):
        once = dump_edge_list(shortcut)
        assert dump_edge_list(loads_edge_list(once)) == once

    @settings(max_examples=60, deadline=None)
    @given(edge_pairs)
    def test_round_trip_arbitrary_graphs(self, pairs):
        labels = tuple(f"v{i}" for i in range(8))
        g = DirectedGraph.from_edges(pairs, vertex_count=8, labels=labels)
        text = dump_edge_list(g)
        if not text:
            return
        again = loads_edge_list(text)
        original = {(g.label_of(u), g.label_of(v)) for u, v in g.edges()}
        rebuilt = {(again.label_of(u), again.label_of(v)) for u, v in again.edges()}
        assert original == rebuilt
        # reloading may renumber vertices (labels are interned in appearance
        # order), so only the labeled structure is preserved, and exactly
        # the vertices that touch an edge survive the text form
        assert again.vertex_count == len({lab for e in original for lab in e})
        assert again.edge_count == g.edge_count
