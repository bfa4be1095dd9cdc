import io
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcentral.errors import GraphParseError
from pathcentral.generate import hub_digraph
from pathcentral.graph import (
    DirectedGraph,
    bfs_distances,
    dump_edge_list,
    load_edge_list,
    loads_edge_list,
)
from pathcentral.reachability import compute_reachability
from pathcentral.shortest_paths import on_some_shortest_path

from oracles import bfs_distances_by_queue

edge_pairs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
)

# Every label dump_edge_list accepts: one whitespace-free token, no leading "#".
writable_labels = st.text(min_size=1, max_size=5).filter(
    lambda lab: lab.split() == [lab] and not lab.startswith("#"))


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
        assert dump_edge_list(loads_edge_list("a b\r\nb c\r\n")) == dump_edge_list(g)

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
        g = loads_edge_list("\r\na b\r\n\r\n   \r\nb c\r\n")
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
        g = loads_edge_list("é ü\nü 北京")
        assert g.labels == ("é", "ü", "北京")
        assert g.out_neighbors(g.id_of("ü")) == (g.id_of("北京"),)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        g = loads_edge_list("\ufeffa b\nb a\n")
        assert g.labels == ("a", "b")
        assert g.edge_count == 2
        assert loads_edge_list("\ufeff# saved with a mark\na b\n").labels == ("a", "b")
        # the mark is dropped once, and only at the start of the input
        assert loads_edge_list("\ufeff\ufeffa b").labels == ("\ufeffa", "b")
        assert loads_edge_list("a b\n\ufeffb c").labels == ("a", "b", "\ufeffb", "c")
        # the CLI and the benchmark open files as text, and see the mark as
        # the first character of the first line
        path = tmp_path / "marked.txt"
        path.write_bytes("a b\r\nb a\r\n".encode("utf-8-sig"))
        with open(path, encoding="utf-8") as fh:
            assert load_edge_list(fh).labels == ("a", "b")

    def test_unknown_label_raises(self):
        g = loads_edge_list("a b")
        with pytest.raises(KeyError):
            g.id_of("q")

    def test_stream_and_string_loaders_agree(self):
        text = "a b\nb c\nc a\n"
        assert dump_edge_list(load_edge_list(io.StringIO(text))) == dump_edge_list(
            loads_edge_list(text)
        )


# One line of an edge list: an edge, a blank line, a comment, or a line
# with the wrong number of labels. Labels are letters and digits of any
# script, so no label holds whitespace or starts with "#".
parse_labels = st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=4)
parse_lines = st.one_of(
    st.tuples(st.just("edge"), parse_labels, parse_labels),
    st.tuples(st.just("blank"), st.sampled_from(["", " ", "\t", "  \t "])),
    st.tuples(st.just("comment"), st.sampled_from(["#", "# note", "  #x y z", "#\tä ö"])),
    st.tuples(st.just("bad"), st.lists(parse_labels, min_size=0, max_size=4).filter(
        lambda labs: len(labs) != 2 and labs)),
)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(parse_lines, max_size=12),
        endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=12, max_size=12),
        last_ending=st.booleans(),
        mark=st.booleans(),
    )
    def test_parses_or_names_the_line(self, lines, endings, last_ending, mark):
        texts = []
        for kind, *rest in lines:
            if kind == "edge":
                texts.append(f"{rest[0]} {rest[1]}")
            elif kind == "bad":
                texts.append(" ".join(rest[0]))
            else:
                texts.append(rest[0])
        body = "".join(t + e for t, e in zip(texts, endings))
        if texts and not last_ending:
            body = body[:-len(endings[len(texts) - 1])]
        text = ("\ufeff" if mark else "") + body

        bad = [i for i, (kind, *_) in enumerate(lines, start=1) if kind == "bad"]
        edges = [tuple(rest) for kind, *rest in lines if kind == "edge"]
        if bad:
            with pytest.raises(GraphParseError) as err:
                loads_edge_list(text)
            assert err.value.line_number == bad[0]
            return
        if not edges:
            with pytest.raises(GraphParseError) as err:
                loads_edge_list(text)
            assert err.value.line_number is None
            return
        g = loads_edge_list(text)
        assert g.labels == tuple(dict.fromkeys(lab for e in edges for lab in e))
        assert {(g.labels[u], g.labels[v]) for u, v in g.edges()} == {
            (a, b) for a, b in edges if a != b}
        assert g.self_loops_dropped == sum(a == b for a, b in edges)


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

    @settings(max_examples=60, deadline=None)
    @given(edge_pairs)
    def test_list_pairs_build_the_same_graph_as_tuples(self, pairs):
        # a tuple pair is its own dedupe key; a list pair gets one made
        want = DirectedGraph.from_edges(pairs, vertex_count=8)
        got = DirectedGraph.from_edges([list(e) for e in pairs], vertex_count=8)
        assert list(got.edges()) == list(want.edges())
        assert (got.duplicates_dropped, got.self_loops_dropped) == (
            want.duplicates_dropped, want.self_loops_dropped
        )

    def test_from_edges_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges([(0, 1)], labels=("only-one",))

    def test_from_edges_rejects_duplicate_labels(self):
        # two vertices under one label would leave id_of free to answer for either
        with pytest.raises(ValueError, match="'a'"):
            DirectedGraph.from_edges([(0, 1), (1, 2)], labels=("a", "a", "b"))

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
        assert m.dtype == "int8"
        assert {(u, v) for u, v in zip(*m.nonzero())} == set(diamond.edges())
        # each call is a fresh matrix: writing to one changes neither the
        # next call nor the graph's searches
        s = by_label(diamond, "s")
        before = bfs_distances(diamond, s)
        m.data[:] = 0
        assert diamond.to_csr().data.tolist() == [1] * diamond.edge_count
        assert bfs_distances(diamond, s) == before


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

    @settings(max_examples=80, deadline=None)
    @given(edge_pairs)
    def test_same_dict_in_the_same_order_as_a_queue_search(self, pairs):
        # vertices 8 and 9 are isolated, and the lists leave sinks and sources
        g = DirectedGraph.from_edges(pairs, vertex_count=10)
        for direction in ("forward", "reverse"):
            for v in g.vertices():
                expected = bfs_distances_by_queue(g, v, direction)
                assert list(bfs_distances(g, v, direction).items()) == list(expected.items())

    def test_pickles_before_and_after_the_first_search(self, shortcut):
        # bench pool workers receive their graphs pickled
        expected = {d: [bfs_distances_by_queue(shortcut, v, d) for v in shortcut.vertices()]
                    for d in ("forward", "reverse")}
        for _ in range(2):
            copy = pickle.loads(pickle.dumps(shortcut))
            assert copy.labels == shortcut.labels
            for d, dists in expected.items():
                assert [list(bfs_distances(copy, v, d).items()) for v in copy.vertices()] == [
                    list(dist.items()) for dist in dists]
                assert [bfs_distances(shortcut, v, d) for v in shortcut.vertices()] == dists

    def test_landmark_table_is_built_by_the_first_gate_and_pickled(self):
        # parsing builds neither search structure: setup time stays parsing
        g = loads_edge_list(dump_edge_list(hub_digraph(40, seed=4)))
        assert g._search_csr is None and g._landmark_table is None
        fresh = pickle.loads(pickle.dumps(g))
        triples = [(s, t, r) for r in g.vertices()[::3] for s in g.vertices()
                   for t in g.vertices() if s != t]
        reaches = {r: compute_reachability(g, r) for r in g.vertices()[::3]}
        answers = [on_some_shortest_path(g, s, t, reaches[r]) for s, t, r in triples]
        assert g._landmark_table is not None
        # a pool worker receives the graph pickled with its table
        copy = pickle.loads(pickle.dumps(g))
        assert copy._landmark_table == g._landmark_table
        for h in (copy, fresh):
            assert [on_some_shortest_path(h, s, t, reaches[r]) for s, t, r in triples] == answers
        assert fresh._landmark_table == g._landmark_table

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
        once = dump_edge_list(loads_edge_list("é ü\r\nü 北京\r\n"))
        assert once == "é ü\nü 北京\n"
        assert dump_edge_list(loads_edge_list(once)) == once

    @pytest.mark.parametrize("labels, bad", [
        (("x y", "#c", "d"), "x y"),
        (("x", "#c", "d"), "#c"),
        (("x", "", "d"), ""),
        (("x", "c\t", "d"), "c\t"),
    ])
    def test_unwritable_labels_are_refused(self, labels, bad):
        # such a label writes a line that fails to parse or reads as a comment
        g = DirectedGraph.from_edges([(0, 1), (1, 2)], labels=labels)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            dump_edge_list(g)

    @settings(max_examples=60, deadline=None)
    @given(edge_pairs, st.lists(writable_labels, min_size=8, max_size=8, unique=True))
    def test_round_trip_arbitrary_graphs(self, pairs, labels):
        g = DirectedGraph.from_edges(pairs, vertex_count=8, labels=tuple(labels))
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
        assert set(again.labels) == {lab for e in original for lab in e}
        assert again.edge_count == g.edge_count
