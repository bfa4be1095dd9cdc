"""Immutable directed graphs with dense integer vertex ids.

The input format is a plain whitespace edge list: one ``u v`` pair per line,
lines starting with ``#`` ignored. Labels may be arbitrary strings and are
re-indexed to dense integers in order of first appearance; the original
labels are retained so output can be expressed in the caller's terms.

Graphs are unweighted, loop-free and duplicate-free by construction, and
never mutated after construction, so a single instance can be shared freely
across concurrent estimator runs.

Breadth-first searches run in scipy's C traversal over a CSR form of the
adjacency. A graph builds that form, forward and reverse, on its first
search and keeps it, so parsing never pays for it; ``bfs_distances``
returns a read-only map with the same items, in the same order, as the
dict a queue-driven search over the sorted adjacency tuples would fill,
kept as the traversal's two arrays. The same traversal fills a second lazily
built structure, the hop distances to and from the graph's ``LANDMARKS``
highest-degree vertices, which the shortest-path gate reads to rule out
pairs without a search.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate, chain
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import GraphParseError

__all__ = [
    "DirectedGraph",
    "load_edge_list",
    "loads_edge_list",
    "dump_edge_list",
    "bfs_distances",
    "LevelMap",
]

# Vertices of highest in + out degree whose hop distances a graph keeps.
LANDMARKS = 16
# A stored landmark distance saturates here: 255 means 255 or more hops, or
# no path at all.
FAR = 255


class DirectedGraph:
    """Directed graph stored as sorted forward and reverse adjacency tuples.

    Two search structures are built on first use and kept, never while
    parsing: the forward and reverse CSR adjacency that the BFS runs on
    (``_search_matrices``), and the landmark distance table that the
    shortest-path gate reads (``_landmark_distances``). Both pickle with
    the graph, so a pool worker that receives a graph after its first
    search or gate gets them as they are.
    """

    __slots__ = (
        "vertex_count",
        "edge_count",
        "labels",
        "self_loops_dropped",
        "duplicates_dropped",
        "_fwd",
        "_rev",
        "_label_to_id",
        "_search_csr",
        "_landmark_table",
    )

    def __init__(
        self,
        forward: tuple[tuple[int, ...], ...],
        reverse: tuple[tuple[int, ...], ...],
        labels: tuple[str, ...],
        self_loops_dropped: int = 0,
        duplicates_dropped: int = 0,
    ):
        self.vertex_count = len(forward)
        self.edge_count = sum(len(nbrs) for nbrs in forward)
        self.labels = labels
        self.self_loops_dropped = self_loops_dropped
        self.duplicates_dropped = duplicates_dropped
        self._fwd = forward
        self._rev = reverse
        self._search_csr = None
        self._landmark_table = None
        self._label_to_id = {lab: v for v, lab in enumerate(labels)}
        if len(self._label_to_id) != len(labels):
            dup = next(lab for v, lab in enumerate(labels) if self._label_to_id[lab] != v)
            raise ValueError(f"vertex label {dup!r} is given to more than one vertex")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        vertex_count: int | None = None,
        labels: tuple[str, ...] | None = None,
    ) -> "DirectedGraph":
        """Build a graph from integer edge pairs.

        Self-loops and duplicate edges are dropped (counted, not rejected).
        ``vertex_count`` defaults to one past the largest id seen. Any id
        outside ``[0, vertex_count)`` raises ``ValueError``; a negative id
        would otherwise wrap around through Python indexing.
        """
        edge_set: set[tuple[int, int]] = set()
        loops = 0
        dupes = 0
        min_id = 0
        max_id = -1
        for e in edges:
            u, v = e
            if u > max_id:
                max_id = u
            if v > max_id:
                max_id = v
            if u < min_id:
                min_id = u
            if v < min_id:
                min_id = v
            if u == v:
                loops += 1
                continue
            # reuse the caller's pair as the set key; other sequences
            # (lists, numpy rows) get a fresh tuple
            key = e if type(e) is tuple else (u, v)
            if key in edge_set:
                dupes += 1
                continue
            edge_set.add(key)
        n = (max_id + 1) if vertex_count is None else vertex_count
        if min_id < 0 or max_id >= n:
            bad = min_id if min_id < 0 else max_id
            raise ValueError(f"edge endpoint {bad} out of range for {n} vertices")
        fwd: list[list[int]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            fwd[u].append(v)
            rev[v].append(u)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        elif len(labels) != n:
            raise ValueError("labels length does not match vertex count")
        return cls(
            tuple(tuple(sorted(a)) for a in fwd),
            tuple(tuple(sorted(a)) for a in rev),
            labels,
            self_loops_dropped=loops,
            duplicates_dropped=dupes,
        )

    def _check(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex id {v} out of range [0, {self.vertex_count})")

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._fwd[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._rev[v]

    def out_degree(self, v: int) -> int:
        self._check(v)
        return len(self._fwd[v])

    def in_degree(self, v: int) -> int:
        self._check(v)
        return len(self._rev[v])

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges sorted by (source id, target id)."""
        for u, nbrs in enumerate(self._fwd):
            for v in nbrs:
                yield (u, v)

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def label_of(self, v: int) -> str:
        self._check(v)
        return self.labels[v]

    def to_csr(self):
        """Adjacency as a fresh scipy CSR matrix of ``int8`` ones."""
        return _csr_of(self._fwd, np.ones(self.edge_count, dtype=np.int8))

    def _search_matrices(self):
        """Forward and reverse CSR adjacency for the BFS, built on first use.

        The traversal reads only the structure, so the data are a single
        float64 one broadcast over the edges: float64 is the dtype scipy's
        traversal converts to, so a search copies nothing, and the data
        take no memory per edge.
        """
        if self._search_csr is None:
            ones = np.broadcast_to(1.0, self.edge_count)
            self._search_csr = (_csr_of(self._fwd, ones), _csr_of(self._rev, ones))
        return self._search_csr

    def _landmark_distances(self) -> tuple[bytes, bytes, int]:
        """Hop distances to and from the landmarks, built on first use.

        The landmarks are the ``LANDMARKS`` vertices of highest in + out
        degree, ties broken by the lower id (all vertices on a smaller
        graph). Returns ``(to_landmark, from_landmark, width)`` with
        ``width`` the landmark count: bytes ``v * width`` to
        ``(v + 1) * width`` of ``to_landmark`` hold d(v, h) for each
        landmark h, and the same bytes of ``from_landmark`` hold d(h, v).
        Distances saturate at ``FAR``.
        """
        if self._landmark_table is None:
            n = self.vertex_count
            forward, reverse = self._search_matrices()
            degree = np.diff(forward.indptr) + np.diff(reverse.indptr)
            # a stable sort keeps equal degrees in id order
            landmarks = np.argsort(-degree, kind="stable")[:LANDMARKS]
            tables = []
            # a reverse search from h gives d(v, h), a forward one d(h, v)
            for csr in (reverse, forward):
                table = np.full((n, len(landmarks)), FAR, dtype=np.uint8)
                for i, h in enumerate(landmarks):
                    order, depth = _bfs_levels(csr, h)
                    table[order, i] = np.minimum(depth, FAR)
                tables.append(table.tobytes())
            self._landmark_table = (*tables, len(landmarks))
        return self._landmark_table

    def __repr__(self) -> str:
        return (
            f"DirectedGraph(vertices={self.vertex_count}, edges={self.edge_count})"
        )


def _csr_of(adj: tuple[tuple[int, ...], ...], data: np.ndarray):
    """CSR matrix with one row per adjacency tuple, its columns in order.

    ``data`` holds one entry per edge, in the same order.
    """
    from scipy import sparse

    n = len(adj)
    indptr = np.fromiter(accumulate(map(len, adj), initial=0), dtype=np.int32, count=n + 1)
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.int32, count=len(data))
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def load_edge_list(stream: IO[str]) -> DirectedGraph:
    """Parse a whitespace edge list from a text stream.

    Each non-comment line must hold exactly two whitespace-separated labels.
    One byte-order mark (U+FEFF) at the very start is dropped, so a file
    saved with one does not gain a phantom first label. Raises
    :class:`GraphParseError` (with line number) on malformed lines and on
    input that yields no vertices at all.
    """
    label_ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def intern(lab: str) -> int:
        vid = label_ids.get(lab)
        if vid is None:
            vid = len(label_ids)
            label_ids[lab] = vid
        return vid

    for lineno, raw in enumerate(stream, start=1):
        if lineno == 1 and raw.startswith("\ufeff"):
            raw = raw[1:]
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"expected two labels, got {len(parts)}: {line!r}", lineno
            )
        edges.append((intern(parts[0]), intern(parts[1])))

    if not label_ids:
        raise GraphParseError("input contains no edges")
    return DirectedGraph.from_edges(
        edges, vertex_count=len(label_ids), labels=tuple(label_ids)
    )


def loads_edge_list(text: str) -> DirectedGraph:
    """Like :func:`load_edge_list` but from a string."""
    import io

    return load_edge_list(io.StringIO(text))


def dump_edge_list(g: DirectedGraph) -> str:
    """Serialize to the input format, edges sorted by internal id pair.

    Round-trips: loading the output reproduces an isomorphic graph, with
    the same labels mapped to the same neighbors. A label that the format
    cannot hold (empty, holding whitespace, or starting with ``#``) raises
    ``ValueError`` instead of writing a line that would not load back.
    """
    for lab in g.labels:
        if lab.split() != [lab] or lab.startswith("#"):
            raise ValueError(f"vertex label {lab!r} cannot be written to an edge list")
    lines = [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


class LevelMap(Mapping):
    """Read-only map from each vertex a BFS reached to its hop count.

    Holds the traversal's visit ``order`` and the matching ``depth`` of
    each visited vertex as two arrays, and iterates in visit order, so it
    lists the same items in the same order as the dict a FIFO search would
    fill. Reading the arrays builds nothing; the first lookup builds that
    dict and keeps it. Equal to any mapping with the same items.
    """

    __slots__ = ("order", "depth", "_dict")

    def __init__(self, order: np.ndarray, depth: np.ndarray):
        self.order = order
        self.depth = depth
        self._dict = None

    def _lookup(self) -> dict[int, int]:
        if self._dict is None:
            self._dict = dict(zip(self.order.tolist(), self.depth.tolist()))
        return self._dict

    def __getitem__(self, v: int) -> int:
        return self._lookup()[v]

    def __iter__(self) -> Iterator[int]:
        return iter(self.order.tolist())

    def __len__(self) -> int:
        return len(self.order)

    def __repr__(self) -> str:
        return f"LevelMap({self._lookup()!r})"


def bfs_distances(g: DirectedGraph, source: int, direction: str = "forward") -> LevelMap:
    """Hop distances from ``source``; unreachable vertices are absent.

    ``direction="reverse"`` walks edges backwards, i.e. computes distances
    *to* ``source`` in the original orientation. The map lists vertices
    in the order a FIFO search over the sorted adjacency visits them, so
    the deepest comes last.

    scipy's ``breadth_first_order`` visits in exactly that queue order, so
    its order is level order and the positions of the parents along it
    never decrease. Level L + 1 is then the run of vertices after level L
    whose parents lie in level L, and one ``searchsorted`` per level finds
    where it ends.
    """
    g._check(source)
    if direction == "forward":
        csr = g._search_matrices()[0]
    elif direction == "reverse":
        csr = g._search_matrices()[1]
    else:
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    return LevelMap(*_bfs_levels(csr, source))


def _bfs_levels(csr, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Visit order of a BFS over ``csr`` from ``source``, and each visited
    vertex's depth, as two arrays; see :func:`bfs_distances`."""
    from scipy.sparse.csgraph import breadth_first_order

    order, parent = breadth_first_order(csr, source, directed=True, return_predecessors=True)
    position = np.empty(csr.shape[0], dtype=np.intp)
    position[order] = np.arange(len(order))
    parent_position = position[parent[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(1 + int(np.searchsorted(parent_position, ends[-1])))
    depth = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return order, depth
