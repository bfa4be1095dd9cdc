"""Immutable directed graphs with dense integer vertex ids.

The input format is a plain whitespace edge list: one ``u v`` pair per line,
lines starting with ``#`` ignored. Labels may be arbitrary strings and are
re-indexed to dense integers in order of first appearance; the original
labels are retained so output can be expressed in the caller's terms.

Graphs are unweighted, loop-free and duplicate-free by construction, and
never mutated after construction, so a single instance can be shared freely
across concurrent estimator runs.
"""

from __future__ import annotations

from collections import deque
from typing import IO, Iterable, Iterator

from .errors import GraphParseError

__all__ = [
    "DirectedGraph",
    "load_edge_list",
    "loads_edge_list",
    "dump_edge_list",
    "bfs_distances",
]


class DirectedGraph:
    """Directed graph stored as sorted forward and reverse adjacency tuples."""

    __slots__ = (
        "vertex_count",
        "edge_count",
        "labels",
        "self_loops_dropped",
        "duplicates_dropped",
        "_fwd",
        "_rev",
        "_label_to_id",
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
        self._label_to_id = {lab: v for v, lab in enumerate(labels)}

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
        for u, v in edges:
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
            if (u, v) in edge_set:
                dupes += 1
                continue
            edge_set.add((u, v))
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
        """Adjacency as a scipy CSR matrix of ones (lazy import)."""
        import numpy as np
        from scipy import sparse

        rows = []
        cols = []
        for u, v in self.edges():
            rows.append(u)
            cols.append(v)
        n = self.vertex_count
        data = np.ones(len(rows), dtype=np.int8)
        return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def __repr__(self) -> str:
        return (
            f"DirectedGraph(vertices={self.vertex_count}, edges={self.edge_count})"
        )


def load_edge_list(stream: IO[str]) -> DirectedGraph:
    """Parse a whitespace edge list from a text stream.

    Each non-comment line must hold exactly two whitespace-separated labels.
    Raises :class:`GraphParseError` (with line number) on malformed lines and
    on input that yields no vertices at all.
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
    the same labels mapped to the same neighbors.
    """
    lines = [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def bfs_distances(g: DirectedGraph, source: int, direction: str = "forward") -> dict[int, int]:
    """Hop distances from ``source``; unreachable vertices are absent.

    ``direction="reverse"`` walks edges backwards, i.e. computes distances
    *to* ``source`` in the original orientation.
    """
    g._check(source)
    if direction == "forward":
        adj = g._fwd
    elif direction == "reverse":
        adj = g._rev
    else:
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist
