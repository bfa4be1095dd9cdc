"""Seeded input generators for the benchmark, each linear in its output size.

The benchmark keeps its own generators instead of ``pathcentral.generate`` so
that its inputs stay fixed while the package's generators change, and so that
building a 20k-vertex hub graph does not take quadratic time. Generators
return integer ``(source, target)`` pairs as an ``(m, 2)`` int64 array;
``write_edge_list`` writes them in the package's text format with string
labels. Randomness comes only from ``numpy.random.default_rng(seed)``
doubles, whose stream numpy keeps stable across releases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hub_edges", "uniform_edges", "layered_edges", "write_edge_list", "label"]


def label(v: int) -> str:
    return f"v{v}"


def hub_edges(n: int, out_per_vertex: int, in_per_vertex: int, seed: int) -> np.ndarray:
    """Preferential-attachment digraph with ``n`` vertices.

    Starts from a complete digraph on ``max(out, in) + 1`` vertices. Each new
    vertex then sends ``out_per_vertex`` edges to distinct earlier vertices
    drawn with probability proportional to in-degree + 1, and receives
    ``in_per_vertex`` edges from distinct earlier vertices drawn with
    probability proportional to out-degree + 1. Both pools list a vertex once
    plus once per edge end, so a draw is one index into a list.
    """
    core = max(out_per_vertex, in_per_vertex) + 1
    if n < core:
        raise ValueError(f"hub graph needs at least {core} vertices")
    edges = [(u, v) for u in range(core) for v in range(core) if u != v]
    targets = list(range(core)) + [v for _, v in edges]
    sources = list(range(core)) + [u for u, _ in edges]
    rng = np.random.default_rng(seed)
    draws = rng.random(4096).tolist()
    cursor = 0

    def pick(pool: list[int], count: int, exclude: int) -> list[int]:
        nonlocal draws, cursor
        picked: list[int] = []
        size = len(pool)
        while len(picked) < count:
            if cursor == len(draws):
                draws = rng.random(4096).tolist()
                cursor = 0
            v = pool[int(draws[cursor] * size)]
            cursor += 1
            if v != exclude and v not in picked:
                picked.append(v)
        return picked

    for v in range(core, n):
        for w in pick(targets, out_per_vertex, v):
            edges.append((v, w))
            targets.append(w)
            sources.append(v)
        for u in pick(sources, in_per_vertex, v):
            edges.append((u, v))
            sources.append(u)
            targets.append(v)
        targets.append(v)
        sources.append(v)
    return np.array(edges, dtype=np.int64)


def uniform_edges(n: int, m: int, seed: int) -> np.ndarray:
    """Up to ``m`` edges with both endpoints uniform over ``n`` vertices.

    Self-loops are dropped here; repeated pairs are kept, and the package
    drops them when it builds the graph, so the graph can hold slightly
    fewer than ``m`` edges.
    """
    ends = (np.random.default_rng(seed).random((m, 2)) * n).astype(np.int64)
    return ends[ends[:, 0] != ends[:, 1]]


def layered_edges(layers: int, width: int, out_per_vertex: int, seed: int) -> np.ndarray:
    """DAG whose edges run only from one layer to the next.

    Each vertex of a layer sends ``out_per_vertex`` edges to distinct
    vertices of the next layer, drawn uniformly; the last layer has no
    out-edges. Vertex ids are ``layer * width + position``.
    """
    if out_per_vertex > width:
        raise ValueError("out_per_vertex cannot exceed width")
    rng = np.random.default_rng(seed)
    blocks = []
    for j in range(layers - 1):
        picks = np.argsort(rng.random((width, width)), axis=1, kind="stable")[:, :out_per_vertex]
        src = np.repeat(np.arange(width), out_per_vertex) + j * width
        dst = np.sort(picks, axis=1).ravel() + (j + 1) * width
        blocks.append(np.stack([src, dst], axis=1))
    return np.concatenate(blocks).astype(np.int64)


def write_edge_list(path, edges: np.ndarray) -> None:
    """Write ``edges`` as ``v<source> v<target>`` lines, 100k lines at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(edges), 100_000):
            fh.write("".join(f"v{u} v{v}\n" for u, v in edges[start:start + 100_000].tolist()))
