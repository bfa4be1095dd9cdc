"""Walk-sampled bounded-path centrality next to its exact counterpart.

Enumerating simple paths up to length k is only viable on small graphs,
which makes those graphs the right place to watch the walk estimator
work. This demo scores every vertex of a small random digraph both
ways, prints them side by side, then compares the two walk weightings
on a graph with an exit ramp: the original weighting divides by all
unvisited out-neighbors at each step, the restricted one only by those
inside the root's domain. Each weighting defines its own exact score,
and the estimator is unbiased for whichever one it is given.
"""

from pathcentral.exact import exact_kpath
from pathcentral.generate import random_digraph
from pathcentral.graph import loads_edge_list
from pathcentral.kpath import KPathConfig, estimate_kpath_centrality


def main() -> None:
    g = random_digraph(10, 0.25, seed=3)
    k = 3
    print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges, k={k}")
    print()
    print(f"{'vertex':>6}  {'exact':>8}  {'estimate':>9}  {'samples':>8}  "
          f"{'abs err':>8}")

    for root in g.vertices():
        exact = float(exact_kpath(g, root, k))
        cfg = KPathConfig(k=k, tolerance=0.02, failure_prob=0.1, seed=11)
        est = estimate_kpath_centrality(g, root, cfg)
        print(f"{g.label_of(root):>6}  {exact:>8.5f}  {est.value:>9.5f}  "
              f"{est.samples:>8}  {abs(est.value - exact):>8.5f}")

    # The weightings only differ when a walk can branch to vertices
    # outside the root's domain. Here x and y hang off the s->a->r->t
    # spine: a walk at a may step to x, and the original weighting
    # halves the path weight for that choice while the restricted one
    # ignores the exit.
    h = loads_edge_list("s a\na r\nr t\na x\nx y")
    root = h.id_of("r")
    print()
    print("weighting comparison, root r of the spine graph:")
    print(f"{'weight':>10}  {'exact':>8}  {'estimate':>9}  {'per-hit bound':>13}")
    for weight in ("original", "restricted"):
        exact = float(exact_kpath(h, root, k, weight=weight))
        cfg = KPathConfig(k=k, tolerance=0.02, failure_prob=0.1, seed=11,
                          weight=weight)
        est = estimate_kpath_centrality(h, root, cfg)
        print(f"{weight:>10}  {exact:>8.5f}  {est.value:>9.5f}  "
              f"{est.contribution_bound:>13.5f}")


if __name__ == "__main__":
    main()
