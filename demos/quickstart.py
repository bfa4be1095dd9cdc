"""Estimate one vertex's betweenness and compare against the exact oracle.

Generates a mid-sized preferential-attachment digraph, picks its strongest
hub, runs the adaptive estimator at a couple of accuracy targets, and prints
how the sample counts and errors respond. Everything is seeded, so the
output is stable across runs.
"""

from pathcentral.adaptive import EstimatorConfig
from pathcentral.betweenness import estimate_betweenness
from pathcentral.exact import brandes_betweenness_all
from pathcentral.generate import hub_digraph
from pathcentral.reachability import compute_reachability


def main() -> None:
    g = hub_digraph(500, seed=7)
    print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges")

    scores = brandes_betweenness_all(g)
    # the highest score, ties broken by ascending id
    root = min(g.vertices(), key=lambda v: (-scores[v], v))
    exact = float(scores[root])
    reach = compute_reachability(g, root)
    print(f"root {g.label_of(root)}: exact betweenness {exact:.6f}, "
          f"pair fraction {float(reach.pair_fraction):.4f}")
    print()
    print(f"{'tolerance':>10}  {'estimate':>10}  {'error':>9}  "
          f"{'samples':>8}  {'budget':>8}  stop")

    for tolerance in (0.1, 0.05, 0.02, 0.01):
        cfg = EstimatorConfig(tolerance=tolerance, failure_prob=0.1, seed=42)
        est = estimate_betweenness(g, root, cfg)
        print(f"{tolerance:>10}  {est.value:>10.6f}  {abs(est.value - exact):>9.6f}  "
              f"{est.samples:>8}  {est.sample_budget:>8}  {est.stop_reason}")

    print()
    print("tighter tolerances buy accuracy with samples; the stop column")
    print("shows when the gap terms released the run before the budget")


if __name__ == "__main__":
    main()
