"""Choosing a polling order: exhaustive search vs. the greedy schedulers.

Each slot the base station polls every node once; earlier listeners make the
later speakers cheaper because the decoder already knows correlated data.
The winning order splits the slot so every battery drains at the same rate,
and that common drain rate decides the cluster's lifetime.

Run:  python demos/02_static_scheduling.py
"""

import numpy as np

from clusterlife import (
    BitDistance,
    ClusterSpec,
    GaussianField,
    NodeSpec,
    Shannon,
    Srra,
    brute_force,
    evaluate_schedule,
    mcn,
    nnn,
)

rng = np.random.default_rng(42)
pos = rng.uniform(1.0, 4.0, size=(5, 2))
dist = np.hypot(pos[:, 0], pos[:, 1])  # base station at the origin

print("=== bit-distance model, equal energy-to-distance ratios ===")
nodes = [NodeSpec(i, tuple(pos[i]), float(dist[i]), float(dist[i])) for i in range(5)]
cluster = ClusterSpec(nodes, BitDistance(5))
exact = brute_force(cluster, Shannon())
greedy = nnn(cluster, Shannon())
print(f"exhaustive ({cluster.n}! orders): order {exact.order}, lifetime {exact.lifetime:.6f}")
print(f"nearest-neighbor greedy:  order {greedy.order}, lifetime {greedy.lifetime:.6f}")
print(f"greedy matches the optimum: {abs(exact.lifetime - greedy.lifetime) < 1e-9 * exact.lifetime}")

print()
print("=== smooth Gaussian correlation, low-rate regime ===")
energies = rng.uniform(0.5, 2.0, size=5)
nodes = [NodeSpec(i, tuple(pos[i]), float(energies[i]), float(dist[i])) for i in range(5)]
cluster = ClusterSpec(nodes, GaussianField(1.0, 0.5, offset=3.0))
exact = brute_force(cluster, Srra())
greedy = mcn(cluster, Srra())
print(f"exhaustive:      order {exact.order}, lifetime {exact.lifetime:.6f}")
print(f"min-cost greedy: order {greedy.order}, lifetime {greedy.lifetime:.6f}")

print()
print("how much the order matters (full-rate curve, same cluster):")
naive = tuple(range(5))
base = evaluate_schedule(naive, cluster, Shannon())
best = brute_force(cluster, Shannon())
print(f"  naive order {naive}: lifetime {base.lifetime:.6g}")
print(f"  best order  {best.order}: lifetime {best.lifetime:.6g}  "
      f"(+{100 * (best.lifetime / base.lifetime - 1):.1f}%)")
print("  per-slot time split of the winner (sums to 1):")
for node in range(cluster.n):
    print(f"    node {node}: t = {best.times[node]:.4f}")
