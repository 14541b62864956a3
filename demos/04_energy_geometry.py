"""The geometry behind good schedules: energy space and the equal-energy line.

Each (order, time split) pair spends a concrete energy vector per slot; one
order traces a hypersurface as its time split varies. Schedules whose
consumption sits near the diagonal E_1 = ... = E_N drain batteries evenly,
and for two nodes the best operating point is where the two orders' curves
meet the equal-drain direction.

Run:  python demos/04_energy_geometry.py
"""

import numpy as np

from clusterlife import (
    ClusterSpec,
    GaussianField,
    NodeSpec,
    Srra,
    best_over_all_m,
    equal_energy_crossing,
    equal_line_alignment,
    hull_2d,
    mcn,
    srra_points,
    surface_sample,
)

print("=== two nodes: per-order curves, hull, and the diagonal crossing ===")
pair = [NodeSpec(0, (0.0, 0.0), 1.0, 1.0), NodeSpec(1, (1.5, 0.0), 1.0, 1.2)]
cluster = ClusterSpec(pair, GaussianField(1.0, 0.5, offset=3.0))
report = equal_energy_crossing(cluster)
for crossing in report.crossings:
    e = crossing.point
    life = float(np.min(cluster.energies / e))
    print(f"order {crossing.order}: crosses the diagonal at per-slot energy "
          f"({e[0]:.5f}, {e[1]:.5f}) -> lifetime {life:.5f}")
print(f"winner: order {report.winner} (lower crossing = longer life)")

_, energy = surface_sample((0, 1), cluster, grid_density=40)
hull = hull_2d(energy)
print(f"sampled {len(energy)} operating points of order (0, 1); "
      f"lower hull has {len(hull)} vertices")

print()
print("=== low-rate regime: one point per order, alignment picks the winner ===")
rng = np.random.default_rng(11)
pos = rng.uniform(1.0, 4.0, size=(4, 2))
nodes = [NodeSpec(i, tuple(pos[i]), 1.5, 1.0) for i in range(4)]
cluster = ClusterSpec(nodes, GaussianField(1.0, 0.5, offset=3.0))
mode = Srra()
points = srra_points(cluster, mode)
align = equal_line_alignment([p.energy for p in points])
ranked = sorted(zip(align, points), key=lambda item: -item[0])
print(f"{'order':<16} {'alignment':>10} {'lifetime':>10}")
for a, p in ranked[:5]:
    life = float(np.min(cluster.energies / p.energy))
    print(f"{str(p.order):<16} {a:>10.4f} {life:>10.5f}")
greedy = mcn(cluster, mode)
print(f"min-cost greedy lifetime for comparison: {greedy.lifetime:.5f}")

print()
print("=== mixtures of low-rate points: best value by subset size ===")
best, per_m = best_over_all_m([p.energy for p in points], cluster.energies, max_m=3)
for m, value in enumerate(per_m, start=1):
    print(f"  best mixture of {m} point(s): L = {value:.5f}")
