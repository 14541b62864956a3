"""Discrete check of the analytic lifetimes: walk the batteries slot by slot.

Analytic lifetimes treat the slot count as a real number. The simulator
spends whole slots against double-precision batteries, so a static plan
should complete exactly floor(L) slots, and a rounded-down dynamic mixture
should land within a column count of its analytic value.

Run:  python demos/05_battery_walk.py
"""

import math

import numpy as np

from clusterlife import (
    ClusterSpec,
    GaussianField,
    NodeSpec,
    Shannon,
    brute_force,
    dynamic_lifetime,
    simulate_dynamic,
    simulate_static,
)

rng = np.random.default_rng(19)
pos = rng.uniform(0.5, 2.0, size=(4, 2))
dist = np.hypot(pos[:, 0], pos[:, 1])
energies = rng.uniform(0.5, 2.0, size=4)
field = GaussianField(1.0, 0.5, offset=3.0)
nodes = [NodeSpec(i, tuple(pos[i]), float(energies[i]), float(dist[i])) for i in range(4)]
cluster = ClusterSpec(nodes, field)

# Size the batteries so the best plan lasts a few dozen whole slots.
scale = 23.7 / brute_force(cluster, Shannon()).lifetime
nodes = [NodeSpec(n.id, n.position, n.energy * scale, n.path_loss) for n in nodes]
cluster = ClusterSpec(nodes, field)

static = brute_force(cluster, Shannon())
trace = simulate_static(static, cluster)
print(f"static plan, order {static.order}")
print(f"  analytic lifetime  L = {static.lifetime:.4f}")
print(f"  simulated slots      = {trace.completed_slots} (floor(L) = {math.floor(static.lifetime)})")
print(f"  first node unable to pay slot {trace.completed_slots + 1}: node {trace.first_dead}")
*_, (_, _, after) = trace.blocks()  # the last block ends at the last slot
print(f"  batteries after the last slot: {np.array2string(after[-1], precision=3)}")

print()
plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=5)
dtrace = simulate_dynamic(plan, cluster)
print("dynamic mixture")
print(f"  analytic lifetime  L = {plan.lifetime:.4f}")
print(f"  columns in support   = {len(plan.support())}")
print(f"  simulated slots      = {dtrace.completed_slots} "
      f"(>= floor(L) - #columns = {math.floor(plan.lifetime) - len(plan.support())})")
gain = dtrace.completed_slots - trace.completed_slots
print(f"  extra whole slots over the static plan: {gain}")
