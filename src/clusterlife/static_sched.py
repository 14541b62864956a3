"""Static schedule search: exhaustive, greedy, and path-based heuristics.

A static schedule is one polling order used every slot. Searching over the
N! orders is exact but only viable for small N; the greedy schedulers cover
the two structured regimes (Nearest Neighbor Next for the bit-distance model,
Minimum Cost Next for the low-rate regime) and a shortest-open-path heuristic
handles the Gaussian model, where short polling paths keep total transmission
time small.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationResult, equalize, equalize_batch, lifetime_srra, lifetime_srra_batch
from .energy import EnergyMode, Shannon, Srra
from .errors import GuardError, ValidationError
from .model import BitDistance, ClusterSpec, GaussianField, Schedule

BRUTE_FORCE_MAX_NODES = 8

# Lifetimes within this fraction of the best are treated as ties and broken
# lexicographically.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class StaticResult:
    """Winning order, its loads, per-slot node energies and lifetime."""

    order: tuple[int, ...]
    loads: np.ndarray  # by polling position
    lifetime: float
    method: str
    per_slot_energy: np.ndarray  # by node id
    allocation: AllocationResult | None = None  # Shannon mode only
    bottleneck: int | None = None  # SRRA mode only


def evaluate_schedule(order, cluster: ClusterSpec, mode: EnergyMode, method: str = "eval") -> StaticResult:
    """Loads plus lifetime of one explicit polling order under a mode."""
    schedule = cluster.schedule_loads(order)
    loads_by_node = schedule.loads_by_node(cluster.n)
    if isinstance(mode, Srra):
        lifetime, bottleneck = lifetime_srra(
            loads_by_node, cluster.energies, cluster.path_losses, c=mode.c
        )
        per_slot = mode.c * loads_by_node * cluster.path_losses
        return StaticResult(
            order=schedule.order,
            loads=schedule.loads,
            lifetime=lifetime,
            method=method,
            per_slot_energy=per_slot,
            bottleneck=bottleneck,
        )
    alloc = equalize(loads_by_node, cluster.energies, cluster.path_losses)
    return StaticResult(
        order=schedule.order,
        loads=schedule.loads,
        lifetime=alloc.lifetime,
        method=method,
        per_slot_energy=alloc.per_node_energy,
        allocation=alloc,
    )


def order_lifetimes(cluster: ClusterSpec, orders: np.ndarray, mode: EnergyMode) -> np.ndarray:
    """Lifetime of every row of an (M, N) array of polling orders."""
    # argsort of a permutation is its inverse: it reindexes loads by node id
    loads = np.take_along_axis(cluster.loads(orders), np.argsort(orders, axis=1), axis=1)
    if isinstance(mode, Srra):
        return lifetime_srra_batch(loads, cluster.energies, cluster.path_losses, c=mode.c)
    lifetimes, _ = equalize_batch(loads, cluster.energies, cluster.path_losses)
    return lifetimes


def _best_order(orders: np.ndarray, lifetimes: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Max lifetime with deterministic lexicographic tie-breaking."""
    best = float(np.max(lifetimes))
    tied = np.nonzero(lifetimes >= best * (1.0 - _TIE_TOL))[0]
    rows = sorted(tuple(int(v) for v in orders[i]) for i in tied)
    return rows[0], best


def all_orders(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def brute_force(cluster: ClusterSpec, mode: EnergyMode, threads: int | None = None) -> StaticResult:
    """Exhaustive search over all N! orders; guarded at N <= 8."""
    if cluster.n > BRUTE_FORCE_MAX_NODES:
        raise GuardError(
            f"brute force is guarded at N <= {BRUTE_FORCE_MAX_NODES}, got N = {cluster.n}"
        )
    orders = all_orders(cluster.n)
    if threads and threads > 1 and len(orders) >= cluster.n:
        # Contiguous lexicographic blocks, one per first node; deterministic merge.
        blocks = np.array_split(orders, min(threads * 2, len(orders)))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: order_lifetimes(cluster, b, mode), blocks))
        lifetimes = np.concatenate(results)
    else:
        lifetimes = order_lifetimes(cluster, orders, mode)
    order, _ = _best_order(orders, lifetimes)
    return evaluate_schedule(order, cluster, mode, method="brute")


def nnn(cluster: ClusterSpec, mode: EnergyMode) -> StaticResult:
    """Nearest Neighbor Next: greedy minimum distance to the polled prefix.

    Restarted from every node; minimizing distance to the prefix minimizes
    the conditional bit count of the bit-distance model. Ties go to the
    smallest node id.
    """
    if not isinstance(cluster.correlation, BitDistance):
        raise ValidationError("nnn requires a BitDistance correlation model")
    d = cluster.distances
    candidates = []
    for start in range(cluster.n):
        order = [start]
        remaining = set(range(cluster.n)) - {start}
        while remaining:
            best = min(remaining, key=lambda i: (d[i, order].min(), i))
            order.append(best)
            remaining.remove(best)
        candidates.append(tuple(order))
    orders = np.array(candidates, dtype=int)
    lifetimes = order_lifetimes(cluster, orders, mode)
    order, _ = _best_order(orders, lifetimes)
    return evaluate_schedule(order, cluster, mode, method="nnn")


def mcn(cluster: ClusterSpec, mode: Srra) -> StaticResult:
    """Minimum Cost Next: greedily poll the node with the cheapest conditional
    cost h*d/E given everything polled so far; ties to the smallest id."""
    if not isinstance(mode, Srra):
        raise ValidationError("mcn requires the SRRA energy mode")
    order: list[int] = []
    remaining = list(range(cluster.n))
    while remaining:
        h = cluster.loads([order + [i] for i in remaining])[:, -1]
        cost = h * cluster.path_losses[remaining] / cluster.energies[remaining]
        order.append(remaining.pop(int(np.argmin(cost))))  # first minimum: smallest id
    return evaluate_schedule(tuple(order), cluster, mode, method="mcn")


def path_length(order, distances: np.ndarray) -> float:
    order = list(order)
    return float(sum(distances[order[k], order[k + 1]] for k in range(len(order) - 1)))


def two_opt_path(order, distances: np.ndarray) -> tuple[int, ...]:
    """Improve an open path by segment reversals until no swap helps."""
    order = list(order)
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                new = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
                if path_length(new, distances) < path_length(order, distances) - 1e-12:
                    order = new
                    improved = True
    return tuple(order)


def shp_heuristic(cluster: ClusterSpec, mode: EnergyMode) -> StaticResult:
    """Short-open-path heuristic for the Gaussian model.

    Nearest-neighbor path construction from every start node, each improved
    by 2-opt; the shortest resulting path is used as the polling order.
    """
    if not isinstance(cluster.correlation, GaussianField):
        raise ValidationError("shp_heuristic requires a GaussianField correlation model")
    d = cluster.distances
    best_order = None
    best_len = np.inf
    for start in range(cluster.n):
        order = [start]
        remaining = set(range(cluster.n)) - {start}
        while remaining:
            last = order[-1]
            nxt = min(remaining, key=lambda i: (d[last, i], i))
            order.append(nxt)
            remaining.remove(nxt)
        order = two_opt_path(order, d)
        length = path_length(order, d)
        if length < best_len - 1e-12 or (
            abs(length - best_len) <= 1e-12 and (best_order is None or order < best_order)
        ):
            best_len = length
            best_order = order
    return evaluate_schedule(best_order, cluster, mode, method="shp")
