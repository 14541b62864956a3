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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .allocation import equalize_batch, lifetime_srra_batch
from .energy import EnergyMode, Srra, tx_energy
from .errors import GuardError, ValidationError
from .model import BitDistance, ClusterSpec, GaussianField

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
    times: np.ndarray | None = None  # equalized split by node id; Shannon mode only
    bottleneck: int | None = None  # SRRA mode only


class OrderEvaluation(NamedTuple):
    """A batch of polling orders judged under one mode; (M, N) arrays by node id."""

    loads: np.ndarray
    lifetimes: np.ndarray  # (M,)
    times: np.ndarray | None  # equalized split; None in SRRA mode
    energy: np.ndarray  # per-slot energy, path loss included


def by_node(cluster: ClusterSpec, orders: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Reindex the last axis of ``values`` from polling position to node id."""
    if orders.shape[-1] != cluster.n:
        raise ValidationError(f"orders must be permutations of 0..{cluster.n - 1}, got shape {orders.shape}")
    # argsort of a permutation is its inverse
    return np.take_along_axis(values, np.argsort(orders, axis=-1), axis=-1)


def evaluate_orders(cluster: ClusterSpec, orders, mode: EnergyMode) -> OrderEvaluation:
    """Loads, lifetimes, equalized splits and per-slot energies of an (M, N) array of orders.

    The whole batch is equalized in one ``equalize_batch`` call, which stops
    when every row has converged, so a row's last bits depend on its batch.
    """
    orders = np.asarray(orders)
    loads = by_node(cluster, orders, cluster.loads(orders))
    if isinstance(mode, Srra):
        lifetimes = lifetime_srra_batch(loads, cluster.energies, cluster.path_losses, c=mode.c)
        return OrderEvaluation(loads, lifetimes, None, tx_energy(loads, 1.0, mode) * cluster.path_losses)
    lifetimes, times = equalize_batch(loads, cluster.energies, cluster.path_losses)
    energy = tx_energy(loads, np.where(times > 0, times, 1.0)) * cluster.path_losses
    return OrderEvaluation(loads, lifetimes, times, energy)


def split_energy(cluster: ClusterSpec, orders, times_pos) -> tuple[np.ndarray, np.ndarray]:
    """Splits and per-slot energies, by node id, of orders run with explicit splits.

    ``orders`` is an (M, N) array of polling orders; ``times_pos`` holds S
    splits of the slot by polling position, as an (S, N) array shared by
    every order or an (M, S, N) array. Both results are (M, S, N).
    """
    orders = np.asarray(orders)
    times_pos = np.asarray(times_pos, dtype=float)
    energy = tx_energy(cluster.loads(orders)[:, None, :], times_pos)
    orders = orders[:, None, :]
    times = by_node(cluster, orders, np.broadcast_to(times_pos, energy.shape))
    return times, by_node(cluster, orders, energy) * cluster.path_losses


def evaluate_schedule(order, cluster: ClusterSpec, mode: EnergyMode, method: str = "eval") -> StaticResult:
    """Loads, lifetime, split and energies of one polling order: a one-row ``evaluate_orders``."""
    order = tuple(int(i) for i in order)
    ev = evaluate_orders(cluster, [order], mode)
    bottleneck = None
    if isinstance(mode, Srra):
        with np.errstate(divide="ignore"):
            bottleneck = int(np.argmin(cluster.energies / ev.energy[0]))
    return StaticResult(
        order=order,
        loads=ev.loads[0][list(order)],
        lifetime=float(ev.lifetimes[0]),
        method=method,
        per_slot_energy=ev.energy[0],
        times=None if ev.times is None else ev.times[0],
        bottleneck=bottleneck,
    )


def _best_order(orders: np.ndarray, lifetimes: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Max lifetime with deterministic lexicographic tie-breaking."""
    best = float(np.max(lifetimes))
    tied = np.nonzero(lifetimes >= best * (1.0 - _TIE_TOL))[0]
    rows = sorted(tuple(int(v) for v in orders[i]) for i in tied)
    return rows[0], best


def all_orders(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def brute_force(cluster: ClusterSpec, mode: EnergyMode) -> StaticResult:
    """Exhaustive search over all N! orders in one ``evaluate_orders`` call; guarded at N <= 8."""
    if cluster.n > BRUTE_FORCE_MAX_NODES:
        raise GuardError(
            f"brute force is guarded at N <= {BRUTE_FORCE_MAX_NODES}, got N = {cluster.n}"
        )
    orders = all_orders(cluster.n)
    order, _ = _best_order(orders, evaluate_orders(cluster, orders, mode).lifetimes)
    return evaluate_schedule(order, cluster, mode, method="brute")


def _greedy_chains(n: int, gap) -> list[list[int]]:
    """One chain per start node, each grown by the remaining node i with the
    smallest ``gap(chain, i)``; ties to the smallest id."""
    chains = []
    for start in range(n):
        chain = [start]
        rest = set(range(n)) - {start}
        while rest:
            nxt = min(rest, key=lambda i: (gap(chain, i), i))
            chain.append(nxt)
            rest.remove(nxt)
        chains.append(chain)
    return chains


def nnn(cluster: ClusterSpec, mode: EnergyMode) -> StaticResult:
    """Nearest Neighbor Next: greedy minimum distance to the polled prefix.

    Restarted from every node; minimizing distance to the prefix minimizes
    the conditional bit count of the bit-distance model. Ties go to the
    smallest node id.
    """
    if not isinstance(cluster.correlation, BitDistance):
        raise ValidationError("nnn requires a BitDistance correlation model")
    d = cluster.distances
    orders = np.array(_greedy_chains(cluster.n, lambda chain, i: d[i, chain].min()), dtype=int)
    lifetimes = evaluate_orders(cluster, orders, mode).lifetimes
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
    for chain in _greedy_chains(cluster.n, lambda chain, i: d[chain[-1], i]):
        order = two_opt_path(chain, d)
        length = path_length(order, d)
        if length < best_len - 1e-12 or (
            abs(length - best_len) <= 1e-12 and (best_order is None or order < best_order)
        ):
            best_len = length
            best_order = order
    return evaluate_schedule(best_order, cluster, mode, method="shp")
