"""Static schedule search: exact, greedy, and path-based heuristics.

A static schedule is one polling order used every slot. The exact search is
a dynamic program over the 2^N sets of polled nodes, so it runs to N = 14
where the N! orders could not be enumerated; the greedy schedulers cover
the two structured regimes (Nearest Neighbor Next for the bit-distance model,
Minimum Cost Next for the low-rate regime) and a shortest-open-path heuristic
handles the Gaussian model, where short polling paths keep total transmission
time small.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .allocation import equalize_batch, lifetime_srra_batch
from .energy import LN2, EnergyMode, Srra, min_time_for_energy, tx_energy
from .errors import GuardError, NumericError, ValidationError
from .model import BitDistance, ClusterSpec, GaussianField, subset_layers

# The largest N at which brute_force on seeded test clusters (both models and
# modes, default, equal-battery and E = d families) stays under 5 s on a
# 2-core host; the Gaussian Shannon search doubles its time with each node.
BRUTE_FORCE_MAX_NODES = 14

# The certificate lies this far above the bracket on ln L*: past the
# evaluator's noise on any order's lifetime, and within 1e-9 of L*.
_CERTIFICATE = 4.5e-10
_SEARCH_STEPS = 200

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
    upper_bound: float | None = None  # brute_force only: no order lasts longer


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


def _bottleneck(ratio: np.ndarray) -> np.ndarray:
    """Suffix table of the bottleneck DP over node sets.

    ``ratio[S, k]`` is node k's lifetime when polled after the set S;
    ``value[S]`` is the largest minimum of it over the nodes still to poll,
    so ``value[0]`` is the best order's lifetime.
    """
    value = np.empty(len(ratio))
    value[-1] = np.inf
    for masks, free, after, _ in reversed(subset_layers(ratio.shape[1])):
        value[masks] = np.minimum(ratio[masks[:, None], free], value[after]).max(axis=1)
    return value


def _srra_search(cluster: ClusterSpec, mode: Srra, table: np.ndarray) -> tuple[tuple[int, ...], float]:
    """The lexicographically first order within the tie tolerance of the optimum V*, and V*."""
    with np.errstate(divide="ignore"):
        ratio = cluster.energies / (mode.c * table * cluster.path_losses)
    value = _bottleneck(ratio)
    tied = value[0] * (1.0 - _TIE_TOL)
    order, mask = [], 0
    for _ in range(cluster.n):
        # value is an exact max of exact mins, so some free node always qualifies
        k = next(k for k in range(cluster.n)
                 if not mask >> k & 1 and min(ratio[mask, k], value[mask | 1 << k]) >= tied)
        order.append(k)
        mask |= 1 << k
    return tuple(order), float(value[0])


class _SlotTimes:
    """Slot time each node needs after each node set to last a trial lifetime.

    ``at(lifetimes)`` returns (K, 2^N, N) arrays: the time t[j, S, k] node k
    needs when polled after S for the cluster to last ``lifetimes[j]`` (inf
    past the node's asymptote E/(d h ln 2)), and its derivative in ln L. Each
    distinct (node, load) pair goes through one ``min_time_for_energy`` call.
    """

    def __init__(self, cluster: ClusterSpec, table: np.ndarray):
        self.sets, self.nodes = np.nonzero(~np.isnan(table))
        pairs, inverse = np.unique(np.stack([self.nodes, table[self.sets, self.nodes]], axis=1), axis=0,
                                   return_inverse=True)
        self.inverse = inverse.reshape(-1)
        node = pairs[:, 0].astype(int)
        self.h = pairs[:, 1]
        self.energies = cluster.energies[node]
        self.path_losses = cluster.path_losses[node]
        self.shape = table.shape

    def at(self, lifetimes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore"):
            budget = self.energies / (lifetimes[:, None] * self.path_losses)
            feasible = budget / (self.h * LN2) > 1.0
            t = min_time_for_energy(np.where(feasible, self.h, 0.0), np.where(feasible, budget, 1.0))
            u = self.h * LN2 / t
            slope = np.where(feasible & (self.h > 0), t / (u / -np.expm1(-u) - 1.0), 0.0)
        times = np.full((len(lifetimes), *self.shape), np.nan)
        slopes = times.copy()
        times[:, self.sets, self.nodes] = np.where(feasible, t, np.inf)[:, self.inverse]
        slopes[:, self.sets, self.nodes] = slope[:, self.inverse]
        return times, slopes


def _least_time(times: np.ndarray, slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix DP per trial lifetime: the least total time over the orders of the
    nodes outside each set, and the ln-L derivative along that order."""
    rest = np.zeros(times.shape[:2])
    rest_slope = np.zeros(times.shape[:2])
    for masks, free, after, _ in reversed(subset_layers(times.shape[2])):
        total = times[:, masks[:, None], free] + rest[:, after]
        pick = np.argmin(total, axis=2)[..., None]
        rest[:, masks] = np.take_along_axis(total, pick, 2)[..., 0]
        slope = slopes[:, masks[:, None], free] + rest_slope[:, after]
        rest_slope[:, masks] = np.take_along_axis(slope, pick, 2)[..., 0]
    return rest, rest_slope


def _shannon_search(cluster: ClusterSpec, table: np.ndarray) -> tuple[tuple[int, ...], float]:
    """The lexicographically first order within 1e-12 of the optimal lifetime L*, and a lifetime no order reaches.

    F(L), the least total slot time over all orders, grows with L, and L* is
    the root of F(L) = 1. A safeguarded Newton loop on ln L narrows a bracket
    [lo, hi] with F(e^lo) <= 1 < F(e^hi) to max(1e-13, 4 ulp of ln L). One
    last DP call prices two lifetimes: at e^lo (1 - 1e-12) the order is read
    greedily from the suffix table, as the first whose slot times fit, and at
    e^hi e^4.5e-10, within 1e-9 above L*, F > 1 certifies that no order
    lasts that long.
    """
    slot = _SlotTimes(cluster, table)
    energy = cluster.energies / cluster.path_losses
    with np.errstate(divide="ignore", over="ignore"):
        # no order lasts to the low-rate lifetime at c = ln 2; some order lasts
        # to its lifetime under an equal split of the slot
        cap = _bottleneck(energy / (LN2 * table))[0]
        floor = _bottleneck(energy / tx_energy(table, 1.0 / cluster.n))[0]
    hi = math.log(cap)
    reach = 1.0
    lo = math.log(floor) - 1e-6 if floor > 0 else hi - reach
    # F(e^lo) <= 1 is known, not evaluated, unless the equal split overflowed
    f_lo = -np.inf if floor > 0 else np.nan
    f_hi = slope_lo = slope_hi = np.nan
    points = lo + (hi - lo) * np.array([1.0, 2.0]) / 3 if floor > 0 else np.array([lo])
    for _ in range(_SEARCH_STEPS):
        rest, rest_slope = _least_time(*slot.at(np.exp(points)))
        for x, f, slope in zip(points, rest[:, 0], rest_slope[:, 0]):
            if not lo <= x < hi:  # a closing point past the bracket
                continue
            if f <= 1.0:
                lo, f_lo, slope_lo = x, f, slope
            else:
                hi, f_hi, slope_hi = x, f, slope
        if np.isnan(f_lo):  # step down, twice as far each time, until an order fits
            reach *= 2.0
            lo = hi - reach
            points = np.array([lo])
            continue
        # the bracket stops at the float spacing of ln L, coarser than 1e-13 far from L = 1
        width = max(1e-13, 4.0 * np.spacing(max(abs(lo), abs(hi))))
        if hi - lo <= width:
            break
        if f_lo == 1.0:
            x, near = lo, True
        elif np.isfinite(f_lo) and np.isfinite(f_hi) and hi - lo < 1e-6:
            # F is as good as linear across a bracket this narrow: interpolate
            x, near = lo + (1.0 - f_lo) / (f_hi - f_lo) * (hi - lo), True
        else:
            # Newton from the evaluated bracket end with the smaller residual,
            # else from the other; bisect if neither step lands inside
            ends = [(abs(f - 1.0), end, end - (f - 1.0) / slope)
                    for end, f, slope in ((lo, f_lo, slope_lo), (hi, f_hi, slope_hi)) if np.isfinite(f) and slope > 0]
            for _, end, x in sorted(ends):
                near = abs(x - end) <= 1e-7
                if lo < x < hi or near and lo <= x <= hi:
                    break
            else:
                x, near = 0.5 * (lo + hi), False
        # near the root, one call at both sides of the estimate closes the bracket
        points = x + 0.4 * width * np.array([-1.0, 1.0]) if near else np.array([x])
    else:
        raise NumericError(f"exact search did not bracket the optimal lifetime in {_SEARCH_STEPS} steps")
    bound = math.exp(hi + _CERTIFICATE)
    times, slopes = slot.at(np.array([math.exp(lo) * (1.0 - _TIE_TOL), bound]))
    rest, _ = _least_time(times, slopes)
    if not rest[1, 0] > 1.0:
        raise NumericError("exact search lost its bracket on the optimal lifetime")
    order, mask, spent = [], 0, 0.0
    for _ in range(cluster.n):
        free = np.nonzero((mask >> np.arange(cluster.n)) & 1 == 0)[0]
        total = times[0, mask, free] + rest[0, mask | 1 << free]
        # the first node some completion fits the slot after; if rounding
        # leaves none, the one the DP's least total takes
        fits = np.nonzero(spent + total <= 1.0)[0]
        k = int(free[fits[0] if len(fits) else np.argmin(total)])
        order.append(k)
        spent += times[0, mask, k]
        mask |= 1 << k
    return tuple(order), bound


def brute_force(cluster: ClusterSpec, mode: EnergyMode) -> StaticResult:
    """Exact best static order by dynamic programming over the 2^N node sets.

    A node's conditional load depends only on the set polled before it
    (``ClusterSpec.subset_loads``), so no order is enumerated, and both modes
    read the lexicographically first order within 1e-12 of the optimum
    greedily from a suffix table:

    * SRRA mode: the bottleneck DP V(S) = max over i in S of
      min(V(S - i), E_i / (c h(i | S - i) d_i)) gives the optimum V*.
    * Shannon mode: F(L), the least total slot time over all orders at
      lifetime L, is a DP over the same sets; a safeguarded Newton loop on
      ln L brackets the root L* of F(L) = 1 to about 1e-13, and the order is
      the first whose slot times fit at L* (1 - 1e-12). Ties are so decided
      at the DP's own precision, about 1e-14, far finer than the
      evaluator's, which pins sub-slot lifetimes only to about 1e-11.

    The winner is priced by ``evaluate_schedule``. ``upper_bound`` certifies
    optimality: no order lasts longer (V* in SRRA mode; in Shannon mode an L
    at most 1e-9 above L* with F(L) > 1). Guarded at N <= BRUTE_FORCE_MAX_NODES.
    """
    if cluster.n > BRUTE_FORCE_MAX_NODES:
        raise GuardError(
            f"brute force is guarded at N <= {BRUTE_FORCE_MAX_NODES}, got N = {cluster.n}"
        )
    table = cluster.subset_loads()
    if isinstance(mode, Srra):
        order, bound = _srra_search(cluster, mode, table)
    else:
        order, bound = _shannon_search(cluster, table)
    return dataclasses.replace(evaluate_schedule(order, cluster, mode, method="brute"), upper_bound=bound)


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
