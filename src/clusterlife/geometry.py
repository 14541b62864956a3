"""Energy-space view of scheduling: hypersurfaces, mixtures, hulls.

Each schedule traces a convex surface in the first orthant of per-node
energy space as its time allocation sweeps the simplex. A mixture runs each
chosen point for some number of slots, so the best mixture of a set of
points is the cooperation LP that ``dynamic_sched.solve_lp`` solves. In the
low-rate regime every schedule collapses to a single point and the static
winner is the point hugging the equal-energy diagonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import equalize_batch
from .dynamic_sched import SPLIT_FLOOR, Column, build_columns, solve_lp
from .energy import Srra, tx_energy
from .errors import GuardError, ValidationError
from .model import ClusterSpec
from . import static_sched

_SUBSET_GUARD = 200000
_SRRA_POINTS_MAX_NODES = 8  # N! columns: 40320 at the limit
_LATTICE_MAX_POINTS = 10**6  # two (K, N) float arrays: at N = 3, ~50 MB kept, ~180 MB peak at the limit
_MIN_NORM_MAX_POINTS = 16


def surface_sample(order, cluster: ClusterSpec, grid_density: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Times and per-slot energies of one schedule on a simplex lattice of splits.

    For N = 2 the lattice is a 1-D sweep; in general it is the set of
    compositions of ``grid_density`` into N positive parts, each giving the
    time of one polling position, in lexicographic order: the gaps between
    the sorted cut points of each ``itertools.combinations`` draw. Every
    position keeps at least ``SPLIT_FLOOR`` time so the energy stays finite.
    Both results are (K, N) arrays by node id, as ``split_energy`` gives them
    for one order. Lattices of over a million points are refused.
    """
    order = tuple(order)
    n = cluster.n
    if grid_density < n:
        raise ValidationError("grid_density must be at least the node count")
    count = math.comb(grid_density - 1, n - 1)
    if count > _LATTICE_MAX_POINTS:
        raise GuardError(f"{count} lattice points (grid {grid_density}, N = {n}) exceed {_LATTICE_MAX_POINTS}")
    cuts = itertools.chain.from_iterable(itertools.combinations(range(1, grid_density), n - 1))
    cuts = np.fromiter(cuts, dtype=int, count=count * (n - 1)).reshape(count, n - 1)
    gaps = np.diff(cuts, axis=1, prepend=0, append=grid_density)
    share = np.maximum(gaps / grid_density, SPLIT_FLOOR)
    times, energy = static_sched.split_energy(cluster, [order], share / share.sum(axis=1, keepdims=True))
    return times[0], energy[0]


def srra_points(cluster: ClusterSpec, mode: Srra) -> list[Column]:
    """The N! allocation-free columns of the low-rate regime."""
    if cluster.n > _SRRA_POINTS_MAX_NODES:
        raise GuardError("full schedule enumeration is too large")
    return build_columns(cluster, mode, orders=static_sched.all_orders(cluster.n))


def min_norm_weights(points) -> np.ndarray:
    """Convex-combination weights of the point nearest the origin (not the best mixture).

    Exact active-face search: the minimizer of a convex quadratic over the
    simplex lies on some face, and each face's candidate solves a small
    equality-constrained linear system. Vertex solutions are legal (the
    mixture degenerates to a single schedule).
    """
    p = _as_matrix(points)
    m = p.shape[0]
    if m == 1:
        return np.ones(1)
    if m > _MIN_NORM_MAX_POINTS:
        raise GuardError(f"min_norm_weights is guarded at <= {_MIN_NORM_MAX_POINTS} points")
    gram = p @ p.T
    best_r = None
    best_val = np.inf
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            g = gram[np.ix_(idx, idx)]
            k = len(idx)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * g
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            r_sub = sol[:k]
            if np.any(r_sub < -1e-9) or abs(r_sub.sum() - 1.0) > 1e-9:
                continue
            r_sub = np.maximum(r_sub, 0.0)
            r_sub /= r_sub.sum()
            val = float(r_sub @ g @ r_sub)
            if val < best_val - 1e-15:
                best_val = val
                best_r = (idx, r_sub)
    if best_r is None:
        raise ValidationError("no feasible convex combination found")
    r = np.zeros(m)
    r[best_r[0]] = best_r[1]
    return r


def _as_matrix(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        return np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([pt.energy if isinstance(pt, Column) else pt for pt in points], dtype=float)


@dataclass(frozen=True)
class SubsetResult:
    lifetime: float
    subset: tuple[int, ...]
    weights: np.ndarray  # share of the lifetime each subset point runs


def best_over_subsets(points, energies, m: int) -> SubsetResult:
    """Best ``solve_lp`` lifetime over all size-m subsets; weights are slot counts / lifetime."""
    columns = [Column(order=(), times=None, energy=row) for row in _as_matrix(points)]
    count = len(columns)
    if not (1 <= m <= count):
        raise ValidationError(f"subset size {m} out of range 1..{count}")
    if math.comb(count, m) > _SUBSET_GUARD:
        raise GuardError("too many subsets to enumerate")
    best = None
    for subset in itertools.combinations(range(count), m):
        plan = solve_lp([columns[i] for i in subset], energies)
        if best is None or plan.lifetime > best.lifetime * (1 + 1e-12):
            weights = np.isinf(plan.slot_counts) * 1.0 if plan.infinite else plan.slot_counts / plan.lifetime
            best = SubsetResult(lifetime=plan.lifetime, subset=subset, weights=weights)
    return best


def best_over_all_m(points, energies, max_m: int | None = None) -> tuple[float, list[float]]:
    """Overall best mixture lifetime and the per-m sequence L_1..L_max.

    A basic LP solution uses at most N points, so L_m for m >= N is the one
    LP over all the points; subsets are enumerated only for m < N.
    """
    p = _as_matrix(points)
    count, n = p.shape
    limit = count if max_m is None else min(max_m, count)
    seq = [best_over_subsets(p, energies, m).lifetime for m in range(1, min(limit, n - 1) + 1)]
    if limit >= n:
        seq += [best_over_subsets(p, energies, count).lifetime] * (limit - len(seq))
    return max(seq), seq


@dataclass(frozen=True)
class Crossing:
    order: tuple[int, ...]
    t_first: float
    point: np.ndarray
    origin_distance: float


@dataclass(frozen=True)
class CrossingReport:
    crossings: tuple[Crossing, Crossing]
    winner: tuple[int, ...]  # order whose crossing is closer to the origin


def equal_energy_crossing(cluster: ClusterSpec) -> CrossingReport:
    """Where each two-node schedule curve meets the equal-energy diagonal.

    Along a curve the first-polled node's time t trades one node's energy
    for the other's. Equal per-slot energies are equal lifetimes under unit
    batteries, so each crossing is the equalized allocation of unit
    batteries, both orders in one ``equalize_batch`` call; it coincides with
    the static equalization whenever the two batteries are equal, and the
    crossing nearer the origin belongs to the better static schedule.
    """
    if cluster.n != 2:
        raise ValidationError("equal_energy_crossing requires exactly two nodes")
    orders = static_sched.all_orders(2)
    loads = static_sched.by_node(cluster, orders, cluster.loads(orders))
    if not np.all(loads > 0):  # a silent node's energy stays 0 along the whole curve
        raise ValidationError("energy curves do not cross the diagonal")
    _, times = equalize_batch(loads, np.ones(2), cluster.path_losses)
    points = tx_energy(loads, times) * cluster.path_losses
    crossings = [
        Crossing(tuple(order), float(t[order[0]]), point, float(np.linalg.norm(point)))
        for order, t, point in zip(orders.tolist(), times, points)
    ]
    winner = min(crossings, key=lambda c: (c.origin_distance, c.order)).order
    return CrossingReport(crossings=tuple(crossings), winner=winner)


def hull_2d(points) -> np.ndarray:
    """Lower convex hull of 2-D energy points, ordered by first coordinate.

    Monotone-chain construction keeping only strict turns; for points in the
    first orthant this is the frontier reachable by mixing toward the origin.
    """
    p = _as_matrix(points)
    if p.shape[1] != 2:
        raise ValidationError("hull_2d expects 2-D points")
    if p.shape[0] < 1:
        raise ValidationError("hull_2d needs at least one point")
    pts = np.unique(p, axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if pts.shape[0] == 1:
        return pts
    lower: list[np.ndarray] = []
    for q in pts:
        while len(lower) >= 2:
            o, a = lower[-2], lower[-1]
            left, right = (a[0] - o[0]) * (q[1] - o[1]), (a[1] - o[1]) * (q[0] - o[0])
            # relative to the products' size, so the hull does not depend on the energy scale
            if left - right <= 1e-12 * (abs(left) + abs(right)):
                lower.pop()
            else:
                break
        lower.append(q)
    return np.array(lower)


def equal_line_alignment(points) -> np.ndarray:
    """Per-point closeness to the equal-energy diagonal as min/max coordinate."""
    p = _as_matrix(points)
    return p.min(axis=1) / p.max(axis=1)
