"""Energy-space view of scheduling: hypersurfaces, mixtures, hulls.

Each schedule traces a convex surface in the first orthant of per-node
energy space as its time allocation sweeps the simplex; cooperation reaches
convex combinations of surface points, and the best mixture of m chosen
points is the one closest to the origin on their affine patch. In the
low-rate regime every schedule collapses to a single point and the static
winner is the point hugging the equal-energy diagonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamic_sched import Column, build_columns
from .energy import Srra, tx_energy
from .errors import GuardError, ValidationError
from .model import ClusterSpec
from . import static_sched

_SUBSET_GUARD = 200000
_MIN_NORM_MAX_POINTS = 16


def surface_sample(order, cluster: ClusterSpec, grid_density: int = 50, floor: float = 1e-4) -> list[Column]:
    """Columns of one schedule on a deterministic simplex lattice of splits.

    For N = 2 the lattice is a 1-D sweep; in general it is the set of
    compositions of ``grid_density`` into N positive parts, each giving the
    time of one polling position. Every position keeps at least ``floor``
    time so the energy stays finite. Column times are by node id.
    """
    order = tuple(order)
    n = cluster.n
    if grid_density < n:
        raise ValidationError("grid_density must be at least the node count")
    times = []
    for comp in _compositions(grid_density, n):
        t = np.maximum(np.array(comp, dtype=float) / grid_density, floor)
        times.append(t / t.sum())
    times, energy = static_sched.split_energy(cluster, [order], np.array(times))
    return [Column(order=order, times=t, energy=e) for t, e in zip(times[0], energy[0])]


def _compositions(total: int, parts: int):
    """All positive integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def srra_points(cluster: ClusterSpec, mode: Srra) -> list[Column]:
    """The N! allocation-free columns of the low-rate regime."""
    if cluster.n > static_sched.BRUTE_FORCE_MAX_NODES:
        raise GuardError("full schedule enumeration is too large")
    return build_columns(cluster, mode, orders=static_sched.all_orders(cluster.n))


def min_norm_weights(points) -> np.ndarray:
    """Convex-combination weights minimizing the combined point's norm.

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


def lifetime_from_weights(points, r, energies) -> float:
    """Lifetime of a weighted mixture: min over nodes of E / combined energy."""
    p = _as_matrix(points)
    r = np.asarray(r, dtype=float)
    if abs(r.sum() - 1.0) > 1e-9 or np.any(r < -1e-12):
        raise ValidationError("weights must lie on the simplex")
    combined = r @ p
    e = np.asarray(energies, dtype=float)
    pos = combined > 0
    if not np.any(pos):
        raise ValidationError("combined energy point is identically zero")
    return float(np.min(e[pos] / combined[pos]))


@dataclass(frozen=True)
class SubsetResult:
    lifetime: float
    subset: tuple[int, ...]
    weights: np.ndarray


def best_over_subsets(points, energies, m: int) -> SubsetResult:
    """Best lifetime over all size-m mixtures of the given schedule points."""
    p = _as_matrix(points)
    count = p.shape[0]
    if not (1 <= m <= count):
        raise ValidationError(f"subset size {m} out of range 1..{count}")
    if math.comb(count, m) > _SUBSET_GUARD:
        raise GuardError("too many subsets to enumerate")
    best = None
    for subset in itertools.combinations(range(count), m):
        r = min_norm_weights(p[list(subset)])
        lifetime = lifetime_from_weights(p[list(subset)], r, energies)
        if best is None or lifetime > best.lifetime * (1 + 1e-12):
            best = SubsetResult(lifetime=lifetime, subset=subset, weights=r)
    return best


def best_over_all_m(points, energies, max_m: int | None = None) -> tuple[float, list[float]]:
    """Overall best mixture lifetime and the per-m sequence L_1..L_max."""
    p = _as_matrix(points)
    limit = p.shape[0] if max_m is None else min(max_m, p.shape[0])
    seq = [best_over_subsets(p, energies, m).lifetime for m in range(1, limit + 1)]
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


def equal_energy_crossing(cluster: ClusterSpec, orders=((0, 1), (1, 0))) -> CrossingReport:
    """Where each two-node schedule curve meets the equal-energy diagonal.

    Parametrized by the first-polled node's time t, the energy difference
    e0(t) - e1(t) is strictly monotone, so bisection pins the crossing; it
    coincides with the equalized allocation whenever the two batteries are
    equal, and the crossing nearer the origin belongs to the better static
    schedule.
    """
    if cluster.n != 2:
        raise ValidationError("equal_energy_crossing requires exactly two nodes")
    crossings = []
    for order in orders:
        loads = cluster.loads(np.array([order]))[0]  # fixed along the curve
        node_of = np.argsort(order)  # inverse permutation: position of each node id

        def energy(t):
            return tx_energy(loads, np.array([t, 1.0 - t]))[node_of] * cluster.path_losses

        def diff(t):
            e0, e1 = energy(t)
            return e0 - e1

        lo, hi = 1e-9, 1.0 - 1e-9
        d_lo, d_hi = diff(lo), diff(hi)
        if d_lo == 0:
            t_star = lo
        elif d_hi == 0:
            t_star = hi
        else:
            if (d_lo > 0) == (d_hi > 0):
                raise ValidationError("energy curves do not cross the diagonal")
            increasing = d_hi > d_lo
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                d_mid = diff(mid)
                if (d_mid > 0) == increasing:
                    hi = mid
                else:
                    lo = mid
            t_star = 0.5 * (lo + hi)
        point = energy(t_star)
        crossings.append(
            Crossing(order=tuple(order), t_first=t_star, point=point, origin_distance=float(np.linalg.norm(point)))
        )
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
            cross = (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0])
            if cross <= 1e-15:
                lower.pop()
            else:
                break
        lower.append(q)
    return np.array(lower)


def equal_line_alignment(points) -> np.ndarray:
    """Per-point closeness to the equal-energy diagonal as min/max coordinate."""
    p = _as_matrix(points)
    return p.min(axis=1) / p.max(axis=1)
