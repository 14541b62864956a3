"""Multi-schedule cooperation: the column LP and the two-node improvement check.

Schedules cooperate by each running for some (real-valued) number of slots.
Each (schedule, time allocation) pair contributes a per-slot energy vector, a
"column"; the best mixture solves ``max sum(tau)`` subject to the per-node
battery constraints. Time allocation is a continuous degree of freedom in the
general (Shannon) mode, so each schedule contributes its equalized column
plus a deterministic spread of extra allocations sampled from the simplex;
in the low-rate mode energy is allocation-free and each schedule is exactly
one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyMode, Shannon, Srra
from .errors import GuardError, NumericError, ValidationError
from .model import ClusterSpec
from . import static_sched

COLUMN_ENUM_MAX_NODES = 7
# Allocations per schedule in Shannon mode: the equalized one plus samples.
SAMPLES_PER_SCHEDULE = 8
# Least share of the slot a sampled split gives any position, so energy stays finite.
SPLIT_FLOOR = 1e-4
# verify_theorem4's (r, s) witness grid: evenly spaced points per axis, plus
# points that fall short of the static split t by these shares of t (for r)
# and of t - s_low (for s).
_THEOREM4_GRID = 24
_THEOREM4_NEAR = np.geomspace(0.5, 1e-6, 20)

# Simplex pivot tolerance; Bland's rule keeps the walk finite.
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class Column:
    """One schedule with one concrete time allocation and its energy vector."""

    order: tuple[int, ...]
    times: np.ndarray | None  # by node id; None in SRRA mode
    energy: np.ndarray  # per-slot energy by node id


@dataclass(frozen=True)
class DynamicPlan:
    """Cooperating columns with slot counts; lifetime is their total."""

    columns: tuple[Column, ...]
    slot_counts: np.ndarray
    lifetime: float
    active_nodes: tuple[int, ...]

    @property
    def infinite(self) -> bool:
        return math.isinf(self.lifetime)

    def support(self) -> list[tuple[Column, float]]:
        # Basic solutions can carry slot counts that are pure pivot residue
        # (tens of orders of magnitude below the lifetime); drop them.
        cutoff = 0.0 if self.infinite else 1e-12 * self.lifetime
        return [
            (col, float(tau))
            for col, tau in zip(self.columns, self.slot_counts)
            if tau > cutoff
        ]


def simplex_grid_samples(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the open time simplex.

    A Kronecker (additive recurrence) sequence in the unit cube, mapped to
    the simplex through sorted-coordinate gaps, then floored away from the
    boundary by ``SPLIT_FLOOR`` so the energy curve stays finite.
    """
    if n == 1:
        return np.ones((count, 1))
    # Generalized golden-ratio constants give a well-spread Kronecker lattice.
    phi = 1.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (n))
    alphas = np.array([phi ** -(j + 1) % 1.0 for j in range(n - 1)])
    idx = np.arange(1, count + 1)[:, None]
    u = (0.5 + idx * alphas) % 1.0
    u.sort(axis=1)
    padded = np.hstack([np.zeros((count, 1)), u, np.ones((count, 1))])
    t = np.diff(padded, axis=1)
    t = np.maximum(t, SPLIT_FLOOR)
    return t / t.sum(axis=1, keepdims=True)


def build_columns(
    cluster: ClusterSpec,
    mode: EnergyMode,
    samples_per_schedule: int = SAMPLES_PER_SCHEDULE,
    orders=None,
) -> list[Column]:
    """Columns for every schedule (or a supplied subset of orders).

    Shannon mode: the equalized allocation plus ``samples_per_schedule - 1``
    extra deterministic allocations per schedule, less any that starve a
    load. SRRA mode: one allocation-free column per schedule. Each order's
    columns come out together and in input order, so the columns of a prefix
    of the orders are a prefix of the list.
    """
    if samples_per_schedule < 1:
        raise ValidationError("samples_per_schedule must be >= 1")
    if orders is None:
        if cluster.n > COLUMN_ENUM_MAX_NODES:
            raise GuardError(
                f"full schedule enumeration is guarded at N <= {COLUMN_ENUM_MAX_NODES}; "
                "pass an explicit schedule subset for larger clusters"
            )
        orders = static_sched.all_orders(cluster.n)
    orders_arr = np.asarray(orders, dtype=int)
    orders = [tuple(order) for order in orders_arr.tolist()]
    ev = static_sched.evaluate_orders(cluster, orders_arr, mode)
    if isinstance(mode, Srra):
        return [Column(order=o, times=None, energy=ev.energy[r]) for r, o in enumerate(orders)]
    extra = simplex_grid_samples(cluster.n, samples_per_schedule - 1)
    extra_times, extra_energy = static_sched.split_energy(cluster, orders_arr, extra)
    columns: list[Column] = []
    for r, order in enumerate(orders):
        columns.append(Column(order=order, times=ev.times[r], energy=ev.energy[r]))
        if math.isinf(ev.lifetimes[r]):
            continue  # zero loads: the one free column already dominates
        for times, energy in zip(extra_times[r], extra_energy[r]):
            if np.all(np.isfinite(energy)):  # else the split starves a heavy load
                columns.append(Column(order=order, times=times, energy=energy))
    return columns


def solve_lp(columns, energies) -> DynamicPlan:
    """Maximize total slots subject to per-node battery constraints.

    Dense primal simplex on ``max 1.tau, A tau <= E, tau >= 0`` with Bland's
    anti-cycling rule; the slack basis is feasible because E > 0. A column
    that consumes no energy at all makes the LP unbounded, which is reported
    as an infinite-lifetime plan.
    """
    columns = list(columns)
    if not columns:
        raise ValidationError("solve_lp needs at least one column")
    e = np.asarray(energies, dtype=float)
    n = e.size
    a = np.column_stack([c.energy for c in columns])
    if a.shape[0] != n:
        raise ValidationError("column energy dimension does not match energies")
    if np.any(a < -_PIVOT_TOL):
        raise ValidationError("column energies must be nonnegative")
    if not np.all(np.isfinite(a)):
        raise ValidationError("column energies must be finite")
    m = len(columns)
    dead = ~np.any(a > 0, axis=0)  # a column with no positive entry spends nothing
    if np.any(dead):
        tau = np.zeros(m)
        tau[np.argmax(dead)] = np.inf
        return DynamicPlan(tuple(columns), tau, math.inf, tuple())

    # Equilibrate before building the tableau: divide row k by E_k and column
    # j by its largest scaled entry. Column scaling only re-units the slot
    # count variable (undone on extraction), but it keeps every structural
    # entry in (0, 1] even when sampled allocations cost wildly more energy
    # than the equalized one, which a fixed pivot tolerance cannot survive.
    with np.errstate(over="ignore"):
        a_scaled = a / e[:, None]
    # A column that overflows here lasts under 1e-308 slots: it stays out, at zero slots.
    kept = np.nonzero(np.all(np.isfinite(a_scaled), axis=0))[0]
    a_scaled, m = a_scaled[:, kept], kept.size  # m: structural columns in the tableau
    col_scale = np.max(a_scaled, axis=0)
    a_scaled = a_scaled / col_scale[None, :]

    # Tableau: columns [A | I], rhs 1, objective row for max sum(tau).
    tab = np.hstack([a_scaled, np.eye(n), np.ones((n, 1))])
    # Normalizing the objective keeps the reduced-cost test well-scaled; the
    # lifetime is recovered from tau, not from the objective row.
    obj = 1.0 / col_scale
    cost = np.concatenate([obj / obj.max(initial=0.0), np.zeros(n)])
    basis = list(range(m, m + n))
    for _ in range(200000):
        cb = cost[basis]
        y = cb @ tab[:, :-1]
        reduced = cost - y
        enter = -1
        for j in range(m + n):
            if reduced[j] > _PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        col = tab[:, enter]
        leave = -1
        best = np.inf
        for i in range(n):
            if col[i] > _PIVOT_TOL:
                r = tab[i, -1] / col[i]
                if r < best - 1e-15 or (abs(r - best) <= 1e-15 and (leave < 0 or basis[i] < basis[leave])):
                    best = r
                    leave = i
        if leave < 0:
            # Unbounded direction; only possible through a zero-energy column.
            tau = np.zeros(len(columns))
            return DynamicPlan(tuple(columns), tau, math.inf, tuple())
        piv = tab[leave, enter]
        tab[leave] /= piv
        for i in range(n):
            if i != leave and tab[i, enter] != 0.0:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter
    else:
        raise NumericError("simplex failed to terminate")

    # Recompute the basic solution from the original (scaled) data: solving
    # B x_B = rhs directly sheds the rounding accumulated across pivots.
    xb = tab[:, -1]
    try:
        basis_matrix = np.hstack([a_scaled, np.eye(n)])[:, basis]
        xb = np.linalg.solve(basis_matrix, np.ones(n))
    except np.linalg.LinAlgError:
        pass  # keep the tableau values; feasibility is re-checked below
    tau = np.zeros(len(columns))
    for i, b in enumerate(basis):
        if b < m:
            tau[kept[b]] = max(float(xb[i]), 0.0) / col_scale[b]
    lifetime = float(tau.sum())
    used = a @ tau
    if np.any(used > e * (1 + _FEAS_TOL) + _FEAS_TOL):
        raise NumericError("simplex returned an infeasible plan")
    active = tuple(int(i) for i in np.nonzero(used >= e - _FEAS_TOL * np.maximum(e, 1.0))[0])
    return DynamicPlan(tuple(columns), tau, lifetime, active)


def dynamic_lifetime(
    cluster: ClusterSpec,
    mode: EnergyMode,
    samples_per_schedule: int = SAMPLES_PER_SCHEDULE,
    orders=None,
) -> DynamicPlan:
    """Build columns for the cluster and solve the cooperation LP."""
    columns = build_columns(cluster, mode, samples_per_schedule, orders=orders)
    return solve_lp(columns, cluster.energies)


def lifetime_by_schedule_count(
    cluster: ClusterSpec, mode: EnergyMode, samples_per_schedule: int = SAMPLES_PER_SCHEDULE
) -> list[float]:
    """LP lifetime using columns from the best m static schedules, m = 1..N!.

    Schedules are ranked by their static lifetime and their columns built
    once; the LP for m runs on the columns of the first m ranked orders. The
    column sets are nested, so the sequence is non-decreasing by construction.
    It reaches the full LP's lifetime only once the ranked prefix holds an
    optimal support, whose orders need not rank high as static orders.
    """
    if cluster.n > COLUMN_ENUM_MAX_NODES:
        raise GuardError(f"the schedule-count sweep is guarded at N <= {COLUMN_ENUM_MAX_NODES}")
    orders = static_sched.all_orders(cluster.n)
    lifetimes = static_sched.evaluate_orders(cluster, orders, mode).lifetimes
    ranked = orders[np.argsort(-lifetimes, kind="stable")]
    columns = build_columns(cluster, mode, samples_per_schedule, orders=ranked)
    # the columns of the first m orders end where the (m+1)-th order's begin
    ends = [j for j in range(1, len(columns)) if columns[j].order != columns[j - 1].order] + [len(columns)]
    return [solve_lp(columns[:end], cluster.energies).lifetime for end in ends]


@dataclass(frozen=True)
class Theorem4Report:
    """Two-node static-vs-dynamic comparison with an improvement witness."""

    static_lifetime: float
    dynamic_lifetime: float
    improvement: float
    static_order: tuple[int, ...]
    witness: tuple[float, float] | None  # (r, s) allocations, one per schedule
    witness_lifetime: float | None


def verify_theorem4(cluster: ClusterSpec, mode: EnergyMode = Shannon()) -> Theorem4Report:
    """Look for two cooperating schedules that beat the best single one (N = 2).

    One cooperation LP runs over ``build_columns(cluster, mode, 64)`` plus,
    when the marginal entropy h exceeds the conditional h12 (the condition
    for a gain in the symmetric setting), a grid of first-node times: r < t
    for the best static order and s > s_low = (h*t - (h - h12)) / h12 for
    the other, t being the static split. The grid is evenly spaced and also
    closes geometrically on t along both axes, where weakly correlated pairs
    gain. It is priced in one ``split_energy`` call; a split that starves a
    load is skipped, as ``build_columns`` does. When the plan beats static by
    more than 1e-9 relative, the witness is its support's first-node time for
    each order; those two columns alone last the plan's lifetime.
    """
    if cluster.n != 2:
        raise ValidationError("verify_theorem4 requires exactly two nodes")
    if not isinstance(mode, Shannon):
        raise ValidationError("verify_theorem4 is a Shannon-mode construction")
    static_best = static_sched.brute_force(cluster, mode)

    orders = (static_best.order, tuple(reversed(static_best.order)))
    h, h12 = float(static_best.loads[0]), float(static_best.loads[1])
    t = float(static_best.times[orders[0][0]])

    columns = build_columns(cluster, mode, 64)
    if h > h12 + 1e-12:
        s_low = min(max((h * t - (h - h12)) / h12, 0.0), 1.0 - 2e-3)
        r = np.concatenate([np.linspace(max(t - 0.4, 1e-3), t * (1 - 1e-6), _THEOREM4_GRID), t * (1 - _THEOREM4_NEAR)])
        s = np.concatenate([np.linspace(s_low + 1e-6, 1 - 1e-3, _THEOREM4_GRID), t - (t - s_low) * _THEOREM4_NEAR])
        first = np.stack([r, s])  # r for the best order, s for the other
        times, energy = static_sched.split_energy(cluster, orders, np.stack([first, 1.0 - first], axis=-1))
        finite = np.all(np.isfinite(energy), axis=-1)
        columns += [Column(orders[i], times[i, j], energy[i, j]) for i, j in zip(*np.nonzero(finite))]
    plan = solve_lp(columns, cluster.energies)

    witness = witness_lifetime = None
    if plan.lifetime > static_best.lifetime * (1 + 1e-9):  # a gain needs both orders in the support
        first_time = {col.order: float(col.times[col.order[0]]) for col, _ in plan.support()}
        witness, witness_lifetime = (first_time[orders[0]], first_time[orders[1]]), plan.lifetime
    return Theorem4Report(
        static_lifetime=static_best.lifetime,
        dynamic_lifetime=plan.lifetime,
        improvement=plan.lifetime - static_best.lifetime,
        static_order=static_best.order,
        witness=witness,
        witness_lifetime=witness_lifetime,
    )
