"""Slot-by-slot battery walk cross-checking analytic lifetimes.

Analytic lifetimes treat the slot count as a real number; the simulator
executes whole slots against double-precision batteries and reports how many
actually complete. A static plan repeats one per-slot cost vector until some
node cannot pay; a dynamic plan runs its columns largest-slot-count first
(floors), then tries each column once more while batteries allow. Both
drain the batteries in fixed blocks of slots and keep run-length segments,
so memory stays bounded however many slots complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamic_sched import DynamicPlan
from .errors import GuardError, ValidationError
from .model import ClusterSpec
from .static_sched import StaticResult

# Slack, relative to a node's per-slot cost, when comparing its battery to
# that cost: a node pays when remaining >= cost * (1 - FEASIBILITY_SLACK),
# which absorbs root-finder residue in the analytic allocations at any scale
# of batteries and path losses. A node that pays nothing never blocks a slot,
# even when an earlier slot left its battery that slack below zero.
FEASIBILITY_SLACK = 1e-9

# Slots drained per block by the walk and by the record replay.
_BLOCK = 4096


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    order: tuple[int, ...]
    energy_spent: np.ndarray
    remaining: np.ndarray


def _blocks(remaining: np.ndarray, cost: np.ndarray, count: int):
    """Drain ``count`` slots in (rows + 1, N) blocks: batteries before each slot, then after the last."""
    while count > 0:
        rows = min(_BLOCK, count)
        steps = np.empty((rows + 1, remaining.size))
        steps[0] = remaining
        steps[1:] = cost
        # accumulate runs row after row: the bits of repeated ``remaining - cost``
        steps = np.subtract.accumulate(steps, axis=0)
        steps.flags.writeable = False
        yield steps
        remaining, count = steps[-1], count - rows


@dataclass(frozen=True)
class SimTrace:
    start: np.ndarray  # batteries before the first slot
    segments: tuple[tuple[tuple[int, ...], np.ndarray, int], ...]  # (order, per-slot cost, slot count) runs
    completed_slots: int
    first_dead: int | None  # smallest node id that blocked the next slot

    def blocks(self):
        """Replay the segments as (order, per-slot cost, batteries after each slot) blocks of the walk."""
        remaining = self.start
        for order, cost, count in self.segments:
            for steps in _blocks(remaining, cost, count):
                remaining = steps[-1]
                yield order, cost, steps[1:]

    def records(self):
        """Replay the per-slot records, one block at a time."""
        slot = 0
        for order, cost, after in self.blocks():
            for remaining in after:
                slot += 1
                yield SlotRecord(slot=slot, order=order, energy_spent=cost, remaining=remaining)


def _walk(cluster: ClusterSpec, columns, max_slots: int) -> SimTrace:
    """Run each (order, cost, count) column to its count or first unpaid slot; guarded at ``max_slots``."""
    start = remaining = cluster.energies.astype(float)
    segments, slot, first_dead = [], 0, None
    for order, cost, count in columns:
        cost = np.array(cost, dtype=float)
        cost.flags.writeable = False
        need = np.where(cost == 0, -np.inf, cost * (1 - FEASIBILITY_SLACK))
        paid = 0
        for steps in _blocks(remaining, cost, min(count, max_slots - slot)):
            paying = np.all(steps[:-1] >= need, axis=1)
            done = paying.size if paying.all() else int(np.argmin(paying))
            remaining = steps[done]
            paid += done
            if done < paying.size:
                if first_dead is None:
                    first_dead = int(np.nonzero(remaining < need)[0][0])
                break
        else:
            if paid < count:  # every slot up to the cap was paid and the column wants more
                raise GuardError(f"simulation exceeded {max_slots} slots")
        if paid:
            segments.append((order, cost, paid))
        slot += paid
    return SimTrace(start, tuple(segments), slot, first_dead)


def simulate_static(result: StaticResult, cluster: ClusterSpec, max_slots: int = 10**7) -> SimTrace:
    """Repeat one schedule's per-slot cost until a node cannot pay."""
    cost = np.asarray(result.per_slot_energy, dtype=float)
    if cost.size != cluster.n:
        raise ValidationError("plan does not match the cluster's node count")
    if not np.any(cost > 0):
        raise GuardError("plan consumes no energy; lifetime is unbounded")
    return _walk(cluster, [(result.order, cost, math.inf)], max_slots)


def simulate_dynamic(plan: DynamicPlan, cluster: ClusterSpec, max_slots: int = 10**7) -> SimTrace:
    """Execute a cooperation plan integrally: floors first, then a greedy pass."""
    if plan.infinite:
        raise GuardError("plan has unbounded lifetime; nothing to simulate")
    support = plan.support()
    for col, _ in support:
        if col.energy.size != cluster.n:
            raise ValidationError("plan does not match the cluster's node count")
    # Largest slot count first; ties broken by schedule order for determinism.
    support.sort(key=lambda item: (-item[1], item[0].order))
    floors = [(col.order, col.energy, math.floor(tau)) for col, tau in support]
    return _walk(cluster, floors + [(order, cost, 1) for order, cost, _ in floors], max_slots)


def simulate(plan, cluster: ClusterSpec) -> SimTrace:
    """Dispatch on plan type: StaticResult or DynamicPlan."""
    if isinstance(plan, StaticResult):
        return simulate_static(plan, cluster)
    if isinstance(plan, DynamicPlan):
        return simulate_dynamic(plan, cluster)
    raise ValidationError(f"cannot simulate a {type(plan).__name__}")
