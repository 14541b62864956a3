"""Lifetime maximization for single-hop TDMA sensor clusters.

A cluster of battery-powered nodes reports correlated observations to a base
station over a shared unit time slot. Polling order determines each node's
conditional load; splitting the slot determines each node's per-slot energy.
This package computes loads, equalized allocations, optimal static schedules,
multi-schedule cooperation plans, the energy-space geometry behind them, and
a slot-by-slot simulator cross-checking the analytic lifetimes.
"""

from .dynamic_sched import dynamic_lifetime, lifetime_by_schedule_count, verify_theorem4
from .energy import LN2, Shannon, Srra, min_time_for_energy, srra_error, tx_energy
from .errors import (
    ClusterLifeError,
    GuardError,
    InfeasibleEnergyError,
    ModelDegeneracyError,
    NumericError,
    ValidationError,
)
from .geometry import (
    best_over_all_m,
    equal_energy_crossing,
    equal_line_alignment,
    hull_2d,
    srra_points,
    surface_sample,
)
from .model import HALF_LOG2_2PIE, BitDistance, ClusterSpec, GaussianField, NodeSpec
from .simulate import simulate_dynamic, simulate_static
from .static_sched import brute_force, evaluate_schedule, mcn, nnn

__version__ = "1.0.0"

__all__ = [
    "BitDistance",
    "ClusterLifeError",
    "ClusterSpec",
    "GaussianField",
    "GuardError",
    "HALF_LOG2_2PIE",
    "InfeasibleEnergyError",
    "LN2",
    "ModelDegeneracyError",
    "NodeSpec",
    "NumericError",
    "Shannon",
    "Srra",
    "ValidationError",
    "best_over_all_m",
    "brute_force",
    "dynamic_lifetime",
    "equal_energy_crossing",
    "equal_line_alignment",
    "evaluate_schedule",
    "hull_2d",
    "lifetime_by_schedule_count",
    "mcn",
    "min_time_for_energy",
    "nnn",
    "simulate_dynamic",
    "simulate_static",
    "srra_error",
    "srra_points",
    "surface_sample",
    "tx_energy",
    "verify_theorem4",
]
