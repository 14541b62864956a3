"""Lifetime maximization for single-hop TDMA sensor clusters.

A cluster of battery-powered nodes reports correlated observations to a base
station over a shared unit time slot. Polling order determines each node's
conditional load; splitting the slot determines each node's per-slot energy.
This package computes loads, equalized allocations, optimal static schedules,
multi-schedule cooperation plans, the energy-space geometry behind them, and
a slot-by-slot simulator cross-checking the analytic lifetimes.
"""

from .allocation import equalize_batch, lifetime_srra_batch
from .dynamic_sched import (
    Column,
    DynamicPlan,
    Theorem4Report,
    build_columns,
    dynamic_lifetime,
    lifetime_by_schedule_count,
    simplex_grid_samples,
    solve_lp,
    verify_theorem4,
)
from .energy import LN2, EnergyMode, Shannon, Srra, min_time_for_energy, srra_error, tx_energy
from .errors import (
    ClusterLifeError,
    GuardError,
    InfeasibleEnergyError,
    ModelDegeneracyError,
    NumericError,
    ValidationError,
)
from .geometry import (
    Crossing,
    CrossingReport,
    EnergyPoint,
    SubsetResult,
    best_over_all_m,
    best_over_subsets,
    equal_energy_crossing,
    equal_line_alignment,
    hull_2d,
    lifetime_from_weights,
    min_norm_weights,
    srra_points,
    surface_sample,
)
from .model import HALF_LOG2_2PIE, BitDistance, ClusterSpec, GaussianField, NodeSpec, Schedule
from .scenario import (
    FORMAT_VERSION,
    Scenario,
    dump_scenario,
    generate_scenario,
    load_scenario,
    parse_scenario,
    write_scenario,
)
from .simulate import SimTrace, SlotRecord, simulate, simulate_dynamic, simulate_static
from .static_sched import (
    BRUTE_FORCE_MAX_NODES,
    StaticResult,
    brute_force,
    evaluate_schedule,
    mcn,
    nnn,
    path_length,
    shp_heuristic,
    two_opt_path,
)

__version__ = "1.0.0"

__all__ = [
    "BRUTE_FORCE_MAX_NODES",
    "BitDistance",
    "ClusterLifeError",
    "ClusterSpec",
    "Column",
    "Crossing",
    "CrossingReport",
    "DynamicPlan",
    "EnergyMode",
    "EnergyPoint",
    "FORMAT_VERSION",
    "GaussianField",
    "GuardError",
    "HALF_LOG2_2PIE",
    "InfeasibleEnergyError",
    "LN2",
    "ModelDegeneracyError",
    "NodeSpec",
    "NumericError",
    "Scenario",
    "Schedule",
    "Shannon",
    "SimTrace",
    "SlotRecord",
    "Srra",
    "StaticResult",
    "SubsetResult",
    "Theorem4Report",
    "ValidationError",
    "best_over_all_m",
    "best_over_subsets",
    "brute_force",
    "build_columns",
    "dump_scenario",
    "dynamic_lifetime",
    "equal_energy_crossing",
    "equal_line_alignment",
    "equalize_batch",
    "evaluate_schedule",
    "generate_scenario",
    "hull_2d",
    "lifetime_by_schedule_count",
    "lifetime_from_weights",
    "lifetime_srra_batch",
    "load_scenario",
    "mcn",
    "min_norm_weights",
    "min_time_for_energy",
    "nnn",
    "parse_scenario",
    "path_length",
    "shp_heuristic",
    "simplex_grid_samples",
    "simulate",
    "simulate_dynamic",
    "simulate_static",
    "solve_lp",
    "srra_error",
    "srra_points",
    "surface_sample",
    "tx_energy",
    "two_opt_path",
    "verify_theorem4",
    "write_scenario",
]
