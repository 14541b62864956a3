"""Command-line front end.

Subcommands: gen, eval, static-opt, dynamic-opt, geometry-export, simulate.
Human-readable summaries go to stdout; machine output is CSV (one header
row, fixed column order, 12 significant digits, rows ending in CRLF). No
cell ever needs quoting, so each row is one joined line. ``simulate``
streams its per-slot CSV one walk block (``SimTrace.blocks()``) at a time,
so its memory does not grow with the slot count. Exit codes: 0 success,
2 validation error, 3 guard violation, 4 numeric/model failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dynamic_sched, geometry, scenario, static_sched
from .energy import Shannon, Srra
from .simulate import simulate_dynamic, simulate_static
from .errors import ClusterLifeError, GuardError, ValidationError
from .model import Schedule

_FMT = "{:.12g}"
# --threads is still parsed so existing scripts keep running; nothing reads it.
_THREADS_HELP = "accepted and ignored: the search runs in one batched call"


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _line(cells) -> str:
    return ",".join(cells) + "\r\n"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_line(header))
        fh.writelines(_line(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows)


def _simulate_csv(path, trace, n):
    """Per-slot rows (slot, schedule, spent0.., remaining0..), written one walk block at a time."""
    header = ["slot", "schedule"] + [f"spent{k}" for k in range(n)] + [f"remaining{k}" for k in range(n)]
    with open(path, "w", newline="") as fh:
        fh.write(_line(header))
        done = 0
        for order, cost, after in trace.blocks():
            prefix = ",".join(["-".join(map(str, order)), *map(_fmt, cost)]) + ","
            fh.writelines(
                f"{slot},{prefix}{','.join(map(_FMT.format, row))}\r\n"
                for slot, row in enumerate(after.tolist(), done + 1)
            )
            done += len(after)


def _mode_override(scn: scenario.Scenario, name: str | None):
    if name is None:
        return scn.mode
    return Shannon() if name == "shannon" else Srra()  # argparse's choices admit no other name


def _order_arg(text: str, n: int):
    try:
        order = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValidationError(f"--order must be comma-separated integers, got {text!r}")
    if sorted(order) != list(range(n)):
        raise ValidationError(f"--order must be a permutation of 0..{n - 1}, got {order}")
    return order


def _static_rows(result, cluster):
    """Formatted (node, load_bits, time, per_slot_energy) rows by node id; SRRA times are a 1/N share."""
    loads = Schedule(result.order, result.loads).loads_by_node(cluster.n)
    times = result.times if result.times is not None else np.full(cluster.n, 1.0 / cluster.n)
    return [(str(k), _fmt(loads[k]), _fmt(times[k]), _fmt(result.per_slot_energy[k])) for k in range(cluster.n)]


def _print_static(result, cluster):
    print(f"method: {result.method}")
    print(f"order: {','.join(str(i) for i in result.order)}")
    print(f"lifetime: {_fmt(result.lifetime)}")
    print("node,load_bits,time,per_slot_energy")
    for row in _static_rows(result, cluster):
        print(",".join(row))


def _static_csv(path, result, cluster):
    rows = [row + (result.lifetime,) for row in _static_rows(result, cluster)]
    _write_csv(path, ["node", "load_bits", "time", "per_slot_energy", "lifetime"], rows)


def cmd_gen(args):
    correlation = (
        {"model": "bit_distance", "n": args.bits}
        if args.model == "bit"
        else {"model": "gaussian", "sigma2": args.sigma2, "a": args.decay, "offset": args.offset}
    )
    energy_mode = {"mode": "shannon"} if args.mode == "shannon" else {"mode": "srra"}
    doc = scenario.generate_scenario(
        seed=args.seed,
        n_nodes=args.nodes,
        area_side=args.area,
        correlation=correlation,
        energy_mode=energy_mode,
        gamma=args.gamma,
        energy_range=(args.energy_min, args.energy_max),
        min_separation=args.min_sep,
    )
    scenario.write_scenario(doc, args.out)
    print(f"wrote scenario with {args.nodes} nodes to {args.out}")
    return 0


def cmd_eval(args):
    scn = scenario.load_scenario(args.scenario)
    mode = _mode_override(scn, args.mode)
    order = _order_arg(args.order, scn.cluster.n)
    result = static_sched.evaluate_schedule(order, scn.cluster, mode)
    _print_static(result, scn.cluster)
    if args.csv:
        _static_csv(args.csv, result, scn.cluster)
    return 0


def cmd_static_opt(args):
    scn = scenario.load_scenario(args.scenario)
    mode = _mode_override(scn, args.mode)
    cluster = scn.cluster
    if args.method == "brute":
        result = static_sched.brute_force(cluster, mode)
    elif args.method == "nnn":
        result = static_sched.nnn(cluster, mode)
    elif args.method == "mcn":
        if not isinstance(mode, Srra):
            raise ValidationError("--method mcn requires --mode srra (or an srra scenario)")
        result = static_sched.mcn(cluster, mode)
    else:  # "shp"; argparse's choices reject any other name
        result = static_sched.shp_heuristic(cluster, mode)
    _print_static(result, cluster)
    if args.csv:
        _static_csv(args.csv, result, cluster)
    return 0


def cmd_dynamic_opt(args):
    scn = scenario.load_scenario(args.scenario)
    mode = _mode_override(scn, args.mode)
    cluster = scn.cluster
    samples = args.samples
    if samples is None:
        samples = scn.solver.get("samples_per_schedule", dynamic_sched.SAMPLES_PER_SCHEDULE)
    static_result = static_sched.brute_force(cluster, mode)
    plan = dynamic_sched.dynamic_lifetime(cluster, mode, samples_per_schedule=samples)
    print(f"static_lifetime: {_fmt(static_result.lifetime)}")
    print(f"dynamic_lifetime: {_fmt(plan.lifetime)}")
    print(f"gain: {_fmt(plan.lifetime - static_result.lifetime)}")
    print("schedule,slots")
    rows = []
    for col, tau in sorted(plan.support(), key=lambda item: (-item[1], item[0].order)):
        label = "-".join(str(i) for i in col.order)
        print(f"{label},{_fmt(tau)}")
        rows.append((label, tau, plan.lifetime, static_result.lifetime))
    if args.csv:
        _write_csv(args.csv, ["schedule", "slots", "dynamic_lifetime", "static_lifetime"], rows)
    return 0


def cmd_geometry_export(args):
    scn = scenario.load_scenario(args.scenario)
    cluster = scn.cluster
    os.makedirs(args.out_dir, exist_ok=True)
    if isinstance(scn.mode, Srra):
        points = geometry.srra_points(cluster, scn.mode)
        rows = [
            ("-".join(str(i) for i in p.order),) + tuple(p.energy)
            for p in points
        ]
        header = ["schedule"] + [f"e{k}" for k in range(cluster.n)]
        _write_csv(os.path.join(args.out_dir, "points.csv"), header, rows)
        align = geometry.equal_line_alignment([p.energy for p in points])
        best = int(np.argmax(align))
        print(f"wrote {len(points)} SRRA points; closest to equal-energy line: "
              f"{'-'.join(str(i) for i in points[best].order)}")
        return 0
    if cluster.n > 3:
        raise GuardError("geometry export supports N <= 3 in Shannon mode")
    # t{k} is the time of polling position k, as the curve was sampled
    header = [f"t{k}" for k in range(cluster.n)] + [f"e{k}" for k in range(cluster.n)]
    energies = []
    for order in static_sched.all_orders(cluster.n).tolist():
        times, energy = geometry.surface_sample(order, cluster, grid_density=args.grid)
        label = "-".join(str(i) for i in order)
        _write_csv(os.path.join(args.out_dir, f"curve_{label}.csv"), header, np.hstack([times[:, order], energy]))
        energies.append(energy)
    energies = np.vstack(energies)
    if cluster.n == 2:
        _write_csv(os.path.join(args.out_dir, "hull.csv"), ["e0", "e1"], geometry.hull_2d(energies))
        report = geometry.equal_energy_crossing(cluster)
        rows = [
            ("-".join(str(i) for i in c.order), c.t_first, c.point[0], c.point[1], c.origin_distance)
            for c in report.crossings
        ]
        _write_csv(
            os.path.join(args.out_dir, "crossings.csv"),
            ["schedule", "t_first", "e0", "e1", "origin_distance"],
            rows,
        )
        print(f"winner: {'-'.join(str(i) for i in report.winner)}")
    else:
        _write_csv(os.path.join(args.out_dir, "points.csv"), [f"e{k}" for k in range(cluster.n)], energies)
    print(f"exported geometry for N={cluster.n} to {args.out_dir}")
    return 0


def cmd_simulate(args):
    scn = scenario.load_scenario(args.scenario)
    mode = _mode_override(scn, args.mode)
    cluster = scn.cluster
    if args.plan == "static":
        result = static_sched.brute_force(cluster, mode)
        trace = simulate_static(result, cluster)
        analytic = result.lifetime
    else:
        samples = args.samples
        if samples is None:
            samples = scn.solver.get("samples_per_schedule", dynamic_sched.SAMPLES_PER_SCHEDULE)
        plan = dynamic_sched.dynamic_lifetime(cluster, mode, samples_per_schedule=samples)
        trace = simulate_dynamic(plan, cluster)
        analytic = plan.lifetime
    print(f"analytic_lifetime: {_fmt(analytic)}")
    print(f"completed_slots: {trace.completed_slots}")
    print(f"first_dead: {trace.first_dead if trace.first_dead is not None else 'none'}")
    if args.csv:
        _simulate_csv(args.csv, trace, cluster.n)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterlife",
        description="Lifetime maximization for single-hop TDMA sensor clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic random scenario")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--area", type=float, default=3.0)
    gen.add_argument("--model", choices=["bit", "gauss"], default="bit")
    gen.add_argument("--bits", type=int, default=5, help="bit-distance max bits n")
    gen.add_argument("--sigma2", type=float, default=1.0)
    gen.add_argument("--decay", type=float, default=1.0, help="gaussian distance decay a")
    gen.add_argument("--offset", type=float, default=3.0, help="gaussian entropy offset (bits)")
    gen.add_argument("--mode", choices=["shannon", "srra"], default="shannon")
    gen.add_argument("--gamma", type=float, default=2.0)
    gen.add_argument("--energy-min", type=float, default=0.5)
    gen.add_argument("--energy-max", type=float, default=2.0)
    gen.add_argument("--min-sep", type=float, default=0.35)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    ev = sub.add_parser("eval", help="evaluate one explicit polling order")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--order", required=True, help="comma-separated node ids")
    ev.add_argument("--mode", choices=["shannon", "srra"])
    ev.add_argument("--csv")
    ev.set_defaults(func=cmd_eval)

    so = sub.add_parser("static-opt", help="search for the best static schedule")
    so.add_argument("--scenario", required=True)
    so.add_argument("--method", choices=["brute", "nnn", "mcn", "shp"], default="brute")
    so.add_argument("--mode", choices=["shannon", "srra"])
    so.add_argument("--threads", type=int, help=_THREADS_HELP)
    so.add_argument("--csv")
    so.set_defaults(func=cmd_static_opt)

    dyn = sub.add_parser("dynamic-opt", help="solve the multi-schedule cooperation LP")
    dyn.add_argument("--scenario", required=True)
    dyn.add_argument("--mode", choices=["shannon", "srra"])
    dyn.add_argument("--samples", type=int, help="time-allocation samples per schedule")
    dyn.add_argument("--threads", type=int, help=_THREADS_HELP)
    dyn.add_argument("--csv")
    dyn.set_defaults(func=cmd_dynamic_opt)

    geo = sub.add_parser("geometry-export", help="export energy-space curves/hulls as CSV")
    geo.add_argument("--scenario", required=True)
    geo.add_argument("--grid", type=int, default=50)
    geo.add_argument("--out-dir", required=True)
    geo.set_defaults(func=cmd_geometry_export)

    sim = sub.add_parser("simulate", help="slot-by-slot battery simulation of a plan")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--plan", choices=["static", "dynamic"], default="static")
    sim.add_argument("--mode", choices=["shannon", "srra"])
    sim.add_argument("--samples", type=int)
    sim.add_argument("--threads", type=int, help=_THREADS_HELP)
    sim.add_argument("--csv")
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except ClusterLifeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
