"""clusterlife benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``clusterlife`` CLI command called in-process through
``clusterlife.cli.main``, one at a time, and every output is checked against
the oracle in ``oracle.py``. The run repeats whole passes over the
workload's commands until ``--seconds`` have gone by and times each command
by its median over the run. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes, adds
one pass with tracemalloc around the simulator, and prints the per-layer
metrics. The last line of standard output is one JSON object; results and
spans are also written under ``perfbench/out/``. See README.md for what each
figure means.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here and in
# the import-timing children, and leave the CLI's --threads at its default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CLUSTERLIFE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import selfcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FAULTS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_ROUNDS = 7
IMPORT_PROBE = "import time; t = time.perf_counter(); import clusterlife.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "search_orders_per_s": "orders/s",
    "dynamic_opt_s": "s",
    "simulated_slots_per_s": "slots/s",
    "cooperation_gain": "ratio",
}
PER_LAYER = {
    "energy.inverse_s": "s",
    "energy.inverse_calls": "count",
    "energy.inverse_pairs": "count",
    "allocation.equalize_s": "s",
    "allocation.equalize_rows": "count",
    "allocation.srra_s": "s",
    "model.loads_s": "s",
    "model.loads_rows": "count",
    "static_sched.search_s": "s",
    "static_sched.orders": "count",
    "dynamic_sched.columns_s": "s",
    "dynamic_sched.columns": "count",
    "dynamic_sched.lp_s": "s",
    "simulate.walk_s": "s",
    "simulate.slots": "count",
    "simulate.peak_alloc_mb": "MB",
    "scenario.load_s": "s",
    "geometry.export_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def load_program():
    """Import clusterlife from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import clusterlife.cli
    import clusterlife.scenario

    if Path(clusterlife.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"clusterlife came from {clusterlife.__file__}, not from {SRC}")
    return clusterlife.cli, clusterlife.scenario


def time_import() -> float:
    """Seconds to import clusterlife.cli (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def generate(cli, scenario_mod, workload) -> float:
    """Write every scenario file with ``clusterlife gen`` and read it back; seconds taken."""
    start = time.perf_counter()
    for scn in workload.scenarios.values():
        if scn.document is not None:
            write_json(scn.path, scn.document)
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["gen", *scn.gen_args, "--out", scn.path])
            if code != 0:
                raise RuntimeError(f"clusterlife gen {' '.join(scn.gen_args)} exited {code}")
        scenario_mod.load_scenario(scn.path)
    return time.perf_counter() - start


def prepare(workload):
    """Rescale batteries and precompute the oracle's answers (untimed)."""
    for scn in workload.scenarios.values():
        with open(scn.path) as fh:
            doc = json.load(fh)
        if scn.transform is not None:
            doc = scn.transform(doc)
        if scn.target is not None:
            best = oracle.Instance.from_document(doc).best_static()[0]
            scale = scn.target / best
            for node in doc["nodes"]:
                node["energy"] *= scale
        write_json(scn.path, doc)
        scn.inst = oracle.Instance.from_file(scn.path)
        scn.fact("best")
    for op in workload.ops:
        if op.kind == "dynamic" and not op.faults:
            op.scenario.fact("upper")
            if op.scenario.inst.shannon:
                op.scenario.fact("lower")


def run_op(cli, op, tracer=None, index=0):
    """(seconds, exit code or crash text, stdout, stderr) of one command."""
    if op.csv and os.path.exists(op.csv):
        os.remove(op.csv)
    if op.out_dir:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    root = tracer.root(index) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with root, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejecting the command line
        code = f"exit {exc.code}"
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, workload, tracer=None):
    """One pass over the workload's commands: seconds and figures per command, failures."""
    rec = {"op_s": [], "figures": [], "failures": []}
    state: dict = {}
    for index, op in enumerate(workload.ops):
        seconds, code, out, err = run_op(cli, op, tracer, index)
        problem = None
        figures = {}
        if code != 0:
            problem = f"exit {code}: {err.strip()}"
        else:
            try:
                figures = op.check(op, out, state)
            except CheckFailed as exc:
                problem = str(exc)
            except (KeyError, ValueError, IndexError, OSError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        rec["op_s"].append(seconds)
        rec["figures"].append(figures)
        if problem is not None:
            rec["failures"].append({"op": op.name, "faults": op.faults, "problem": problem})
    return rec


def expected(failure) -> bool:
    """A failure is expected when it is the named fault its operation is known to hit."""
    return any(sign in failure["problem"] for fault in failure["faults"] for sign in FAULTS[fault][1])


def measure(cli, workload, seconds, trace):
    """Run whole passes for about ``seconds``; returns (passes, traced passes, tracers).

    A new round starts if at least half of one more round, as long as the
    last, fits in ``seconds``, so a run ends within half a round of its
    budget rather than up to a whole round short of it (a pass of
    ``exhaustive-shannon`` is a third of the budget). A traced round must
    fit whole, with room for the closing tracemalloc pass, taken as long as
    a traced pass. The first round always runs.
    """
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    closing = 0.0
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(cli, workload))
        if trace:
            tracer = tracing.Tracer(keep_spans=not tracers)
            tracer.install()
            traced_start = time.perf_counter()
            try:
                traced.append(run_pass(cli, workload, tracer))
            finally:
                tracer.uninstall()
            closing = time.perf_counter() - traced_start
            tracers.append(tracer)
        now = time.perf_counter()
        needed = (now - round_start) + closing if trace else (now - round_start) / 2
        if now - start + needed > seconds:
            break
    if trace:
        memory = tracing.Tracer(memory_layer="simulate.walk")
        memory.install()
        try:
            traced.append(run_pass(cli, workload, memory))
        finally:
            memory.uninstall()
        tracers.append(memory)
    return plain, traced, tracers


def median(values):
    return float(statistics.median(values))


def per_command(workload, passes, pick=median) -> dict[str, float]:
    """Each distinct command's time over all its runs in the passes, by ``pick``.

    The host's speed changes in phases of a fraction of a second to tens of
    seconds (a plain Python loop runs 1.4x slower in slow phases), so timed
    metrics use each command's median over every run of it in the run: on
    ten exhaustive-srra runs they spread 0.06-0.12 from medians but
    0.19-0.26 from fastest runs, which hang on one lucky sample. A command
    that appears several times in a pass contributes all its runs; the
    fastest times are kept in the result file.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for op, seconds in zip(workload.ops, p["op_s"]):
            samples.setdefault(op.name, []).append(seconds)
    return {name: float(pick(times)) for name, times in samples.items()}


def end_to_end(workload, passes, setup_s, per_op):
    ops = workload.distinct

    def seconds(kind):
        return sum(per_op[op.name] for op in ops if op.kind == kind)

    # Checked outputs are the same in every pass and every repetition.
    figures = {op.name: f for op, f in zip(workload.ops, passes[0]["figures"])}
    slots = sum(f.get("slots", 0) for f in figures.values())
    l_dyn = sum(f.get("dynamic", 0.0) for f in figures.values())
    l_stat = sum(f.get("static", 0.0) for f in figures.values())
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_op[op.name] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "search_orders_per_s": sum(op.orders for op in ops) / seconds("brute"),
        "dynamic_opt_s": seconds("dynamic"),
        "simulated_slots_per_s": slots / seconds("simulate"),
        "cooperation_gain": l_dyn / l_stat if l_stat else math.nan,
    }


def per_layer(workload, plain, traced, tracers):
    timed = tracers[:-1]  # the last tracer ran the tracemalloc pass
    values = {name: median([t.counts.get(name, 0) for t in timed]) for name in PER_LAYER}
    for layer in tracing.LAYERS:
        values[f"{layer}_s"] = median([t.self_ns[layer] for t in timed]) / 1e9
    values["cli.self_s"] = median([t.self_ns[tracing.ROOT] for t in timed]) / 1e9
    values["simulate.peak_alloc_mb"] = tracers[-1].peak_bytes / 2**20
    traced_wall = sum(per_command(workload, traced[:-1]).values())
    values["trace.overhead_s"] = traced_wall - sum(per_command(workload, plain).values())
    return {name: values[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        cli, scenario_mod = load_program()
    except ImportError as exc:
        print(f"cannot import clusterlife from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "csv").mkdir(parents=True)
    workload = workloads.Workload(args.workload, args.seed, str(run_dir))

    imports = [time_import() for _ in range(SETUP_ROUNDS)]
    gens = [generate(cli, scenario_mod, workload) for _ in range(SETUP_ROUNDS)]
    setup_s = median(imports) + median(gens)
    oracle_problems = selfcheck.run()
    prepare(workload)

    plain, traced, tracers = measure(cli, workload, args.seconds, args.trace)
    runs = plain + traced
    failures = [f for p in runs for f in p["failures"]]
    unexpected = [f for f in failures if not expected(f)]
    medians = per_command(workload, plain)
    fastest = per_command(workload, plain, min)
    if args.trace:
        metrics = per_layer(workload, plain, traced, tracers)
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, plain, setup_s, medians)
        units = END_TO_END
    correct = not unexpected and not oracle_problems and all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": len(runs) * len(workload.ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    names = [op.name for op in workload.ops]
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(plain),
        "op_s_per_pass": [p["op_s"] for p in plain],
        "traced_passes": len(traced),
        "setup": {"import_s": imports, "generate_s": gens},
        "fastest_metrics": end_to_end(workload, plain, setup_s, fastest),
        "operations": [
            {"name": op.name, "argv": op.argv, "faults": op.faults, "runs_per_pass": names.count(op.name),
             "median_s": medians[op.name], "fastest_s": fastest[op.name]}
            for op in workload.distinct
        ],
        "failures": sorted({(f["op"], f["problem"]) for f in failures}),
        "unexpected_failures": sorted({(f["op"], f["problem"]) for f in unexpected}),
        "oracle_selfcheck_failures": oracle_problems,
    }
    write_json(run_dir.with_suffix(".result.json"), detail)
    if args.trace:
        first = tracers[0]
        write_json(run_dir.with_suffix(".trace.json"), {
            "layers": {name: metrics[name] for name in PER_LAYER},
            "missing_names": first.missing,
            "unmeasured_layers": first.unmeasured,
            "per_pass_self_s": [{k: v / 1e9 for k, v in t.self_ns.items()} for t in tracers[:-1]],
            "per_pass_counts": [t.counts for t in tracers[:-1]],
            "spans_first_traced_pass": {
                "fields": ["op", "layer", "start_ns", "end_ns", "parent"],
                "ops": [op.name for op in workload.ops],
                "spans": first.spans,
            },
        })
        for layer in first.unmeasured:
            print(f"layer {layer} unmeasured: none of its wrapped names exist", file=sys.stderr)
    for problem in oracle_problems:
        print(f"oracle self-check failed: {problem}", file=sys.stderr)
    for op_name, problem in detail["unexpected_failures"]:
        print(f"FAILED {op_name}: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:.6g} {unit}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {correct}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
