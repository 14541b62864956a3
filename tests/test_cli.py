import csv
import json
import re
import shutil
import tracemalloc

import pytest

from clusterlife import brute_force, cli, scenario, simulate as simulate_module
from clusterlife.cli import main
from clusterlife.static_sched import BRUTE_FORCE_MAX_NODES


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def scenario_file(tmp_path, capsys):
    path = tmp_path / "scn.json"
    code, out, _ = run(
        ["gen", "--seed", "7", "--nodes", "4", "--model", "bit", "--bits", "5",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    return path


def test_gen_writes_valid_deterministic_file(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--seed", "3", "--nodes", "3", "--out", str(p1)], capsys)[0] == 0
    assert run(["gen", "--seed", "3", "--nodes", "3", "--out", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["version"] == 1
    assert len(doc["nodes"]) == 3


def test_eval_csv_has_twelve_significant_digits(scenario_file, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    code, out, _ = run(
        ["eval", "--scenario", str(scenario_file), "--order", "0,1,2,3",
         "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "lifetime:" in out
    rows = read_csv(out_csv)
    assert rows[0] == ["node", "load_bits", "time", "per_slot_energy", "lifetime"]
    assert len(rows) == 5
    for cell in rows[1][1:]:
        # 12 significant digits: mantissa digits (dot excluded) <= 12
        mantissa = re.sub(r"[-+.]|e.*", "", cell).lstrip("0")
        assert len(mantissa) <= 12
        float(cell)


def test_static_opt_brute_vs_eval(scenario_file, capsys):
    code, out, _ = run(["static-opt", "--scenario", str(scenario_file)], capsys)
    assert code == 0
    order = re.search(r"order: ([\d,]+)", out).group(1)
    best = float(re.search(r"lifetime: ([\d.eE+-]+)", out).group(1))
    code, out, _ = run(
        ["eval", "--scenario", str(scenario_file), "--order", order], capsys
    )
    assert code == 0
    assert float(re.search(r"lifetime: ([\d.eE+-]+)", out).group(1)) == pytest.approx(best)


def test_static_opt_methods_and_threads(scenario_file, capsys):
    code, out, _ = run(
        ["static-opt", "--scenario", str(scenario_file), "--method", "nnn"], capsys
    )
    assert code == 0 and "method: nnn" in out
    code1, out1, _ = run(
        ["static-opt", "--scenario", str(scenario_file), "--threads", "1"], capsys
    )
    code4, out4, _ = run(
        ["static-opt", "--scenario", str(scenario_file), "--threads", "4"], capsys
    )
    assert code1 == code4 == 0 and out1 == out4


def test_dynamic_opt(scenario_file, tmp_path, capsys):
    out_csv = tmp_path / "dyn.csv"
    code, out, _ = run(
        ["dynamic-opt", "--scenario", str(scenario_file), "--samples", "4",
         "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    stat = float(re.search(r"static_lifetime: ([\d.eE+-]+)", out).group(1))
    dyn = float(re.search(r"dynamic_lifetime: ([\d.eE+-]+)", out).group(1))
    assert dyn >= stat * (1 - 1e-9)
    rows = read_csv(out_csv)
    assert rows[0] == ["schedule", "slots", "dynamic_lifetime", "static_lifetime"]
    assert len(rows) >= 2


def test_simulate_command(scenario_file, tmp_path, capsys):
    out_csv = tmp_path / "sim.csv"
    code, out, _ = run(
        ["simulate", "--scenario", str(scenario_file), "--plan", "static",
         "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "completed_slots:" in out and "first_dead:" in out
    header = read_csv(out_csv)[0]
    assert header[:2] == ["slot", "schedule"]


def test_geometry_export_two_node(tmp_path, capsys):
    scn = tmp_path / "two.json"
    assert run(
        ["gen", "--seed", "9", "--nodes", "2", "--model", "gauss", "--offset", "3",
         "--out", str(scn)],
        capsys,
    )[0] == 0
    out_dir = tmp_path / "geo"
    code, out, _ = run(
        ["geometry-export", "--scenario", str(scn), "--grid", "30",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    for name in ("curve_0-1.csv", "curve_1-0.csv", "hull.csv", "crossings.csv"):
        assert (out_dir / name).exists()
    assert "winner:" in out


def test_geometry_export_srra_points(tmp_path, capsys):
    scn = tmp_path / "three.json"
    assert run(
        ["gen", "--seed", "9", "--nodes", "3", "--model", "gauss", "--offset", "3",
         "--mode", "srra", "--out", str(scn)],
        capsys,
    )[0] == 0
    out_dir = tmp_path / "geo3"
    code, out, _ = run(
        ["geometry-export", "--scenario", str(scn), "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    rows = read_csv(out_dir / "points.csv")
    assert len(rows) == 7  # header + 3! schedules


def test_validation_errors_exit_2(scenario_file, tmp_path, capsys):
    code, _, err = run(
        ["eval", "--scenario", str(scenario_file), "--order", "0,1,2"], capsys
    )
    assert code == 2 and "validation error" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 9}')
    code, _, err = run(["eval", "--scenario", str(bad), "--order", "0,1"], capsys)
    assert code == 2 and "version" in err
    code, _, err = run(
        ["eval", "--scenario", str(tmp_path / "missing.json"), "--order", "0,1"], capsys
    )
    assert code == 2


def test_guard_errors_exit_3(tmp_path, capsys):
    big = tmp_path / "big.json"
    nodes = str(BRUTE_FORCE_MAX_NODES + 1)
    assert run(["gen", "--seed", "1", "--nodes", nodes, "--out", str(big)], capsys)[0] == 0
    code, _, err = run(["static-opt", "--scenario", str(big)], capsys)
    assert code == 3 and "guard violation" in err


def test_all_tied_orders_past_the_enumeration_limit_pick_the_identity(tmp_path, capsys):
    # every pair is farther apart than the 5-bit cap and every battery and path
    # loss is equal, so all 9! orders send the same loads and tie; they form
    # one load class, and the first order answers
    doc = {
        "version": 1,
        "base_station": [0.0, 0.0],
        "path_loss": {"rule": "explicit"},
        "correlation": {"model": "bit_distance", "n": 5},
        "energy_mode": {"mode": "shannon"},
        "nodes": [{"id": i, "x": 6.0 * i, "y": 1.0, "energy": 1.0, "path_loss": 1.0} for i in range(9)],
    }
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["static-opt", "--scenario", str(path)], capsys)
    assert code == 0 and "order: 0,1,2,3,4,5,6,7,8" in out.splitlines()
    lifetime = next(line for line in out.splitlines() if line.startswith("lifetime:"))
    code, out, _ = run(["eval", "--scenario", str(path), "--order", "0,1,2,3,4,5,6,7,8"], capsys)
    assert code == 0 and lifetime in out.splitlines()


def test_static_opt_picks_the_longer_of_two_near_tied_orders(tmp_path, capsys):
    # 0,3,4,6,2,1,5 outlasts 0,3,4,2,6,1,5 by 1.89e-11 of its lifetime
    # (5.1589168613649e-11 against 5.1589168612673e-11 in 50-digit arithmetic),
    # beyond the 1e-12 tie tolerance, though the evaluator, which pins these
    # sub-slot lifetimes only to ~1e-11, prints both alike
    scn = tmp_path / "seed11.json"
    assert run(["gen", "--seed", "11", "--nodes", "7", "--model", "gauss", "--out", str(scn)], capsys)[0] == 0
    code, out, _ = run(["static-opt", "--scenario", str(scn)], capsys)
    assert code == 0 and "order: 0,3,4,6,2,1,5" in out.splitlines()
    lifetime = next(line for line in out.splitlines() if line.startswith("lifetime:"))
    code, out, _ = run(["eval", "--scenario", str(scn), "--order", "0,3,4,6,2,1,5"], capsys)
    assert code == 0 and lifetime in out.splitlines()


@pytest.mark.parametrize("value", ["abc", 2.7, True, 0])
def test_bad_scenario_samples_exit_2(scenario_file, capsys, value):
    doc = json.loads(scenario_file.read_text())
    doc["solver"] = {"samples_per_schedule": value}
    scenario_file.write_text(json.dumps(doc))
    code, out, err = run(["dynamic-opt", "--scenario", str(scenario_file)], capsys)
    assert (code, out) == (2, "") and "samples_per_schedule" in err


@pytest.mark.parametrize("plan", ["dynamic-opt", "simulate"])
def test_zero_samples_flag_exits_2(scenario_file, capsys, plan):
    # --samples 0 is used as given, not replaced by the default
    extra = ["--plan", "dynamic"] if plan == "simulate" else []
    code, out, err = run([plan, "--scenario", str(scenario_file), "--samples", "0"] + extra, capsys)
    assert (code, out) == (2, "") and "samples_per_schedule" in err


def test_geometry_export_lattice_guard_exits_3(tmp_path, capsys):
    scn = tmp_path / "three.json"
    assert run(["gen", "--seed", "9", "--nodes", "3", "--model", "gauss", "--out", str(scn)], capsys)[0] == 0
    code, _, err = run(
        ["geometry-export", "--scenario", str(scn), "--grid", "20000", "--out-dir", str(tmp_path / "geo")], capsys
    )
    assert code == 3 and "lattice points" in err


def test_threads_env_var(scenario_file, capsys, monkeypatch):
    # CLUSTERLIFE_THREADS is not read: any value leaves the output as it is
    plain = run(["static-opt", "--scenario", str(scenario_file)], capsys)
    assert plain[0] == 0
    for value in ("2", "junk"):
        monkeypatch.setenv("CLUSTERLIFE_THREADS", value)
        assert run(["static-opt", "--scenario", str(scenario_file)], capsys) == plain


def test_threads_do_not_change_the_tie_rule(tmp_path, capsys, monkeypatch):
    # near-tied orders on this scenario: the lexicographically first must win
    # whatever --threads says
    scn = tmp_path / "six.json"
    assert run(["gen", "--seed", "0", "--nodes", "6", "--model", "bit", "--out", str(scn)], capsys)[0] == 0
    plain = run(["static-opt", "--scenario", str(scn)], capsys)
    assert plain[0] == 0 and "order: 4,2,0,1,3,5\n" in plain[1]
    for threads in ("2", "4"):
        assert run(["static-opt", "--scenario", str(scn), "--threads", threads], capsys) == plain
    monkeypatch.setenv("CLUSTERLIFE_THREADS", "junk")
    assert run(["static-opt", "--scenario", str(scn)], capsys) == plain


def test_mode_override(scenario_file, capsys):
    code, out, _ = run(
        ["static-opt", "--scenario", str(scenario_file), "--method", "mcn",
         "--mode", "srra"],
        capsys,
    )
    assert code == 0 and "method: mcn" in out
    # mcn without srra mode on a shannon scenario is a validation error
    code, _, err = run(
        ["static-opt", "--scenario", str(scenario_file), "--method", "mcn"], capsys
    )
    assert code == 2


# The CSV writer the CLI used before it joined each row itself, kept as the
# reference its bytes must match: csv.writer rows of 12 significant digits,
# and simulate's per-slot rows built from SimTrace.records().


def legacy_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else "{:.12g}".format(float(v)) for v in row])


def legacy_simulate_csv(path, trace, n):
    rows = (
        (str(rec.slot), "-".join(str(i) for i in rec.order)) + tuple(rec.energy_spent) + tuple(rec.remaining)
        for rec in trace.records()
    )
    header = ["slot", "schedule"] + [f"spent{k}" for k in range(n)] + [f"remaining{k}" for k in range(n)]
    legacy_write_csv(path, header, rows)


def outputs(args, out, capsys):
    """Exit code, stdout and the bytes of every file the command wrote under ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    code, stdout, _ = run(args, capsys)
    return code, stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def legacy_outputs_match(args, out, capsys, monkeypatch):
    """Run a command with the CLI's writers and with the legacy ones; the same bytes come out."""
    new = outputs(args, out, capsys)
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_write_csv", legacy_write_csv)
        mp.setattr(cli, "_simulate_csv", legacy_simulate_csv)
        assert outputs(args, out, capsys) == new
    assert new[0] == 0 and new[2]
    return new


def walk_scenario(tmp_path, capsys, seed, nodes, model, lifetime):
    """A generated scenario with its batteries scaled so the best static plan lasts ``lifetime`` slots."""
    path = tmp_path / f"walk-{seed}-{nodes}-{model}-{lifetime}.json"
    assert run(["gen", "--seed", str(seed), "--nodes", str(nodes), "--model", model, "--out", str(path)], capsys)[0] == 0
    scn = scenario.load_scenario(str(path))
    factor = lifetime / brute_force(scn.cluster, scn.mode).lifetime
    doc = json.loads(path.read_text())
    for node in doc["nodes"]:
        node["energy"] *= factor
    path.write_text(json.dumps(doc))
    return path


def test_static_simulate_csv_matches_the_csv_module(tmp_path, capsys, monkeypatch):
    scn = walk_scenario(tmp_path, capsys, 3, 3, "gauss", 5000.5)  # more slots than one walk block
    out = tmp_path / "out"
    code, stdout, files = legacy_outputs_match(
        ["simulate", "--scenario", str(scn), "--csv", str(out / "sim.csv")], out, capsys, monkeypatch
    )
    assert "completed_slots: 5000\n" in stdout
    assert files["sim.csv"].count(b"\r\n") == 5001


@pytest.mark.parametrize("block", [1, 3, 7])
def test_dynamic_simulate_csv_matches_the_csv_module_across_blocks(block, tmp_path, capsys, monkeypatch):
    # a bit pair whose cooperation plan mixes both orders, so the walk has
    # two segments and rows cross block and segment boundaries
    scn = walk_scenario(tmp_path, capsys, 0, 2, "bit", 30.5)
    monkeypatch.setattr(simulate_module, "_BLOCK", block)
    out = tmp_path / "out"
    _, _, files = legacy_outputs_match(
        ["simulate", "--scenario", str(scn), "--plan", "dynamic", "--csv", str(out / "sim.csv")],
        out, capsys, monkeypatch,
    )
    schedules = {row[1] for row in read_csv(out / "sim.csv")[1:]}
    assert schedules == {"0-1", "1-0"}


def test_zero_slot_simulate_csv_is_the_header_alone(scenario_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    _, stdout, files = legacy_outputs_match(
        ["simulate", "--scenario", str(scenario_file), "--csv", str(out / "sim.csv")], out, capsys, monkeypatch
    )
    assert "completed_slots: 0\n" in stdout
    header = ["slot", "schedule"] + [f"spent{k}" for k in range(4)] + [f"remaining{k}" for k in range(4)]
    assert files == {"sim.csv": (",".join(header) + "\r\n").encode()}


def test_other_csvs_match_the_csv_module(scenario_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    for args in (
        ["eval", "--scenario", str(scenario_file), "--order", "3,1,0,2"],
        ["static-opt", "--scenario", str(scenario_file)],
        ["dynamic-opt", "--scenario", str(scenario_file), "--samples", "4"],
    ):
        legacy_outputs_match(args + ["--csv", str(out / "out.csv")], out, capsys, monkeypatch)
    # two-node curves, hull and crossings; three-node curves and points; SRRA points
    for nodes, mode, written in ((2, "shannon", 4), (3, "shannon", 7), (3, "srra", 1)):
        scn = tmp_path / f"geo-{nodes}-{mode}.json"
        gen = ["gen", "--seed", "9", "--nodes", str(nodes), "--model", "gauss", "--mode", mode, "--out", str(scn)]
        assert run(gen, capsys)[0] == 0
        args = ["geometry-export", "--scenario", str(scn), "--grid", "12", "--out-dir", str(out)]
        _, _, files = legacy_outputs_match(args, out, capsys, monkeypatch)
        assert len(files) == written


def simulate_csv_peak_bytes(tmp_path, capsys, slots):
    scn = walk_scenario(tmp_path, capsys, 0, 2, "bit", slots + 0.5)
    out_csv = tmp_path / f"sim-{slots}.csv"
    tracemalloc.start()
    try:
        code, stdout, _ = run(["simulate", "--scenario", str(scn), "--csv", str(out_csv)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and f"completed_slots: {slots}\n" in stdout
    return peak, out_csv.stat().st_size


def test_simulate_csv_memory_is_one_block(tmp_path, capsys):
    big, size = simulate_csv_peak_bytes(tmp_path, capsys, 200_000)
    assert big < 4 * 2**20 < size
    # the peak is one block of the walk, not the file
    assert big < simulate_csv_peak_bytes(tmp_path, capsys, 20_000)[0] + 2**16
