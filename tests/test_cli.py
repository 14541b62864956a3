import csv
import json
import re

import pytest

from clusterlife.cli import main


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
    assert run(["gen", "--seed", "1", "--nodes", "9", "--out", str(big)], capsys)[0] == 0
    code, _, err = run(["static-opt", "--scenario", str(big)], capsys)
    assert code == 3 and "guard violation" in err


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
