"""The benchmark's workloads: seeded scenarios, the CLI commands run on them,
and the check of every command's output against the oracle.

A workload is a fixed list of operations; the seed changes only the
scenarios they run on. Every operation is one ``clusterlife`` command. The
scenario make-up, the battery scale rule and the named program faults are
described in README.md next to this file.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

# Seeded scenarios have their batteries multiplied by one common factor so
# that the best static lifetime lands uniformly in this range (slots).
TARGET_LIFETIME = (9500.0, 10500.0)

# Known program faults an operation may be expected to hit every run:
# description, and the texts by which its failure is recognized.
FAULTS = {
    "tie-tolerance": (
        "static_sched._best_order treats lifetimes within an absolute 1e-12 as ties",
        ["brute lifetime", "static lifetime"],
    ),
    "lp-unbounded": (
        "dynamic_sched.solve_lp takes its unbounded exit and reports an infinite lifetime",
        ["dynamic lifetime is inf", "plan has unbounded lifetime"],
    ),
    "lp-tolerance": (
        "dynamic_sched.solve_lp stops up to ~1e-9 (relative) short of the optimum, below the static optimum",
        ["below static optimum"],
    ),
}

# Shannon cooperation (dynamic-opt, simulate --plan dynamic) runs on
# scenarios that do not depend on the seed: on seeded scenarios the
# lp-tolerance fault strikes now and then (once in 85 seeded N = 2-3
# clusters), and an operation that fails on some seeds only cannot be
# counted steadily. These clusters are `gen --seed FIXED_GEN_SEED`, with
# their best static lifetime rescaled to FIXED_TARGET slots.
FIXED_GEN_SEED = 1
FIXED_TARGET = 10000.0

# A seeded N = 3 Gaussian cluster on which lp-tolerance struck: its nodes are
# so far apart that every order's lifetime is within 4e-3 of the others' and
# two are within 1e-9, and dynamic-opt reports 10144.9313593 against a
# static optimum of 10144.9313695. Kept as a named fault.
NEAR_TIE_GEN_SEED = 1578804124
NEAR_TIE_TARGET = 10144.931369454978


class CheckFailed(Exception):
    """An output disagrees with the oracle or with a property of the method."""


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _label(order):
    return "-".join(str(i) for i in order)


def _perm(text, sep, n):
    order = tuple(int(tok) for tok in text.split(sep))
    _require(sorted(order) == list(range(n)), f"{text!r} is not a permutation of 0..{n - 1}")
    return order


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _header_values(text):
    values = {}
    table = []
    for line in text.splitlines():
        if ": " in line and not table:
            key, value = line.split(": ", 1)
            values[key] = value
        elif line:
            table.append(line.split(","))
    return values, table


@dataclass
class Scenario:
    """One scenario file plus the oracle's view of it."""

    key: str
    nodes: int
    gen_args: list[str]  # ``clusterlife gen`` arguments, without --out
    target: float | None  # rescale the best static lifetime to this; None keeps gen's batteries
    transform: object = None  # optional doc -> doc rewrite before rescaling
    document: dict | None = None  # written as is instead of generated
    path: str = ""
    inst: oracle.Instance | None = None
    _facts: dict = field(default_factory=dict)

    def fact(self, name):
        """Oracle quantities, computed on first use and kept."""
        if name not in self._facts:
            inst = self.inst
            if name == "best":
                value = inst.best_static()[0]
                if not inst.shannon:
                    dp = inst.srra_dp()
                    if not _close(dp, value, 1e-12):
                        raise RuntimeError(f"oracle disagrees with itself: DP {dp} vs enumeration {value}")
            elif name == "lower":
                value = inst.lp_lower_bound()
            elif name == "upper":  # SRRA relaxation of a Shannon LP; the exact LP in SRRA mode
                value = inst.lp_upper_bound() if inst.shannon else inst.srra_dynamic()
            else:
                raise KeyError(name)
            self._facts[name] = value
        return self._facts[name]

    def lifetime(self, order):
        return float(self.inst.lifetimes([order])[0])


@dataclass
class Op:
    """One CLI command and how its output is checked."""

    name: str
    kind: str  # brute, heuristic, eval, dynamic, simulate, geometry
    scenario: Scenario
    argv: list[str]
    check: object  # (op, stdout, state) -> dict of figures
    faults: tuple[str, ...] = ()  # keys of FAULTS this operation is known to hit
    optimal: bool = False  # a heuristic that is exact on this scenario
    csv: str | None = None
    out_dir: str | None = None

    @property
    def orders(self) -> int:
        return math.factorial(self.scenario.inst.n) if self.kind == "brute" else 0


# -- checks -----------------------------------------------------------------


def _check_static_table(op, values, table):
    scn = op.scenario
    inst = scn.inst
    n = inst.n
    order = _perm(values["order"], ",", n)
    life = float(values["lifetime"])
    _require(table[0] == ["node", "load_bits", "time", "per_slot_energy"], "bad table header")
    rows = np.array([[float(v) for v in row] for row in table[1:]])
    _require(rows.shape == (n, 4) and list(rows[:, 0]) == list(range(n)), "bad node table")
    _require(_close(life, scn.lifetime(order), 1e-8), f"lifetime {life} != oracle {scn.lifetime(order)} for {order}")
    loads = inst.loads([order])[0]
    _require(np.allclose(rows[:, 1], loads, rtol=1e-9, atol=0), "loads differ from the oracle's")
    _require(abs(rows[:, 2].sum() - 1.0) <= 1e-9, f"times sum to {rows[:, 2].sum()}")
    energy = rows[:, 3]
    if inst.shannon:
        expect = inst.path_losses * oracle.shannon_energy(loads, rows[:, 2])
        _require(np.allclose(energy, expect, rtol=1e-8, atol=0), "per-slot energy is not d*f(h, t)")
        _require(np.allclose(energy * life, inst.energies, rtol=1e-8, atol=0), "lifetimes are not equalized")
    else:
        _require(np.allclose(energy, inst.c * loads * inst.path_losses, rtol=1e-9, atol=0), "per-slot energy != c*h*d")
    if op.csv:
        header, csv_rows = _read_csv(op.csv)
        _require(header == ["node", "load_bits", "time", "per_slot_energy", "lifetime"], "bad CSV header")
        got = np.array([[float(v) for v in row] for row in csv_rows])
        _require(got.shape == (n, 5) and np.allclose(got[:, :4], rows, rtol=1e-11, atol=0), "CSV differs from stdout")
        _require(np.allclose(got[:, 4], life, rtol=1e-11, atol=0), "CSV lifetime differs")
    return order, life


def check_static(op, out, state):
    values, table = _header_values(out)
    order, life = _check_static_table(op, values, table)
    scn = op.scenario
    method = values["method"]
    best = scn.fact("best")
    _require(life <= best * (1 + 1e-8), f"lifetime {life} exceeds the oracle optimum {best}")
    if method == "brute" or op.optimal:
        _require(_close(life, best, 1e-8), f"{method} lifetime {life} != oracle optimum {best}")
    if method == "nnn":
        chains = _nearest_neighbour_chains(scn.inst.distances)
        _require(order in chains, f"nnn order {order} is not a nearest-neighbour chain")
        chain_best = max(scn.lifetime(c) for c in chains)
        _require(_close(life, chain_best, 1e-8), f"nnn lifetime {life} != best chain {chain_best}")
    if method == "shp":
        _require(_two_opt_optimal(order, scn.inst.distances), f"shp order {order} is not 2-opt optimal")
    return {}


def check_eval(op, out, state):
    values, table = _header_values(out)
    order, _ = _check_static_table(op, values, table)
    _require(_label(order) == op.argv[op.argv.index("--order") + 1].replace(",", "-"), "evaluated another order")
    return {}


def check_dynamic(op, out, state):
    scn = op.scenario
    n = scn.inst.n
    values, table = _header_values(out)
    l_stat = float(values["static_lifetime"])
    l_dyn = float(values["dynamic_lifetime"])
    best = scn.fact("best")
    _require(math.isfinite(l_dyn), f"dynamic lifetime is {l_dyn}")
    _require(_close(l_stat, best, 1e-8), f"static lifetime {l_stat} != oracle optimum {best}")
    _check_dynamic_lifetime(scn, l_dyn)
    _require(abs(float(values["gain"]) - (l_dyn - l_stat)) <= 1e-9 * l_dyn, "gain != dynamic - static")
    _require(table[0] == ["schedule", "slots"], "bad support header")
    support = [(_perm(label, "-", n), float(tau)) for label, tau in table[1:]]
    _require(1 <= len(support) <= n, f"support of {len(support)} columns is not a basic solution")
    _require(all(tau > 0 for _, tau in support), "non-positive slot count in the support")
    _require(_close(sum(tau for _, tau in support), l_dyn, 1e-8), "support does not add up to the lifetime")
    if op.csv:
        header, rows = _read_csv(op.csv)
        _require(header == ["schedule", "slots", "dynamic_lifetime", "static_lifetime"], "bad CSV header")
        _require([r[0] for r in rows] == [_label(o) for o, _ in support], "CSV schedules differ from stdout")
        _require(all(_close(float(r[1]), tau, 1e-11) for r, (_, tau) in zip(rows, support)), "CSV slots differ")
    state.setdefault(scn.key, {})["support"] = len(support)
    return {"dynamic": l_dyn, "static": l_stat}


def _check_dynamic_lifetime(scn, l_dyn):
    best = scn.fact("best")
    upper = scn.fact("upper")
    if scn.inst.shannon:
        lower = scn.fact("lower")
        _require(l_dyn >= best * (1 - 1e-9), f"dynamic {l_dyn} below static optimum {best}")
        _require(l_dyn >= lower * (1 - 1e-9), f"dynamic {l_dyn} below the equalized-column LP {lower}")
        _require(l_dyn <= upper * (1 + 1e-9), f"dynamic {l_dyn} above the SRRA upper bound {upper}")
    else:
        _require(_close(l_dyn, upper, 1e-8), f"SRRA dynamic {l_dyn} != exact LP {upper}")


def check_simulate(op, out, state):
    scn = op.scenario
    inst = scn.inst
    n = inst.n
    values, _ = _header_values(out)
    analytic = float(values["analytic_lifetime"])
    done = int(values["completed_slots"])
    dynamic = "dynamic" in op.argv
    if dynamic:
        _require(math.isfinite(analytic), f"analytic lifetime is {analytic}")
        _check_dynamic_lifetime(scn, analytic)
        columns = state.get(scn.key, {}).get("support", n)
        low, high = math.floor(analytic) - columns, math.floor(analytic + 1e-6)
    else:
        _require(_close(analytic, scn.fact("best"), 1e-8), f"analytic {analytic} != oracle optimum")
        low, high = math.floor(analytic - 1e-6), math.floor(analytic + 1e-6)
    _require(low <= done <= high, f"completed {done} slots, expected {low}..{high}")
    header, rows = _read_csv(op.csv)
    expect = ["slot", "schedule"] + [f"spent{k}" for k in range(n)] + [f"remaining{k}" for k in range(n)]
    _require(header == expect, "bad CSV header")
    _require(len(rows) == done, f"CSV has {len(rows)} slots, stdout says {done}")
    _require(all(int(r[0]) == k + 1 for k, r in enumerate(rows)), "CSV slots are not numbered 1..n")
    remaining = np.array([[float(v) for v in r[2 + n:]] for r in rows]) if rows else np.empty((0, n))
    _require(remaining.size == 0 or remaining.min() >= -1e-9, f"battery went to {remaining.min()}")
    if not dynamic and rows:
        labels = {r[1] for r in rows}
        _require(len(labels) == 1, "static plan switched schedules")
        order = _perm(labels.pop(), "-", n)
        _require(_close(scn.lifetime(order), scn.fact("best"), 1e-8), "simulated order is not optimal")
        spent = np.array([float(v) for v in rows[-1][2:2 + n]])
        blocked = np.nonzero(remaining[-1] < spent - 1e-9)[0]
        _require(blocked.size and values["first_dead"] == str(blocked[0]), "first_dead is not the blocking node")
    return {"slots": done}


def check_geometry(op, out, state):
    scn = op.scenario
    inst = scn.inst
    n = inst.n
    points = []
    for order in itertools.permutations(range(n)):
        header, rows = _read_csv(os.path.join(op.out_dir, f"curve_{_label(order)}.csv"))
        _require(header == [f"t{k}" for k in range(n)] + [f"e{k}" for k in range(n)], "bad curve header")
        data = np.array([[float(v) for v in r] for r in rows])
        _require(len(data) > 0 and np.allclose(data[:, :n].sum(axis=1), 1.0, rtol=0, atol=1e-9), "times off simplex")
        loads = inst.loads([order])[0][list(order)]
        expect = oracle.shannon_energy(loads[None, :], data[:, :n]) * inst.path_losses[list(order)]
        got = data[:, n:]
        by_node = np.empty_like(expect)
        by_node[:, list(order)] = expect
        _require(np.allclose(got, by_node, rtol=1e-8, atol=0), f"curve {_label(order)} is not d*f(h, t)")
        points.append(got)
    if n == 2:
        _, hull = _read_csv(os.path.join(op.out_dir, "hull.csv"))
        hull = np.array([[float(v) for v in r] for r in hull])
        every = np.vstack(points)
        _require(all(np.any(np.all(np.isclose(every, h, rtol=1e-11, atol=0), axis=1)) for h in hull),
                 "hull point is not a curve point")
        _require(np.all(np.diff(hull[:, 0]) > 0), "hull is not sorted by e0")
        turns = [
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) for a, b, c in zip(hull, hull[1:], hull[2:])
        ]
        _require(all(t > 0 for t in turns), "hull is not convex")
        _, crossings = _read_csv(os.path.join(op.out_dir, "crossings.csv"))
        dist = {}
        for label, t_first, e0, e1, origin in crossings:
            order = _perm(label, "-", n)
            t = np.array([float(t_first), 1.0 - float(t_first)])
            expect = np.empty(2)
            expect[list(order)] = oracle.shannon_energy(inst.loads([order])[0][list(order)], t) * inst.path_losses[list(order)]
            e = np.array([float(e0), float(e1)])
            _require(np.allclose(e, expect, rtol=1e-8, atol=0), "crossing is not on the curve")
            _require(_close(e[0], e[1], 1e-7), "crossing is off the equal-energy line")
            _require(_close(float(origin), math.hypot(*e), 1e-9), "origin distance is wrong")
            dist[order] = float(origin)
        winner = min(dist, key=lambda o: (dist[o], o))
        _require(f"winner: {_label(winner)}" in out, "winner is not the crossing nearest the origin")
    else:
        header, rows = _read_csv(os.path.join(op.out_dir, "points.csv"))
        _require(len(rows) == sum(len(p) for p in points), "points.csv does not hold every curve point")
    return {}


def _nearest_neighbour_chains(dist):
    n = len(dist)
    chains = []
    for start in range(n):
        chain = [start]
        while len(chain) < n:
            rest = [i for i in range(n) if i not in chain]
            chain.append(min(rest, key=lambda i: (min(dist[i, j] for j in chain), i)))
        chains.append(tuple(chain))
    return chains


def _two_opt_optimal(order, dist):
    def length(o):
        return sum(dist[o[k], o[k + 1]] for k in range(len(o) - 1))

    base = length(order)
    for i, j in itertools.combinations(range(len(order)), 2):
        flipped = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
        if length(flipped) < base - 1e-9:
            return False
    return True


# -- scenario construction ---------------------------------------------------


def _unit_ratio(doc):
    """E_k = d_k: explicit path losses, each node's battery equal to it."""
    doc = json.loads(json.dumps(doc))
    bs = doc["base_station"]
    gamma = doc["path_loss"]["gamma"]
    doc["path_loss"] = {"rule": "explicit"}
    for nd in doc["nodes"]:
        loss = math.hypot(nd["x"] - bs[0], nd["y"] - bs[1]) ** gamma
        nd["path_loss"] = loss
        nd["energy"] = loss
    return doc


def entropy_pair_document(mode="shannon"):
    """The Theorem-4 pair: two unit-loss nodes, marginal load 2 bits, conditional 1."""
    rho = math.sqrt(3.0) / 2.0
    return {
        "version": 1,
        "base_station": [0.0, -1.0],
        "path_loss": {"rule": "explicit"},
        "correlation": {"model": "gaussian", "sigma2": 1.0, "a": -math.log(rho), "offset": 2.0 - oracle.HALF_LOG2_2PIE},
        "energy_mode": {"mode": mode},
        "nodes": [
            {"id": 0, "x": 0.0, "y": 0.0, "energy": 1.0, "path_loss": 1.0},
            {"id": 1, "x": 1.0, "y": 0.0, "energy": 1.0, "path_loss": 1.0},
        ],
    }


class Workload:
    """Scenarios and operations of one workload for one seed."""

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
        self.scenarios: dict[str, Scenario] = {}
        self.ops: list[Op] = []  # one pass, in order; an Op may appear more than once
        self._made = 0
        BUILDERS[name](self)

    @property
    def distinct(self) -> list[Op]:
        """Each operation of a pass once, in order of first appearance."""
        seen = {}
        for op in self.ops:
            seen.setdefault(op.name, op)
        return list(seen.values())

    # scenario helpers

    def scenario(self, key, nodes=None, model="bit", mode="shannon", gen_seed=None, rescale=True, transform=None,
                 document=None):
        """One scenario. ``rescale`` is True for a seeded target lifetime, a
        number for that target, or False to keep ``gen``'s batteries."""
        if gen_seed is None:
            gen_seed = int(self.rng.integers(0, 2**31 - 1))
        args = [] if document else ["--seed", str(gen_seed), "--nodes", str(nodes), "--model", model, "--mode", mode]
        if rescale is True:
            target = float(self.rng.uniform(*TARGET_LIFETIME))
        else:
            target = float(rescale) if rescale else None
        if document:
            nodes = len(document["nodes"])
        scn = Scenario(key, nodes, args, target, transform, document)
        scn.path = os.path.join(self.out_dir, f"{key}.json")
        self.scenarios[key] = scn
        return scn

    def op(self, kind, scn, *args, faults=(), csv_out=False, optimal=False, check=None):
        command = args[0]
        argv = [command, "--scenario", scn.path, *args[1:]]
        op = Op(" ".join([command, scn.key, *args[1:]]), kind, scn, argv, check, faults, optimal)
        if csv_out:
            op.csv = os.path.join(self.out_dir, "csv", f"{self._made:02d}-{command}.csv")
            argv += ["--csv", op.csv]
        if kind == "geometry":
            op.out_dir = os.path.join(self.out_dir, "geo", scn.key)
            argv += ["--out-dir", op.out_dir]
        self._made += 1
        self.ops.append(op)
        return op

    def detach(self, start):
        """Remove and return the operations added since ``len(self.ops)`` was ``start``."""
        group = self.ops[start:]
        del self.ops[start:]
        return group

    def session(self, scn, dynamic=True, geometry=False):
        """The plan-and-simulate command sequence on one scenario."""
        order = ",".join(str(i) for i in self.rng.permutation(scn.nodes))
        self.op("eval", scn, "eval", "--order", order, csv_out=True, check=check_eval)
        self.op("brute", scn, "static-opt", "--method", "brute", csv_out=True, check=check_static)
        if dynamic:
            self.op("dynamic", scn, "dynamic-opt", csv_out=True, check=check_dynamic)
        self.op("simulate", scn, "simulate", "--plan", "static", csv_out=True, check=check_simulate)
        if dynamic:
            self.op("simulate", scn, "simulate", "--plan", "dynamic", csv_out=True, check=check_simulate)
        if geometry:
            self.op("geometry", scn, "geometry-export", check=check_geometry)


def _cooperation(w: Workload, simulated, others):
    """The cooperation step that gives the exhaustive workloads every end-to-end metric.

    ``dynamic-opt`` plus a static simulation on each of ``simulated``, and
    ``dynamic-opt`` alone on each of ``others``. It is returned as a group
    rather than added to the pass: the exhaustive workloads run it after each
    of their long searches, so each of its short commands is timed several
    times per pass, spread over the run, and its median time does not hang
    on the host's speed at one moment. The simulation runs on the entropy
    pair only, to keep the group short next to the searches; seeded
    simulations are the main work of plan-and-simulate.

    The entropy pair's gain does not depend on the seed (about 1.07 in
    Shannon mode, 4/3 in SRRA mode).
    """
    start = len(w.ops)
    for scn in simulated:
        w.op("dynamic", scn, "dynamic-opt", check=check_dynamic)
        w.op("simulate", scn, "simulate", "--plan", "static", csv_out=True, check=check_simulate)
    for scn in others:
        w.op("dynamic", scn, "dynamic-opt", check=check_dynamic)
    return w.detach(start)


def _exhaustive_shannon(w: Workload):
    bit, gauss = (w.scenario(f"{model}7", 7, model) for model in ("bit", "gauss"))
    default = w.scenario("default-gauss7", 7, "gauss", gen_seed=0, rescale=False)
    unit = w.scenario("unit-ratio-bit7", 7, "bit", transform=_unit_ratio)
    pair = w.scenario("entropy-pair", document=entropy_pair_document())
    coop = _cooperation(w, [pair], [_fixed(w, 3, "bit"), _fixed(w, 3, "gauss")])
    for scn in (bit, gauss):
        w.op("brute", scn, "static-opt", "--method", "brute", check=check_static)
        w.ops += coop
    w.op("brute", default, "static-opt", "--method", "brute", faults=("tie-tolerance",), check=check_static)
    w.ops += coop
    w.op("heuristic", unit, "static-opt", "--method", "nnn", optimal=True, check=check_static)
    w.ops += coop


# Seeded N = 5 SRRA clusters whose cooperation gain exhaustive-srra adds up.
# One cluster gains nothing on most seeds and up to 1.6x on a few, so a
# single seeded cluster makes cooperation_gain swing from seed to seed; the
# sum over many moves far less. Each costs a few milliseconds.
SRRA_GAIN_CLUSTERS = 24


def _exhaustive_srra(w: Workload):
    blocks = []
    for nodes in (8, 7):
        gauss = w.scenario(f"gauss{nodes}", nodes, "gauss", mode="srra")
        bit = w.scenario(f"bit{nodes}", nodes, "bit", mode="srra")
        start = len(w.ops)
        w.op("brute", gauss, "static-opt", "--method", "brute", check=check_static)
        w.op("brute", bit, "static-opt", "--method", "brute", check=check_static)
        w.op("heuristic", gauss, "static-opt", "--method", "mcn", optimal=True, check=check_static)
        w.op("heuristic", gauss, "static-opt", "--method", "shp", check=check_static)
        w.op("heuristic", bit, "static-opt", "--method", "nnn", check=check_static)
        blocks.append(w.detach(start))
    # SRRA columns carry no sampled allocations, so the LP sees no badly
    # scaled column and cooperation can run at the largest enumerable N.
    pair = w.scenario("entropy-pair", document=entropy_pair_document("srra"))
    averaged = [w.scenario(f"{model}5-{k}", 5, model, mode="srra")
                for k in range(SRRA_GAIN_CLUSTERS // 2) for model in ("gauss", "bit")]
    coop = _cooperation(w, [pair], [w.scenarios["gauss7"], *averaged])
    for block in blocks:
        w.ops += block + coop


def _fixed(w: Workload, nodes, model):
    return w.scenario(f"fixed-{model}{nodes}", nodes, model, gen_seed=FIXED_GEN_SEED, rescale=FIXED_TARGET)


def _plan_and_simulate(w: Workload):
    # geometry-export once per size up to 3: an N = 3 export alone takes about a second.
    for nodes, model, geometry in ((2, "gauss", True), (3, "bit", True), (3, "gauss", False), (4, "gauss", False),
                                   (5, "bit", False), (6, "gauss", False)):
        w.session(w.scenario(f"{model}{nodes}", nodes, model), dynamic=False, geometry=geometry)
    # Cooperation up to N = 3 (beyond, solve_lp's lp-unbounded fault strikes
    # on a few per cent of clusters, see README.md), on fixed clusters.
    for nodes, model in ((2, "gauss"), (3, "bit"), (3, "gauss")):
        scn = _fixed(w, nodes, model)
        w.op("dynamic", scn, "dynamic-opt", csv_out=True, check=check_dynamic)
        w.op("simulate", scn, "simulate", "--plan", "dynamic", csv_out=True, check=check_simulate)
    w.session(w.scenario("entropy-pair", document=entropy_pair_document()), geometry=True)
    near_tie = w.scenario("near-tie-gauss3", 3, "gauss", gen_seed=NEAR_TIE_GEN_SEED, rescale=NEAR_TIE_TARGET)
    w.op("dynamic", near_tie, "dynamic-opt", faults=("lp-tolerance",), check=check_dynamic)
    default = w.scenario("default-gauss5", 5, "gauss", gen_seed=7, rescale=False)
    # Its printed static baseline also carries the tie-tolerance fault.
    w.op("dynamic", default, "dynamic-opt", faults=("lp-unbounded", "tie-tolerance"), check=check_dynamic)
    w.op("simulate", default, "simulate", "--plan", "dynamic", csv_out=True, faults=("lp-unbounded",),
         check=check_simulate)


BUILDERS = {
    "exhaustive-shannon": _exhaustive_shannon,
    "exhaustive-srra": _exhaustive_srra,
    "plan-and-simulate": _plan_and_simulate,
}
