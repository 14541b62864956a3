"""Acceptance gate: ten end-to-end criteria, one summary line each.

Every criterion prints a PASS/FAIL line in the terminal summary (see
conftest.record_criterion) and fails the suite via its assertion if the
property does not hold at the stated tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from clusterlife import (
    LN2,
    BitDistance,
    ClusterSpec,
    GaussianField,
    NodeSpec,
    Shannon,
    Srra,
    brute_force,
    dynamic_lifetime,
    equal_energy_crossing,
    equal_line_alignment,
    lifetime_by_schedule_count,
    mcn,
    nnn,
    simulate_dynamic,
    simulate_static,
    srra_points,
    verify_theorem4,
)
from clusterlife.energy import min_time_for_energy, tx_energy
from clusterlife.geometry import min_norm_weights
from clusterlife.static_sched import all_orders, evaluate_schedule
from conftest import make_cluster, random_positions, record_criterion


def test_criterion_01_energy_function_suite():
    rng = np.random.default_rng(101)
    n = 10_000
    h = rng.uniform(0.05, 12.0, size=n)
    x = rng.uniform(0.01, 10.0, size=n)

    f = tx_energy(h, x)
    dx = 1e-6 * x
    monotone = np.all(tx_energy(h, x + dx) < f)
    x2 = x + rng.uniform(0.1, 3.0, size=n)
    convex = np.all(
        tx_energy(h, 0.5 * (x + x2)) <= 0.5 * (f + tx_energy(h, x2)) + 1e-12
    )
    blow_up = np.all(tx_energy(h, np.full(n, 1e-4)) > 1e8)
    asymptote = np.all(np.abs(tx_energy(h, np.full(n, 1e6)) - h * LN2) < 1e-5 * h)
    t_back = min_time_for_energy(h, f)
    roundtrip = np.allclose(t_back, x, rtol=1e-8)

    ok = monotone and convex and blow_up and asymptote and roundtrip
    record_criterion(1, ok, "energy curve monotone/convex/blow-up/asymptote + inverse roundtrip, 1e4 samples")
    assert monotone and convex and blow_up and asymptote
    assert roundtrip


# Criterion-2 instances are shared with criterion 9 (simulator agreement).
def _criterion2_instances():
    instances = []
    master = np.random.default_rng(202)
    for k in range(500):
        n = int(master.integers(2, 7))
        model = "bit" if k % 2 == 0 else "gauss"
        cluster = make_cluster(np.random.default_rng(1000 + k), n, model=model)
        instances.append(cluster)
    return instances


@pytest.fixture(scope="module")
def criterion2_results():
    results = []
    for cluster in _criterion2_instances():
        order = tuple(range(cluster.n))
        loads = cluster.schedule_loads(order).loads_by_node(cluster.n)
        results.append((cluster, order, loads, evaluate_schedule(order, cluster, Shannon())))
    return results


def _grid_oracle(loads, energies, path_losses, density=120):
    """Refined dense-grid maximin lifetime for N in {2, 3}."""
    h = np.asarray(loads, float)
    e = np.asarray(energies, float)
    d = np.asarray(path_losses, float)
    n = h.size

    def evaluate(times):
        energy = tx_energy(h[None, :], times) * d[None, :]
        life = (e[None, :] / np.where(energy > 0, energy, np.inf)).min(axis=1)
        k = int(np.argmax(life))
        return float(life[k]), times[k]

    if n == 2:
        grid = np.linspace(1e-4, 1 - 1e-4, density * density)
        times = np.stack([grid, 1 - grid], axis=1)
    else:
        g = np.linspace(1e-4, 1 - 2e-4, density)
        a, b = np.meshgrid(g, g)
        keep = a + b < 1 - 1e-4
        times = np.stack([a[keep], b[keep], 1 - a[keep] - b[keep]], axis=1)
    value, center = evaluate(times)
    # Local refinement around the coarse argmax. Large bit loads make the
    # maximin extremely grid-sensitive (relative slope ~ h*ln2/t), so four
    # shrinking stages are needed to certify a 1e-4 agreement.
    for span in (2.0 / density, 0.2 / density, 0.02 / density, 0.002 / density):
        lo = np.maximum(center - span, 1e-6)
        hi = np.minimum(center + span, 1 - 1e-6)
        if n == 2:
            grid = np.linspace(lo[0], hi[0], 4000)
            times = np.stack([grid, 1 - grid], axis=1)
        else:
            ga = np.linspace(lo[0], hi[0], 70)
            gb = np.linspace(lo[1], hi[1], 70)
            a, b = np.meshgrid(ga, gb)
            keep = a + b < 1 - 1e-6
            times = np.stack([a[keep], b[keep], 1 - a[keep] - b[keep]], axis=1)
        value, center = evaluate(times)
    return value


def test_criterion_02_equalizer_certificate(criterion2_results):
    worst_sum = 0.0
    worst_spread = 0.0
    worst_grid = 0.0
    for cluster, order, loads, static in criterion2_results:
        worst_sum = max(worst_sum, abs(static.times.sum() - 1.0))
        node_life = cluster.energies / static.per_slot_energy
        worst_spread = max(worst_spread, float(np.ptp(node_life) / node_life.mean()))
        if cluster.n <= 3:
            oracle = _grid_oracle(loads, cluster.energies, cluster.path_losses)
            worst_grid = max(worst_grid, abs(static.lifetime - oracle) / oracle)
    ok = worst_sum <= 1e-9 and worst_spread <= 1e-6 and worst_grid <= 1e-4
    record_criterion(
        2,
        ok,
        f"equalizer on 500 instances: |sum t - 1| <= {worst_sum:.1e}, "
        f"node-lifetime spread <= {worst_spread:.1e}, grid-oracle gap <= {worst_grid:.1e}",
    )
    assert worst_sum <= 1e-9
    assert worst_spread <= 1e-6
    assert worst_grid <= 1e-4


def test_criterion_03_greedy_nearest_neighbor_optimality():
    failures = 0
    master = np.random.default_rng(303)
    for k in range(200):
        n = int(master.integers(3, 8))
        cluster = make_cluster(np.random.default_rng(2000 + k), n, model="bit", unit_ratio=True)
        greedy = nnn(cluster, Shannon())
        exact = brute_force(cluster, Shannon())
        if abs(greedy.lifetime - exact.lifetime) > 1e-9 * max(1.0, exact.lifetime):
            failures += 1
    ok = failures == 0
    record_criterion(
        3, ok, f"nearest-neighbor greedy = exhaustive lifetime on {200 - failures}/200 unit-ratio instances"
    )
    assert failures == 0


def _sorted_node_lifetimes_all_orders(cluster, c):
    orders = all_orders(cluster.n)
    loads = np.take_along_axis(cluster.loads(orders), np.argsort(orders, axis=1), axis=1)
    per = c * loads * cluster.path_losses
    life = cluster.energies / np.where(per > 0, per, np.inf)
    return orders, np.sort(life, axis=1)


def test_criterion_04_greedy_min_cost_reconstruction():
    mode = Srra()
    lifetime_failures = 0
    lex_failures = 0
    master = np.random.default_rng(404)
    for k in range(200):
        n = int(master.integers(3, 8))
        cluster = make_cluster(np.random.default_rng(3000 + k), n, model="gauss")
        greedy = mcn(cluster, mode)
        exact = brute_force(cluster, mode)
        if abs(greedy.lifetime - exact.lifetime) > 1e-9 * max(1.0, exact.lifetime):
            lifetime_failures += 1
            continue
        _, sorted_life = _sorted_node_lifetimes_all_orders(cluster, mode.c)
        loads_g = cluster.schedule_loads(greedy.order).loads_by_node(n)
        per_g = mode.c * loads_g * cluster.path_losses
        mv = np.sort(cluster.energies / np.where(per_g > 0, per_g, np.inf))
        diff = sorted_life - mv[None, :]
        sig = np.abs(diff) > 1e-9 * np.maximum(np.abs(sorted_life), 1.0)
        for row in range(diff.shape[0]):
            cols = np.nonzero(sig[row])[0]
            if cols.size and diff[row, cols[0]] > 0:
                lex_failures += 1
                break
    ok = lifetime_failures == 0 and lex_failures == 0
    record_criterion(
        4,
        ok,
        f"min-cost greedy: lifetime optimal on {200 - lifetime_failures}/200, "
        f"sorted-lifetime vector lexicographically maximal on {200 - lifetime_failures - lex_failures}/200 "
        "smooth-model instances",
    )
    assert lifetime_failures == 0
    assert lex_failures == 0


def test_greedy_nearest_neighbor_past_enumeration():
    # criterion 03's claim checked against the subset DP at N = 8-14, where the
    # N! enumeration stopped; unit-ratio bit clusters tie on many orders, which
    # the DP never lists (seed 2 at N = 14 has over 40320 load classes of them)
    seeds = [(5000 + k, 8 + k % 2) for k in range(40)]
    seeds += [(8000 + 31 * n + k, n) for n in range(10, 15) for k in range(2)] + [(2, 14)]
    failures = []
    for seed, n in seeds:
        cluster = make_cluster(np.random.default_rng(seed), n, model="bit", unit_ratio=True)
        exact = brute_force(cluster, Shannon())
        greedy = nnn(cluster, Shannon())
        if abs(greedy.lifetime - exact.lifetime) > 1e-9 * max(1.0, exact.lifetime):
            failures.append(seed)
    assert failures == []


def test_greedy_min_cost_past_enumeration():
    # criterion 04's lifetime claim checked against the subset DP at N = 8-12
    failures = []
    for k in range(100):
        n = 8 + k % 5
        cluster = make_cluster(np.random.default_rng(6000 + k), n, model="gauss")
        greedy = mcn(cluster, Srra())
        exact = brute_force(cluster, Srra())
        if abs(greedy.lifetime - exact.lifetime) > 1e-9 * max(1.0, exact.lifetime):
            failures.append(k)
    assert failures == []


def _entropy_pair_cluster(energy=1.0):
    """Two symmetric nodes with marginal load 2 bits and conditional load 1."""
    from clusterlife import HALF_LOG2_2PIE

    rho = math.sqrt(3.0) / 2.0
    nodes = [NodeSpec(0, (0.0, 0.0), energy, 1.0), NodeSpec(1, (1.0, 0.0), energy, 1.0)]
    return ClusterSpec(nodes, GaussianField(1.0, -math.log(rho), offset=2.0 - HALF_LOG2_2PIE))


def test_criterion_05_dynamic_beats_static_on_two_nodes():
    # random N=2 instances: cooperation never loses
    never_worse = True
    master = np.random.default_rng(505)
    for k in range(100):
        cluster = make_cluster(np.random.default_rng(4000 + k), 2, model="gauss")
        static = brute_force(cluster, Shannon())
        plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=8)
        if plan.lifetime < static.lifetime * (1 - 1e-9):
            never_worse = False
    # constructed asymmetric-entropy family: strict improvement
    strict = True
    for energy in np.linspace(0.5, 5.0, 10):
        report = verify_theorem4(_entropy_pair_cluster(float(energy)))
        if not (report.dynamic_lifetime > report.static_lifetime + 1e-6 and report.witness):
            strict = False
    # worked symmetric low-rate instance: exact LP values
    c = LN2
    nodes = [NodeSpec(0, (0.0, 0.0), 2 * c, 1.0), NodeSpec(1, (1.0, 0.0), 2 * c, 1.0)]
    worked = ClusterSpec(nodes, BitDistance(2))
    stat = brute_force(worked, Srra()).lifetime
    plan = dynamic_lifetime(worked, Srra())
    exact = abs(stat - 1.0) < 1e-9 and abs(plan.lifetime - 4.0 / 3.0) < 1e-9
    ok = never_worse and strict and exact
    record_criterion(
        5,
        ok,
        "dynamic >= static on 100 random pairs; strict gain on the asymmetric-entropy "
        f"family; worked instance L_stat=1, L_dyn=4/3 (residual {abs(plan.lifetime - 4/3):.1e})",
    )
    assert never_worse
    assert strict
    assert exact


def test_criterion_06_mixture_count_monotone_and_small_support():
    monotone = True
    support_bound = True
    master = np.random.default_rng(606)
    for k in range(20):
        model = "bit" if k % 2 == 0 else "gauss"
        cluster = make_cluster(np.random.default_rng(5000 + k), 3, model=model)
        seq = lifetime_by_schedule_count(cluster, Shannon(), samples_per_schedule=5)
        for a, b in zip(seq, seq[1:]):
            if b < a - 1e-8 * max(1.0, a):
                monotone = False
        plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=5)
        if len(plan.support()) > cluster.n:
            support_bound = False
    ok = monotone and support_bound
    record_criterion(
        6, ok, "L_m non-decreasing in m on 20 exhaustive N=3 instances; LP support <= N on all"
    )
    assert monotone
    assert support_bound


def test_criterion_07_entropy_chain_rule():
    worst = 0.0
    master = np.random.default_rng(707)
    for k in range(100):
        n = int(master.integers(2, 7))
        cluster = make_cluster(np.random.default_rng(6000 + k), n, model="gauss")
        joint = cluster.joint_entropy()
        rng = np.random.default_rng(7000 + k)
        for _ in range(10):
            order = tuple(rng.permutation(n))
            total = cluster.schedule_loads(order).loads.sum()
            worst = max(worst, abs(total - joint) / abs(joint))
    ok = worst <= 1e-9
    record_criterion(7, ok, f"chain rule: sum of conditional loads = joint entropy, worst rel gap {worst:.1e}")
    assert worst <= 1e-9


def test_criterion_08_final_pair_swap_ordering():
    """Orders sharing the first two polls and swapping the last two.

    Both final loads sum to the same conditional total (chain rule), and the
    min-time curve is convex increasing in the load, so the order polling
    third the node with the smaller conditional entropy given the shared
    prefix always needs less total transmission time at a fixed lifetime
    target. The distance proxy (nearer third node first) is reported
    informationally: it tracks the entropy comparison only approximately
    because it ignores correlation with the shared prefix.
    """
    violations = 0
    comparisons = 0
    proxy_agree = 0
    proxy_total = 0
    master = np.random.default_rng(808)
    for k in range(200):
        rng = np.random.default_rng(8000 + k)
        pos = random_positions(rng, 4)
        d = np.hypot(pos[:, 0], pos[:, 1])
        nodes = [NodeSpec(i, (float(pos[i, 0]), float(pos[i, 1])), float(d[i]), float(d[i])) for i in range(4)]
        cluster = ClusterSpec(nodes, GaussianField(1.0, 0.5, offset=3.0))
        for a_node, b_node in itertools.permutations(range(4), 2):
            rest = [i for i in range(4) if i not in (a_node, b_node)]
            o1 = (a_node, b_node, rest[0], rest[1])
            o2 = (a_node, b_node, rest[1], rest[0])
            l1 = cluster.schedule_loads(o1).loads
            l2 = cluster.schedule_loads(o2).loads
            if abs(l1[2] - l2[2]) <= 1e-9:
                continue  # exact tie: no ordering claim
            # fixed target L safely inside both orders' feasible range
            budgets = cluster.energies / cluster.path_losses
            caps = []
            for order, loads in ((o1, l1), (o2, l2)):
                per_node = np.empty(4)
                per_node[list(order)] = loads
                caps.append(np.min(budgets / (per_node * LN2)))
            target = 0.5 * min(caps)

            def total_time(order, loads):
                per_node_loads = np.empty(4)
                per_node_loads[list(order)] = loads
                e_budget = budgets / target
                return float(min_time_for_energy(per_node_loads, e_budget).sum())

            t1, t2 = total_time(o1, l1), total_time(o2, l2)
            comparisons += 1
            smaller_entropy_first = t1 <= t2 + 1e-9 if l1[2] < l2[2] else t2 <= t1 + 1e-9
            if not smaller_entropy_first:
                violations += 1
            # distance proxy: third node nearer to the prefix pair
            dist1 = min(cluster.distances[o1[2], a_node], cluster.distances[o1[2], b_node])
            dist2 = min(cluster.distances[o2[2], a_node], cluster.distances[o2[2], b_node])
            if abs(dist1 - dist2) > 1e-12:
                proxy_total += 1
                proxy_predicts_o1 = dist1 < dist2
                actual_o1 = t1 < t2
                if proxy_predicts_o1 == actual_o1:
                    proxy_agree += 1
    ok = violations == 0 and comparisons > 1000
    record_criterion(
        8,
        ok,
        f"final-pair swap: smaller conditional entropy third => smaller total time in "
        f"{comparisons - violations}/{comparisons} pairs (distance proxy agrees "
        f"{proxy_agree}/{proxy_total}, informational)",
    )
    assert violations == 0
    assert comparisons > 1000


def test_criterion_09_simulator_agreement(criterion2_results):
    static_ok = True
    dynamic_ok = True
    for cluster, order, loads, _ in criterion2_results:
        # Batteries scaled so the schedule's lifetime sits at 20.5 slots:
        # half-integral, so floor() is unambiguous rather than a coin flip on
        # root-finder residue. Per-slot energies are invariant under uniform
        # battery scaling, so the unscaled allocation carries over directly.
        res = evaluate_schedule(order, cluster, Shannon())
        scale = 20.5 / res.lifetime
        nodes = [
            NodeSpec(nd.id, nd.position, nd.energy * scale, nd.path_loss)
            for nd in cluster.nodes
        ]
        scaled = ClusterSpec(nodes, cluster.correlation)
        trace = simulate_static(res, scaled)
        if trace.completed_slots != math.floor(res.lifetime * scale + 1e-9):
            static_ok = False
        plan = dynamic_lifetime(scaled, Shannon(), samples_per_schedule=2)
        dtrace = simulate_dynamic(plan, scaled)
        if dtrace.completed_slots < math.floor(plan.lifetime + 1e-9) - len(plan.support()):
            dynamic_ok = False
    ok = static_ok and dynamic_ok
    record_criterion(
        9,
        ok,
        "simulator: static completed slots = floor(L) and dynamic >= floor(L) - #columns "
        "on all 500 criterion-2 instances",
    )
    assert static_ok
    assert dynamic_ok


def test_criterion_10_geometry_oracles():
    # (a) min-norm weights vs dense weight-simplex grid, m <= 3
    rng = np.random.default_rng(1010)
    grid_ok = True
    for m in (1, 2, 3):
        for _ in range(10):
            pts = rng.uniform(0.2, 2.0, size=(m, 3))
            r = min_norm_weights(pts)
            val = float(np.linalg.norm(r @ pts))
            if m == 1:
                cand = np.ones((1, 1))
            elif m == 2:
                g = np.linspace(0, 1, 1001)
                cand = np.stack([g, 1 - g], axis=1)
            else:
                g = np.linspace(0, 1, 201)
                cand = np.array([(x, y, 1 - x - y) for x in g for y in g if x + y <= 1.0])
            best = float(np.min(np.linalg.norm(cand @ pts, axis=1)))
            if val > best + 1e-4:
                grid_ok = False

    # (b) equal-energy crossing equals the equalized allocation (two nodes,
    # equal batteries, arbitrary channels), 1e-8
    crossing_ok = True
    for k in range(25):
        cluster = make_cluster(np.random.default_rng(9000 + k), 2, model="gauss", equal_energy=True)
        report = equal_energy_crossing(cluster)
        for crossing in report.crossings:
            static = evaluate_schedule(crossing.order, cluster, Shannon())
            if not np.allclose(crossing.point, static.per_slot_energy, rtol=1e-8):
                crossing_ok = False

    # (c) low-rate regime: the point closest to the equal-energy diagonal
    # attains the greedy-optimal lifetime on exhaustive homogeneous N <= 5
    mode = Srra()
    line_ok = True
    master = np.random.default_rng(1111)
    for k in range(60):
        n = int(master.integers(3, 6))
        rng = np.random.default_rng(9500 + k)
        pos = random_positions(rng, n)
        nodes = [NodeSpec(i, (float(pos[i, 0]), float(pos[i, 1])), 1.5, 1.0) for i in range(n)]
        cluster = ClusterSpec(nodes, GaussianField(1.0, 0.5, offset=3.0))
        pts = srra_points(cluster, mode)
        align = equal_line_alignment([p.energy for p in pts])
        closest = pts[int(np.argmax(align))]
        life = float(np.min(cluster.energies / closest.energy))
        if abs(life - mcn(cluster, mode).lifetime) > 1e-9 * mcn(cluster, mode).lifetime:
            line_ok = False
    ok = grid_ok and crossing_ok and line_ok
    record_criterion(
        10,
        ok,
        "geometry: min-norm matches grid oracle (1e-4); diagonal crossing = equalize (1e-8); "
        "closest-to-diagonal point attains greedy-optimal low-rate lifetime on 60 exhaustive instances",
    )
    assert grid_ok
    assert crossing_ok
    assert line_ok
