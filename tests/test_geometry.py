import itertools
import tracemalloc

import numpy as np
import pytest

from clusterlife import (
    BitDistance,
    ClusterSpec,
    GaussianField,
    GuardError,
    NodeSpec,
    Shannon,
    Srra,
    ValidationError,
    best_over_all_m,
    brute_force,
    equal_energy_crossing,
    equal_line_alignment,
    evaluate_schedule,
    hull_2d,
    mcn,
    srra_points,
    surface_sample,
    tx_energy,
)
from clusterlife.dynamic_sched import Column, build_columns, solve_lp
from clusterlife.geometry import best_over_subsets, min_norm_weights
from clusterlife.static_sched import split_energy
from conftest import make_cluster, two_node_cluster


def test_surface_sample_basics():
    cluster = make_cluster(np.random.default_rng(0), 2, model="gauss")
    times, energy = surface_sample((0, 1), cluster, grid_density=30)
    assert times.shape == energy.shape == (29, 2)  # compositions of 30 into 2 positive parts
    assert times.sum(axis=1) == pytest.approx(np.ones(29))
    assert np.all(energy > 0)
    with pytest.raises(ValidationError):
        surface_sample((0, 1), cluster, grid_density=1)


def test_surface_sample_times_are_by_node_id():
    # read in polling order, each row of times is one lattice point
    cluster = make_cluster(np.random.default_rng(1), 3, model="gauss")
    order = (2, 0, 1)
    times, energy = surface_sample(order, cluster, grid_density=6)
    lattice = sorted((a, b, 6 - a - b) for a in range(1, 5) for b in range(1, 6 - a))
    assert times.shape == energy.shape == (len(lattice), 3) == (10, 3)
    assert times[:, list(order)] == pytest.approx(np.array(lattice) / 6.0, abs=1e-15)
    loads = cluster.schedule_loads(order).loads_by_node(3)
    assert energy == pytest.approx(tx_energy(loads, times) * cluster.path_losses, rel=1e-12)


def _compositions(total, parts):
    """All positive integer vectors of the given length summing to total, recursively."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_surface_lattice_matches_recursive_compositions(n):
    # the cut-point lattice is the recursive per-point one, bit for bit and in the same order
    cluster = make_cluster(np.random.default_rng(n), n, model="gauss")
    order = tuple(reversed(range(n)))
    for grid in (n, n + 1, 9):
        rows = []
        for comp in _compositions(grid, n):
            t = np.maximum(np.array(comp, dtype=float) / grid, 1e-4)
            rows.append(t / t.sum())
        times, energy = split_energy(cluster, [order], np.array(rows))
        got_times, got_energy = surface_sample(order, cluster, grid_density=grid)
        assert np.array_equal(got_times, times[0]) and np.array_equal(got_energy, energy[0])


def test_surface_lattice_guard():
    # C(19999, 2) ~ 2e8 points are refused before any is built
    cluster = make_cluster(np.random.default_rng(0), 3, model="gauss")
    with pytest.raises(GuardError, match="lattice points"):
        surface_sample((0, 1, 2), cluster, grid_density=20000)


def test_surface_sample_holds_only_its_arrays():
    # 99,681 lattice points at N = 3: the (K, 3) times and energy are 4.8 MB together
    cluster = make_cluster(np.random.default_rng(1), 3, model="bit")
    tracemalloc.start()
    try:
        result = surface_sample((0, 1, 2), cluster, grid_density=448)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8e6
    assert result[0].shape == (99681, 3)


def test_surface_is_convex_frontier_in_2d():
    # along the sweep, e0 decreases while e1 increases: a trade-off curve
    cluster = two_node_cluster()
    _, e = surface_sample((0, 1), cluster, grid_density=40)
    assert np.all(np.diff(e[:, 0]) < 0)
    assert np.all(np.diff(e[:, 1]) > 0)


def test_min_norm_weights_symmetric_pair():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    r = min_norm_weights(pts)
    assert r == pytest.approx([0.5, 0.5], abs=1e-9)


def test_min_norm_weights_vertex_solution():
    # one point dominates: the closest mixture is that single vertex
    pts = np.array([[0.1, 0.1], [1.0, 1.0]])
    r = min_norm_weights(pts)
    assert r == pytest.approx([1.0, 0.0], abs=1e-9)


def test_min_norm_weights_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for m in (2, 3):
        for _ in range(5):
            pts = rng.uniform(0.2, 2.0, size=(m, 3))
            r = min_norm_weights(pts)
            assert r.sum() == pytest.approx(1.0, abs=1e-9)
            val = np.linalg.norm(r @ pts)
            # dense grid over the weight simplex
            grid = np.linspace(0, 1, 201)
            if m == 2:
                cand = np.stack([grid, 1 - grid], axis=1)
            else:
                cand = np.array(
                    [(x, y, 1 - x - y) for x in grid for y in grid if x + y <= 1.0]
                )
            best = np.min(np.linalg.norm(cand @ pts, axis=1))
            assert val <= best + 1e-4


def test_min_norm_guard():
    with pytest.raises(GuardError):
        min_norm_weights(np.ones((17, 2)))


def test_best_over_subsets_worked_symmetric_instance():
    # two mirrored low-rate points with per-node loads (2, 1): the best
    # single point gives lifetime 1, the balanced mixture gives exactly 4/3
    from clusterlife import LN2

    c = LN2
    pts = np.array([[2.0 * c, 1.0 * c], [1.0 * c, 2.0 * c]])
    energies = np.array([2.0 * c, 2.0 * c])
    r1 = best_over_subsets(pts, energies, 1)
    assert r1.lifetime == pytest.approx(1.0, rel=1e-12)
    r2 = best_over_subsets(pts, energies, 2)
    assert r2.lifetime == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert r2.weights == pytest.approx([0.5, 0.5], abs=1e-9)
    best, seq = best_over_all_m(pts, energies)
    assert best == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert seq == pytest.approx([1.0, 4.0 / 3.0], rel=1e-9)
    with pytest.raises(ValidationError):
        best_over_subsets(pts, energies, 0)
    # an energy-free point lasts forever and takes the whole mixture
    free = best_over_subsets(np.vstack([pts, np.zeros(2)]), energies, 2)
    assert (free.lifetime, free.subset) == (np.inf, (0, 2))
    assert list(free.weights) == [0.0, 1.0]


def test_best_over_subsets_at_tiny_battery_scale():
    # lifetimes of order 1e-14 still rank: the third point is clearly best
    pts = np.array([[3.0, 1.0], [1.0, 3.0], [2.2, 2.2]])
    result = best_over_subsets(pts, 1e-13 * np.ones(2), 1)
    assert result.subset == (2,)
    assert result.lifetime == pytest.approx(1e-13 / 2.2, rel=1e-12)


def _two_point_lifetime(a, b, energies):
    """1 / min over w in [0, 1] of max_k (w a_k + (1 - w) b_k) / E_k.

    The max of lines is convex in w, so its minimum sits at an end of [0, 1]
    or where two nodes' lines cross.
    """
    slope, base = (a - b) / energies, b / energies
    ws = [0.0, 1.0]
    for k, l in itertools.combinations(range(energies.size), 2):
        if slope[k] != slope[l]:
            w = (base[l] - base[k]) / (slope[k] - slope[l])
            if 0.0 <= w <= 1.0:
                ws.append(w)
    return 1.0 / min(np.max(base + w * slope) for w in ws)


def test_best_single_point_is_best_static_and_mixtures_bounded_by_lp():
    # on 800 seeded low-rate clusters: L_1 is the best single point, L_2 the
    # best two-point closed form, L_m never decreases, and L_N is the
    # cooperation LP over all the points
    mode = Srra()
    for n, model, equal_energy, seed in itertools.product((2, 3), ("bit", "gauss"), (False, True), range(100)):
        cluster = make_cluster(np.random.default_rng(seed), n, model=model, equal_energy=equal_energy)
        pts = srra_points(cluster, mode)
        energies = cluster.energies
        p = np.array([pt.energy for pt in pts])
        best, seq = best_over_all_m(pts, energies, max_m=n)
        lp = solve_lp(pts, energies).lifetime
        assert len(seq) == n
        assert best == pytest.approx(lp, rel=1e-9)
        assert max(seq) <= lp * (1 + 1e-12)
        assert all(later >= earlier * (1 - 1e-12) for earlier, later in zip(seq, seq[1:]))
        assert seq[0] == pytest.approx(np.max(np.min(energies / p, axis=1)), rel=1e-12)
        pairs = itertools.combinations(range(len(p)), 2)
        assert seq[1] == pytest.approx(max(_two_point_lifetime(p[i], p[j], energies) for i, j in pairs), rel=1e-9)


def test_min_norm_output_never_beaten_by_random_combinations():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.3, 2.0, size=(4, 3))
    r = min_norm_weights(pts)
    val = np.linalg.norm(r @ pts)
    assert np.all(val <= np.linalg.norm(pts, axis=1) + 1e-12)
    raw = rng.uniform(0, 1, size=(1000, 4))
    combos = raw / raw.sum(axis=1, keepdims=True)
    assert val <= np.linalg.norm(combos @ pts, axis=1).min() + 1e-9


def test_equal_energy_crossing_symmetric():
    cluster = two_node_cluster()
    report = equal_energy_crossing(cluster)
    for crossing in report.crossings:
        assert crossing.point[0] == pytest.approx(crossing.point[1], rel=1e-9)
    # symmetric instance: both crossings coincide, winner is lexicographic
    assert report.winner == (0, 1)


def test_crossing_matches_equalize_with_equal_batteries():
    # with equal batteries the equalized allocation balances consumption,
    # which is exactly the diagonal crossing
    for distance in (0.8, 1.5, 2.5):
        for model in (BitDistance(4), GaussianField(1.0, 0.5, offset=3.0)):
            cluster = two_node_cluster(
                distance=distance, path_losses=(1.0, 2.0), model=model
            )
            report = equal_energy_crossing(cluster)
            for crossing in report.crossings:
                static = evaluate_schedule(crossing.order, cluster, Shannon())
                assert crossing.point == pytest.approx(
                    static.per_slot_energy, rel=1e-8
                )
    with pytest.raises(ValidationError):
        equal_energy_crossing(make_cluster(np.random.default_rng(0), 3, model="gauss"))


def _bisection_crossing(cluster, order):
    """First-node time and energy point where e0(t) = e1(t), by 200 bisection steps on t."""
    loads = cluster.loads(np.array([order]))[0]
    node_of = np.argsort(order)

    def energy(t):
        return tx_energy(loads, np.array([t, 1.0 - t]))[node_of] * cluster.path_losses

    def diff(t):
        e0, e1 = energy(t)
        return e0 - e1

    lo, hi = 1e-9, 1.0 - 1e-9
    increasing = diff(hi) > diff(lo)
    assert (diff(lo) > 0) != (diff(hi) > 0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (diff(mid) > 0) == increasing:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    return t, energy(t)


def test_crossing_equalization_matches_bisection():
    clusters = [make_cluster(np.random.default_rng(s), 2, model=m) for m in ("gauss", "bit") for s in range(20)]
    clusters += [two_node_cluster(distance=d, path_losses=(1.0, 3.0)) for d in (0.5, 1.5, 3.0)]
    for cluster in clusters:
        report = equal_energy_crossing(cluster)
        for crossing in report.crossings:
            t, point = _bisection_crossing(cluster, crossing.order)
            assert crossing.t_first == pytest.approx(t, rel=1e-11, abs=0)
            assert crossing.point == pytest.approx(point, rel=1e-11, abs=0)


def test_crossing_needs_both_loads_positive():
    # a bit pair at distance 0: the second node sends nothing, so its energy
    # stays 0 and the curve never meets the diagonal
    cluster = two_node_cluster(distance=0.0)
    assert np.any(cluster.loads(np.array([[0, 1]])) == 0)
    with pytest.raises(ValidationError, match="do not cross"):
        equal_energy_crossing(cluster)


def test_crossing_winner_is_static_winner():
    for seed in range(6):
        cluster = make_cluster(np.random.default_rng(seed), 2, model="gauss", equal_energy=True)
        report = equal_energy_crossing(cluster)
        static = brute_force(cluster, __import__("clusterlife").Shannon())
        assert report.winner == static.order


def test_hull_2d_is_scale_free():
    # tiny path losses scale every energy alike; the hull keeps its vertices
    _, energy = surface_sample((0, 1), two_node_cluster(), grid_density=40)
    hull = hull_2d(energy)
    assert len(hull) == 39
    for scale in (1e-12, 1e-9, 1e12):
        scaled = hull_2d(energy * scale)
        assert scaled.shape == hull.shape
        assert scaled == pytest.approx(hull * scale, rel=1e-12)


def test_hull_2d():
    pts = np.array([[0.0, 3.0], [1.0, 1.0], [2.0, 0.5], [3.0, 2.0], [1.5, 2.5]])
    hull = hull_2d(pts)
    # lower hull of the set: interior/upper points removed
    assert [list(p) for p in hull] == [[0.0, 3.0], [1.0, 1.0], [2.0, 0.5], [3.0, 2.0]]
    single = hull_2d(np.array([[1.0, 1.0]]))
    assert single.shape == (1, 2)
    with pytest.raises(ValidationError):
        hull_2d(np.ones((2, 3)))


def test_equal_line_alignment():
    pts = np.array([[1.0, 1.0], [1.0, 2.0], [3.0, 1.0]])
    align = equal_line_alignment(pts)
    assert align == pytest.approx([1.0, 0.5, 1.0 / 3.0])


def test_srra_points_enumeration():
    mode = Srra()
    cluster = make_cluster(np.random.default_rng(2), 3, model="gauss")
    pts = srra_points(cluster, mode)
    assert len(pts) == 6
    for p in pts:
        loads = cluster.schedule_loads(p.order).loads_by_node(3)
        assert p.energy == pytest.approx(mode.c * loads * cluster.path_losses, rel=1e-12)
        assert p.times is None


def test_srra_points_are_the_srra_columns():
    mode = Srra(c=0.9)
    cluster = make_cluster(np.random.default_rng(4), 4, model="bit")
    pts = srra_points(cluster, mode)
    cols = build_columns(cluster, mode)
    assert [p.order for p in pts] == [c.order for c in cols]
    for p, c in zip(pts, cols):
        assert isinstance(p, Column) and p.times is None and np.array_equal(p.energy, c.energy)


def test_srra_equal_line_point_attains_mcn_lifetime_on_homogeneous_clusters():
    # with identical batteries and channels, the point hugging the diagonal
    # always achieves the optimal (MCN) lifetime; its order can differ from
    # MCN's only through exact lifetime ties
    from conftest import random_positions

    mode = Srra()
    for seed in range(6):
        for n in (3, 4):
            rng = np.random.default_rng(seed)
            pos = random_positions(rng, n)
            nodes = [
                NodeSpec(i, (float(pos[i, 0]), float(pos[i, 1])), 1.5, 1.0) for i in range(n)
            ]
            cluster = ClusterSpec(nodes, GaussianField(1.0, 0.5, offset=3.0))
            pts = srra_points(cluster, mode)
            align = equal_line_alignment([p.energy for p in pts])
            closest = pts[int(np.argmax(align))]
            life = float(np.min(cluster.energies / closest.energy))
            assert life == pytest.approx(mcn(cluster, mode).lifetime, rel=1e-9)
