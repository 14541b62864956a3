import dataclasses
import math

import numpy as np
import pytest

from clusterlife import (
    BitDistance,
    ClusterSpec,
    GaussianField,
    GuardError,
    HALF_LOG2_2PIE,
    NodeSpec,
    Shannon,
    Srra,
    ValidationError,
    brute_force,
    dynamic_lifetime,
    lifetime_by_schedule_count,
    verify_theorem4,
)
from clusterlife import dynamic_sched
from clusterlife.dynamic_sched import Column, build_columns, simplex_grid_samples, solve_lp
from clusterlife.static_sched import all_orders, evaluate_orders, split_energy
from conftest import make_cluster, two_node_cluster


def asymmetric_entropy_pair(energy=None):
    """Two symmetric nodes whose marginal load is 2 and conditional load 1.

    offset = 2 - HALF_LOG2_2PIE makes the marginal exactly 2 bits, and
    rho = sqrt(3)/2 makes 0.5*log2(1 - rho^2) = -1, so the conditional load
    is exactly 1 bit.
    """
    d = 1.0
    rho = math.sqrt(3.0) / 2.0
    a = -math.log(rho) / d**2
    offset = 2.0 - HALF_LOG2_2PIE
    e = 1.0 if energy is None else energy
    nodes = [NodeSpec(0, (0.0, 0.0), e, 1.0), NodeSpec(1, (d, 0.0), e, 1.0)]
    return ClusterSpec(nodes, GaussianField(1.0, a, offset=offset))


def test_asymmetric_entropy_instance_loads():
    cluster = asymmetric_entropy_pair()
    loads = cluster.schedule_loads((0, 1)).loads
    assert loads[0] == pytest.approx(2.0, rel=1e-12)
    assert loads[1] == pytest.approx(1.0, rel=1e-12)


def test_simplex_grid_samples():
    t = simplex_grid_samples(3, 20)
    assert t.shape == (20, 3)
    assert np.allclose(t.sum(axis=1), 1.0)
    assert np.all(t > 0)
    # deterministic
    assert np.array_equal(t, simplex_grid_samples(3, 20))
    assert np.allclose(simplex_grid_samples(1, 5), 1.0)
    # reasonably spread: no two of the first 20 points coincide
    assert len({tuple(np.round(row, 6)) for row in t}) == 20


def test_build_columns_counts_and_guard():
    cluster = make_cluster(np.random.default_rng(0), 3, model="gauss")
    cols = build_columns(cluster, Shannon(), samples_per_schedule=4)
    assert len(cols) == 6 * 4
    cols = build_columns(cluster, Srra(), samples_per_schedule=4)
    assert len(cols) == 6  # allocation-free: one column per schedule
    with pytest.raises(ValidationError):
        build_columns(cluster, Shannon(), samples_per_schedule=0)
    big = make_cluster(np.random.default_rng(1), 8, model="bit")
    with pytest.raises(GuardError):
        build_columns(big, Shannon())


def test_worked_symmetric_low_rate_instance():
    # loads (2, 1) per schedule, both batteries 2*c*d: the single-schedule
    # lifetime is exactly 1, cooperation of the two mirrored schedules gives
    # tau = (2/3, 2/3) and lifetime 4/3 exactly.
    mode = Srra()
    c = mode.c
    nodes = [NodeSpec(0, (0.0, 0.0), 2.0 * c, 1.0), NodeSpec(1, (1.0, 0.0), 2.0 * c, 1.0)]
    cluster = ClusterSpec(nodes, BitDistance(2))
    static = brute_force(cluster, mode)
    assert static.lifetime == pytest.approx(1.0, abs=1e-9)
    plan = dynamic_lifetime(cluster, mode)
    assert plan.lifetime == pytest.approx(4.0 / 3.0, abs=1e-9)
    support = plan.support()
    assert len(support) == 2
    for _, tau in support:
        assert tau == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert set(plan.active_nodes) == {0, 1}


def test_solve_lp_zero_column_is_unbounded():
    cols = [
        Column(order=(0, 1), times=None, energy=np.array([0.0, 0.0])),
        Column(order=(1, 0), times=None, energy=np.array([1.0, 1.0])),
    ]
    plan = solve_lp(cols, np.array([1.0, 1.0]))
    assert plan.infinite


def test_solve_lp_tiny_column_is_not_free():
    # every entry is far below the pivot tolerance, yet the column lasts 100 slots
    cols = [Column(order=(1, 0), times=None, energy=np.array([1e-12, 1e-12]))]
    plan = solve_lp(cols, np.array([1e-10, 1e-10]))
    assert plan.lifetime == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("mode", [Srra(), Shannon()])
def test_dynamic_lifetime_is_scale_free(mode):
    # batteries and path losses scaled together by 1e-12 leave every lifetime unchanged
    base = make_cluster(np.random.default_rng(1), 3)
    factor = 100.5 / brute_force(base, mode).lifetime

    def scaled(s):
        nodes = [NodeSpec(nd.id, nd.position, nd.energy * factor * s, nd.path_loss * s) for nd in base.nodes]
        return ClusterSpec(nodes, base.correlation)

    unit = dynamic_lifetime(scaled(1.0), mode).lifetime
    tiny = dynamic_lifetime(scaled(1e-12), mode).lifetime
    assert unit == pytest.approx(137.46251473055864 if isinstance(mode, Srra) else 100.5, rel=1e-12)
    assert tiny == pytest.approx(unit, rel=1e-12)


def test_solve_lp_keeps_overflowing_columns_at_zero_slots():
    # 1e305 / 1e-5 overflows: that column lasts under 1e-308 slots, so it
    # gets none and the LP is solved over the other columns
    cols = [
        Column(order=(0, 1), times=None, energy=np.array([1e305, 1.0])),
        Column(order=(1, 0), times=None, energy=np.array([1e-7, 1e-7])),
    ]
    energies = np.array([1e-5, 1e-5])
    plan = solve_lp(cols, energies)
    assert plan.slot_counts[0] == 0.0
    assert plan.lifetime == pytest.approx(100.0, rel=1e-12)
    alone = solve_lp(cols[:1], energies)
    assert alone.lifetime == 0.0 and list(alone.slot_counts) == [0.0]


def test_solve_lp_validation():
    with pytest.raises(ValidationError):
        solve_lp([], np.array([1.0]))
    cols = [Column(order=(0,), times=None, energy=np.array([-1.0]))]
    with pytest.raises(ValidationError):
        solve_lp(cols, np.array([1.0]))
    cols = [Column(order=(0, 1), times=None, energy=np.array([1.0, 1.0]))]
    with pytest.raises(ValidationError):
        solve_lp(cols, np.array([1.0, 1.0, 1.0]))


def test_lp_support_is_at_most_n_and_feasible():
    for seed in range(6):
        cluster = make_cluster(np.random.default_rng(seed), 3, model="gauss")
        plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=6)
        support = plan.support()
        assert len(support) <= cluster.n
        used = sum(tau * col.energy for col, tau in support)
        assert np.all(used <= cluster.energies * (1 + 1e-7) + 1e-7)
        assert plan.lifetime == pytest.approx(sum(t for _, t in support), rel=1e-9)


def test_dynamic_never_worse_than_static():
    for seed in range(8):
        for model in ("bit", "gauss"):
            cluster = make_cluster(np.random.default_rng(seed), 3, model=model)
            static = brute_force(cluster, Shannon())
            plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=5)
            assert plan.lifetime >= static.lifetime * (1 - 1e-9)


def test_lp_handles_extreme_column_scales():
    # sampled allocations near the simplex floor cost astronomically more
    # energy than the equalized one; the solve must stay feasible anyway
    rng = np.random.default_rng(3)
    pos = rng.uniform(1, 4, size=(4, 2))
    en = rng.uniform(0.5, 2.0, size=4)
    nodes = [
        NodeSpec(i, tuple(pos[i]), float(en[i]), float(np.hypot(*pos[i]) ** 2)) for i in range(4)
    ]
    cluster = ClusterSpec(nodes, GaussianField(1.0, 1.0, offset=3.0))
    static = brute_force(cluster, Shannon())
    plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=6)
    assert plan.lifetime >= static.lifetime * (1 - 1e-9)
    used = sum(tau * col.energy for col, tau in plan.support())
    assert np.all(used <= cluster.energies * (1 + 1e-7))


def test_lifetime_by_schedule_count_monotone():
    cluster = make_cluster(np.random.default_rng(4), 3, model="gauss")
    seq = lifetime_by_schedule_count(cluster, Shannon(), samples_per_schedule=5)
    assert len(seq) == 6
    for a, b in zip(seq, seq[1:]):
        assert b >= a - 1e-8 * max(1.0, a)
    # m = 1 equals the best static schedule (its equalized column is in the set)
    static = brute_force(cluster, Shannon())
    assert seq[0] >= static.lifetime * (1 - 1e-9)


@pytest.mark.parametrize("mode", [Srra(), Shannon()], ids=["Srra", "Shannon"])
def test_lifetime_by_schedule_count_prices_each_column_once(mode, monkeypatch):
    cluster = make_cluster(np.random.default_rng(3), 3, model="bit")
    calls = []
    build = dynamic_sched.build_columns
    monkeypatch.setattr(dynamic_sched, "build_columns", lambda *a, **k: calls.append(1) or build(*a, **k))
    seq = lifetime_by_schedule_count(cluster, mode, samples_per_schedule=5)
    assert len(calls) == 1
    monkeypatch.undo()
    # reference: one column build and LP per m on the m best-ranked orders
    orders = all_orders(3)
    ranked = orders[np.argsort(-evaluate_orders(cluster, orders, mode).lifetimes, kind="stable")]
    ref = [dynamic_lifetime(cluster, mode, 5, orders=ranked[:m]).lifetime for m in range(1, 7)]
    if isinstance(mode, Srra):
        assert seq == ref
    else:  # each reference equalizes its own batch, so its last bits differ
        assert seq == pytest.approx(ref, rel=1e-10, abs=0)


def test_lifetime_by_schedule_count_guard():
    big = make_cluster(np.random.default_rng(1), 8, model="bit")
    with pytest.raises(GuardError):
        lifetime_by_schedule_count(big, Srra())


def test_verify_theorem4_skips_starved_splits_on_random_pairs():
    # random pairs' grids hold splits whose energy overflows; those pairs are
    # skipped, so no pair raises and cooperation never loses
    for model in ("gauss", "bit"):
        for seed in range(60):
            report = verify_theorem4(make_cluster(np.random.default_rng(seed), 2, model))
            assert report.dynamic_lifetime >= report.static_lifetime * (1 - 1e-9)
            if report.witness is not None:
                assert report.witness_lifetime > report.static_lifetime
                assert report.dynamic_lifetime >= report.witness_lifetime


def test_verify_theorem4_solves_one_lp(monkeypatch):
    # a weakly correlated pair: the grid is built, yet no pair beats static
    cluster = two_node_cluster(distance=3.0, model=GaussianField(1.0, 0.5, offset=3.0))
    calls = []
    lp = dynamic_sched.solve_lp
    monkeypatch.setattr(dynamic_sched, "solve_lp", lambda *a, **k: calls.append(1) or lp(*a, **k))
    report = verify_theorem4(cluster)
    assert report.witness is None
    assert len(calls) == 1


@pytest.mark.parametrize("distance", [1.2, 1.48, 2.0])
def test_verify_theorem4_finds_gains_near_the_static_split(distance):
    # symmetric Gaussian pairs this far apart gain only with r and s within
    # a few 1e-3 of t, finer than the evenly spaced grid
    cluster = two_node_cluster(distance=distance, model=GaussianField(1.0, 0.5, offset=3.0))
    report = verify_theorem4(cluster)
    assert report.witness is not None
    best = report.static_order
    r, s = report.witness
    times, energy = split_energy(cluster, [best, best[::-1]], [[[r, 1 - r]], [[s, 1 - s]]])
    pair = solve_lp([Column(best, times[0, 0], energy[0, 0]), Column(best[::-1], times[1, 0], energy[1, 0])],
                    cluster.energies)
    assert pair.lifetime == pytest.approx(report.witness_lifetime, rel=1e-9, abs=0)
    assert pair.lifetime > report.static_lifetime * (1 + 1e-9)


@pytest.mark.parametrize("seed", [74, 124])
def test_verify_theorem4_witness_never_beats_its_own_plan(seed):
    report = verify_theorem4(make_cluster(np.random.default_rng(seed), 2, "gauss"))
    assert report.witness is not None
    assert report.dynamic_lifetime >= report.witness_lifetime


def test_theorem_improvement_on_asymmetric_entropy_instance():
    cluster = asymmetric_entropy_pair()
    report = verify_theorem4(cluster)
    assert report.dynamic_lifetime > report.static_lifetime + 1e-6
    assert report.witness is not None
    assert report.witness_lifetime > report.static_lifetime + 1e-9
    r, s = report.witness
    assert 0 < r < 1 and 0 < s < 1


def test_theorem4_witness_at_tiny_battery_scale():
    # the 13% gain must show however small the batteries: the witness test
    # is relative to the static lifetime, not an absolute 1e-9 margin
    report = verify_theorem4(asymmetric_entropy_pair(energy=1e-9))
    assert report.witness is not None
    assert report.dynamic_lifetime > report.static_lifetime * 1.13


def test_theorem4_static_baseline_is_brute_force():
    # node 1 holds 1e-9 more battery, so polling it first is better by a
    # relative 1e-9 that an absolute 1e-12 tie margin cannot see
    base = asymmetric_entropy_pair(energy=1e-12)
    nodes = [base.nodes[0], dataclasses.replace(base.nodes[1], energy=(1 + 1e-9) * 1e-12)]
    cluster = ClusterSpec(nodes, base.correlation)
    report = verify_theorem4(cluster)
    assert brute_force(cluster, Shannon()).order == (1, 0)
    assert report.static_order == (1, 0)


def test_verify_theorem4_validation():
    cluster = make_cluster(np.random.default_rng(5), 3, model="gauss")
    with pytest.raises(ValidationError):
        verify_theorem4(cluster)
    two = asymmetric_entropy_pair()
    with pytest.raises(ValidationError):
        verify_theorem4(two, mode=Srra())
