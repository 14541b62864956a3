import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlife import (
    BitDistance,
    ClusterSpec,
    GuardError,
    NodeSpec,
    Shannon,
    Srra,
    ValidationError,
    brute_force,
    dynamic_lifetime,
    simulate_dynamic,
    simulate_static,
)
import clusterlife.simulate as simulate_module
from clusterlife.dynamic_sched import Column, DynamicPlan
from clusterlife.simulate import FEASIBILITY_SLACK, SimTrace, simulate
from clusterlife.static_sched import StaticResult
from conftest import make_cluster, two_node_cluster


def manual_static_result(order, per_slot):
    per_slot = np.asarray(per_slot, dtype=float)
    return StaticResult(
        order=order,
        loads=np.zeros(len(order)),
        lifetime=0.0,
        method="manual",
        per_slot_energy=per_slot,
    )


def test_static_counts_whole_slots():
    cluster = two_node_cluster(energies=(1.0, 1.0))
    plan = manual_static_result((0, 1), [0.25, 0.5])
    trace = simulate_static(plan, cluster)
    assert trace.completed_slots == 2
    assert trace.first_dead == 1  # node 1 cannot pay the third slot
    records = list(trace.records())
    assert len(records) == 2
    assert records[-1].remaining == pytest.approx([0.5, 0.0])
    assert records[0].slot == 1 and records[0].order == (0, 1)


def test_static_floor_of_analytic_lifetime():
    for seed in range(6):
        for model in ("bit", "gauss"):
            cluster = make_cluster(np.random.default_rng(seed), 4, model=model)
            # scale batteries up so several slots complete
            nodes = [
                NodeSpec(nd.id, nd.position, nd.energy * 50.0, nd.path_loss)
                for nd in cluster.nodes
            ]
            cluster = ClusterSpec(nodes, cluster.correlation)
            res = brute_force(cluster, Shannon())
            trace = simulate_static(res, cluster)
            assert trace.completed_slots == math.floor(res.lifetime + 1e-9)
            assert trace.first_dead is not None


def test_static_guards_and_validation():
    cluster = two_node_cluster()
    with pytest.raises(GuardError):
        simulate_static(manual_static_result((0, 1), [0.0, 0.0]), cluster)
    with pytest.raises(ValidationError):
        simulate_static(manual_static_result((0, 1, 2), [0.1, 0.1, 0.1]), cluster)
    with pytest.raises(GuardError):
        simulate_static(manual_static_result((0, 1), [1e-9, 1e-9]), cluster, max_slots=100)


def test_dynamic_runs_columns_and_bounds():
    mode = Srra()
    c = mode.c
    nodes = [NodeSpec(0, (0.0, 0.0), 20.0 * c, 1.0), NodeSpec(1, (1.0, 0.0), 20.0 * c, 1.0)]
    cluster = ClusterSpec(nodes, BitDistance(2))
    plan = dynamic_lifetime(cluster, mode)
    assert plan.lifetime == pytest.approx(40.0 / 3.0, rel=1e-9)
    trace = simulate_dynamic(plan, cluster)
    floor = math.floor(plan.lifetime + 1e-9)
    assert floor - len(plan.support()) <= trace.completed_slots <= floor
    # every executed slot used one of the plan's schedules
    plan_orders = {col.order for col, _ in plan.support()}
    assert {rec.order for rec in trace.records()} <= plan_orders


def test_dynamic_infinite_plan_is_guarded():
    plan = DynamicPlan(columns=(), slot_counts=np.array([]), lifetime=math.inf, active_nodes=())
    with pytest.raises(GuardError):
        simulate_dynamic(plan, two_node_cluster())


def test_dynamic_empty_support():
    plan = DynamicPlan(columns=(), slot_counts=np.array([]), lifetime=0.0, active_nodes=())
    trace = simulate_dynamic(plan, two_node_cluster())
    assert trace.completed_slots == 0
    assert trace.first_dead is None


def test_dispatcher():
    cluster = two_node_cluster(energies=(10.0, 10.0))
    res = brute_force(cluster, Shannon())
    assert simulate(res, cluster).completed_slots == math.floor(res.lifetime + 1e-9)
    plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=4)
    assert simulate(plan, cluster).completed_slots >= math.floor(plan.lifetime + 1e-9) - len(
        plan.support()
    )
    with pytest.raises(ValidationError):
        simulate("not a plan", cluster)


def test_batteries_never_go_negative_beyond_slack():
    for seed in range(4):
        cluster = make_cluster(np.random.default_rng(seed), 3, model="gauss")
        nodes = [
            NodeSpec(nd.id, nd.position, nd.energy * 30.0, nd.path_loss) for nd in cluster.nodes
        ]
        cluster = ClusterSpec(nodes, cluster.correlation)
        plan = dynamic_lifetime(cluster, Shannon(), samples_per_schedule=4)
        trace = simulate_dynamic(plan, cluster)
        for rec in trace.records():
            assert np.all(rec.remaining >= -1e-9)


# The per-slot walks the block walk replaced, kept as the reference it must
# match bit for bit: (slot, order, energy_spent, remaining) rows, the
# completed slot count and the first node that could not pay.


def pays(remaining, cost):
    """Nodes that can pay a slot: within the relative slack of their cost, or costing nothing."""
    return (cost == 0) | (remaining >= cost * (1 - FEASIBILITY_SLACK))


def reference_static(result, cluster, max_slots):
    cost = np.asarray(result.per_slot_energy, dtype=float)
    remaining = cluster.energies.astype(float).copy()
    rows = []
    slot = 0
    while slot < max_slots and np.all(pays(remaining, cost)):
        remaining = remaining - cost
        slot += 1
        rows.append((slot, result.order, cost.copy(), remaining.copy()))
    if slot >= max_slots:
        raise GuardError(f"simulation exceeded {max_slots} slots")
    return rows, slot, int(np.nonzero(~pays(remaining, cost))[0][0])


def reference_dynamic(plan, cluster, max_slots):
    support = plan.support()
    support.sort(key=lambda item: (-item[1], item[0].order))
    remaining = cluster.energies.astype(float).copy()
    rows = []
    slot = 0
    first_dead = None

    def run_column(col, count):
        nonlocal slot, remaining, first_dead
        for _ in range(count):
            if slot >= max_slots:
                raise GuardError(f"simulation exceeded {max_slots} slots")
            if not np.all(pays(remaining, col.energy)):
                if first_dead is None:
                    first_dead = int(np.nonzero(~pays(remaining, col.energy))[0][0])
                return
            remaining = remaining - col.energy
            slot += 1
            rows.append((slot, col.order, col.energy.copy(), remaining.copy()))

    for col, tau in support:
        run_column(col, math.floor(tau))
    for col, _ in support:
        run_column(col, 1)
    return rows, slot, first_dead


def walk_outcome(walk, plan, cluster, max_slots):
    """Bit-exact rows, slot count and first dead node of a walk, or its guard message."""
    try:
        out = walk(plan, cluster, max_slots)
    except GuardError as exc:
        return str(exc)
    if isinstance(out, SimTrace):
        rows = [(r.slot, r.order, r.energy_spent, r.remaining) for r in out.records()]
        out = rows, out.completed_slots, out.first_dead
    rows, slots, first_dead = out
    return [(k, o, e.tobytes(), r.tobytes()) for k, o, e, r in rows], slots, first_dead


REFERENCE_CAP = 2000


@st.composite
def cost_vectors(draw, energies):
    """Per-slot costs over many decades: zeros, free powers of ten, and E_k / (count + fraction)."""
    cost = []
    for e in energies:
        kind = draw(st.sampled_from(["zero", "decade", "count"]))
        if kind == "zero":
            cost.append(0.0)
        elif kind == "decade":
            cost.append(10.0 ** draw(st.floats(-14, 3)))
        else:
            cost.append(e / (draw(st.integers(0, 300)) + draw(st.floats(0.01, 0.99))))
    return np.array(cost)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_walk_matches_per_slot_reference(data):
    n = data.draw(st.integers(1, 4), label="n")
    energies = 10.0 ** np.array(data.draw(st.lists(st.floats(-12, 3), min_size=n, max_size=n)))
    nodes = [NodeSpec(i, (float(i), 1.0), float(energies[i]), 1.0) for i in range(n)]
    cluster = ClusterSpec(nodes, BitDistance(2))
    if data.draw(st.booleans(), label="static"):
        plan = manual_static_result(tuple(range(n)), data.draw(cost_vectors(energies)))
        if not np.any(plan.per_slot_energy > 0):
            plan = manual_static_result(plan.order, plan.per_slot_energy + energies)
        walk, reference = simulate_static, reference_static
    else:
        columns, counts = [], []
        for _ in range(data.draw(st.integers(1, 4), label="columns")):
            order = tuple(data.draw(st.permutations(range(n))))
            columns.append(Column(order, None, data.draw(cost_vectors(energies))))
            counts.append(data.draw(st.just(0.0) | st.floats(0.0, 1.0) | st.floats(0.0, 300.0)))
        plan = DynamicPlan(tuple(columns), np.array(counts), float(sum(counts)), ())
        walk, reference = simulate_dynamic, reference_dynamic
    probe = walk_outcome(reference, plan, cluster, REFERENCE_CAP)
    done = REFERENCE_CAP if isinstance(probe, str) else probe[1]
    near = st.sampled_from([max(done - 1, 0), done, done + 1])
    max_slots = data.draw(near | st.integers(0, REFERENCE_CAP), label="max_slots")
    block = data.draw(st.sampled_from([1, 2, 3, 7, simulate_module._BLOCK]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "_BLOCK", block)
        got = walk_outcome(walk, plan, cluster, max_slots)
    assert got == walk_outcome(reference, plan, cluster, max_slots)


@pytest.mark.parametrize("block", [1, 3, 7, 4096])
def test_blocks_and_records_replay_the_same_bits(block, monkeypatch):
    monkeypatch.setattr(simulate_module, "_BLOCK", block)
    cluster = two_node_cluster(energies=(1.0, 1.0))
    columns = (
        Column((0, 1), None, np.array([0.01, 0.03])),
        Column((1, 0), None, np.array([0.02, 0.0])),
        Column((0, 1), None, np.array([1e-3, 7e-3])),
    )
    plan = DynamicPlan(columns, np.array([10.0, 20.5, 5.0]), 35.5, (0, 1))
    trace = simulate_dynamic(plan, cluster)
    assert len(trace.segments) > 1
    blocks = list(trace.blocks())
    assert all(0 < len(after) <= block for _, _, after in blocks)
    replayed = [(order, cost.tobytes(), row.tobytes()) for order, cost, after in blocks for row in after]
    records = list(trace.records())
    assert [rec.slot for rec in records] == list(range(1, trace.completed_slots + 1))
    assert [(rec.order, rec.energy_spent.tobytes(), rec.remaining.tobytes()) for rec in records] == replayed


def scaled(cluster, energy=1.0, path_loss=1.0):
    nodes = [
        dataclasses.replace(nd, energy=nd.energy * energy, path_loss=nd.path_loss * path_loss) for nd in cluster.nodes
    ]
    return ClusterSpec(nodes, cluster.correlation)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.sampled_from(["bit", "gauss"]),
    st.sampled_from([Shannon(), Srra()]),
    st.booleans(),
    st.floats(1.0, 300.0),
    st.integers(-12, 12),
)
def test_whole_slots_are_scale_free(seed, n, model, mode, dynamic, target, k):
    # a lifetime depends on batteries and path losses only through E/d, so
    # scaling both by 10^k moves neither it nor the whole slots the walk
    # completes (the slack is relative to each per-slot cost)
    cluster = make_cluster(np.random.default_rng(seed), n, model=model)
    cluster = scaled(cluster, target / brute_force(cluster, mode).lifetime)
    outcomes = []
    for c in (cluster, scaled(cluster, 10.0**k, 10.0**k)):
        if dynamic:
            plan = dynamic_lifetime(c, mode, samples_per_schedule=3)
            outcomes.append((plan.lifetime, simulate_dynamic(plan, c).completed_slots))
        else:
            plan = brute_force(c, mode)
            outcomes.append((plan.lifetime, simulate_static(plan, c).completed_slots))
    (lifetime, slots), (scaled_lifetime, scaled_slots) = outcomes
    assert scaled_lifetime == pytest.approx(lifetime, rel=1e-9)
    if abs(lifetime - round(lifetime)) > 1e-6:
        assert scaled_slots == slots


def drained_peak_bytes(slots):
    cluster = two_node_cluster(energies=(1.0, 1.0))
    plan = manual_static_result((0, 1), [1.0 / (slots + 0.5), 0.5 / (slots + 0.5)])
    tracemalloc.start()
    try:
        trace = simulate_static(plan, cluster)
        for _ in trace.records():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.completed_slots == slots
    return peak


def test_walk_and_replay_memory_is_bounded():
    big = drained_peak_bytes(200_000)
    assert big < 2 * 2**20
    # the peak is one block, not a slot count
    assert big < drained_peak_bytes(20_000) + 2**16


def test_static_plan_reaching_the_default_cap_is_guarded():
    plan = manual_static_result((0, 1), [1e-8, 1e-8])
    with pytest.raises(GuardError, match="exceeded 10000000 slots"):
        simulate_static(plan, two_node_cluster(energies=(1.0, 1.0)))
