"""Properties of the batched order evaluator ``static_sched.evaluate_orders``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlife import ClusterSpec, Shannon, Srra, simulate_static, tx_energy
from clusterlife.static_sched import all_orders, evaluate_orders, evaluate_schedule
from conftest import cluster_of

clusters = st.one_of(cluster_of("bit"), cluster_of("gauss"))
modes = st.sampled_from([Shannon(), Srra(), Srra(c=1.0)])
checked = settings(max_examples=25, deadline=None)


@settings(max_examples=20, deadline=None)
@given(clusters, modes, st.data())
def test_rows_match_evaluate_schedule(cluster, mode, data):
    orders = all_orders(cluster.n)
    batch = evaluate_orders(cluster, orders, mode)
    rows = range(len(orders))
    if isinstance(mode, Shannon) and cluster.n >= 5:
        # one-row Shannon equalization takes ~70 ms at N >= 5: check a drawn
        # sample of the rows of the full N! batch
        rows = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=8, unique=True))
    for r in rows:
        one = evaluate_schedule(orders[r], cluster, mode)
        assert batch.lifetimes[r] == pytest.approx(one.lifetime, rel=1e-9)
        assert batch.energy[r] == pytest.approx(one.per_slot_energy, rel=1e-8)
        assert np.array_equal(batch.loads[r][orders[r]], one.loads)


@checked
@given(clusters)
def test_shannon_rows_equalize(cluster):
    batch = evaluate_orders(cluster, all_orders(cluster.n), Shannon())
    for loads, lifetime, times, energy in zip(batch.loads, batch.lifetimes, batch.times, batch.energy):
        loaded = loads > 0
        assert cluster.energies[loaded] / energy[loaded] == pytest.approx(lifetime, rel=1e-6)
        assert abs(times.sum() - 1.0) <= 1e-9


@checked
@given(clusters, st.sampled_from([Srra(), Srra(c=1.0)]), st.data())
def test_srra_bottleneck_attains_the_lifetime(cluster, mode, data):
    result = evaluate_schedule(data.draw(st.permutations(range(cluster.n))), cluster, mode)
    k = result.bottleneck
    assert cluster.energies[k] / result.per_slot_energy[k] == result.lifetime
    loaded = result.per_slot_energy > 0
    assert np.all(cluster.energies[loaded] / result.per_slot_energy[loaded] >= result.lifetime)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.0, 60.0), st.floats(1e-3, 1e3)), min_size=1, max_size=20),
    modes,
)
def test_tx_energy_scalar_is_the_array_element(pairs, mode):
    h, x = np.array(pairs).T
    energy = tx_energy(h, x, mode)
    for i in range(len(pairs)):
        scalar = tx_energy(float(h[i]), float(x[i]), mode)
        assert isinstance(scalar, float)
        assert np.array_equal(np.float64(scalar), energy[i])  # bit for bit, inf included


@checked
@given(clusters, modes, st.integers(1, 199), st.floats(1e-3, 1 - 1e-3), st.data())
def test_simulate_static_completes_floor_lifetime(cluster, mode, whole, fraction, data):
    # batteries scaled so the order's lifetime is `whole + fraction` slots,
    # kept off integers so floor() does not hinge on root-finder residue
    order = data.draw(st.permutations(range(cluster.n)))
    scale = (whole + fraction) / evaluate_schedule(order, cluster, mode).lifetime
    nodes = [dataclasses.replace(nd, energy=nd.energy * scale) for nd in cluster.nodes]
    scaled = ClusterSpec(nodes, cluster.correlation)
    result = evaluate_schedule(order, scaled, mode)
    assert simulate_static(result, scaled).completed_slots == math.floor(result.lifetime) == whole
