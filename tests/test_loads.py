"""Properties of the batched conditional-load engine ``ClusterSpec.loads``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlife import ClusterSpec, GaussianField, ModelDegeneracyError, NodeSpec, ValidationError
from clusterlife.model import _LOADS_BLOCK
from clusterlife.static_sched import all_orders
from conftest import cluster_of, make_cluster

clusters = st.one_of(cluster_of("bit"), cluster_of("gauss"))
checked = settings(max_examples=60, deadline=None)


@checked
@given(clusters, st.data())
def test_prefix_consistency(cluster, data):
    order = data.draw(st.permutations(range(cluster.n)))
    k = data.draw(st.integers(1, cluster.n))
    other = order[:k] + data.draw(st.permutations(order[k:]))
    prefix = cluster.loads([order[:k]])[0]
    full = cluster.loads([order, other])
    for row in full:
        assert prefix[-1] == pytest.approx(row[k - 1], rel=1e-12)


@checked
@given(cluster_of("gauss"), st.data())
def test_chain_rule(cluster, data):
    order = data.draw(st.permutations(range(cluster.n)))
    assert cluster.loads([order])[0].sum() == pytest.approx(cluster.joint_entropy(), rel=1e-9)


@checked
@given(cluster_of("bit"), st.data())
def test_bit_model_is_min_ceil_distance(cluster, data):
    k = data.draw(st.integers(1, cluster.n))
    seq = data.draw(st.permutations(range(cluster.n)))[:k]
    n = cluster.correlation.n
    expected = []
    for j, node in enumerate(seq):
        bits = [math.ceil(d) if d <= n else n for d in cluster.distances[node, seq[:j]]]
        expected.append(min(bits, default=n))
    assert cluster.loads([seq])[0].tolist() == expected


@pytest.mark.parametrize("model", ["bit", "gauss"])
def test_blocks_are_bit_identical(model):
    cluster = make_cluster(np.random.default_rng(11), 7, model=model)
    orders = all_orders(7)
    assert len(orders) > _LOADS_BLOCK
    one_by_one = np.vstack([cluster.loads(orders[r:r + 1]) for r in range(len(orders))])
    assert np.array_equal(cluster.loads(orders), one_by_one)


def test_validation():
    cluster = make_cluster(np.random.default_rng(0), 3, model="gauss")
    for bad in ([[0, 0]], [[0, 3]], [[-1, 0]], [0, 1], [[0.0, 1.0]]):
        with pytest.raises(ValidationError):
            cluster.loads(bad)
    close = [NodeSpec(0, (0.0, 0.0), 1.0, 1.0), NodeSpec(1, (0.05, 0.0), 1.0, 1.0)]
    degenerate = ClusterSpec(close, GaussianField(1.0, 1.0, offset=0.0))
    with pytest.raises(ModelDegeneracyError, match=r"node 1 given \[0\]"):
        degenerate.loads([[0, 1]])


@checked
@given(clusters, st.data())
def test_subset_table_prices_every_order(cluster, data):
    table = cluster.subset_loads()
    order = data.draw(st.permutations(range(cluster.n)))
    masks = np.cumsum([0] + [1 << k for k in order[:-1]])
    assert cluster.loads([order])[0] == pytest.approx(table[masks, order], rel=1e-12)
    inside = (np.arange(1 << cluster.n)[:, None] >> np.arange(cluster.n)) & 1 == 1
    assert np.array_equal(np.isnan(table), inside)
