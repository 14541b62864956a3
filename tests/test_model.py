import math

import numpy as np
import pytest

from clusterlife import (
    HALF_LOG2_2PIE,
    BitDistance,
    ClusterSpec,
    GaussianField,
    ModelDegeneracyError,
    NodeSpec,
    ValidationError,
)

# Closed-form 2-node Gaussian entropies for sigma2=1, a=0.5, d=1.5, offset=3
# (rho = exp(-0.5 * 1.5^2)); values frozen from a 50-digit computation.
GAUSS_MARGINAL = 5.0470955851806411027
GAUSS_CONDITIONAL = 4.9667535421710526865


def collinear_cluster(model, spacing=1.0, n_nodes=3):
    nodes = [NodeSpec(i, (1.0 + i * spacing, 0.0), 1.0, 1.0) for i in range(n_nodes)]
    return ClusterSpec(nodes, model)


def test_node_validation():
    with pytest.raises(ValidationError):
        NodeSpec(0, (0.0, 0.0), 0.0, 1.0)
    with pytest.raises(ValidationError):
        NodeSpec(0, (0.0, 0.0), 1.0, -1.0)
    with pytest.raises(ValidationError):
        BitDistance(0)
    with pytest.raises(ValidationError):
        GaussianField(sigma2=0.0, a=1.0)
    with pytest.raises(ValidationError):
        GaussianField(sigma2=1.0, a=-0.1)


def test_ids_must_be_contiguous():
    nodes = [NodeSpec(0, (0.0, 0.0), 1.0, 1.0), NodeSpec(2, (1.0, 0.0), 1.0, 1.0)]
    with pytest.raises(ValidationError):
        ClusterSpec(nodes, BitDistance(3))
    with pytest.raises(ValidationError):
        ClusterSpec([], BitDistance(3))


def test_bit_distance_loads_collinear():
    cluster = collinear_cluster(BitDistance(5))
    sched = cluster.schedule_loads((0, 1, 2))
    assert list(sched.loads) == [5, 1, 1]
    # polled out of order: node 2 is 2 away from node 0
    sched = cluster.schedule_loads((0, 2, 1))
    assert list(sched.loads) == [5, 2, 1]


def test_bit_distance_prefix_rules():
    cluster = collinear_cluster(BitDistance(3), spacing=2.5)
    assert cluster.conditional_bits(1, []) == 3  # empty prefix: full n
    assert cluster.conditional_bits(1, [0]) == 3  # ceil(2.5) = 3 == n
    assert cluster.conditional_bits(2, [0]) == 3  # d = 5 > n caps at n
    assert cluster.conditional_bits(2, [0, 1]) == 3
    with pytest.raises(ValidationError):
        cluster.conditional_bits(1, [1])
    with pytest.raises(ValidationError):
        cluster.conditional_bits(9, [])


def test_gaussian_entropies_closed_form():
    model = GaussianField(1.0, 0.5, offset=3.0)
    cluster = collinear_cluster(model, spacing=1.5, n_nodes=2)
    assert cluster.conditional_bits(0, []) == pytest.approx(GAUSS_MARGINAL, rel=1e-12)
    assert cluster.conditional_bits(1, [0]) == pytest.approx(GAUSS_CONDITIONAL, rel=1e-12)
    sched = cluster.schedule_loads((0, 1))
    assert sched.loads[0] == pytest.approx(GAUSS_MARGINAL, rel=1e-12)
    assert sched.loads[1] == pytest.approx(GAUSS_CONDITIONAL, rel=1e-12)
    # conditioning reduces entropy
    assert sched.loads[1] < sched.loads[0]


def test_gaussian_covariance():
    model = GaussianField(2.0, 0.3, offset=3.0)
    cluster = collinear_cluster(model, spacing=1.0, n_nodes=3)
    k = cluster.covariance([0, 2])
    assert k[0, 0] == pytest.approx(2.0)
    assert k[0, 1] == pytest.approx(2.0 * math.exp(-0.3 * 4.0))
    assert np.all(np.linalg.eigvalsh(k) > 0)


def test_schedule_loads_match_stepwise_conditionals():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 3, size=(4, 2))
    nodes = [NodeSpec(i, tuple(pos[i]), 1.0, 1.0) for i in range(4)]
    cluster = ClusterSpec(nodes, GaussianField(1.0, 0.7, offset=3.0))
    order = (2, 0, 3, 1)
    sched = cluster.schedule_loads(order)
    for k in range(4):
        assert sched.loads[k] == pytest.approx(
            cluster.conditional_bits(order[k], order[:k]), rel=1e-10
        )
    by_node = sched.loads_by_node(4)
    for k in range(4):
        assert by_node[order[k]] == sched.loads[k]


def test_chain_rule_equals_joint_entropy():
    rng = np.random.default_rng(9)
    pos = rng.uniform(0, 3, size=(5, 2))
    nodes = [NodeSpec(i, tuple(pos[i]), 1.0, 1.0) for i in range(5)]
    cluster = ClusterSpec(nodes, GaussianField(1.0, 0.4, offset=3.0))
    joint = cluster.joint_entropy()
    for order in [(0, 1, 2, 3, 4), (4, 2, 0, 3, 1), (1, 3, 0, 4, 2)]:
        assert cluster.schedule_loads(order).loads.sum() == pytest.approx(joint, rel=1e-12)


def test_gaussian_degeneracy():
    nodes = [NodeSpec(0, (0.0, 0.0), 1.0, 1.0), NodeSpec(1, (1.0, 0.0), 1.0, 1.0)]
    with pytest.raises(ModelDegeneracyError):
        ClusterSpec(nodes, GaussianField(1.0, 0.0))  # a = 0 duplicates rows
    dup = [NodeSpec(0, (0.0, 0.0), 1.0, 1.0), NodeSpec(1, (0.0, 0.0), 1.0, 1.0)]
    with pytest.raises(ModelDegeneracyError):
        ClusterSpec(dup, GaussianField(1.0, 1.0))
    # without an offset the conditional load goes negative for close nodes
    close = [NodeSpec(0, (0.0, 0.0), 1.0, 1.0), NodeSpec(1, (0.05, 0.0), 1.0, 1.0)]
    cluster = ClusterSpec(close, GaussianField(1.0, 1.0, offset=0.0))
    with pytest.raises(ModelDegeneracyError):
        cluster.schedule_loads((0, 1))


def test_model_dispatch_validation():
    cluster = collinear_cluster(BitDistance(4))
    with pytest.raises(ValidationError):
        cluster.covariance([0, 1])
    with pytest.raises(ValidationError):
        cluster.joint_entropy()
    gauss = collinear_cluster(GaussianField(1.0, 0.5, offset=3.0))
    with pytest.raises(ValidationError):
        gauss.schedule_loads((0, 1))  # not a permutation of 0..2
    assert gauss.pairwise_distance(0, 2) == pytest.approx(2.0)


def test_half_log_constant():
    assert HALF_LOG2_2PIE == pytest.approx(0.5 * math.log2(2 * math.pi * math.e))
