import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clusterlife import allocation, tx_energy
from clusterlife.allocation import equalize_batch, lifetime_srra_batch
from clusterlife.energy import LN2

# Equalized lifetime for loads (2, 1), E = (1, 1), d = (1, 1); frozen from a
# 50-digit bisection on t(2, 1/L) + t(1, 1/L) = 1.
EQ21_LIFETIME = 0.25200314752575131697
EQ21_T0 = 0.75699809063558394399


def equalize_one(loads, energies, path_losses):
    """One-row equalize_batch: (lifetime, times, per-slot energy by node)."""
    loads = np.asarray(loads, dtype=float)
    lifetimes, times = equalize_batch(loads[None, :], energies, path_losses)
    return float(lifetimes[0]), times[0], tx_energy(loads, times[0]) * np.asarray(path_losses, dtype=float)


def grid_oracle(loads, energies, path_losses, steps=4001):
    """Best min-node-lifetime over a refined time grid (N = 2 only)."""
    h = np.asarray(loads, float)
    e = np.asarray(energies, float)
    d = np.asarray(path_losses, float)

    def best_on(lo, hi):
        t0 = np.linspace(lo, hi, steps)
        times = np.stack([t0, 1 - t0], axis=1)
        energy = tx_energy(h[None, :], times) * d[None, :]
        life = (e[None, :] / np.where(energy > 0, energy, np.inf)).min(axis=1)
        k = int(np.argmax(life))
        return float(life[k]), float(t0[k])

    lo, hi = 1e-4, 1 - 1e-4
    value, t_star = best_on(lo, hi)
    step = (hi - lo) / (steps - 1)
    for _ in range(3):  # local refinement around the coarse argmax
        lo = max(1e-6, t_star - 2 * step)
        hi = min(1 - 1e-6, t_star + 2 * step)
        value, t_star = best_on(lo, hi)
        step = (hi - lo) / (steps - 1)
    return value


def test_symmetric_two_nodes():
    lifetime, times, energy = equalize_one([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    assert times == pytest.approx([0.5, 0.5], abs=1e-9)
    assert lifetime == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert energy == pytest.approx([1.5, 1.5], rel=1e-9)
    assert not math.isinf(lifetime)


def test_loads_2_1_frozen_oracle():
    lifetime, times, _ = equalize_one([2.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    assert lifetime == pytest.approx(EQ21_LIFETIME, rel=1e-9)
    assert times[0] == pytest.approx(EQ21_T0, rel=1e-8)
    assert times.sum() == pytest.approx(1.0, abs=1e-9)


def test_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        loads = rng.uniform(0.3, 5.0, size=2)
        e = rng.uniform(0.5, 2.0, size=2)
        d = rng.uniform(0.5, 3.0, size=2)
        lifetime, _, _ = equalize_one(loads, e, d)
        assert lifetime == pytest.approx(grid_oracle(loads, e, d), rel=1e-4)


def test_equal_node_lifetimes():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        loads = rng.uniform(0.2, 6.0, size=n)
        e = rng.uniform(0.5, 2.0, size=n)
        d = rng.uniform(0.5, 3.0, size=n)
        lifetime, times, energy = equalize_one(loads, e, d)
        node_lifetimes = e / energy
        assert times.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.ptp(node_lifetimes) <= 1e-6 * node_lifetimes.mean()
        assert node_lifetimes[0] == pytest.approx(lifetime, rel=1e-6)


def test_zero_load_nodes_get_zero_time():
    lifetime, times, energy = equalize_one([2.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert times[1] == 0.0
    assert energy[1] == 0.0
    assert times.sum() == pytest.approx(1.0, abs=1e-9)
    # the zero-load node frees time, so lifetime beats the 3-active case
    lifetime3, _, _ = equalize_one([2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert lifetime > lifetime3


def test_all_zero_loads_is_infinite():
    lifetime, times, _ = equalize_one([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    assert math.isinf(lifetime)
    assert np.all(times == 0.0)


def test_batch_matches_scalar():
    rng = np.random.default_rng(12)
    loads = rng.uniform(0.2, 5.0, size=(40, 4))
    loads[3] = 0.0
    e = rng.uniform(0.5, 2.0, size=4)
    d = rng.uniform(0.5, 3.0, size=4)
    lifetimes, times = equalize_batch(loads, e, d)
    assert math.isinf(lifetimes[3])
    for r in range(0, 40, 5):
        single_lifetime, single_times, _ = equalize_one(loads[r], e, d)
        assert lifetimes[r] == pytest.approx(single_lifetime, rel=1e-10)
        assert times[r] == pytest.approx(single_times, rel=1e-8, abs=1e-12)


def test_batch_validation():
    with pytest.raises(ValueError):
        equalize_batch(np.ones(3), np.ones(3), np.ones(3))  # not 2-D
    with pytest.raises(ValueError):
        equalize_batch(-np.ones((1, 2)), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        equalize_batch([[1.0]], [0.0], [1.0])


def test_lifetime_is_consistent_with_energy_curve():
    lifetime, times, _ = equalize_one([3.0, 1.5], [2.0, 0.7], [1.3, 2.1])
    # battery / (per-slot energy) equals the lifetime for every active node
    assert 2.0 / (tx_energy(3.0, float(times[0])) * 1.3) == pytest.approx(lifetime, rel=1e-8)


def test_srra_min_ratio():
    lifetime = lifetime_srra_batch([[2.0, 1.0]], [1.0, 1.0], [1.0, 1.0])[0]
    assert lifetime == pytest.approx(1.0 / (2.0 * LN2), rel=1e-12)  # node 0 bottlenecks
    lifetime = lifetime_srra_batch([[2.0, 1.0]], [1.0, 1.0], [1.0, 1.0], c=1.0)[0]
    assert lifetime == pytest.approx(0.5)


def test_srra_zero_loads():
    lifetime = lifetime_srra_batch([[0.0, 1.0]], [1.0, 1.0], [1.0, 1.0])[0]
    assert lifetime == pytest.approx(1.0 / LN2, rel=1e-12)  # node 1 bottlenecks
    lifetime = lifetime_srra_batch([[0.0, 0.0]], [1.0, 1.0], [1.0, 1.0])[0]
    assert math.isinf(lifetime)
    with pytest.raises(ValueError):
        lifetime_srra_batch([[1.0]], [1.0], [1.0], c=0.0)


def test_srra_batch_matches_scalar():
    rng = np.random.default_rng(2)
    loads = rng.uniform(0.0, 5.0, size=(30, 3))
    e = rng.uniform(0.5, 2.0, size=3)
    d = rng.uniform(0.5, 3.0, size=3)
    batch = lifetime_srra_batch(loads, e, d)
    for r in range(30):
        ratios = [e[k] / (LN2 * loads[r, k] * d[k]) for k in range(3) if loads[r, k] > 0]
        assert batch[r] == pytest.approx(min(ratios), rel=1e-12)


def test_zero_load_beside_a_large_battery_does_not_overflow():
    # E/(d*h) at a zero load once overflowed through a 1e-300 floor; the
    # suite turns that RuntimeWarning into an error.
    lifetimes, times = equalize_batch([[2.0, 0.0]], [1e9, 1e9], [1.0, 1.0])
    assert times[0, 1] == 0.0
    assert times[0, 0] == pytest.approx(1.0, abs=1e-11)
    assert lifetimes[0] == pytest.approx(1e9 / 3.0, rel=1e-11)
    srra = lifetime_srra_batch([[2.0, 0.0]], [1e9, 1e9], [1.0, 1.0])
    assert srra[0] == 1e9 / (LN2 * 2.0 * 1.0)


def outcome(loads, energies, path_losses):
    """equalize_batch's (lifetimes, times), or the (type, message) it raises."""
    try:
        return equalize_batch(loads, energies, path_losses)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def reference(loads, energies, path_losses):
    """The all-bisection run: every row of every step through the exact inverse."""
    with mock.patch.object(allocation, "_MARGIN", np.inf):
        return outcome(loads, energies, path_losses)


def assert_same(got, want):
    assert type(got[0]) is type(want[0])
    if isinstance(want[0], np.ndarray):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    else:
        assert got == want


@st.composite
def load_batches(draw):
    """Loads log-uniform in [1e-6, 16] bits with zero loads and all-zero rows,
    batteries scaled by 10^-12..10^12, path losses in [0.1, 10]."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 24))
    loads = np.exp(draw(arrays(float, (m, n), elements=st.floats(math.log(1e-6), math.log(16.0)))))
    loads[draw(arrays(bool, (m, n))) & draw(arrays(bool, (m, n)))] = 0.0
    loads[draw(arrays(bool, m)) & draw(arrays(bool, m))] = 0.0
    scale = 10.0 ** draw(st.floats(-12.0, 12.0))
    energies = scale * draw(arrays(float, n, elements=st.floats(0.5, 2.0)))
    path_losses = np.exp(draw(arrays(float, n, elements=st.floats(math.log(0.1), math.log(10.0)))))
    return loads, energies, path_losses


@settings(max_examples=60, deadline=None)
@given(load_batches())
def test_filter_keeps_the_all_bisection_bits(batch):
    assert_same(outcome(*batch), reference(*batch))


def test_misjudged_newton_step_falls_back_to_the_all_bisection_run():
    rng = np.random.default_rng(5)
    loads = rng.uniform(0.2, 5.0, size=(6, 4))
    e = rng.uniform(0.5, 2.0, size=4)
    d = rng.uniform(0.5, 3.0, size=4)
    want = reference(loads, e, d)
    newton = allocation._newton_u

    def biased(ln_r, u):
        # converged by its own account, with no error bound, and 1e-9 off
        u, done, cond = newton(ln_r, u)
        return u * (1.0 + 1e-9), done, 0.0 * cond

    runs = []
    bisect = allocation._bisect_lifetime

    def recorded(*args):
        runs.append(args[-1])
        return bisect(*args)

    with mock.patch.object(allocation, "_newton_u", biased), mock.patch.object(allocation, "_MARGIN", 0.0), \
            mock.patch.object(allocation, "_bisect_lifetime", recorded):
        got = outcome(loads, e, d)
    assert runs == [0.0, np.inf]
    assert_same(got, want)
