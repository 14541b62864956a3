import math

import numpy as np
import pytest

from clusterlife import (
    LN2,
    InfeasibleEnergyError,
    Shannon,
    Srra,
    min_time_for_energy,
    srra_error,
    tx_energy,
)

# High-precision inverse values (independent 300-step bisection at 50 digits).
INVERSE_ORACLE = [
    (1.0, 2.0, 0.37595947047969740568),
    (2.0, 3.0, 1.0),
    (2.5, 4.0, 1.1621607195203381117),
    (0.3, 0.5, 0.13358270355787149819),
    (5.0, 4.0, 12.36877886930826583),
]


def test_exact_values():
    assert tx_energy(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert tx_energy(2.0, 1.0) == pytest.approx(3.0, abs=1e-14)
    assert tx_energy(1.0, 0.5) == pytest.approx(1.5, abs=1e-14)


def test_zero_load_costs_nothing():
    assert tx_energy(0.0, 0.5) == 0.0
    assert srra_error(0.0, 0.5) == 0.0


def test_srra_mode_is_linear_and_time_free():
    mode = Srra(c=0.9)
    assert tx_energy(3.0, 0.1, mode) == pytest.approx(2.7)
    assert tx_energy(3.0, 100.0, mode) == pytest.approx(2.7)
    assert Srra().c == pytest.approx(LN2)
    with pytest.raises(ValueError):
        Srra(c=0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        tx_energy(-1.0, 1.0)
    with pytest.raises(ValueError):
        tx_energy(1.0, 0.0)
    with pytest.raises(ValueError):
        min_time_for_energy(-1.0, 1.0)
    with pytest.raises(ValueError):
        min_time_for_energy(np.array([1.0, -1e-300]), 2.0)


def test_overflow_returns_inf():
    assert tx_energy(1000.0, 1e-6) == math.inf


def test_monotone_decreasing_and_convex_in_time():
    rng = np.random.default_rng(1)
    h = rng.uniform(0.1, 8.0, size=2000)
    x = rng.uniform(0.05, 5.0, size=2000)
    dx = 1e-3
    f0 = tx_energy(h, x)
    f1 = tx_energy(h, x + dx)
    assert np.all(f1 < f0)
    # midpoint convexity on random bracket pairs
    x2 = x + rng.uniform(0.1, 2.0, size=x.size)
    mid = 0.5 * (x + x2)
    assert np.all(
        tx_energy(h, mid) <= 0.5 * (tx_energy(h, x) + tx_energy(h, x2)) + 1e-12
    )


def test_blow_up_and_asymptote():
    h = 2.0
    assert tx_energy(h, 1e-3) > 1e100
    assert abs(tx_energy(h, 1e6) - h * LN2) < 1e-5 * h
    assert srra_error(h, 1e6) < 1e-5 * h
    assert srra_error(h, 0.5) > 0  # the exact curve sits above the asymptote


@pytest.mark.parametrize("h,e,t_star", INVERSE_ORACLE)
def test_inverse_oracle(h, e, t_star):
    t = min_time_for_energy(h, e)
    assert t == pytest.approx(t_star, rel=1e-10)
    assert tx_energy(h, t) == pytest.approx(e, rel=1e-10)


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        h = float(rng.uniform(0.05, 10.0))
        x = float(rng.uniform(0.01, 20.0))
        e = tx_energy(h, x)
        assert min_time_for_energy(h, e) == pytest.approx(x, rel=1e-8)


def test_inverse_infeasible_at_or_below_asymptote():
    with pytest.raises(InfeasibleEnergyError):
        min_time_for_energy(2.0, 2.0 * LN2)
    with pytest.raises(InfeasibleEnergyError):
        min_time_for_energy(2.0, 0.5)


def bisect_time(h, e):
    """Independent inverse: bracketed bisection directly on t, to 1e-12 relative width."""
    hi = 1.0
    while tx_energy(h, hi) > e:
        hi *= 2.0
    lo = hi
    while tx_energy(h, lo) < e:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tx_energy(h, mid) > e:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def test_vectorized_inverse_matches_scalar():
    rng = np.random.default_rng(11)
    h = rng.uniform(0.05, 10.0, size=500)
    # budgets from slightly above the asymptote to astronomically large
    factor = np.exp(rng.uniform(np.log(1.0 + 1e-6), np.log(1e6), size=500))
    e = h * LN2 * factor
    t_vec = min_time_for_energy(h, e)
    for i in range(0, 500, 7):
        assert t_vec[i] == pytest.approx(bisect_time(float(h[i]), float(e[i])), rel=1e-10)
    # full-batch roundtrip
    assert np.allclose(tx_energy(h, t_vec), e, rtol=1e-8)


def test_scalar_inverse_is_the_array_element():
    h = np.array([0.3, 2.5, 5.0])
    e = np.array([0.5, 4.0, 4.0])
    t_vec = min_time_for_energy(h, e)
    for i in range(3):
        t = min_time_for_energy(float(h[i]), float(e[i]))
        assert type(t) is float and t == t_vec[i]
    t_zero = min_time_for_energy(0.0, 1.0)
    assert type(t_zero) is float and t_zero == 0.0


def test_vectorized_inverse_zero_load_and_infeasible():
    t = min_time_for_energy(np.array([0.0, 1.0]), np.array([5.0, 2.0]))
    assert t[0] == 0.0
    assert t[1] == pytest.approx(0.37595947047969740568, rel=1e-10)
    with pytest.raises(InfeasibleEnergyError):
        min_time_for_energy(np.array([1.0]), np.array([0.5]))


def test_mode_types():
    assert isinstance(Shannon(), Shannon)
    assert Shannon() == Shannon()
    assert Srra(c=1.0) != Srra(c=2.0)


def eighty_halvings(h, e):
    """The inverse's log-space bisection with all 80 halvings (no early exit)."""
    r = e / (h * LN2)
    ln_r = np.log(r)
    lo = np.full(r.shape, -700.0)
    hi = np.full(r.shape, 7.0)
    for _ in range(80):
        v = 0.5 * (lo + hi)
        u = np.exp(v)
        small = u <= 40.0
        log_g = np.where(small, np.log(np.expm1(np.where(small, u, 1.0))), u) - v
        above = log_g >= ln_r
        hi = np.where(above, v, hi)
        lo = np.where(above, lo, v)
    return h * LN2 / np.exp(0.5 * (lo + hi))


def test_early_exit_keeps_the_bits_of_eighty_halvings():
    rng = np.random.default_rng(19)
    # generic ratios from just above the asymptote to the top of the range
    h = np.exp(rng.uniform(np.log(1e-6), np.log(16.0), size=400))
    r = np.exp(np.exp(rng.uniform(np.log(1e-14), np.log(700.0), size=400)))
    e = [h * LN2 * r]
    # u near 1 (ln u near 0, where v's float spacing is finest and all 80 halvings run)
    hu = rng.uniform(0.5, 4.0, size=200)
    u = 1.0 + rng.uniform(-1e-6, 1e-6, size=200)
    u[:20] = 1.0
    e.append(hu * LN2 * np.expm1(u) / u)
    # ratios a few ulps above 1
    hr = np.ones(16)
    e.append(LN2 * (1.0 + np.arange(1, 17) * np.finfo(float).eps))
    h, e = np.concatenate([h, hu, hr]), np.concatenate(e)
    keep = e / (h * LN2) > 1.0
    assert keep.sum() > 600
    h, e = h[keep], e[keep]
    assert np.array_equal(min_time_for_energy(h, e), eighty_halvings(h, e))
