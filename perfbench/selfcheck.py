"""The oracle's own tests, against closed forms and plain enumeration.

Run before every benchmark run, and on their own with
``python3 perfbench/selfcheck.py``. Each check raises ``SelfCheckFailed``
with a message; ``run()`` returns the list of failures.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracle
from oracle import LN2, Instance


SEED = 20070105


class SelfCheckFailed(Exception):
    pass


def _expect(cond, message):
    if not cond:
        raise SelfCheckFailed(message)


def worked_instance():
    """Two nodes, bit-distance n = 2 at distance 1, E = 2c, d = 1: L_stat = 1, L_dyn = 4/3."""
    inst = Instance([(0.0, 0.0), (1.0, 0.0)], [2 * LN2, 2 * LN2], [1.0, 1.0], ("bit", 2), c=LN2, shannon=False)
    _expect(math.isclose(inst.srra_dp(), 1.0, rel_tol=1e-12), f"worked L_stat {inst.srra_dp()} != 1")
    _expect(math.isclose(inst.srra_dynamic(), 4.0 / 3.0, rel_tol=1e-9), f"worked L_dyn {inst.srra_dynamic()} != 4/3")


def chain_rule():
    """Gaussian loads of every order add up to the joint entropy."""
    rng = np.random.default_rng(SEED)
    n = 5
    pos = rng.uniform(1.0, 4.0, size=(n, 2))
    inst = Instance(pos, np.ones(n), np.ones(n), ("gauss", 1.3, 0.7, 3.0))
    cov = 1.3 * np.exp(-0.7 * inst.distances**2)
    joint = n * (oracle.HALF_LOG2_2PIE + 3.0) + 0.5 * np.linalg.slogdet(cov)[1] / LN2
    totals = inst.loads(oracle.all_orders(n)).sum(axis=1)
    _expect(np.allclose(totals, joint, rtol=1e-12, atol=0), "chain rule: order sums differ from the joint entropy")


def energy_inverse():
    """f(h, t(h, e)) == e across many decades of e / (h ln 2)."""
    rng = np.random.default_rng(SEED)
    h = rng.uniform(0.5, 8.0, size=2000)
    ratio = np.exp(rng.uniform(1e-6, 600.0, size=2000))
    e = h * LN2 * ratio
    t = oracle.time_for_energy(h, e)
    back = oracle.shannon_energy(h, t)
    _expect(np.allclose(back, e, rtol=1e-11, atol=0), "energy inverse does not round-trip")


def equalizer_closed_forms():
    """One node uses the whole slot; two identical nodes split it in half."""
    life, times = oracle.equalize(np.array([[3.0]]), [7.0], [2.0])
    _expect(math.isclose(life[0], 7.0 / (2.0 * (2.0**3 - 1.0)), rel_tol=1e-13), "one-node lifetime")
    _expect(math.isclose(times[0, 0], 1.0, rel_tol=1e-13), "one-node time")
    life, times = oracle.equalize(np.array([[2.0, 2.0]]), [5.0, 5.0], [1.5, 1.5])
    _expect(math.isclose(life[0], 5.0 / (1.5 * 0.5 * (2.0**4 - 1.0)), rel_tol=1e-13), "two-node lifetime")
    _expect(np.allclose(times, 0.5, rtol=1e-13), "two-node times")


def equalizer_certificate():
    """Every node of every row dies at the common lifetime, and times sum to 1."""
    rng = np.random.default_rng(SEED)
    h = rng.uniform(0.5, 6.0, size=(300, 6))
    e = rng.uniform(0.5, 2.0, size=6)
    d = rng.uniform(1.0, 30.0, size=6)
    life, times = oracle.equalize(h, e, d)
    _expect(np.allclose(times.sum(axis=1), 1.0, rtol=0, atol=1e-13), "equalized times do not sum to 1")
    per_node = d * oracle.shannon_energy(h, times)
    _expect(np.allclose(per_node * life[:, None], e, rtol=1e-11, atol=0), "equalized lifetimes differ per node")


def dp_matches_enumeration():
    """The prefix-subset DP equals the best of all N! orders, N <= 5."""
    rng = np.random.default_rng(SEED)
    for n in range(1, 6):
        for model in (("bit", 5), ("gauss", 1.0, 0.5, 3.0)):
            pos = rng.uniform(1.0, 4.0, size=(n, 2))
            inst = Instance(pos, rng.uniform(0.5, 2.0, n), rng.uniform(1.0, 30.0, n), model, shannon=False)
            enum = float(inst.srra_lifetimes(oracle.all_orders(n)).max())
            _expect(math.isclose(inst.srra_dp(), enum, rel_tol=1e-13), f"DP != enumeration at N={n} {model[0]}")


def bounds_bracket():
    """LP lower bound >= every static lifetime; upper bound >= lower bound."""
    rng = np.random.default_rng(SEED)
    pos = rng.uniform(1.0, 4.0, size=(4, 2))
    inst = Instance(pos, rng.uniform(0.5, 2.0, 4), rng.uniform(1.0, 30.0, 4), ("gauss", 1.0, 1.0, 3.0))
    best = inst.best_static()[0]
    lower = inst.lp_lower_bound()
    upper = inst.lp_upper_bound()
    _expect(lower >= best * (1 - 1e-9), f"LP lower bound {lower} below the static optimum {best}")
    _expect(upper >= lower * (1 - 1e-9), f"SRRA upper bound {upper} below the lower bound {lower}")


CHECKS = [worked_instance, chain_rule, energy_inverse, equalizer_closed_forms, equalizer_certificate,
          dp_matches_enumeration, bounds_bracket]


def run() -> list[str]:
    """Run every check; return one message per failure."""
    failures = []
    for check in CHECKS:
        try:
            check()
        except SelfCheckFailed as exc:
            failures.append(f"{check.__name__}: {exc}")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(line)
    print(f"{len(CHECKS) - len(problems)}/{len(CHECKS)} oracle self-checks pass")
    sys.exit(1 if problems else 0)
