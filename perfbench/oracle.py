"""Reference oracle for the clusterlife benchmark, written apart from the package.

It imports nothing from ``clusterlife`` except the scenario reader, which it
uses only to validate a scenario file; every quantity is then recomputed from
the raw document:

* conditional loads: bit-distance as the minimum of ceil(d) over the polled
  prefix (capped at n); Gaussian loads from Schur-complement conditional
  variances, tabulated once per (prefix set, node);
* the Shannon energy f(h, t) = t (2^(h/t) - 1), its inverse in t by Newton's
  method on the convex map u -> ln(expm1(u)/u), and an equalizer solving
  sum_k t_k(L) = 1 by safeguarded Newton on ln L;
* the exact low-rate (SRRA) static optimum by dynamic programming over
  prefix sets: V(S) = max_{i in S} min(V(S - i), E_i / (c h(i | S - i) d_i));
* two cooperation LP bounds solved with HiGHS: the equalized columns only
  (a lower bound on any exact Shannon LP) and the SRRA relaxation with
  c = ln 2 over all orders (an upper bound, since f(h, t) >= h ln 2).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN2 = math.log(2.0)
HALF_LOG2_2PIE = 0.5 * math.log2(2.0 * math.pi * math.e)


class Instance:
    """Cluster data as plain arrays, indexed by node id."""

    def __init__(self, positions, energies, path_losses, model, c=LN2, shannon=True):
        self.positions = np.asarray(positions, dtype=float)
        self.energies = np.asarray(energies, dtype=float)
        self.path_losses = np.asarray(path_losses, dtype=float)
        self.model = model  # ("bit", n) or ("gauss", sigma2, a, offset)
        self.c = float(c)
        self.shannon = bool(shannon)
        self.n = len(self.energies)
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        self.distances = np.sqrt((diff**2).sum(axis=2))
        self.table = self._conditional_table()

    @classmethod
    def from_document(cls, doc: dict) -> "Instance":
        bs = doc["base_station"]
        rule = doc["path_loss"]["rule"]
        gamma = doc["path_loss"].get("gamma", 2.0)
        nodes = sorted(doc["nodes"], key=lambda nd: nd["id"])
        pos = [(nd["x"], nd["y"]) for nd in nodes]
        energies = [nd["energy"] for nd in nodes]
        if rule == "explicit" or "path_loss" in nodes[0]:
            losses = [nd["path_loss"] for nd in nodes]
        else:
            losses = [math.hypot(x - bs[0], y - bs[1]) ** gamma for x, y in pos]
        corr = doc["correlation"]
        if corr["model"] == "bit_distance":
            model = ("bit", int(corr["n"]))
        else:
            model = ("gauss", float(corr["sigma2"]), float(corr["a"]), float(corr.get("offset", 0.0)))
        mode = doc["energy_mode"]
        shannon = mode["mode"] == "shannon"
        return cls(pos, energies, losses, model, c=mode.get("c", LN2), shannon=shannon)

    @classmethod
    def from_file(cls, path) -> "Instance":
        from clusterlife.scenario import load_scenario  # validation only

        return cls.from_document(load_scenario(path).document)

    # -- conditional loads -------------------------------------------------

    def _conditional_table(self) -> np.ndarray:
        """table[mask, i] = bits node i sends after the nodes in ``mask``."""
        n = self.n
        table = np.full((1 << n, n), np.nan)
        if self.model[0] == "bit":
            nmax = self.model[1]
            pair = np.minimum(np.ceil(self.distances), nmax)
            for mask in range(1 << n):
                members = [j for j in range(n) if mask >> j & 1]
                for i in range(n):
                    if not mask >> i & 1:
                        table[mask, i] = nmax if not members else float(pair[i, members].min())
            return table
        _, sigma2, a, offset = self.model
        cov = sigma2 * np.exp(-a * self.distances**2)
        np.fill_diagonal(cov, sigma2)
        for mask in range(1 << n):
            members = [j for j in range(n) if mask >> j & 1]
            for i in range(n):
                if mask >> i & 1:
                    continue
                var = cov[i, i]
                if members:
                    k_si = cov[members, i]
                    var = var - float(k_si @ np.linalg.solve(cov[np.ix_(members, members)], k_si))
                table[mask, i] = HALF_LOG2_2PIE + 0.5 * math.log2(var) + offset
        return table

    def loads(self, orders) -> np.ndarray:
        """(M, N) loads by node id for an (M, N) array of polling orders."""
        orders = np.atleast_2d(np.asarray(orders, dtype=np.int64))
        m = orders.shape[0]
        out = np.empty((m, self.n))
        mask = np.zeros(m, dtype=np.int64)
        rows = np.arange(m)
        for k in range(self.n):
            node = orders[:, k]
            out[rows, node] = self.table[mask, node]
            mask |= np.int64(1) << node
        return out

    # -- lifetimes ---------------------------------------------------------

    def srra_lifetimes(self, orders) -> np.ndarray:
        per_slot = self.c * self.loads(orders) * self.path_losses
        return np.min(self.energies / per_slot, axis=1)

    def lifetimes(self, orders) -> np.ndarray:
        if self.shannon:
            return equalize(self.loads(orders), self.energies, self.path_losses)[0]
        return self.srra_lifetimes(orders)

    def best_static(self):
        """(max lifetime, lifetimes of every order, the order array)."""
        orders = all_orders(self.n)
        life = self.lifetimes(orders)
        return float(life.max()), life, orders

    def srra_dp(self) -> float:
        """Exact SRRA static optimum by dynamic programming over prefix sets."""
        c = self.c
        n = self.n
        value = np.empty(1 << n)
        value[0] = math.inf
        for mask in range(1, 1 << n):
            best = -math.inf
            for i in range(n):
                if mask >> i & 1:
                    rest = mask ^ (1 << i)
                    own = self.energies[i] / (c * self.table[rest, i] * self.path_losses[i])
                    best = max(best, min(value[rest], own))
            value[mask] = best
        return float(value[-1])

    # -- cooperation bounds --------------------------------------------------

    def lp_lower_bound(self) -> float:
        """Cooperation LP over the equalized Shannon column of every order."""
        orders = all_orders(self.n)
        loads = self.loads(orders)
        _, times = equalize(loads, self.energies, self.path_losses)
        columns = shannon_energy(loads, np.where(times > 0, times, 1.0)) * self.path_losses
        return max_slots(columns, self.energies)

    def lp_upper_bound(self) -> float:
        """SRRA relaxation with c = ln 2 over all orders; bounds any Shannon plan."""
        columns = LN2 * self.loads(all_orders(self.n)) * self.path_losses
        return max_slots(columns, self.energies)

    def srra_dynamic(self) -> float:
        """Exact SRRA cooperation optimum at this instance's constant c."""
        columns = self.c * self.loads(all_orders(self.n)) * self.path_losses
        return max_slots(columns, self.energies)


def all_orders(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def shannon_energy(h, t) -> np.ndarray:
    """f(h, t) = t (2^(h/t) - 1); zero wherever h == 0."""
    h = np.asarray(h, dtype=float)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = t * np.expm1(LN2 * h / t)
    return np.where(h > 0, out, 0.0)


def _phi(u):
    """ln(expm1(u) / u) and its derivative, for u > 0."""
    big = u > 30.0
    safe = np.where(big, 1.0, u)
    log_em1 = np.where(big, u + np.log1p(-np.exp(-np.where(big, u, 30.0))), np.log(np.expm1(safe)))
    value = log_em1 - np.log(u)
    slope = 1.0 / -np.expm1(-u) - 1.0 / u
    return value, slope


def solve_u(log_r):
    """u > 0 with ln(expm1(u)/u) = log_r, for log_r > 0 (Newton from the right)."""
    log_r = np.asarray(log_r, dtype=float)
    # The map is convex and increasing, so Newton started right of the root
    # decreases monotonically onto it.
    u = np.maximum(2.0 * log_r, log_r + np.log1p(log_r)) + 1.0
    for _ in range(100):
        value, slope = _phi(u)
        step = (value - log_r) / slope
        u = np.maximum(u - step, 0.5 * u)
        if np.all(np.abs(step) <= 1e-15 * u):
            break
    return u


def time_for_energy(h, e):
    """Time t with f(h, t) == e, for e > h ln 2 (h > 0)."""
    h = np.asarray(h, dtype=float)
    e = np.asarray(e, dtype=float)
    u = solve_u(np.log(e / (h * LN2)))
    return h * LN2 / u


def equalize(loads, energies, path_losses):
    """Equal-lifetime slot split for each row of a (M, N) load matrix.

    Returns (lifetimes (M,), times (M, N)). Rows with no positive load get an
    infinite lifetime. Solves S(x) = sum_k t_k(e^x) - 1 = 0 in x = ln L by
    Newton, safeguarded by a bracket, with dS/dx = sum_k t_k / (u_k phi'(u_k)).
    """
    h = np.asarray(loads, dtype=float)
    m, n = h.shape
    e = np.broadcast_to(np.asarray(energies, dtype=float), (m, n))
    d = np.broadcast_to(np.asarray(path_losses, dtype=float), (m, n))
    pos = h > 0
    life = np.full(m, np.inf)
    times = np.zeros((m, n))
    rows = np.any(pos, axis=1)
    if not np.any(rows):
        return life, times
    h, e, d, pos = h[rows], e[rows], d[rows], pos[rows]
    hs = np.where(pos, h, 1.0)
    # ln of the per-node ratio E / (d h ln 2): L must stay strictly below it.
    log_cap = np.log(e / (d * hs * LN2))
    x_hi = np.min(np.where(pos, log_cap, np.inf), axis=1)

    def total(x):
        log_r = np.where(pos, log_cap - x[:, None], 1.0)
        u = solve_u(log_r)
        t = np.where(pos, hs * LN2 / u, 0.0)
        _, slope = _phi(u)
        dt = np.where(pos, t / (u * slope), 0.0)
        return t.sum(axis=1) - 1.0, dt.sum(axis=1), t

    x_lo = x_hi - 1.0
    for _ in range(200):
        s, _, _ = total(x_lo)
        low = s >= 0.0
        if not np.any(low):
            break
        x_lo = np.where(low, x_hi - 2.0 * (x_hi - x_lo), x_lo)
    x = x_lo.copy()
    for _ in range(200):
        s, ds, t = total(x)
        x_lo = np.where(s < 0.0, x, x_lo)
        x_hi = np.where(s > 0.0, x, x_hi)
        newton = x - s / ds
        inside = (newton > x_lo) & (newton < x_hi)
        x_new = np.where(inside, newton, 0.5 * (x_lo + x_hi))
        if np.all((np.abs(s) <= 1e-14) | (x_new == x)):
            break
        x = x_new
    else:
        raise RuntimeError("oracle equalizer did not converge")
    life[rows] = np.exp(x)
    times[rows] = t
    return life, times


def max_slots(columns, energies) -> float:
    """max sum(tau) s.t. sum_j tau_j columns[j] <= energies, tau >= 0 (HiGHS).

    Rows are divided by the battery and the slot counts are measured in units
    of the longest single-column lifetime, so the solver sees entries and
    values of order one.
    """
    from scipy.optimize import linprog

    a = np.asarray(columns, dtype=float).T / np.asarray(energies, dtype=float)[:, None]
    if np.any(np.max(a, axis=0) <= 0):
        return math.inf
    unit = 1.0 / np.min(np.max(a, axis=0))
    res = linprog(
        -np.ones(a.shape[1]),
        A_ub=a * unit,
        b_ub=np.ones(a.shape[0]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(-res.fun * unit)
