"""Lifetime-equalizing transmission-time allocation, batched over schedules.

Given the conditional loads of a schedule, the best single-schedule operation
splits the unit slot so that every transmitting node's battery divided by its
per-slot energy comes out equal. That common value is the schedule's lifetime,
found by bisecting on the lifetime L: the time node k needs to hit per-slot
energy E_k/(L*d_k) grows strictly with L, so sum-of-times == 1 pins L down.

In the low-rate (SRRA) regime energy does not depend on time at all, so the
allocation question disappears and the lifetime is a plain min-ratio.
"""

from __future__ import annotations

import numpy as np

from .energy import LN2, min_time_for_energy
from .errors import NumericError

# |sum(t) - 1| target for the outer bisection on L, and its iteration cap.
# Kept well below the 1e-9 contract so downstream consumers (equal-energy
# crossings) can compare allocations at 1e-8.
_SUM_TOL = 1e-12
_MAX_ITER = 300


def equalize_batch(loads, energies, path_losses):
    """Equal-lifetime time allocation for each row of an (M, N) load matrix.

    ``energies`` and ``path_losses`` share the loads' indexing (typically node
    id), with shape (N,) or (M, N). Returns (lifetimes (M,), times (M, N)).
    Zero-load nodes get zero time; all-zero rows get lifetime inf.
    """
    h = np.asarray(loads, dtype=float)
    if h.ndim != 2:
        raise ValueError("loads must be a (schedules, nodes) matrix")
    m, n = h.shape
    e = np.broadcast_to(np.asarray(energies, dtype=float), (m, n))
    d = np.broadcast_to(np.asarray(path_losses, dtype=float), (m, n))
    if np.any(h < 0) or np.any(e <= 0) or np.any(d <= 0):
        raise ValueError("loads must be >= 0 and energies/path losses > 0")

    lifetimes = np.full(m, np.inf)
    times = np.zeros((m, n))
    active_rows = np.any(h > 0, axis=1)
    if not np.any(active_rows):
        return lifetimes, times

    ha = h[active_rows]
    ea = e[active_rows]
    da = d[active_rows]
    pos = ha > 0

    def total_time(lifetime):
        # Required per-slot energy per node at candidate lifetime L, then the
        # minimal time achieving it; inactive nodes contribute nothing.
        budget = np.where(pos, ea / (lifetime[:, None] * da), np.inf)
        t = min_time_for_energy(np.where(pos, ha, 0.0), budget)
        return t

    # L must stay below every node's ratio E/(d*h*ln2), where required energy
    # meets the asymptote and the needed time diverges.
    with np.errstate(divide="ignore"):
        l_cap = np.min(np.where(pos, ea / (da * np.maximum(ha, 1e-300) * LN2), np.inf), axis=1)
    hi = 0.999 * l_cap
    # Push hi toward the cap until the time budget is exceeded there.
    for _ in range(60):
        short = total_time(hi).sum(axis=1) < 1.0
        if not np.any(short):
            break
        hi[short] = l_cap[short] - 0.1 * (l_cap[short] - hi[short])
    else:
        raise NumericError("failed to bracket the equalized lifetime from above")
    lo = np.zeros_like(hi)

    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        t = total_time(mid)
        s = t.sum(axis=1)
        # Convergence is judged at the evaluated midpoint, which is also the
        # point returned: re-deriving a fresh midpoint after the bracket
        # update would hand back a point the tolerance was never checked at.
        if np.all(np.abs(s - 1.0) <= _SUM_TOL) or np.all(hi - lo <= 1e-16 * hi):
            break
        over = s > 1.0
        hi[over] = mid[over]
        lo[~over] = mid[~over]
    lifetimes[active_rows] = mid
    times[active_rows] = np.where(pos, t, 0.0)
    return lifetimes, times


def lifetime_srra_batch(loads, energies, path_losses, c: float = LN2):
    """Low-rate lifetime min over nodes of E/(c*h*d) for each row of a
    (schedules, nodes) load matrix; zero loads never bottleneck."""
    h = np.asarray(loads, dtype=float)
    e = np.asarray(energies, dtype=float)
    d = np.asarray(path_losses, dtype=float)
    if np.any(h < 0) or np.any(e <= 0) or np.any(d <= 0) or c <= 0:
        raise ValueError("loads must be >= 0, energies/path losses/c > 0")
    pos = h > 0
    ratios = np.where(pos, e / (c * np.maximum(h, 1e-300) * d), np.inf)
    return ratios.min(axis=1)
