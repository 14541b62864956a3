"""Lifetime-equalizing transmission-time allocation, batched over schedules.

Given the conditional loads of a schedule, the best single-schedule operation
splits the unit slot so that every transmitting node's battery divided by its
per-slot energy comes out equal. That common value is the schedule's lifetime,
found by bisecting on the lifetime L: the time node k needs to hit per-slot
energy E_k/(L*d_k) grows strictly with L, so sum-of-times == 1 pins L down.

Each bisection step reads its row sums from a Newton inverse warm-started at
the previous step, with an error bound, and calls the bisection inverse
``min_time_for_energy`` only on the rows whose Newton sum lies too close to
a threshold the step compares against, and on every row at the returned
point: a floating-point filter in the manner of Shewchuk's adaptive
predicates (Discrete Comput. Geom. 18, 1997). So every decision and every
returned bit is that of the run with the bisection inverse alone. Should the
bisection inverse's sums at the returned point break the stopping rule,
which only a Newton sum outside its bound could cause, that run is redone
with every row sent to the bisection inverse.

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

# A Newton row sum decides a comparison only when it clears the threshold by
# this much plus its conditioning term; an infinite margin sends every row to
# the bisection inverse, which is the reference run.
_MARGIN = 1e-13
# Newton iterations per evaluation, and the relative last step that counts as
# converged (the quadratic error left after it is below 1e-16 relative).
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-8
_EPS = np.finfo(float).eps


def _newton_u(ln_r, u):
    """u > 0 with ln(expm1(u)/u) = ln_r by Newton from the guess ``u``.

    Returns (u, converged, cond), where cond = (|ln expm1 u| + |ln u| + 1) /
    (u phi'(u)) with phi(u) = ln(expm1(u)/u) bounds how far rounding in the
    log-space residual moves ln u. The map is convex and increasing, so a
    start left of the root overshoots once and then decreases onto it.
    """
    for _ in range(_NEWTON_STEPS):
        q = -np.expm1(-u)
        ln_u = np.log(u)
        ln_em1 = u + np.log(q)
        slope = np.where(u < 1e-4, 0.5 + u / 12.0, 1.0 / q - 1.0 / u)
        step = (ln_em1 - ln_u - ln_r) / slope
        u = np.maximum(u - step, 0.5 * u)
        done = np.abs(step) <= _NEWTON_TOL * u
        if done.all():
            break
    return u, done, (np.abs(ln_em1) + np.abs(ln_u) + 1.0) / (u * slope)


class _RowSums:
    """Sum of the times each row's nodes need at a per-row lifetime.

    ``at`` reads every row's sum from the warm-started Newton inverse with an
    error bound; ``settle`` swaps in the bisection inverse's sum on each row
    whose bound does not keep it clear of the given thresholds, so every
    comparison against them comes out as with the bisection inverse alone.
    """

    def __init__(self, h, e, d, margin):
        self.h, self.e, self.d, self.margin = h, e, d, margin
        self.pos = pos = h > 0
        self.hl = np.where(pos, h * LN2, 1.0)
        self.u = None
        self.lifetime = np.full(len(h), np.nan)
        self.known = np.zeros(len(h), dtype=bool)
        self.exact = np.zeros(len(h))
        self.times = np.zeros(h.shape)

    def at(self, lifetime):
        # A row whose bracket has stopped moving keeps its bisection sum.
        self.known &= lifetime == self.lifetime
        self.lifetime = lifetime.copy()
        # The budget and ratio r are the bisection inverse's own, so an r <= 1
        # entry sends its row there to raise as it would.
        self.budget = np.where(self.pos, self.e / (lifetime[:, None] * self.d), np.inf)
        r = self.budget / self.hl
        good = self.pos & (r > 1.0) & (r < np.inf)
        with np.errstate(all="ignore"):
            ln_r = np.log(np.where(good, r, 2.0))
            if self.u is None:
                self.u = np.maximum(2.0 * ln_r, ln_r + np.log1p(ln_r)) + 1.0
            self.u, done, cond = _newton_u(ln_r, self.u)
            t = np.where(self.pos, self.hl / self.u, 0.0)
            # Rounding in either inverse moves ln t by at most ~8 eps * cond.
            width = self.margin + 16.0 * _EPS * np.where(self.pos, t * cond, 0.0).sum(axis=1)
        self.sums = t.sum(axis=1)
        self.width = np.where(np.any(self.pos & ~(good & done), axis=1), np.inf, width)
        return self

    def settle(self, *thresholds):
        close = np.zeros_like(self.known)
        for x in thresholds:
            close |= ~(np.abs(self.sums - x) > self.width)
        self._confirm(close)
        return np.where(self.known, self.exact, self.sums)

    def confirm_all(self):
        """(sums, times) of the bisection inverse on every row."""
        self._confirm(np.ones_like(self.known))
        return self.exact, self.times

    def _confirm(self, rows):
        rows = rows & ~self.known
        if rows.any():
            t = min_time_for_energy(np.where(self.pos[rows], self.h[rows], 0.0), self.budget[rows])
            self.times[rows] = t
            self.exact[rows] = t.sum(axis=1)
            self.known |= rows


def _bisect_lifetime(h, e, d, margin):
    """The bisection on L over rows with a positive load.

    Returns (lifetimes, times, certified); ``certified`` is False when the
    bisection inverse's sums at the returned point break the stopping rule,
    which only a Newton sum outside its error bound can cause.
    """
    sums = _RowSums(h, e, d, margin)
    # L must stay below every node's ratio E/(d*h*ln2), where required energy
    # meets the asymptote and the needed time diverges.
    with np.errstate(divide="ignore"):
        l_cap = np.min(np.divide(e, d * h * LN2, out=np.full(h.shape, np.inf), where=sums.pos), axis=1)
    hi = 0.999 * l_cap
    # Push hi toward the cap until the time budget is exceeded there.
    for _ in range(60):
        short = sums.at(hi).settle(1.0) < 1.0
        if not np.any(short):
            break
        hi[short] = l_cap[short] - 0.1 * (l_cap[short] - hi[short])
    else:
        raise NumericError("failed to bracket the equalized lifetime from above")
    lo = np.zeros_like(hi)

    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        s = sums.at(mid).settle(1.0 - _SUM_TOL, 1.0, 1.0 + _SUM_TOL)
        # Convergence is judged at the evaluated midpoint, which is also the
        # point returned: re-deriving a fresh midpoint after the bracket
        # update would hand back a point the tolerance was never checked at.
        collapsed = np.all(hi - lo <= 1e-16 * hi)
        if np.all(np.abs(s - 1.0) <= _SUM_TOL) or collapsed:
            break
        over = s > 1.0
        hi[over] = mid[over]
        lo[~over] = mid[~over]
    else:
        worst = np.abs(sums.confirm_all()[0] - 1.0).max()
        raise NumericError(f"equalizer did not converge in {_MAX_ITER} steps: worst |sum(t) - 1| = {worst:.3g}")
    s, t = sums.confirm_all()
    return mid, t, collapsed or np.all(np.abs(s - 1.0) <= _SUM_TOL)


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

    active = (h[active_rows], e[active_rows], d[active_rows])
    mid, t, certified = _bisect_lifetime(*active, _MARGIN)
    if not certified:
        mid, t, _ = _bisect_lifetime(*active, np.inf)
    lifetimes[active_rows] = mid
    times[active_rows] = t
    return lifetimes, times


def lifetime_srra_batch(loads, energies, path_losses, c: float = LN2):
    """Low-rate lifetime min over nodes of E/(c*h*d) for each row of a
    (schedules, nodes) load matrix; zero loads never bottleneck."""
    h = np.asarray(loads, dtype=float)
    e = np.asarray(energies, dtype=float)
    d = np.asarray(path_losses, dtype=float)
    if np.any(h < 0) or np.any(e <= 0) or np.any(d <= 0) or c <= 0:
        raise ValueError("loads must be >= 0, energies/path losses/c > 0")
    # Masked, so a zero load never divides (a large E/d would overflow).
    pos = h > 0
    scaled = c * h * d
    ratios = np.divide(e, scaled, out=np.full(scaled.shape, np.inf), where=pos)
    return ratios.min(axis=1)
