"""Transmission-energy model.

The per-slot energy to move ``h`` bits in ``x`` time units over a unit
path-loss channel is ``f(h, x) = x * (2**(h/x) - 1)`` (inverse of the AWGN
capacity formula). It is strictly decreasing and convex in ``x``, blows up
as ``x -> 0+`` and tends to ``h*ln2`` as ``x -> inf``, so any per-slot energy
budget strictly above ``h*ln2`` corresponds to a unique transmission time.

The low-rate regime replaces the curve with the time-independent linear
approximation ``c * h`` (``c`` defaults to ln 2, the first-order slope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleEnergyError, NumericError

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Shannon:
    """Exact curve f(h, x) = x*(2**(h/x) - 1)."""


@dataclass(frozen=True)
class Srra:
    """Small-rate approximation: energy = c*h, independent of time."""

    c: float = LN2

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"Srra constant c must be positive, got {self.c}")


EnergyMode = Shannon | Srra


def tx_energy(h, x, mode: EnergyMode = Shannon()):
    """Energy to transmit ``h`` bits in ``x`` time units (unit path loss).

    Broadcasts over arrays; scalar inputs give a float. Zero loads cost
    nothing whatever their time, and a cost beyond the double range is inf.
    """
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    if (h < 0).any():
        raise ValueError("bit load must be nonnegative")
    active = h > 0
    if isinstance(mode, Srra):
        out = np.broadcast_to(mode.c * h, np.broadcast_shapes(h.shape, x.shape)).copy()
    elif (active & (x <= 0)).any():
        raise ValueError("transmission time must be positive where h > 0")
    else:
        x = np.where(active, x, 1.0)
        with np.errstate(over="ignore"):
            out = np.where(active, x * np.expm1(LN2 * h / x), 0.0)
    return float(out) if out.ndim == 0 else out


def srra_error(h: float, x: float) -> float:
    """Gap between the exact curve and its linear asymptote: f(h,x) - h*ln2."""
    return tx_energy(h, x) - h * LN2


def min_time_for_energy(h, e):
    """Inverse of tx_energy in time: the unique t with tx_energy(h, t) == e.

    Broadcasts over arrays; scalar inputs give a float. Entries with h == 0
    get t == 0, and every other entry needs e strictly above the asymptote
    h*ln2. Substituting u = h*ln2/t turns f(h, t) = e into
    (exp(u) - 1)/u = e/(h*ln2), a strictly increasing scalar equation. Its
    log, ln(expm1(u)) - ln(u), stays representable for every double-precision
    ratio (for u > 40 it is u - ln(u) to machine precision), so bisecting on
    ln(u) converges to full precision regardless of how many orders of
    magnitude the ratio spans.
    """
    h = np.asarray(h, dtype=float)
    e = np.asarray(e, dtype=float)
    if (h < 0).any():
        raise ValueError("bit load must be nonnegative")
    t = np.zeros(np.broadcast(h, e).shape)
    active = h > 0
    if not np.any(active):
        return float(t) if t.ndim == 0 else t
    ha = np.broadcast_to(h, t.shape)[active]
    ea = np.broadcast_to(e, t.shape)[active]
    r = ea / (ha * LN2)
    if np.any(r <= 1.0):
        raise InfeasibleEnergyError("per-slot energy at or below the h*ln2 asymptote")
    ln_r = np.log(r)

    # Bracket in v = ln(u): the root satisfies u <= ln(r) + ln(u) + 1, which
    # is below e^7 ~ 1096 for every finite double r, and u -> 0+ as r -> 1+.
    # Once a step moves no bracket end it repeats forever, so the loop stops
    # there with the bits the 80th step would give (after ~62 steps unless
    # the root is near u = 1, where v's float spacing is finer).
    lo = np.full(r.shape, -700.0)
    hi = np.full(r.shape, 7.0)
    for _ in range(80):
        v = 0.5 * (lo + hi)
        u = np.exp(v)
        small = u <= 40.0
        log_g = np.where(small, np.log(np.expm1(np.where(small, u, 1.0))), u) - v
        above = log_g >= ln_r
        if np.all(v == np.where(above, hi, lo)):
            break
        hi = np.where(above, v, hi)
        lo = np.where(above, lo, v)
    u = np.exp(0.5 * (lo + hi))
    if np.any(hi - lo > 1e-9):
        raise NumericError("energy inverse failed to converge")
    t[active] = ha * LN2 / u
    return float(t) if t.ndim == 0 else t

