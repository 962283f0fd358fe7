"""Convex power-rate laws and the marginal-energy function g.

A power model maps a transmission rate r to the transmit power f(r)
needed to sustain it, with f convex, strictly increasing, and f(0) = 0.
The derived function g(r) = r f'(r) - f(r) is the marginal energy saved
per second of extra transmission time; it is non-negative, vanishes at
0, and is non-decreasing, so it has a well-defined inverse on [0, inf).
g and its inverse are what tie schedules to their optimality
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import REL_TOL

LN2 = math.log(2.0)

_G_INV_MAX_DOUBLINGS = 1000
_G_INV_MAX_BISECTIONS = 500
# Shannon's g sums its series below x = 2 ln2 r = _G_SERIES_X, to the
# 15th power: the first term left out is under 1e-17 of g there.
_G_SERIES_X = 0.4
_G_SERIES = tuple((k - 1) / math.factorial(k) for k in range(15, 1, -1))


class NegativeRate(ValueError):
    """Rates are non-negative by definition."""


class NegativeInput(ValueError):
    """g is only inverted on its range [0, inf)."""


class ZeroRate(ValueError):
    """A packet transmitted at rate 0 never finishes."""


class NonFiniteEnergy(ValueError):
    """A schedule's energy overflows float64: its rates are too fast
    for the power law."""


class BracketOverflow(RuntimeError):
    """g never reached the requested value; the model is inconsistent."""


# f, f' and g overflow to inf silently.  As a decorator the errstate
# builds its state once per call and is safe to share.
_silent_overflow = np.errstate(over="ignore")


def _check_rate(rate) -> np.ndarray:
    """`rate` as a float array; NaN passes, as `fmin` skips it."""
    arr = np.asarray(rate, dtype=float)
    if np.fmin.reduce(arr, axis=None, initial=0.0) < 0:
        raise NegativeRate(f"rate must be non-negative, got {rate}")
    return arr


def _scalarize(value, arr: np.ndarray):
    """A float for a 0-d `arr`, `value` itself otherwise."""
    return float(value) if arr.ndim == 0 else value


@dataclass(frozen=True)
class PowerModel:
    """Base class; subclasses supply f and f' (both vectorized)."""

    def power(self, rate):
        raise NotImplementedError

    def power_deriv(self, rate):
        raise NotImplementedError

    def g(self, rate):
        """r f'(r) - f(r); marginal energy of slowing down."""
        arr = _check_rate(rate)
        out = arr * self.power_deriv(arr) - self.power(arr)
        return _scalarize(out, arr)

    def g_inverse(self, y: float) -> float:
        """Invert g by bisection on log r, in a bracket [lo, 2 lo] found
        by doubling up from 1 or halving down from 1.

        The result r satisfies |g(r) - y| <= REL_TOL * y, from 1e-300 to
        1e300 alike: each halving of the bracket gains the same relative
        precision, whatever the size of r.
        """
        y = float(y)
        if y < 0:
            raise NegativeInput(f"g is non-negative, cannot invert {y}")
        if y == 0.0:
            return 0.0
        lo = hi = 1.0
        doublings = 0
        while self.g(hi) < y:
            lo, hi = hi, hi * 2.0
            doublings += 1
            if doublings > _G_INV_MAX_DOUBLINGS:
                raise BracketOverflow(
                    f"g never reached {y}; model {self!r} is not strictly convex"
                )
        while self.g(lo) > y and lo * 0.5 > 0.0:
            lo, hi = lo * 0.5, lo
        tol = REL_TOL * y
        mid = hi
        for _ in range(_G_INV_MAX_BISECTIONS):
            mid = lo * math.sqrt(hi / lo)  # the geometric mean, free of underflow
            gm = self.g(mid)
            if abs(gm - y) <= tol:
                return mid
            if gm < y:
                lo = mid
            else:
                hi = mid
        return mid


@dataclass(frozen=True)
class Shannon(PowerModel):
    """AWGN capacity law: f(r) = noise_power * (2^(2r) - 1)."""

    noise_power: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(
                f"noise_power must be positive and finite, got {self.noise_power}"
            )

    @_silent_overflow
    def power(self, rate):
        arr = _check_rate(rate)
        return _scalarize(self.noise_power * np.expm1(2.0 * LN2 * arr), arr)

    @_silent_overflow
    def power_deriv(self, rate):
        arr = _check_rate(rate)
        return _scalarize(2.0 * LN2 * self.noise_power * np.exp2(2.0 * arr), arr)

    @np.errstate(over="ignore", invalid="ignore")
    def g(self, rate):
        """noise_power * (x e^x - e^x + 1) with x = 2 ln2 r.  At small x
        the two terms of r f'(r) - f(r) cancel, leaving about 2 ulp / x
        of relative error, so below _G_SERIES_X g sums the series
        noise_power * sum over k >= 2 of (k - 1) x^k / k!.  Where f
        overflows, so does g: inf, where the difference is inf - inf."""
        arr = _check_rate(rate)
        power = self.noise_power * np.expm1(2.0 * LN2 * arr)
        deriv = 2.0 * LN2 * self.noise_power * np.exp2(2.0 * arr)
        out = np.asarray(arr * deriv - power)
        out[power == math.inf] = math.inf
        small = arr < _G_SERIES_X / (2.0 * LN2)
        if small.any():
            x = 2.0 * LN2 * arr[small]
            series = np.zeros_like(x)
            for c in _G_SERIES:
                series *= x
                series += c
            out[small] = self.noise_power * series * x * x
        return _scalarize(out, arr)


@dataclass(frozen=True)
class Monomial(PowerModel):
    """f(r) = scale * r^exponent with exponent > 1.

    g inverts in closed form, which cross-checks the bisection path.
    """

    exponent: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if not self.exponent > 1:
            raise ValueError(f"exponent must exceed 1, got {self.exponent}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @_silent_overflow
    def power(self, rate):
        arr = _check_rate(rate)
        return _scalarize(self.scale * arr**self.exponent, arr)

    @_silent_overflow
    def power_deriv(self, rate):
        arr = _check_rate(rate)
        return _scalarize(self.scale * self.exponent * arr ** (self.exponent - 1.0), arr)

    @_silent_overflow
    def g(self, rate):
        arr = _check_rate(rate)
        return _scalarize(self.scale * (self.exponent - 1.0) * arr**self.exponent, arr)

    def g_inverse_closed_form(self, y: float) -> float:
        if y < 0:
            raise NegativeInput(f"g is non-negative, cannot invert {y}")
        return (y / (self.scale * (self.exponent - 1.0))) ** (1.0 / self.exponent)


def per_distinct_rate(fn, rates: np.ndarray) -> np.ndarray:
    """fn at every rate, from one array call of fn over the distinct
    rates: the packets of one solve round share their rate."""
    distinct, which = np.unique(rates, return_inverse=True)
    return np.asarray(fn(distinct), dtype=float)[which]


def schedule_energy(model: PowerModel, rates, times) -> float:
    """Total energy of constant-rate transmissions.

    `rates` and `times` hold each packet's rate and total transmission
    time, packet i at position i-1; the energy is sum(time * f(rate)),
    added in packet order, with f evaluated in one call over the
    distinct rates.  Packets are checked in order; raises
    NonFiniteEnergy, naming the packet, once the running sum is not
    finite.
    """
    rate = np.asarray(rates, dtype=float)
    time = np.asarray(times, dtype=float)
    valid = ~(rate <= 0) & (time > 0)  # NaN rates are priced, as NaN
    # the packets up to the first invalid one are priced and summed
    stop = int(np.argmin(valid)) if not valid.all() else len(rate)
    power = per_distinct_rate(model.power, rate[:stop])
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.accumulate(time[:stop] * power)
    overflow = np.flatnonzero(~np.isfinite(total))
    if overflow.size:
        k = int(overflow[0])
        raise NonFiniteEnergy(
            f"packet {k + 1}: energy is not finite ({time[k]} s at rate {rate[k]}, "
            f"power {power[k]})"
        )
    if stop < len(rate):
        r, t = rate[stop], time[stop]
        if r < 0:
            raise NegativeRate(f"packet {stop + 1}: rate {r} is negative")
        if r == 0:
            raise ZeroRate(f"packet {stop + 1}: rate 0 never finishes")
        raise ValueError(f"packet {stop + 1}: transmission time {t} must be positive")
    return float(total[-1]) if stop else 0.0
