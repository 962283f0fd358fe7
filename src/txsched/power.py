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


def _check_rate(rate):
    arr = np.asarray(rate, dtype=float)
    if (arr < 0).any():
        raise NegativeRate(f"rate must be non-negative, got {rate}")
    return arr


def _scalarize(value, like):
    if np.ndim(like) == 0:
        return float(value)
    return value


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
        return _scalarize(out, rate)

    def g_inverse(self, y: float) -> float:
        """Invert g by bisection on a geometrically grown bracket.

        The result r satisfies |g(r) - y| <= REL_TOL * y.
        """
        y = float(y)
        if y < 0:
            raise NegativeInput(f"g is non-negative, cannot invert {y}")
        if y == 0.0:
            return 0.0
        hi = 1.0
        doublings = 0
        while self.g(hi) < y:
            hi *= 2.0
            doublings += 1
            if doublings > _G_INV_MAX_DOUBLINGS:
                raise BracketOverflow(
                    f"g never reached {y}; model {self!r} is not strictly convex"
                )
        lo = 0.0
        tol = REL_TOL * y
        mid = hi
        for _ in range(_G_INV_MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
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

    def power(self, rate):
        arr = _check_rate(rate)
        with np.errstate(over="ignore"):
            out = self.noise_power * np.expm1(2.0 * LN2 * arr)
        return _scalarize(out, rate)

    def power_deriv(self, rate):
        arr = _check_rate(rate)
        with np.errstate(over="ignore"):
            out = 2.0 * LN2 * self.noise_power * np.exp2(2.0 * arr)
        return _scalarize(out, rate)

    def g(self, rate):
        """noise_power * (x e^x - e^x + 1) with x = 2 ln2 r.  At small x
        the two terms of r f'(r) - f(r) cancel, leaving about 2 ulp / x
        of relative error, so below _G_SERIES_X g sums the series
        noise_power * sum over k >= 2 of (k - 1) x^k / k!."""
        arr = _check_rate(rate)
        out = np.asarray(arr * self.power_deriv(arr) - self.power(arr))
        small = arr < _G_SERIES_X / (2.0 * LN2)
        if small.any():
            x = 2.0 * LN2 * arr[small]
            series = np.zeros_like(x)
            for c in _G_SERIES:
                series *= x
                series += c
            out[small] = self.noise_power * series * x * x
        return _scalarize(out, rate)


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

    def power(self, rate):
        arr = _check_rate(rate)
        with np.errstate(over="ignore"):
            out = self.scale * arr**self.exponent
        return _scalarize(out, rate)

    def power_deriv(self, rate):
        arr = _check_rate(rate)
        with np.errstate(over="ignore"):
            out = self.scale * self.exponent * arr ** (self.exponent - 1.0)
        return _scalarize(out, rate)

    def g(self, rate):
        arr = _check_rate(rate)
        with np.errstate(over="ignore"):
            out = self.scale * (self.exponent - 1.0) * arr**self.exponent
        return _scalarize(out, rate)

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
