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

LN2 = math.log(2.0)

_G_INV_MAX_DOUBLINGS = 1000
_G_INV_MAX_BISECTIONS = 500


class NegativeRate(ValueError):
    """Rates are non-negative by definition."""


class NegativeInput(ValueError):
    """g is only inverted on its range [0, inf)."""


class ZeroRate(ValueError):
    """A packet transmitted at rate 0 never finishes."""


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

        The result r satisfies |g(r) - y| <= 1e-9 * max(1, y).
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
        tol = 1e-9 * max(1.0, y)
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


def schedule_energy(model: PowerModel, rates) -> float:
    """Total energy of constant-rate transmissions.

    `rates` is an iterable of (packet id, rate, total transmission
    time); the energy is sum(time * f(rate)), with f evaluated once per
    distinct rate, since the packets of one solve round share theirs.
    """
    total = 0.0
    power: dict[float, float] = {}
    for pid, rate, time in rates:
        if rate < 0:
            raise NegativeRate(f"packet {pid}: rate {rate} is negative")
        if rate == 0:
            raise ZeroRate(f"packet {pid}: rate 0 never finishes")
        if not time > 0:
            raise ValueError(f"packet {pid}: transmission time {time} must be positive")
        if rate not in power:
            power[rate] = model.power(rate)
        total += time * power[rate]
    return total
