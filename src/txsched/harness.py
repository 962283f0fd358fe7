"""Instance generation, a baseline scheduler, and the complexity bench.

The generator is deterministic per configuration (PCG64 behind numpy's
Generator), so corpora regenerate byte-for-byte and golden files stay
portable.  The baseline claims time greedily in deadline order - a
sensible scheduler a practitioner might write - and is feasible by
construction but generally wasteful, which makes it a useful foil for
the optimal policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _intervals
from .model import Instance, Packet, PairTable, normalize_instance
from .power import PowerModel, Shannon
from .scheduler import (
    InternalDeadlineMiss,
    InternalIdle,
    InternalInvariantViolation,
    Schedule,
    _PIECE_EPS,
    _assemble,
    _schedule_from_table,
    edf_fill,
    solve,
)

class ConfigInvalid(ValueError):
    """Generator configuration out of range."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the random instance family.

    With probability `non_fifo_prob` a packet's window is re-drawn
    strictly inside a uniformly chosen earlier packet's window, nesting
    it and breaking arrival/deadline order consistency.  Every window
    spans at least `min_window_frac` of the horizon, which bounds the
    rates an instance can demand (nesting stops once the would-be
    parent is too narrow to hold a floor-width child strictly inside).
    """

    n: int
    horizon: float = 10.0
    seed: int = 0
    non_fifo_prob: float = 0.0
    bits_range: tuple[float, float] = (0.5, 4.0)
    min_window_frac: float = 0.05


def generate(config: GeneratorConfig) -> Instance:
    """Draw a random instance; identical configs give identical bytes."""
    if config.n < 1:
        raise ConfigInvalid(f"n must be at least 1, got {config.n}")
    if not config.horizon > 0:
        raise ConfigInvalid(f"horizon must be positive, got {config.horizon}")
    if not 0.0 <= config.non_fifo_prob <= 1.0:
        raise ConfigInvalid(
            f"non_fifo_prob must lie in [0, 1], got {config.non_fifo_prob}"
        )
    lo, hi = config.bits_range
    if not (0 < lo <= hi):
        raise ConfigInvalid(f"bits_range must satisfy 0 < min <= max, got {config.bits_range}")
    if not 0 < config.min_window_frac <= 0.1:
        raise ConfigInvalid(
            f"min_window_frac must lie in (0, 0.1], got {config.min_window_frac}"
        )

    rng = np.random.Generator(np.random.PCG64(config.seed))
    # Arrivals stay clear of the horizon so plain windows can always
    # reach the floor width.
    arrivals = np.sort(rng.uniform(0.0, 0.9 * config.horizon, config.n))
    bits = rng.uniform(lo, hi, config.n)
    min_len = config.min_window_frac * config.horizon

    windows: list[tuple[float, float]] = []
    for i in range(config.n):
        a = float(arrivals[i])
        nest = i > 0 and rng.random() < config.non_fifo_prob
        if nest:
            k = int(rng.integers(0, i))
            ka, kd = windows[k]
            if kd - ka >= 2.5 * min_len:
                na = nd = ka
                for _ in range(64):
                    na = rng.uniform(ka, kd)
                    nd = rng.uniform(na, kd)
                    if nd - na >= min_len:
                        break
                else:
                    na = ka + 0.25 * (kd - ka)
                    nd = kd - 0.25 * (kd - ka)
                windows.append((na, nd))
                continue
            # parent too narrow to nest; fall through to a plain window
        d = a
        for _ in range(64):
            d = rng.uniform(a, config.horizon)
            if d - a >= min_len:
                break
        else:
            d = min(a + min_len, config.horizon)
        windows.append((a, d))

    packets = [
        Packet(i + 1, float(bits[i]), windows[i][0], windows[i][1])
        for i in range(config.n)
    ]
    return normalize_instance(packets)


def baseline_constant_edf(instance: Instance, model: PowerModel) -> Schedule:
    """Greedy deadline-ordered time claiming; feasible, not optimal.

    Packets are processed by deadline (exact ties claim jointly): each
    claims every still-free instant inside its window and transmits at
    bits / claimed time.  Pathological tie groups that defeat the EDF
    layout fall back to per-epoch proportional sharing, which inflates
    rates just enough to stay feasible.
    """
    free: list[tuple[float, float]] = [(0.0, instance.horizon)]
    dust = _PIECE_EPS * instance.horizon
    segments = []
    rates = np.zeros(instance.n)
    try:
        deadlines = sorted({p.deadline for p in instance.packets})
        for d in deadlines:
            members = [p for p in instance.packets if p.deadline == d]
            win_union = _intervals.merge([p.window for p in members], dust)
            usable = _intervals.intersect(free, win_union, dust)
            claimed = _intervals.measure(usable)
            if claimed <= instance.time_tol:
                raise InternalIdle("tie group found no free time")
            rate = sum(p.bits for p in members) / claimed
            segs = edf_fill(usable, members, rate)
            for p in members:
                rates[p.id - 1] = rate
            segments.extend(segs)
            free = _intervals.subtract(free, usable, dust)
    except (InternalIdle, InternalDeadlineMiss):
        decomp = instance.decomposition
        rows, cols = decomp.pairs()
        share = decomp.epoch_lengths()[cols] / decomp.coverage()[cols]
        tau = PairTable(rows, cols, share, (instance.n, decomp.m))
        return _schedule_from_table(instance, tau, model)
    return _assemble(instance, model, rates, segments)


@dataclass(frozen=True)
class BenchRow:
    n: int
    wall_time_s: float
    iterations: int
    max_candidates_per_iteration: int
    total_candidates: int


def bench_complexity(sizes: list[int], seed: int):
    """Solve generated instances per size and report work counters.

    Enforces the structural bounds: at most n iterations, at most n^2
    candidate windows per iteration.  Rates do not depend on the power
    law, so every solve uses Shannon(1.0).
    """
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    model = Shannon(1.0)
    rows: list[BenchRow] = []
    for offset, n in enumerate(sizes):
        config = GeneratorConfig(
            n=n, horizon=max(1.0, n / 2.0), seed=seed + offset, non_fifo_prob=0.3
        )
        instance = generate(config)
        t0 = time.perf_counter()
        schedule = solve(instance, model)
        wall = time.perf_counter() - t0
        steps = schedule.trace.steps
        cands = [s.candidates or 0 for s in steps]
        if len(steps) > n:
            raise InternalInvariantViolation(
                f"{len(steps)} iterations exceed the bound n={n}"
            )
        if cands and max(cands) > n * n:
            raise InternalInvariantViolation(
                f"{max(cands)} candidate windows exceed the bound n^2={n * n}"
            )
        rows.append(
            BenchRow(
                n=n,
                wall_time_s=wall,
                iterations=len(steps),
                max_candidates_per_iteration=max(cands) if cands else 0,
                total_candidates=sum(cands),
            )
        )
    return rows
