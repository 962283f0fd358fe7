"""Instance generation, a baseline scheduler, and the complexity bench.

The generator is deterministic per configuration (PCG64 behind numpy's
Generator), so corpora regenerate byte-for-byte and golden files stay
portable.  The baseline claims free epochs greedily in deadline order -
a sensible scheduler a practitioner might write - and is feasible but
generally wasteful, which makes it a useful foil for the optimal policy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import Instance, PairTable, normalize_columns, runs
from .power import NonFiniteEnergy, PowerModel, Shannon
from .scheduler import (
    InternalDeadlineMiss,
    InternalIdle,
    InternalInvariantViolation,
    Schedule,
    SegmentTable,
    _assemble,
    _segments_from_table,
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
    if not 0 < config.horizon < math.inf:
        raise ConfigInvalid(f"horizon must be positive and finite, got {config.horizon}")
    if not 0.0 <= config.non_fifo_prob <= 1.0:
        raise ConfigInvalid(
            f"non_fifo_prob must lie in [0, 1], got {config.non_fifo_prob}"
        )
    lo, hi = config.bits_range
    if not 0 < lo <= hi < math.inf:
        raise ConfigInvalid(f"bits_range must satisfy 0 < min <= max < inf, got {config.bits_range}")
    if not 0 < config.min_window_frac <= 0.1:
        raise ConfigInvalid(
            f"min_window_frac must lie in (0, 0.1], got {config.min_window_frac}"
        )

    rng = np.random.Generator(np.random.PCG64(config.seed))
    # Arrivals stay clear of the horizon so plain windows can always
    # reach the floor width.
    arrivals = np.sort(rng.uniform(0.0, 0.9 * config.horizon, config.n)).tolist()
    bits = rng.uniform(lo, hi, config.n).tolist()
    min_len = config.min_window_frac * config.horizon
    # `x + (y - x) * random()` is what numpy's scalar `uniform(x, y)`
    # computes from its one draw, so the stream and the values are the
    # same without the call's overhead.  `integers` stays a call: its
    # 32-bit draws use the half word the bit generator buffers.
    random = rng.random

    starts: list[float] = []
    ends: list[float] = []
    for i, a in enumerate(arrivals):
        if i and random() < config.non_fifo_prob:
            k = int(rng.integers(0, i))
            ka, kd = starts[k], ends[k]
            if kd - ka >= 2.5 * min_len:
                for _ in range(64):
                    na = ka + (kd - ka) * random()
                    nd = na + (kd - na) * random()
                    if nd - na >= min_len:
                        break
                else:
                    na = ka + 0.25 * (kd - ka)
                    nd = kd - 0.25 * (kd - ka)
                starts.append(na)
                ends.append(nd)
                continue
            # parent too narrow to nest; fall through to a plain window
        for _ in range(64):
            d = a + (config.horizon - a) * random()
            if d - a >= min_len:
                break
        else:
            d = min(a + min_len, config.horizon)
        starts.append(a)
        ends.append(d)

    return normalize_columns(list(range(1, config.n + 1)), bits, starts, ends)


def baseline_constant_edf(instance: Instance, model: PowerModel) -> Schedule:
    """Greedy deadline-ordered time claiming; feasible, not optimal.

    Packets are processed by deadline (exact ties claim jointly): each
    tie group claims every still-free epoch of the instance's grid
    inside its members' windows and transmits at bits / claimed time,
    filled EDF from the members' grid arrivals.  Pathological tie groups
    that defeat the EDF layout fall back to per-epoch proportional
    sharing, which inflates rates just enough to stay feasible.  Rates
    whose energy overflows float64 give an energy of inf, where `solve`
    would refuse them.
    """
    decomp = instance.decomposition
    grid = decomp.instants
    lo, hi = decomp.lo, decomp.hi
    bits, _, deadlines = instance.columns
    free = np.ones(decomp.m, dtype=bool)  # the epochs no tie group claimed
    segment_rows: list[tuple[int, float, float, float]] = []
    rates = np.zeros(instance.n)
    try:
        for d in np.unique(deadlines).tolist():
            members = np.flatnonzero(deadlines == d)
            # one deadline, so the members' windows are one run of epochs
            a, b = int(lo[members].min()), int(hi[members[0]])
            opens, shuts = runs(free[a:b])
            pieces = list(zip(grid[a + opens].tolist(), grid[a + shuts].tolist()))
            if not pieces:
                raise InternalIdle("tie group found no free time")
            member_bits = bits[members].tolist()
            rate = sum(member_bits) / sum(e - s for s, e in pieces)
            starts, ends = grid[lo[members]].tolist(), grid[hi[members]].tolist()
            columns = ((members + 1).tolist(), member_bits, starts, ends)
            segment_rows.extend(edf_fill(pieces, columns, rate))
            rates[members] = rate
            free[a:b] = False
        rows = np.array(segment_rows, dtype=float).reshape(-1, 4)
        segments = SegmentTable.in_time_order(*rows.T)
    except (InternalIdle, InternalDeadlineMiss):
        rows, cols = decomp.pairs()
        share = decomp.lengths[cols] / decomp.coverage[cols]
        tau = PairTable(rows, cols, share, (instance.n, decomp.m))
        rates, segments = _segments_from_table(instance, tau)
    try:
        return _assemble(instance, model, rates, segments)
    except NonFiniteEnergy:
        # still feasible, only too fast for float64 to price: the
        # baseline's overpayment is unbounded, which is no error
        return Schedule(rates, segments, math.inf, None)


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
