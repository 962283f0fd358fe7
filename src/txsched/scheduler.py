"""Iterative maximum-rate sub-interval scheduling.

The optimal offline policy works greedily from the most pressed part of
the timeline outwards.  Each round considers every window that runs
from some still-unscheduled packet's arrival to some still-unscheduled
packet's deadline and fully contains at least one such packet's life
time; the window's rate is its contained bits divided by the time in it
that earlier rounds left free.  The maximum-rate window wins: its
contained packets all transmit at that common rate, in that free time,
ordered by earliest deadline first.  The time is then reserved, and the
process repeats until every packet is scheduled.

The solver works on the instance's epoch grid (`Instance.decomposition`):
a packet arrives at its `lo` grid instant and is due at its `hi` one, so
instants within the time tolerance are one float everywhere, and every
piece a round reserves is a run of whole epochs.  The reserved time is
one mask over the epochs, and a grid instant's position on the time
left free is the free epoch length before it; a window's free length is
the difference of its endpoints' positions.  Nothing is carried from
round to round but the mask.  No winning window crosses an idle gap, so
the busy periods (runs of live epochs) play their rounds in lockstep:
each step places every active packet on the free time, scores the next
round of every busy period in one batched grid, a padded cube with one
block per period, and lets each period settle its winning window; the
periods' rounds are then interleaved in the order one loop over all
packets would take them.

Rates only depend on the window geometry, never on the power law; the
power model enters once at the end, to price the schedule.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DUST_REL_TOL, RATE_TIE_REL, REL_TOL, Instance, PairTable, _floats, _read_only
from .model import as_float, bits_mismatch, covered, runs
from .power import PowerModel, schedule_energy


class ScheduleFormatError(ValueError):
    """Schedule JSON does not fit its instance."""


class NoCandidates(RuntimeError):
    """No sub-interval exists among the active packets (internal bug)."""


class InternalIdle(RuntimeError):
    """The EDF fill would idle; impossible for a max-rate window."""


class InternalDeadlineMiss(RuntimeError):
    """The EDF fill would miss a deadline; impossible for a max-rate window."""


class InternalInvariantViolation(RuntimeError):
    """A schedule invariant failed after assembly (internal bug)."""


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """The flattened timeline, one row per maximal run of one packet
    transmitting, in original time: packet `packet[k]` transmits from
    `start[k]` to `end[k]` at `rate[k]`.  The columns are read-only
    arrays, packet ids as integers and the rest as floats; an array
    given in its column's type is kept, not copied."""

    packet: np.ndarray
    start: np.ndarray
    end: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        for name, dtype in zip(("packet", "start", "end", "rate"), (np.intp, float, float, float)):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name), dtype=dtype)))

    @classmethod
    def from_rows(cls, rows) -> "SegmentTable":
        """The table of (packet, start, end, rate) rows."""
        return cls(*np.array(rows, dtype=float).reshape(-1, 4).T)

    @classmethod
    def in_time_order(cls, packet, start, end, rate) -> "SegmentTable":
        """The table of these columns, its rows sorted by start, then
        end; ties keep their order."""
        order = np.lexsort((end, start))
        return cls(*(np.asarray(column)[order] for column in (packet, start, end, rate)))

    def __len__(self) -> int:
        return len(self.packet)


@dataclass(frozen=True)
class IterationStep:
    """One round: the free pieces of the chosen window and the packets
    it settled; `candidates` counts the windows the round examined,
    all inside the busy period it served."""

    rate: float
    members: frozenset[int]
    pieces: tuple[tuple[float, float], ...]
    candidates: int | None = None


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[IterationStep, ...]

    def rates(self) -> list[float]:
        return [s.rate for s in self.steps]


@dataclass
class Schedule:
    """A complete transmission plan.

    rates[i-1] is packet i's constant rate; segments the flattened
    timeline, from which the verifier books each packet's time per
    epoch (`verifier.epoch_times`).
    """

    rates: np.ndarray
    segments: SegmentTable
    energy: float
    trace: IterationTrace | None


# ---------------------------------------------------------------------------
# candidate windows


class _Windows(NamedTuple):
    """The candidate windows of the active packets, from `_window_ranks`.

    The packets come grouped by busy period, period g's (counting the
    periods with active packets from 0) in rows first[g]:first[g + 1].
    Its distinct starts are starts[s_first[g]:s_first[g + 1]] and its
    distinct ends ends[e_first[g]:e_first[g + 1]], ascending.  Packet p
    lies inside its period's window (s, e), counted within those slices,
    when s <= start_rank[p] and e >= end_rank[p]: its arrival is at or
    after the start and its deadline at or before the end.
    """

    period: np.ndarray
    first: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    s_first: np.ndarray
    e_first: np.ndarray
    start_rank: np.ndarray
    end_rank: np.ndarray


def _window_ranks(times: np.ndarray, period: np.ndarray, bounds: np.ndarray) -> _Windows:
    """The `_Windows` of packets from one or more busy periods, whose
    arrival and deadline positions are the rows of `times`.

    period[p] numbers packet p's period from 0, ascending with the
    packets, and period g's positions lie at or after bounds[g] and
    below bounds[g + 1], the last bound being +inf.  So the sorted
    distinct arrivals of all packets are each period's own, one period
    after another, and likewise the deadlines: one sort and one search
    rank every packet.  The positions are grid positions, where one
    instant is one float, so the ranks are exact.
    """
    first = period.searchsorted(np.arange(len(bounds)))
    ordered = np.sort(times, axis=1)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=keep[:, 1:])
    starts, ends = ordered[0][keep[0]], ordered[1][keep[1]]
    s_first, e_first = starts.searchsorted(bounds), ends.searchsorted(bounds)
    start_rank = starts.searchsorted(times[0])
    start_rank -= s_first[period]
    end_rank = ends.searchsorted(times[1])
    end_rank -= e_first[period]
    return _Windows(period, first, starts, ends, s_first, e_first, start_rank, end_rank)


def _padded(values: np.ndarray, first: np.ndarray, fill: float) -> np.ndarray:
    """Row g holds values[first[g]:first[g + 1]], padded at the back
    with `fill` to the longest row."""
    if len(first) == 2:  # one row: nothing to pad
        return values[first[0]:first[1]][None]
    count = first[1:] - first[:-1]
    cols = np.arange(np.maximum.reduce(count))
    return np.where(cols < count[:, None], values.take(first[:-1, None] + cols, mode="clip"), fill)


def _candidate_grid(windows: _Windows, bits: np.ndarray, periods: range) -> np.ndarray:
    """Rate tables over (distinct start) x (distinct end) windows, one
    block for each of the consecutive busy `periods`, padded to the
    largest.

    Returns the rates, of shape (len(periods), S, E): block k is the
    table of period periods[k], its windows in the top-left corner.  A
    window is valid when it has free time and contains at least one
    packet, and its rate is -inf otherwise, so the valid windows are the
    finite cells.  Padded cells start at +inf or end at -inf, so they
    are never valid, and no length is NaN.

    The bits are binned by (period, start rank, end rank), so a suffix
    sum over starts and a prefix sum over ends give every window's
    contained bits in O(S * E) per period.
    """
    lo, hi = periods.start, periods.stop
    rows = slice(windows.first[lo], windows.first[hi])
    starts = _padded(windows.starts, windows.s_first[lo:hi + 1], np.inf)
    ends = _padded(windows.ends, windows.e_first[lo:hi + 1], -np.inf)
    n, s, e = len(periods), starts.shape[1], ends.shape[1]
    cell = (windows.period[rows] - lo) * s
    cell += windows.start_rank[rows]
    cell *= e
    cell += windows.end_rank[rows]
    bitsum = np.bincount(cell, weights=bits[rows], minlength=n * s * e).reshape(n, s, e)
    suffix = bitsum[:, ::-1]
    np.add.accumulate(suffix, axis=1, out=suffix)
    np.add.accumulate(bitsum, axis=2, out=bitsum)
    lengths = ends[:, None, :] - starts[:, :, None]
    valid = lengths > 0
    valid &= bitsum > 0
    rates = np.divide(bitsum, lengths, out=bitsum, where=valid)
    del lengths
    np.copyto(rates, -np.inf, where=~valid)
    return rates


def _argmax_lex(rates: np.ndarray):
    """The maximum rate of each (S, E) table in the last two axes, and
    the index (si, ei) of the cell that holds it: (top, si, ei).  Ties
    go to smallest start, then end.

    Starts and ends ascend along their axes, so the first tied cell in
    row-major order is the one the tie rule picks.  No -inf cell ties
    with a finite maximum.
    """
    flat = rates.reshape(*rates.shape[:-2], -1)
    top = np.maximum.reduce(flat, axis=-1, keepdims=True)
    tied = flat >= top - RATE_TIE_REL * np.abs(top)
    return (top[..., 0], *divmod(tied.argmax(axis=-1), rates.shape[-1]))


# ---------------------------------------------------------------------------
# EDF fill


def edf_fill(pieces, members, rate: float) -> list[tuple[int, float, float, float]]:
    """Earliest-deadline-first fill of disjoint time pieces at one rate.

    `pieces` are (start, end) pairs of positive length, disjoint and in
    ascending order, exactly: each starts before it ends, and no earlier
    than the one before it ends.  `members` holds the packets' columns
    as four lists: ids, bits, arrivals and deadlines.  Returns the
    segments as (packet, start, end, rate) rows.

    Each member transmits bits/rate seconds in total, always the
    arrived, unfinished member with the earliest deadline (ties to the
    lower id).  Idling inside a piece or an unfinished member signal an
    internal bug: the caller only passes windows whose rate makes both
    impossible.

    Arrived members wait in a heap keyed on (deadline, id); an arrival
    pointer moves members into it as time passes their arrival.

    Steps are cut to within `eps`, DUST_REL_TOL relative to the largest
    piece endpoint, since the steps add up in float and one ulp of a
    large instant exceeds any absolute epsilon; for the same reason a
    member is done once at most `eps` of its time is left, and an
    arrival or deadline within `eps` of `t` is the instant `t`.  The
    callers pass grid instants, on which instants within the instance's
    time tolerance are already one float, so `eps` is the only
    tolerance: no member is admitted more than `eps` before its arrival,
    nor runs more than `eps` past its deadline.
    """
    ids, bits, arrivals, deadlines = members
    if not ids:
        raise ValueError("no members to fill")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    pieces = [(float(s), float(e)) for s, e in pieces]
    for (_, e0), (s1, e1) in zip([(-np.inf, -np.inf), *pieces], pieces):
        if not e0 <= s1 < e1:
            raise ValueError("pieces must have positive length, be disjoint and ascend")
    eps = DUST_REL_TOL * max(abs(pieces[0][0]), abs(pieces[-1][1])) if pieces else 0.0

    need = [b / rate for b in bits]
    # Member positions by arrival; a position also breaks (deadline, id)
    # ties.  Admission times never decrease: a piece ends its steps
    # eps before its end, and the next piece starts no earlier.
    by_arrival = sorted(range(len(ids)), key=arrivals.__getitem__)
    heap: list[tuple[float, int, int]] = []
    admitted = 0  # by_arrival[:admitted] have been pushed

    segments: list[tuple[int, float, float, float]] = []

    def emit(pid: int, t0: float, t1: float):
        if segments and segments[-1][0] == pid and abs(segments[-1][2] - t0) <= eps:
            segments[-1] = (pid, segments[-1][1], t1, rate)
        else:
            segments.append((pid, t0, t1, rate))

    def admit(until: float):
        nonlocal admitted
        while admitted < len(ids):
            k = by_arrival[admitted]
            if arrivals[k] > until:
                break
            heapq.heappush(heap, (deadlines[k], ids[k], k))
            admitted += 1

    for ps, pe in pieces:
        t = ps
        while pe - t > eps:
            admit(t + eps)
            if not heap:
                raise InternalIdle(f"no transmittable packet at time {t}")
            # The top has the earliest deadline, so this finds any late
            # member, also one whose deadline fell between two pieces.
            deadline, pid, cur = heap[0]
            dur = min(pe - t, need[cur])
            if deadline - t < dur - eps:
                raise InternalDeadlineMiss(
                    f"packet {pid} cannot finish by its deadline {deadline}"
                )
            if admitted < len(ids):
                arrival = arrivals[by_arrival[admitted]]
                if arrival < t + dur - eps:
                    dur = arrival - t
            emit(pid, t, t + dur)
            need[cur] -= dur
            if need[cur] <= eps:
                need[cur] = 0.0
                heapq.heappop(heap)
            t += dur

    leftovers = sorted(ids[k] for k in range(len(ids)) if need[k] > eps)
    if leftovers:
        raise InternalDeadlineMiss(
            f"packets left unfinished after all pieces: {leftovers}"
        )
    return segments


# ---------------------------------------------------------------------------
# assembly


def _check_solution_invariants(
    instance: Instance, trace: IterationTrace, segments: SegmentTable, rates: np.ndarray
):
    steps = trace.steps
    for a, b in zip(steps, steps[1:]):
        if b.rate > a.rate * (1.0 + REL_TOL):
            raise InternalInvariantViolation(f"iteration rates increased: {a.rate} -> {b.rate}")
    # Every piece runs from one grid instant to another, and the pieces
    # reserve each live epoch exactly once and no dead one.
    decomp = instance.decomposition
    pieces = np.array([p for step in steps for p in step.pieces]).reshape(-1, 2)
    index = decomp.instants.searchsorted(pieces)
    off = pieces[decomp.instants[np.minimum(index, decomp.m)] != pieces]
    if len(off):
        raise InternalInvariantViolation(f"reserved piece endpoint {off[0]} is not a grid instant")
    count = covered(index[:, 0], index[:, 1], decomp.m)  # the pieces reserving each epoch
    live = decomp.coverage > 0
    over, wrong = count > 1, count != live
    if over.any():
        raise InternalInvariantViolation(
            f"reserved pieces overlap across rounds in epoch {over.argmax() + 1}"
        )
    if wrong.any():
        j = wrong.argmax()
        raise InternalInvariantViolation(
            "reserved pieces do not tile the live region: "
            f"{'live epoch left free' if live[j] else 'dead epoch reserved'} (epoch {j + 1})"
        )
    delivered = np.bincount(
        segments.packet - 1,
        weights=(segments.end - segments.start) * segments.rate,
        minlength=instance.n,
    )
    if bits_mismatch(delivered, instance.bits(), rates, instance.dust).any():
        raise InternalInvariantViolation("delivered bits do not match packet sizes")
    if np.any(rates <= 0):
        raise InternalInvariantViolation("some packet ended up with no rate")


_CUBE_FLOOR = 65_536  # cells a group of periods may always pad to


def _cube_groups(S: np.ndarray, E: np.ndarray) -> list[range]:
    """Runs of consecutive periods, with S[g] x E[g] tables, that share
    one padded cube.  All periods share one if it has at most max(1.5 x
    their own cells, _CUBE_FLOOR) cells; else each run grows until the
    next period would take it past that bound.  So no large period pads
    a crowd of small ones, nor pairs with a small one."""
    S, E = S.tolist(), E.tolist()
    size = [s * e for s, e in zip(S, E)]
    if len(size) * max(S) * max(E) <= max(1.5 * sum(size), _CUBE_FLOOR):
        return [range(len(size))]
    groups = []
    lo = s_max = e_max = cells = 0
    for g, (s, e) in enumerate(zip(S, E)):
        s_max, e_max, cells = max(s_max, s), max(e_max, e), cells + s * e
        if g > lo and (g + 1 - lo) * s_max * e_max > max(1.5 * cells, _CUBE_FLOOR):
            groups.append(range(lo, g))
            lo, s_max, e_max, cells = g, s, e, s * e
    groups.append(range(lo, len(size)))
    return groups


def _best_windows(windows: _Windows, bits: np.ndarray):
    """The max-rate window of every period, as arrays indexed by period:
    (head rate, si, ei, candidates), with (si, ei) the cell that wins the
    tie rule and `candidates` the number of valid windows, the finite
    rates.  Each run of `_cube_groups` is scored in one cube, freed
    before the next run's and before the step allocates anything that
    outlives it, so no such block is left above the cube on the heap and
    the next tables reuse its memory whole.
    """
    best = []
    for periods in _cube_groups(
        windows.s_first[1:] - windows.s_first[:-1], windows.e_first[1:] - windows.e_first[:-1]
    ):
        rates = _candidate_grid(windows, bits, periods)
        best.append((*_argmax_lex(rates), np.add.reduce(np.isfinite(rates), axis=(1, 2))))
        del rates
    return best[0] if len(best) == 1 else tuple(map(np.concatenate, zip(*best)))


def _interleave(periods):
    """Each period's (head rate, step) rounds, merged in the order one
    round loop over all periods takes them: the highest head rate next,
    and among heads within RATE_TIE_REL of it, the earliest period's.

    Exact rates would not do: a period and its shifted copy have heads
    that differ in the last bits and must still alternate.
    """
    heads = [(-rounds[0][0], p, 0) for p, rounds in enumerate(periods)]
    heapq.heapify(heads)
    while heads:
        top = -heads[0][0]
        tied = []
        while heads and -heads[0][0] >= top - RATE_TIE_REL * abs(top):
            tied.append(heapq.heappop(heads))
        tied.sort(key=lambda head: head[1])
        _, p, k = tied[0]
        yield periods[p][k]
        for head in tied[1:]:
            heapq.heappush(heads, head)
        if k + 1 < len(periods[p]):
            heapq.heappush(heads, (-periods[p][k + 1][0], p, k + 1))


def solve(instance: Instance, model: PowerModel) -> Schedule:
    """The optimal schedule: greedy max-rate window selection over the
    time earlier rounds left free, then EDF inside each selected window.

    No selected window spans an idle gap, since its rate falls below
    that of the better of its two sides, so busy periods never share a
    window.  They play their rounds in lockstep: each step plays the
    next round of every period with active packets, scored together,
    and the periods' rounds are interleaved afterwards.
    """
    decomp = instance.decomposition
    grid = decomp.instants
    ranges = np.stack((decomp.lo, decomp.hi))  # each packet's arrival and deadline grid index
    # The busy periods are the runs of live epochs, and heads[q] is
    # period q's first epoch; a packet's period is the run holding its
    # first epoch.  Packets come sorted by arrival, so by period too.
    # The last head, past every grid instant, closes the last period.
    heads = np.append(runs(decomp.coverage > 0)[0], len(grid))
    bits = instance.bits()
    free = np.ones(decomp.m, dtype=bool)  # the epochs no round reserved
    # position[j] is grid instant j's position, the free time before it
    position = np.zeros(len(grid) + 1)
    position[-1] = np.inf
    rates = np.empty(instance.n)
    # The active packets and their periods, counted among the periods
    # with active packets; those periods and their numbers of active packets.
    idx = np.arange(instance.n)
    period = heads.searchsorted(ranges[0], "right") - 1
    sizes = np.bincount(period).tolist()
    busy = list(range(len(sizes)))
    rounds: list[list] = [[] for _ in sizes]
    segments: list[tuple[int, float, float, float]] = []

    while len(idx):
        np.cumsum(np.where(free, decomp.lengths, 0.0), out=position[1:-1])
        windows = _window_ranks(position[ranges[:, idx]], period, position[heads[busy + [-1]]])
        head, si, ei, candidates = _best_windows(windows, bits[idx])
        candidates = candidates.tolist()
        if 0 in candidates:
            raise NoCandidates("no sub-interval among active packets; windows degenerate")
        settled = (windows.start_rank >= si[period]) & (windows.end_rank <= ei[period])
        member = idx[settled]
        # Each busy period settles a run of packets, in the order of `busy`.
        count = np.add.reduceat(settled, windows.first[:-1], dtype=np.intp).tolist()
        cut = [0, *itertools.accumulate(count)]
        firsts = np.array(cut[:-1])
        # A period's pieces are the runs of free epochs in its members'
        # span; the spans are disjoint, so one mask holds them all.
        # Members ascend with their arrivals, so a span starts at its
        # first member's.
        member_lo, member_hi = ranges[:, member]
        span_lo = member_lo[firsts]
        taken = covered(span_lo, np.maximum.reduceat(member_hi, firsts), decomp.m) > 0
        taken &= free
        free &= ~taken
        opens, shuts = runs(taken)
        pieces = list(zip(grid[opens].tolist(), grid[shuts].tolist()))
        first_piece = [*opens.searchsorted(span_lo).tolist(), len(pieces)]
        member_bits = bits[member]
        columns = [
            column.tolist()
            for column in (member + 1, member_bits, grid[member_lo], grid[member_hi])
        ]
        member_rates: list[float] = []
        for g, (p, h, c) in enumerate(zip(busy, head.tolist(), candidates)):
            a, b = cut[g], cut[g + 1]
            own = pieces[first_piece[g]:first_piece[g + 1]]
            rate = float(member_bits[a:b].sum() / sum(e - s for s, e in own))
            fill = tuple(column[a:b] for column in columns)
            step = IterationStep(
                rate=rate, members=frozenset(fill[0]), pieces=tuple(own), candidates=c
            )
            rounds[p].append((h, step))
            segments.extend(edf_fill(own, fill, rate))
            member_rates += [rate] * (b - a)
        rates[member] = member_rates
        idx, period = idx[~settled], period[~settled]
        sizes = [n - c for n, c in zip(sizes, count)]
        if 0 in sizes:
            period = (np.cumsum([n > 0 for n in sizes]) - 1)[period]
            busy = [p for p, n in zip(busy, sizes) if n]
            sizes = [n for n in sizes if n]

    trace = IterationTrace(tuple(step for _, step in _interleave(rounds)))
    segments = SegmentTable.in_time_order(*np.array(segments, dtype=float).T)
    return _assemble(instance, model, rates, segments, trace=trace)


def _assemble(
    instance: Instance,
    model: PowerModel,
    rates: np.ndarray,
    segments: SegmentTable,
    trace: IterationTrace | None = None,
) -> Schedule:
    """The schedule of constant `rates` over `segments`, a table in
    time order, priced under `model`.  A solver `trace` is first checked
    against the schedule invariants."""
    if trace is not None:
        _check_solution_invariants(instance, trace, segments, rates)
    energy = schedule_energy(model, rates, instance.bits() / rates)
    return Schedule(rates, segments, energy, trace)


def schedule_from_allocation(
    instance: Instance, tau: np.ndarray, model: PowerModel
) -> Schedule:
    """Materialize a schedule from a dense N x M epoch-time allocation
    table, such as the oracle's.

    Rates follow from each packet's total time; inside each epoch the
    allocated packets transmit back to back from the epoch's start, in
    deadline order.  Only these segments are kept: booked back into
    epochs they give the table again, up to rounding, unless a column
    overfills its epoch and spills into the next.  Useful for turning
    oracle allocations or perturbed tables into verifiable schedules.
    """
    tau = np.asarray(tau, dtype=float)
    shape = (instance.n, instance.decomposition.m)
    if tau.shape != shape:
        raise ValueError(f"tau must be {shape}, got {tau.shape}")
    rates, segments = _segments_from_table(instance, PairTable.from_dense(tau))
    return _assemble(instance, model, rates, segments)


def _segments_from_table(instance: Instance, tau: PairTable):
    """The rates and segments of `schedule_from_allocation`, from the
    table's cells."""
    totals = tau.row_sums()
    if np.any(totals <= 0):
        raise ValueError("every packet needs positive total time")
    rates = instance.bits() / totals
    used = tau.values > instance.dust
    rows, cols, values = tau.rows[used], tau.cols[used], tau.values[used]
    order = np.lexsort((rows, instance.deadlines()[rows], cols))
    rows, cols, values = rows[order], cols[order], values[order]
    # Row g of `times` runs through the g-th used epoch column: its start,
    # then its cells' times, added up one after another.
    opens = np.diff(cols, prepend=-1) != 0
    first = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    slot = np.arange(len(cols)) - first[group]
    times = np.zeros((len(first), slot.max(initial=0) + 2))
    times[:, 0] = instance.decomposition.instants[cols[first]]
    times[group, slot + 1] = values
    np.add.accumulate(times, axis=1, out=times)
    segments = SegmentTable.in_time_order(
        rows + 1, times[group, slot], times[group, slot + 1], rates[rows]
    )
    return rates, segments


# ---------------------------------------------------------------------------
# serialization


def schedule_to_json(schedule: Schedule) -> str:
    """The text of `json.dumps` of the schedule document, written from
    the columns."""
    seg = schedule.segments
    rates = [f'{{"id": {i}, "rate": {r}}}' for i, r in enumerate(_floats(schedule.rates), 1)]
    segments = [
        f'{{"id": {i}, "start": {s}, "end": {e}, "rate": {r}}}'
        for i, s, e, r in zip(seg.packet.tolist(), *map(_floats, (seg.start, seg.end, seg.rate)))
    ]
    iterations = [
        {"rate": st.rate, "packets": sorted(st.members), "pieces": [list(p) for p in st.pieces]}
        for st in (schedule.trace.steps if schedule.trace else ())
    ]
    return (
        f'{{"energy": {json.dumps(schedule.energy)}, "rates": [{", ".join(rates)}], '
        f'"segments": [{", ".join(segments)}], "iterations": {json.dumps(iterations)}}}\n'
    )


def _integers(values, what: str) -> list[int]:
    """The values; each must be a JSON integer."""
    for value in values:
        if type(value) is not int:
            raise ScheduleFormatError(f"{what} {value!r} is not an integer")
    return values


def _numbers(values: list, what: str) -> np.ndarray:
    """The values as floats; each must be a finite JSON number, so no
    bool, null, NaN or Infinity."""
    array = np.array([as_float(v) for v in values], dtype=float)  # a non-number reads as NaN
    finite = np.isfinite(array)
    if not finite.all():
        raise ScheduleFormatError(f"{what} {values[int(finite.argmin())]!r} is not a finite number")
    return array


def schedule_from_json(text: str, instance: Instance) -> Schedule:
    """Rebuild a schedule from its JSON form; the iteration trace keeps
    rates, members and pieces.  A document of another shape, or a number
    that is not finite, raises ScheduleFormatError."""
    doc = json.loads(text)
    try:
        entries = doc["rates"]
        ids = _integers([e["id"] for e in entries], "rate entry id")
        seen = set()
        for pid in ids:
            if not 1 <= pid <= instance.n:
                raise ScheduleFormatError(
                    f"rate entry for packet {pid}: ids run from 1 to {instance.n}"
                )
            if pid in seen:
                raise ScheduleFormatError(f"rate entry for packet {pid} is repeated")
            seen.add(pid)
        rates = np.zeros(instance.n)
        rates[np.array(ids, dtype=np.intp) - 1] = _numbers([e["rate"] for e in entries], "rate")
        entries = doc["segments"]
        ids = _integers([e["id"] for e in entries], "segment id")
        columns = [_numbers([e[k] for e in entries], f"segment {k}")
                   for k in ("start", "end", "rate")]
        segments = SegmentTable(ids, *columns)
        iterations = doc.get("iterations", [])
        step_rates = _numbers([it["rate"] for it in iterations], "iteration rate").tolist()
        pieces = [piece for it in iterations for piece in it["pieces"]]
        if any(len(piece) != 2 for piece in pieces):
            raise ScheduleFormatError("an iteration piece is not a (start, end) pair")
        ends = iter(_numbers([x for piece in pieces for x in piece], "piece end").tolist())
        pairs = zip(ends, ends)  # each piece's (start, end), in order
        steps = tuple(
            IterationStep(rate, frozenset(_integers(it["packets"], "iteration packet")),
                          tuple(itertools.islice(pairs, len(it["pieces"]))))
            for it, rate in zip(iterations, step_rates)
        )
        energy = float(_numbers([doc["energy"]], "energy")[0])
    except OverflowError as exc:  # numbers read as floats, so only a segment id overflows
        raise ScheduleFormatError(f"a segment id is out of range: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ScheduleFormatError(f"schedule document is malformed: {exc!r}") from exc
    return Schedule(rates, segments, energy, IterationTrace(steps) if steps else None)
