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

Every window, piece and segment stays in original time.  A round
measures a window's free length through the positions of its endpoints
on the remaining timeline, computed afresh from the sorted list of
reserved pieces, so nothing is carried from round to round but that
list.  Each busy period (a connected run of windows) keeps its own
list and runs its own rounds, as no winning window crosses an idle gap.

Rates only depend on the window geometry, never on the power law; the
power model enters once at the end, to price the schedule.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np

from . import _intervals
from .model import TIME_REL_TOL, Instance, PairTable
from .power import PowerModel, schedule_energy

RATE_TIE_REL = 1e-12  # rates closer than this (relatively) count as tied
_PIECE_EPS = 1e-12


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
    arrays, packet ids as integers and the rest as floats."""

    packet: np.ndarray
    start: np.ndarray
    end: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        for name, dtype in zip(("packet", "start", "end", "rate"), (np.intp, float, float, float)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(cls, rows) -> "SegmentTable":
        """The table of (packet, start, end, rate) rows."""
        return cls(*np.array(rows, dtype=float).reshape(-1, 4).T)

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


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """`np.unique` of a NaN-free 1-d array, without its generic set-up:
    sort, then keep the first of each run of equal values."""
    s = np.sort(values)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _candidate_grid(
    arrivals: np.ndarray, deadlines: np.ndarray, bits: np.ndarray, tol: float
):
    """Rate table over (unique arrival) x (unique deadline) windows.

    Returns (starts, ends, start_rank, end_rank, rates, valid).  Packet
    p lies inside window (s, e) when s <= start_rank[p] and e >=
    end_rank[p]: its arrival is at or after starts[s] and its deadline
    at or before ends[e], both within the time tolerance `tol`.  valid
    marks windows longer than `tol` containing at least one packet.

    The bits are binned by (start rank, end rank), so a suffix sum over
    starts and a prefix sum over ends give every window's contained
    bits in O(S * E).
    """
    starts = _sorted_unique(arrivals)
    ends = _sorted_unique(deadlines)
    start_rank = (starts - tol).searchsorted(arrivals, "right") - 1
    end_rank = (ends + tol).searchsorted(deadlines, "left")
    shape = (len(starts), len(ends))
    bitsum = np.bincount(
        start_rank * shape[1] + end_rank, weights=bits, minlength=shape[0] * shape[1]
    ).reshape(shape)
    suffix = bitsum[::-1]
    np.add.accumulate(suffix, axis=0, out=suffix)
    np.add.accumulate(bitsum, axis=1, out=bitsum)
    lengths = ends - starts[:, None]
    valid = lengths > tol
    valid &= bitsum > 0
    rates = np.divide(bitsum, lengths, out=bitsum, where=valid)
    del lengths
    np.copyto(rates, -np.inf, where=~valid)
    return starts, ends, start_rank, end_rank, rates, valid


def _argmax_lex(rates: np.ndarray, valid: np.ndarray, starts, ends):
    """Index of the max-rate cell; ties go to smallest start, then end."""
    rmax = rates.max()
    tied = rates >= rmax - RATE_TIE_REL * abs(rmax)
    tied &= valid
    si, ei = np.nonzero(tied)
    order = np.lexsort((ends[ei], starts[si]))
    return int(si[order[0]]), int(ei[order[0]])


def _positions(times: np.ndarray, reserved) -> np.ndarray:
    """Positions of original-time instants on the timeline that is left
    once the sorted, disjoint `reserved` pieces are cut out: each instant
    moves left by the reserved time before it, and an instant inside a
    reserved piece lands where that piece was cut."""
    if not reserved:
        return times
    edges = np.asarray(reserved, dtype=float).ravel()
    # reserved time before each edge: 0, c1, c1, c2, c2, ..., cR
    cum = np.concatenate(([0.0], np.cumsum(edges[1::2] - edges[0::2])))
    return times - np.interp(times, edges, np.repeat(cum, 2)[1:-1])


# ---------------------------------------------------------------------------
# EDF fill


def edf_fill(pieces, members, rate: float) -> list[tuple[int, float, float, float]]:
    """Earliest-deadline-first fill of disjoint time pieces at one rate.

    `members` holds the packets' columns as four lists: ids, bits,
    arrivals and deadlines.  Returns the segments as (packet, start, end,
    rate) rows.

    Each member transmits bits/rate seconds in total, always the
    arrived, unfinished member with the earliest deadline (ties to the
    lower id).  Idling inside a piece or an unfinished member signal an
    internal bug: the caller only passes windows whose rate makes both
    impossible.

    Arrived members wait in a heap keyed on (deadline, id); an arrival
    pointer moves members into it as time passes their arrival.

    Steps are cut to within `eps`, _PIECE_EPS relative to the largest
    piece endpoint, since the steps add up in float and one ulp of a
    large instant exceeds any absolute epsilon; for the same reason a
    member is done once less than `eps` of its time is left.  An arrival
    or deadline is the same instant as `t` within `tol`, TIME_REL_TOL
    times the latest member deadline: the scale of the instance's time
    tolerance.
    That tolerance admits a member early only when no arrived member is
    waiting; otherwise the running step ends at the arrival, so no
    member transmits before its arrival instant while another could.
    """
    ids, bits, arrivals, deadlines = members
    if not ids:
        raise ValueError("no members to fill")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    eps = _PIECE_EPS * max(
        (abs(float(x)) for piece in pieces for x in piece), default=0.0
    )
    tol = TIME_REL_TOL * max(abs(d) for d in deadlines)
    pieces = [(float(s), float(e)) for s, e in pieces if e - s > eps]
    for (s0, e0), (s1, _) in zip(pieces, pieces[1:]):
        if s1 < e0 - eps:
            raise ValueError("pieces must be disjoint and ascending")

    need = [b / rate for b in bits]
    need_tol = max(1e-12 * sum(need), eps)
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
            if need[k] > need_tol:
                heapq.heappush(heap, (deadlines[k], ids[k], k))
            admitted += 1

    for ps, pe in pieces:
        t = ps
        while pe - t > eps:
            admit(t + eps)
            if not heap:
                admit(t + tol)
            if heap and heap[0][0] < t - tol:
                # A member past its deadline has arrived, so the heap holds
                # every unfinished one; name the first in member order.
                late = next(
                    k for k in range(len(ids))
                    if need[k] > need_tol and deadlines[k] < t - tol
                )
                raise InternalDeadlineMiss(
                    f"packet {ids[late]} unfinished at its deadline {deadlines[late]}"
                )
            if not heap:
                raise InternalIdle(f"no transmittable packet at time {t}")
            deadline, pid, cur = heap[0]
            dur = min(pe - t, need[cur])
            if deadline - t < dur - tol:
                dur = max(deadline - t, 0.0)
                if dur <= eps:
                    raise InternalDeadlineMiss(
                        f"packet {pid} cannot finish by its deadline {deadline}"
                    )
            if admitted < len(ids):
                arrival = arrivals[by_arrival[admitted]]
                if arrival < t + dur - eps:
                    dur = arrival - t
            emit(pid, t, t + dur)
            need[cur] -= dur
            if need[cur] <= need_tol:
                need[cur] = 0.0
                heapq.heappop(heap)
            t += dur

    leftovers = sorted(ids[k] for k in range(len(ids)) if need[k] > need_tol)
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
    tol = instance.time_tol
    for g in range(len(steps) - 1):
        if steps[g + 1].rate > steps[g].rate * (1.0 + 1e-9):
            raise InternalInvariantViolation(
                f"iteration rates increased: {steps[g].rate} -> {steps[g + 1].rate}"
            )
    all_pieces = sorted(p for s in steps for p in s.pieces)
    for (s0, e0), (s1, _) in zip(all_pieces, all_pieces[1:]):
        if s1 < e0 - tol:
            raise InternalInvariantViolation("reserved pieces overlap across rounds")
    merged = _intervals.merge(all_pieces, tol)
    live = instance.decomposition.live_region()
    dust = _PIECE_EPS * instance.horizon
    gap = _intervals.measure(
        _intervals.subtract(live, merged, dust)
    ) + _intervals.measure(_intervals.subtract(merged, live, dust))
    if gap > 1e-6 * instance.horizon:
        raise InternalInvariantViolation(
            f"reserved pieces do not tile the live region (mismatch {gap})"
        )
    delivered = np.bincount(
        segments.packet - 1,
        weights=(segments.end - segments.start) * segments.rate,
        minlength=instance.n,
    )
    bits = instance.bits()
    if np.any(np.abs(delivered - bits) > 1e-9 * bits):
        raise InternalInvariantViolation("delivered bits do not match packet sizes")
    if np.any(rates <= 0):
        raise InternalInvariantViolation("some packet ended up with no rate")


def _busy_periods(arrivals: np.ndarray, deadlines: np.ndarray, tol: float):
    """Row indices of each busy period, a maximal run of windows whose
    union is connected, in time order; rows ascend within a period.

    Sorted by arrival, a period ends where the next arrival comes later
    than the latest deadline so far by more than `tol`.
    """
    order = np.argsort(arrivals, kind="stable")
    reach = np.maximum.accumulate(deadlines[order])
    cuts = np.flatnonzero(arrivals[order][1:] > reach[:-1] + tol) + 1
    return [np.sort(rows) for rows in np.split(order, cuts)]


def _solve_period(instance: Instance, rows: np.ndarray, rates: np.ndarray):
    """The rounds of one busy period, in order, as (head rate, step,
    segment rows) triples; sets `rates` at the period's rows.

    The head rate is the round's best grid rate, the value a loop over
    all periods at once would compare against the other periods.
    """
    arrivals = instance.arrivals()[rows]
    deadlines = instance.deadlines()[rows]
    bits = instance.bits()[rows]
    dust = _PIECE_EPS * instance.horizon
    active = np.ones(len(rows), dtype=bool)
    reserved: list[tuple[float, float]] = []
    rounds = []

    while active.any():
        idx = np.flatnonzero(active)
        k = len(idx)
        times = _positions(np.concatenate((arrivals[idx], deadlines[idx])), reserved)
        starts, ends, start_rank, end_rank, rate_grid, valid = _candidate_grid(
            times[:k], times[k:], bits[idx], instance.time_tol
        )
        if not valid.any():
            raise NoCandidates(
                "no sub-interval among active packets; windows degenerate"
            )
        si, ei = _argmax_lex(rate_grid, valid, starts, ends)
        # Free the S x E tables before the round allocates anything that
        # may outlive them, so no such block is left above them on the
        # heap and the next instance's tables reuse their memory whole.
        head, candidates = float(rate_grid.max()), int(valid.sum())
        del rate_grid, valid
        member = idx[(start_rank >= si) & (end_rank <= ei)]
        span = (float(arrivals[member].min()), float(deadlines[member].max()))
        pieces = _intervals.subtract([span], reserved, dust)
        rate = float(bits[member].sum() / _intervals.measure(pieces))
        member_rows = rows[member]
        ids = (member_rows + 1).tolist()
        columns = (ids, bits[member].tolist(), arrivals[member].tolist(),
                   deadlines[member].tolist())
        step = IterationStep(
            rate=rate, members=frozenset(ids), pieces=tuple(pieces), candidates=candidates
        )
        rounds.append((head, step, edf_fill(pieces, columns, rate)))
        rates[member_rows] = rate
        reserved = _intervals.merge(reserved + pieces, dust)
        active[member] = False
    return rounds


def _interleave(periods):
    """Each period's rounds, merged in the order one round loop over all
    periods takes them: the highest head rate next, and among heads
    within RATE_TIE_REL of it, the earliest period's.

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
    that of the better of its two sides, so each busy period is solved
    on its own and the periods' rounds are interleaved afterwards.
    """
    # The decomposition lives as long as the instance, and the verifier
    # reads it.  Built before the rounds' transient S x E tables, it does
    # not split the heap they free, which the next instance's tables
    # then reuse whole instead of taking fresh pages.
    instance.decomposition.ranges
    rates = np.zeros(instance.n)
    periods = [
        _solve_period(instance, rows, rates)
        for rows in _busy_periods(
            instance.arrivals(), instance.deadlines(), instance.time_tol
        )
    ]
    steps: list[IterationStep] = []
    segments: list[tuple[int, float, float, float]] = []
    for _, step, rows in _interleave(periods):
        steps.append(step)
        segments.extend(rows)

    trace = IterationTrace(tuple(steps))
    return _assemble(
        instance, model, rates, SegmentTable.from_rows(segments), trace=trace
    )


def _time_order(segments: SegmentTable) -> SegmentTable:
    """The segments sorted by start, then end; ties keep their order."""
    order = np.lexsort((segments.end, segments.start))
    columns = (segments.packet, segments.start, segments.end, segments.rate)
    return SegmentTable(*(column[order] for column in columns))


def _assemble(
    instance: Instance,
    model: PowerModel,
    rates: np.ndarray,
    segments: SegmentTable,
    trace: IterationTrace | None = None,
) -> Schedule:
    """The schedule of constant `rates` over `segments`, sorted here by
    time, priced under `model`.  A solver `trace` is first checked
    against the schedule invariants."""
    segments = _time_order(segments)
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
    dust = _PIECE_EPS * instance.horizon
    used = tau.values > dust
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
    times[:, 0] = np.array(instance.decomposition.instants)[cols[first]]
    times[group, slot + 1] = values
    np.add.accumulate(times, axis=1, out=times)
    segments = SegmentTable(
        rows + 1, times[group, slot], times[group, slot + 1], rates[rows]
    )
    return rates, segments


# ---------------------------------------------------------------------------
# serialization


def _floats(values: np.ndarray) -> list[str]:
    """The text `json.dumps` writes for each float of an array.  Each
    distinct bit pattern is formatted once: a schedule's rates repeat."""
    if not len(values):
        return []
    bits, which = np.unique(np.asarray(values, dtype=float).view(np.uint64), return_inverse=True)
    texts = json.dumps(bits.view(float).tolist())[1:-1].split(", ")
    return [texts[k] for k in which.tolist()]


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


def _ids(entries, what: str) -> list[int]:
    """The `id` of each entry; each must be a JSON integer."""
    ids = [entry["id"] for entry in entries]
    for pid in ids:
        if type(pid) is not int:
            raise ScheduleFormatError(f"{what} id {pid!r} is not an integer")
    return ids


def schedule_from_json(text: str, instance: Instance) -> Schedule:
    """Rebuild a schedule from its JSON form; the iteration trace keeps
    rates, members and pieces."""
    doc = json.loads(text)
    ids = _ids(doc["rates"], "rate entry")
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
    rates[np.array(ids, dtype=np.intp) - 1] = [entry["rate"] for entry in doc["rates"]]
    entries = doc["segments"]
    columns = [[entry[k] for entry in entries] for k in ("start", "end", "rate")]
    try:
        segments = SegmentTable(_ids(entries, "segment"), *columns)
    except OverflowError as exc:
        raise ScheduleFormatError(f"a segment id is out of range: {exc}") from exc
    steps = tuple(
        IterationStep(
            rate=float(it["rate"]),
            members=frozenset(int(p) for p in it["packets"]),
            pieces=tuple((float(p[0]), float(p[1])) for p in it["pieces"]),
        )
        for it in doc.get("iterations", [])
    )
    trace = IterationTrace(steps) if steps else None
    return Schedule(rates, segments, float(doc["energy"]), trace)
