"""Iterative maximum-rate sub-interval scheduling.

The optimal offline policy works greedily from the most pressed part of
the timeline outwards.  Each round considers every window that runs
from some still-unscheduled packet's arrival to some still-unscheduled
packet's deadline and fully contains at least one such packet's life
time; the window's rate is its contained bits divided by its length.
The maximum-rate window wins: its contained packets all transmit at
that common rate, inside that window, ordered by earliest deadline
first.  The window is then cut out of the timeline (arrivals and
deadlines of the remaining packets contract past the cut) and the
process repeats on the shortened axis until every packet is scheduled.

Rates only depend on the window geometry, never on the power law; the
power model enters once at the end, to price the schedule.
"""

from __future__ import annotations

import bisect
import heapq
import json
from dataclasses import dataclass

import numpy as np

from . import _intervals
from .model import (
    INSTANT_MERGE_TOL,
    EpochDecomposition,
    Instance,
    Packet,
    decompose,
)
from .power import PowerModel, schedule_energy

TIME_TOL = INSTANT_MERGE_TOL
RATE_TIE_REL = 1e-12  # rates closer than this (relatively) count as tied
_PIECE_EPS = 1e-12


class NoCandidates(RuntimeError):
    """No sub-interval exists among the active packets (internal bug)."""


class InconsistentTrace(RuntimeError):
    """A shifted interval fell outside the mapped time domain."""


class InternalIdle(RuntimeError):
    """The EDF fill would idle; impossible for a max-rate window."""


class InternalDeadlineMiss(RuntimeError):
    """The EDF fill would miss a deadline; impossible for a max-rate window."""


class InternalInvariantViolation(RuntimeError):
    """A schedule invariant failed after assembly (internal bug)."""


@dataclass(frozen=True)
class SubInterval:
    """A candidate window with its contained packets and minimum rate."""

    start: float
    end: float
    contained: frozenset[int]
    rate: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Segment:
    """A maximal run of one packet transmitting, in original time."""

    packet: int
    t_start: float
    t_end: float
    rate: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class IterationStep:
    """One round: the chosen window, its original-time image, and the
    packets it settled.  `shifted_start/end` are in the contracted time
    axis of that round; `candidates` counts the windows examined."""

    rate: float
    members: frozenset[int]
    pieces: tuple[tuple[float, float], ...]
    shifted_start: float | None = None
    shifted_end: float | None = None
    candidates: int | None = None


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[IterationStep, ...]
    horizon: float | None = None

    def rates(self) -> list[float]:
        return [s.rate for s in self.steps]


@dataclass
class Schedule:
    """A complete transmission plan.

    rates[i-1] is packet i's constant rate; tau[i-1, j-1] its
    transmission time inside epoch j; segments the flattened timeline.
    `certified` marks schedules produced by the optimal policy.
    """

    rates: np.ndarray
    tau: np.ndarray
    segments: tuple[Segment, ...]
    energy: float
    trace: IterationTrace | None
    certified: bool = True


# ---------------------------------------------------------------------------
# candidate enumeration and selection


def _candidate_grid(arrivals: np.ndarray, deadlines: np.ndarray, bits: np.ndarray):
    """Rate matrix over (unique arrival) x (unique deadline) windows.

    Returns (starts, ends, in_start, in_end, rates, valid) where
    in_start[p, s] marks packet p's window starting at or after
    starts[s], in_end[p, e] likewise for deadlines, and valid marks
    windows of positive length containing at least one packet.
    """
    starts = np.unique(arrivals)
    ends = np.unique(deadlines)
    in_start = arrivals[:, None] >= starts[None, :] - TIME_TOL
    in_end = deadlines[:, None] <= ends[None, :] + TIME_TOL
    counts = in_start.astype(float).T @ in_end.astype(float)
    bitsum = (in_start * bits[:, None]).T @ in_end.astype(float)
    lengths = ends[None, :] - starts[:, None]
    valid = (lengths > TIME_TOL) & (counts > 0.5)
    rates = np.where(valid, bitsum / np.where(valid, lengths, 1.0), -np.inf)
    return starts, ends, in_start, in_end, rates, valid


def _argmax_lex(rates: np.ndarray, valid: np.ndarray, starts, ends):
    """Index of the max-rate cell; ties go to smallest start, then end."""
    rmax = rates.max()
    tied = valid & (rates >= rmax - RATE_TIE_REL * abs(rmax))
    si, ei = np.nonzero(tied)
    order = np.lexsort((ends[ei], starts[si]))
    return int(si[order[0]]), int(ei[order[0]])


def enumerate_subintervals(active_packets: list[Packet]) -> list[SubInterval]:
    """All windows from an active arrival to an active deadline that
    contain at least one active life time, with their rates.

    Windows with identical endpoints are reported once, so the list has
    at most N^2 entries.
    """
    if not active_packets:
        raise ValueError("active packet list is empty")
    arrivals = np.array([p.arrival for p in active_packets])
    deadlines = np.array([p.deadline for p in active_packets])
    bits = np.array([p.bits for p in active_packets])
    ids = np.array([p.id for p in active_packets])
    starts, ends, in_start, in_end, rates, valid = _candidate_grid(
        arrivals, deadlines, bits
    )
    out = []
    for si, ei in zip(*np.nonzero(valid)):
        members = ids[in_start[:, si] & in_end[:, ei]]
        out.append(
            SubInterval(
                start=float(starts[si]),
                end=float(ends[ei]),
                contained=frozenset(int(i) for i in members),
                rate=float(rates[si, ei]),
            )
        )
    out.sort(key=lambda s: (s.start, s.end))
    return out


def select_max_rate(candidates: list[SubInterval]) -> SubInterval:
    """The maximum-rate candidate; ties break to the smallest start,
    then the smallest end."""
    if not candidates:
        raise NoCandidates("empty candidate list")
    rmax = max(c.rate for c in candidates)
    tied = [c for c in candidates if c.rate >= rmax - RATE_TIE_REL * abs(rmax)]
    return min(tied, key=lambda c: (c.start, c.end))


def shift_out(window: tuple[float, float], packet_times):
    """Contract the time axis past a removed window.

    Each (arrival, deadline) pair is updated by the three-case rule:
    instants at or before the window start stay, instants inside clamp
    to the start, instants after the end move left by the window
    length.
    """
    a, d = window
    length = d - a
    out = []
    for ta, td in packet_times:
        na = ta if ta <= a else (a if ta <= d else ta - length)
        nd = td if td <= a else (a if td <= d else td - length)
        out.append((na, nd))
    return out


# ---------------------------------------------------------------------------
# time-axis bookkeeping


def _free_intervals(removed: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Complement of the removed chunks in [0, inf)."""
    free = []
    cur = 0.0
    for s, e in removed:
        if s - cur > _PIECE_EPS:
            free.append((cur, s))
        cur = max(cur, e)
    free.append((cur, float("inf")))
    return free


def _map_to_original(free, interval: tuple[float, float]):
    """Original-time pieces of a shifted interval.

    `free` lists the original-time intervals not yet reserved, in
    order; their cumulative lengths are the shifted coordinates.
    """
    a, d = interval
    if a < -TIME_TOL:
        raise InconsistentTrace(f"shifted interval {interval} starts before 0")
    pieces = []
    c = 0.0
    for u, v in free:
        w = v - u
        lo = max(a, c)
        hi = min(d, c + w)
        if hi - lo > _PIECE_EPS:
            pieces.append((u + (lo - c), u + (hi - c)))
        c += w
        if c >= d:
            break
    else:
        if d > c + TIME_TOL:
            raise InconsistentTrace(
                f"shifted interval {interval} extends past the mapped domain"
            )
    return pieces


def unshift(trace: IterationTrace, iteration: int, interval: tuple[float, float]):
    """Map a shifted interval of round `iteration` back to original
    time through the cuts made by rounds 1..iteration-1."""
    if not 1 <= iteration <= len(trace.steps) + 1:
        raise InconsistentTrace(f"iteration {iteration} outside the trace")
    removed = []
    for step in trace.steps[: iteration - 1]:
        removed.extend(step.pieces)
    removed.sort()
    if trace.horizon is not None:
        limit = trace.horizon - _intervals.measure(removed)
        if interval[1] > limit + TIME_TOL:
            raise InconsistentTrace(
                f"shifted interval {interval} extends past the remaining "
                f"axis of length {limit}"
            )
    return _map_to_original(_free_intervals(removed), interval)


# ---------------------------------------------------------------------------
# EDF fill


def edf_fill(pieces, members: list[Packet], rate: float) -> list[Segment]:
    """Earliest-deadline-first fill of disjoint time pieces at one rate.

    Each member transmits bits/rate seconds in total, always the
    arrived, unfinished member with the earliest deadline (ties to the
    lower id).  Idling inside a piece or an unfinished member signal an
    internal bug: the caller only passes windows whose rate makes both
    impossible.

    Arrived members wait in a heap keyed on (deadline, id); an arrival
    pointer moves members into it as time passes their arrival.
    """
    if not members:
        raise ValueError("no members to fill")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    pieces = [(float(s), float(e)) for s, e in pieces if e - s > _PIECE_EPS]
    for (s0, e0), (s1, _) in zip(pieces, pieces[1:]):
        if s1 < e0 - _PIECE_EPS:
            raise ValueError("pieces must be disjoint and ascending")

    need = {p.id: p.bits / rate for p in members}
    total_need = sum(need.values())
    need_tol = max(1e-12 * total_need, 1e-15)
    arrivals = sorted({p.arrival for p in members})
    # Member positions by arrival; a position also breaks (deadline, id)
    # ties.  Admission times never decrease: a piece ends its steps
    # _PIECE_EPS before its end, and the next piece starts no earlier.
    by_arrival = sorted(range(len(members)), key=lambda k: members[k].arrival)
    heap: list[tuple[float, int, int]] = []
    admitted = 0  # by_arrival[:admitted] have been pushed

    segments: list[Segment] = []

    def emit(pid: int, t0: float, t1: float):
        if segments and segments[-1].packet == pid and abs(segments[-1].t_end - t0) <= _PIECE_EPS:
            last = segments[-1]
            segments[-1] = Segment(pid, last.t_start, t1, rate)
        else:
            segments.append(Segment(pid, t0, t1, rate))

    for ps, pe in pieces:
        t = ps
        while pe - t > _PIECE_EPS:
            while (
                admitted < len(members)
                and members[by_arrival[admitted]].arrival <= t + TIME_TOL
            ):
                p = members[by_arrival[admitted]]
                if need[p.id] > need_tol:
                    heapq.heappush(heap, (p.deadline, p.id, by_arrival[admitted]))
                admitted += 1
            if heap and heap[0][0] < t - TIME_TOL:
                # A member past its deadline has arrived, so the heap holds
                # every unfinished one; name the first in member order.
                late = next(
                    p for p in members
                    if need[p.id] > need_tol and p.deadline < t - TIME_TOL
                )
                raise InternalDeadlineMiss(
                    f"packet {late.id} unfinished at its deadline {late.deadline}"
                )
            if not heap:
                raise InternalIdle(f"no transmittable packet at time {t}")
            cur = members[heap[0][2]]
            dur = min(pe - t, need[cur.id])
            if cur.deadline - t < dur - TIME_TOL:
                dur = max(cur.deadline - t, 0.0)
                if dur <= _PIECE_EPS:
                    raise InternalDeadlineMiss(
                        f"packet {cur.id} cannot finish by its deadline {cur.deadline}"
                    )
            i = bisect.bisect_right(arrivals, t + TIME_TOL)
            if i < len(arrivals) and arrivals[i] < t + dur - _PIECE_EPS:
                dur = arrivals[i] - t
            emit(cur.id, t, t + dur)
            need[cur.id] -= dur
            if need[cur.id] <= need_tol:
                need[cur.id] = 0.0
                heapq.heappop(heap)
            t += dur

    leftovers = {pid: v for pid, v in need.items() if v > need_tol}
    if leftovers:
        raise InternalDeadlineMiss(
            f"packets left unfinished after all pieces: {sorted(leftovers)}"
        )
    return segments


# ---------------------------------------------------------------------------
# assembly


def _tau_from_segments(
    instance: Instance, decomp: EpochDecomposition, segments
) -> np.ndarray:
    grid = np.array(decomp.instants)
    tau = np.zeros((instance.n, decomp.m))
    for seg in segments:
        i = seg.packet - 1
        j0 = max(int(np.searchsorted(grid, seg.t_start, side="right")) - 1, 0)
        for j in range(j0, decomp.m):
            lo = max(seg.t_start, grid[j])
            hi = min(seg.t_end, grid[j + 1])
            # sub-dust overlaps are float artifacts of segments touching
            # an epoch boundary, not allocations
            if hi - lo > _PIECE_EPS:
                tau[i, j] += hi - lo
            if grid[j] >= seg.t_end:
                break
    return tau


def _check_solution_invariants(
    instance: Instance,
    decomp: EpochDecomposition,
    trace: IterationTrace,
    segments,
    rates: np.ndarray,
):
    steps = trace.steps
    for g in range(len(steps) - 1):
        if steps[g + 1].rate > steps[g].rate * (1.0 + 1e-9):
            raise InternalInvariantViolation(
                f"iteration rates increased: {steps[g].rate} -> {steps[g + 1].rate}"
            )
    all_pieces = sorted(p for s in steps for p in s.pieces)
    for (s0, e0), (s1, _) in zip(all_pieces, all_pieces[1:]):
        if s1 < e0 - TIME_TOL:
            raise InternalInvariantViolation("reserved pieces overlap across rounds")
    merged = _intervals.merge(all_pieces, tol=TIME_TOL)
    live = decomp.live_region()
    gap = _intervals.measure(
        _intervals.subtract(live, merged)
    ) + _intervals.measure(_intervals.subtract(merged, live))
    if gap > 1e-6 * max(1.0, instance.horizon):
        raise InternalInvariantViolation(
            f"reserved pieces do not tile the live region (mismatch {gap})"
        )
    delivered = np.zeros(instance.n)
    for seg in segments:
        delivered[seg.packet - 1] += seg.duration * seg.rate
    bits = instance.bits()
    if np.any(np.abs(delivered - bits) > 1e-9 * np.maximum(bits, 1.0)):
        raise InternalInvariantViolation("delivered bits do not match packet sizes")
    if np.any(rates <= 0):
        raise InternalInvariantViolation("some packet ended up with no rate")


def solve(instance: Instance, model: PowerModel) -> Schedule:
    """The optimal schedule: greedy max-rate window selection with
    timeline contraction, then EDF inside each selected window."""
    decomp = decompose(instance)
    n = instance.n
    arrivals = instance.arrivals().copy()
    deadlines = instance.deadlines().copy()
    bits = instance.bits()
    active = np.ones(n, dtype=bool)
    removed: list[tuple[float, float]] = []
    steps: list[IterationStep] = []
    segments: list[Segment] = []
    rates = np.zeros(n)

    while active.any():
        idx = np.flatnonzero(active)
        starts, ends, in_start, in_end, rate_grid, valid = _candidate_grid(
            arrivals[idx], deadlines[idx], bits[idx]
        )
        if not valid.any():
            raise NoCandidates(
                "no sub-interval among active packets; windows degenerate"
            )
        si, ei = _argmax_lex(rate_grid, valid, starts, ends)
        s, e = float(starts[si]), float(ends[ei])
        rate = float(rate_grid[si, ei])
        member_rows = idx[in_start[:, si] & in_end[:, ei]]
        member_ids = frozenset(int(r) + 1 for r in member_rows)

        pieces = _map_to_original(_free_intervals(removed), (s, e))
        member_packets = [instance.packets[r] for r in member_rows]
        segs = edf_fill(pieces, member_packets, rate)

        steps.append(
            IterationStep(
                rate=rate,
                members=member_ids,
                pieces=tuple(pieces),
                shifted_start=s,
                shifted_end=e,
                candidates=int(valid.sum()),
            )
        )
        rates[member_rows] = rate
        segments.extend(segs)
        removed = _intervals.merge(removed + pieces, tol=_PIECE_EPS)
        active[member_rows] = False

        rest = np.flatnonzero(active)
        if rest.size:
            updated = shift_out((s, e), zip(arrivals[rest], deadlines[rest]))
            arrivals[rest] = [u[0] for u in updated]
            deadlines[rest] = [u[1] for u in updated]

    segments.sort(key=lambda sg: (sg.t_start, sg.t_end))
    trace = IterationTrace(tuple(steps), horizon=instance.horizon)
    _check_solution_invariants(instance, decomp, trace, segments, rates)
    tau = _tau_from_segments(instance, decomp, segments)
    energy = schedule_energy(
        model,
        [(i + 1, rates[i], bits[i] / rates[i]) for i in range(n)],
    )
    return Schedule(
        rates=rates,
        tau=tau,
        segments=tuple(segments),
        energy=energy,
        trace=trace,
        certified=True,
    )


def schedule_from_allocation(
    instance: Instance, tau: np.ndarray, model: PowerModel, certified: bool = False
) -> Schedule:
    """Materialize a schedule from an epoch-time allocation table.

    Rates follow from each packet's total time; inside each epoch the
    allocated packets transmit sequentially in deadline order.  Useful
    for turning oracle allocations or perturbed tables into verifiable
    schedules.
    """
    decomp = decompose(instance)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (instance.n, decomp.m):
        raise ValueError(f"tau must be {(instance.n, decomp.m)}, got {tau.shape}")
    totals = tau.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("every packet needs positive total time")
    bits = instance.bits()
    rates = bits / totals
    segments = []
    for j in range(decomp.m):
        t = decomp.epochs[j][0]
        rows = [i for i in np.flatnonzero(tau[:, j] > _PIECE_EPS)]
        rows.sort(key=lambda i: (instance.packets[i].deadline, i))
        for i in rows:
            segments.append(Segment(i + 1, t, t + tau[i, j], float(rates[i])))
            t += tau[i, j]
    segments.sort(key=lambda sg: (sg.t_start, sg.t_end))
    energy = schedule_energy(
        model,
        [(i + 1, rates[i], bits[i] / rates[i]) for i in range(instance.n)],
    )
    return Schedule(
        rates=rates,
        tau=tau,
        segments=tuple(segments),
        energy=energy,
        trace=None,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# serialization


def schedule_to_json(schedule: Schedule) -> str:
    doc = {
        "energy": schedule.energy,
        "rates": [
            {"id": i + 1, "rate": float(r)} for i, r in enumerate(schedule.rates)
        ],
        "segments": [
            {"id": s.packet, "start": s.t_start, "end": s.t_end, "rate": s.rate}
            for s in schedule.segments
        ],
        "iterations": [
            {
                "rate": st.rate,
                "packets": sorted(st.members),
                "pieces": [[p[0], p[1]] for p in st.pieces],
            }
            for st in (schedule.trace.steps if schedule.trace else ())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def schedule_from_json(text: str, instance: Instance) -> Schedule:
    """Rebuild a schedule from its JSON form.

    The allocation table is reconstructed by intersecting segments with
    the instance's epoch grid; the iteration trace keeps rates, members
    and pieces (shifted coordinates are not serialized).
    """
    doc = json.loads(text)
    decomp = decompose(instance)
    rates = np.zeros(instance.n)
    for entry in doc["rates"]:
        rates[int(entry["id"]) - 1] = float(entry["rate"])
    segments = tuple(
        Segment(int(e["id"]), float(e["start"]), float(e["end"]), float(e["rate"]))
        for e in doc["segments"]
    )
    steps = tuple(
        IterationStep(
            rate=float(it["rate"]),
            members=frozenset(int(p) for p in it["packets"]),
            pieces=tuple((float(p[0]), float(p[1])) for p in it["pieces"]),
        )
        for it in doc.get("iterations", [])
    )
    trace = IterationTrace(steps, horizon=instance.horizon) if steps else None
    tau = _tau_from_segments(instance, decomp, segments)
    return Schedule(
        rates=rates,
        tau=tau,
        segments=segments,
        energy=float(doc["energy"]),
        trace=trace,
        certified=False,
    )
