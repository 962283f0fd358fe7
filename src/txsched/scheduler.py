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
list.

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


class InternalIdle(RuntimeError):
    """The EDF fill would idle; impossible for a max-rate window."""


class InternalDeadlineMiss(RuntimeError):
    """The EDF fill would miss a deadline; impossible for a max-rate window."""


class InternalInvariantViolation(RuntimeError):
    """A schedule invariant failed after assembly (internal bug)."""


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
    """One round: the free pieces of the chosen window and the packets
    it settled; `candidates` counts the windows examined."""

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
# candidate windows


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


def edf_fill(pieces, members: list[Packet], rate: float) -> list[Segment]:
    """Earliest-deadline-first fill of disjoint time pieces at one rate.

    Each member transmits bits/rate seconds in total, always the
    arrived, unfinished member with the earliest deadline (ties to the
    lower id).  Idling inside a piece or an unfinished member signal an
    internal bug: the caller only passes windows whose rate makes both
    impossible.

    Arrived members wait in a heap keyed on (deadline, id); an arrival
    pointer moves members into it as time passes their arrival.

    Instants are compared to within `eps`, _PIECE_EPS relative to the
    largest piece endpoint, since the steps add up in float and one ulp
    of a large instant exceeds any absolute epsilon.
    """
    if not members:
        raise ValueError("no members to fill")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    eps = _PIECE_EPS * max([1.0] + [abs(float(x)) for piece in pieces for x in piece])
    pieces = [(float(s), float(e)) for s, e in pieces if e - s > eps]
    for (s0, e0), (s1, _) in zip(pieces, pieces[1:]):
        if s1 < e0 - eps:
            raise ValueError("pieces must be disjoint and ascending")

    need = {p.id: p.bits / rate for p in members}
    total_need = sum(need.values())
    need_tol = max(1e-12 * total_need, 1e-15)
    arrivals = sorted({p.arrival for p in members})
    # Member positions by arrival; a position also breaks (deadline, id)
    # ties.  Admission times never decrease: a piece ends its steps
    # eps before its end, and the next piece starts no earlier.
    by_arrival = sorted(range(len(members)), key=lambda k: members[k].arrival)
    heap: list[tuple[float, int, int]] = []
    admitted = 0  # by_arrival[:admitted] have been pushed

    segments: list[Segment] = []

    def emit(pid: int, t0: float, t1: float):
        if segments and segments[-1].packet == pid and abs(segments[-1].t_end - t0) <= eps:
            last = segments[-1]
            segments[-1] = Segment(pid, last.t_start, t1, rate)
        else:
            segments.append(Segment(pid, t0, t1, rate))

    for ps, pe in pieces:
        t = ps
        while pe - t > eps:
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
                if dur <= eps:
                    raise InternalDeadlineMiss(
                        f"packet {cur.id} cannot finish by its deadline {cur.deadline}"
                    )
            i = bisect.bisect_right(arrivals, t + TIME_TOL)
            if i < len(arrivals) and arrivals[i] < t + dur - eps:
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
    """The optimal schedule: greedy max-rate window selection over the
    time earlier rounds left free, then EDF inside each selected window."""
    decomp = decompose(instance)
    n = instance.n
    arrivals = instance.arrivals()
    deadlines = instance.deadlines()
    bits = instance.bits()
    active = np.ones(n, dtype=bool)
    reserved: list[tuple[float, float]] = []
    steps: list[IterationStep] = []
    segments: list[Segment] = []
    rates = np.zeros(n)

    while active.any():
        idx = np.flatnonzero(active)
        starts, ends, in_start, in_end, rate_grid, valid = _candidate_grid(
            _positions(arrivals[idx], reserved),
            _positions(deadlines[idx], reserved),
            bits[idx],
        )
        if not valid.any():
            raise NoCandidates(
                "no sub-interval among active packets; windows degenerate"
            )
        si, ei = _argmax_lex(rate_grid, valid, starts, ends)
        member_rows = idx[in_start[:, si] & in_end[:, ei]]
        span = (float(arrivals[member_rows].min()), float(deadlines[member_rows].max()))
        pieces = _intervals.subtract([span], reserved)
        rate = float(bits[member_rows].sum() / _intervals.measure(pieces))
        member_packets = [instance.packets[r] for r in member_rows]
        segments.extend(edf_fill(pieces, member_packets, rate))

        steps.append(
            IterationStep(
                rate=rate,
                members=frozenset(int(r) + 1 for r in member_rows),
                pieces=tuple(pieces),
                candidates=int(valid.sum()),
            )
        )
        rates[member_rows] = rate
        reserved = _intervals.merge(reserved + pieces)
        active[member_rows] = False

    segments.sort(key=lambda sg: (sg.t_start, sg.t_end))
    trace = IterationTrace(tuple(steps))
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
    and pieces.
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
    trace = IterationTrace(steps) if steps else None
    tau = _tau_from_segments(instance, decomp, segments)
    return Schedule(
        rates=rates,
        tau=tau,
        segments=segments,
        energy=float(doc["energy"]),
        trace=trace,
        certified=False,
    )
