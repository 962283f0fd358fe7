"""Loop implementations of the solver round loop, the verifier, the EDF
fill, the allocation table and the energy sum, the dense window
scoring, and the projected-gradient oracle with its per-column packing.

These are the Python loops and the matmul `candidate_grid` that the
lockstep `txsched.scheduler.solve` with its batched rank-histogram
`_candidate_grid`, the vectorized `txsched.verifier` functions, the
heap-based `txsched.scheduler.edf_fill`, the vectorized
`txsched.verifier.epoch_times`, the once-per-rate
`txsched.power.schedule_energy` and the gather/scatter projection of
`txsched.oracle.solve_projected_gradient` replaced, kept as the
reference that tests/test_equivalence.py compares the fast code
against: identical schedule JSON, the same violation strings in the
same order, the same conditions and member sets, bit-identical
multipliers, tables, energy and oracle iterates, and identical
segments.  `decompose_sets` builds the epoch containment relation as
frozenset families (`epoch_sets_per_packet` and `packet_sets_per_epoch`
read the same families off a range decomposition), and `dense` the
N x M table, the representations the loops were written for; the loop
solver reserves time as sorted interval lists (`merge`, `subtract` and
`measure`), where `scheduler.solve` keeps one epoch mask.  The loops
add a table's rows and columns cell by cell in index order, the order
the sparse table's sums take.

`generate` and `instance_to_json` are the generator loop that draws
with scalar `rng.uniform` calls and keeps windows as tuples, and the
writer that builds one dict per packet for `json.dumps(indent=2)`,
which `txsched.harness.generate` and `txsched.model.instance_to_json`
replaced: the fast pair must write the same text byte for byte.  The
set comprehension `non_fifo_ids` is what `txsched.model.is_non_fifo`
replaced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from txsched import scheduler
from txsched.harness import GeneratorConfig
from txsched.model import (
    CERT_TOL,
    DUST_REL_TOL,
    RATE_TIE_REL,
    REL_TOL,
    EpochDecomposition,
    Instance,
    PairTable,
    decompose,
    normalize_columns,
)
from txsched.oracle import ARMIJO_C, TIME_FLOOR, OracleSolution
from txsched.power import NegativeRate, NonFiniteEnergy, PowerModel, ZeroRate
from txsched.scheduler import (
    IterationStep,
    IterationTrace,
    NoCandidates,
    _check_solution_invariants,
    InternalDeadlineMiss,
    InternalIdle,
    Schedule,
    SegmentTable,
)
from txsched.verifier import (
    DimensionMismatch,
    FeasibilityReport,
    InfeasibleInput,
    NotOptimal,
    VerificationReport,
)


def candidate_grid(
    arrivals: np.ndarray, deadlines: np.ndarray, bits: np.ndarray, tol: float
):
    """Rate matrix over (unique arrival) x (unique deadline) windows, by
    two dense N x S by N x E matmuls.

    Returns (starts, ends, in_start, in_end, rates, valid) where
    in_start[p, s] marks packet p's window starting at or after
    starts[s], in_end[p, e] likewise for deadlines, and valid marks
    windows longer than the time tolerance `tol` containing at least
    one packet.
    """
    starts = np.unique(arrivals)
    ends = np.unique(deadlines)
    in_start = arrivals[:, None] >= starts[None, :] - tol
    in_end = deadlines[:, None] <= ends[None, :] + tol
    counts = in_start.astype(float).T @ in_end.astype(float)
    bitsum = (in_start * bits[:, None]).T @ in_end.astype(float)
    lengths = ends[None, :] - starts[:, None]
    valid = (lengths > tol) & (counts > 0.5)
    rates = np.where(valid, bitsum / np.where(valid, lengths, 1.0), -np.inf)
    return starts, ends, in_start, in_end, rates, valid


def argmax_lex(rates: np.ndarray, valid: np.ndarray, starts, ends):
    """Index (si, ei) of the max-rate cell; ties go to smallest start,
    then end, sorted out among the tied cells by value."""
    rmax = rates.max()
    tied = rates >= rmax - RATE_TIE_REL * abs(rmax)
    tied &= valid
    si, ei = np.nonzero(tied)
    order = np.lexsort((ends[ei], starts[si]))
    return int(si[order[0]]), int(ei[order[0]])


@dataclass(frozen=True)
class Segment:
    """The loops' record of one row of a `SegmentTable`."""

    packet: int
    t_start: float
    t_end: float
    rate: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class Member:
    """The loops' record of one `edf_fill` member."""

    id: int
    bits: float
    arrival: float
    deadline: float


def segment_list(table: SegmentTable) -> list[Segment]:
    """The table's rows as records, in table order."""
    columns = (table.packet, table.start, table.end, table.rate)
    return [Segment(*row) for row in zip(*(c.tolist() for c in columns))]


def member_columns(packets) -> tuple[list, list, list, list]:
    """`edf_fill`'s member columns of records with `id`, `bits`,
    `arrival` and `deadline`."""
    return tuple([getattr(p, k) for p in packets] for k in ("id", "bits", "arrival", "deadline"))


def segment_table(segments) -> SegmentTable:
    """The table of a list of records."""
    return SegmentTable.from_rows([(s.packet, s.t_start, s.t_end, s.rate) for s in segments])


def dense(table: PairTable) -> np.ndarray:
    """The N x M array of a sparse table."""
    out = np.zeros(table.shape)
    out[table.rows, table.cols] = table.values
    return out


@dataclass(frozen=True)
class LoopCondition:
    """The rate-ordering conditions of one epoch, with its member sets."""

    epoch: int
    positive: frozenset[int]
    zero: frozenset[int]
    equal_rates_ok: bool
    dominance_ok: bool
    common_rate: float | None


@dataclass(frozen=True)
class DenseCertificate:
    """The multipliers, with gamma as an N x M array."""

    beta: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class SetDecomposition:
    """The instant grid with both containment set families (1-based)."""

    instants: tuple[float, ...]
    epochs: tuple[tuple[float, float], ...]
    epoch_sets_per_packet: tuple[frozenset[int], ...]
    packet_sets_per_epoch: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.epochs)

    def epoch_lengths(self) -> np.ndarray:
        return np.diff(np.array(self.instants))


def epoch_sets_per_packet(decomp: EpochDecomposition) -> tuple[frozenset[int], ...]:
    """Each packet's epoch numbers, read off a decomposition's ranges."""
    return tuple(frozenset(range(a + 1, d + 1)) for a, d in zip(decomp.lo, decomp.hi))


def packet_sets_per_epoch(decomp: EpochDecomposition) -> tuple[frozenset[int], ...]:
    """The ids of each epoch's feasible packets, read off the ranges."""
    sets: list[set[int]] = [set() for _ in range(decomp.m)]
    for i, (a, d) in enumerate(zip(decomp.lo, decomp.hi), start=1):
        for col in range(a, d):
            sets[col].add(i)
    return tuple(frozenset(s) for s in sets)


def decompose_sets(instance: Instance) -> SetDecomposition:
    """Build the instant grid, epochs, and the C/F set families."""
    raw = np.sort(
        np.concatenate([instance.arrivals(), instance.deadlines()])
    )
    reps: list[float] = []
    for v in raw:
        if not reps or v - reps[-1] >= instance.time_tol:
            reps.append(float(v))
    grid = np.array(reps)
    epochs = tuple((reps[j], reps[j + 1]) for j in range(len(reps) - 1))
    m = len(epochs)
    n = instance.n

    # Map a raw instant to its grid index: the grid point at or just
    # below it (the cluster start), less than the time tolerance away.
    def gidx(v: float) -> int:
        return int(np.searchsorted(grid, v, side="right")) - 1

    c_sets: list[frozenset[int]] = []
    f_lists: list[set[int]] = [set() for _ in range(m)]
    for p in instance.packets:
        a, d = gidx(p.arrival), gidx(p.deadline)
        epochs_of_p = frozenset(range(a + 1, d + 1))  # 1-based epoch ids
        c_sets.append(epochs_of_p)
        for j in epochs_of_p:
            f_lists[j - 1].add(p.id)
    return SetDecomposition(
        instants=tuple(reps),
        epochs=epochs,
        epoch_sets_per_packet=tuple(c_sets),
        packet_sets_per_epoch=tuple(frozenset(s) for s in f_lists),
    )


def row_sum(tau: np.ndarray, i: int) -> float:
    """tau[i, 0] + tau[i, 1] + ..., added left to right."""
    return float(np.add.accumulate(tau[i])[-1]) if tau.shape[1] else 0.0


def column_sum(tau: np.ndarray, j: int) -> float:
    """tau[0, j] + tau[1, j] + ..., added top to bottom."""
    return float(np.add.accumulate(tau[:, j])[-1]) if tau.shape[0] else 0.0


def _positive_sets(
    instance: Instance, decomp: SetDecomposition, tau: np.ndarray, j: int
):
    feas = decomp.packet_sets_per_epoch[j - 1]
    length = decomp.instants[j] - decomp.instants[j - 1]
    thresh = REL_TOL * length
    pos = frozenset(i for i in feas if tau[i - 1, j - 1] > thresh)
    return pos, frozenset(feas - pos)


def check_feasible(instance: Instance, schedule: Schedule) -> FeasibilityReport:
    """Causality, deadlines, non-overlap, bit conservation, and the
    epoch-allocation constraints, with per-violation detail."""
    decomp = decompose_sets(instance)
    n, m = instance.n, decomp.m
    if len(schedule.rates) != n:
        raise DimensionMismatch(f"expected {n} rates, got {len(schedule.rates)}")
    violations: list[str] = []
    tol = instance.time_tol

    segments = segment_list(schedule.segments)
    for seg in segments:
        if not 1 <= seg.packet <= n:
            violations.append(f"segment references unknown packet {seg.packet}")
            continue
        p = instance.packets[seg.packet - 1]
        if seg.t_start < p.arrival - tol:
            violations.append(
                f"causality: packet {p.id} transmits at {seg.t_start} "
                f"before its arrival {p.arrival}"
            )
        if seg.t_end > p.deadline + tol:
            violations.append(
                f"deadline: packet {p.id} transmits until {seg.t_end} "
                f"past its deadline {p.deadline}"
            )
        if not seg.t_end > seg.t_start:
            violations.append(f"segment of packet {p.id} has non-positive length")
        rate = schedule.rates[seg.packet - 1]
        if abs(seg.rate - rate) > REL_TOL * abs(rate):
            violations.append(
                f"segment of packet {p.id} runs at {seg.rate}, "
                f"assigned rate is {rate}"
            )

    ordered = sorted(segments, key=lambda s: (s.t_start, s.t_end))
    for a, b in zip(ordered, ordered[1:]):
        if b.t_start < a.t_end - tol:
            violations.append(
                f"overlap: packets {a.packet} and {b.packet} both transmit "
                f"in [{b.t_start}, {min(a.t_end, b.t_end)}]"
            )

    delivered = np.zeros(n)
    for seg in segments:
        if 1 <= seg.packet <= n:
            delivered[seg.packet - 1] += seg.duration * seg.rate
    bits = instance.bits()
    dust = instance.dust
    for i in range(n):
        # a packet sends rate * dust bits in the dust of time a fill may leave
        if not abs(delivered[i] - bits[i]) <= max(REL_TOL * bits[i], schedule.rates[i] * dust):
            violations.append(
                f"bit conservation: packet {i + 1} delivers {delivered[i]} "
                f"of {bits[i]} bits"
            )

    tau = tau_from_segments(instance, decomp, schedule.segments)
    if np.any(tau < -dust):
        violations.append("negative epoch allocation in tau")
    for i in range(n):
        c_i = decomp.epoch_sets_per_packet[i]
        for j in range(1, m + 1):
            if j not in c_i and abs(tau[i, j - 1]) > dust:
                violations.append(
                    f"packet {i + 1} allocated time in epoch {j} outside its window"
                )
        total = row_sum(tau, i)
        span = bits[i] / schedule.rates[i] if schedule.rates[i] > 0 else np.inf
        if abs(total - span) > max(REL_TOL * span, dust):
            violations.append(
                f"packet {i + 1} tau total {total} does not match bits/rate {span}"
            )

    lengths = decomp.epoch_lengths()
    for j in range(1, m + 1):
        used = column_sum(tau, j - 1)
        if used > lengths[j - 1] + tol:
            violations.append(
                f"epoch {j} allocates {used} of its {lengths[j - 1]} seconds"
            )

    return FeasibilityReport(
        ok=not violations, violations=tuple(violations), tau=PairTable.from_dense(tau)
    )


def check_optimality(
    instance: Instance, schedule: Schedule, model: PowerModel
) -> VerificationReport:
    """The necessary-and-sufficient optimality conditions.

    Raises InfeasibleInput when the schedule is not feasible; otherwise
    reports each condition and their conjunction.
    """
    feas = check_feasible(instance, schedule)
    if not feas.ok:
        raise InfeasibleInput(
            "schedule is infeasible: " + "; ".join(feas.violations[:5])
        )
    decomp = decompose_sets(instance)
    warnings: list[str] = []

    arrivals = instance.arrivals()
    if len(np.unique(arrivals)) < instance.n:
        warnings.append(
            "instance has packets with equal arrival instants; the theory "
            "assumes strictly increasing arrivals but never uses strictness"
        )

    per_packet: dict[int, list[float]] = {}
    for seg in segment_list(schedule.segments):
        per_packet.setdefault(seg.packet, []).append(seg.rate)
    constant_rate_ok = True
    for pid, rs in per_packet.items():
        if max(rs) - min(rs) > REL_TOL * max(rs):
            constant_rate_ok = False

    lengths = decomp.epoch_lengths()
    tau = tau_from_segments(instance, decomp, schedule.segments)
    non_idling: dict[int, bool] = {}
    for j in range(1, decomp.m + 1):
        if not decomp.packet_sets_per_epoch[j - 1]:
            non_idling[j] = True  # no packet can transmit here
            continue
        used = column_sum(tau, j - 1)
        non_idling[j] = abs(used - lengths[j - 1]) <= instance.time_tol

    rates = schedule.rates
    conditions = []
    for j in range(1, decomp.m + 1):
        feas_set = decomp.packet_sets_per_epoch[j - 1]
        if not feas_set:
            continue
        pos, zero = _positive_sets(instance, decomp, tau, j)
        pos_rates = [rates[i - 1] for i in pos]
        equal_ok = True
        common = None
        if pos_rates:
            common = float(max(pos_rates))
            equal_ok = max(pos_rates) - min(pos_rates) <= REL_TOL * max(pos_rates)
        dominance_ok = True
        if pos_rates and zero:
            lo = min(pos_rates)
            hi = max(rates[k - 1] for k in zero)
            dominance_ok = lo >= hi * (1.0 - REL_TOL)
        conditions.append(
            LoopCondition(
                epoch=j,
                positive=pos,
                zero=zero,
                equal_rates_ok=equal_ok,
                dominance_ok=dominance_ok,
                common_rate=common,
            )
        )

    monotone: bool | None = None
    if schedule.trace is not None and schedule.trace.steps:
        monotone = True
        rs = schedule.trace.rates()
        for a, b in zip(rs, rs[1:]):
            if b > a * (1.0 + REL_TOL):
                monotone = False

    recomputed = 0.0
    bits = instance.bits()
    for i in range(instance.n):
        if rates[i] > 0:
            recomputed += bits[i] / rates[i] * model.power(rates[i])
    if not np.isfinite(recomputed):
        warnings.append(
            f"recomputed energy {recomputed} is not finite (stored {schedule.energy})"
        )
    elif not abs(recomputed - schedule.energy) <= REL_TOL * abs(recomputed):
        warnings.append(
            f"stored energy {schedule.energy} differs from recomputed {recomputed}"
        )

    optimal = (
        feas.ok
        and constant_rate_ok
        and all(non_idling.values())
        and all(c.equal_rates_ok and c.dominance_ok for c in conditions)
        and (monotone is None or monotone)
    )
    return VerificationReport(
        feasible=feas,
        constant_rate_ok=constant_rate_ok,
        non_idling_ok=non_idling,
        epoch_rate_conditions=tuple(conditions),
        monotone_iteration_rates_ok=monotone,
        optimal=optimal,
        warnings=tuple(warnings),
    )


def extract_certificate(
    instance: Instance, schedule: Schedule, model: PowerModel
) -> DenseCertificate:
    """Construct and validate the multipliers of an optimal schedule."""
    report = check_optimality(instance, schedule, model)
    if not report.optimal:
        failed = []
        if not report.constant_rate_ok:
            failed.append("constant-rate")
        failed.extend(
            f"idle epoch {j}" for j, ok in report.non_idling_ok.items() if not ok
        )
        failed.extend(
            f"epoch {c.epoch} rate conditions"
            for c in report.epoch_rate_conditions
            if not (c.equal_rates_ok and c.dominance_ok)
        )
        if report.monotone_iteration_rates_ok is False:
            failed.append("iteration-rate monotonicity")
        raise NotOptimal("schedule fails optimality conditions: " + ", ".join(failed))

    decomp = decompose_sets(instance)
    n, m = instance.n, decomp.m
    rates = schedule.rates
    if np.any(rates <= 0):
        raise NotOptimal("certificate requires strictly positive rates")
    g_rates = np.array([model.g(r) for r in rates])

    beta = np.zeros(m)
    gamma = np.zeros((n, m))
    by_epoch = {c.epoch: c for c in report.epoch_rate_conditions}
    for j in range(1, m + 1):
        cond = by_epoch.get(j)
        if cond is None or cond.common_rate is None:
            beta[j - 1] = 0.0  # epoch without transmission; its cap is slack
            continue
        beta[j - 1] = model.g(cond.common_rate)
        for i in cond.zero:
            gamma[i - 1, j - 1] = max(beta[j - 1] - g_rates[i - 1], 0.0)

    lam = g_rates.copy()

    # Validate the construction before handing it out.  The defining
    # identity rate = g_inverse(beta - gamma) is checked through g
    # (g is a monotone bijection, so the statements are equivalent):
    # evaluating the subtraction directly would lose the small g(rate)
    # under beta's float quantum whenever the epoch's common rate is
    # much faster, so the residual is measured additively at beta's
    # scale instead.
    lengths = decomp.epoch_lengths()
    tau = tau_from_segments(instance, decomp, schedule.segments)
    for i in range(1, n + 1):
        for j in decomp.epoch_sets_per_packet[i - 1]:
            target = g_rates[i - 1]
            residual = abs(beta[j - 1] - gamma[i - 1, j - 1] - target)
            tol = max(
                CERT_TOL * target,
                2.0 * np.spacing(beta[j - 1]),
            )
            if residual > tol:
                raise RuntimeError(
                    f"certificate identity failed for packet {i}, epoch {j}: "
                    f"beta - gamma = {beta[j - 1] - gamma[i - 1, j - 1]}, "
                    f"g(rate) = {target}"
                )
            slack = gamma[i - 1, j - 1] * tau[i - 1, j - 1]
            scale = gamma[i - 1, j - 1] * lengths[j - 1]
            if abs(slack) > CERT_TOL * scale:
                raise RuntimeError(
                    f"complementary slackness failed for packet {i}, epoch {j}"
                )
    for j in range(1, m + 1):
        used = column_sum(tau, j - 1)
        slack = beta[j - 1] * (used - lengths[j - 1])
        if abs(slack) > beta[j - 1] * instance.time_tol:
            raise RuntimeError(f"epoch {j} capacity slackness failed")
    if np.any(beta < 0) or np.any(gamma < 0):
        raise RuntimeError("multiplier sign constraints failed")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise RuntimeError("non-finite multipliers")
    return DenseCertificate(beta=beta, gamma=gamma, lam=lam)


def edf_fill(pieces, members, rate: float) -> list[tuple[int, float, float, float]]:
    """Earliest-deadline-first fill of disjoint time pieces at one rate.

    Each member transmits bits/rate seconds in total, always the
    arrived, unfinished member with the earliest deadline (ties to the
    lower id).  Idling inside a piece or an unfinished member signal an
    internal bug: the caller only passes windows whose rate makes both
    impossible.  Steps are cut, arrivals and deadlines compared, and
    members done, to within DUST_REL_TOL relative to the largest piece
    endpoint; the pieces must have positive length, be disjoint and
    ascend, exactly.
    `members` and the result are those of `scheduler.edf_fill`: member
    columns in, (packet, start, end, rate) rows out.
    """
    members = [Member(*row) for row in zip(*members)]
    if not members:
        raise ValueError("no members to fill")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    pieces = [(float(s), float(e)) for s, e in pieces]
    for k, (s, e) in enumerate(pieces):
        if not (s < e and (k == 0 or pieces[k - 1][1] <= s)):
            raise ValueError("pieces must have positive length, be disjoint and ascend")
    eps = DUST_REL_TOL * max(
        (abs(x) for piece in pieces for x in piece), default=0.0
    )

    need = {p.id: p.bits / rate for p in members}
    by_id = {p.id: p for p in members}
    arrivals = sorted({p.arrival for p in members})
    reach = -np.inf  # every member arriving by then has been admitted

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
            reach = max(reach, t + eps)
            active = [
                p
                for p in members
                if need[p.id] > 0 and p.arrival <= reach
            ]
            if not active:
                raise InternalIdle(f"no transmittable packet at time {t}")
            cur = min(active, key=lambda p: (p.deadline, p.id))
            dur = min(pe - t, need[cur.id])
            if cur.deadline - t < dur - eps:
                raise InternalDeadlineMiss(
                    f"packet {cur.id} cannot finish by its deadline {cur.deadline}"
                )
            i = np.searchsorted(arrivals, reach, side="right")
            if i < len(arrivals) and arrivals[i] < t + dur - eps:
                dur = arrivals[i] - t
            emit(cur.id, t, t + dur)
            need[cur.id] -= dur
            if need[cur.id] <= eps:
                need[cur.id] = 0.0
            t += dur

    leftovers = {pid: v for pid, v in need.items() if v > eps}
    if leftovers:
        raise InternalDeadlineMiss(
            f"packets left unfinished after all pieces: {sorted(leftovers)}"
        )
    return [(s.packet, s.t_start, s.t_end, s.rate) for s in segments]


def tau_from_segments(instance: Instance, decomp, table: SegmentTable) -> np.ndarray:
    """The epoch-time table, one segment and one epoch at a time;
    segments of unknown packets book nothing."""
    segments = segment_list(table)
    grid = np.array(decomp.instants)
    tau = np.zeros((instance.n, decomp.m))
    dust = instance.dust
    for seg in segments:
        if not 1 <= seg.packet <= instance.n:
            continue
        i = seg.packet - 1
        j0 = max(int(np.searchsorted(grid, seg.t_start, side="right")) - 1, 0)
        for j in range(j0, decomp.m):
            lo = max(seg.t_start, grid[j])
            hi = min(seg.t_end, grid[j + 1])
            if hi - lo > dust:
                tau[i, j] += hi - lo
            if grid[j] >= seg.t_end:
                break
    return tau


def schedule_energy(model: PowerModel, rates) -> float:
    """sum(time * f(rate)), with f evaluated for every packet."""
    total = 0.0
    for pid, rate, time in rates:
        if rate < 0:
            raise NegativeRate(f"packet {pid}: rate {rate} is negative")
        if rate == 0:
            raise ZeroRate(f"packet {pid}: rate 0 never finishes")
        if not time > 0:
            raise ValueError(f"packet {pid}: transmission time {time} must be positive")
        power = model.power(rate)
        total += time * power
        if not math.isfinite(total):
            raise NonFiniteEnergy(
                f"packet {pid}: energy is not finite ({time} s at rate {rate}, "
                f"power {power})"
            )
    return total


# Sorted, disjoint interval lists: (start, end) tuples with end > start,
# kept sorted by start.  The caller gives the tolerance in the time unit
# of its intervals: `merge` joins intervals apart by at most `tol`, and
# `subtract` drops pieces no longer than it.


def measure(intervals) -> float:
    return sum(e - s for s, e in intervals)


def merge(intervals, tol: float) -> list[tuple[float, float]]:
    """Sort and coalesce intervals that touch or overlap within tol."""
    if not intervals:
        return []
    ivs = sorted(intervals)
    out = [ivs[0]]
    for s, e in ivs[1:]:
        ps, pe = out[-1]
        if s <= pe + tol:
            out[-1] = (ps, max(pe, e))
        else:
            out.append((s, e))
    return out


def subtract(a, b, tol: float) -> list[tuple[float, float]]:
    """Parts of `a` not covered by `b` (both sorted disjoint)."""
    out = []
    j = 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            hs, he = b[k]
            if hs - cur > tol:
                out.append((cur, hs))
            cur = max(cur, he)
            if cur >= e:
                break
            k += 1
        if e - cur > tol:
            out.append((cur, e))
    return out


def positions(times: np.ndarray, reserved) -> np.ndarray:
    """Positions of instants on the timeline that is left once the
    sorted, disjoint `reserved` pieces are cut out: each instant moves
    left by the reserved time before it, and an instant in a closed
    reserved piece [s_k, e_k] lands exactly where that piece was cut,
    at s_k - c_(k-1), with c_(k-1) the reserved time before the piece.
    So equal cut instants are one float, and positions never descend."""
    times = np.asarray(times, dtype=float)
    if not reserved:
        return times
    starts, ends = np.asarray(reserved, dtype=float).T
    before = np.concatenate(([0.0], np.cumsum(ends - starts)))
    # k[t] pieces start at or before t; t lies in the last of them when
    # it is not past its end
    k = starts.searchsorted(times, "right")
    last = np.maximum(k - 1, 0)
    inside = (k > 0) & (times <= ends[last])
    return np.where(inside, starts[last] - before[last], times - before[k])


def solve(instance: Instance, model: PowerModel) -> Schedule:
    """One round loop over all packets at once: every round scores the
    windows of every still-active packet, whatever its busy period, on
    the matmul `candidate_grid`.  It fills through `scheduler.edf_fill`,
    the name tests patch.  Packets arrive and are due at their grid
    instants, as in `scheduler.solve`; the loop places them on the
    time left free by cutting the reserved intervals out."""
    n = instance.n
    grid = np.array(instance.decomposition.instants)
    lo, hi = instance.decomposition.lo, instance.decomposition.hi
    arrivals, deadlines = grid[lo], grid[hi]
    bits = instance.bits()
    dust = instance.dust
    active = np.ones(n, dtype=bool)
    reserved: list[tuple[float, float]] = []
    steps: list[IterationStep] = []
    segments: list[tuple[int, float, float, float]] = []
    rates = np.zeros(n)

    while active.any():
        idx = np.flatnonzero(active)
        starts, ends, in_start, in_end, rate_grid, valid = candidate_grid(
            positions(arrivals[idx], reserved),
            positions(deadlines[idx], reserved),
            bits[idx],
            instance.time_tol,
        )
        if not valid.any():
            raise NoCandidates(
                "no sub-interval among active packets; windows degenerate"
            )
        si, ei = argmax_lex(rate_grid, valid, starts, ends)
        member_rows = idx[in_start[:, si] & in_end[:, ei]]
        span = (float(arrivals[member_rows].min()), float(deadlines[member_rows].max()))
        pieces = subtract([span], reserved, dust)
        rate = float(bits[member_rows].sum() / measure(pieces))
        members = (
            (member_rows + 1).tolist(), bits[member_rows].tolist(),
            arrivals[member_rows].tolist(), deadlines[member_rows].tolist(),
        )
        segments.extend(scheduler.edf_fill(pieces, members, rate))
        steps.append(
            IterationStep(
                rate=rate,
                members=frozenset(int(r) + 1 for r in member_rows),
                pieces=tuple(pieces),
                candidates=int(valid.sum()),
            )
        )
        rates[member_rows] = rate
        reserved = merge(reserved + pieces, dust)
        active[member_rows] = False

    segments.sort(key=lambda sg: (sg[1], sg[2]))
    table = SegmentTable.from_rows(segments)
    trace = IterationTrace(tuple(steps))
    _check_solution_invariants(instance, trace, table, rates)
    return Schedule(
        rates=rates,
        segments=table,
        energy=schedule_energy(
            model, [(i + 1, rates[i], bits[i] / rates[i]) for i in range(n)]
        ),
        trace=trace,
    )


def project_columns(packed: np.ndarray, caps: np.ndarray, lens: np.ndarray):
    """Batched capped-simplex projection of packed epoch columns, the
    over-cap rows gathered by index even when every row is over.

    packed[c, :lens[c]] holds the allocation of epoch column c; slots
    past lens[c] are padding at a large negative value and project to 0.
    The final rescale guarantees feasibility even when the inputs are
    many orders of magnitude above the caps and theta loses precision.
    """
    clipped = np.clip(packed, 0.0, None)
    sums = clipped.sum(axis=1)
    over = sums > caps
    if not np.any(over):
        return clipped
    rows = np.flatnonzero(over)
    u = -np.sort(-packed[rows], axis=1)  # descending; padding sinks to the end
    cssv = np.cumsum(u, axis=1) - caps[rows, None]
    ks = np.arange(1, packed.shape[1] + 1)[None, :]
    valid = (u - cssv / ks > 0) & (ks <= lens[rows, None])
    k = np.where(valid, ks, 1).max(axis=1)
    theta = cssv[np.arange(len(rows)), k - 1] / k
    proj = np.clip(packed[rows] - theta[:, None], 0.0, None)
    psums = proj.sum(axis=1)
    bad = psums > caps[rows]
    if np.any(bad):
        proj[bad] *= (caps[rows][bad] / psums[bad])[:, None]
    clipped[rows] = proj
    return clipped


def solve_projected_gradient(
    instance: Instance,
    model: PowerModel,
    tol: float = 1e-10,
    max_iters: int = 200_000,
    track_history: bool = False,
) -> OracleSolution:
    """Projected gradient descent with Armijo backtracking, packing and
    unpacking the epoch columns one column at a time.

    Starts from the proportional split (each epoch shared equally among
    its feasible packets), steps along the marginal-energy gradient,
    and projects each epoch column back onto its capped simplex.  Stops
    when an accepted step decreases energy by less than `tol`
    relatively, or at `max_iters` (then flagged unconverged).
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    decomp = decompose(instance)
    n, m = instance.n, decomp.m
    bits = instance.bits()
    lengths = decomp.lengths
    mask = np.zeros((n, m), dtype=bool)
    mask[decomp.pairs()] = True

    live_cols = [j for j in range(m) if mask[:, j].any()]
    col_rows = [np.flatnonzero(mask[:, j]) for j in live_cols]
    nmax = max((len(r) for r in col_rows), default=1)
    pack_rows = np.zeros((len(live_cols), nmax), dtype=int)
    pad = np.zeros((len(live_cols), nmax), dtype=bool)
    lens = np.zeros(len(live_cols), dtype=int)
    caps = np.zeros(len(live_cols))
    for c, (j, rows) in enumerate(zip(live_cols, col_rows)):
        pack_rows[c, : len(rows)] = rows
        pad[c, len(rows):] = True
        lens[c] = len(rows)
        caps[c] = lengths[j]
    live_idx = np.array(live_cols, dtype=int)

    def energy_of(tau: np.ndarray) -> float:
        T = tau.sum(axis=1)
        if np.any(T < TIME_FLOOR):
            return math.inf
        with np.errstate(over="ignore"):
            e = float(np.sum(T * model.power(bits / T)))
        return e

    def project(tau: np.ndarray) -> np.ndarray:
        packed = tau[pack_rows, live_idx[:, None]]
        packed[pad] = -1e300  # finite padding keeps the sort-based rule nan-free
        projected = project_columns(packed, caps, lens)
        out = np.zeros_like(tau)
        for c in range(len(live_cols)):
            out[pack_rows[c, : lens[c]], live_cols[c]] = projected[c, : lens[c]]
        return out

    tau = np.zeros((n, m))
    for c, (j, rows) in enumerate(zip(live_cols, col_rows)):
        tau[rows, j] = lengths[j] / len(rows)

    energy = energy_of(tau)
    history = [energy] if track_history else None
    alpha = 1.0
    iterations = 0
    small_streak = 0

    def gradient(tau: np.ndarray) -> np.ndarray:
        T = np.maximum(tau.sum(axis=1), TIME_FLOOR)
        gvals = np.asarray(model.g(bits / T))
        return np.where(mask, -gvals[:, None], 0.0)

    cap_scale = float(caps.max()) if len(caps) else 1.0
    stalled = False
    while iterations < max_iters:
        grad = gradient(tau)
        # First trial step: adaptive, but never so large that a single
        # step moves an entry further than the biggest epoch.
        gmax = float(np.abs(grad).max())
        alpha = min(1.0, alpha * 2.0, cap_scale / gmax if gmax > 0 else 1.0)
        accepted = False
        for _ in range(200):
            cand = project(tau - alpha * grad)
            cand_energy = energy_of(cand)
            decrease_bound = ARMIJO_C * float(np.sum(grad * (cand - tau)))
            if cand_energy <= energy + decrease_bound:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stalled = True  # no float-visible descent left
            break
        rel_decrease = (energy - cand_energy) / max(abs(cand_energy), 1e-300)
        tau = cand
        energy = cand_energy
        iterations += 1
        if history is not None:
            history.append(energy)
        # Terminate on sustained stalls, not a single slow step.
        small_streak = small_streak + 1 if rel_decrease < tol else 0
        if small_streak >= 5:
            stalled = True
            break

    # Stationarity probe at a step size matched to the gradient scale:
    # a true optimum is a fixed point of the projected step for any
    # step size, while a float-starved stall (one packet's energy term
    # drowning the others) leaves a visible displacement.
    grad = gradient(tau)
    gmax = float(np.abs(grad).max())
    probe = min(1.0, cap_scale / gmax) if gmax > 0 else 1.0
    pg_map = tau - project(tau - probe * grad)
    residual = float(np.abs(pg_map).max() / (1.0 + np.abs(tau).max()))
    converged = stalled and residual <= 1e-6
    T = tau.sum(axis=1)
    rates = np.where(T > 0, bits / np.maximum(T, TIME_FLOOR), np.inf)
    return OracleSolution(
        tau=tau,
        total_times=T,
        rates=rates,
        energy=energy,
        iterations=iterations,
        residual=residual,
        converged=converged,
        energy_history=np.array(history) if history is not None else None,
    )


def generate(config: GeneratorConfig) -> Instance:
    """Draw a random instance, one scalar `rng.uniform` per window end."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lo, hi = config.bits_range
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

    starts, ends = zip(*windows)
    return normalize_columns(list(range(1, config.n + 1)), bits, starts, ends)


def instance_to_json(instance: Instance, noise_power=1.0) -> str:
    """The instance document as `json.dumps(doc, indent=2)` writes it."""
    rows = zip(*(c.tolist() for c in instance.columns))
    doc = {
        "noise_power": noise_power,
        "packets": [
            {"id": i + 1, "bits": b, "arrival": a, "deadline": d}
            for i, (b, a, d) in enumerate(rows)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def non_fifo_ids(instance: Instance) -> set[int]:
    """Ids of packets whose window an earlier-arriving packet's window
    strictly contains, one comparison over all packets per packet."""
    a = instance.arrivals()
    d = instance.deadlines()
    return {i + 1 for i in range(instance.n) if np.any((a < a[i]) & (d > d[i]))}
