"""Loop implementations of the verifier and of the EDF fill.

These are the per-(packet, epoch) Python loops that the vectorized
`txsched.verifier` functions and the heap-based `txsched.scheduler.edf_fill`
replaced, kept as the reference that tests/test_equivalence.py compares
the fast code against: the same violation strings in the same order,
the same condition tuples, bit-identical multipliers and identical
segments.  `decompose_sets` builds the epoch containment relation as
frozenset families, the representation the loops were written for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from txsched.model import TIME_REL_TOL, Instance, Packet
from txsched.power import PowerModel
from txsched.scheduler import (
    _PIECE_EPS,
    InternalDeadlineMiss,
    InternalIdle,
    Schedule,
    Segment,
)
from txsched.verifier import (
    BIT_REL_TOL,
    CERT_TOL,
    POSITIVE_TIME_REL,
    RATE_REL_TOL,
    DimensionMismatch,
    EpochCondition,
    FeasibilityReport,
    InfeasibleInput,
    KKTCertificate,
    NotOptimal,
    VerificationReport,
)


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


def decompose_sets(instance: Instance) -> SetDecomposition:
    """Build the instant grid, epochs, and the C/F set families."""
    raw = np.sort(
        np.concatenate([instance.arrivals(), instance.deadlines()])
    )
    reps: list[float] = []
    for v in raw:
        if not reps or v - reps[-1] > instance.time_tol:
            reps.append(float(v))
    grid = np.array(reps)
    epochs = tuple((reps[j], reps[j + 1]) for j in range(len(reps) - 1))
    m = len(epochs)
    n = instance.n

    # Map a raw instant to its grid index: the grid point at or just
    # below it (the cluster start), which is within the time tolerance.
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


def _positive_sets(
    instance: Instance, decomp: SetDecomposition, tau: np.ndarray, j: int
):
    feas = decomp.packet_sets_per_epoch[j - 1]
    length = decomp.instants[j] - decomp.instants[j - 1]
    thresh = POSITIVE_TIME_REL * length
    pos = frozenset(i for i in feas if tau[i - 1, j - 1] > thresh)
    return pos, frozenset(feas - pos)


def check_feasible(instance: Instance, schedule: Schedule) -> FeasibilityReport:
    """Causality, deadlines, non-overlap, bit conservation, and the
    epoch-allocation constraints, with per-violation detail."""
    decomp = decompose_sets(instance)
    n, m = instance.n, decomp.m
    if schedule.tau.shape != (n, m) or len(schedule.rates) != n:
        raise DimensionMismatch(
            f"expected tau {(n, m)} and {n} rates, "
            f"got {schedule.tau.shape} and {len(schedule.rates)}"
        )
    violations: list[str] = []
    tol = instance.time_tol

    for seg in schedule.segments:
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
        if abs(seg.rate - rate) > RATE_REL_TOL * max(abs(rate), 1.0):
            violations.append(
                f"segment of packet {p.id} runs at {seg.rate}, "
                f"assigned rate is {rate}"
            )

    ordered = sorted(schedule.segments, key=lambda s: (s.t_start, s.t_end))
    for a, b in zip(ordered, ordered[1:]):
        if b.t_start < a.t_end - tol:
            violations.append(
                f"overlap: packets {a.packet} and {b.packet} both transmit "
                f"in [{b.t_start}, {min(a.t_end, b.t_end)}]"
            )

    delivered = np.zeros(n)
    for seg in schedule.segments:
        if 1 <= seg.packet <= n:
            delivered[seg.packet - 1] += seg.duration * seg.rate
    bits = instance.bits()
    for i in range(n):
        if abs(delivered[i] - bits[i]) > BIT_REL_TOL * bits[i]:
            violations.append(
                f"bit conservation: packet {i + 1} delivers {delivered[i]} "
                f"of {bits[i]} bits"
            )

    dust = _PIECE_EPS * instance.horizon
    if np.any(schedule.tau < -dust):
        violations.append("negative epoch allocation in tau")
    for i in range(n):
        c_i = decomp.epoch_sets_per_packet[i]
        for j in range(1, m + 1):
            if j not in c_i and abs(schedule.tau[i, j - 1]) > dust:
                violations.append(
                    f"packet {i + 1} allocated time in epoch {j} outside its window"
                )
        total = schedule.tau[i].sum()
        span = bits[i] / schedule.rates[i] if schedule.rates[i] > 0 else np.inf
        if abs(total - span) > BIT_REL_TOL * max(span, 1.0):
            violations.append(
                f"packet {i + 1} tau total {total} does not match bits/rate {span}"
            )

    lengths = decomp.epoch_lengths()
    for j in range(1, m + 1):
        used = schedule.tau[:, j - 1].sum()
        if used > lengths[j - 1] + tol:
            violations.append(
                f"epoch {j} allocates {used} of its {lengths[j - 1]} seconds"
            )

    return FeasibilityReport(ok=not violations, violations=tuple(violations))


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
    for seg in schedule.segments:
        per_packet.setdefault(seg.packet, []).append(seg.rate)
    constant_rate_ok = True
    for pid, rs in per_packet.items():
        if max(rs) - min(rs) > RATE_REL_TOL * max(rs):
            constant_rate_ok = False

    lengths = decomp.epoch_lengths()
    non_idling: dict[int, bool] = {}
    for j in range(1, decomp.m + 1):
        if not decomp.packet_sets_per_epoch[j - 1]:
            non_idling[j] = True  # no packet can transmit here
            continue
        used = schedule.tau[:, j - 1].sum()
        non_idling[j] = abs(used - lengths[j - 1]) <= instance.time_tol

    rates = schedule.rates
    rmax = float(rates.max()) if len(rates) else 0.0
    conditions = []
    for j in range(1, decomp.m + 1):
        feas_set = decomp.packet_sets_per_epoch[j - 1]
        if not feas_set:
            continue
        pos, zero = _positive_sets(instance, decomp, schedule.tau, j)
        pos_rates = [rates[i - 1] for i in pos]
        equal_ok = True
        common = None
        if pos_rates:
            common = float(max(pos_rates))
            equal_ok = max(pos_rates) - min(pos_rates) <= RATE_REL_TOL * max(pos_rates)
        dominance_ok = True
        if pos_rates and zero:
            lo = min(pos_rates)
            hi = max(rates[k - 1] for k in zero)
            dominance_ok = lo >= hi - RATE_REL_TOL * max(rmax, 1.0)
        conditions.append(
            EpochCondition(
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
            if b > a * (1.0 + RATE_REL_TOL):
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
    elif not abs(recomputed - schedule.energy) <= 1e-9 * max(abs(recomputed), 1.0):
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
) -> KKTCertificate:
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
    for i in range(1, n + 1):
        for j in decomp.epoch_sets_per_packet[i - 1]:
            target = g_rates[i - 1]
            residual = abs(beta[j - 1] - gamma[i - 1, j - 1] - target)
            tol = max(
                CERT_TOL * max(1.0, target),
                2.0 * np.spacing(max(beta[j - 1], 1.0)),
            )
            if residual > tol:
                raise RuntimeError(
                    f"certificate identity failed for packet {i}, epoch {j}: "
                    f"beta - gamma = {beta[j - 1] - gamma[i - 1, j - 1]}, "
                    f"g(rate) = {target}"
                )
            slack = gamma[i - 1, j - 1] * schedule.tau[i - 1, j - 1]
            scale = max(gamma[i - 1, j - 1], 1.0) * max(lengths[j - 1], 1.0)
            if abs(slack) > CERT_TOL * scale:
                raise RuntimeError(
                    f"complementary slackness failed for packet {i}, epoch {j}"
                )
    for j in range(1, m + 1):
        used = schedule.tau[:, j - 1].sum()
        slack = beta[j - 1] * (used - lengths[j - 1])
        if abs(slack) > max(beta[j - 1], 1.0) * instance.time_tol:
            raise RuntimeError(f"epoch {j} capacity slackness failed")
    if np.any(beta < 0) or np.any(gamma < 0):
        raise RuntimeError("multiplier sign constraints failed")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise RuntimeError("non-finite multipliers")
    return KKTCertificate(beta=beta, gamma=gamma, lam=lam)


def edf_fill(pieces, members: list[Packet], rate: float) -> list[Segment]:
    """Earliest-deadline-first fill of disjoint time pieces at one rate.

    Each member transmits bits/rate seconds in total, always the
    arrived, unfinished member with the earliest deadline (ties to the
    lower id).  Idling inside a piece or an unfinished member signal an
    internal bug: the caller only passes windows whose rate makes both
    impossible.  Steps are cut to within _PIECE_EPS relative to the
    largest piece endpoint; arrivals and deadlines are compared to within
    TIME_REL_TOL times the latest member deadline.
    """
    if not members:
        raise ValueError("no members to fill")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    eps = _PIECE_EPS * max([1.0] + [abs(float(x)) for piece in pieces for x in piece])
    tol = TIME_REL_TOL * max(abs(p.deadline) for p in members)
    pieces = [(float(s), float(e)) for s, e in pieces if e - s > eps]
    for (s0, e0), (s1, _) in zip(pieces, pieces[1:]):
        if s1 < e0 - eps:
            raise ValueError("pieces must be disjoint and ascending")

    need = {p.id: p.bits / rate for p in members}
    total_need = sum(need.values())
    need_tol = max(1e-12 * total_need, 1e-15)
    by_id = {p.id: p for p in members}
    arrivals = sorted({p.arrival for p in members})

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
            for p in members:
                if need[p.id] > need_tol and p.deadline < t - tol:
                    raise InternalDeadlineMiss(
                        f"packet {p.id} unfinished at its deadline {p.deadline}"
                    )
            active = [
                p
                for p in members
                if need[p.id] > need_tol and p.arrival <= t + tol
            ]
            if not active:
                raise InternalIdle(f"no transmittable packet at time {t}")
            cur = min(active, key=lambda p: (p.deadline, p.id))
            dur = min(pe - t, need[cur.id])
            if cur.deadline - t < dur - tol:
                dur = max(cur.deadline - t, 0.0)
                if dur <= eps:
                    raise InternalDeadlineMiss(
                        f"packet {cur.id} cannot finish by its deadline {cur.deadline}"
                    )
            i = np.searchsorted(arrivals, t + tol, side="right")
            if i < len(arrivals) and arrivals[i] < t + dur - eps:
                dur = arrivals[i] - t
            emit(cur.id, t, t + dur)
            need[cur.id] -= dur
            if need[cur.id] <= need_tol:
                need[cur.id] = 0.0
            t += dur

    leftovers = {pid: v for pid, v in need.items() if v > need_tol}
    if leftovers:
        raise InternalDeadlineMiss(
            f"packets left unfinished after all pieces: {sorted(leftovers)}"
        )
    return segments
