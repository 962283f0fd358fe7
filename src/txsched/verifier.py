"""Feasibility and optimality checking with multiplier certificates.

A schedule is optimal exactly when it is feasible, gives every packet a
single constant rate, leaves no epoch with transmittable packets idle,
and orders rates correctly inside every epoch: packets sharing an epoch
with positive time have equal rates, and nobody skipped in an epoch is
faster than those transmitting there.  Passing schedules admit
Lagrange multipliers (built from the marginal-energy function g) that
witness optimality of the underlying convex program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .model import Instance, PairTable
from .power import PowerModel
from .scheduler import _PIECE_EPS, Schedule

# Instants, idle time and epoch capacity are compared within the
# instance's `time_tol`; allocation dust within _PIECE_EPS of its horizon.
BIT_REL_TOL = 1e-9
RATE_REL_TOL = 1e-9
POSITIVE_TIME_REL = 1e-9  # tau below this fraction of the epoch counts as zero
CERT_TOL = 1e-8


class DimensionMismatch(ValueError):
    """A schedule's rates do not match the instance's packet count."""


class InfeasibleInput(ValueError):
    """Optimality conditions are only defined for feasible schedules."""


class NotOptimal(ValueError):
    """No certificate exists: the schedule fails the optimality checks."""


@dataclass(frozen=True)
class FeasibilityReport:
    """The feasibility verdict, and `tau`, the epoch-time table booked
    from the schedule's segments (`epoch_times`), which the table checks
    ran on and the optimality conditions and the certificate read."""

    ok: bool
    violations: tuple[str, ...]
    tau: PairTable = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class EpochConditions:
    """The rate-ordering conditions of the live epochs, as arrays.

    Per live epoch, ascending: `epoch`, its number; `n_positive` and
    `n_zero`, how many of its feasible packets have positive and zero
    time there; `equal_ok`, whether the transmitting packets share one
    rate; `dominance_ok`, whether no waiting packet is faster than a
    transmitting one; and `rate`, the fastest transmitting rate, the
    common rate where the epoch passes (-inf where nothing transmits).

    Per feasible (packet, epoch) pair, in `decomp.pairs()` order: the
    0-based `rows` and `cols`, the packet's `times` in the epoch, and
    `positive`, whether that time exceeds POSITIVE_TIME_REL of the epoch.
    """

    epoch: np.ndarray
    n_positive: np.ndarray
    n_zero: np.ndarray
    equal_ok: np.ndarray
    dominance_ok: np.ndarray
    rate: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    times: np.ndarray
    positive: np.ndarray

    def failed(self) -> list[int]:
        """Numbers of the epochs whose conditions fail, ascending."""
        return self.epoch[~(self.equal_ok & self.dominance_ok)].tolist()

    def common_rates(self) -> dict[int, float]:
        """Epoch column -> common rate, over the epochs that transmit."""
        on = self.n_positive > 0
        return dict(zip((self.epoch[on] - 1).tolist(), self.rate[on].tolist()))

    def members(self, epoch: int) -> tuple[frozenset[int], frozenset[int]]:
        """Ids of the packets feasible in epoch number `epoch` with
        positive time there, and with zero time."""
        here = self.cols == epoch - 1
        ids, positive = self.rows[here] + 1, self.positive[here]
        return frozenset(ids[positive].tolist()), frozenset(ids[~positive].tolist())

    def __eq__(self, other):
        if not isinstance(other, EpochConditions):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True)
class VerificationReport:
    feasible: FeasibilityReport
    constant_rate_ok: bool
    non_idling_ok: dict[int, bool]
    epoch_rate_conditions: EpochConditions
    monotone_iteration_rates_ok: bool | None
    optimal: bool
    warnings: tuple[str, ...] = field(default=())


def _per_epoch(ufunc, fill: float, cols: np.ndarray, values: np.ndarray, m: int):
    """ufunc-reduce `values` into their epoch columns; `fill` where none."""
    out = np.full(m, fill)
    ufunc.at(out, cols, values)
    return out


def _flagged(flags: np.ndarray) -> list[int]:
    """Indices of the set flags, in order."""
    return np.flatnonzero(flags).tolist()


def epoch_times(instance: Instance, schedule: Schedule) -> PairTable:
    """tau, the schedule's time per (packet, epoch), booked from its
    segments: each segment adds its overlap with every epoch it meets,
    in segment order.  Segments of unknown packets book nothing;
    `check_feasible` names them."""
    decomp = instance.decomposition
    grid = np.array(decomp.instants)
    segments = [seg for seg in schedule.segments if 1 <= seg.packet <= instance.n]
    rows = np.array([seg.packet - 1 for seg in segments], dtype=np.intp)
    t0 = np.array([seg.t_start for seg in segments], dtype=float)
    t1 = np.array([seg.t_end for seg in segments], dtype=float)
    # a segment meets the epochs from the one holding its start up to,
    # not including, the first whose left instant reaches its end
    first = np.maximum(np.searchsorted(grid, t0, side="right") - 1, 0)
    count = np.maximum(
        np.minimum(np.searchsorted(grid, t1, side="left"), decomp.m) - first, 0
    )
    seg = np.repeat(np.arange(len(segments)), count)
    cols = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    overlap = np.minimum(t1[seg], grid[cols + 1]) - np.maximum(t0[seg], grid[cols])
    # sub-dust overlaps are float artifacts of segments touching an
    # epoch boundary, not allocations
    keep = overlap > _PIECE_EPS * instance.horizon
    m = decomp.m
    cells, where = np.unique(rows[seg[keep]] * m + cols[keep], return_inverse=True)
    values = np.zeros(len(cells))
    np.add.at(values, where, overlap[keep])
    return PairTable(cells // m, cells % m, values, (instance.n, m))


def check_feasible(instance: Instance, schedule: Schedule) -> FeasibilityReport:
    """Causality, deadlines, non-overlap, bit conservation, and the
    epoch-allocation constraints on the table booked from the segments,
    with per-violation detail."""
    decomp = instance.decomposition
    n = instance.n
    if len(schedule.rates) != n:
        raise DimensionMismatch(f"expected {n} rates, got {len(schedule.rates)}")
    violations: list[str] = []
    segments = schedule.segments
    bits = instance.bits()
    tol = instance.time_tol

    seg_packet = np.array([s.packet for s in segments], dtype=np.int64)
    seg_start = np.array([s.t_start for s in segments], dtype=float)
    seg_end = np.array([s.t_end for s in segments], dtype=float)
    seg_rate = np.array([s.rate for s in segments], dtype=float)
    known = (seg_packet >= 1) & (seg_packet <= n)
    row = np.where(known, seg_packet - 1, 0)
    assigned = schedule.rates[row]
    early = seg_start < instance.arrivals()[row] - tol
    late = seg_end > instance.deadlines()[row] + tol
    empty = ~(seg_end > seg_start)
    off_rate = np.abs(seg_rate - assigned) > RATE_REL_TOL * np.abs(assigned)
    for k in _flagged(~known | early | late | empty | off_rate):
        seg = segments[k]
        if not known[k]:
            violations.append(f"segment references unknown packet {seg.packet}")
            continue
        p = instance.packets[seg.packet - 1]
        if early[k]:
            violations.append(
                f"causality: packet {p.id} transmits at {seg.t_start} "
                f"before its arrival {p.arrival}"
            )
        if late[k]:
            violations.append(
                f"deadline: packet {p.id} transmits until {seg.t_end} "
                f"past its deadline {p.deadline}"
            )
        if empty[k]:
            violations.append(f"segment of packet {p.id} has non-positive length")
        if off_rate[k]:
            violations.append(
                f"segment of packet {p.id} runs at {seg.rate}, "
                f"assigned rate is {assigned[k]}"
            )

    order = np.lexsort((seg_end, seg_start))
    overlap = seg_start[order[1:]] < seg_end[order[:-1]] - tol
    for k in _flagged(overlap):
        a, b = segments[order[k]], segments[order[k + 1]]
        violations.append(
            f"overlap: packets {a.packet} and {b.packet} both transmit "
            f"in [{b.t_start}, {min(a.t_end, b.t_end)}]"
        )

    delivered = np.bincount(
        seg_packet[known] - 1,
        weights=(seg_end[known] - seg_start[known]) * seg_rate[known],
        minlength=n,
    )
    for i in _flagged(np.abs(delivered - bits) > BIT_REL_TOL * bits):
        violations.append(
            f"bit conservation: packet {i + 1} delivers {delivered[i]} "
            f"of {bits[i]} bits"
        )

    # A segment outside its window books time outside it, and
    # overlapping ones overfill an epoch.
    tau = epoch_times(instance, schedule)
    dust = _PIECE_EPS * instance.horizon
    if np.any(tau.values < -dust):
        violations.append("negative epoch allocation in tau")
    outside = (np.abs(tau.values) > dust) & (
        decomp.pair_positions(tau.rows, tau.cols) < 0
    )
    totals = tau.row_sums()
    rates = schedule.rates
    with np.errstate(divide="ignore", invalid="ignore"):
        span = np.where(rates > 0, bits / rates, np.inf)
    # A total may also miss the sub-dust overlaps the table leaves out.
    mismatch = np.abs(totals - span) > np.maximum(BIT_REL_TOL * span, dust)
    outside_by_row: dict[int, list[int]] = {}
    for i, j in zip(tau.rows[outside].tolist(), tau.cols[outside].tolist()):
        outside_by_row.setdefault(i, []).append(j)
    for i in sorted(outside_by_row.keys() | set(_flagged(mismatch))):
        for j in outside_by_row.get(i, ()):
            violations.append(
                f"packet {i + 1} allocated time in epoch {j + 1} outside its window"
            )
        if mismatch[i]:
            violations.append(
                f"packet {i + 1} tau total {totals[i]} does not match "
                f"bits/rate {span[i]}"
            )

    lengths = decomp.epoch_lengths()
    used = tau.col_sums()
    for j in _flagged(used > lengths + tol):
        violations.append(
            f"epoch {j + 1} allocates {used[j]} of its {lengths[j]} seconds"
        )

    return FeasibilityReport(not violations, tuple(violations), tau)


def check_optimality(
    instance: Instance, schedule: Schedule, model: PowerModel
) -> VerificationReport:
    """The necessary-and-sufficient optimality conditions.

    Raises InfeasibleInput when the schedule is not feasible; otherwise
    reports each condition and their conjunction.
    """
    decomp = instance.decomposition
    feas = check_feasible(instance, schedule)
    if not feas.ok:
        raise InfeasibleInput(
            "schedule is infeasible: " + "; ".join(feas.violations[:5])
        )
    n, m = instance.n, decomp.m
    warnings: list[str] = []

    arrivals = instance.arrivals()
    if len(np.unique(arrivals)) < n:
        warnings.append(
            "instance has packets with equal arrival instants; the theory "
            "assumes strictly increasing arrivals but never uses strictness"
        )

    # Feasibility has checked that every segment names a known packet.
    seg_row = np.array([s.packet - 1 for s in schedule.segments], dtype=np.int64)
    seg_rate = np.array([s.rate for s in schedule.segments], dtype=float)
    fastest = np.full(n, -np.inf)
    slowest = np.full(n, np.inf)
    np.maximum.at(fastest, seg_row, seg_rate)
    np.minimum.at(slowest, seg_row, seg_rate)
    # a packet without segments reads -inf - inf > -inf, which is False
    constant_rate_ok = not np.any(fastest - slowest > RATE_REL_TOL * fastest)

    lengths = decomp.epoch_lengths()
    coverage = decomp.coverage()
    live = coverage > 0
    used = feas.tau.col_sums()
    idle_ok = ~live | (np.abs(used - lengths) <= instance.time_tol)
    non_idling = dict(enumerate(idle_ok.tolist(), start=1))

    rates = schedule.rates
    rmax = float(rates.max()) if len(rates) else 0.0
    # Per-epoch rate extremes of the positive and of the zero pairs.
    rows, cols = decomp.pairs()
    times = feas.tau.on_pairs(decomp)
    pos = times > POSITIVE_TIME_REL * lengths[cols]
    zero = ~pos
    pos_cols, zero_cols = cols[pos], cols[zero]
    pos_rate, zero_rate = rates[rows[pos]], rates[rows[zero]]
    n_pos = np.bincount(pos_cols, minlength=m)
    n_zero = coverage - n_pos
    pos_max = _per_epoch(np.maximum, -np.inf, pos_cols, pos_rate, m)
    pos_min = _per_epoch(np.minimum, np.inf, pos_cols, pos_rate, m)
    zero_max = _per_epoch(np.maximum, -np.inf, zero_cols, zero_rate, m)
    equal_ok = (n_pos == 0) | (pos_max - pos_min <= RATE_REL_TOL * pos_max)
    dominance_ok = (n_pos == 0) | (n_zero == 0) | (
        pos_min >= zero_max - RATE_REL_TOL * rmax
    )

    conditions = EpochConditions(
        np.flatnonzero(live) + 1,
        *(a[live] for a in (n_pos, n_zero, equal_ok, dominance_ok, pos_max)),
        rows, cols, times, pos,
    )

    monotone: bool | None = None
    if schedule.trace is not None and schedule.trace.steps:
        monotone = True
        rs = schedule.trace.rates()
        for a, b in zip(rs, rs[1:]):
            if b > a * (1.0 + RATE_REL_TOL):
                monotone = False

    # f is evaluated once per distinct rate; the terms add up in packet order.
    power_of = {r: model.power(r) for r in set(rates[rates > 0].tolist())}
    recomputed = 0.0
    for b, r in zip(instance.bits().tolist(), rates.tolist()):
        if r > 0:
            recomputed += b / r * power_of[r]
    if not np.isfinite(recomputed):
        warnings.append(
            f"recomputed energy {recomputed} is not finite (stored {schedule.energy})"
        )
    elif not abs(recomputed - schedule.energy) <= 1e-9 * abs(recomputed):
        warnings.append(
            f"stored energy {schedule.energy} differs from recomputed {recomputed}"
        )

    optimal = (
        feas.ok
        and constant_rate_ok
        and all(non_idling.values())
        and not conditions.failed()
        and (monotone is None or monotone)
    )
    return VerificationReport(
        feasible=feas,
        constant_rate_ok=constant_rate_ok,
        non_idling_ok=non_idling,
        epoch_rate_conditions=conditions,
        monotone_iteration_rates_ok=monotone,
        optimal=optimal,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class KKTCertificate:
    """Multipliers witnessing optimality.

    beta[j-1] prices epoch j's time; gamma[i-1, j-1] prices packet i's
    zero allocation in epoch j, and is held on the waiting pairs only
    (zero time in an epoch where others transmit); lam[i-1] prices
    packet i's bit constraint.  The rates' own multipliers are
    identically 0, because optimal rates are positive, and are not
    stored.  The defining identity is rate_i = g_inverse(beta_j -
    gamma_ij) for every epoch j in packet i's window.
    """

    beta: np.ndarray
    gamma: PairTable
    lam: np.ndarray


def extract_certificate(
    instance: Instance, schedule: Schedule, model: PowerModel
) -> KKTCertificate:
    """Construct and validate the multipliers of an optimal schedule."""
    decomp = instance.decomposition
    report = check_optimality(instance, schedule, model)
    if not report.optimal:
        failed = []
        if not report.constant_rate_ok:
            failed.append("constant-rate")
        failed.extend(
            f"idle epoch {j}" for j, ok in report.non_idling_ok.items() if not ok
        )
        failed.extend(
            f"epoch {j} rate conditions" for j in report.epoch_rate_conditions.failed()
        )
        if report.monotone_iteration_rates_ok is False:
            failed.append("iteration-rate monotonicity")
        raise NotOptimal("schedule fails optimality conditions: " + ", ".join(failed))

    n, m = instance.n, decomp.m
    rates = schedule.rates
    if np.any(rates <= 0):
        raise NotOptimal("certificate requires strictly positive rates")
    # Rates take one value per solver round, so g is evaluated per value.
    common = report.epoch_rate_conditions.common_rates()
    rate_list = rates.tolist()
    g_of = {r: model.g(r) for r in set(rate_list) | set(common.values())}
    g_rates = np.array([g_of[r] for r in rate_list])

    # An epoch without transmission keeps beta 0: its cap is slack.
    beta = np.zeros(m)
    for col, r in common.items():
        beta[col] = g_of[r]
    conditions = report.epoch_rate_conditions
    rows, cols, positive = conditions.rows, conditions.cols, conditions.positive
    transmitting = np.bincount(cols[positive], minlength=m) > 0
    waiting = ~positive & transmitting[cols]
    target = g_rates[rows]
    pair_beta = beta[cols]
    pair_gamma = np.where(waiting, np.maximum(pair_beta - target, 0.0), 0.0)
    gamma = PairTable(rows[waiting], cols[waiting], pair_gamma[waiting], (n, m))

    lam = g_rates.copy()

    # Validate the construction before handing it out.  The defining
    # identity rate = g_inverse(beta - gamma) is checked through g
    # (g is a monotone bijection, so the statements are equivalent):
    # evaluating the subtraction directly would lose the small g(rate)
    # under beta's float quantum whenever the epoch's common rate is
    # much faster, so the residual is measured additively at beta's
    # scale instead.  Pairs are checked in packet order, then epoch order.
    # The tolerance is the larger of CERT_TOL relative to g(rate) and two
    # quanta of beta; the quanta are only taken where the first is exceeded.
    lengths = decomp.epoch_lengths()
    residual = np.abs(pair_beta - pair_gamma - target)
    identity_bad = residual > CERT_TOL * np.maximum(1.0, target)
    suspect = np.flatnonzero(identity_bad)
    identity_bad[suspect] = residual[suspect] > 2.0 * np.spacing(
        np.maximum(pair_beta[suspect], 1.0)
    )
    slack = pair_gamma * conditions.times
    scale = np.maximum(pair_gamma, 1.0) * lengths[cols]
    slack_bad = np.abs(slack) > CERT_TOL * scale
    bad = _flagged(identity_bad | slack_bad)
    if bad:
        k = bad[0]
        i, j = int(rows[k]) + 1, int(cols[k]) + 1
        if identity_bad[k]:
            raise RuntimeError(
                f"certificate identity failed for packet {i}, epoch {j}: "
                f"beta - gamma = {pair_beta[k] - pair_gamma[k]}, "
                f"g(rate) = {target[k]}"
            )
        raise RuntimeError(f"complementary slackness failed for packet {i}, epoch {j}")
    cap_slack = beta * (report.feasible.tau.col_sums() - lengths)
    bad = _flagged(np.abs(cap_slack) > np.maximum(beta, 1.0) * instance.time_tol)
    if bad:
        raise RuntimeError(f"epoch {bad[0] + 1} capacity slackness failed")
    if np.any(beta < 0) or np.any(gamma.values < 0):
        raise RuntimeError("multiplier sign constraints failed")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma.values))):
        raise RuntimeError("non-finite multipliers")
    return KKTCertificate(beta=beta, gamma=gamma, lam=lam)
