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

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import EpochDecomposition, Instance, PairTable
from .power import PowerModel
from .scheduler import _PIECE_EPS, Schedule

# Instants, idle time and epoch capacity are compared within the
# instance's `time_tol`; allocation dust within _PIECE_EPS of its horizon.
BIT_REL_TOL = 1e-9
RATE_REL_TOL = 1e-9
POSITIVE_TIME_REL = 1e-9  # tau below this fraction of the epoch counts as zero
CERT_TOL = 1e-8


class DimensionMismatch(ValueError):
    """Schedule arrays do not match the instance's packet/epoch counts."""


class InfeasibleInput(ValueError):
    """Optimality conditions are only defined for feasible schedules."""


class NotOptimal(ValueError):
    """No certificate exists: the schedule fails the optimality checks."""


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class PairTimes:
    """A schedule's time at every feasible (packet, epoch) pair.

    rows, cols and tau follow `decomp.pairs()`: packet-major, epochs
    ascending within a packet.  `positive` marks the pairs whose time
    counts as positive, POSITIVE_TIME_REL of the epoch or more.
    """

    decomp: EpochDecomposition
    rows: np.ndarray
    cols: np.ndarray
    tau: np.ndarray
    positive: np.ndarray

    def members(self, col: int, positive: bool) -> frozenset[int]:
        """Ids of the packets feasible in epoch column `col` whose time
        there is positive, or zero."""
        rows = np.arange(len(self.decomp.lo))
        pos = self.decomp.pair_positions(rows, np.full(len(rows), col))
        rows, pos = rows[pos >= 0], pos[pos >= 0]
        return frozenset((rows[self.positive[pos] == positive] + 1).tolist())


def _pair_times(decomp: EpochDecomposition, tau: PairTable) -> PairTimes:
    rows, cols = decomp.pairs()
    values = tau.on_pairs(decomp)
    positive = values > POSITIVE_TIME_REL * decomp.epoch_lengths()[cols]
    return PairTimes(decomp, rows, cols, values, positive)


@dataclass(frozen=True)
class EpochCondition:
    """Rate-ordering conditions for one epoch.

    The packets feasible here split into those with positive time
    (`positive`) and those with zero time (`zero`); the report keeps
    their counts, and the member sets are built when asked for.
    """

    epoch: int
    n_positive: int
    n_zero: int
    equal_rates_ok: bool
    dominance_ok: bool
    common_rate: float | None
    pairs: PairTimes = field(compare=False, repr=False)

    @property
    def positive(self) -> frozenset[int]:
        """Packets with positive time here."""
        return self.pairs.members(self.epoch - 1, True)

    @property
    def zero(self) -> frozenset[int]:
        """Feasible packets with zero time here."""
        return self.pairs.members(self.epoch - 1, False)


class EpochConditions(Sequence):
    """The live epochs' rate-ordering conditions, in epoch order.

    They are held as arrays over the live epochs: `cols` (ascending),
    the counts, both flags and `rate`, the fastest transmitting rate,
    which is the common rate where anything transmits.  `optimal` and
    the certificate read the arrays; the `EpochCondition` objects are
    built when the sequence is first read.  Equal to a tuple of the
    same conditions.
    """

    def __init__(self, cols, n_positive, n_zero, equal_ok, dominance_ok, rate, pairs):
        self.cols = cols
        self.n_positive = n_positive
        self.n_zero = n_zero
        self.equal_ok = equal_ok
        self.dominance_ok = dominance_ok
        self.rate = rate
        self._pairs = pairs
        self._built: tuple[EpochCondition, ...] | None = None

    def failed(self) -> list[int]:
        """Numbers of the epochs whose conditions fail, ascending."""
        return (self.cols[~(self.equal_ok & self.dominance_ok)] + 1).tolist()

    def common_rates(self) -> dict[int, float]:
        """Epoch column -> common rate, over the epochs that transmit."""
        on = self.n_positive > 0
        return dict(zip(self.cols[on].tolist(), self.rate[on].tolist()))

    def _conditions(self) -> tuple[EpochCondition, ...]:
        if self._built is None:
            per_epoch = (
                self.n_positive, self.n_zero, self.equal_ok, self.dominance_ok, self.rate
            )
            self._built = tuple(
                EpochCondition(col + 1, n_p, n_z, eq, dom, r if n_p else None, self._pairs)
                for col, n_p, n_z, eq, dom, r in zip(
                    self.cols.tolist(), *(a.tolist() for a in per_epoch)
                )
            )
        return self._built

    def __len__(self) -> int:
        return len(self.cols)

    def __getitem__(self, k):
        return self._conditions()[k]

    def __iter__(self):
        return iter(self._conditions())

    def __eq__(self, other):
        if not isinstance(other, (tuple, EpochConditions)):
            return NotImplemented
        return self._conditions() == tuple(other)

    def __repr__(self) -> str:
        return repr(self._conditions())


@dataclass(frozen=True)
class VerificationReport:
    feasible: FeasibilityReport
    constant_rate_ok: bool
    non_idling_ok: dict[int, bool]
    epoch_rate_conditions: EpochConditions
    monotone_iteration_rates_ok: bool | None
    optimal: bool
    warnings: tuple[str, ...] = field(default=())
    # the pair times the conditions were checked on
    pairs: PairTimes | None = field(default=None, compare=False, repr=False)


def _per_epoch(ufunc, fill: float, cols: np.ndarray, values: np.ndarray, m: int):
    """ufunc-reduce `values` into their epoch columns; `fill` where none."""
    out = np.full(m, fill)
    ufunc.at(out, cols, values)
    return out


def _flagged(flags: np.ndarray) -> list[int]:
    """Indices of the set flags, in order."""
    return np.flatnonzero(flags).tolist()


def check_feasible(instance: Instance, schedule: Schedule) -> FeasibilityReport:
    """Causality, deadlines, non-overlap, bit conservation, and the
    epoch-allocation constraints, with per-violation detail."""
    decomp = instance.decomposition
    n, m = instance.n, decomp.m
    if schedule.tau.shape != (n, m) or len(schedule.rates) != n:
        raise DimensionMismatch(
            f"expected tau {(n, m)} and {n} rates, "
            f"got {schedule.tau.shape} and {len(schedule.rates)}"
        )
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
    off_rate = np.abs(seg_rate - assigned) > RATE_REL_TOL * np.maximum(
        np.abs(assigned), 1.0
    )
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

    # Only the table's cells can be negative or lie outside a window.
    tau = schedule.tau
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

    return FeasibilityReport(ok=not violations, violations=tuple(violations))


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
    used = schedule.tau.col_sums()
    idle_ok = ~live | (np.abs(used - lengths) <= instance.time_tol)
    non_idling = dict(enumerate(idle_ok.tolist(), start=1))

    rates = schedule.rates
    rmax = float(rates.max()) if len(rates) else 0.0
    # Per-epoch rate extremes of the positive and of the zero pairs.
    pairs = _pair_times(decomp, schedule.tau)
    pos, zero = pairs.positive, ~pairs.positive
    pos_cols, zero_cols = pairs.cols[pos], pairs.cols[zero]
    pos_rate, zero_rate = rates[pairs.rows[pos]], rates[pairs.rows[zero]]
    n_pos = np.bincount(pos_cols, minlength=m)
    n_zero = coverage - n_pos
    pos_max = _per_epoch(np.maximum, -np.inf, pos_cols, pos_rate, m)
    pos_min = _per_epoch(np.minimum, np.inf, pos_cols, pos_rate, m)
    zero_max = _per_epoch(np.maximum, -np.inf, zero_cols, zero_rate, m)
    equal_ok = (n_pos == 0) | (pos_max - pos_min <= RATE_REL_TOL * pos_max)
    dominance_ok = (n_pos == 0) | (n_zero == 0) | (
        pos_min >= zero_max - RATE_REL_TOL * max(rmax, 1.0)
    )

    conditions = EpochConditions(
        np.flatnonzero(live),
        *(a[live] for a in (n_pos, n_zero, equal_ok, dominance_ok, pos_max)),
        pairs,
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
    elif not abs(recomputed - schedule.energy) <= 1e-9 * max(abs(recomputed), 1.0):
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
        pairs=pairs,
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
    pairs = report.pairs
    rows, cols, positive = pairs.rows, pairs.cols, pairs.positive
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
    slack = pair_gamma * pairs.tau
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
    cap_slack = beta * (schedule.tau.col_sums() - lengths)
    bad = _flagged(np.abs(cap_slack) > np.maximum(beta, 1.0) * instance.time_tol)
    if bad:
        raise RuntimeError(f"epoch {bad[0] + 1} capacity slackness failed")
    if np.any(beta < 0) or np.any(gamma.values < 0):
        raise RuntimeError("multiplier sign constraints failed")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma.values))):
        raise RuntimeError("non-finite multipliers")
    return KKTCertificate(beta=beta, gamma=gamma, lam=lam)
