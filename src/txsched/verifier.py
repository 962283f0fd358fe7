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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import CERT_TOL, REL_TOL, EpochDecomposition, Instance, PairTable, _read_only, bits_mismatch
from .power import PowerModel, per_distinct_rate
from .scheduler import Schedule


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

    `cells` holds the transmitting pairs: the booked (packet, epoch)
    cells whose time exceeds REL_TOL of the epoch.  Every other pair in
    the decomposition's epoch ranges has zero time, so the members of an
    epoch and the waiting pairs follow from `cells` and `decomp` without
    a list of all feasible pairs.
    """

    epoch: np.ndarray
    n_positive: np.ndarray
    n_zero: np.ndarray
    equal_ok: np.ndarray
    dominance_ok: np.ndarray
    rate: np.ndarray
    cells: PairTable = field(repr=False)
    decomp: EpochDecomposition = field(repr=False)

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
        col = epoch - 1
        lo, hi = self.decomp.lo, self.decomp.hi
        feasible = frozenset((np.flatnonzero((lo <= col) & (col < hi)) + 1).tolist())
        positive = frozenset((self.cells.rows[self.cells.cols == col] + 1).tolist())
        return positive, feasible - positive

    @cached_property
    def transmitting(self) -> np.ndarray:
        """Per epoch column, whether some packet has positive time there."""
        out = np.zeros(self.decomp.m, dtype=bool)
        out[self.cells.cols] = True
        return _read_only(out)

    def waiting(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Whether each (packet row, epoch column) pair waits: the epoch
        is in the packet's range and others transmit there, but it does
        not."""
        return (
            (cols >= self.decomp.lo[rows])
            & (cols < self.decomp.hi[rows])
            & self.transmitting[cols]
            & (self.cells.at(rows, cols) == 0)
        )

    def __eq__(self, other):
        if not isinstance(other, EpochConditions):
            return NotImplemented

        def arrays(c):
            return (c.epoch, c.n_positive, c.n_zero, c.equal_ok, c.dominance_ok, c.rate,
                    c.cells.rows, c.cells.cols, c.cells.values)

        return self.decomp == other.decomp and all(
            map(np.array_equal, arrays(self), arrays(other))
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


def _range_max(lo: np.ndarray, hi: np.ndarray, values: np.ndarray, m: int):
    """out[c] = the largest values[i] over the ranges [lo[i], hi[i]) that
    hold column c; -inf where none does.

    A sparse table: a range of length L >= 2^k is the union of its two
    blocks of length 2^k, at lo and at hi - 2^k, so each range enters
    level k at both; each level then passes its maxima down to the two
    halves of its blocks.  NaN propagates like np.maximum's.
    """
    length = hi - lo
    keep = length > 0
    lo, hi, values = lo[keep], hi[keep], values[keep]
    level = np.frexp(length[keep])[1] - 1  # floor(log2(length)), exactly
    table = np.full((int(level.max(initial=0)) + 1, m), -np.inf)
    np.maximum.at(table, (level, lo), values)
    np.maximum.at(table, (level, hi - (1 << level)), values)
    for k in range(len(table) - 1, 0, -1):
        half = 1 << (k - 1)
        np.maximum(table[k - 1], table[k], out=table[k - 1])
        np.maximum(table[k - 1, half:], table[k, : m - half], out=table[k - 1, half:])
    return table[0]


def _flagged(flags: np.ndarray) -> list[int]:
    """Indices of the set flags, in order."""
    return np.flatnonzero(flags).tolist()


def epoch_times(instance: Instance, schedule: Schedule) -> PairTable:
    """tau, the schedule's time per (packet, epoch), booked from its
    segments: each segment adds its overlap with every epoch it meets,
    in segment order.  Segments of unknown packets book nothing;
    `check_feasible` names them."""
    decomp = instance.decomposition
    grid = decomp.instants
    segments = schedule.segments
    known = (segments.packet >= 1) & (segments.packet <= instance.n)
    rows = segments.packet[known] - 1
    t0, t1 = segments.start[known], segments.end[known]
    # a segment meets the epochs from the one holding its start up to,
    # not including, the first whose left instant reaches its end
    first = np.maximum(np.searchsorted(grid, t0, side="right") - 1, 0)
    count = np.maximum(
        np.minimum(np.searchsorted(grid, t1, side="left"), decomp.m) - first, 0
    )
    seg = np.repeat(np.arange(len(rows)), count)
    cols = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    overlap = np.minimum(t1[seg], grid[cols + 1]) - np.maximum(t0[seg], grid[cols])
    # sub-dust overlaps are float artifacts of segments touching an
    # epoch boundary, not allocations
    keep = overlap > instance.dust
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
    seg = schedule.segments
    bits = instance.bits()
    tol = instance.time_tol

    known = (seg.packet >= 1) & (seg.packet <= n)
    row = np.where(known, seg.packet - 1, 0)
    assigned = schedule.rates[row]
    arrival, deadline = instance.arrivals()[row], instance.deadlines()[row]
    early = seg.start < arrival - tol
    late = seg.end > deadline + tol
    empty = ~(seg.end > seg.start)
    off_rate = ~(np.abs(seg.rate - assigned) <= REL_TOL * np.abs(assigned))
    for k in _flagged(~known | early | late | empty | off_rate):
        pid, start, end = int(seg.packet[k]), float(seg.start[k]), float(seg.end[k])
        if not known[k]:
            violations.append(f"segment references unknown packet {pid}")
            continue
        if early[k]:
            violations.append(
                f"causality: packet {pid} transmits at {start} "
                f"before its arrival {float(arrival[k])}"
            )
        if late[k]:
            violations.append(
                f"deadline: packet {pid} transmits until {end} "
                f"past its deadline {float(deadline[k])}"
            )
        if empty[k]:
            violations.append(f"segment of packet {pid} has non-positive length")
        if off_rate[k]:
            violations.append(
                f"segment of packet {pid} runs at {float(seg.rate[k])}, "
                f"assigned rate is {assigned[k]}"
            )

    order = np.lexsort((seg.end, seg.start))
    overlap = seg.start[order[1:]] < seg.end[order[:-1]] - tol
    for k in _flagged(overlap):
        a, b = order[k], order[k + 1]
        violations.append(
            f"overlap: packets {seg.packet[a]} and {seg.packet[b]} both transmit "
            f"in [{float(seg.start[b])}, {float(min(seg.end[a], seg.end[b]))}]"
        )

    delivered = np.bincount(
        seg.packet[known] - 1,
        weights=(seg.end[known] - seg.start[known]) * seg.rate[known],
        minlength=n,
    )
    for i in _flagged(bits_mismatch(delivered, bits, schedule.rates, instance.dust)):
        violations.append(
            f"bit conservation: packet {i + 1} delivers {delivered[i]} "
            f"of {bits[i]} bits"
        )

    # A segment outside its window books time outside it, and
    # overlapping ones overfill an epoch.
    tau = epoch_times(instance, schedule)
    outside = (tau.cols < decomp.lo[tau.rows]) | (tau.cols >= decomp.hi[tau.rows])
    totals = tau.row_sums()
    rates = schedule.rates
    with np.errstate(divide="ignore", invalid="ignore"):
        span = np.where(rates > 0, bits / rates, np.inf)
    # A total may also miss the sub-dust overlaps the table leaves out.
    mismatch = ~(np.abs(totals - span) <= np.maximum(REL_TOL * span, instance.dust))
    # Packet by packet: its epochs outside the window, then its total,
    # filed under epoch column m, past every epoch.
    notes = [
        (i, j, f"packet {i + 1} allocated time in epoch {j + 1} outside its window")
        for i, j in zip(tau.rows[outside].tolist(), tau.cols[outside].tolist())
    ] + [
        (i, decomp.m, f"packet {i + 1} tau total {totals[i]} does not match bits/rate {span[i]}")
        for i in _flagged(mismatch)
    ]
    violations += [note for _, _, note in sorted(notes)]

    lengths = decomp.lengths
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

    if len(np.unique(instance.arrivals())) < n:
        warnings.append(
            "instance has packets with equal arrival instants; the theory "
            "assumes strictly increasing arrivals but never uses strictness"
        )

    # Feasibility has checked that every segment names a known packet.
    seg = schedule.segments
    fastest = np.full(n, -np.inf)
    slowest = np.full(n, np.inf)
    np.maximum.at(fastest, seg.packet - 1, seg.rate)
    np.minimum.at(slowest, seg.packet - 1, seg.rate)
    # a packet without segments reads -inf - inf > -inf, which is False
    constant_rate_ok = not np.any(fastest - slowest > REL_TOL * fastest)

    lengths = decomp.lengths
    live = decomp.coverage > 0
    used = feas.tau.col_sums()
    idle_ok = ~live | (np.abs(used - lengths) <= instance.time_tol)
    non_idling = dict(enumerate(idle_ok.tolist(), start=1))

    rates = schedule.rates
    # The transmitting pairs are the booked cells above the threshold;
    # every other feasible pair has zero time.
    tau = feas.tau
    pos = tau.values > REL_TOL * lengths[tau.cols]
    cells = PairTable(tau.rows[pos], tau.cols[pos], tau.values[pos], tau.shape)
    pos_rate = rates[cells.rows]
    n_pos = np.bincount(cells.cols, minlength=m)
    n_zero = decomp.coverage - n_pos
    pos_max = _per_epoch(np.maximum, -np.inf, cells.cols, pos_rate, m)
    pos_min = _per_epoch(np.minimum, np.inf, cells.cols, pos_rate, m)
    equal_ok = (n_pos == 0) | (pos_max - pos_min <= REL_TOL * pos_max)
    # No waiting packet outruns the slowest transmitting one where no
    # feasible packet does.  Elsewhere the fastest feasible packet may be
    # a transmitting one, so those epochs take their waiting maximum from
    # their own pairs.
    dominance_ok = (n_pos == 0) | (n_zero == 0) | (
        pos_min >= _range_max(decomp.lo, decomp.hi, rates, m) * (1.0 - REL_TOL)
    )
    recheck = ~dominance_ok
    if recheck.any():
        rows, cols = decomp.pairs_in(recheck)
        zero = ~(tau.at(rows, cols) > REL_TOL * lengths[cols])
        zero_max = _per_epoch(np.maximum, -np.inf, cols[zero], rates[rows[zero]], m)
        dominance_ok[recheck] = (pos_min >= zero_max * (1.0 - REL_TOL))[recheck]

    conditions = EpochConditions(
        np.flatnonzero(live) + 1,
        *(a[live] for a in (n_pos, n_zero, equal_ok, dominance_ok, pos_max)),
        cells, decomp,
    )

    rs = schedule.trace.rates() if schedule.trace is not None else []
    monotone = not any(b > a * (1.0 + REL_TOL) for a, b in zip(rs, rs[1:])) if rs else None

    # The terms add up in packet order, as a running sum.
    on = rates > 0
    power = per_distinct_rate(model.power, rates[on])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = instance.bits()[on] / rates[on] * power
        recomputed = float(np.add.accumulate(terms)[-1]) if len(terms) else 0.0
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


@dataclass(frozen=True, eq=False)
class Gamma:
    """The multipliers of the zero allocations, computed on demand.

    gamma[i-1, j-1] is max(beta[j-1] - lam[i-1], 0) on a waiting pair
    (packet i feasible in epoch j, with zero time there while others
    transmit; `EpochConditions.waiting`) and 0 on every other pair;
    lam[i-1] is g of packet i's rate.  Nothing is stored per pair.
    """

    beta: np.ndarray
    lam: np.ndarray
    conditions: EpochConditions = field(repr=False)

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """gamma at the 0-based (packet row, epoch column) pairs."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        waiting = self.conditions.waiting(rows, cols)
        return np.where(waiting, np.maximum(self.beta[cols] - self.lam[rows], 0.0), 0.0)

    def __getitem__(self, cell: tuple[int, int]) -> float:
        i, j = cell
        return float(self.at([i], [j])[0])


@dataclass(frozen=True)
class KKTCertificate:
    """Multipliers witnessing optimality.

    beta[j-1] prices epoch j's time; lam[i-1] prices packet i's bit
    constraint, and equals g of its rate; gamma prices packet i's zero
    allocation in epoch j, and is positive only on waiting pairs.  It is
    a function of beta, lam and the transmitting pairs, evaluated on the
    pairs asked for (`Gamma.at`, `gamma[i-1, j-1]`).  The rates' own
    multipliers are identically 0, because optimal rates are positive,
    and are not stored.  The defining identity is rate_i =
    g_inverse(beta_j - gamma_ij) for every epoch j in packet i's window.
    """

    beta: np.ndarray
    gamma: Gamma
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
    conditions = report.epoch_rate_conditions
    # An epoch's common rate is one of the rates, so g is evaluated over
    # the distinct rates once.  An epoch without transmission keeps
    # beta 0: its cap is slack.
    on = conditions.n_positive > 0
    g = per_distinct_rate(model.g, np.concatenate([rates, conditions.rate[on]]))
    lam = g[:n]
    beta = np.zeros(m)
    beta[conditions.epoch[on] - 1] = g[n:]
    gamma = Gamma(beta, lam, conditions)

    # Validate the construction before handing it out.  The defining
    # identity rate = g_inverse(beta - gamma) is checked through g
    # (g is a monotone bijection, so the statements are equivalent):
    # evaluating the subtraction directly would lose the small g(rate)
    # under beta's float quantum whenever the epoch's common rate is
    # much faster, so the residual is measured additively at beta's
    # scale instead.  The first failing pair in packet order, then epoch
    # order, is named.  The tolerance is the larger of CERT_TOL relative
    # to g(rate) and two quanta of beta; the quanta are only taken where
    # the first is exceeded.
    #
    # A transmitting pair's gamma is 0, so it is checked on the cells.
    # In a transmitting epoch with a finite beta where every feasible
    # packet has 0 <= g(rate) <= beta, a waiting pair's gamma, beta -
    # g(rate) rounded, lies in [0, beta]; beta - gamma then comes back to
    # g(rate) within one quantum of beta, under the tolerance, and its
    # slackness gamma * time, with time at most REL_TOL of the epoch,
    # stays under CERT_TOL of gamma times the epoch.  Those epochs are
    # settled.  The pairs of every other live epoch are checked one by one.
    lengths = decomp.lengths
    g_key = np.where(lam >= 0, lam, np.inf)  # NaN, too, rules an epoch out
    settled = (
        conditions.transmitting
        & np.isfinite(beta)
        & (_range_max(decomp.lo, decomp.hi, g_key, m) <= beta)
    )
    cells = conditions.cells
    keep = settled[cells.cols]
    rows, cols = decomp.pairs_in(~settled)
    rows = np.concatenate([cells.rows[keep], rows])
    cols = np.concatenate([cells.cols[keep], cols])
    tau = report.feasible.tau
    times = tau.at(rows, cols)
    target = lam[rows]
    pair_beta = beta[cols]
    pair_gamma = gamma.at(rows, cols)
    residual = np.abs(pair_beta - pair_gamma - target)
    identity_bad = residual > CERT_TOL * target
    suspect = np.flatnonzero(identity_bad)
    identity_bad[suspect] = residual[suspect] > 2.0 * np.spacing(pair_beta[suspect])
    slack = pair_gamma * times
    slack_bad = np.abs(slack) > CERT_TOL * (pair_gamma * lengths[cols])
    bad = np.flatnonzero(identity_bad | slack_bad)
    if bad.size:
        k = bad[np.argmin(rows[bad] * m + cols[bad])]
        i, j = int(rows[k]) + 1, int(cols[k]) + 1
        if identity_bad[k]:
            raise RuntimeError(
                f"certificate identity failed for packet {i}, epoch {j}: "
                f"beta - gamma = {pair_beta[k] - pair_gamma[k]}, "
                f"g(rate) = {target[k]}"
            )
        raise RuntimeError(f"complementary slackness failed for packet {i}, epoch {j}")
    cap_slack = beta * (tau.col_sums() - lengths)
    bad = _flagged(np.abs(cap_slack) > beta * instance.time_tol)
    if bad:
        raise RuntimeError(f"epoch {bad[0] + 1} capacity slackness failed")
    # The settled epochs' gammas are finite and non-negative.
    if np.any(beta < 0) or np.any(pair_gamma < 0):
        raise RuntimeError("multiplier sign constraints failed")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(pair_gamma))):
        raise RuntimeError("non-finite multipliers")
    return KKTCertificate(beta=beta, gamma=gamma, lam=lam)
