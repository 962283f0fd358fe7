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

import numpy as np

from .model import EpochDecomposition, Instance, decompose
from .power import PowerModel
from .scheduler import TIME_TOL, Schedule

BIT_REL_TOL = 1e-9
RATE_REL_TOL = 1e-9
NON_IDLING_ABS_TOL = 1e-9
EPOCH_CAP_SLACK = 1e-9
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
class EpochCondition:
    """Rate-ordering conditions for one epoch."""

    epoch: int
    positive: frozenset[int]       # packets with positive time here
    zero: frozenset[int]           # feasible packets with zero time here
    equal_rates_ok: bool
    dominance_ok: bool
    common_rate: float | None


@dataclass(frozen=True)
class VerificationReport:
    feasible: FeasibilityReport
    constant_rate_ok: bool
    non_idling_ok: dict[int, bool]
    epoch_rate_conditions: tuple[EpochCondition, ...]
    monotone_iteration_rates_ok: bool | None
    optimal: bool
    warnings: tuple[str, ...] = field(default=())


# Columns per block when summing tau column by column; bounds the
# transposed copy to N x 256 floats.
_COLUMN_BLOCK = 256


def _column_sums(tau: np.ndarray) -> np.ndarray:
    """tau[:, j].sum() for every column j, bit for bit.

    numpy sums a single row or column pairwise, but `tau.sum(axis=0)`
    adds whole rows in sequence and rounds differently, so each block
    of columns is transposed into contiguous rows and summed along them.
    """
    out = np.empty(tau.shape[1])
    for j0 in range(0, tau.shape[1], _COLUMN_BLOCK):
        block = tau[:, j0 : j0 + _COLUMN_BLOCK]
        out[j0 : j0 + block.shape[1]] = np.ascontiguousarray(block.T).sum(axis=1)
    return out


def _pairs_with_time(decomp: EpochDecomposition, tau: np.ndarray):
    """Every feasible (row, column) pair, as `decomp.pairs()` orders
    them, with a mask of the pairs whose time counts as positive."""
    rows, cols = decomp.pairs()
    positive = tau[rows, cols] > POSITIVE_TIME_REL * decomp.epoch_lengths()[cols]
    return rows, cols, positive


def _per_epoch(ufunc, fill: float, cols: np.ndarray, values: np.ndarray, m: int):
    """ufunc-reduce `values` into their epoch columns; `fill` where none."""
    out = np.full(m, fill)
    ufunc.at(out, cols, values)
    return out


def _flagged(flags: np.ndarray) -> list[int]:
    """Indices of the set flags, in order."""
    return np.flatnonzero(flags).tolist()


def check_feasible(
    instance: Instance,
    schedule: Schedule,
    decomp: EpochDecomposition | None = None,
) -> FeasibilityReport:
    """Causality, deadlines, non-overlap, bit conservation, and the
    epoch-allocation constraints, with per-violation detail.

    `decomp` is the instance's decomposition, when the caller has it.
    """
    if decomp is None:
        decomp = decompose(instance)
    n, m = instance.n, decomp.m
    if schedule.tau.shape != (n, m) or len(schedule.rates) != n:
        raise DimensionMismatch(
            f"expected tau {(n, m)} and {n} rates, "
            f"got {schedule.tau.shape} and {len(schedule.rates)}"
        )
    violations: list[str] = []
    segments = schedule.segments
    bits = instance.bits()

    seg_packet = np.array([s.packet for s in segments], dtype=np.int64)
    seg_start = np.array([s.t_start for s in segments], dtype=float)
    seg_end = np.array([s.t_end for s in segments], dtype=float)
    seg_rate = np.array([s.rate for s in segments], dtype=float)
    known = (seg_packet >= 1) & (seg_packet <= n)
    row = np.where(known, seg_packet - 1, 0)
    assigned = schedule.rates[row]
    early = seg_start < instance.arrivals()[row] - TIME_TOL
    late = seg_end > instance.deadlines()[row] + TIME_TOL
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
    overlap = seg_start[order[1:]] < seg_end[order[:-1]] - TIME_TOL
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

    # Only nonzero entries can be negative or lie outside a window.
    tau = schedule.tau
    nz_rows, nz_cols = np.nonzero(tau)
    nz_vals = tau[nz_rows, nz_cols]
    if np.any(nz_vals < -1e-12):
        violations.append("negative epoch allocation in tau")
    lo, hi = np.array(decomp.lo), np.array(decomp.hi)
    outside = (np.abs(nz_vals) > 1e-12) & (
        (nz_cols < lo[nz_rows]) | (nz_cols >= hi[nz_rows])
    )
    totals = np.ascontiguousarray(tau).sum(axis=1)  # pairwise per row, as tau[i].sum()
    rates = schedule.rates
    with np.errstate(divide="ignore", invalid="ignore"):
        span = np.where(rates > 0, bits / rates, np.inf)
    mismatch = np.abs(totals - span) > BIT_REL_TOL * np.maximum(span, 1.0)
    outside_by_row: dict[int, list[int]] = {}
    for i, j in zip(nz_rows[outside].tolist(), nz_cols[outside].tolist()):
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
    used = _column_sums(tau)
    for j in _flagged(used > lengths + EPOCH_CAP_SLACK):
        violations.append(
            f"epoch {j + 1} allocates {used[j]} of its {lengths[j]} seconds"
        )

    return FeasibilityReport(ok=not violations, violations=tuple(violations))


def check_optimality(
    instance: Instance,
    schedule: Schedule,
    model: PowerModel,
    decomp: EpochDecomposition | None = None,
) -> VerificationReport:
    """The necessary-and-sufficient optimality conditions.

    Raises InfeasibleInput when the schedule is not feasible; otherwise
    reports each condition and their conjunction.  `decomp` is the
    instance's decomposition, when the caller has it.
    """
    if decomp is None:
        decomp = decompose(instance)
    feas = check_feasible(instance, schedule, decomp)
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
    live = decomp.coverage() > 0
    used = _column_sums(schedule.tau)
    idle_ok = ~live | (np.abs(used - lengths) <= NON_IDLING_ABS_TOL)
    non_idling = dict(enumerate(idle_ok.tolist(), start=1))

    rates = schedule.rates
    rmax = float(rates.max()) if len(rates) else 0.0
    # The positive and the zero pairs, each grouped by epoch column.
    rows, cols, positive = _pairs_with_time(decomp, schedule.tau)
    by_epoch = np.argsort(cols, kind="stable")
    pos = by_epoch[positive[by_epoch]]
    zero = by_epoch[~positive[by_epoch]]
    n_pos = np.bincount(cols[pos], minlength=m)
    n_zero = np.bincount(cols[zero], minlength=m)
    pos_max = _per_epoch(np.maximum, -np.inf, cols[pos], rates[rows[pos]], m)
    pos_min = _per_epoch(np.minimum, np.inf, cols[pos], rates[rows[pos]], m)
    zero_max = _per_epoch(np.maximum, -np.inf, cols[zero], rates[rows[zero]], m)
    equal_ok = (n_pos == 0) | (pos_max - pos_min <= RATE_REL_TOL * pos_max)
    dominance_ok = (n_pos == 0) | (n_zero == 0) | (
        pos_min >= zero_max - RATE_REL_TOL * max(rmax, 1.0)
    )

    pos_ids = (rows[pos] + 1).tolist()
    zero_ids = (rows[zero] + 1).tolist()
    pos_end = np.cumsum(n_pos).tolist()
    zero_end = np.cumsum(n_zero).tolist()
    n_pos, n_zero = n_pos.tolist(), n_zero.tolist()
    equal_ok, dominance_ok = equal_ok.tolist(), dominance_ok.tolist()
    conditions = []
    for col in np.flatnonzero(live).tolist():
        conditions.append(
            EpochCondition(
                epoch=col + 1,
                positive=frozenset(pos_ids[pos_end[col] - n_pos[col] : pos_end[col]]),
                zero=frozenset(zero_ids[zero_end[col] - n_zero[col] : zero_end[col]]),
                equal_rates_ok=equal_ok[col],
                dominance_ok=dominance_ok[col],
                common_rate=float(pos_max[col]) if n_pos[col] else None,
            )
        )

    monotone: bool | None = None
    if schedule.trace is not None and schedule.trace.steps:
        monotone = True
        rs = schedule.trace.rates()
        for a, b in zip(rs, rs[1:]):
            if b > a * (1.0 + RATE_REL_TOL):
                monotone = False

    # f is evaluated once per distinct rate; the terms add up in packet order.
    bits = instance.bits()
    power_of = {r: model.power(r) for r in set(rates[rates > 0].tolist())}
    recomputed = 0.0
    for i in np.flatnonzero(rates > 0).tolist():
        recomputed += bits[i] / rates[i] * power_of[rates[i]]
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


@dataclass(frozen=True)
class KKTCertificate:
    """Multipliers witnessing optimality.

    beta[j-1] prices epoch j's time; gamma[i-1, j-1] prices packet i's
    zero allocation in epoch j; lam[i-1] prices packet i's bit
    constraint; eta is identically 0 because optimal rates are positive.
    The defining identity is rate_i = g_inverse(beta_j - gamma_ij) for
    every epoch j in packet i's window.
    """

    beta: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray
    eta: np.ndarray


def extract_certificate(
    instance: Instance, schedule: Schedule, model: PowerModel
) -> KKTCertificate:
    """Construct and validate the multipliers of an optimal schedule."""
    decomp = decompose(instance)
    report = check_optimality(instance, schedule, model, decomp)
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

    n, m = instance.n, decomp.m
    rates = schedule.rates
    if np.any(rates <= 0):
        raise NotOptimal("certificate requires strictly positive rates")
    # Rates take one value per solver round, so g is evaluated per value.
    common = {
        c.epoch - 1: c.common_rate
        for c in report.epoch_rate_conditions
        if c.common_rate is not None
    }
    rate_list = rates.tolist()
    g_of = {r: model.g(r) for r in set(rate_list) | set(common.values())}
    g_rates = np.array([g_of[r] for r in rate_list])

    # An epoch without transmission keeps beta 0: its cap is slack.
    beta = np.zeros(m)
    for col, r in common.items():
        beta[col] = g_of[r]
    tau = schedule.tau
    rows, cols, positive = _pairs_with_time(decomp, tau)
    transmitting = np.bincount(cols[positive], minlength=m) > 0
    waiting = ~positive & transmitting[cols]
    gamma = np.zeros((n, m))
    gamma[rows[waiting], cols[waiting]] = np.maximum(
        beta[cols[waiting]] - g_rates[rows[waiting]], 0.0
    )

    lam = g_rates.copy()
    eta = np.zeros(n)

    # Validate the construction before handing it out.  The defining
    # identity rate = g_inverse(beta - gamma) is checked through g
    # (g is a monotone bijection, so the statements are equivalent):
    # evaluating the subtraction directly would lose the small g(rate)
    # under beta's float quantum whenever the epoch's common rate is
    # much faster, so the residual is measured additively at beta's
    # scale instead.  Pairs are checked in packet order, then epoch order.
    lengths = decomp.epoch_lengths()
    target = g_rates[rows]
    pair_beta = beta[cols]
    pair_gamma = gamma[rows, cols]
    residual = np.abs(pair_beta - pair_gamma - target)
    tol = np.maximum(
        CERT_TOL * np.maximum(1.0, target),
        2.0 * np.spacing(np.maximum(pair_beta, 1.0)),
    )
    identity_bad = residual > tol
    slack = pair_gamma * tau[rows, cols]
    scale = np.maximum(pair_gamma, 1.0) * np.maximum(lengths[cols], 1.0)
    slack_bad = np.abs(slack) > CERT_TOL * scale
    bad = _flagged(identity_bad | slack_bad)
    if bad:
        k = bad[0]
        i, j = int(rows[k]) + 1, int(cols[k]) + 1
        if identity_bad[k]:
            raise RuntimeError(
                f"certificate identity failed for packet {i}, epoch {j}: "
                f"beta - gamma = {beta[j - 1] - gamma[i - 1, j - 1]}, "
                f"g(rate) = {target[k]}"
            )
        raise RuntimeError(f"complementary slackness failed for packet {i}, epoch {j}")
    cap_slack = beta * (_column_sums(tau) - lengths)
    bad = _flagged(np.abs(cap_slack) > CERT_TOL * np.maximum(beta, 1.0))
    if bad:
        raise RuntimeError(f"epoch {bad[0] + 1} capacity slackness failed")
    if np.any(beta < 0) or np.any(gamma < 0) or np.any(eta != 0):
        raise RuntimeError("multiplier sign constraints failed")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise RuntimeError("non-finite multipliers")
    return KKTCertificate(beta=beta, gamma=gamma, lam=lam, eta=eta)
