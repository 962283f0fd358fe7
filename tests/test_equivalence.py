"""The lockstep solver, the batched rank-histogram candidate grid, the
range-based decomposition, the vectorized verifier, the heap EDF fill,
the sparse allocation table, the packed-column projected-gradient
oracle, the column-wise instance generator and writer and the prefix
maximum of `is_non_fifo` against the loop and matmul implementations
in reference_impl.py.

Every comparison is exact: identical schedule JSON, the same violation
strings in the same order, equal reports, epoch conditions and member
sets, bit-identical rates, table cells and multipliers and identical
segments, or the same exception type and message.  The sparse tables
add their rows and columns in index order, as the loops do; numpy's
own dense sums round differently, and are compared by value.
"""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import reference_impl as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_impl import Segment, dense, segment_list, segment_table
from test_chain_family import certified, chain_instance
from test_scheduler import one_period_grid

from txsched import (
    EpochDecomposition,
    GeneratorConfig,
    Instance,
    InternalDeadlineMiss,
    InternalIdle,
    MalformedPacket,
    Monomial,
    NotOptimal,
    Packet,
    Schedule,
    SegmentTable,
    Shannon,
    baseline_constant_edf,
    check_feasible,
    check_optimality,
    decompose,
    edf_fill,
    epoch_times,
    extract_certificate,
    generate,
    harness,
    instance_from_json,
    instance_to_json,
    is_non_fifo,
    normalize_columns,
    normalize_instance,
    oracle,
    schedule_from_allocation,
    schedule_energy,
    schedule_from_json,
    schedule_to_json,
    scheduler,
    solve,
    solve_projected_gradient,
)
from txsched.model import DUST_REL_TOL, REL_TOL, TIME_REL_TOL

MODEL = Shannon(1.0)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_instances():
    manifest = json.loads((CORPUS / "MANIFEST.json").read_text())
    return [
        (f"corpus-{e['file']}", instance_from_json((CORPUS / e["file"]).read_text())[0])
        for e in manifest
    ]


def generator_instances():
    out = []
    for seed in range(6):
        config = GeneratorConfig(
            n=4 + 3 * seed,
            horizon=6.0 + seed,
            seed=700 + seed,
            non_fifo_prob=(0.0, 0.5, 1.0)[seed % 3],
            min_window_frac=0.1,
            bits_range=(0.4, 1.5),
        )
        out.append((f"generator-{seed}", generate(config)))
    return out


def nested_instance(n=200, seed=11):
    config = GeneratorConfig(n=n, horizon=n / 2, seed=seed, non_fifo_prob=1.0)
    return generate(config)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


def assert_same_certificate(new, old, waiting, where=""):
    """`waiting` holds the (packet, epoch) pairs gamma must be positive
    on; gamma is evaluated at every cell of the N x M table."""
    assert new[0] == old[0], (where, new, old)
    if new[0] == "raised":
        assert new == old, where
        return
    gamma = new[1].gamma
    n, m = old[1].gamma.shape
    rows, cols = (a.ravel() for a in np.indices((n, m)))
    held = gamma.conditions.waiting(rows, cols)
    assert set(zip((rows[held] + 1).tolist(), (cols[held] + 1).tolist())) == waiting, where
    for name in ("beta", "gamma", "lam"):
        a, b = getattr(new[1], name), getattr(old[1], name)
        a = gamma.at(rows, cols).reshape(n, m) if name == "gamma" else a
        assert a.dtype == b.dtype and a.shape == b.shape, (where, name)
        assert a.tobytes() == b.tobytes(), (where, name)


def loop_condition_keys(conditions):
    """(epoch, positive, zero, equal_ok, dominance_ok, common rate) of
    each of the loop's epoch conditions."""
    return [
        (c.epoch, c.positive, c.zero, c.equal_rates_ok, c.dominance_ok, c.common_rate)
        for c in conditions
    ]


def condition_keys(conditions):
    """The same keys from the arrays, with the member sets from `members`."""
    per_epoch = (
        conditions.n_positive, conditions.equal_ok, conditions.dominance_ok, conditions.rate
    )
    return [
        (epoch, *conditions.members(epoch), eq, dom, rate if n_pos else None)
        for epoch, n_pos, eq, dom, rate in zip(
            conditions.epoch.tolist(), *(a.tolist() for a in per_epoch)
        )
    ]


def report_key(report, keys):
    """Every field of a report, with each epoch condition's member sets."""
    return (
        report.feasible,
        report.constant_rate_ok,
        list(report.non_idling_ok.items()),
        keys(report.epoch_rate_conditions),
        report.monotone_iteration_rates_ok,
        report.optimal,
        report.warnings,
    )


def assert_same_verdicts(inst, sched, model=MODEL, where=""):
    new = outcome(check_feasible, inst, sched)
    assert new == outcome(ref.check_feasible, inst, sched), where
    new = outcome(check_optimality, inst, sched, model)
    old = outcome(ref.check_optimality, inst, sched, model)
    assert new[0] == old[0], (where, new, old)
    waiting = set()
    if new[0] == "value":
        assert report_key(new[1], condition_keys) == report_key(
            old[1], loop_condition_keys
        ), where
        conds = new[1].epoch_rate_conditions
        for k, epoch in enumerate(conds.epoch.tolist()):
            positive, zero = conds.members(epoch)
            assert (conds.n_positive[k], conds.n_zero[k]) == (len(positive), len(zero))
        waiting = {
            (i, c.epoch)
            for c in old[1].epoch_rate_conditions
            if c.common_rate is not None
            for i in c.zero
        }
    else:
        assert new == old, where
    assert_same_certificate(
        outcome(extract_certificate, inst, sched, model),
        outcome(ref.extract_certificate, inst, sched, model),
        waiting,
        where,
    )
    return new


def assert_table_is(table, loop):
    """A sparse table holds exactly the nonzero cells of the loop's dense
    table, bit for bit, distinct and in row-major order."""
    assert table.shape == loop.shape
    assert dense(table).tobytes() == loop.tobytes()
    assert len(table.values) == np.count_nonzero(loop)
    keys = table.rows * table.shape[1] + table.cols
    assert np.all(np.diff(keys) > 0)


def assert_sums_match_dense(table):
    """Row and column sums agree with numpy's dense sums up to rounding."""
    full = dense(table)
    for axis, sums in ((1, table.row_sums()), (0, table.col_sums())):
        err = np.abs(sums - full.sum(axis=axis))
        assert np.all(err <= 1e-12 * np.abs(full).sum(axis=axis)), axis


def replaced(schedule, **kwargs):
    """The schedule with some fields replaced."""
    fields = dict(
        rates=schedule.rates.copy(),
        segments=schedule.segments,
        energy=schedule.energy,
        trace=schedule.trace,
    )
    fields.update(kwargs)
    return Schedule(**fields)


def booked(inst, segments):
    """`epoch_times` of a bare segment table."""
    return epoch_times(inst, Schedule(np.zeros(inst.n), segments, 0.0, None))


def with_segment(schedule, k, seg):
    segs = segment_list(schedule.segments)
    return replaced(schedule, segments=segment_table(segs[:k] + [seg] + segs[k + 1 :]))


def plus_segment(schedule, seg):
    segs = segment_list(schedule.segments)
    return replaced(schedule, segments=segment_table(segs + [seg]))


def mutations(inst, s, seed=0):
    """The schedule tampered in each way tests/test_verifier.py checks:
    causality, bit conservation, overlap, allocation outside a window,
    an over-capacity epoch, an idle epoch, unequal rates in an epoch and
    a dominance inversion; plus a mismatched rate and stored energy."""
    rng = np.random.default_rng(seed)
    d = decompose(inst)
    lengths = d.lengths
    segs = segment_list(s.segments)
    table = dense(epoch_times(inst, s))
    out = {}

    late = [k for k, g in enumerate(segs) if inst.packets[g.packet - 1].arrival > 0]
    if late:
        k = late[rng.integers(len(late))]
        g = segs[k]
        early = inst.packets[g.packet - 1].arrival - 0.5 * (g.t_end - g.t_start) - 1e-3
        out["causality"] = with_segment(s, k, Segment(g.packet, early, g.t_end, g.rate))

    k = int(rng.integers(len(segs)))
    g = segs[k]
    short = Segment(g.packet, g.t_start, g.t_start + 0.9 * g.duration, g.rate)
    out["bit conservation"] = with_segment(s, k, short)

    if len(segs) >= 2:
        k = int(rng.integers(1, len(segs)))
        g = segs[k]
        earlier = g.t_start - 0.5 * segs[k - 1].duration
        out["overlap"] = with_segment(s, k, Segment(g.packet, earlier, g.t_end, g.rate))
        fast = Segment(g.packet, g.t_start, g.t_end, g.rate * 1.01)
        out["segment rate"] = with_segment(s, k, fast)

    rows, cols = d.pairs()
    outside = [
        (i, c) for i in range(inst.n) for c in range(d.m) if not d.lo[i] <= c < d.hi[i]
    ]
    if outside:
        i, c = outside[rng.integers(len(outside))]
        t0 = d.instants[c]
        extra = Segment(i + 1, t0, t0 + 0.1 * lengths[c], float(s.rates[i]))
        out["outside window"] = plus_segment(s, extra)

    k = int(rng.integers(len(rows)))
    i, c = rows[k], cols[k]
    extra = Segment(int(i) + 1, d.instants[c], d.instants[c + 1], float(s.rates[i]))
    out["over capacity"] = plus_segment(s, extra)

    pos_r, pos_c = np.nonzero(table > 1e-6)
    k = int(rng.integers(len(pos_r)))
    tau = table.copy()
    tau[pos_r[k], pos_c[k]] *= 0.5
    out["idle epoch"] = schedule_from_allocation(inst, tau, MODEL)

    shared = [c for c in range(d.m) if np.count_nonzero(table[:, c] > 1e-6) >= 2]
    if shared:
        c = shared[rng.integers(len(shared))]
        a, b = np.flatnonzero(table[:, c] > 1e-6)[:2]
        tau = table.copy()
        delta = 0.1 * min(tau[a, c], tau[b, c])
        tau[a, c] += delta
        tau[b, c] -= delta
        out["unequal rates"] = schedule_from_allocation(inst, tau, MODEL)

    waiting = [
        (r, c) for r, c in zip(rows.tolist(), cols.tolist())
        if table[r, c] == 0 and np.any(table[:, c] > 1e-6)
    ]
    if waiting:
        q, c = waiting[rng.integers(len(waiting))]
        p = int(np.argmax(table[:, c]))
        tau = table.copy()
        tau[q, c], tau[p, c] = tau[p, c], 0.0
        if tau[p].sum() > 0:
            out["dominance"] = schedule_from_allocation(inst, tau, MODEL)

    # Allocations spread over every feasible pair put many terms in each
    # epoch's sum, where summation order shows in the last bits.
    weight = rng.uniform(0.5, 1.5, len(rows))
    column_weight = np.bincount(cols, weights=weight, minlength=d.m)
    share = weight * lengths[cols] / column_weight[cols]
    for name, fill in (("spread allocation", 1.0), ("spread overfull", 1.5)):
        tau = np.zeros_like(table)
        tau[rows, cols] = fill * share
        out[name] = schedule_from_allocation(inst, tau, MODEL)
    spread = out["spread allocation"]
    out["spread rates"] = replaced(spread, rates=spread.rates * 1.01)

    out["unknown packet"] = plus_segment(s, Segment(inst.n + 1, 0.0, 1e-3, 1.0))
    out["stored energy"] = replaced(s, energy=s.energy * (1.0 + 1e-6))
    return out


@pytest.fixture
def compare_edf(monkeypatch):
    """Route every edf_fill call of the solver and the baseline through
    both implementations and require identical outcomes."""
    calls = []

    def both(pieces, members, rate):
        new = outcome(edf_fill, pieces, members, rate)
        old = outcome(ref.edf_fill, pieces, members, rate)
        assert new == old, (pieces, members, rate)
        calls.append(new[0])
        if new[0] == "raised":
            raise new[1](new[2])
        return new[1]

    monkeypatch.setattr(scheduler, "edf_fill", both)
    monkeypatch.setattr(harness, "edf_fill", both)
    return calls


def families():
    labelled = (
        corpus_instances()
        + generator_instances()
        + [("nested-200", nested_instance())]
        + [(f"chain-100-{seed}", chain_instance(seed=seed)) for seed in range(3)]
        + [("chain-100-0-x1000", chain_instance(seed=0, scale=1e3))]
    )
    return [pytest.param(inst, id=label) for label, inst in labelled]


@pytest.mark.parametrize("inst", families())
def test_solver_schedules_and_mutations_match_loops(inst, compare_edf):
    sched = solve(inst, MODEL)
    assert compare_edf
    assert assert_same_verdicts(inst, sched)[0] == "value"
    back = schedule_from_json(schedule_to_json(sched), inst)
    assert_same_verdicts(inst, back)
    loop_tau = ref.tau_from_segments(inst, decompose(inst), sched.segments)
    assert_table_is(epoch_times(inst, sched), loop_tau)
    assert_table_is(epoch_times(inst, back), loop_tau)
    baseline = baseline_constant_edf(inst, MODEL)
    assert_same_verdicts(inst, baseline)
    assert_sums_match_dense(epoch_times(inst, sched))
    assert_sums_match_dense(epoch_times(inst, baseline))
    for name, mutated in mutations(inst, sched).items():
        assert_same_verdicts(inst, mutated, where=name)
        assert_sums_match_dense(epoch_times(inst, mutated))


def split_families():
    labelled = (
        corpus_instances()
        + generator_instances()
        + [("nested-200", nested_instance())]
        + [
            (f"chain-{n}-0-x{scale:g}",
             chain_instance(n=n, horizon=float(n), scale=scale))
            for n in (150, 400)
            for scale in (1.0, 1e3, 1e-6)
        ]
        + [("mixed", mixed_instance()), ("mixed+1000.37", mixed_instance(shift=1000.37))]
    )
    return [pytest.param(inst, id=label) for label, inst in labelled]


def mixed_instance(shift=0.0):
    """A 300-packet nested block, one busy period, beside 150 two-packet
    chain blocks of one short busy period each, all moved by `shift`:
    each lockstep step scores periods of very different sizes."""
    chains = (chain_instance(n=2, seed=seed, horizon=2.0) for seed in itertools.count())
    linked = (c for c in chains if c.packets[1].arrival <= c.packets[0].deadline)
    packets = [(p.bits, p.arrival, p.deadline) for p in nested_instance(n=300).packets]
    for q, block in enumerate(itertools.islice(linked, 150)):
        offset = 160.0 + 6.0 * q
        packets += [(p.bits, p.arrival + offset, p.deadline + offset) for p in block.packets]
    return normalize_instance(
        Packet(i + 1, b, a + shift, d + shift) for i, (b, a, d) in enumerate(packets)
    )


def busy_periods(inst):
    """The number of busy periods `solve` splits the instance into: the
    runs of live epochs."""
    live = inst.decomposition.coverage > 0
    return int(live[0]) + int(np.count_nonzero(live[1:] & ~live[:-1]))


def assert_same_solution(inst):
    """The lockstep solve against the global round loop on the matmul
    grid, and the allocation table rebuilt from its JSON against the
    loop table.  In one busy period both examine the same windows."""
    new, old = solve(inst, MODEL), ref.solve(inst, MODEL)
    text = schedule_to_json(new)
    assert text == schedule_to_json(old)
    assert new.rates.tobytes() == old.rates.tobytes()
    if busy_periods(inst) == 1:
        candidates = [st.candidates for st in new.trace.steps]
        assert candidates == [st.candidates for st in old.trace.steps]
    loop_tau = ref.tau_from_segments(inst, decompose(inst), old.segments)
    assert_table_is(epoch_times(inst, new), loop_tau)
    back = schedule_from_json(text, inst)
    assert_table_is(epoch_times(inst, back), loop_tau)
    return new


@pytest.mark.parametrize("inst", split_families())
def test_split_solve_matches_global_loop(inst):
    assert_same_solution(inst)


def test_shifted_copy_rounds_alternate():
    """A chain of 20 packets beside a copy of itself 1000.37 s later.
    Each round of the original ties with the copy's, whose rates differ
    in the last bits, so the rounds alternate, original first; merging
    the two round lists on exact rates would not keep that order."""
    base = chain_instance(n=20, seed=0, horizon=20.0)
    inst = normalize_instance(
        list(base.packets)
        + [Packet(p.id + 20, p.bits, p.arrival + 1000.37, p.deadline + 1000.37)
           for p in base.packets]
    )
    steps = assert_same_solution(inst).trace.steps
    assert [st.rate for st in steps[::2]] != [st.rate for st in steps[1::2]]
    assert len(steps) % 2 == 0
    for orig, copy in zip(steps[::2], steps[1::2]):
        assert max(orig.members) <= 20
        assert copy.members == {m + 20 for m in orig.members}


@pytest.mark.parametrize("gap, periods", [(0.5, 1), (2.0, 2)])
def test_gap_splits_periods_beyond_time_tol(gap, periods):
    # rounds at rates 1.0 (left), 0.6 and 0.5 (right), 0.2 (left)
    g = gap * TIME_REL_TOL * 10.0
    inst = normalize_instance([
        Packet(1, 0.6, 0.0, 5.0), Packet(2, 2.0, 1.0, 3.0),
        Packet(3, 1.5, 5.0 + g, 10.0 + g), Packet(4, 1.2, 6.0 + g, 8.0 + g),
    ])
    assert inst.time_tol == pytest.approx(TIME_REL_TOL * 10.0)
    assert busy_periods(inst) == periods
    sched = assert_same_solution(inst)
    assert [set(st.members) for st in sched.trace.steps] == [{2}, {4}, {3}, {1}]
    extract_certificate(inst, sched, MODEL)


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mixed_periods_pad_within_bounds():
    """The nested block next to 150 small periods costs about what it
    costs alone: no cube pads the small periods to the block's size or
    the block to their number.  Both decompositions are built first, as
    they belong to the instances, not to the solve."""
    mixed, alone = mixed_instance(), nested_instance(n=300)
    assert busy_periods(mixed) == 151 and busy_periods(alone) == 1
    for inst in (mixed, alone):
        solve(inst, MODEL)
    assert traced_peak(solve, mixed, MODEL) <= 1.5 * traced_peak(solve, alone, MODEL)


def test_cube_groups_bound_padding():
    """Runs of consecutive periods, each padded to at most max(1.5 x its
    own cells, the floor) and so within max(2 x its own cells, the
    floor); one run when everything fits."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 60))
        big = rng.random(k) < 0.1
        S = np.where(big, rng.integers(50, 400, k), rng.integers(1, 40, k))
        E = np.where(big, rng.integers(50, 400, k), rng.integers(1, 40, k))
        groups = scheduler._cube_groups(S, E)
        assert [g for run in groups for g in run] == list(range(k))
        for run in groups:
            s, e = S[run.start:run.stop], E[run.start:run.stop]
            padded = len(run) * s.max() * e.max()
            assert padded <= max(1.5 * (s * e).sum(), scheduler._CUBE_FLOOR)
        if k * S.max() * E.max() <= max(1.5 * (S * E).sum(), scheduler._CUBE_FLOOR):
            assert groups == [range(k)]


def test_batched_blocks_match_single_period_grids():
    """Periods built from the grid comparison's inputs, laid end to end
    with idle gaps: every block of one batched cube, over all periods or
    a run of them, equals the grid of its period alone, cell for cell,
    with the same ranks, valid cells and selected cell; padded cells are
    never valid."""
    cases = grid_inputs()
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(80):
        picked = [cases[i] for i in rng.choice(len(cases), int(rng.integers(2, 7)))]
        offsets = np.cumsum([0.0] + [c[1].max() - c[0].min() + 1.0 for c in picked[:-1]])
        offsets -= [c[0].min() for c in picked]
        periods = [(a + o, d + o, b) for (a, d, b), o in zip(picked, offsets)]
        times = np.concatenate([np.stack(p[:2]) for p in periods], axis=1)
        period = np.repeat(np.arange(len(periods)), [len(p[2]) for p in periods])
        heads = [p[0].min() for p in periods]
        windows = scheduler._window_ranks(times, period, np.array([*heads, np.inf]))
        bits = np.concatenate([p[2] for p in periods])
        lo = int(rng.integers(0, len(periods)))
        run = range(lo, int(rng.integers(lo + 1, len(periods) + 1)))
        rates = scheduler._candidate_grid(windows, bits, run)
        valid = rates > -np.inf
        rmax, si, ei = scheduler._argmax_lex(rates)
        for k, g in enumerate(run):
            starts, ends, start_rank, end_rank, alone, alone_valid = one_period_grid(*periods[g])
            rows = period == g
            assert np.array_equal(windows.start_rank[rows], start_rank)
            assert np.array_equal(windows.end_rank[rows], end_rank)
            S, E = alone.shape
            assert rates[k, :S, :E].tobytes() == alone.tobytes()
            assert np.array_equal(valid[k, :S, :E], alone_valid)
            assert not valid[k, S:].any() and not valid[k, :, E:].any()
            assert np.all(rates[k, S:] == -np.inf) and np.all(rates[k, :, E:] == -np.inf)
            if alone_valid.any():
                checked += 1
                assert (rmax[k], si[k], ei[k]) == scheduler._argmax_lex(alone)
    assert checked > 100


def grid_positions(arrivals, deadlines, tol, rng=None):
    """Arrivals and deadlines on the epoch grid that time tolerance
    `tol` cuts, at their positions on the free time, as `solve` places
    them.  With `rng`, about half the epochs are reserved, so instants
    collapse and windows can shrink to nothing."""
    inst = Instance((np.ones(len(arrivals)), arrivals, deadlines), tol / TIME_REL_TOL)
    lengths = inst.decomposition.lengths.copy()
    if rng is not None:
        lengths[rng.random(len(lengths)) < 0.5] = 0.0
    position = np.concatenate(([0.0], np.cumsum(lengths)))
    return position[inst.decomposition.lo], position[inst.decomposition.hi]


def grid_inputs():
    """(arrivals, deadlines, bits) for the grid comparison, the arrivals
    and deadlines as grid positions."""
    rng = np.random.default_rng(17)
    cases = []
    # a lattice of eighths on a grid of tol a quarter: repeated
    # instants, as exact floats, and windows of no length
    for _ in range(40):
        k = int(rng.integers(1, 25))
        a = rng.integers(0, 32, k) / 8.0
        d = a + rng.integers(1, 24, k) / 8.0
        cases.append((*grid_positions(a, d, 0.25), rng.uniform(0.1, 3.0, k)))
    # instants just inside, at and just outside time_tol of each other
    for _ in range(40):
        k = int(rng.integers(2, 25))
        tol = TIME_REL_TOL * 20.0
        offsets = np.array([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0]) * tol
        base = rng.uniform(0.0, 10.0, 4)
        a = rng.choice(base, k) + rng.choice(offsets, k)
        d = rng.choice(base + 10.0, k) - rng.choice(offsets, k)
        cases.append((*grid_positions(a, d, tol), rng.uniform(0.1, 3.0, k)))
    # positions after reservations: instants in a reserved run collapse
    # onto its cut
    for _ in range(40):
        k = int(rng.integers(1, 25))
        a = rng.uniform(0.0, 15.0, k)
        d = a + rng.uniform(0.2, 5.0, k)
        cases.append((*grid_positions(a, d, TIME_REL_TOL * 20.0, rng), rng.uniform(0.1, 3.0, k)))
    return cases


def test_histogram_grid_matches_matmul_grid():
    """The same windows, the same packets in each, the same rates to
    1e-13 and the same selected cell as the dense matmul grid; the same
    valid cells, so the same `IterationStep.candidates`.  On grid
    positions one instant is one float, so the matmul grid contains
    exactly, with no time tolerance."""
    checked = 0
    for arrivals, deadlines, bits in grid_inputs():
        starts, ends, start_rank, end_rank, rates, valid = one_period_grid(
            arrivals, deadlines, bits
        )
        old = ref.candidate_grid(arrivals, deadlines, bits, 0.0)
        assert np.array_equal(starts, old[0]) and np.array_equal(ends, old[1])
        # packet p is in window (s, e) exactly when in_start[p, s] and
        # in_end[p, e]: the same member set in every cell
        assert np.array_equal(start_rank[:, None] >= np.arange(len(starts)), old[2])
        assert np.array_equal(end_rank[:, None] <= np.arange(len(ends)), old[3])
        assert np.array_equal(valid, old[5])
        assert np.all(rates[~valid] == -np.inf) and np.all(old[4][~valid] == -np.inf)
        np.testing.assert_allclose(rates[valid], old[4][valid], rtol=1e-13, atol=0)
        if valid.any():
            checked += 1
            cell = scheduler._argmax_lex(rates)[1:]
            assert cell == ref.argmax_lex(old[4], old[5], starts, ends)
    assert checked > 100


def test_tau_from_segments_matches_loop():
    # random segments: many per cell (so the summation order shows),
    # edges on grid instants give or take less than the dust, spans of
    # many epochs, segments out of the grid and degenerate ones
    inst = nested_instance(n=30, seed=2)
    decomp = decompose(inst)
    grid = np.array(decomp.instants)
    dust = inst.dust
    rng = np.random.default_rng(9)
    for _ in range(20):
        segments = []
        for _ in range(200):
            t0 = float(rng.choice(grid) + rng.choice([0.0, 0.5, -0.5, 2.0]) * dust
                       if rng.random() < 0.5 else rng.uniform(-1.0, inst.horizon + 1.0))
            width = float(rng.choice([0.5 * dust, -1e-3, 5.0]) if rng.random() < 0.2
                          else rng.uniform(1e-4, 0.3))
            segments.append(Segment(int(rng.integers(1, 4)), t0, t0 + width, 1.0))
        table = segment_table(segments)
        assert_table_is(booked(inst, table), ref.tau_from_segments(inst, decomp, table))
    empty = segment_table([])
    assert_table_is(booked(inst, empty), np.zeros((inst.n, decomp.m)))


def test_mutations_cover_every_tampering():
    inst = nested_instance(n=40, seed=3)
    sched = solve(inst, MODEL)
    muts = mutations(inst, sched)
    assert set(muts) == {
        "causality", "bit conservation", "overlap", "segment rate",
        "outside window", "over capacity", "idle epoch", "unequal rates",
        "dominance", "spread allocation", "spread overfull", "spread rates",
        "unknown packet", "stored energy",
    }
    expected = {
        "causality": "causality",
        "bit conservation": "bit conservation",
        "overlap": "overlap",
        "outside window": "outside its window",
        "over capacity": "allocates",
        "unknown packet": "unknown packet",
        "spread overfull": "allocates",
        "spread rates": "tau total",
    }
    for name, needle in expected.items():
        rep = check_feasible(inst, muts[name])
        assert any(needle in v for v in rep.violations), name
    for name in ("idle epoch", "unequal rates", "dominance", "spread allocation"):
        assert not check_optimality(inst, muts[name], MODEL).optimal, name
    rep = check_optimality(inst, muts["stored energy"], MODEL)
    assert any("stored energy" in w for w in rep.warnings)


def staircase_instance(n, scale=1.0):
    """Packet i (0-based) in [i, i + 2.5] with bits U(0.2, 2), time and
    bits multiplied by `scale`: one busy period of about n/6 rounds."""
    bits = np.random.default_rng(3).uniform(0.2, 2.0, n)
    return normalize_instance(
        Packet(i + 1, float(b * scale), float(i * scale), float((i + 2.5) * scale))
        for i, b in enumerate(bits)
    )


def window_rates(decomp, free, active, bits):
    """Every grid window [s, e)'s rate at [s, e]: the bits of the active
    packets inside it over its free time, each a sum over the window's
    own packets and epochs only; NaN where it holds no active packet or
    no free time."""
    m = decomp.m
    time = np.zeros((m + 1, m + 1))
    free_lengths = np.where(free, decomp.lengths, 0.0)
    for s in range(m):
        time[s, s + 1:] = np.cumsum(free_lengths[s:])
    grid = np.arange(m + 1)
    inside = active & (decomp.lo >= grid[:, None, None]) & (decomp.hi <= grid[None, :, None])
    held = np.where(inside, bits, 0.0).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside.any(axis=-1) & (time > 0), held / time, np.nan)


def round_fact_instances():
    return [
        *(generate(GeneratorConfig(n=n, horizon=n / 2, seed=seed, non_fifo_prob=1.0))
          for n, seed in ((12, 1), (30, 2), (60, 3), (60, 4))),
        *(chain_instance(n=n, seed=seed, horizon=float(n)) for n, seed in ((30, 0), (60, 1))),
        staircase_instance(30), staircase_instance(60),
    ]


def test_rounds_keep_disjoint_rates_and_lower_containing_ones():
    """The two facts an incremental window heap would rest on, replayed
    over the solver's rounds in trace order, each window keyed by its grid
    endpoints.  A round takes the maximum rate, settles its members and
    reserves the free epochs of their span.  Then a window disjoint from
    the span keeps its rate, and one containing it gains none."""
    disjoint = containing = 0
    for inst in round_fact_instances():
        d, bits = inst.decomposition, inst.bits()
        free, active = np.ones(d.m, dtype=bool), np.ones(inst.n, dtype=bool)
        before = window_rates(d, free, active, bits)
        s, e = np.indices(before.shape)
        for step in solve(inst, MODEL).trace.steps:
            assert np.nanmax(before) <= step.rate * (1 + 1e-12)
            rows = np.array(sorted(step.members)) - 1
            span_lo, span_hi = d.lo[rows].min(), d.hi[rows].max()
            for start, end in d.instants.searchsorted(step.pieces):
                assert span_lo <= start < end <= span_hi and free[start:end].all()
                free[start:end] = False
            active[rows] = False
            after = window_rates(d, free, active, bits)
            both = ~np.isnan(before) & ~np.isnan(after)
            apart = both & ((e <= span_lo) | (s >= span_hi))
            around = both & (s <= span_lo) & (e >= span_hi)
            assert np.all(np.abs(after - before)[apart] <= 1e-12 * before[apart])
            assert np.all(after[around] <= before[around] * (1 + 1e-12))
            disjoint += np.count_nonzero(apart)
            containing += np.count_nonzero(around)
            before = after
        assert not active.any() and not (free & (d.coverage > 0)).any()
    assert disjoint > 50_000 and containing > 30_000, (disjoint, containing)


@pytest.fixture
def pair_scans(monkeypatch):
    """The number of pairs each `pairs_in` call returns: the epochs the
    verifier checks pair by pair."""
    counts = []
    pairs_in = EpochDecomposition.pairs_in

    def counted(self, columns):
        rows, cols = pairs_in(self, columns)
        counts.append(len(rows))
        return rows, cols

    monkeypatch.setattr(EpochDecomposition, "pairs_in", counted)
    return counts


def unequal_rates(inst, sched):
    """A tenth of the smaller share moved between two packets that
    transmit in one epoch, so their rates part there."""
    table = dense(epoch_times(inst, sched))
    busy = table > 1e-3 * decompose(inst).lengths
    shared = np.flatnonzero(busy.sum(axis=0) >= 2)
    c = shared[len(shared) // 2]
    a, b = np.flatnonzero(busy[:, c])[:2]
    delta = 0.1 * min(table[a, c], table[b, c])
    table[a, c] += delta
    table[b, c] -= delta
    return schedule_from_allocation(inst, table, MODEL)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
@pytest.mark.parametrize("n", [13, 60])
def test_staircase_matches_loops(n, scale, pair_scans):
    """Solved and tampered staircases at three time and bit scales; an
    epoch whose transmitting rates part is checked pair by pair."""
    inst = staircase_instance(n, scale)
    sched = solve(inst, MODEL)
    assert_same_verdicts(inst, sched)
    parted = unequal_rates(inst, sched)
    pair_scans.clear()
    assert_same_verdicts(inst, parted, where="unequal rates")
    assert any(pair_scans)
    if scale != 1e-12:  # the mutations' offsets are absolute
        for name, mutated in mutations(inst, sched).items():
            assert_same_verdicts(inst, mutated, where=name)


def waiting_packet_schedule(excess, scale, bit_scale=1.0):
    """Packet 1 waits in epoch 2 while packet 2 transmits there, at a
    rate `excess` (relative) above packet 2's; times scale by `scale`,
    bits by `scale * bit_scale`."""
    rate = 1.0 + excess
    inst = normalize_instance([
        Packet(1, 2.0 * rate * scale * bit_scale, 0.0, 3.0 * scale),
        Packet(2, 1.0 * scale * bit_scale, 1.0 * scale, 2.0 * scale),
        Packet(3, 1.0 * scale * bit_scale, 3.0 * scale, 3.02 * scale),
    ])
    rates = np.array([rate, 1.0, 1.0 / 0.02]) * bit_scale
    segments = SegmentTable.from_rows([
        (1, 0.0, 1.0 * scale, rates[0]),
        (2, 1.0 * scale, 2.0 * scale, rates[1]),
        (1, 2.0 * scale, 3.0 * scale, rates[0]),
        (3, 3.0 * scale, 3.02 * scale, rates[2]),
    ])
    energy = schedule_energy(MODEL, rates, inst.bits() / rates)
    return inst, Schedule(rates, segments, energy, None)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
@pytest.mark.parametrize("excess", [-1e-3, 0.0, 1e-9, 2e-8, 1e-6])
def test_waiting_packet_near_beta_matches_loops(excess, scale, pair_scans):
    """`waiting_packet_schedule`.  Dominance allows a waiting packet
    REL_TOL of the transmitting rate; the identity allows CERT_TOL of g,
    and g of packet 1's rate sits 3e-9 above beta at 1e-9.  So the
    schedule is optimal up to 1e-9 and refused from 2e-8 on."""
    inst, sched = waiting_packet_schedule(excess, scale)
    report = assert_same_verdicts(inst, sched)
    assert report[0] == "value" and report[1].optimal == (excess <= REL_TOL)
    if excess > 0 and report[1].optimal:
        assert any(pair_scans)  # g of packet 1 exceeds beta of epoch 2
    if excess == 1e-9:
        assert extract_certificate(inst, sched, MODEL).gamma[0, 1] == 0.0
    if excess == 2e-8:
        with pytest.raises(NotOptimal, match="epoch 2 rate conditions"):
            extract_certificate(inst, sched, MODEL)


@pytest.mark.parametrize("bit_scale", [1.0, 1e-12])
def test_faster_waiting_packet_is_refused_at_any_bit_scale(bit_scale):
    """A waiting packet 2e-8 faster than the transmitting one is refused
    whatever the unit of the bits: a floor on 1 under the rate and g
    tolerances let it through at bits x 1e-12."""
    inst, sched = waiting_packet_schedule(2e-8, 1.0, bit_scale)
    assert assert_same_verdicts(inst, sched)[1].epoch_rate_conditions.failed() == [2]
    with pytest.raises(NotOptimal, match="epoch 2 rate conditions"):
        extract_certificate(inst, sched, MODEL)


def test_monomial_certificate_matches_loops():
    inst = nested_instance(n=60, seed=5)
    model = Monomial(exponent=1.5, scale=1.0)
    assert_same_verdicts(inst, solve(inst, model), model)


def test_edf_fill_direct_cases_match_loop():
    P = Packet
    cases = [
        ([(0.0, 3.0)],
         [P(1, 1.0, 0.0, 3.0), P(2, 1.0, 0.5, 1.5), P(3, 1.0, 1.0, 3.0)], 1.0),
        # equal deadlines tie to the lower id, arrivals split a run
        ([(0.0, 2.0)], [P(4, 1.0, 0.0, 2.0), P(2, 1.0, 0.0, 2.0)], 1.0),
        ([(0.0, 1.0), (2.0, 3.0)],
         [P(1, 1.0, 0.0, 3.0), P(2, 0.5, 0.2, 0.9)], 1.5 / 2.0),
        # the second piece starts a hair before the first one ends, so
        # the pieces overlap and both fills refuse them; the second
        # member arrives half, one and two time tolerances (TIME_REL_TOL
        # times the latest deadline) after it
        *(([(0.0, 1.0), (1.0 - 5e-13, 2.0)],
           [P(1, 1.0, 0.0, 2.0), P(2, 1.0, 1.0 + k * TIME_REL_TOL * 2.0, 2.0)], 1.0)
          for k in (0.5, 1.0, 2.0)),
        # the same with the second piece starting where the first ends:
        # the second member arrives off the piece's start, so neither
        # fill admits it early: both idle
        *(([(0.0, 1.0), (1.0, 2.0)],
           [P(1, 1.0, 0.0, 2.0), P(2, 1.0, 1.0 + k * TIME_REL_TOL * 2.0, 2.0)], 1.0)
          for k in (0.5, 1.0, 2.0)),
        # a member that needs under eps of time is filled, not dropped
        ([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0), P(2, 1e-12, 0.5, 1.0)], 1.0 + 1e-12),
        # idle: nothing has arrived
        ([(0.0, 1.0)], [P(1, 1.0, 0.5, 1.0)], 2.0),
        # deadline miss: rate too low
        ([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 0.5),
        # a member unfinished at its deadline while another one runs
        ([(0.0, 2.0)], [P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 0.5)], 1.0),
        # leftovers after all pieces
        ([(0.0, 1.0)], [P(1, 1.0, 0.0, 3.0), P(2, 1.0, 0.0, 3.0)], 1.0),
        # a reversed piece is refused, not dropped
        ([(1.0, 0.5), (0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 1.0),
        ([(0.0, 1.0)], [], 1.0),
    ]
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 4.0, k).round(int(rng.integers(1, 4)))
        d = a + rng.uniform(0.1, 3.0, k).round(2)
        bits = rng.uniform(0.1, 1.5, k)
        members = [P(int(i), float(b), float(x), float(y))
                   for i, b, x, y in zip(rng.permutation(k) + 1, bits, a, d)]
        cuts = np.sort(rng.uniform(0.0, float(d.max()), 2 * int(rng.integers(1, 3))))
        pieces = [(float(s), float(e)) for s, e in cuts.reshape(-1, 2)]
        pieces = pieces if rng.random() < 0.5 else [(0.0, float(d.max()))]
        rate = float(bits.sum() / sum(e - s for s, e in pieces)) * rng.uniform(0.8, 1.5)
        cases.append((pieces, members, rate))
    kinds = set()
    for pieces, packets, rate in cases:
        members = ref.member_columns(packets)
        new = outcome(edf_fill, pieces, members, rate)
        old = outcome(ref.edf_fill, pieces, members, rate)
        assert new == old, (pieces, members, rate)
        kinds.add(new[0] if new[0] == "value" else new[1].__name__)
    assert kinds >= {"value", "InternalIdle", "InternalDeadlineMiss", "ValueError"}


@st.composite
def grid_fills(draw):
    """An `edf_fill` call as `solve` and the baseline make one: the
    pieces are the runs of some epochs of a random grid, the members
    arrive and are due on its instants, and the rate is the members'
    bits over the pieces' length.  With a fault, one piece is split in
    two that overlap by one ulp, reversed, or followed by an empty one."""
    lengths = draw(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=10))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    grid = draw(st.sampled_from([0.0, 3.0, 1e4])) + scale * np.cumsum([0.0, *lengths])
    free = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    flips = np.flatnonzero(np.diff([False, *free, False]))
    assume(len(flips))
    pieces = list(zip(grid[flips[0::2]].tolist(), grid[flips[1::2]].tolist()))
    # each member's window spans the pieces, as the window's own packets
    # do, or a random part of that span
    span = st.lists(st.integers(flips[0], flips[-1]), min_size=2, max_size=2, unique=True)
    k = draw(st.integers(1, 6))
    ranges = [sorted(draw(st.one_of(st.just([flips[0], flips[-1]]), span))) for _ in range(k)]
    bits = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    ids = draw(st.permutations(range(1, k + 1)))
    members = (list(ids), bits, [float(grid[lo]) for lo, _ in ranges],
               [float(grid[hi]) for _, hi in ranges])
    rate = sum(bits) / sum(e - s for s, e in pieces)
    fault = draw(st.sampled_from([None, None, "overlap", "reversed", "empty"]))
    g = draw(st.integers(0, len(pieces) - 1))
    s, e = pieces[g]
    if fault == "overlap":
        mid = (s + e) / 2
        pieces[g:g + 1] = [(s, mid), (float(np.nextafter(mid, -np.inf)), e)]
    elif fault == "reversed":
        pieces[g] = (e, s)
    elif fault == "empty":
        pieces.insert(g + 1, (e, e))
    return pieces, members, rate, fault


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(grid_fills())
def test_edf_fill_grid_contract(call):
    """Faulty pieces are refused; otherwise the fill idles or misses a
    deadline, or its segments lie inside the pieces, disjoint and in
    time order, each within its member's window and each member given
    bits/rate of time, to eps; either way as the loop fill does."""
    pieces, members, rate, fault = call
    new = outcome(edf_fill, pieces, members, rate)
    assert new == outcome(ref.edf_fill, pieces, members, rate)
    if fault:
        assert new[:2] == ("raised", ValueError), new
        return
    if new[0] == "raised":
        assert new[1] in (InternalIdle, InternalDeadlineMiss), new
        return
    rows = new[1]
    eps = DUST_REL_TOL * max(abs(pieces[0][0]), abs(pieces[-1][1]))
    window = {pid: (a, d) for pid, _, a, d in zip(*members)}
    time = dict.fromkeys(window, 0.0)
    for k, (pid, start, end, r) in enumerate(rows):
        assert r == rate and start < end
        assert k == 0 or rows[k - 1][2] <= start
        assert any(s - eps <= start and end <= e + eps for s, e in pieces)
        a, d = window[pid]
        assert a - eps <= start and end <= d + eps
        time[pid] += end - start
    for pid, b in zip(members[0], members[1]):
        assert abs(time[pid] - b / rate) <= 2 * eps, (pid, time[pid], b / rate)


def _clustered_instances(rng, count):
    """Instances whose instants come in runs spaced just under, at and
    just over the time tolerance.  One packet from 0 and one to 10 pin
    the horizon at 10, so the tolerance is TIME_REL_TOL * 10 = 1e-9."""
    tol = TIME_REL_TOL * 10.0
    spacings = tol * np.array([0.6, 0.999, 1.0, 1.001, 1.5, 2.5])
    out = []
    for _ in range(count):
        pool = []
        for c in rng.uniform(1.0, 9.0, int(rng.integers(2, 6))):
            s = spacings[rng.integers(len(spacings))]
            pool.extend(float(c + k * s) for k in range(int(rng.integers(1, 5))))
        pool = sorted(pool)
        packets = [
            Packet(1, 1.0, 0.0, pool[rng.integers(len(pool))]),
            Packet(2, 1.0, pool[rng.integers(len(pool))], 10.0),
        ]
        for pid in range(3, int(rng.integers(3, 11))):
            a, d = sorted(rng.choice(len(pool), 2, replace=False))
            if pool[d] - pool[a] >= tol:
                packets.append(Packet(pid, 1.0, pool[a], pool[d]))
        inst = normalize_instance(packets)
        assert inst.time_tol == tol
        out.append(inst)
    return out


@st.composite
def spread_bits(draw):
    """Up to 8 packets on [0, 10], windows 0.5 to 5 long, whose bits are
    log-uniform over 12 decades, 1e-11 to 10, so the fastest rate stays
    where Shannon's power is finite."""
    n = draw(st.integers(1, 8))
    arrivals = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    lengths = draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
    decades = draw(st.lists(st.floats(-11.0, 1.0), min_size=n, max_size=n))
    deadlines = [a + x for a, x in zip(arrivals, lengths)]
    return normalize_columns(list(range(1, n + 1)), [10.0**e for e in decades], arrivals, deadlines)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(spread_bits())
def test_bits_spread_over_twelve_decades_certify(inst):
    """Every draw solves as the loop solver does and certifies, under
    Shannon and a monomial.  A bit rule of REL_TOL of each packet's own
    bits asked a small packet that shares a window with a large one for
    more precision than its time holds in float."""
    for model in (MODEL, Monomial(2.0)):
        text = schedule_to_json(solve(inst, model))
        assert text == schedule_to_json(ref.solve(inst, model))
        extract_certificate(inst, schedule_from_json(text, inst), model)


def on_grid(inst):
    """The instance with every arrival and deadline moved onto its grid
    instant, its rows kept."""
    grid = np.array(inst.decomposition.instants)
    lo, hi = inst.decomposition.lo, inst.decomposition.hi
    table = np.stack([inst.bits(), grid[lo], grid[hi]])
    table.flags.writeable = False
    return Instance(tuple(table), float(grid[-1]))


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("third", ["overlap", "gap"])
def test_deadlines_within_time_tol_certify(third, scale):
    """Packet 2 is due tol/2 before packet 1, so their deadlines are one
    grid instant; packet 3 overlaps it, or follows an idle gap of 0.9
    tol.  The solver transmits packet 1 only until that grid instant, so
    the verifier finds no time outside a window; solving on raw instants
    sent packet 1 on to its own deadline, and the certificate refused it."""
    tol = TIME_REL_TOL * 2.0
    late = (0.8, 2.0) if third == "overlap" else (1.0 + 0.9 * tol, 2.0)
    rows = [(0.0, 1.0), (0.5, 1.0 - 0.5 * tol), late]
    inst = normalize_instance(
        Packet(i + 1, scale, a * scale, d * scale) for i, (a, d) in enumerate(rows)
    )
    due = inst.decomposition.instants[inst.decomposition.hi[0]]
    assert due == (1.0 - 0.5 * tol) * scale
    sched = certified(inst)
    assert sched.segments.end[sched.segments.packet == 1].max() <= due


def test_grid_copies_solve_alike():
    """Each clustered instance and its copy with every instant on its
    grid point give byte-identical schedule JSON, and certify.

    A window a few time tolerances long, 1e-9 s here, at an instant near
    1 s holds a transmission time of about 1e7 float steps, so its bits
    are delivered only to within what its rate sends in float dust of
    time, the rule `bits_mismatch` allows.  (Shannon power overflows at
    the rates of such windows, so the law is a monomial.)"""
    model = Monomial(2.0, 1.0)
    for inst in _clustered_instances(np.random.default_rng(12), 150):
        outcomes = []
        for copy in (inst, on_grid(inst)):
            assert np.array_equal(copy.decomposition.instants, inst.decomposition.instants)
            text = schedule_to_json(solve(copy, model))
            extract_certificate(copy, schedule_from_json(text, copy), model)
            outcomes.append(text)
        assert outcomes[0] == outcomes[1]


@st.composite
def tol_windows(draw):
    """(arrivals, deadlines): a packet across the whole horizon, and up to
    7 windows at a random origin and time scale, each one time tolerance
    long with its deadline moved by up to 4 ulps either way.  A window
    starts at a random instant, at the previous window's deadline or at
    its arrival."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    origin = draw(st.floats(-1e3, 1e3)) * scale
    horizon = draw(st.floats(1.0, 10.0)) * scale
    tol = TIME_REL_TOL * ((origin + horizon) - origin)
    arrivals, deadlines = [origin], [origin + horizon]
    for _ in range(draw(st.integers(1, 7))):
        where = draw(st.sampled_from(["random", "after", "with"]))
        if where == "random" or len(arrivals) == 1:
            a = origin + draw(st.floats(0.0, 0.99)) * horizon
        else:
            a = deadlines[-1] if where == "after" else arrivals[-1]
        d = a + tol
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            d = float(np.nextafter(d, ulps * np.inf))
        arrivals.append(a)
        deadlines.append(d)
    return arrivals, deadlines


def test_windows_near_time_tol_keep_two_instants_and_solve():
    """Whatever `normalize_columns` accepts keeps each window's arrival
    and deadline on two grid instants, and `solve` neither idles, misses a
    deadline nor runs out of candidates on it, and the schedule
    certifies.  A window a time tolerance long at an instant far from 0
    holds only a few float steps, so its bits are delivered only to
    within what its rate sends in float dust of time, as in the
    clustered instances above."""
    model = Monomial(2.0, 1.0)
    solved = []

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(tol_windows())
    def check(windows):
        arrivals, deadlines = windows
        ids = list(range(1, len(arrivals) + 1))
        while True:  # drop each packet the rules refuse
            try:
                inst = normalize_columns(ids, [1.0] * len(ids), arrivals, deadlines)
                break
            except MalformedPacket as exc:
                k = ids.index(exc.packet_id)
                del ids[k], arrivals[k], deadlines[k]
        assert np.all(inst.decomposition.lo < inst.decomposition.hi)
        sched = solve(inst, model)
        extract_certificate(inst, schedule_from_json(schedule_to_json(sched), inst), model)
        solved.append(inst.n)

    check()
    assert len(solved) >= 250, len(solved)


def test_baseline_books_no_time_outside_a_window():
    """The baseline claims free epochs of the grid and fills them from the
    members' grid instants, so its schedule is feasible, with no packet
    transmitting outside its window, however closely the raw instants
    cluster.  Claiming time between raw instants booked some outside it
    in 7 of these instances."""
    model = Monomial(2.0, 1.0)
    for k, inst in enumerate(_clustered_instances(np.random.default_rng(12), 150)):
        report = check_feasible(inst, baseline_constant_edf(inst, model))
        assert report.ok, (k, report.violations)


def test_ranges_match_set_families():
    rng = np.random.default_rng(12)
    instances = _clustered_instances(rng, 150)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        arr = rng.uniform(0, 10, n)
        instances.append(normalize_instance(
            Packet(i + 1, 1.0, float(a), float(a + rng.uniform(0.1, 5)))
            for i, a in enumerate(arr)
        ))
    merged_runs = 0
    for inst in instances:
        d, sets = decompose(inst), ref.decompose_sets(inst)
        assert d.instants.tolist() == list(sets.instants)
        assert d.m == sets.m
        for i in range(inst.n):
            epochs = frozenset(range(d.lo[i] + 1, d.hi[i] + 1))
            assert sets.epoch_sets_per_packet[i] == epochs
        assert ref.epoch_sets_per_packet(d) == sets.epoch_sets_per_packet
        assert ref.packet_sets_per_epoch(d) == sets.packet_sets_per_epoch
        assert (np.flatnonzero(d.coverage) + 1).tolist() == [
            j for j in range(1, d.m + 1) if sets.packet_sets_per_epoch[j - 1]
        ]
        raw = np.unique(np.concatenate([inst.arrivals(), inst.deadlines()]))
        merged_runs += len(raw) - len(d.instants)
    assert merged_runs > 0


def test_greedy_clustering_anchors_on_the_representative():
    # horizon 1, so the tolerance is TIME_REL_TOL: at 0, 0.6 and 1.2
    # tolerances, neighbours are all within it, but the third instant is
    # 1.2 tolerances from the cluster's first, so it starts a new grid point
    tol = TIME_REL_TOL
    inst = normalize_instance([
        Packet(1, 1.0, 0.0, 1.2 * tol), Packet(2, 1.0, 0.6 * tol, 1.0)
    ])
    assert inst.time_tol == tol
    d = decompose(inst)
    assert d.instants.tolist() == [0.0, 1.2 * tol, 1.0]
    assert (d.lo.tolist(), d.hi.tolist()) == ([0, 0], [1, 2])


def idle_gap_instance():
    """Packet 3 arrives after the others end: an epoch no packet can use."""
    return normalize_instance([
        Packet(1, 1.0, 0.0, 1.0), Packet(2, 0.8, 0.2, 0.9), Packet(3, 1.2, 2.0, 3.5),
    ])


def backtrack_instance():
    """Three packets whose Armijo search takes four or more trials on one
    step under Monomial(3): past the oracle's batch of three."""
    return normalize_instance([
        Packet(1, 0.05, 0.0, 2.0), Packet(2, 3.0, 0.0, 2.0), Packet(3, 0.5, 1.0, 1.2),
    ])


def pgd_cases():
    """(label, instance, model, solver keywords) for the oracle
    comparison; the long runs are cut short by `max_iters`.  The
    `crosscheck` cases are the benchmark workload's shape."""
    cases = [(label, inst, MODEL, {}) for label, inst in corpus_instances()]
    for n, model, seeds, label in (
        (8, MODEL, (1, 2, 3), "generator"),
        (16, MODEL, (1, 2, 3), "generator"),
        (12, Monomial(2.0), (1, 2, 3), "generator"),
        (20, Monomial(1.5), (1, 2, 3), "generator"),
        (12, Monomial(1.5), (1, 2, 3, 4), "crosscheck"),
    ):
        for seed in seeds:
            config = GeneratorConfig(
                n=n, horizon=n + 2, seed=seed, non_fifo_prob=0.5,
                bits_range=(0.4, 1.5), min_window_frac=0.1,
            )
            cases.append((f"{label}-{n}-{seed}", generate(config), model, {}))
    return cases + [
        ("backtrack", backtrack_instance(), Monomial(3.0), {}),
        ("nested-30", nested_instance(n=30), MODEL, {"max_iters": 300}),
        ("idle-gap", idle_gap_instance(), MODEL, {}),
        ("single", normalize_instance([Packet(1, 1.0, 0.0, 1.0)]), MODEL, {}),
        # the generator default at N=50 stalls from its proportional start
        ("stall-50", generate(GeneratorConfig(n=50, seed=0)), MODEL, {"max_iters": 50}),
    ]


def test_pgd_matches_reference_loop():
    """Every iterate of the packed gather/scatter projection is the
    per-column loop's, bit for bit: the same table, totals, rates,
    energy, iteration count, residual, flag and energy history."""
    assert (decompose(idle_gap_instance()).coverage == 0).any()
    fields = ("tau", "total_times", "rates", "energy", "iterations", "residual",
              "converged", "energy_history")
    for label, inst, model, kwargs in pgd_cases():
        new = solve_projected_gradient(inst, model, track_history=True, **kwargs)
        old = ref.solve_projected_gradient(inst, model, track_history=True, **kwargs)
        for name in fields:
            a, b = np.asarray(getattr(new, name)), np.asarray(getattr(old, name))
            assert a.dtype == b.dtype and a.shape == b.shape, (label, name)
            assert a.tobytes() == b.tobytes(), (label, name)


def test_pgd_backtracks_past_the_batch_width(monkeypatch):
    """The `backtrack` case needs more than one batch of Armijo trials on
    some step: the solver calls g once per step and once for the final
    probe, and projects once per batch and once for the probe."""
    calls = {"g": 0, "project": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(Monomial, "g", counting("g", Monomial.g))
    monkeypatch.setattr(oracle, "_project_columns", counting("project", oracle._project_columns))
    sol = solve_projected_gradient(backtrack_instance(), Monomial(3.0))
    steps, batches = calls["g"] - 1, calls["project"] - 1
    assert sol.iterations <= steps < batches


@pytest.mark.parametrize("n", [1, 2, 12, 500])
def test_generated_text_matches_reference(n):
    """`instance_to_json(generate(config))` is the old loop's and old
    writer's text, byte for byte, across densities, window floors,
    time scales, bit ranges and seeds; the instances agree in
    `is_non_fifo` with the set comprehension too."""
    grid = itertools.product(
        [0.0, 0.3, 1.0],
        [0.01, 0.05, 0.1],
        [1e-3, 1.0, n / 2, 1e6],
        [(0.5, 4.0), (0.4, 1.5), (1e-3, 1e3), (2.0, 2.0)],
        [0] if n == 500 else [0, 7, 2**40],
    )
    for prob, frac, horizon, bits_range, seed in grid:
        config = GeneratorConfig(
            n=n, horizon=horizon, seed=seed, non_fifo_prob=prob,
            bits_range=bits_range, min_window_frac=frac,
        )
        inst = generate(config)
        assert instance_to_json(inst) == ref.instance_to_json(ref.generate(config)), config
        assert is_non_fifo(inst) == ref.non_fifo_ids(inst), config


@pytest.mark.parametrize("noise", [1.0, 2, 1e-7, 1e16, 5e-324, 0.1])
def test_exponent_floats_written_as_json_dumps(noise):
    """Floats that print in exponent form, negative zero and a Python
    int noise power come out as `json.dumps(indent=2)` writes them."""
    insts = [
        normalize_columns([3, 1, 2], [5e-324, 1e16, 1e-7], [0.0, 1e-7, 2e-7], [3e-7, 1e-6, 5e-7]),
        normalize_columns([1, 2], [1e-7, 1e-7], [1e16, 1e16 + 4.0], [3e16, 2e16]),
        Instance((np.array([1e300, 2.5]), np.array([-0.0, 0.0]), np.array([1e-300, 1e22])), 1e22),
    ]
    for inst in insts:
        assert instance_to_json(inst, noise) == ref.instance_to_json(inst, noise)


def test_is_non_fifo_matches_set_comprehension():
    """The prefix maximum flags what the per-packet comparison flags,
    tied arrivals and shared endpoints included."""
    instances = [inst for _, inst in corpus_instances()] + [
        generate(GeneratorConfig(n=n, seed=seed, non_fifo_prob=prob))
        for n, seed, prob in itertools.product([1, 5, 40], [0, 3], [0.0, 0.5, 1.0])
    ] + [
        # ties: the same arrival never nests, however the deadlines lie
        normalize_columns([1, 2, 3, 4], [1.0] * 4, [0.0, 0.0, 1.0, 1.0], [3.0, 2.0, 2.5, 2.0]),
        normalize_columns([1, 2], [1.0, 1.0], [0.0, 0.5], [2.0, 2.0]),
        chain_instance(60, 7),
    ]
    for inst in instances:
        assert is_non_fifo(inst) == ref.non_fifo_ids(inst)
    assert is_non_fifo(instances[-3]) == {3, 4}
