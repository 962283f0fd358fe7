"""The per-period solver, the rank-histogram candidate grid, the
range-based decomposition, the vectorized verifier, the heap EDF fill,
the sparse allocation table and the packed-column projected-gradient
oracle against the loop and matmul implementations in
reference_impl.py.

Every comparison is exact: identical schedule JSON, the same violation
strings in the same order, equal reports, epoch conditions and member
sets, bit-identical rates, table cells and multipliers and identical
segments, or the same exception type and message.  The sparse tables
add their rows and columns in index order, as the loops do; numpy's
own dense sums round differently, and are compared by value.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import reference_impl as ref
from reference_impl import dense
from test_chain_family import chain_instance

from txsched import (
    GeneratorConfig,
    Monomial,
    Packet,
    PairTable,
    Schedule,
    Segment,
    Shannon,
    baseline_constant_edf,
    check_feasible,
    check_optimality,
    decompose,
    edf_fill,
    extract_certificate,
    generate,
    harness,
    instance_from_json,
    normalize_instance,
    schedule_from_allocation,
    schedule_from_json,
    schedule_to_json,
    scheduler,
    solve,
    solve_projected_gradient,
)
from txsched.model import TIME_REL_TOL

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
    """`waiting` holds the (packet, epoch) pairs gamma must be held on."""
    assert new[0] == old[0], (where, new, old)
    if new[0] == "raised":
        assert new == old, where
        return
    gamma = new[1].gamma
    cells = set(zip((gamma.rows + 1).tolist(), (gamma.cols + 1).tolist()))
    assert cells == waiting, where
    assert len(gamma.values) == len(waiting), where
    for name in ("beta", "gamma", "lam"):
        a, b = getattr(new[1], name), getattr(old[1], name)
        a = dense(a) if name == "gamma" else a
        assert a.dtype == b.dtype and a.shape == b.shape, (where, name)
        assert a.tobytes() == b.tobytes(), (where, name)


def condition_key(c):
    return (c.epoch, c.positive, c.zero, c.equal_rates_ok, c.dominance_ok, c.common_rate)


def report_key(report):
    """Every field of a report, with each epoch condition's member sets."""
    return (
        report.feasible,
        report.constant_rate_ok,
        list(report.non_idling_ok.items()),
        [condition_key(c) for c in report.epoch_rate_conditions],
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
        assert report_key(new[1]) == report_key(old[1]), where
        for c in new[1].epoch_rate_conditions:
            assert (c.n_positive, c.n_zero) == (len(c.positive), len(c.zero)), where
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
    """The schedule with some fields replaced; a `tau` is a dense table."""
    fields = dict(
        rates=schedule.rates.copy(),
        segments=schedule.segments,
        energy=schedule.energy,
        trace=schedule.trace,
    )
    fields.update(kwargs)
    fields["tau"] = PairTable.from_dense(kwargs["tau"]) if "tau" in kwargs else schedule.tau
    return Schedule(**fields)


def with_segment(schedule, k, seg):
    segs = schedule.segments
    return replaced(schedule, segments=segs[:k] + (seg,) + segs[k + 1 :])


def mutations(inst, s, seed=0):
    """The schedule tampered in each way tests/test_verifier.py checks:
    causality, bit conservation, overlap, allocation outside a window,
    an over-capacity epoch, an idle epoch, unequal rates in an epoch and
    a dominance inversion; plus a mismatched rate and stored energy."""
    rng = np.random.default_rng(seed)
    d = decompose(inst)
    lengths = d.epoch_lengths()
    segs = list(s.segments)
    table = dense(s.tau)
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
        tau = table.copy()
        tau[i, c] = 0.1 * lengths[c]
        out["outside window"] = replaced(s, tau=tau)

    k = int(rng.integers(len(rows)))
    tau = table.copy()
    tau[rows[k], cols[k]] += lengths[cols[k]]
    out["over capacity"] = replaced(s, tau=tau)

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

    out["unknown packet"] = replaced(
        s, segments=s.segments + (Segment(inst.n + 1, 0.0, 1e-3, 1.0),)
    )
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
    assert_table_is(sched.tau, loop_tau)
    assert_table_is(back.tau, loop_tau)
    baseline = baseline_constant_edf(inst, MODEL)
    assert_same_verdicts(inst, baseline)
    assert_sums_match_dense(sched.tau)
    assert_sums_match_dense(baseline.tau)
    for name, mutated in mutations(inst, sched).items():
        assert_same_verdicts(inst, mutated, where=name)
        assert_sums_match_dense(mutated.tau)


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
    )
    return [pytest.param(inst, id=label) for label, inst in labelled]


def assert_same_solution(inst):
    """The per-period solve against the global round loop on the matmul
    grid, and the allocation table rebuilt from its JSON against the
    loop table.  In one busy period both examine the same windows."""
    new, old = solve(inst, MODEL), ref.solve(inst, MODEL)
    text = schedule_to_json(new)
    assert text == schedule_to_json(old)
    assert new.rates.tobytes() == old.rates.tobytes()
    if len(scheduler._busy_periods(inst.arrivals(), inst.deadlines(), inst.time_tol)) == 1:
        candidates = [st.candidates for st in new.trace.steps]
        assert candidates == [st.candidates for st in old.trace.steps]
    assert_table_is(new.tau, dense(old.tau))
    back = schedule_from_json(text, inst)
    assert_table_is(back.tau, ref.tau_from_segments(inst, decompose(inst), back.segments))
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
    split = scheduler._busy_periods(inst.arrivals(), inst.deadlines(), inst.time_tol)
    assert len(split) == periods
    sched = assert_same_solution(inst)
    assert [set(st.members) for st in sched.trace.steps] == [{2}, {4}, {3}, {1}]
    extract_certificate(inst, sched, MODEL)


def grid_inputs():
    """(arrivals, deadlines, bits, tol) for the grid comparison."""
    rng = np.random.default_rng(17)
    cases = []
    # a lattice of eighths with tol a quarter: repeated instants, and
    # instants exactly tol and tol/2 apart, as exact floats
    for _ in range(40):
        k = int(rng.integers(1, 25))
        a = rng.integers(0, 32, k) / 8.0
        d = a + rng.integers(1, 24, k) / 8.0
        cases.append((a, d, rng.uniform(0.1, 3.0, k), 0.25))
    # instants just inside, at and just outside time_tol of each other
    for _ in range(40):
        k = int(rng.integers(2, 25))
        tol = TIME_REL_TOL * 20.0
        offsets = np.array([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0]) * tol
        base = rng.uniform(0.0, 10.0, 4)
        a = rng.choice(base, k) + rng.choice(offsets, k)
        d = rng.choice(base + 10.0, k) - rng.choice(offsets, k)
        cases.append((a, d, rng.uniform(0.1, 3.0, k), tol))
    # positions after reservations: instants inside a reserved piece
    # collapse onto its cut, and windows can shrink to nothing
    for _ in range(40):
        k = int(rng.integers(1, 25))
        a = rng.uniform(0.0, 15.0, k)
        d = a + rng.uniform(0.2, 5.0, k)
        edges = np.sort(rng.uniform(0.0, 20.0, 2 * int(rng.integers(1, 6))))
        reserved = [(float(edges[i]), float(edges[i + 1])) for i in range(0, len(edges), 2)]
        tol = TIME_REL_TOL * 20.0
        cases.append((
            scheduler._positions(a, reserved),
            scheduler._positions(d, reserved),
            rng.uniform(0.1, 3.0, k),
            tol,
        ))
    return cases


def test_histogram_grid_matches_matmul_grid():
    """The same windows, the same packets in each, the same rates to
    1e-13 and the same selected cell as the dense matmul grid; the
    same valid cells, so the same `IterationStep.candidates`."""
    checked = 0
    for arrivals, deadlines, bits, tol in grid_inputs():
        starts, ends, start_rank, end_rank, rates, valid = scheduler._candidate_grid(
            arrivals, deadlines, bits, tol
        )
        old = ref.candidate_grid(arrivals, deadlines, bits, tol)
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
            cell = scheduler._argmax_lex(rates, valid, starts, ends)
            assert cell == scheduler._argmax_lex(old[4], old[5], starts, ends)
    assert checked > 100


def test_tau_from_segments_matches_loop():
    # random segments: many per cell (so the summation order shows),
    # edges on grid instants give or take less than the dust, spans of
    # many epochs, segments out of the grid and degenerate ones
    inst = nested_instance(n=30, seed=2)
    decomp = decompose(inst)
    grid = np.array(decomp.instants)
    dust = scheduler._PIECE_EPS * inst.horizon
    rng = np.random.default_rng(9)
    for _ in range(20):
        segments = []
        for _ in range(200):
            t0 = float(rng.choice(grid) + rng.choice([0.0, 0.5, -0.5, 2.0]) * dust
                       if rng.random() < 0.5 else rng.uniform(-1.0, inst.horizon + 1.0))
            width = float(rng.choice([0.5 * dust, -1e-3, 5.0]) if rng.random() < 0.2
                          else rng.uniform(1e-4, 0.3))
            segments.append(Segment(int(rng.integers(1, 4)), t0, t0 + width, 1.0))
        new = scheduler._tau_from_segments(inst, segments)
        assert_table_is(new, ref.tau_from_segments(inst, decomp, segments))
    assert_table_is(
        scheduler._tau_from_segments(inst, []), np.zeros((inst.n, decomp.m))
    )


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
        # the second piece starts a hair before the first one ends; the
        # second member arrives just under, at and just over the time
        # tolerance (TIME_REL_TOL times the latest deadline) after it
        *(([(0.0, 1.0), (1.0 - 5e-13, 2.0)],
           [P(1, 1.0, 0.0, 2.0), P(2, 1.0, 1.0 + k * TIME_REL_TOL * 2.0, 2.0)], 1.0)
          for k in (0.5, 1.0, 2.0)),
        # idle: nothing has arrived
        ([(0.0, 1.0)], [P(1, 1.0, 0.5, 1.0)], 2.0),
        # deadline miss: rate too low
        ([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 0.5),
        # a member unfinished at its deadline while another one runs
        ([(0.0, 2.0)], [P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 0.5)], 1.0),
        # leftovers after all pieces
        ([(0.0, 1.0)], [P(1, 1.0, 0.0, 3.0), P(2, 1.0, 0.0, 3.0)], 1.0),
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
    for pieces, members, rate in cases:
        new = outcome(edf_fill, pieces, members, rate)
        old = outcome(ref.edf_fill, pieces, members, rate)
        assert new == old, (pieces, members, rate)
        kinds.add(new[0] if new[0] == "value" else new[1].__name__)
    assert kinds >= {"value", "InternalIdle", "InternalDeadlineMiss", "ValueError"}


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
        assert d.instants == sets.instants
        assert d.epochs == sets.epochs
        for i in range(inst.n):
            epochs = frozenset(range(d.lo[i] + 1, d.hi[i] + 1))
            assert sets.epoch_sets_per_packet[i] == epochs
        assert d.epoch_sets_per_packet == sets.epoch_sets_per_packet
        assert d.packet_sets_per_epoch == sets.packet_sets_per_epoch
        assert d.live_epochs() == [
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
    assert d.instants == (0.0, 1.2 * tol, 1.0)
    assert (d.lo, d.hi) == ((0, 0), (1, 2))


def idle_gap_instance():
    """Packet 3 arrives after the others end: an epoch no packet can use."""
    return normalize_instance([
        Packet(1, 1.0, 0.0, 1.0), Packet(2, 0.8, 0.2, 0.9), Packet(3, 1.2, 2.0, 3.5),
    ])


def pgd_cases():
    """(label, instance, model, solver keywords) for the oracle
    comparison; the long runs are cut short by `max_iters`."""
    cases = [(label, inst, MODEL, {}) for label, inst in corpus_instances()]
    for n, model in ((8, MODEL), (16, MODEL), (12, Monomial(2.0)), (20, Monomial(1.5))):
        for seed in (1, 2, 3):
            config = GeneratorConfig(
                n=n, horizon=n + 2, seed=seed, non_fifo_prob=0.5,
                bits_range=(0.4, 1.5), min_window_frac=0.1,
            )
            cases.append((f"generator-{n}-{seed}", generate(config), model, {}))
    return cases + [
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
    assert (decompose(idle_gap_instance()).coverage() == 0).any()
    fields = ("tau", "total_times", "rates", "energy", "iterations", "residual",
              "converged", "energy_history")
    for label, inst, model, kwargs in pgd_cases():
        new = solve_projected_gradient(inst, model, track_history=True, **kwargs)
        old = ref.solve_projected_gradient(inst, model, track_history=True, **kwargs)
        for name in fields:
            a, b = np.asarray(getattr(new, name)), np.asarray(getattr(old, name))
            assert a.dtype == b.dtype and a.shape == b.shape, (label, name)
            assert a.tobytes() == b.tobytes(), (label, name)
