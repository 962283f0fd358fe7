"""The range-based decomposition, the vectorized verifier and the heap
EDF fill against the loop implementations in reference_impl.py.

Every comparison is exact: the same violation strings in the same
order, equal reports and epoch conditions, bit-identical multipliers
and identical segments, or the same exception type and message.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import reference_impl as ref
from test_chain_family import chain_instance

from txsched import (
    GeneratorConfig,
    Monomial,
    Packet,
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


def assert_same_certificate(new, old, where=""):
    assert new[0] == old[0], (where, new, old)
    if new[0] == "raised":
        assert new == old, where
        return
    for name in ("beta", "gamma", "lam"):
        a, b = getattr(new[1], name), getattr(old[1], name)
        assert a.dtype == b.dtype and a.shape == b.shape, (where, name)
        assert a.tobytes() == b.tobytes(), (where, name)


def assert_same_verdicts(inst, sched, model=MODEL, where=""):
    new = outcome(check_feasible, inst, sched)
    assert new == outcome(ref.check_feasible, inst, sched), where
    new = outcome(check_optimality, inst, sched, model)
    old = outcome(ref.check_optimality, inst, sched, model)
    assert new == old, where
    if new[0] == "value":
        a, b = new[1], old[1]
        assert a.feasible.violations == b.feasible.violations, where
        assert list(a.non_idling_ok.items()) == list(b.non_idling_ok.items()), where
        assert a.epoch_rate_conditions == b.epoch_rate_conditions, where
        assert a.warnings == b.warnings, where
    assert_same_certificate(
        outcome(extract_certificate, inst, sched, model),
        outcome(ref.extract_certificate, inst, sched, model),
        where,
    )
    return new


def replaced(schedule, **kwargs):
    fields = dict(
        rates=schedule.rates.copy(),
        tau=schedule.tau.copy(),
        segments=schedule.segments,
        energy=schedule.energy,
        trace=schedule.trace,
    )
    fields.update(kwargs)
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
        tau = s.tau.copy()
        tau[i, c] = 0.1 * lengths[c]
        out["outside window"] = replaced(s, tau=tau)

    k = int(rng.integers(len(rows)))
    tau = s.tau.copy()
    tau[rows[k], cols[k]] += lengths[cols[k]]
    out["over capacity"] = replaced(s, tau=tau)

    pos_r, pos_c = np.nonzero(s.tau > 1e-6)
    k = int(rng.integers(len(pos_r)))
    tau = s.tau.copy()
    tau[pos_r[k], pos_c[k]] *= 0.5
    out["idle epoch"] = schedule_from_allocation(inst, tau, MODEL)

    shared = [c for c in range(d.m) if np.count_nonzero(s.tau[:, c] > 1e-6) >= 2]
    if shared:
        c = shared[rng.integers(len(shared))]
        a, b = np.flatnonzero(s.tau[:, c] > 1e-6)[:2]
        tau = s.tau.copy()
        delta = 0.1 * min(tau[a, c], tau[b, c])
        tau[a, c] += delta
        tau[b, c] -= delta
        out["unequal rates"] = schedule_from_allocation(inst, tau, MODEL)

    waiting = [
        (r, c) for r, c in zip(rows.tolist(), cols.tolist())
        if s.tau[r, c] == 0 and np.any(s.tau[:, c] > 1e-6)
    ]
    if waiting:
        q, c = waiting[rng.integers(len(waiting))]
        p = int(np.argmax(s.tau[:, c]))
        tau = s.tau.copy()
        tau[q, c], tau[p, c] = tau[p, c], 0.0
        if tau[p].sum() > 0:
            out["dominance"] = schedule_from_allocation(inst, tau, MODEL)

    # Allocations spread over every feasible pair put many terms in each
    # epoch's sum, where summation order shows in the last bits.
    weight = rng.uniform(0.5, 1.5, len(rows))
    column_weight = np.bincount(cols, weights=weight, minlength=d.m)
    share = weight * lengths[cols] / column_weight[cols]
    for name, fill in (("spread allocation", 1.0), ("spread overfull", 1.5)):
        tau = np.zeros_like(s.tau)
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
    assert_same_verdicts(inst, baseline_constant_edf(inst, MODEL))
    for name, mutated in mutations(inst, sched).items():
        assert_same_verdicts(inst, mutated, where=name)


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
