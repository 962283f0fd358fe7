import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from reference_impl import Segment, dense, segment_list, segment_table
from test_chain_family import chain_instance
from test_equivalence import corpus_instances

from txsched import (
    DimensionMismatch,
    EpochDecomposition,
    GeneratorConfig,
    InfeasibleInput,
    Monomial,
    NotOptimal,
    Packet,
    PairTable,
    Schedule,
    SegmentTable,
    Shannon,
    baseline_constant_edf,
    check_feasible,
    check_optimality,
    decompose,
    epoch_times,
    extract_certificate,
    generate,
    normalize_instance,
    schedule_from_allocation,
    schedule_from_json,
    schedule_to_json,
    solve,
    verifier,
)


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


def nested_instance():
    return normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])


MODEL = Shannon(1.0)


def tampered(schedule, **kwargs):
    """The schedule with some fields replaced; segments may be given as
    a list of records."""
    segments = kwargs.get("segments", schedule.segments)
    return Schedule(
        rates=kwargs.get("rates", schedule.rates.copy()),
        segments=segments if isinstance(segments, SegmentTable) else segment_table(segments),
        energy=kwargs.get("energy", schedule.energy),
        trace=kwargs.get("trace", schedule.trace),
    )


class TestCheckFeasible:
    def test_solver_output_is_feasible(self):
        inst = nested_instance()
        rep = check_feasible(inst, solve(inst, MODEL))
        assert rep.ok
        assert rep.violations == ()

    def test_causality_violation_names_packet(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        segs = segment_list(s.segments)
        # transmit packet 2 during [0, 0.5) although it arrives at 0.5
        segs[1] = Segment(2, 0.1, 0.6, 2.0)
        rep = check_feasible(inst, tampered(s, segments=tuple(segs)))
        assert not rep.ok
        assert any("causality" in v and "packet 2" in v for v in rep.violations)

    def test_underdelivery_flagged(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        s = solve(inst, MODEL)
        short = (Segment(1, 0.0, 0.9, 1.0),)
        rep = check_feasible(inst, tampered(s, segments=short))
        assert not rep.ok
        assert any("bit conservation" in v for v in rep.violations)

    def test_overlap_flagged(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        segs = segment_list(s.segments)
        segs[1] = Segment(2, 0.4, 0.9, 2.0)
        rep = check_feasible(inst, tampered(s, segments=tuple(segs)))
        assert not rep.ok
        assert any("overlap" in v for v in rep.violations)

    def test_allocation_outside_window_flagged(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        # packet 2 cannot use the first epoch, [0, 0.5]
        extra = Segment(2, 0.2, 0.3, 2.0)
        rep = check_feasible(inst, tampered(s, segments=segment_list(s.segments) + [extra]))
        assert not rep.ok
        assert any("outside its window" in v for v in rep.violations)

    def test_epoch_overcommit_flagged(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        # the middle epoch is only 0.5 long and already full
        extra = Segment(1, 0.5, 0.9, 4.0 / 3.0)
        rep = check_feasible(inst, tampered(s, segments=segment_list(s.segments) + [extra]))
        assert not rep.ok
        assert any("allocates" in v for v in rep.violations)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_halved_tau_row_refused_at_any_scale(self, scale):
        # the tau-total tolerance scales with the packet's own time, so a
        # halved row is refused when time and bits shrink to 1e-12 too;
        # halving each of packet 6's segments halves its row
        inst = chain_instance(n=60, seed=0, horizon=60.0, scale=scale)
        s = solve(inst, MODEL)
        segs = tuple(
            Segment(g.packet, g.t_start, g.t_start + 0.5 * g.duration, g.rate)
            if g.packet == 6 else g
            for g in segment_list(s.segments)
        )
        assert dense(epoch_times(inst, tampered(s, segments=segs)))[5].sum() == (
            pytest.approx(0.5 * dense(epoch_times(inst, s))[5].sum(), rel=1e-12, abs=0)
        )
        rep = check_feasible(inst, tampered(s, segments=segs))
        assert [v for v in rep.violations if "tau total" in v] == [
            v for v in rep.violations if v.startswith("packet 6 tau total")
        ] != []

    @pytest.mark.parametrize("where", ["segment", "assigned"])
    def test_nan_rate_refused(self, where):
        # every comparison with NaN is false, so a test written as
        # `error > tol` would let a NaN rate through
        for label, inst in corpus_instances():
            s = solve(inst, MODEL)
            if where == "segment":
                rate = s.segments.rate.copy()
                rate[0] = np.nan
                bad = tampered(s, segments=dataclasses.replace(s.segments, rate=rate))
            else:
                rates = s.rates.copy()
                rates[0] = np.nan
                bad = tampered(s, rates=rates)
            assert not check_feasible(inst, bad).ok, label
            with pytest.raises(InfeasibleInput):
                extract_certificate(inst, bad, MODEL)

    def test_dimension_mismatch(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        with pytest.raises(DimensionMismatch):
            check_feasible(inst, tampered(s, rates=np.zeros(5)))


class TestCheckOptimality:
    def test_solver_output_is_optimal(self):
        inst = nested_instance()
        rep = check_optimality(inst, solve(inst, MODEL), MODEL)
        assert rep.optimal
        assert rep.constant_rate_ok
        assert all(rep.non_idling_ok.values())
        assert rep.monotone_iteration_rates_ok is True

    def test_nested_epoch_partition(self):
        # the middle epoch: inner packet transmits at 2, outer waits at 4/3
        inst = nested_instance()
        rep = check_optimality(inst, solve(inst, MODEL), MODEL)
        conds = rep.epoch_rate_conditions
        assert conds.members(2) == (frozenset({2}), frozenset({1}))
        assert conds.common_rates()[1] == pytest.approx(2.0)
        assert conds.failed() == []

    def test_perturbed_allocation_fails(self):
        # moving time between the packets of a shared epoch breaks the
        # equal-rate condition
        inst = nested_instance()
        s = solve(inst, MODEL)
        tau = dense(epoch_times(inst, s))
        tau[0, 1] += 0.1
        tau[1, 1] -= 0.1
        perturbed = schedule_from_allocation(inst, tau, MODEL)
        rep = check_optimality(inst, perturbed, MODEL)
        assert not rep.optimal
        assert perturbed.energy > s.energy

    def test_idle_epoch_fails(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 1.0)])
        s = solve(inst, MODEL)
        # hand-build a schedule that leaves half the epoch idle
        segs = (Segment(1, 0.0, 0.25, 4.0), Segment(2, 0.25, 0.5, 4.0))
        sched = tampered(s, segments=segs, rates=np.array([4.0, 4.0]), trace=None)
        sched.energy = 0.5 * MODEL.power(4.0)
        rep = check_optimality(inst, sched, MODEL)
        assert not rep.optimal
        assert not rep.non_idling_ok[1]

    def test_single_packet_trivially_optimal(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        rep = check_optimality(inst, solve(inst, MODEL), MODEL)
        assert rep.optimal

    def test_infeasible_input_rejected(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        segs = segment_list(s.segments)
        segs[1] = Segment(2, 0.1, 0.6, 2.0)
        with pytest.raises(InfeasibleInput):
            check_optimality(inst, tampered(s, segments=tuple(segs)), MODEL)

    def test_verification_is_repeatable(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        a = check_optimality(inst, s, MODEL)
        b = check_optimality(inst, s, MODEL)
        assert a == b

    def test_equal_arrivals_flagged_not_rejected(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 2.0)])
        rep = check_optimality(inst, solve(inst, MODEL), MODEL)
        assert rep.optimal
        assert any("equal arrival" in w for w in rep.warnings)

    def test_stored_energy_mismatch_warns(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        assert not check_optimality(inst, s, MODEL).warnings
        for energy in (s.energy * (1 + 1e-6), float("nan"), float("inf")):
            rep = check_optimality(inst, tampered(s, energy=energy), MODEL)
            assert any("stored energy" in w for w in rep.warnings), energy

    def test_overflowed_energy_warns(self):
        # the baseline's rates on this nested instance overflow Shannon's
        # power: the stored and the recomputed energy are both inf
        config = GeneratorConfig(n=200, horizon=100.0, seed=11, non_fifo_prob=1.0)
        inst = generate(config)
        sched = baseline_constant_edf(inst, MODEL)
        assert sched.energy == float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_optimality(inst, sched, MODEL)
        assert any("not finite" in w for w in rep.warnings)


class TestEpochTimes:
    def test_booked_once_per_pipeline(self, monkeypatch):
        # a schedule is its segments: solving and the JSON round trip
        # book no epoch table, and the certificate books one
        assert "tau" not in {f.name for f in dataclasses.fields(Schedule)}
        calls = []
        booking = verifier.epoch_times

        def counted(*args):
            calls.append(args)
            return booking(*args)

        monkeypatch.setattr(verifier, "epoch_times", counted)
        inst = chain_instance(n=60, seed=0, horizon=60.0)
        s = solve(inst, MODEL)
        back = schedule_from_json(schedule_to_json(s), inst)
        assert calls == []
        extract_certificate(inst, back, MODEL)
        assert len(calls) == 1

    def test_report_carries_the_booked_table(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        rep = check_feasible(inst, s)
        assert np.array_equal(dense(rep.tau), dense(epoch_times(inst, s)))
        assert np.allclose(dense(rep.tau), [[0.5, 0.0, 1.0], [0.0, 0.5, 0.0]])


class TestPairFree:
    """check_optimality and extract_certificate read the booked cells and
    the epoch ranges; they build no array over every feasible (packet,
    epoch) pair."""

    def test_corpus_certifies_without_the_pair_list(self, monkeypatch):
        cases = corpus_instances() + [
            ("nested-300", generate(GeneratorConfig(n=300, horizon=150.0, seed=4,
                                                    non_fifo_prob=1.0)))
        ]
        solved = [(inst, solve(inst, MODEL)) for _, inst in cases]

        def refuse(*args):
            raise AssertionError("a per-pair array was built")

        scanned = []
        pairs_in = EpochDecomposition.pairs_in

        def counted(self, columns):
            rows, cols = pairs_in(self, columns)
            scanned.append(len(rows))
            return rows, cols

        monkeypatch.setattr(EpochDecomposition, "pairs", refuse)
        monkeypatch.setattr(PairTable, "on_pairs", refuse)
        monkeypatch.setattr(EpochDecomposition, "pairs_in", counted)
        for inst, s in solved:
            assert check_optimality(inst, s, MODEL).optimal
            extract_certificate(inst, s, MODEL)
        # no epoch of an optimal schedule falls back to its pairs
        assert scanned and not any(scanned)

    def test_range_max_matches_pair_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 70))
            lo = rng.integers(0, m + 1, n)
            hi = np.minimum(lo + rng.integers(0, m + 1, n), m)  # some ranges empty
            values = rng.choice([*rng.normal(size=6), np.inf, -np.inf, np.nan], n)
            # the pair scan, through the decomposition's own enumeration
            d = EpochDecomposition(np.arange(m + 1.0), lo, hi)
            rows, cols = d.pairs()
            expected = np.full(m, -np.inf)
            with np.errstate(invalid="ignore"):
                np.maximum.at(expected, cols, values[rows])
                got = verifier._range_max(lo, hi, values, m)
            assert got.tobytes() == expected.tobytes()

    def test_nested_2000_checks_in_little_memory(self):
        inst = generate(GeneratorConfig(n=2000, horizon=1000.0, seed=7, non_fifo_prob=1.0))
        back = schedule_from_json(schedule_to_json(solve(inst, MODEL)), inst)
        tracemalloc.start()
        try:
            check_optimality(inst, back, MODEL)
            extract_certificate(inst, back, MODEL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20, peak / 2**20


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
@pytest.mark.parametrize("model", [Monomial(2.0), MODEL], ids=["monomial", "shannon"])
class TestRateTolerancesScaleFree:
    """The rate and energy tolerances are relative to the instance's own
    rates and energy, so shrinking the bits changes no verdict."""

    def instance(self, scale):
        return normalize_instance([P(1, 1.0 * scale, 0.0, 1.0), P(2, 3.0 * scale, 0.0, 2.0)])

    def test_dominance_inversion_refused(self, scale, model):
        # packet 1 alone in epoch 1 at rate 1, packet 2 alone in epoch 2
        # at rate 3 while it could run in epoch 1 too: the optimum runs
        # both at rate 2
        inst = self.instance(scale)
        sched = schedule_from_allocation(inst, [[1.0, 0.0], [0.0, 1.0]], model)
        assert check_feasible(inst, sched).ok
        rep = check_optimality(inst, sched, model)
        assert not rep.optimal
        assert rep.epoch_rate_conditions.failed() == [1]
        with pytest.raises(NotOptimal):
            extract_certificate(inst, sched, model)
        assert sched.energy > solve(inst, model).energy

    def test_off_rate_segment_and_stored_energy_flagged(self, scale, model):
        inst = self.instance(scale)
        s = solve(inst, model)
        g, *rest = segment_list(s.segments)
        segs = [dataclasses.replace(g, rate=g.rate * 1.001), *rest]
        rep = check_feasible(inst, tampered(s, segments=segs))
        assert any("assigned rate" in v for v in rep.violations)
        rep = check_optimality(inst, tampered(s, energy=s.energy * 1.001), model)
        assert any("stored energy" in w for w in rep.warnings)


class TestConditionsTrackOptimality:
    def test_pass_iff_energy_optimal_at_desk_scale(self):
        # solver, baseline and perturbed schedules on random instances:
        # passing the conditions must imply oracle-level energy, and
        # being measurably above the oracle must imply failing them
        from txsched import (
            GeneratorConfig,
            baseline_constant_edf,
            generate,
            solve_projected_gradient,
        )

        for seed in range(20):
            inst = generate(
                GeneratorConfig(
                    n=2 + seed % 5, horizon=6.0, seed=8800 + seed,
                    non_fifo_prob=0.6, min_window_frac=0.1,
                    bits_range=(0.4, 1.5),
                )
            )
            oracle = solve_projected_gradient(inst, MODEL, tol=1e-13)
            candidates = [solve(inst, MODEL), baseline_constant_edf(inst, MODEL)]
            s = candidates[0]
            if inst.n >= 2 and np.any(epoch_times(inst, s).col_sums() > 0):
                tau = dense(epoch_times(inst, s))
                j = int(np.argmax((tau > 1e-6).sum(axis=0)))
                rows = np.flatnonzero(tau[:, j] > 1e-6)
                if len(rows) >= 2:
                    tau[rows[0], j] -= 1e-3
                    tau[rows[1], j] += 1e-3
                    candidates.append(schedule_from_allocation(inst, tau, MODEL))
            for sched in candidates:
                if not check_feasible(inst, sched).ok:
                    continue
                report = check_optimality(inst, sched, MODEL)
                gap = abs(sched.energy - oracle.energy) / oracle.energy
                if report.optimal:
                    assert gap <= 1e-5, f"seed {seed}: passed but gap {gap:.2e}"
                if gap > 1e-5:
                    assert not report.optimal, (
                        f"seed {seed}: gap {gap:.2e} but conditions passed"
                    )


class TestCertificate:
    def test_nested_multipliers(self):
        # middle epoch prices at g(2); the waiting outer packet's
        # multiplier is the marginal-energy gap g(2) - g(4/3)
        inst = nested_instance()
        s = solve(inst, MODEL)
        cert = extract_certificate(inst, s, MODEL)
        g2 = MODEL.g(2.0)
        g43 = MODEL.g(4.0 / 3.0)
        assert cert.beta[1] == pytest.approx(g2, rel=1e-12)
        assert cert.beta[0] == pytest.approx(g43, rel=1e-9)
        assert cert.beta[2] == pytest.approx(g43, rel=1e-9)
        assert cert.gamma[0, 1] == pytest.approx(g2 - g43, rel=1e-9)
        assert cert.gamma[0, 1] > 0
        assert np.allclose(cert.lam, [g43, g2])

    def test_single_packet_certificate(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        s = solve(inst, MODEL)
        cert = extract_certificate(inst, s, MODEL)
        assert cert.beta[0] == pytest.approx(MODEL.g(1.0), rel=1e-12)
        assert np.all(cert.gamma.at(*decompose(inst).pairs()) == 0)
        assert cert.lam[0] == pytest.approx(MODEL.g(1.0), rel=1e-12)

    def test_roundtrip_identity(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        cert = extract_certificate(inst, s, MODEL)
        d = decompose(inst)
        for i in range(1, inst.n + 1):
            for j in range(d.lo[i - 1] + 1, d.hi[i - 1] + 1):
                r = MODEL.g_inverse(max(cert.beta[j - 1] - cert.gamma[i - 1, j - 1], 0.0))
                assert r == pytest.approx(s.rates[i - 1], rel=1e-8)

    def test_multipliers_finite_and_signed(self):
        inst = nested_instance()
        cert = extract_certificate(inst, solve(inst, MODEL), MODEL)
        assert np.all(np.isfinite(cert.beta)) and np.all(cert.beta >= 0)
        gamma = cert.gamma.at(*decompose(inst).pairs())
        assert np.all(np.isfinite(gamma)) and np.all(gamma >= 0)
        assert np.all(np.isfinite(cert.lam))

    def test_suboptimal_schedule_rejected(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        tau = dense(epoch_times(inst, s))
        tau[0, 1] += 0.1
        tau[1, 1] -= 0.1
        with pytest.raises(NotOptimal):
            extract_certificate(
                inst, schedule_from_allocation(inst, tau, MODEL), MODEL
            )

    def test_dead_epoch_prices_at_zero(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 2.0, 3.0)])
        cert = extract_certificate(inst, solve(inst, MODEL), MODEL)
        assert cert.beta[1] == 0.0
