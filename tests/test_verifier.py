import warnings

import numpy as np
import pytest

from txsched import (
    DimensionMismatch,
    GeneratorConfig,
    InfeasibleInput,
    NotOptimal,
    Packet,
    Schedule,
    Segment,
    Shannon,
    baseline_constant_edf,
    check_feasible,
    check_optimality,
    decompose,
    extract_certificate,
    generate,
    normalize_instance,
    schedule_from_allocation,
    solve,
)


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


def nested_instance():
    return normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])


MODEL = Shannon(1.0)


def tampered(schedule, **kwargs):
    return Schedule(
        rates=kwargs.get("rates", schedule.rates.copy()),
        tau=kwargs.get("tau", schedule.tau.copy()),
        segments=kwargs.get("segments", schedule.segments),
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
        segs = list(s.segments)
        # transmit packet 2 during [0, 0.5) although it arrives at 0.5
        segs[1] = Segment(2, 0.1, 0.6, 2.0)
        rep = check_feasible(inst, tampered(s, segments=tuple(segs)))
        assert not rep.ok
        assert any("causality" in v and "packet 2" in v for v in rep.violations)

    def test_underdelivery_flagged(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        s = solve(inst, MODEL)
        short = (Segment(1, 0.0, 0.9, 1.0),)
        tau = np.array([[0.9]])
        rep = check_feasible(inst, tampered(s, segments=short, tau=tau))
        assert not rep.ok
        assert any("bit conservation" in v for v in rep.violations)

    def test_overlap_flagged(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        segs = list(s.segments)
        segs[1] = Segment(2, 0.4, 0.9, 2.0)
        rep = check_feasible(inst, tampered(s, segments=tuple(segs)))
        assert not rep.ok
        assert any("overlap" in v for v in rep.violations)

    def test_allocation_outside_window_flagged(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        tau = s.tau.copy()
        tau[1, 0] = 0.1  # packet 2 cannot use the first epoch
        rep = check_feasible(inst, tampered(s, tau=tau))
        assert not rep.ok
        assert any("outside its window" in v for v in rep.violations)

    def test_epoch_overcommit_flagged(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        tau = s.tau.copy()
        tau[0, 1] = 0.4  # middle epoch is only 0.5 long and already full
        rep = check_feasible(inst, tampered(s, tau=tau))
        assert not rep.ok
        assert any("allocates" in v for v in rep.violations)

    def test_dimension_mismatch(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        with pytest.raises(DimensionMismatch):
            check_feasible(inst, tampered(s, tau=np.zeros((5, 7))))


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
        middle = [c for c in rep.epoch_rate_conditions if c.epoch == 2][0]
        assert middle.positive == frozenset({2})
        assert middle.zero == frozenset({1})
        assert middle.common_rate == pytest.approx(2.0)
        assert middle.equal_rates_ok and middle.dominance_ok

    def test_perturbed_allocation_fails(self):
        # moving time between the packets of a shared epoch breaks the
        # equal-rate condition
        inst = nested_instance()
        s = solve(inst, MODEL)
        tau = s.tau.copy()
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
        tau = np.array([[0.25], [0.25]])
        sched = tampered(
            s, segments=segs, tau=tau, rates=np.array([4.0, 4.0]), trace=None
        )
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
        segs = list(s.segments)
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
            if inst.n >= 2 and np.any(s.tau.sum(axis=0) > 0):
                tau = s.tau.copy()
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
        assert np.all(cert.gamma == 0)
        assert cert.lam[0] == pytest.approx(MODEL.g(1.0), rel=1e-12)

    def test_roundtrip_identity(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        cert = extract_certificate(inst, s, MODEL)
        d = decompose(inst)
        for i in range(1, inst.n + 1):
            for j in d.epoch_sets_per_packet[i - 1]:
                r = MODEL.g_inverse(max(cert.beta[j - 1] - cert.gamma[i - 1, j - 1], 0.0))
                assert r == pytest.approx(s.rates[i - 1], rel=1e-8)

    def test_multipliers_finite_and_signed(self):
        inst = nested_instance()
        cert = extract_certificate(inst, solve(inst, MODEL), MODEL)
        assert np.all(np.isfinite(cert.beta)) and np.all(cert.beta >= 0)
        assert np.all(np.isfinite(cert.gamma)) and np.all(cert.gamma >= 0)
        assert np.all(np.isfinite(cert.lam))

    def test_suboptimal_schedule_rejected(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        tau = s.tau.copy()
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
