import numpy as np
import pytest

from txsched import (
    GeneratorConfig,
    Packet,
    Shannon,
    TooLarge,
    decompose,
    generate,
    normalize_instance,
    solve,
    solve_grid,
    solve_projected_gradient,
)
from txsched.oracle import _project_columns


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


def nested_instance():
    return normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])


MODEL = Shannon(1.0)
NESTED_ENERGY = 0.5 * 15.0 + 1.5 * (2.0 ** (8.0 / 3.0) - 1.0)


def project_capped_simplex(v, cap):
    """The oracle's batched projection onto {x >= 0, sum(x) <= cap},
    run on a batch of one epoch column."""
    v = np.asarray(v, dtype=float)
    return _project_columns(v[None, :], np.array([cap]), np.array([len(v)]))[0]


class TestProjection:
    def test_under_cap_just_clips(self):
        out = project_capped_simplex(np.array([0.2, -0.5, 0.1]), 1.0)
        assert np.allclose(out, [0.2, 0.0, 0.1])

    def test_over_cap_projects_to_simplex(self):
        out = project_capped_simplex(np.array([2.0, 1.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0])
        out = project_capped_simplex(np.array([2.0, 2.0]), 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=5)
            once = project_capped_simplex(v, 1.0)
            twice = project_capped_simplex(once, 1.0)
            assert np.allclose(once, twice)

    def test_is_nearest_feasible_point(self):
        # no random feasible point may sit closer than the projection
        rng = np.random.default_rng(2)
        for _ in range(30):
            v = rng.normal(scale=2.0, size=4)
            x = project_capped_simplex(v, 1.5)
            assert np.all(x >= 0) and x.sum() <= 1.5 + 1e-12
            d_star = np.sum((x - v) ** 2)
            for _ in range(200):
                y = rng.uniform(0, 1, 4)
                y = y / y.sum() * rng.uniform(0, 1.5)
                assert np.sum((y - v) ** 2) >= d_star - 1e-9


class TestProjectedGradient:
    def test_single_packet(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        sol = solve_projected_gradient(inst, MODEL)
        assert sol.total_times[0] == pytest.approx(1.0, rel=1e-9)
        assert sol.rates[0] == pytest.approx(1.0, rel=1e-9)
        assert sol.energy == pytest.approx(3.0, rel=1e-9)
        assert sol.converged

    def test_nested_matches_hand_energy(self):
        sol = solve_projected_gradient(nested_instance(), MODEL)
        assert sol.energy == pytest.approx(NESTED_ENERGY, rel=1e-7)
        assert sol.rates[0] == pytest.approx(4.0 / 3.0, rel=1e-6)
        assert sol.rates[1] == pytest.approx(2.0, rel=1e-6)

    def test_zero_tolerance_flags_unconverged(self):
        sol = solve_projected_gradient(
            nested_instance(), MODEL, tol=0.0, max_iters=40
        )
        assert not sol.converged
        assert sol.iterations == 40
        assert np.isfinite(sol.energy)

    def test_energy_monotone_across_iterates(self):
        sol = solve_projected_gradient(
            nested_instance(), MODEL, track_history=True
        )
        h = sol.energy_history
        assert np.all(np.diff(h) <= 1e-12)

    def test_solution_is_feasible(self):
        inst = generate(GeneratorConfig(n=5, seed=9, non_fifo_prob=0.5,
                                        min_window_frac=0.1))
        sol = solve_projected_gradient(inst, MODEL)
        d = decompose(inst)
        assert np.all(sol.tau >= -1e-12)
        assert np.all(sol.tau.sum(axis=0) <= d.epoch_lengths() + 1e-9)
        for i in range(inst.n):
            outside = [
                j for j in range(1, d.m + 1)
                if j not in d.epoch_sets_per_packet[i]
            ]
            for j in outside:
                assert sol.tau[i, j - 1] == 0.0

    def test_non_idling_emerges(self):
        # the optimizer fills every usable epoch without being told to
        inst = nested_instance()
        sol = solve_projected_gradient(inst, MODEL)
        d = decompose(inst)
        lengths = d.epoch_lengths()
        for j in d.live_epochs():
            used = sol.tau[:, j - 1].sum()
            assert used >= lengths[j - 1] * (1 - 1e-6)

    def test_gradient_matches_finite_differences(self):
        # d/dT [T f(B/T)] = -g(B/T)
        bits = 2.3
        for T in np.linspace(0.4, 5.0, 17):
            h = 1e-6
            up = (T + h) * MODEL.power(bits / (T + h))
            dn = (T - h) * MODEL.power(bits / (T - h))
            fd = (up - dn) / (2 * h)
            assert -MODEL.g(bits / T) == pytest.approx(fd, rel=1e-6)

    def test_matches_scheduler_on_random_instances(self):
        rng_seeds = range(400, 430)
        for seed in rng_seeds:
            inst = generate(
                GeneratorConfig(
                    n=2 + seed % 4, horizon=5.0, seed=seed,
                    non_fifo_prob=0.5, min_window_frac=0.1,
                    bits_range=(0.4, 1.5),
                )
            )
            s = solve(inst, MODEL)
            sol = solve_projected_gradient(inst, MODEL, tol=1e-13)
            assert sol.energy == pytest.approx(s.energy, rel=1e-5)


class TestGrid:
    def test_single_packet_resolution_100(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        sol = solve_grid(inst, MODEL, 100)
        assert sol.energy == pytest.approx(3.0, abs=1e-6)

    def test_nested_resolution_200(self):
        sol = solve_grid(nested_instance(), MODEL, 200)
        assert sol.energy == pytest.approx(NESTED_ENERGY, rel=1e-3)

    def test_four_packets_rejected(self):
        packets = [P(i + 1, 1.0, 0.0, 1.0) for i in range(4)]
        with pytest.raises(TooLarge):
            solve_grid(normalize_instance(packets), MODEL, 50)

    def test_combination_cap_guards_enumeration(self):
        # three telescoped windows pass the N/M guards but the raw
        # cartesian product at resolution 200 is ~8e8 points
        packets = [
            P(1, 1.0, 0.0, 5.0),
            P(2, 1.0, 1.0, 4.0),
            P(3, 1.0, 2.0, 3.0),
        ]
        inst = normalize_instance(packets)
        with pytest.raises(TooLarge):
            solve_grid(inst, MODEL, 200)

    def test_low_resolution_rejected(self):
        with pytest.raises(ValueError):
            solve_grid(nested_instance(), MODEL, 5)

    def test_agrees_with_projected_gradient(self):
        count = 0
        seed = 0
        while count < 10:
            seed += 1
            inst = generate(
                GeneratorConfig(
                    n=1 + seed % 3, horizon=3.0, seed=700 + seed,
                    non_fifo_prob=0.5, min_window_frac=0.1,
                    bits_range=(0.4, 1.5),
                )
            )
            try:
                grid = solve_grid(inst, MODEL, 120)
            except TooLarge:
                continue
            pg = solve_projected_gradient(inst, MODEL, tol=1e-13)
            assert grid.energy >= pg.energy * (1 - 1e-9)
            assert grid.energy == pytest.approx(pg.energy, rel=2e-3)
            count += 1

    def test_grid_never_beats_feasible_schedules(self):
        inst = nested_instance()
        s = solve(inst, MODEL)
        grid = solve_grid(inst, MODEL, 150)
        assert grid.energy >= s.energy * (1 - 1e-9)

    def test_grid_tau_reproduces_reported_energy(self):
        # the argmin decode must hand back the allocation it priced
        inst = nested_instance()
        grid = solve_grid(inst, MODEL, 120)
        d = decompose(inst)
        assert np.all(grid.tau >= 0)
        assert np.all(grid.tau.sum(axis=0) <= d.epoch_lengths() + 1e-9)
        T = grid.tau.sum(axis=1)
        recomputed = float(np.sum(T * MODEL.power(inst.bits() / T)))
        assert recomputed == pytest.approx(grid.energy, rel=1e-12)


class TestOracleLowerBounds:
    def test_oracle_at_most_any_feasible_schedule(self):
        from txsched import baseline_constant_edf

        for seed in range(25):
            inst = generate(
                GeneratorConfig(
                    n=2 + seed % 5, horizon=6.0, seed=9100 + seed,
                    non_fifo_prob=0.5, min_window_frac=0.1,
                    bits_range=(0.4, 1.5),
                )
            )
            pg = solve_projected_gradient(inst, MODEL, tol=1e-13)
            base = baseline_constant_edf(inst, MODEL)
            sched = solve(inst, MODEL)
            assert pg.energy <= base.energy * (1 + 1e-9)
            assert pg.energy <= sched.energy * (1 + 1e-5)
