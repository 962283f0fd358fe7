import hashlib

import numpy as np
import pytest
from reference_impl import epoch_sets_per_packet

from txsched import (
    GeneratorConfig,
    Monomial,
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
    return _project_columns(v[None, :], np.array([cap]))[0]


PAD = -1e300  # the oracle's padding past each column's length


def packed_batch(columns, width):
    """Columns of different lengths as rows of a padded batch."""
    packed = np.full((len(columns), width), PAD)
    for c, col in enumerate(columns):
        packed[c, : len(col)] = col
    return packed, np.array([len(col) for col in columns])


def assert_batch_is_one_at_a_time(packed, caps, lens):
    """The batch equals each padded row projected on its own, bit for
    bit, and every column lands in {x >= 0, sum(x) <= cap}."""
    out = _project_columns(packed, caps)
    for c in range(len(packed)):
        alone = _project_columns(packed[c : c + 1], caps[c : c + 1])
        assert out[c].tobytes() == alone[0].tobytes(), c
        col = out[c, : lens[c]]
        assert np.all(col >= 0) and col.sum() <= caps[c], c
        assert np.all(out[c, lens[c] :] == 0.0), c
    return out


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

    def test_mixed_batch_with_padding(self):
        # under-cap and over-cap columns of different lengths in one batch
        rng = np.random.default_rng(5)
        columns = [rng.normal(scale=1.5, size=k) for k in (1, 4, 2, 7, 3, 5, 7, 1)]
        packed, lens = packed_batch(columns, 7)
        caps = rng.uniform(0.5, 3.0, size=len(columns))
        clipped = np.maximum(packed, 0.0).sum(axis=1)
        assert (clipped > caps).any() and (clipped <= caps).any()
        out = assert_batch_is_one_at_a_time(packed, caps, lens)
        under = clipped <= caps
        assert np.array_equal(out[under], np.maximum(packed[under], 0.0))

    def test_every_column_over_its_cap(self):
        # the usual batch after a gradient step, with padding
        rng = np.random.default_rng(6)
        columns = [rng.uniform(0.5, 2.0, size=k) for k in (3, 1, 6, 2, 6)]
        packed, lens = packed_batch(columns, 6)
        caps = np.array([0.7, 0.3, 1.1, 0.2, 2.5])
        assert (np.maximum(packed, 0.0).sum(axis=1) > caps).all()
        out = assert_batch_is_one_at_a_time(packed, caps, lens)
        for c in range(len(caps)):
            assert out[c].sum() == pytest.approx(caps[c], rel=1e-12)

    def test_inputs_far_above_the_caps_are_rescaled(self):
        # theta loses every bit of the cap at 1e300 x the caps; only the
        # final rescale keeps the columns feasible
        columns = [[3e300, 1e300, 2e300], [5e299, 5e299], [1e300], [0.25, 0.5]]
        packed, lens = packed_batch(columns, 3)
        caps = np.array([1.0, 0.5, 2.0, 1.0])
        assert_batch_is_one_at_a_time(packed, caps, lens)  # last column under
        assert_batch_is_one_at_a_time(packed[:3], caps[:3], lens[:3])  # all over


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

    @pytest.mark.parametrize("tol, max_iters", [
        (float("nan"), 100), (-1e-10, 100), (1e-10, -1), (float("nan"), -1),
    ])
    def test_refuses_nan_tol_and_negative_max_iters(self, tol, max_iters):
        # a NaN tolerance never ends a stall, so the run took every iteration
        with pytest.raises(ValueError, match="tol and max_iters must be non-negative"):
            solve_projected_gradient(nested_instance(), MODEL, tol=tol, max_iters=max_iters)

    def test_no_iterations_keeps_the_proportional_start(self):
        sol = solve_projected_gradient(nested_instance(), MODEL, max_iters=0)
        assert sol.iterations == 0 and not sol.converged
        assert sol.tau.tolist() == [[0.5, 0.25, 1.0], [0.0, 0.25, 0.0]]

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
        assert np.all(sol.tau.sum(axis=0) <= d.lengths + 1e-9)
        epochs = epoch_sets_per_packet(d)
        for i in range(inst.n):
            outside = [
                j for j in range(1, d.m + 1)
                if j not in epochs[i]
            ]
            for j in outside:
                assert sol.tau[i, j - 1] == 0.0

    def test_non_idling_emerges(self):
        # the optimizer fills every usable epoch without being told to
        inst = nested_instance()
        sol = solve_projected_gradient(inst, MODEL)
        d = decompose(inst)
        lengths = d.lengths
        for j in np.flatnonzero(d.coverage) + 1:
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

    # (seed, energy, iterations, sha256 prefixes of tau and of the energy
    # history) of the crosscheck benchmark family at its first six seeds,
    # as the oracle gave them before it summed with array methods and
    # entered np.errstate once per solve instead of once per energy.
    CROSSCHECK_RUNS = [
        (1835504127, "0x1.63bf9e4f3984ep+3", 107, "f7ed66c7ce5ee14b1d694d6e7a8a4f05",
         "1d9866b8efe8d5ad6f0eca5749b8fea2"),
        (1189033389, "0x1.41d3c25798772p+3", 62, "88c620c9e63768812577e0b8dbe0eacc",
         "258ec167baecf55671fff5bb5421aaae"),
        (1596810411, "0x1.7af5b6ebb1032p+3", 1216, "9b0b210845a650b4d791f118b2f2a379",
         "3ddeb9ea26865e98da271377938c9c96"),
        (4010755824, "0x1.982fe230f4f71p+3", 199, "c696a5a11bf7c724b0dbd2cc8d12a597",
         "c55e1ff5a57309643c8dc4805b6c5928"),
        (3549136632, "0x1.482270be5324ap+3", 176, "a7a179960789c546471184c7798597ee",
         "827f19afb71bcf96bf3762a38158e38a"),
        (3025039489, "0x1.22d62d0ad2e82p+3", 292, "0fcaa0f15cc6e3cc40ba6592fe6b0901",
         "55cacf34814826298f2edbd94f4cf598"),
    ]

    @pytest.mark.parametrize("seed, energy, iterations, tau, history", CROSSCHECK_RUNS)
    def test_crosscheck_iterates_are_unchanged(self, seed, energy, iterations, tau, history):
        """Bit-identical iterates, energies and iteration counts on the
        crosscheck family (N=12, Monomial(1.5), tol 1e-10)."""
        inst = generate(GeneratorConfig(
            n=12, horizon=14, seed=seed, non_fifo_prob=0.5,
            bits_range=(0.4, 1.5), min_window_frac=0.1,
        ))
        sol = solve_projected_gradient(
            inst, Monomial(exponent=1.5, scale=1.0), tol=1e-10, track_history=True
        )
        assert (sol.energy.hex(), sol.iterations) == (energy, iterations)
        assert hashlib.sha256(sol.tau.tobytes()).hexdigest()[:32] == tau
        assert hashlib.sha256(sol.energy_history.tobytes()).hexdigest()[:32] == history


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
        assert np.all(grid.tau.sum(axis=0) <= d.lengths + 1e-9)
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
