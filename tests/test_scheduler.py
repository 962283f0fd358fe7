import numpy as np
import pytest
from reference_impl import dense
from test_chain_family import certified, chain_instance

from txsched import (
    GeneratorConfig,
    InternalDeadlineMiss,
    InternalIdle,
    InternalInvariantViolation,
    NoCandidates,
    Packet,
    Segment,
    Shannon,
    decompose,
    edf_fill,
    generate,
    normalize_instance,
    schedule_from_allocation,
    schedule_from_json,
    schedule_to_json,
    scheduler,
    solve,
)
from txsched.model import TIME_REL_TOL
from txsched.scheduler import _argmax_lex, _candidate_grid, _positions


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


def nested_instance():
    return normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])


def candidates(packets):
    """{(start, end): (rate, member ids)} over the valid cells of the
    candidate grid, with the grid's arrays for selection."""
    ids = np.array([p.id for p in packets])
    grid = _candidate_grid(
        np.array([p.arrival for p in packets]),
        np.array([p.deadline for p in packets]),
        np.array([p.bits for p in packets]),
        TIME_REL_TOL * max(p.deadline for p in packets),
    )
    starts, ends, start_rank, end_rank, rates, valid = grid
    table = {
        (float(starts[si]), float(ends[ei])): (
            float(rates[si, ei]),
            set(ids[(start_rank >= si) & (end_rank <= ei)].tolist()),
        )
        for si, ei in zip(*np.nonzero(valid))
    }
    return table, grid


class TestEnumerate:
    """The candidate grid: every window from an active arrival to an
    active deadline that contains a life time, with its rate."""

    def test_nested_pair_candidates(self):
        # hand enumeration: 2 arrivals x 2 deadlines, all windows valid
        table, _ = candidates([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])
        assert len(table) == 4
        assert table[(0.0, 2.0)] == (pytest.approx(1.5), {1, 2})
        assert table[(0.0, 1.0)] == (pytest.approx(1.0), {2})
        assert table[(0.5, 1.0)] == (pytest.approx(2.0), {2})
        assert table[(0.5, 2.0)] == (pytest.approx(2.0 / 3.0), {2})

    def test_single_packet(self):
        table, _ = candidates([P(1, 1.0, 0.0, 1.0)])
        assert list(table) == [(0.0, 1.0)]
        assert table[(0.0, 1.0)] == (pytest.approx(1.0), {1})

    def test_disjoint_rejects_inverted_window(self):
        # the (arrival 2, deadline 1) pairing has end <= start
        table, _ = candidates([P(1, 3.0, 0.0, 1.0), P(2, 5.0, 2.0, 3.0)])
        assert set(table) == {(0.0, 1.0), (2.0, 3.0), (0.0, 3.0)}
        assert table[(0.0, 1.0)][0] == pytest.approx(3.0)
        assert table[(2.0, 3.0)][0] == pytest.approx(5.0)
        assert table[(0.0, 3.0)][0] == pytest.approx(8.0 / 3.0)

    def test_arrival_within_tolerance_counts_in_both_starts(self):
        # packet 2 arrives tol/2 after packet 1, so both packets count
        # from either start: the later start's windows hold the same
        # packets as the earlier start's
        tol = TIME_REL_TOL * 4.0
        table, (starts, _, start_rank, _, _, _) = candidates(
            [P(1, 1.0, 1.0, 3.0), P(2, 2.0, 1.0 + tol / 2, 4.0)]
        )
        assert starts.tolist() == [1.0, 1.0 + tol / 2]
        assert start_rank.tolist() == [1, 1]
        assert set(table) == {
            (1.0, 3.0), (1.0, 4.0), (1.0 + tol / 2, 3.0), (1.0 + tol / 2, 4.0)
        }
        assert table[(1.0, 3.0)] == (pytest.approx(0.5), {1})
        assert table[(1.0, 4.0)] == (pytest.approx(1.0), {1, 2})
        assert table[(1.0 + tol / 2, 3.0)][1] == {1}
        assert table[(1.0 + tol / 2, 4.0)][1] == {1, 2}

    def test_at_most_n_squared(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            packets = [
                P(i + 1, 1.0, a, a + float(rng.uniform(0.2, 4)))
                for i, a in enumerate(rng.uniform(0, 8, n))
            ]
            assert len(candidates(packets)[0]) <= n * n


def select(starts, ends, rates):
    rates = np.array(rates, dtype=float)
    si, ei = _argmax_lex(rates, np.isfinite(rates), np.array(starts), np.array(ends))
    return starts[si], ends[ei]


class TestSelect:
    """Selection on the candidate grid: the maximum rate, ties to the
    smallest start, then the smallest end."""

    def test_nested_pair_maximum(self):
        _, (starts, ends, _, _, rates, valid) = candidates(
            [P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)]
        )
        si, ei = _argmax_lex(rates, valid, starts, ends)
        assert (starts[si], ends[ei]) == (0.5, 1.0)
        assert rates[si, ei] == pytest.approx(2.0)

    def test_single_candidate(self):
        _, (starts, ends, _, _, rates, valid) = candidates([P(1, 1.0, 0.0, 1.0)])
        assert _argmax_lex(rates, valid, starts, ends) == (0, 0)

    def test_tie_breaks_to_smallest_start(self):
        no = -np.inf  # an invalid cell
        assert select([0.0, 1.0], [1.0, 2.0], [[1.0, no], [no, 1.0]]) == (0.0, 1.0)

    def test_tie_breaks_to_smallest_end_second(self):
        assert select([0.0], [1.0, 2.0], [[1.0, 1.0]]) == (0.0, 1.0)

    def test_empty_rejected(self, monkeypatch):
        # a grid without a valid window stops the solver
        def no_windows(arrivals, deadlines, bits, tol):
            grid = list(_candidate_grid(arrivals, deadlines, bits, tol))
            grid[5] = np.zeros_like(grid[5])
            return tuple(grid)

        monkeypatch.setattr(scheduler, "_candidate_grid", no_windows)
        with pytest.raises(NoCandidates):
            solve(nested_instance(), Shannon(1.0))


def positions_after_cut(times):
    return _positions(np.array(times, dtype=float), [(0.5, 1.0)]).tolist()


class TestShiftOut:
    """Positions on the timeline left after cutting out (0.5, 1.0):
    instants before the cut stay, instants inside land on the cut,
    instants after it move left by its length."""

    def test_straddling_window_contracts(self):
        assert positions_after_cut([0.0, 2.0]) == pytest.approx([0.0, 1.5])

    def test_entirely_before_is_untouched(self):
        assert positions_after_cut([0.0, 0.4]) == [0.0, 0.4]

    def test_deadline_inside_clamps(self):
        assert positions_after_cut([0.0, 0.8]) == pytest.approx([0.0, 0.5])

    def test_entirely_after_translates(self):
        assert positions_after_cut([2.0, 3.0]) == pytest.approx([1.5, 2.5])

    def test_arrival_inside_clamps(self):
        assert positions_after_cut([0.7, 2.0]) == pytest.approx([0.5, 1.5])

    def test_several_cuts_add_up(self):
        reserved = [(0.5, 1.0), (2.0, 3.0)]
        out = _positions(np.array([0.2, 0.7, 1.5, 2.5, 4.0]), reserved)
        assert out.tolist() == pytest.approx([0.2, 0.5, 1.0, 1.5, 2.5])


class TestUnshift:
    """Each round's pieces are the free original time of its window."""

    def test_first_iteration_is_identity(self):
        times = np.array([0.0, 0.5, 2.0])
        assert _positions(times, []).tolist() == [0.0, 0.5, 2.0]

    def test_gap_reinsertion(self):
        steps = solve(nested_instance(), Shannon(1.0)).trace.steps
        assert steps[0].pieces == ((0.5, 1.0),)
        assert steps[1].pieces == ((0.0, 0.5), (1.0, 2.0))

    def test_piece_before_gap_unaffected(self):
        inst = normalize_instance([P(1, 0.3, 0.0, 0.3), P(2, 1.0, 0.5, 1.0)])
        steps = solve(inst, Shannon(1.0)).trace.steps
        assert steps[0].pieces == ((0.5, 1.0),)
        assert steps[1].pieces == ((0.0, 0.3),)


class TestEdfFill:
    def test_single_member_single_piece(self):
        segs = edf_fill([(0.5, 1.0)], [P(2, 1.0, 0.5, 1.0)], 2.0)
        assert len(segs) == 1
        assert (segs[0].packet, segs[0].t_start, segs[0].t_end) == (2, 0.5, 1.0)
        assert segs[0].rate == 2.0

    def test_split_pieces(self):
        segs = edf_fill(
            [(0.0, 0.5), (1.0, 2.0)], [P(1, 2.0, 0.0, 2.0)], 4.0 / 3.0
        )
        assert [(s.packet, s.t_start, s.t_end) for s in segs] == [
            (1, 0.0, 0.5),
            (1, 1.0, 2.0),
        ]

    def test_equal_deadline_tie_breaks_by_id(self):
        segs = edf_fill(
            [(0.0, 1.0)], [P(2, 1.0, 0.0, 1.0), P(1, 1.0, 0.0, 1.0)], 2.0
        )
        assert [(s.packet, s.t_start, s.t_end) for s in segs] == [
            (1, 0.0, 0.5),
            (2, 0.5, 1.0),
        ]

    def test_preemption_at_arrival(self):
        # late arrival with earlier deadline takes over mid-window
        segs = edf_fill(
            [(0.0, 4.0)], [P(1, 2.0, 0.0, 4.0), P(2, 1.0, 1.0, 3.0)], 0.75
        )
        assert [s.packet for s in segs] == [1, 2, 1]
        assert segs[1].t_start == pytest.approx(1.0)
        assert segs[1].t_end == pytest.approx(1.0 + 1.0 / 0.75)
        assert segs[2].t_end == pytest.approx(4.0)

    def test_too_slow_rate_misses(self):
        with pytest.raises(InternalDeadlineMiss):
            edf_fill([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 0.5)

    def test_too_fast_rate_idles(self):
        with pytest.raises(InternalIdle):
            edf_fill([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 2.0)

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_arrival_within_tolerance_waits_while_another_can_run(self, k):
        # packet 1 finishes k time tolerances before packet 2 arrives;
        # packet 3 runs until that instant, and packet 2 starts there
        d = k * TIME_REL_TOL * 3.0
        members = [P(1, 1.0 - d, 0.0, 1.0), P(2, 1.0, 1.0, 2.0), P(3, 1.0 + d, 0.0, 3.0)]
        segs = edf_fill([(0.0, 3.0)], members, 1.0)
        assert [s.packet for s in segs] == [1, 3, 2, 3]
        assert segs[1].t_start == 1.0 - d
        assert segs[2].t_start == 1.0

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_arrival_within_tolerance_admitted_when_nothing_else_can_run(self, k):
        d = k * TIME_REL_TOL * 2.0
        segs = edf_fill(
            [(0.0, 2.0)], [P(1, 1.0 - d, 0.0, 1.0), P(2, 1.0 + d, 1.0, 2.0)], 1.0
        )
        assert [(s.packet, s.t_start, s.t_end) for s in segs] == [
            (1, 0.0, 1.0 - d), (2, 1.0 - d, 2.0)
        ]

    def test_arrival_inside_gap(self):
        # member arrived during a reserved chunk; transmits from the next piece
        segs = edf_fill([(1.0, 5.0)], [P(1, 1.0, 0.6, 5.0)], 0.25)
        assert [(s.t_start, s.t_end) for s in segs] == [(1.0, 5.0)]


class TestSolve:
    def test_nested_worked_example(self):
        inst = nested_instance()
        s = solve(inst, Shannon(1.0))
        assert s.rates[1] == pytest.approx(2.0, rel=1e-12)
        assert s.rates[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        expected = 0.5 * 15.0 + 1.5 * (2.0 ** (8.0 / 3.0) - 1.0)
        assert s.energy == pytest.approx(expected, rel=1e-12)
        assert [(g.packet, g.t_start, g.t_end) for g in s.segments] == [
            (1, 0.0, 0.5),
            (2, 0.5, 1.0),
            (1, 1.0, 2.0),
        ]

    def test_single_packet(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        s = solve(inst, Shannon(1.0))
        assert s.rates[0] == pytest.approx(1.0)
        assert s.energy == pytest.approx(3.0)
        assert len(s.segments) == 1

    def test_two_rounds_example(self):
        # inner window wins round one; the outer packet spreads around it
        inst = normalize_instance([P(1, 1.0, 0.0, 3.0), P(2, 1.0, 1.0, 2.0)])
        s = solve(inst, Shannon(1.0))
        steps = s.trace.steps
        assert len(steps) == 2
        assert steps[0].rate == pytest.approx(1.0)
        assert steps[0].members == frozenset({2})
        assert steps[0].pieces == ((1.0, 2.0),)
        assert steps[1].rate == pytest.approx(0.5)
        assert steps[1].pieces == ((0.0, 1.0), (2.0, 3.0))

    def test_disjoint_instance_with_dead_time(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 2.0, 3.0)])
        s = solve(inst, Shannon(1.0))
        assert np.allclose(s.rates, [1.0, 1.0])
        spans = [(g.t_start, g.t_end) for g in s.segments]
        assert spans == [(0.0, 1.0), (2.0, 3.0)]

    def test_arrival_inside_time_tol_of_a_step_end_certifies(self):
        # nested benchmark case (seed 1008, index 131): packet 71 finishes
        # 1.59e-8 s, 0.64 time_tol, before packet 72 arrives; packet 69
        # runs until that instant, so packet 72 books no time before it
        inst = generate(
            GeneratorConfig(n=500, horizon=250.0, seed=2422924287, non_fifo_prob=1.0)
        )
        back = certified(inst)
        first = min((g for g in back.segments if g.packet == 72), key=lambda g: g.t_start)
        assert first.t_start == inst.packets[71].arrival
        before = [g for g in back.segments if g.t_end == first.t_start]
        assert [g.packet for g in before] == [69]
        assert 0 < before[0].duration < inst.time_tol

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_short_delivery_violates_invariant_at_any_scale(self, scale):
        inst = chain_instance(n=60, seed=0, horizon=60.0, scale=scale)
        s = solve(inst, Shannon(1.0))
        segs = list(s.segments)
        g = segs[0]
        segs[0] = Segment(g.packet, g.t_start, g.t_start + 0.5 * g.duration, g.rate)
        with pytest.raises(InternalInvariantViolation, match="delivered bits"):
            scheduler._check_solution_invariants(
                inst, s.trace, segs, s.rates
            )

    def test_tau_matches_allocation_constraints(self):
        inst = nested_instance()
        s = solve(inst, Shannon(1.0))
        d = decompose(inst)
        bits = inst.bits()
        # every packet's rows sum to bits/rate, every epoch is exactly full
        for i in range(inst.n):
            assert s.tau.row_sums()[i] == pytest.approx(bits[i] / s.rates[i], rel=1e-9)
        for j in range(1, d.m + 1):
            assert s.tau.col_sums()[j - 1] == pytest.approx(
                d.epoch_lengths()[j - 1], rel=1e-9
            )

    def test_model_only_prices_the_schedule(self):
        from txsched import Monomial

        inst = nested_instance()
        a = solve(inst, Shannon(1.0))
        b = solve(inst, Monomial(2.0, 1.0))
        assert np.allclose(a.rates, b.rates)
        assert a.energy != b.energy


class TestSolveProperties:
    def _random_instance(self, rng):
        n = int(rng.integers(1, 12))
        packets = []
        for i in range(n):
            a = float(rng.uniform(0, 10))
            packets.append(P(i + 1, float(rng.uniform(0.2, 3)), a, a + float(rng.uniform(0.3, 6))))
        return normalize_instance(packets)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(17)
        model = Shannon(1.0)
        for _ in range(150):
            inst = self._random_instance(rng)
            s = solve(inst, model)
            steps = s.trace.steps
            # no more rounds than packets, no more windows than n^2
            assert len(steps) <= inst.n
            assert all((st.candidates or 0) <= inst.n**2 for st in steps)
            # rates never increase across rounds
            rates = [st.rate for st in steps]
            assert all(b <= a * (1 + 1e-9) for a, b in zip(rates, rates[1:]))
            # the settled packet sets partition everything
            settled = [pid for st in steps for pid in st.members]
            assert sorted(settled) == list(range(1, inst.n + 1))
            # every packet: constant rate, inside its window, bits conserved
            per = {}
            for seg in s.segments:
                per.setdefault(seg.packet, []).append(seg)
            bits = inst.bits()
            for pid, segs in per.items():
                p = inst.packets[pid - 1]
                assert all(g.rate == segs[0].rate for g in segs)
                assert all(g.t_start >= p.arrival - 1e-9 for g in segs)
                assert all(g.t_end <= p.deadline + 1e-9 for g in segs)
                delivered = sum(g.duration * g.rate for g in segs)
                assert delivered == pytest.approx(bits[pid - 1], rel=1e-9)
            # reserved pieces are disjoint
            pieces = sorted(p for st in steps for p in st.pieces)
            for (s0, e0), (s1, _) in zip(pieces, pieces[1:]):
                assert s1 >= e0 - 1e-9


class TestScheduleFromAllocation:
    def test_reconstructs_solver_energy(self):
        inst = nested_instance()
        model = Shannon(1.0)
        s = solve(inst, model)
        rebuilt = schedule_from_allocation(inst, dense(s.tau), model)
        assert rebuilt.energy == pytest.approx(s.energy, rel=1e-12)
        assert np.allclose(rebuilt.rates, s.rates)

    def test_rejects_empty_rows(self):
        inst = nested_instance()
        tau = np.zeros((2, 3))
        tau[0] = [0.5, 0.0, 1.0]
        with pytest.raises(ValueError):
            schedule_from_allocation(inst, tau, Shannon(1.0))


class TestScheduleJson:
    def test_roundtrip(self):
        inst = nested_instance()
        model = Shannon(1.0)
        s = solve(inst, model)
        text = schedule_to_json(s)
        back = schedule_from_json(text, inst)
        assert np.allclose(back.rates, s.rates)
        assert back.segments == s.segments
        assert back.energy == s.energy
        assert np.allclose(dense(back.tau), dense(s.tau))
        assert [st.rate for st in back.trace.steps] == [
            st.rate for st in s.trace.steps
        ]

    def test_shape(self):
        import json

        s = solve(nested_instance(), Shannon(1.0))
        doc = json.loads(schedule_to_json(s))
        assert set(doc.keys()) == {"energy", "rates", "segments", "iterations"}
        assert set(doc["rates"][0].keys()) == {"id", "rate"}
        assert set(doc["segments"][0].keys()) == {"id", "start", "end", "rate"}
        assert set(doc["iterations"][0].keys()) == {"rate", "packets", "pieces"}
