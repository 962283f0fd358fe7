import re
from dataclasses import replace

import numpy as np
import pytest
from reference_impl import Segment, dense, member_columns, positions, segment_list, segment_table
from test_chain_family import certified, chain_instance

from txsched import (
    GeneratorConfig,
    InternalDeadlineMiss,
    InternalIdle,
    InternalInvariantViolation,
    NoCandidates,
    Packet,
    Shannon,
    check_feasible,
    decompose,
    edf_fill,
    epoch_times,
    generate,
    normalize_columns,
    normalize_instance,
    schedule_from_allocation,
    schedule_from_json,
    schedule_to_json,
    scheduler,
    solve,
)
from txsched.model import TIME_REL_TOL
from txsched.scheduler import IterationTrace, _argmax_lex, _candidate_grid, _window_ranks


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


def fill(pieces, packets, rate):
    """`edf_fill` of `Packet` members, its rows as records."""
    return [Segment(*row) for row in edf_fill(pieces, member_columns(packets), rate)]


def nested_instance():
    return normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])


def one_period_grid(arrivals, deadlines, bits):
    """The candidate grid of packets in one busy period, from their
    arrival and deadline grid positions, as (starts, ends, start_rank,
    end_rank, rates, valid) with 2-d rates and valid, the finite rates."""
    windows = _window_ranks(
        np.stack((arrivals, deadlines)), np.zeros(len(arrivals), dtype=np.intp),
        np.array([-np.inf, np.inf]),
    )
    rates = _candidate_grid(windows, bits, range(1))[0]
    valid = rates > -np.inf
    return windows.starts, windows.ends, windows.start_rank, windows.end_rank, rates, valid


def candidates(packets):
    """{(start, end): (rate, member ids)} over the valid cells of the
    candidate grid of the packets' instance, its arrivals and deadlines
    at their grid instants, with the grid's arrays for selection."""
    inst = normalize_instance(packets)
    ids = np.array([inst.id_map[k] for k in range(1, inst.n + 1)])
    instants = np.array(inst.decomposition.instants)
    lo, hi = inst.decomposition.lo, inst.decomposition.hi
    grid = one_period_grid(instants[lo], instants[hi], inst.bits())
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

    def test_arrival_within_tolerance_is_one_start(self):
        # packet 2 arrives tol/2 after packet 1: both arrive at one grid
        # instant, so the windows have one start, and both packets rank
        # there
        tol = TIME_REL_TOL * 4.0
        table, (starts, _, start_rank, _, _, _) = candidates(
            [P(1, 1.0, 0.0, 3.0), P(2, 2.0, tol / 2, 4.0)]
        )
        assert starts.tolist() == [0.0]
        assert start_rank.tolist() == [0, 0]
        assert set(table) == {(0.0, 3.0), (0.0, 4.0)}
        assert table[(0.0, 3.0)] == (pytest.approx(1.0 / 3.0), {1})
        assert table[(0.0, 4.0)] == (pytest.approx(0.75), {1, 2})

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
    _, si, ei = _argmax_lex(np.array(rates, dtype=float))
    return starts[si], ends[ei]


class TestSelect:
    """Selection on the candidate grid: the maximum rate, ties to the
    smallest start, then the smallest end."""

    def test_nested_pair_maximum(self):
        _, (starts, ends, _, _, rates, valid) = candidates(
            [P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)]
        )
        rmax, si, ei = _argmax_lex(rates)
        assert (starts[si], ends[ei]) == (0.5, 1.0)
        assert rates[si, ei] == rmax == pytest.approx(2.0)

    def test_single_candidate(self):
        _, (starts, ends, _, _, rates, valid) = candidates([P(1, 1.0, 0.0, 1.0)])
        assert _argmax_lex(rates)[1:] == (0, 0)

    def test_tie_breaks_to_smallest_start(self):
        no = -np.inf  # an invalid cell
        assert select([0.0, 1.0], [1.0, 2.0], [[1.0, no], [no, 1.0]]) == (0.0, 1.0)

    def test_tie_breaks_to_smallest_end_second(self):
        assert select([0.0], [1.0, 2.0], [[1.0, 1.0]]) == (0.0, 1.0)

    def test_empty_rejected(self, monkeypatch):
        # a grid without a valid window stops the solver
        def no_windows(windows, bits, periods):
            return np.full_like(_candidate_grid(windows, bits, periods), -np.inf)

        monkeypatch.setattr(scheduler, "_candidate_grid", no_windows)
        with pytest.raises(NoCandidates):
            solve(nested_instance(), Shannon(1.0))


def positions_after_cut(times):
    return positions(np.array(times, dtype=float), [(0.5, 1.0)]).tolist()


class TestShiftOut:
    """The reference solver's positions on the timeline left after
    cutting out (0.5, 1.0): instants before the cut stay, instants
    inside land on the cut, instants after it move left by its length."""

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
        out = positions(np.array([0.2, 0.7, 1.5, 2.5, 4.0]), reserved)
        assert out.tolist() == pytest.approx([0.2, 0.5, 1.0, 1.5, 2.5])

    def test_instants_in_a_piece_are_one_float(self):
        # every instant of a closed reserved piece lands on s_k - c_(k-1)
        # exactly, so positions never descend across it
        rng = np.random.default_rng(4)
        for scale in (1e2, 1e4) * 6:
            edges = np.sort(rng.uniform(0.0, scale, 40))
            reserved = [(float(s), float(e)) for s, e in zip(edges[0::2], edges[1::2])]
            before = np.concatenate(([0.0], np.cumsum(edges[1::2] - edges[0::2])))
            times = np.sort(np.concatenate((edges, rng.uniform(0.0, scale, 400))))
            out = positions(times, reserved)
            assert np.all(np.diff(out) >= 0)
            for k, (s, e) in enumerate(reserved):
                inside = (times >= s) & (times <= e)
                assert set(out[inside].tolist()) == {s - before[k]}


class TestUnshift:
    """Each round's pieces are the free original time of its window."""

    def test_first_iteration_is_identity(self):
        times = np.array([0.0, 0.5, 2.0])
        assert positions(times, []).tolist() == [0.0, 0.5, 2.0]

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
        segs = fill([(0.5, 1.0)], [P(2, 1.0, 0.5, 1.0)], 2.0)
        assert len(segs) == 1
        assert (segs[0].packet, segs[0].t_start, segs[0].t_end) == (2, 0.5, 1.0)
        assert segs[0].rate == 2.0

    def test_split_pieces(self):
        segs = fill(
            [(0.0, 0.5), (1.0, 2.0)], [P(1, 2.0, 0.0, 2.0)], 4.0 / 3.0
        )
        assert [(s.packet, s.t_start, s.t_end) for s in segs] == [
            (1, 0.0, 0.5),
            (1, 1.0, 2.0),
        ]

    def test_equal_deadline_tie_breaks_by_id(self):
        segs = fill(
            [(0.0, 1.0)], [P(2, 1.0, 0.0, 1.0), P(1, 1.0, 0.0, 1.0)], 2.0
        )
        assert [(s.packet, s.t_start, s.t_end) for s in segs] == [
            (1, 0.0, 0.5),
            (2, 0.5, 1.0),
        ]

    def test_preemption_at_arrival(self):
        # late arrival with earlier deadline takes over mid-window
        segs = fill(
            [(0.0, 4.0)], [P(1, 2.0, 0.0, 4.0), P(2, 1.0, 1.0, 3.0)], 0.75
        )
        assert [s.packet for s in segs] == [1, 2, 1]
        assert segs[1].t_start == pytest.approx(1.0)
        assert segs[1].t_end == pytest.approx(1.0 + 1.0 / 0.75)
        assert segs[2].t_end == pytest.approx(4.0)

    def test_too_slow_rate_misses(self):
        with pytest.raises(InternalDeadlineMiss):
            fill([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 0.5)

    def test_too_fast_rate_idles(self):
        with pytest.raises(InternalIdle):
            fill([(0.0, 1.0)], [P(1, 1.0, 0.0, 1.0)], 2.0)

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_arrival_within_tolerance_waits_while_another_can_run(self, k):
        # packet 1 finishes k time tolerances before packet 2 arrives;
        # packet 3 runs until that instant, and packet 2 starts there
        d = k * TIME_REL_TOL * 3.0
        members = [P(1, 1.0 - d, 0.0, 1.0), P(2, 1.0, 1.0, 2.0), P(3, 1.0 + d, 0.0, 3.0)]
        segs = fill([(0.0, 3.0)], members, 1.0)
        assert [s.packet for s in segs] == [1, 3, 2, 3]
        assert segs[1].t_start == 1.0 - d
        assert segs[2].t_start == 1.0

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_arrival_within_tolerance_admitted_when_nothing_else_can_run(self, k):
        # packet 1 finishes k time tolerances before packet 2 arrives: an
        # arrival off the grid is not admitted early, so the fill idles
        d = k * TIME_REL_TOL * 2.0
        with pytest.raises(InternalIdle, match=re.escape(f"at time {1.0 - d}")):
            fill([(0.0, 2.0)], [P(1, 1.0 - d, 0.0, 1.0), P(2, 1.0 + d, 1.0, 2.0)], 1.0)

    def test_arrival_inside_gap(self):
        # member arrived during a reserved chunk; transmits from the next piece
        segs = fill([(1.0, 5.0)], [P(1, 1.0, 0.6, 5.0)], 0.25)
        assert [(s.t_start, s.t_end) for s in segs] == [(1.0, 5.0)]


class TestSolve:
    def test_nested_worked_example(self):
        inst = nested_instance()
        s = solve(inst, Shannon(1.0))
        assert s.rates[1] == pytest.approx(2.0, rel=1e-12)
        assert s.rates[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        expected = 0.5 * 15.0 + 1.5 * (2.0 ** (8.0 / 3.0) - 1.0)
        assert s.energy == pytest.approx(expected, rel=1e-12)
        assert [(g.packet, g.t_start, g.t_end) for g in segment_list(s.segments)] == [
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
        spans = list(zip(s.segments.start.tolist(), s.segments.end.tolist()))
        assert spans == [(0.0, 1.0), (2.0, 3.0)]

    def test_arrival_inside_time_tol_of_a_step_end_certifies(self):
        # nested benchmark case (seed 1008, index 131): packet 71 finishes
        # 1.59e-8 s, 0.64 time_tol, before packet 72 arrives; packet 69
        # runs until that instant, so packet 72 books no time before it
        inst = generate(
            GeneratorConfig(n=500, horizon=250.0, seed=2422924287, non_fifo_prob=1.0)
        )
        back = certified(inst)
        segments = segment_list(back.segments)
        first = min((g for g in segments if g.packet == 72), key=lambda g: g.t_start)
        assert first.t_start == inst.packets[71].arrival
        before = [g for g in segments if g.t_end == first.t_start]
        assert [g.packet for g in before] == [69]
        assert 0 < before[0].duration < inst.time_tol

    def test_member_under_dust_of_time_is_filled(self):
        # packet 2 needs 1e-12 s, under the fill's dust of 1e-12 s; the
        # fill once dropped it, and idled in packet 1's last float step
        inst = normalize_columns([1, 2], [1.0, 1e-12], [0.0, 0.5], [1.0, 1.0])
        back = certified(inst)
        assert back.segments.packet.tolist() == [1, 2]

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_short_delivery_violates_invariant_at_any_scale(self, scale):
        inst = chain_instance(n=60, seed=0, horizon=60.0, scale=scale)
        s = solve(inst, Shannon(1.0))
        segs = segment_list(s.segments)
        g = segs[0]
        segs[0] = Segment(g.packet, g.t_start, g.t_start + 0.5 * g.duration, g.rate)
        with pytest.raises(InternalInvariantViolation, match="delivered bits"):
            scheduler._check_solution_invariants(
                inst, s.trace, segment_table(segs), s.rates
            )

    @pytest.mark.parametrize("bit_scale", [1.0, 1e-12])
    def test_delivery_short_by_ten_dust_is_refused(self, bit_scale):
        # packet 2 transmits about 1 s of a 1000 s horizon, so 10 dust,
        # 1e-8 s, of its time is ten times both REL_TOL of its bits and
        # what its rate sends in the dust a fill may leave
        inst = normalize_instance([P(1, 1e3 * bit_scale, 0.0, 1e3), P(2, bit_scale, 10.0, 11.0)])
        s = solve(inst, Shannon(1.0))
        segs = segment_list(s.segments)
        k = next(k for k, g in enumerate(segs) if g.packet == 2)
        g = segs[k]
        segs[k] = Segment(g.packet, g.t_start, g.t_end - 10 * inst.dust, g.rate)
        short = replace(s, segments=segment_table(segs))
        with pytest.raises(InternalInvariantViolation, match="delivered bits"):
            scheduler._check_solution_invariants(inst, s.trace, short.segments, s.rates)
        report = check_feasible(inst, short)
        conservation = [v for v in report.violations if v.startswith("bit conservation")]
        assert len(conservation) == 1, report.violations
        assert conservation[0].startswith("bit conservation: packet 2 delivers ")

    @pytest.mark.parametrize("tamper, message", [
        ("ulp", "reserved piece endpoint 1.0000000000000002 is not a grid instant"),
        ("repeat", "reserved pieces overlap across rounds in epoch 2"),
        ("drop", "do not tile the live region: live epoch left free (epoch 3)"),
        ("dead", "do not tile the live region: dead epoch reserved (epoch 4)"),
    ])
    def test_tampered_pieces_violate_tiling(self, tamper, message):
        # grid 0..5: packet 2 takes epoch 2, packet 3 epoch 5, packet 1
        # epochs 1 and 3 around it; epoch 4 is dead
        inst = normalize_instance(
            [P(1, 1.0, 0.0, 3.0), P(2, 1.0, 1.0, 2.0), P(3, 1.0, 4.0, 5.0)]
        )
        s = solve(inst, Shannon(1.0))
        steps = list(s.trace.steps)
        assert [st.pieces for st in steps] == [((1.0, 2.0),), ((4.0, 5.0),), ((0.0, 1.0), (2.0, 3.0))]
        last = steps[-1].pieces
        steps[-1] = replace(steps[-1], pieces={
            "ulp": ((0.0, np.nextafter(1.0, 2.0)), (2.0, 3.0)),
            "repeat": last + steps[0].pieces,
            "drop": last[:1],
            "dead": last + ((3.0, 4.0),),
        }[tamper])
        with pytest.raises(InternalInvariantViolation, match=re.escape(message)):
            scheduler._check_solution_invariants(
                inst, IterationTrace(tuple(steps)), s.segments, s.rates
            )

    def test_tau_matches_allocation_constraints(self):
        inst = nested_instance()
        s = solve(inst, Shannon(1.0))
        d = decompose(inst)
        bits = inst.bits()
        # every packet's rows sum to bits/rate, every epoch is exactly full
        tau = epoch_times(inst, s)
        for i in range(inst.n):
            assert tau.row_sums()[i] == pytest.approx(bits[i] / s.rates[i], rel=1e-9)
        for j in range(1, d.m + 1):
            assert tau.col_sums()[j - 1] == pytest.approx(
                d.lengths[j - 1], rel=1e-9
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
            for seg in segment_list(s.segments):
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
        rebuilt = schedule_from_allocation(inst, dense(epoch_times(inst, s)), model)
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
        assert segment_list(back.segments) == segment_list(s.segments)
        assert back.energy == s.energy
        assert np.allclose(dense(epoch_times(inst, back)), dense(epoch_times(inst, s)))
        assert [st.rate for st in back.trace.steps] == [
            st.rate for st in s.trace.steps
        ]

    def test_segments_are_read_only_columns(self):
        seg = solve(nested_instance(), Shannon(1.0)).segments
        assert len(seg) == 3 and seg.packet.dtype.kind == "i"
        for column in (seg.packet, seg.start, seg.end, seg.rate):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_shape(self):
        import json

        s = solve(nested_instance(), Shannon(1.0))
        doc = json.loads(schedule_to_json(s))
        assert set(doc.keys()) == {"energy", "rates", "segments", "iterations"}
        assert set(doc["rates"][0].keys()) == {"id", "rate"}
        assert set(doc["segments"][0].keys()) == {"id", "start", "end", "rate"}
        assert set(doc["iterations"][0].keys()) == {"rate", "packets", "pieces"}
