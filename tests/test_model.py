import io
import json
import math
import re
import tokenize
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from reference_impl import epoch_sets_per_packet, packet_sets_per_epoch

from txsched import (
    EmptyInstance,
    GeneratorConfig,
    InstanceFormatError,
    MalformedPacket,
    Monomial,
    Packet,
    Shannon,
    decompose,
    extract_certificate,
    generate,
    instance_from_json,
    instance_to_json,
    is_non_fifo,
    normalize_columns,
    normalize_instance,
    schedule_from_json,
    schedule_to_json,
    solve,
    solve_projected_gradient,
)
from txsched import model as model_module
from txsched.model import TIME_REL_TOL, covered, runs


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


def packets_json(rows):
    return json.dumps(
        {"packets": [{"id": i, "bits": b, "arrival": a, "deadline": d} for i, b, a, d in rows]}
    )


def records(rows):
    """Packet-like records that no constructor has checked."""
    return [SimpleNamespace(id=i, bits=b, arrival=a, deadline=d) for i, b, a, d in rows]


def rejection(*fields):
    """The MalformedPacket that `Packet`, `normalize_instance` and
    `instance_from_json` raise for one bad packet; all three must name
    the same packet with the same message."""
    errors = []
    for build in (
        lambda: Packet(*fields),
        lambda: normalize_instance(records([fields])),
        lambda: instance_from_json(packets_json([fields])),
    ):
        with pytest.raises(MalformedPacket) as err:
            build()
        errors.append(err.value)
    assert len({(e.packet_id, str(e)) for e in errors}) == 1, [str(e) for e in errors]
    return errors[0]


class TestPacket:
    def test_rejects_inverted_window(self):
        rejection(1, 1.0, 1.0, 0.5)

    def test_rejects_zero_window(self):
        rejection(1, 1.0, 1.0, 1.0)

    def test_rejects_nonpositive_bits(self):
        assert "bits must be positive, got 0.0" in str(rejection(1, 0.0, 0.0, 1.0))
        rejection(1, -2.0, 0.0, 1.0)

    def test_error_names_the_packet(self):
        assert rejection(7, -1.0, 0.0, 1.0).packet_id == 7

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("bits", (math.inf, 0.0, 1.0)),
            ("arrival", (1.0, -math.inf, 1.0)),
            ("deadline", (1.0, 0.0, math.inf)),
            ("bits", (math.nan, 0.0, 1.0)),
        ],
    )
    def test_rejects_non_finite_values(self, field, fields):
        assert f"{field} must be finite" in str(rejection(1, *fields))

    @pytest.mark.parametrize("pid", ["a", 1.0, True, None])
    def test_rejects_non_integer_ids(self, pid):
        assert "id must be an integer" in str(rejection(pid, 1.0, 0.0, 1.0))

    def test_accepts_numpy_integer_ids(self):
        assert P(np.int64(3), 1.0, 0.0, 1.0).id == 3

    def test_first_offender_in_input_order_is_named(self):
        # packet 4's window is under the time tolerance of the 10 s
        # horizon; packets 5 and 6 break per-packet rules after it, and
        # a rule breach is named before any window is measured
        rows = [(3, 1.0, 0.0, 10.0), (4, 1.0, 2.0, 2.0 + 1e-10),
                (5, 1.0, 3.0, 1.0), (6, -1.0, 0.0, 1.0)]
        for build in (normalize_instance, instance_from_json):
            given = records(rows) if build is normalize_instance else packets_json(rows)
            with pytest.raises(MalformedPacket) as err:
                build(given)
            assert err.value.packet_id == 5
            assert "deadline 1.0 must exceed arrival 3.0" in str(err.value)
            given = records(rows[:2]) if build is normalize_instance else packets_json(rows[:2])
            with pytest.raises(MalformedPacket, match="time tolerance") as err:
                build(given)
            assert err.value.packet_id == 4

    def test_repeated_id_names_its_second_occurrence(self):
        # numpy's 7 is the same id as Python's, and reads the same in the
        # message; a repeat is one more rule in input order, so an
        # earlier packet's breach is named first
        for ids in ([7, 7], [7, np.int64(7)]):
            with pytest.raises(MalformedPacket) as err:
                normalize_columns(ids, [1.0, 1.0], [0.0, 0.0], [2.0, 1.0])
            assert err.value.packet_id == 7
            assert str(err.value) == "packet 7: id is repeated (first at entry 0)"
        rows = [(7, 1.0, 0.0, 2.0), (7, 1.0, 0.5, 1.0), (8, -1.0, 0.0, 1.0)]
        for build in (normalize_instance, instance_from_json):
            given = records(rows) if build is normalize_instance else packets_json(rows)
            with pytest.raises(MalformedPacket, match=r"id is repeated \(first at entry 0\)"):
                build(given)
            swapped = [rows[0], rows[2], rows[1]]
            given = records(swapped) if build is normalize_instance else packets_json(swapped)
            with pytest.raises(MalformedPacket, match="bits must be positive") as err:
                build(given)
            assert err.value.packet_id == 8

    def test_packet_rules_come_before_a_later_malformed_entry(self):
        # entries are read in order: a bad packet before a malformed
        # entry is named, and a malformed entry before it wins
        bad = {"id": 1, "bits": -1.0, "arrival": 0.0, "deadline": 1.0}
        for packets, error in (([bad, {"id": 2}], MalformedPacket),
                               (([{"id": 2}, bad]), InstanceFormatError)):
            with pytest.raises(error):
                instance_from_json(json.dumps({"packets": packets}))

    def test_parsing_builds_no_packet(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Packet was built")

        monkeypatch.setattr(Packet, "__post_init__", refuse)
        inst, _ = instance_from_json(packets_json([(9, 1.0, 1.0, 2.0), (3, 2.0, 0.0, 3.0)]))
        assert inst.bits().tolist() == [2.0, 1.0] and inst.id_map == {1: 3, 2: 9}
        assert generate(GeneratorConfig(n=20, seed=1, non_fifo_prob=0.5)).n == 20


class TestNormalize:
    def test_shifts_to_zero(self):
        inst = normalize_instance([P(1, 1.0, 5.0, 6.0)])
        assert inst.packets[0].arrival == 0.0
        assert inst.packets[0].deadline == 1.0
        assert inst.horizon == 1.0

    def test_already_normalized_unchanged(self):
        inst = normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])
        assert [(p.arrival, p.deadline) for p in inst.packets] == [(0.0, 2.0), (0.5, 1.0)]
        assert inst.horizon == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            normalize_instance([])

    def test_sorts_and_relabels(self):
        inst = normalize_instance(
            [P(10, 1.0, 3.0, 4.0), P(20, 1.0, 1.0, 2.0), P(30, 1.0, 2.0, 3.0)]
        )
        assert [p.id for p in inst.packets] == [1, 2, 3]
        assert [p.arrival for p in inst.packets] == [0.0, 1.0, 2.0]
        assert inst.id_map == {1: 20, 2: 30, 3: 10}

    def test_arrival_ties_sort_by_deadline_then_id(self):
        inst = normalize_instance(
            [P(5, 1.0, 0.0, 3.0), P(4, 1.0, 0.0, 2.0), P(6, 1.0, 0.0, 2.0)]
        )
        assert inst.id_map == {1: 4, 2: 6, 3: 5}

    def test_sub_tolerance_window_rejected(self):
        # the tolerance is TIME_REL_TOL of the horizon: 1e-9 s next to a
        # 10 s packet, and a million times that in microseconds
        for scale in (1.0, 1e6):
            horizon = 10.0 * scale
            tol = TIME_REL_TOL * horizon
            assert normalize_instance([P(1, 1.0, 0.0, horizon)]).time_tol == tol
            for frac in (0.5, 0.999):
                with pytest.raises(MalformedPacket) as err:
                    normalize_instance(
                        [P(1, 1.0, 0.0, horizon), P(2, 1.0, 0.0, frac * tol)]
                    )
                assert err.value.packet_id == 2
            for frac in (1.0, 1.001):
                inst = normalize_instance(
                    [P(1, 1.0, 0.0, horizon), P(2, 1.0, 0.0, frac * tol)]
                )
                assert (inst.arrivals()[0], inst.deadlines()[0]) == (0.0, frac * tol)

    def test_window_of_exactly_time_tol_keeps_its_two_instants(self):
        # the window is the tolerance long, 1e-9 s in a 10 s horizon: its
        # arrival and deadline are two grid instants, and it certifies
        inst = normalize_columns([1, 2], [1.0, 1.0], [0.0, 0.0], [10.0, 1e-9])
        assert inst.deadlines()[0] - inst.arrivals()[0] == inst.time_tol
        d = inst.decomposition
        assert d.instants.tolist() == [0.0, 1e-9, 10.0]
        assert np.all(d.lo < d.hi)
        model = Monomial(2.0)
        back = schedule_from_json(schedule_to_json(solve(inst, model)), inst)
        extract_certificate(inst, back, model)

    def test_windows_are_measured_on_shifted_times(self):
        # packet 2's window is exactly the 1e-9 tolerance as given, but
        # shifted by the earliest arrival, -0.7, as the instance stores
        # it, the window rounds to under it: refused, not collapsed
        rows = [(1, 1.0, -0.7, 9.3), (2, 1.0, 0.0, 1e-9)]
        tol = TIME_REL_TOL * (9.3 - -0.7)
        assert 1e-9 - 0.0 >= tol and (1e-9 + 0.7) - (0.0 + 0.7) < tol
        with pytest.raises(MalformedPacket, match="time tolerance") as err:
            normalize_instance(records(rows))
        assert err.value.packet_id == 2

    def test_horizon_is_max_deadline(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 5.0), P(2, 1.0, 1.0, 2.0)])
        assert inst.horizon == 5.0


class TestDecompose:
    def test_single_packet(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        d = decompose(inst)
        assert d.instants.tolist() == [0.0, 1.0]
        assert d.m == 1
        assert epoch_sets_per_packet(d) == (frozenset({1}),)
        assert packet_sets_per_epoch(d) == (frozenset({1}),)

    def test_nested_pair(self):
        # hand enumeration: grid 0, 0.5, 1, 2; inner packet lives in the
        # middle epoch only, the outer one everywhere
        inst = normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])
        d = decompose(inst)
        assert d.instants.tolist() == [0.0, 0.5, 1.0, 2.0]
        assert d.m == 3
        assert epoch_sets_per_packet(d)[0] == frozenset({1, 2, 3})
        assert epoch_sets_per_packet(d)[1] == frozenset({2})
        assert packet_sets_per_epoch(d)[0] == frozenset({1})
        assert packet_sets_per_epoch(d)[1] == frozenset({1, 2})
        assert packet_sets_per_epoch(d)[2] == frozenset({1})

    def test_duplicate_windows_dedup(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 1.0)])
        d = decompose(inst)
        assert d.instants.tolist() == [0.0, 1.0]
        assert packet_sets_per_epoch(d) == (frozenset({1, 2}),)

    def test_epoch_lengths_sum_to_horizon(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            arr = rng.uniform(0, 10, n)
            packets = [
                P(i + 1, 1.0, a, a + float(rng.uniform(0.1, 5)))
                for i, a in enumerate(arr)
            ]
            inst = normalize_instance(packets)
            d = decompose(inst)
            assert d.lengths.sum() == pytest.approx(inst.horizon, rel=1e-12)

    def test_contiguous_epoch_runs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            packets = [
                P(i + 1, 1.0, a, a + float(rng.uniform(0.1, 5)))
                for i, a in enumerate(rng.uniform(0, 10, n))
            ]
            d = decompose(normalize_instance(packets))
            for c in epoch_sets_per_packet(d):
                js = sorted(c)
                assert js == list(range(js[0], js[-1] + 1))

    def test_transpose_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            packets = [
                P(i + 1, 1.0, a, a + float(rng.uniform(0.1, 5)))
                for i, a in enumerate(rng.uniform(0, 10, n))
            ]
            inst = normalize_instance(packets)
            d = decompose(inst)
            per_packet, per_epoch = epoch_sets_per_packet(d), packet_sets_per_epoch(d)
            for i in range(1, inst.n + 1):
                for j in range(1, d.m + 1):
                    assert (j in per_packet[i - 1]) == (i in per_epoch[j - 1])

    def test_runs_and_covered(self):
        opens, shuts = runs(np.array([True, True, False, True, False, False, True]))
        assert (opens.tolist(), shuts.tolist()) == ([0, 3, 6], [2, 4, 7])
        for mask in (np.zeros(3, dtype=bool), np.zeros(0, dtype=bool)):
            assert [r.tolist() for r in runs(mask)] == [[], []]
        lo, hi = np.array([0, 1, 3, 2]), np.array([2, 3, 3, 4])
        assert covered(lo, hi, 5).tolist() == [1, 2, 2, 1, 0]
        assert covered(lo[:0], hi[:0], 2).tolist() == [0, 0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        packets = [
            P(i + 1, 1.0, a, a + float(rng.uniform(0.1, 5)))
            for i, a in enumerate(rng.uniform(0, 10, 6))
        ]
        d1 = decompose(normalize_instance(packets))
        shuffled = [packets[k] for k in rng.permutation(6)]
        d2 = decompose(normalize_instance(shuffled))
        assert d1 == d2


class TestInstanceCache:
    def test_decomposition_is_built_once(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 3.0), P(2, 4.0, 1.0, 2.0)])
        assert inst.decomposition == decompose(inst)
        assert inst.decomposition is inst.decomposition

    def test_pipeline_decomposes_once(self, monkeypatch):
        calls = []
        real = model_module.decompose

        def counted(instance):
            calls.append(instance)
            return real(instance)

        monkeypatch.setattr(model_module, "decompose", counted)
        inst = normalize_instance(
            [P(1, 1.0, 0.0, 3.0), P(2, 4.0, 1.0, 2.0), P(3, 2.0, 2.5, 5.0)]
        )
        model = Shannon(1.0)
        back = schedule_from_json(schedule_to_json(solve(inst, model)), inst)
        extract_certificate(inst, back, model)
        solve_projected_gradient(inst, model, max_iters=50)
        assert calls == [inst]

    def test_arrays_are_read_only(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 3.0), P(2, 4.0, 1.0, 2.0)])
        assert inst.bits() is inst.bits()
        for arr in (inst.bits(), inst.arrivals(), inst.deadlines()):
            with pytest.raises(ValueError):
                arr[0] = 9.0
        assert inst.bits().tolist() == [1.0, 4.0]
        assert inst.arrivals().tolist() == [0.0, 1.0]
        assert inst.deadlines().tolist() == [3.0, 2.0]

    def test_decomposition_arrays_are_read_only_and_built_once(self):
        d = normalize_instance([P(1, 1.0, 0.0, 3.0), P(2, 4.0, 1.0, 2.0)]).decomposition
        assert d.lengths is d.lengths and d.coverage is d.coverage
        for arr in (d.instants, d.lo, d.hi, d.lengths, d.coverage):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert d.lengths.tolist() == [1.0, 1.0, 1.0]
        assert d.coverage.tolist() == [1, 2, 1]

    def test_cache_is_outside_equality(self):
        a = normalize_instance([P(1, 1.0, 0.0, 3.0)])
        b = normalize_instance([P(1, 1.0, 0.0, 3.0)])
        a.decomposition
        assert a == b and hash(a) == hash(b)


class TestNonFifo:
    def test_nested_is_flagged(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])
        assert is_non_fifo(inst) == {2}

    def test_fifo_order_is_clean(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.5, 2.0)])
        assert is_non_fifo(inst) == set()

    def test_single_packet(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        assert is_non_fifo(inst) == set()

    def test_shared_endpoint_is_not_nesting(self):
        # strict containment required on both sides
        inst = normalize_instance([P(1, 1.0, 0.0, 2.0), P(2, 1.0, 0.5, 2.0)])
        assert is_non_fifo(inst) == set()


class TestJson:
    def test_roundtrip_identity(self):
        inst = normalize_instance(
            [P(1, 2.25, 0.0, 2.0), P(2, 1.125, 0.4444444444444444, 1.0)]
        )
        text = instance_to_json(inst, noise_power=2.5)
        back, noise = instance_from_json(text)
        assert back == inst
        assert noise == 2.5

    @pytest.mark.parametrize(
        "noise, text",
        [(np.float32(2.0), "2.0"), (np.int64(2), "2"), (np.float64(0.1), "0.1"), (2, "2")],
    )
    def test_numpy_noise_power_written_as_python_number(self, noise, text):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        written = instance_to_json(inst, noise_power=noise)
        assert f'"noise_power": {text},' in written
        back, read = instance_from_json(written)
        assert back == inst and read == noise

    def test_field_names_exact(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        doc = json.loads(instance_to_json(inst))
        assert set(doc.keys()) == {"noise_power", "packets"}
        assert set(doc["packets"][0].keys()) == {"id", "bits", "arrival", "deadline"}

    def test_noise_power_defaults_to_one(self):
        text = json.dumps(
            {"packets": [{"id": 1, "bits": 1.0, "arrival": 0.0, "deadline": 1.0}]}
        )
        _, noise = instance_from_json(text)
        assert noise == 1.0

    def test_invalid_json_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_json("{not json")

    def test_missing_packets_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_json("{}")

    @pytest.mark.parametrize("packets", ["5", "null", '"abc"'])
    def test_packets_not_a_list_rejected(self, packets):
        with pytest.raises(InstanceFormatError):
            instance_from_json(f'{{"packets": {packets}}}')

    @pytest.mark.parametrize("noise", [0.0, -1.0, math.inf, math.nan])
    def test_bad_noise_power_rejected(self, noise):
        text = json.dumps(
            {
                "noise_power": noise,
                "packets": [{"id": 1, "bits": 1.0, "arrival": 0.0, "deadline": 1.0}],
            }
        )
        with pytest.raises(InstanceFormatError, match="noise_power"):
            instance_from_json(text)

    def test_missing_field_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_json(json.dumps({"packets": [{"id": 1, "bits": 1.0}]}))

    def test_loader_normalizes(self):
        text = json.dumps(
            {
                "packets": [
                    {"id": 9, "bits": 1.0, "arrival": 5.0, "deadline": 7.0},
                    {"id": 3, "bits": 1.0, "arrival": 4.0, "deadline": 6.0},
                ]
            }
        )
        inst, _ = instance_from_json(text)
        assert [p.id for p in inst.packets] == [1, 2]
        assert inst.packets[0].arrival == 0.0
        assert inst.id_map == {1: 3, 2: 9}


TOLERANCE_TABLE = ("TIME_REL_TOL", "DUST_REL_TOL", "REL_TOL", "CERT_TOL", "RATE_TIE_REL")


def stray_tolerances(source: str, table=()) -> list[tuple[int, str]]:
    """(line, text) of each float literal with a negative exponent in the
    Python `source`, except the value of a top-level assignment to a name
    in `table`.  Comments and strings, docstrings among them, are other
    tokens, so their numbers are not counted."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    found = []
    for k, tok in enumerate(tokens):
        if tok.type != tokenize.NUMBER or not re.search(r"[eE]-", tok.string):
            continue
        name, eq = tokens[k - 2], tokens[k - 1]
        if not (eq.string == "=" and name.string in table and name.start[1] == 0):
            found.append((tok.start[0], tok.string))
    return found


def test_stray_tolerances_skip_comments_and_docstrings():
    source = '"""1e-9 in a docstring"""\nREL_TOL = 1e-9  # 1e-9\nx = 2.5e-8 * y\nz = 1e9 + 0.001\n'
    assert stray_tolerances(source, TOLERANCE_TABLE) == [(3, "2.5e-8")]
    assert stray_tolerances(source) == [(2, "1e-9"), (3, "2.5e-8")]


@pytest.mark.parametrize("module", ["model", "scheduler", "verifier", "power"])
def test_float_tolerances_live_in_the_model_table(module):
    """The solver, verifier and power law take every float tolerance
    from `model`'s table; only `model` may assign one."""
    path = Path(model_module.__file__).with_name(f"{module}.py")
    table = TOLERANCE_TABLE if module == "model" else ()
    assert stray_tolerances(path.read_text(), table) == []
