import json
import math

import numpy as np
import pytest

from txsched import (
    EmptyInstance,
    InstanceFormatError,
    MalformedPacket,
    Packet,
    Shannon,
    decompose,
    extract_certificate,
    instance_from_json,
    instance_to_json,
    is_non_fifo,
    normalize_instance,
    schedule_from_json,
    schedule_to_json,
    solve,
    solve_projected_gradient,
)
from txsched import model as model_module
from txsched.model import TIME_REL_TOL


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


class TestPacket:
    def test_rejects_inverted_window(self):
        with pytest.raises(MalformedPacket):
            P(1, 1.0, 1.0, 0.5)

    def test_rejects_zero_window(self):
        with pytest.raises(MalformedPacket):
            P(1, 1.0, 1.0, 1.0)

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(MalformedPacket):
            P(1, 0.0, 0.0, 1.0)
        with pytest.raises(MalformedPacket):
            P(1, -2.0, 0.0, 1.0)

    def test_error_names_the_packet(self):
        with pytest.raises(MalformedPacket) as err:
            P(7, -1.0, 0.0, 1.0)
        assert err.value.packet_id == 7

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
        with pytest.raises(MalformedPacket, match=f"{field} must be finite"):
            P(1, *fields)

    @pytest.mark.parametrize("pid", ["a", 1.0, True, None])
    def test_rejects_non_integer_ids(self, pid):
        with pytest.raises(MalformedPacket, match="id must be an integer"):
            P(pid, 1.0, 0.0, 1.0)

    def test_accepts_numpy_integer_ids(self):
        assert P(np.int64(3), 1.0, 0.0, 1.0).id == 3


class TestNormalize:
    def test_shifts_to_zero(self):
        inst = normalize_instance([P(1, 1.0, 5.0, 6.0)])
        assert inst.packets[0].arrival == 0.0
        assert inst.packets[0].deadline == 1.0
        assert inst.horizon == 1.0

    def test_already_normalized_unchanged(self):
        inst = normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])
        assert [p.window for p in inst.packets] == [(0.0, 2.0), (0.5, 1.0)]
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
                assert inst.packets[0].window == (0.0, frac * tol)

    def test_horizon_is_max_deadline(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 5.0), P(2, 1.0, 1.0, 2.0)])
        assert inst.horizon == 5.0


class TestDecompose:
    def test_single_packet(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        d = decompose(inst)
        assert d.instants == (0.0, 1.0)
        assert d.epochs == ((0.0, 1.0),)
        assert d.epoch_sets_per_packet == (frozenset({1}),)
        assert d.packet_sets_per_epoch == (frozenset({1}),)

    def test_nested_pair(self):
        # hand enumeration: grid 0, 0.5, 1, 2; inner packet lives in the
        # middle epoch only, the outer one everywhere
        inst = normalize_instance([P(1, 2.0, 0.0, 2.0), P(2, 1.0, 0.5, 1.0)])
        d = decompose(inst)
        assert d.instants == (0.0, 0.5, 1.0, 2.0)
        assert d.epochs == ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0))
        assert d.epoch_sets_per_packet[0] == frozenset({1, 2, 3})
        assert d.epoch_sets_per_packet[1] == frozenset({2})
        assert d.packet_sets_per_epoch[0] == frozenset({1})
        assert d.packet_sets_per_epoch[1] == frozenset({1, 2})
        assert d.packet_sets_per_epoch[2] == frozenset({1})

    def test_duplicate_windows_dedup(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 1.0)])
        d = decompose(inst)
        assert d.instants == (0.0, 1.0)
        assert d.packet_sets_per_epoch == (frozenset({1, 2}),)

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
            assert d.epoch_lengths().sum() == pytest.approx(inst.horizon, rel=1e-12)

    def test_contiguous_epoch_runs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            packets = [
                P(i + 1, 1.0, a, a + float(rng.uniform(0.1, 5)))
                for i, a in enumerate(rng.uniform(0, 10, n))
            ]
            d = decompose(normalize_instance(packets))
            for c in d.epoch_sets_per_packet:
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
            for i in range(1, inst.n + 1):
                for j in range(1, d.m + 1):
                    assert (j in d.epoch_sets_per_packet[i - 1]) == (
                        i in d.packet_sets_per_epoch[j - 1]
                    )

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
