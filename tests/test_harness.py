import math
from pathlib import Path

import pytest

from txsched import (
    ConfigInvalid,
    GeneratorConfig,
    Packet,
    Shannon,
    baseline_constant_edf,
    bench_complexity,
    check_feasible,
    check_optimality,
    generate,
    instance_from_json,
    instance_to_json,
    is_non_fifo,
    normalize_instance,
    solve,
)

MODEL = Shannon(1.0)
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def P(pid, bits, arrival, deadline):
    return Packet(pid, bits, arrival, deadline)


class TestGenerate:
    def test_single_packet_never_non_fifo(self):
        inst = generate(GeneratorConfig(n=1, seed=5))
        assert inst.n == 1
        assert is_non_fifo(inst) == set()

    def test_deterministic_bytes(self):
        config = GeneratorConfig(n=8, seed=123, non_fifo_prob=0.4)
        a = instance_to_json(generate(config))
        b = instance_to_json(generate(config))
        assert a == b

    def test_seed_42_n10_is_non_fifo(self):
        inst = generate(GeneratorConfig(n=10, seed=42, non_fifo_prob=1.0))
        assert is_non_fifo(inst) != set()

    def test_golden_corpus_regenerates(self):
        # the committed corpus pins the generator's exact output
        import json

        manifest = json.loads((CORPUS_DIR / "MANIFEST.json").read_text())
        assert manifest
        for entry in manifest:
            config = GeneratorConfig(
                n=entry["n"],
                seed=entry["seed"],
                non_fifo_prob=entry["non_fifo_prob"],
                min_window_frac=entry["min_window_frac"],
                bits_range=tuple(entry["bits_range"]),
            )
            golden = (CORPUS_DIR / entry["file"]).read_text()
            assert instance_to_json(generate(config)) == golden

    def test_golden_non_fifo_ids(self):
        # the seed-42 corpus instance nests these packets
        inst, _ = instance_from_json((CORPUS_DIR / "42-10.json").read_text())
        assert is_non_fifo(inst) == {2, 3, 4, 5, 8}

    def test_every_instance_normalizes(self):
        for seed in range(40):
            config = GeneratorConfig(
                n=1 + seed % 12, seed=seed, non_fifo_prob=(seed % 5) / 4.0
            )
            inst = generate(config)
            renorm = normalize_instance(list(inst.packets))
            assert renorm.packets == inst.packets
            assert inst.packets[0].arrival == 0.0
            assert inst.horizon == max(p.deadline for p in inst.packets)

    def test_window_floor_respected(self):
        config = GeneratorConfig(
            n=25, seed=77, non_fifo_prob=1.0, min_window_frac=0.05
        )
        inst = generate(config)
        shortest = (inst.deadlines() - inst.arrivals()).min()
        assert shortest >= 0.05 * config.horizon * 0.999

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 3, "horizon": 0.0},
            {"n": 3, "non_fifo_prob": 1.5},
            {"n": 3, "bits_range": (0.0, 1.0)},
            {"n": 3, "bits_range": (2.0, 1.0)},
            {"n": 3, "min_window_frac": 0.5},
            {"n": 3, "horizon": math.inf},
            {"n": 3, "bits_range": (1.0, math.inf)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigInvalid):
            generate(GeneratorConfig(**kwargs))


class TestBaseline:
    def test_single_packet_equals_optimal(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0)])
        b = baseline_constant_edf(inst, MODEL)
        s = solve(inst, MODEL)
        assert b.energy == pytest.approx(s.energy, rel=1e-12)
        assert b.rates[0] == pytest.approx(1.0)

    def test_exact_fit_disjoint_equals_optimal(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 2.0, 1.0, 3.0)])
        b = baseline_constant_edf(inst, MODEL)
        s = solve(inst, MODEL)
        assert b.energy == pytest.approx(s.energy, rel=1e-12)

    def test_never_beats_optimal(self):
        for seed in range(60):
            inst = generate(
                GeneratorConfig(
                    n=2 + seed % 6, seed=3000 + seed,
                    non_fifo_prob=(seed % 3) / 2.0, min_window_frac=0.05,
                )
            )
            b = baseline_constant_edf(inst, MODEL)
            s = solve(inst, MODEL)
            assert b.energy >= s.energy * (1 - 1e-9)

    def test_always_feasible(self):
        for seed in range(60):
            inst = generate(
                GeneratorConfig(
                    n=2 + seed % 6, seed=5000 + seed,
                    non_fifo_prob=(seed % 3) / 2.0, min_window_frac=0.05,
                )
            )
            rep = check_feasible(inst, baseline_constant_edf(inst, MODEL))
            assert rep.ok, rep.violations

    def test_wasteful_on_cheap_inner_packet(self):
        # claiming the inner window greedily starves the big packet
        inst = normalize_instance([P(1, 10.0, 0.0, 2.0), P(2, 0.1, 0.5, 1.0)])
        b = baseline_constant_edf(inst, MODEL)
        s = solve(inst, MODEL)
        assert b.energy > s.energy * (1 + 1e-6)
        rep = check_optimality(inst, b, MODEL)
        assert not rep.optimal

    def test_identical_windows_tie_group(self):
        inst = normalize_instance([P(1, 1.0, 0.0, 1.0), P(2, 1.0, 0.0, 1.0)])
        b = baseline_constant_edf(inst, MODEL)
        rep = check_feasible(inst, b)
        assert rep.ok
        assert b.rates[0] == pytest.approx(2.0)
        assert b.rates[1] == pytest.approx(2.0)

    def test_pathological_tie_falls_back(self):
        # same deadline, staggered arrivals, joint claim cannot finish the
        # late packet: the per-epoch fallback still yields a feasible plan
        inst = normalize_instance(
            [P(1, 10.0, 0.0, 10.0), P(2, 10.0, 9.0, 10.0)]
        )
        b = baseline_constant_edf(inst, MODEL)
        rep = check_feasible(inst, b)
        assert rep.ok, rep.violations


class TestBench:
    def test_counters_within_bounds(self):
        rows = bench_complexity([10, 20, 40], seed=1)
        assert [r.n for r in rows] == [10, 20, 40]
        for r in rows:
            assert r.iterations <= r.n
            assert r.max_candidates_per_iteration <= r.n * r.n
            assert r.wall_time_s >= 0

    def test_empty_sizes(self):
        assert bench_complexity([], seed=1) == []

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ValueError):
            bench_complexity([20, 10], seed=1)


class TestCorpusSidecars:
    def test_energy_sidecars_match_solver(self):
        import json

        for path in sorted(CORPUS_DIR.glob("*-*.json")):
            if path.name.endswith(".energy.json"):
                continue
            inst, noise = instance_from_json(path.read_text())
            sidecar = json.loads(
                (path.parent / f"{path.stem}.energy.json").read_text()
            )
            s = solve(inst, Shannon(noise))
            assert s.energy == pytest.approx(sidecar["energy"], rel=1e-5)
