"""Acceptance suite: one test per criterion, one printed verdict each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
The corpora are seeded, so every run exercises identical instances.
"""

import time

import numpy as np
import pytest

from txsched import (
    GeneratorConfig,
    Packet,
    Shannon,
    TooLarge,
    baseline_constant_edf,
    bench_complexity,
    check_feasible,
    check_optimality,
    decompose,
    extract_certificate,
    generate,
    is_non_fifo,
    normalize_instance,
    schedule_from_allocation,
    solve,
    solve_grid,
    solve_projected_gradient,
)

MODEL = Shannon(1.0)
PG_TOL = 1e-13


def _report(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def _small_config(k):
    return GeneratorConfig(
        n=2 + k % 5,
        horizon=2.0 + (2 + k % 5),
        seed=1000 + k,
        non_fifo_prob=(0.0, 0.5, 1.0)[k % 3],
        min_window_frac=0.1,
        bits_range=(0.4, 1.5),
    )


def _big_config(k):
    return GeneratorConfig(
        n=2 + k % 29,
        horizon=2.0 + (2 + k % 29),
        seed=20_000 + k,
        non_fifo_prob=(0.0, 0.3, 0.7, 1.0)[k % 4],
        min_window_frac=0.01,
        bits_range=(0.5, 4.0),
    )


@pytest.fixture(scope="module")
def small_corpus():
    out = []
    for k in range(200):
        inst = generate(_small_config(k))
        out.append((inst, solve(inst, MODEL)))
    return out


@pytest.fixture(scope="module")
def big_corpus():
    out = []
    for k in range(1000):
        inst = generate(_big_config(k))
        out.append((inst, solve(inst, MODEL)))
    return out


def test_criterion_1_oracle_equivalence(small_corpus):
    t0 = time.perf_counter()
    failures = []
    for k, (inst, sched) in enumerate(small_corpus):
        sol = solve_projected_gradient(inst, MODEL, tol=PG_TOL)
        energy_gap = abs(sched.energy - sol.energy) / abs(sol.energy)
        rate_gap = float(np.max(np.abs(sched.rates - sol.rates) / sched.rates))
        if energy_gap > 1e-5:
            failures.append((k, f"energy gap {energy_gap:.2e}"))
        if rate_gap > 1e-4:
            failures.append((k, f"rate gap {rate_gap:.2e}"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", f"{elapsed:.1f}s >= 60s"))
    _report(
        1,
        "oracle equivalence on 200 instances",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_grid_cross_check():
    failures = []
    done = 0
    k = 0
    skipped = 0
    while done < 30 and k < 500:
        inst = generate(
            GeneratorConfig(
                n=1 + k % 3,
                horizon=3.0,
                seed=7000 + k,
                non_fifo_prob=0.5,
                min_window_frac=0.1,
                bits_range=(0.4, 1.5),
            )
        )
        k += 1
        try:
            grid = solve_grid(inst, MODEL, resolution=200)
        except TooLarge:
            skipped += 1
            continue
        pg = solve_projected_gradient(inst, MODEL, tol=PG_TOL)
        gap = abs(grid.energy - pg.energy) / abs(pg.energy)
        if gap > 1e-3:
            failures.append((k, f"grid gap {gap:.2e}"))
        done += 1
    if done < 30:
        failures.append(("count", f"only {done} instances fit the grid guard"))
    _report(2, "grid oracle cross-check on 30 tiny instances", failures,
            f"{skipped} TooLarge skips")


def test_criterion_3_necessary_conditions(big_corpus):
    failures = []
    for k, (inst, sched) in enumerate(big_corpus):
        feas = check_feasible(inst, sched)
        if not feas.ok:
            failures.append((k, f"infeasible: {feas.violations[:2]}"))
            continue
        report = check_optimality(inst, sched, MODEL)
        if not report.optimal:
            failures.append((k, "optimality conditions failed"))
            continue
        try:
            cert = extract_certificate(inst, sched, MODEL)
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            failures.append((k, f"certificate: {exc}"))
            continue
        if not (
            np.all(cert.beta >= 0)
            and np.all(cert.gamma >= 0)
            and np.all(np.isfinite(cert.lam))
        ):
            failures.append((k, "multiplier signs"))
    _report(3, "necessary conditions + certificates on 1000 instances", failures)


def _perturbable_epoch(inst, sched, move_frac=0.01):
    d = decompose(inst)
    lengths = d.epoch_lengths()
    for j in range(1, d.m + 1):
        feas = sorted(d.packet_sets_per_epoch[j - 1])
        if len(feas) < 2:
            continue
        delta = move_frac * lengths[j - 1]
        taus = [(sched.tau[i - 1, j - 1], i) for i in feas]
        taus.sort(reverse=True)
        donor = taus[0][1]
        if taus[0][0] < delta * 1.1:
            continue
        recipient = next(i for _, i in taus[1:])
        return j, donor, recipient, delta
    return None


def test_criterion_4_sufficiency_perturbations():
    failures = []
    tested = 0
    degenerate = 0
    k = 0
    while tested < 50 and k < 600:
        inst = generate(
            GeneratorConfig(
                n=2 + k % 4,
                horizon=5.0,
                seed=40_000 + k,
                non_fifo_prob=0.6,
                min_window_frac=0.1,
                bits_range=(0.4, 1.5),
            )
        )
        k += 1
        sched = solve(inst, MODEL)
        pick = _perturbable_epoch(inst, sched)
        if pick is None:
            continue
        j, donor, recipient, delta = pick
        tau = sched.tau.copy()
        tau[donor - 1, j - 1] -= delta
        tau[recipient - 1, j - 1] += delta
        perturbed = schedule_from_allocation(inst, tau, MODEL)
        tested += 1
        feas = check_feasible(inst, perturbed)
        if not feas.ok:
            failures.append((k, f"perturbed infeasible: {feas.violations[:1]}"))
            continue
        rel_change = abs(perturbed.energy - sched.energy) / sched.energy
        if rel_change <= 1e-9:
            degenerate += 1
            continue
        report = check_optimality(inst, perturbed, MODEL)
        if report.optimal:
            failures.append(
                (k, f"perturbed passed the conditions with energy change {rel_change:.2e}")
            )
            continue
        oracle = solve_projected_gradient(inst, MODEL, tol=1e-12)
        if perturbed.energy < oracle.energy * (1 - 1e-6):
            failures.append((k, "perturbed schedule beat the oracle"))
    if tested < 50:
        failures.append(("count", f"only {tested} perturbable instances found"))
    _report(
        4,
        "perturbed schedules fail the conditions",
        failures,
        f"{degenerate} degenerate ties",
    )


def test_criterion_5_monotone_iteration_rates(small_corpus, big_corpus):
    failures = []
    for label, corpus in (("small", small_corpus), ("big", big_corpus)):
        for k, (inst, sched) in enumerate(corpus):
            rates = [st.rate for st in sched.trace.steps]
            for a, b in zip(rates, rates[1:]):
                if b > a * (1 + 1e-9):
                    failures.append((label, k, f"{a} -> {b}"))
    _report(5, "iteration rates never increase", failures)


def test_criterion_6_worked_example():
    failures = []
    inst = normalize_instance(
        [Packet(1, 2.0, 0.0, 2.0), Packet(2, 1.0, 0.5, 1.0)]
    )
    sched = solve(inst, MODEL)
    if abs(sched.rates[1] - 2.0) > 1e-12 * 2.0:
        failures.append(f"inner rate {sched.rates[1]!r}")
    if abs(sched.rates[0] - 4.0 / 3.0) > 1e-12 * (4.0 / 3.0):
        failures.append(f"outer rate {sched.rates[0]!r}")
    if abs(sched.energy - 15.5244) > 1e-3:
        failures.append(f"energy {sched.energy!r} not ~15.5244")
    oracle = solve_projected_gradient(inst, MODEL, tol=PG_TOL)
    gap = abs(sched.energy - oracle.energy) / oracle.energy
    if gap > 1e-5:
        failures.append(f"oracle gap {gap:.2e}")
    _report(6, "nested worked example", failures,
            f"energy {sched.energy:.4f}")


def test_criterion_7_complexity_bounds():
    failures = []
    sizes = [10, 20, 40, 100, 200]
    rows = bench_complexity(sizes, seed=11)
    for row in rows:
        if row.iterations > row.n:
            failures.append((row.n, f"{row.iterations} iterations"))
        if row.max_candidates_per_iteration > row.n * row.n:
            failures.append((row.n, f"{row.max_candidates_per_iteration} candidates"))
    big = rows[-1]
    if big.wall_time_s >= 10.0:
        failures.append((200, f"{big.wall_time_s:.2f}s >= 10s"))
    _report(
        7,
        "candidate and iteration bounds, n=200 under 10s",
        failures,
        f"n=200 in {big.wall_time_s:.3f}s",
    )


def test_criterion_8_baseline_dominance(small_corpus, big_corpus):
    failures = []
    strict = 0
    non_fifo_total = 0
    for label, corpus in (("small", small_corpus), ("big", big_corpus)):
        for k, (inst, sched) in enumerate(corpus):
            base = baseline_constant_edf(inst, MODEL)
            if base.energy < sched.energy * (1 - 1e-9):
                failures.append((label, k, "baseline beat the optimum"))
            if is_non_fifo(inst):
                non_fifo_total += 1
                if base.energy > sched.energy * (1 + 1e-9):
                    strict += 1
    if non_fifo_total == 0:
        failures.append(("count", "no non-FIFO instances in the corpora"))
    elif strict < 0.5 * non_fifo_total:
        failures.append(
            ("strictness", f"{strict}/{non_fifo_total} strictly worse")
        )
    _report(
        8,
        "baseline never beats, usually loses",
        failures,
        f"strict on {strict}/{non_fifo_total} non-FIFO",
    )
