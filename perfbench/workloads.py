"""Instance families and the per-instance pipeline the benchmark times.

Every case runs the same steps as `txsched solve` followed by
`txsched validate --certificate`, in memory: parse the instance text,
solve, round-trip the schedule through JSON, and extract the KKT
certificate (which checks feasibility and the optimality conditions).
The `crosscheck` workload also runs the projected-gradient oracle with
the `txsched compare` defaults and checks the energy gap.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from txsched import harness, model, oracle, power, scheduler, verifier

RESCALE = 1e3
RATE_REL_TOL = 1e-9
# Rates that agree to 1e-9 move energy by at most a few times that for
# the rates these instances reach, so 1e-8 leaves room for rounding only.
ENERGY_REL_TOL = 1e-8
GAP_TOL = 1e-5
ORACLE_TOL = 1e-10
ORACLE_MAX_ITERS = 200_000
HISTORY_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    """One instance of a workload, as the JSON text the pipeline parses.

    `original` is the pool index of the case this one rescales, or None.
    A workload's make function gives it as an offset from the case
    itself (-1: the case just before), and `make_pool` resolves it.
    """

    label: str
    text: str
    original: int | None = None


@dataclass
class Outcome:
    certified: bool
    cause: str | None
    seconds: float
    rates: np.ndarray | None = None
    energy: float | None = None
    rounds: int = 0
    candidates: int = 0
    segments: int = 0
    oracle_iterations: int = 0
    oracle_converged: bool = False
    gap: float | None = None
    iters_to_tol: int | None = None
    detail: str = ""
    # True when txsched refused the case with an error type of its own
    # (a crash it detects, or a certificate its verifier rejects).
    refused: bool = False


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, int, bool], list[Case]]  # (seed, index, tiny)
    power_model: Callable[[float], power.PowerModel]  # noise power -> law
    with_oracle: bool
    # Pool size per second of run: about 1.7 times the throughput measured
    # when the benchmark was added, so a faster txsched rarely repeats a case.
    cases_per_second: float


def instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _packets_text(arrivals, deadlines, bits) -> str:
    return json.dumps(
        {
            "noise_power": 1.0,
            "packets": [
                {"id": i + 1, "bits": float(b), "arrival": float(a), "deadline": float(d)}
                for i, (a, d, b) in enumerate(zip(arrivals, deadlines, bits))
            ],
        }
    )


def nested_cases(seed: int, index: int, tiny: bool) -> list[Case]:
    n = 12 if tiny else 500
    config = harness.GeneratorConfig(
        n=n, horizon=n / 2, seed=instance_seed(seed, index), non_fifo_prob=1.0
    )
    inst = harness.generate(config)
    return [Case(f"nested-{index}", model.instance_to_json(inst))]


def chain_cases(seed: int, index: int, tiny: bool) -> list[Case]:
    """A chain instance and its copy with time and bits scaled by 1e3.

    Sorted arrivals uniform on [0, H], widths U(0.5, 3) * H / N and bits
    U(0.2, 2). Both cases are valid instances; the copy must reproduce
    the original's rates and scale its energy by exactly 1e3.
    """
    n, horizon = (12, 16.0) if tiny else (300, 400.0)
    rng = np.random.default_rng(instance_seed(seed, index))
    arrivals = np.sort(rng.uniform(0.0, horizon, n))
    deadlines = arrivals + rng.uniform(0.5, 3.0, n) * horizon / n
    bits = rng.uniform(0.2, 2.0, n)
    return [
        Case(f"chain-{index}", _packets_text(arrivals, deadlines, bits)),
        Case(
            f"chain-{index}-x{RESCALE:g}",
            _packets_text(arrivals * RESCALE, deadlines * RESCALE, bits * RESCALE),
            original=-1,
        ),
    ]


def crosscheck_cases(seed: int, index: int, tiny: bool) -> list[Case]:
    n = 6 if tiny else 12
    config = harness.GeneratorConfig(
        n=n,
        horizon=n + 2,
        seed=instance_seed(seed, index),
        non_fifo_prob=0.5,
        bits_range=(0.4, 1.5),
        min_window_frac=0.1,
    )
    inst = harness.generate(config)
    return [Case(f"crosscheck-{index}", model.instance_to_json(inst))]


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "nested": Workload(
        nested_cases,
        lambda noise: power.Shannon(noise),
        with_oracle=False,
        cases_per_second=5.0,
    ),
    "chain": Workload(
        chain_cases,
        lambda noise: power.Shannon(noise),
        with_oracle=False,
        cases_per_second=30.0,
    ),
    "crosscheck": Workload(
        crosscheck_cases,
        lambda noise: power.Monomial(exponent=1.5, scale=1.0),
        with_oracle=True,
        cases_per_second=70.0,
    ),
}

MIN_POOL = 40
TINY_POOL = 6


def make_pool(workload: Workload, seed: int, size: int, tiny: bool) -> list[Case]:
    pool: list[Case] = []
    index = 0
    while len(pool) < size:
        for case in workload.make(seed, index, tiny):
            if case.original is not None:
                case = Case(case.label, case.text, len(pool) + case.original)
            pool.append(case)
        index += 1
    return pool


def set_up(workload: Workload, seed: int, seconds: float, tiny: bool):
    """Generate the instance pool and warm up on a fixed case.

    Returns the pool and the seconds this took. The warm-up case does
    not depend on the seed, so set-up time varies with the run's inputs
    only through generating them.
    """
    t0 = time.perf_counter()
    size = TINY_POOL if tiny else max(MIN_POOL, int(workload.cases_per_second * seconds))
    pool = make_pool(workload, seed, size, tiny)
    ref = None
    for case in make_pool(workload, 0, 1, tiny):
        ref = run_case(workload, case, ref if case.original is not None else None)
    return pool, time.perf_counter() - t0


def run_case(
    workload: Workload,
    case: Case,
    reference: Outcome | None,
    track_history: bool = False,
) -> Outcome:
    """Run the pipeline on one case and check its outputs.

    `reference` is the outcome of the case this one rescales, if any.
    The returned outcome names the first stage that failed as
    `<stage>.failures.<ExceptionClass>`, or the failed output check as
    `check.failures.<check>`.
    """
    t0 = time.perf_counter()
    out = Outcome(certified=False, cause=None, seconds=0.0)
    stage = "model"
    try:
        inst, noise = model.instance_from_json(case.text)
        pm = workload.power_model(noise)
        stage = "scheduler"
        schedule = scheduler.solve(inst, pm)
        out.rates, out.energy = schedule.rates, schedule.energy
        steps = schedule.trace.steps if schedule.trace else ()
        out.rounds = len(steps)
        out.candidates = sum(s.candidates or 0 for s in steps)
        out.segments = len(schedule.segments)
        stage = "json"
        back = scheduler.schedule_from_json(scheduler.schedule_to_json(schedule), inst)
        stage = "verifier"
        verifier.extract_certificate(inst, back, pm)
        if workload.with_oracle:
            stage = "oracle"
            sol = oracle.solve_projected_gradient(
                inst, pm, tol=ORACLE_TOL, max_iters=ORACLE_MAX_ITERS,
                track_history=track_history,
            )
            out.oracle_iterations = sol.iterations
            out.oracle_converged = sol.converged
            out.gap = abs(schedule.energy - sol.energy) / max(abs(sol.energy), 1e-300)
            if sol.energy_history is not None:
                within = np.abs(sol.energy_history - schedule.energy) <= (
                    HISTORY_TOL * abs(schedule.energy)
                )
                hits = np.flatnonzero(within)
                out.iters_to_tol = int(hits[0]) if hits.size else len(within)
            if not out.gap <= GAP_TOL:
                out.cause = "check.failures.energy_gap"
                out.detail = f"energy gap {out.gap:.3e} above {GAP_TOL:g}"
        if out.cause is None and reference is not None and reference.certified:
            if not _rescaled_ok(reference, out):
                out.cause = "check.failures.rescale"
                out.detail = f"{case.label} does not rescale its original's result"
        out.certified = out.cause is None
    except Exception as exc:  # every failure is counted, whatever raised it
        out.cause = f"{stage}.failures.{type(exc).__name__}"
        out.detail = f"{case.label}: {type(exc).__name__}: {exc}"[:300]
        out.refused = type(exc).__module__.startswith("txsched.")
    out.seconds = time.perf_counter() - t0
    return out


def _rescaled_ok(reference: Outcome, copy: Outcome) -> bool:
    rates_ok = np.all(
        np.abs(copy.rates - reference.rates)
        <= RATE_REL_TOL * np.abs(reference.rates)
    )
    energy_ok = abs(copy.energy - RESCALE * reference.energy) <= (
        ENERGY_REL_TOL * RESCALE * abs(reference.energy)
    )
    return bool(rates_ok and energy_ok)
