"""The txsched benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload nested --seed 1 --seconds 30 --trace 0

Builds nothing: it imports txsched from the `src` directory of the
checkout it sits in, and fails when that is missing. With `--trace 0`
it times the per-instance pipeline untraced and prints the end-to-end
metrics; with `--trace 1` it runs every instance twice, once untraced
and once under the span tracer, and prints the per-layer metrics with
the tracing overhead. The last line of standard output is the result
as one JSON object. See README.md in this directory for the workloads
and for which end-to-end metric each layer metric should move.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin the BLAS pool before numpy loads it: one thread measured steadier
# than two on a 2-core machine, and the solver's matmuls are small.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

# Causes counted on their own; any other exception is counted under
# `failures.other`. A check failure means txsched certified a result
# that an independent check rejects, so it also makes the run incorrect.
FAILURE_KEYS = (
    "scheduler.failures.InternalIdle",
    "scheduler.failures.InternalDeadlineMiss",
    "scheduler.failures.InternalInvariantViolation",
    "verifier.failures.InfeasibleInput",
    "verifier.failures.NotOptimal",
    "check.failures.rescale",
    "check.failures.energy_gap",
)
OTHER_FAILURE = "failures.other"

# per-layer timing metric -> span label
LAYER_TIMES = {
    "model.decompose_s": "model.decompose",
    "model.instance_from_json_s": "model.instance_from_json",
    "scheduler.solve_s": "scheduler.solve",
    "scheduler.edf_fill_s": "scheduler.edf_fill",
    "scheduler.json_s": "scheduler.json",
    "power.schedule_energy_s": "power.schedule_energy",
    "verifier.check_feasible_s": "verifier.check_feasible",
    "verifier.check_optimality_s": "verifier.check_optimality",
    "verifier.extract_certificate_s": "verifier.extract_certificate",
    "oracle.pgd_s": "oracle.pgd",
}
LAYER_CALLS = {
    "model.decompose_calls": "model.decompose",
    "scheduler.edf_fill_calls": "scheduler.edf_fill",
}


def import_txsched():
    """Put the checkout's sources first on the path and import them."""
    if not os.path.isfile(os.path.join(SRC, "txsched", "__init__.py")):
        sys.exit(f"perfbench: no txsched sources under {SRC}")
    sys.path.insert(0, SRC)
    import txsched

    if not os.path.abspath(txsched.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported txsched from {txsched.__file__}, not {SRC}")
    return txsched


def blas_info(np) -> dict:
    """BLAS library, version and live thread count, where numpy tells."""
    info = {"blas": "unknown", "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failure_key(cause: str) -> str:
    return cause if cause in FAILURE_KEYS else OTHER_FAILURE


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_loop(pool, seconds: float, run_one):
    """Run cases in pool order, cycling, until `seconds` have passed.

    Returns the outcomes and the loop's wall time; at least one case
    runs. `run_one(index, case, reference)` returns an outcome, and a
    rescaled case gets the latest outcome of its original as reference.
    """
    outcomes = []
    latest = {}
    t0 = time.perf_counter()
    end = t0 + seconds
    k = 0
    while k == 0 or time.perf_counter() < end:
        i = k % len(pool)
        case = pool[i]
        ref = latest.get(case.original) if case.original is not None else None
        latest[i] = run_one(k, case, ref)
        outcomes.append(latest[i])
        k += 1
    return outcomes, time.perf_counter() - t0


def summarize_failures(outcomes) -> Counter:
    return Counter(failure_key(o.cause) for o in outcomes if not o.certified)


def end_to_end(outcomes, wall: float, setup_s: float) -> dict:
    times = [o.seconds for o in outcomes if o.certified]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "certified_per_s": metric(len(times) / wall, "1/s"),
        "instance_s.p50": metric(quantile(times, 0.50), "s"),
        "instance_s.p75": metric(quantile(times, 0.75), "s"),
        "certified_share": metric(len(times) / len(outcomes), "share"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced, setup_outside) -> dict:
    inside, calls, _, root_time = tracer.self_times()
    n = len(traced)
    out = {}
    for name, label in LAYER_TIMES.items():
        out[name] = metric(inside.get(label, 0.0) / n, "s")
    for name, label in LAYER_CALLS.items():
        out[name] = metric(calls[label] / n, "count")
    out["power.g_calls"] = metric(tracer.counts["power.g"] / n, "count")
    out["power.power_calls"] = metric(tracer.counts["power.power"] / n, "count")

    solved = [o for o in traced if o.rounds > 0]
    for name, attr in (
        ("scheduler.rounds", "rounds"),
        ("scheduler.candidates", "candidates"),
        ("scheduler.segments", "segments"),
    ):
        mean = statistics.fmean(getattr(o, attr) for o in solved) if solved else 0.0
        out[name] = metric(mean, "count")

    checked = [o for o in traced if o.gap is not None]
    out["oracle.iterations"] = metric(
        statistics.fmean(o.oracle_iterations for o in checked) if checked else 0.0,
        "count",
    )
    out["oracle.converged_share"] = metric(
        sum(o.oracle_converged for o in checked) / len(checked) if checked else 0.0,
        "share",
    )
    out["oracle.iters_to_1e-6"] = metric(
        statistics.fmean(o.iters_to_tol for o in checked) if checked else 0.0,
        "count",
    )
    out["oracle.rel_gap_max"] = metric(
        max((o.gap for o in checked), default=0.0), "share"
    )
    out["harness.generate_s"] = metric(setup_outside.get("harness.generate", 0.0), "s")

    failures = summarize_failures(traced)
    for key in FAILURE_KEYS + (OTHER_FAILURE,):
        out[key] = metric(failures[key], "count")
    out["fail_share"] = metric(sum(failures.values()) / n, "share")

    pairs = [(t, u) for t, u in zip(traced, untraced) if t.certified and u.certified]
    traced_p50 = quantile([t.seconds for t, _ in pairs], 0.5) if pairs else 0.0
    untraced_p50 = quantile([u.seconds for _, u in pairs], 0.5) if pairs else 0.0
    out["trace.instance_s.p50"] = metric(traced_p50, "s")
    out["trace.untraced_instance_s.p50"] = metric(untraced_p50, "s")
    out["trace.overhead_share"] = metric(
        traced_p50 / untraced_p50 - 1.0 if untraced_p50 > 0 else 0.0, "share"
    )
    unattributed = inside.get("instance", 0.0)
    out["trace.unattributed_s"] = metric(unattributed / n, "s")
    out["trace.unattributed_share"] = metric(
        unattributed / root_time if root_time > 0 else 0.0, "share"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="a few small instances, for the self-test",
    )
    args = parser.parse_args(argv)

    txsched = import_txsched()
    import numpy as np

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "txsched": txsched.__version__,
        **blas_info(np),
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        setups = []
        for _ in range(SETUP_REPEATS):
            pool, dt = workloads.set_up(wl, args.seed, args.seconds, args.tiny)
            setups.append(dt)
        setup_s = import_s + statistics.median(setups)
        outcomes, wall = timed_loop(
            pool, args.seconds, lambda k, case, ref: workloads.run_case(wl, case, ref)
        )
        print(f"pool {len(pool)} cases; set-up runs {[round(s, 4) for s in setups]} s; "
              f"loop {wall:.3f} s")
    else:
        tracer = tracing.Tracer()
        with tracer.installed():
            pool, _ = workloads.set_up(wl, args.seed, args.seconds, args.tiny)
        _, _, setup_outside, _ = tracer.self_times()
        tracer.spans.clear()
        tracer.counts.clear()
        untraced = []

        def paired_one(k, case, ref):
            # Alternate which pass runs first, so neither always meets
            # the caches the other left behind.
            traced_first = k % 2 == 1
            if not traced_first:
                untraced.append(workloads.run_case(wl, case, ref))
            with tracer.installed(), tracer.span(tracing.ROOT, instance=k):
                traced = workloads.run_case(wl, case, ref, track_history=True)
            if traced_first:
                untraced.append(workloads.run_case(wl, case, ref))
            return traced

        outcomes, wall = timed_loop(pool, args.seconds, paired_one)
        path = os.path.join(
            TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        if tracer.absent:
            print("absent (reported as 0): " + ", ".join(tracer.absent))

    failures = summarize_failures(outcomes)
    attempted = len(outcomes)
    certified = attempted - sum(failures.values())
    if certified == 0:
        print(f"perfbench: no instance certified out of {attempted}: "
              f"{dict(failures)}", file=sys.stderr)
        return 1
    # A case txsched refuses with an error type of its own is a measured
    # outcome: it lowers `certified_share` and is counted by cause. The
    # result line's `failed` counts the cases that end any other way: an
    # exception txsched does not define, or a failed output check.
    refused = sum(o.refused for o in outcomes)
    failed = attempted - certified - refused
    if args.trace == 0:
        metrics = end_to_end(outcomes, wall, setup_s)
    else:
        metrics = per_layer(tracer, outcomes, untraced, setup_outside)
    correct = not any(k.startswith("check.") for k in failures)
    print(f"attempted {attempted}, certified {certified}, "
          f"refused by txsched {refused}, failed {failed} "
          f"(fail share {(attempted - certified) / attempted:.4f})")
    first_detail = {}
    for o in outcomes:
        if not o.certified:
            first_detail.setdefault(failure_key(o.cause), o.detail)
    for key, count in sorted(failures.items()):
        print(f"  {key}: {count}, first: {first_detail[key]}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
