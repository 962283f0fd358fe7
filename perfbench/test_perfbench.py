"""Self-test of the benchmark on a few tiny instances per workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that the same seed gives the same inputs, and that the benchmark fails
without printing a result where the txsched sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.3",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    env = json.loads(lines[0].removeprefix("env "))
    assert env["seed"] == 5
    for key in ("python", "numpy", "blas", "blas_threads", "nproc"):
        assert key in env


def import_workloads():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return workloads


def test_same_seed_same_inputs():
    workloads = import_workloads()
    for wl in workloads.WORKLOADS.values():
        first = workloads.make_pool(wl, 7, 4, tiny=True)
        assert first == workloads.make_pool(wl, 7, 4, tiny=True)
        assert first != workloads.make_pool(wl, 8, 4, tiny=True)


def test_txsched_errors_are_refusals_and_others_failures():
    workloads = import_workloads()
    chain = workloads.WORKLOADS["chain"]
    case = workloads.make_pool(chain, 7, 1, tiny=True)[0]
    bad = workloads.Case("bad", case.text.replace('"bits": ', '"bits": -', 1))
    refused = workloads.run_case(chain, bad, None)
    assert not refused.certified and refused.refused
    assert refused.cause.startswith("model.failures.")

    def broken_law(noise):
        raise ZeroDivisionError("not a txsched error")

    foreign = workloads.run_case(
        workloads.Workload(broken_law, broken_law, False, 1.0), case, None
    )
    assert not foreign.certified and not foreign.refused
    assert foreign.cause == "model.failures.ZeroDivisionError"


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
