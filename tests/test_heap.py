"""The malloc thresholds fixed at import keep instance costs steady.

With glibc's adaptive thresholds, a young process served each array of a
few MB with fresh pages and returned them on free: a nested N=500 solve
and certificate took thousands of minor page faults until the process
happened to free a larger array.  With the thresholds fixed, an instance
after the first reuses the heap.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from txsched import _heap

glibc = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's"
)


def test_environment_thresholds_are_left_alone(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert _heap.fix_thresholds() is False


@glibc
def test_thresholds_are_set(monkeypatch):
    for name in _heap._ENV:
        monkeypatch.delenv(name, raising=False)
    assert _heap.fix_thresholds() is True


@glibc
def test_repeated_instances_take_no_fresh_pages():
    """In a fresh child process, a nested N=400 instance solved, round-
    tripped and certified three more times after a first run takes fewer
    than 100 minor page faults in all (thousands a run without fixed
    thresholds)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k not in _heap._ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import resource\n"
        "from txsched import *\n"
        "inst = generate(GeneratorConfig(n=400, horizon=200.0, seed=0,"
        " non_fifo_prob=1.0))\n"
        "def run():\n"
        "    sched = solve(inst, Shannon(1.0))\n"
        "    back = schedule_from_json(schedule_to_json(sched), inst)\n"
        "    extract_certificate(inst, back, Shannon(1.0))\n"
        "run()\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(3):\n"
        "    run()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 100
