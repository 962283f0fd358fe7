"""Regression and property tests over the chain family.

Chains of short, overlapping windows take about N/2 solve rounds, each
cutting a window out of the middle of the remaining timeline.  Every
instance, and its copies with time and bits scaled by 1e3, 1e-3, 1e6,
1e-6 and 1e-12, must solve, survive the JSON round trip and yield a KKT
certificate; the copies must reproduce the original's rates and scale its
energy by the factor.  Chain N=10^4 must do the same in under 400 MB.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from txsched import (
    Packet,
    Shannon,
    extract_certificate,
    normalize_instance,
    schedule_from_json,
    schedule_to_json,
    solve,
)

MODEL = Shannon(1.0)
SCALES = (1e3, 1e-3, 1e6, 1e-6, 1e-12)


def chain_instance(n=100, seed=0, horizon=100.0, scale=1.0):
    """Sorted arrivals on [0, H], widths U(0.5, 3) * H / N, bits U(0.2, 2),
    with time and bits multiplied by `scale`."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, horizon, n))
    deadlines = arrivals + rng.uniform(0.5, 3.0, n) * horizon / n
    bits = rng.uniform(0.2, 2.0, n)
    return normalize_instance(
        Packet(i + 1, float(b * scale), float(a * scale), float(d * scale))
        for i, (a, d, b) in enumerate(zip(arrivals, deadlines, bits))
    )


def certified(inst):
    sched = solve(inst, MODEL)
    back = schedule_from_json(schedule_to_json(sched), inst)
    extract_certificate(inst, back, MODEL)
    return back


@pytest.mark.parametrize(
    "n, seed",
    # (400, 0): every scale of this seed once crashed in the EDF fill
    [(150, 0), (150, 1), (150, 2), (400, 0)],
)
def test_chain_and_rescaled_copies_certify(n, seed):
    base = certified(chain_instance(n=n, seed=seed, horizon=float(n)))
    assert len(base.trace.steps) > n // 4
    for scale in SCALES:
        copy = certified(chain_instance(n=n, seed=seed, horizon=float(n), scale=scale))
        np.testing.assert_allclose(copy.rates, base.rates, rtol=1e-9, atol=0)
        assert copy.energy == pytest.approx(scale * base.energy, rel=1e-9, abs=0)
        assert [st.members for st in copy.trace.steps] == [
            st.members for st in base.trace.steps
        ]


def test_large_chain_certifies():
    # 971 rounds in 342 busy periods
    sched = certified(chain_instance(n=2000, seed=0, horizon=2000.0))
    assert len(sched.trace.steps) > 2000 // 4


def test_chain_10k_certifies_within_memory_budget():
    """Chain N=10^4 solves, round-trips and certifies in one child process
    under 400 MB peak RSS.  RUSAGE_CHILDREN reports the largest child this
    process has waited for, so the figure bounds this child's peak."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "from test_chain_family import certified, chain_instance\n"
        "sched = certified(chain_instance(n=10_000, seed=0, horizon=10_000.0))\n"
        "assert len(sched.trace.steps) > 10_000 // 4\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert peak_mb < 400, peak_mb
