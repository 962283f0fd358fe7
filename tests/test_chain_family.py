"""Regression and property tests over the chain family.

Chains of short, overlapping windows take about N/2 solve rounds, each
cutting a window out of the middle of the remaining timeline.  Every
instance, and its copies with time and bits scaled by 1e3, 1e-3, 1e6
and 1e-6, must solve, survive the JSON round trip and yield a KKT certificate;
the copies must reproduce the original's rates and scale its energy by
the factor.
"""

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
SCALES = (1e3, 1e-3, 1e6, 1e-6)


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
