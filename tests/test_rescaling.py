"""Rescaled and origin-shifted copies of the nested, generator and
staircase families.

Multiplying time and bits by one factor leaves the optimal rates as they
are and multiplies the energy by that factor; moving the origin changes
neither.  Each copy must solve, survive the JSON round trip and yield a
KKT certificate.  Both seeds are refused at x1e-6 and x1e6 when instants
are compared within an absolute 1e-9 s instead of the instance's
`time_tol`.
"""

import functools

import numpy as np
import pytest
from test_chain_family import certified
from test_equivalence import staircase_instance

from txsched import GeneratorConfig, Packet, generate, normalize_instance

FAMILIES = {
    "nested": lambda: generate(GeneratorConfig(n=200, seed=0, non_fifo_prob=1.0)),
    "generator": lambda: generate(GeneratorConfig(n=60, seed=6)),
    # one busy period of about N/6 rounds (packet i in [i, i + 2.5])
    "staircase-13": lambda: staircase_instance(13),
    "staircase-60": lambda: staircase_instance(60),
}


@functools.cache
def original(family):
    inst = FAMILIES[family]()
    return inst, certified(inst)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(
    "scale, shift", [(1e-12, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 1e6)]
)
def test_rescaled_and_shifted_copies_certify(family, scale, shift):
    inst, base = original(family)
    copy = certified(normalize_instance(
        Packet(p.id, p.bits * scale, p.arrival * scale + shift,
               p.deadline * scale + shift)
        for p in inst.packets
    ))
    np.testing.assert_allclose(copy.rates, base.rates, rtol=1e-9, atol=0)
    assert copy.energy == pytest.approx(scale * base.energy, rel=1e-9, abs=0)
