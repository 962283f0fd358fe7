"""Rescaled and origin-shifted copies of the nested, generator and
staircase families.

Multiplying time and bits by one factor leaves the optimal rates as they
are and multiplies the energy by that factor; moving the origin changes
neither.  Each copy must solve, survive the JSON round trip and yield a
KKT certificate.  Both seeds are refused at x1e-6 and x1e6 when instants
are compared within an absolute 1e-9 s instead of the instance's
`time_tol`.

For a power-of-two factor the law holds exactly: every product by 2^k
is exact in float64, so the copy's schedule is the original's, bit for
bit, with each time and the energy multiplied by 2^k.
"""

import functools
import json
import math

import numpy as np
import pytest
from test_chain_family import certified
from test_equivalence import staircase_instance

from txsched import (
    GeneratorConfig,
    Monomial,
    Packet,
    Shannon,
    generate,
    normalize_instance,
    schedule_to_json,
    solve,
)

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


SMALL_FAMILIES = {  # three instances each, N <= 60
    "nested": lambda: [
        generate(GeneratorConfig(n=40, seed=s, non_fifo_prob=1.0)) for s in (0, 1, 2)
    ],
    "generator": lambda: [generate(GeneratorConfig(n=60, seed=s)) for s in (6, 7, 8)],
    "staircase": lambda: [staircase_instance(n) for n in (13, 29, 60)],
}
LAWS = {"shannon": Shannon(1.0), "monomial-2": Monomial(2.0)}


def transformed(inst, scale, shift=0.0):
    return normalize_instance(
        Packet(p.id, p.bits * scale, p.arrival * scale + shift, p.deadline * scale + shift)
        for p in inst.packets
    )


def scaled_document(text, factor):
    """The schedule document with every time and the energy times `factor`."""
    doc = json.loads(text)
    doc["energy"] *= factor
    for seg in doc["segments"]:
        seg["start"] *= factor
        seg["end"] *= factor
    for step in doc["iterations"]:
        step["pieces"] = [[a * factor, b * factor] for a, b in step["pieces"]]
    return doc


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_power_of_two_copies_are_exact(family, law):
    """Time and bits times 2^k, from 2^-900 to 2^600: the same schedule
    document, with the rates bit-identical and every time and the energy
    exactly 2^k times the original's."""
    model = LAWS[law]
    for inst in SMALL_FAMILIES[family]():
        text = schedule_to_json(solve(inst, model))
        for k in (-900, -40, 7, 600):
            factor = math.ldexp(1.0, k)
            copy = json.loads(schedule_to_json(solve(transformed(inst, factor), model)))
            assert copy == scaled_document(text, factor), (inst.n, k)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_inexact_copies_report_their_drift(family, law):
    """An origin shift and a factor 3 round the instants, so the law
    holds only to rounding there: the largest relative drift of the
    rates and the energy is printed as a margin (`pytest -s` shows it),
    not gated; the rtol=1e-9 gate above stands."""
    model = LAWS[law]
    for label, scale, shift in (("shift+1024", 1.0, 1024.0), ("x3", 3.0, 0.0)):
        rate_drift = energy_drift = 0.0
        for inst in SMALL_FAMILIES[family]():
            base = solve(inst, model)
            copy = solve(transformed(inst, scale, shift), model)
            rate_drift = max(rate_drift, float(np.max(np.abs(copy.rates / base.rates - 1.0))))
            energy_drift = max(energy_drift, abs(copy.energy / (scale * base.energy) - 1.0))
        print(f"{family} {law} {label}: rate drift {rate_drift:.1e}, "
              f"energy drift {energy_drift:.1e}")
