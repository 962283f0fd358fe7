import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import reference_impl as ref

from txsched import (
    BracketOverflow,
    Monomial,
    NegativeInput,
    NegativeRate,
    NonFiniteEnergy,
    PowerModel,
    Shannon,
    ZeroRate,
    schedule_energy,
)
from txsched.model import REL_TOL
from txsched.power import _G_SERIES_X, per_distinct_rate

LN2 = math.log(2.0)
G_AT_ONE = 8 * LN2 - 3  # rate 1, unit noise: 1 * f'(1) - f(1)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def shannon_g_series(noise, r):
    """noise * sum over k >= 2 of (k - 1) x^k / k!, x = 2 ln2 r as a float,
    summed in exact rationals to the 40th power: below x = 1 the terms
    left out are under 1e-40 of the sum."""
    x = Fraction(2 * LN2 * r)
    term, total = x, Fraction(0)
    for k in range(2, 41):
        term = term * x / k
        total += (k - 1) * term
    return float(Fraction(noise) * total)


class TestPowerValues:
    def test_zero_rate_costs_nothing(self):
        assert Shannon(1.0).power(0.0) == 0.0

    def test_unit_rate_unit_noise(self):
        assert Shannon(1.0).power(1.0) == pytest.approx(3.0, rel=1e-12)

    def test_half_rate_double_noise(self):
        assert Shannon(2.0).power(0.5) == pytest.approx(2.0, rel=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            Shannon(1.0).power(-0.1)

    def test_vectorized(self):
        out = Shannon(1.0).power(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [0.0, 3.0, 15.0])


class TestG:
    def test_zero(self):
        assert Shannon(1.0).g(0.0) == 0.0

    def test_unit_rate_closed_form(self):
        assert Shannon(1.0).g(1.0) == pytest.approx(G_AT_ONE, rel=1e-12)

    def test_matches_finite_difference_construction(self):
        # independent oracle: g(r) = r f'(r) - f(r) with f' from central
        # differences
        model = Shannon(1.5)
        for r in np.linspace(0.1, 6.0, 23):
            fp = central_diff(model.power, r, 1e-6)
            expected = r * fp - model.power(r)
            assert model.g(r) == pytest.approx(expected, rel=1e-6)

    def test_small_rates_follow_the_series(self):
        # r f'(r) - f(r) would be 3.7e-5 off at r = 1e-12
        model = Shannon(1.5)
        top = _G_SERIES_X / (2 * LN2)
        rates = np.geomspace(1e-12, top, 300, endpoint=False)
        for r, value in zip(rates.tolist(), model.g(rates).tolist()):
            assert value == pytest.approx(shannon_g_series(1.5, r), rel=1e-14, abs=0)
            assert model.g(r) == value

    def test_series_meets_closed_form_at_threshold(self):
        model = Shannon(1.0)
        r = _G_SERIES_X / (2 * LN2)
        closed = r * model.power_deriv(r) - model.power(r)
        assert model.g(r) == closed
        assert shannon_g_series(1.0, r) == pytest.approx(closed, rel=1e-15, abs=0)
        below = float(np.nextafter(r, 0.0))
        assert model.g(below) == pytest.approx(closed, rel=1e-15, abs=0)

    def test_monotone_on_grid(self):
        for model in (Shannon(0.7), Monomial(2.5, 0.3)):
            grid = np.linspace(0.0, 8.0, 200)
            vals = [model.g(r) for r in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v >= -1e-12 for v in vals)


BOTH_LAWS = pytest.mark.parametrize(
    "model", [Shannon(1.0), Monomial(2.0), Monomial(1.5)],
    ids=["shannon", "monomial-2", "monomial-1.5"],
)
METHODS = ("power", "power_deriv", "g")


class TestCallContract:
    """f, f' and g take a scalar or an array of rates: a float out for
    a scalar in, an array of the same shape for an array (empty too);
    a negative entry raises NegativeRate, a NaN passes through, and an
    overflow gives inf with no warning."""

    @BOTH_LAWS
    @pytest.mark.parametrize(
        "rate", [-0.1, np.array([1.0, np.nan, -2.0]), np.array([[-0.0, -5e-324]])]
    )
    def test_negative_rate_raises_with_the_input_named(self, model, rate):
        message = re.escape(f"rate must be non-negative, got {rate}")
        for name in METHODS:
            with pytest.raises(NegativeRate, match=message):
                getattr(model, name)(rate)

    @BOTH_LAWS
    def test_nan_and_negative_zero_pass(self, model):
        for name in METHODS:
            fn = getattr(model, name)
            assert math.isnan(fn(math.nan))
            out = fn(np.array([np.nan, -0.0, 1.0]))
            assert math.isnan(out[0]) and out[1] == fn(0.0) and out[2] == fn(1.0)

    @BOTH_LAWS
    @pytest.mark.parametrize("rate", [1.5, 2, np.float64(0.25), np.array(0.75)])
    def test_scalar_in_gives_float_out(self, model, rate):
        for name in METHODS:
            out = getattr(model, name)(rate)
            assert type(out) is float
            assert out == getattr(model, name)(np.array([rate], dtype=float))[0]

    @BOTH_LAWS
    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 0), (2, 3)])
    def test_array_in_gives_array_of_its_shape(self, model, shape):
        rates = np.arange(math.prod(shape), dtype=float).reshape(shape) / 2
        for name in METHODS:
            out = getattr(model, name)(rates)
            assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float

    @pytest.mark.parametrize("model", [Shannon(1.0), Monomial(2.0)], ids=["shannon", "monomial-2"])
    def test_overflow_gives_silent_inf(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in METHODS:
                fn = getattr(model, name)
                out = fn(np.array([0.5, 1e308, np.inf]))
                assert np.isfinite(out[0]) and (out[1:] == np.inf).all(), name
                assert fn(1e308) == math.inf and fn(math.inf) == math.inf, name


class TestGInverse:
    def test_zero(self):
        assert Shannon(1.0).g_inverse(0.0) == 0.0

    def test_roundtrip_at_one(self):
        r = Shannon(1.0).g_inverse(G_AT_ONE)
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_known_marginal_energy_value(self):
        assert Shannon(1.0).g_inverse(2.5452) == pytest.approx(1.0, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            Shannon(1.0).g_inverse(-1.0)

    def test_residual_contract_sampled(self):
        # the bisection promises |g(result) - y| <= REL_TOL * y
        for model in (Shannon(1.0), Shannon(3.0), Monomial(3.0, 0.5)):
            for r in np.linspace(0.01, 12.0, 40):
                y = model.g(r)
                back = model.g_inverse(y)
                assert abs(model.g(back) - y) <= REL_TOL * y

    def test_relative_residual_far_below_one(self):
        # the tolerance has no floor on 1, so a small y keeps its digits
        for model in (Shannon(1.0), Monomial(2.0)):
            for y in np.logspace(-30, 6, 73):
                assert abs(model.g(model.g_inverse(y)) - y) <= 1e-9 * y, (model, y)
        assert Monomial(2.0).g_inverse(1e-12) == pytest.approx(1e-6, rel=1e-9)

    def test_roundtrip_identity_sampled(self):
        # where g has healthy slope the residual contract pins r itself
        for model in (Shannon(1.0), Shannon(3.0), Monomial(3.0, 0.5)):
            for r in np.linspace(1.0, 10.0, 30):
                back = model.g_inverse(model.g(r))
                assert back == pytest.approx(r, rel=1e-9)

    def test_monomial_closed_form_cross_checks_bisection(self):
        model = Monomial(2.7, 1.3)
        for y in [0.1, 1.0, 7.5, 120.0]:
            assert model.g_inverse(y) == pytest.approx(
                model.g_inverse_closed_form(y), rel=1e-8
            )

    @pytest.mark.parametrize("model", [Shannon(1.0), Monomial(2.0)], ids=["shannon", "monomial-2"])
    @pytest.mark.parametrize("y", [1e-300, 1e-250, 1.0, 1e300])
    def test_residual_contract_across_the_float_range(self, model, y):
        # the bracket grows down as well as up and the bisection halves
        # log r, so a y far from 1 is met like y = 1
        r = model.g_inverse(y)
        assert abs(model.g(r) - y) <= REL_TOL * y
        if isinstance(model, Monomial):
            assert r == pytest.approx(model.g_inverse_closed_form(y), rel=REL_TOL)

    def test_bracket_overflow_on_bounded_g(self):
        class Saturating(PowerModel):
            # f affine beyond r=1, so g plateaus and never reaches 10
            def power(self, rate):
                r = np.asarray(rate, float)
                return np.where(r < 1.0, np.minimum(r, 1.0) ** 2, 2.0 * r - 1.0) + 0.0

            def power_deriv(self, rate):
                r = np.asarray(rate, float)
                return np.where(r < 1.0, 2.0 * r, 2.0) + 0.0

        with pytest.raises(BracketOverflow):
            Saturating().g_inverse(10.0)


class TestConvexityProperties:
    @pytest.mark.parametrize("model", [Shannon(1.0), Shannon(0.25), Monomial(2.0, 2.0)])
    def test_midpoint_convexity_sampled(self, model):
        rng = np.random.default_rng(42)
        r = np.sort(rng.uniform(0.0, 10.0, (1000, 3)), axis=1)
        r1, r2, r3 = r[:, 0], r[:, 1], r[:, 2]
        keep = (r3 - r1) > 1e-9
        r1, r2, r3 = r1[keep], r2[keep], r3[keep]
        t = (r2 - r1) / (r3 - r1)
        f = model.power
        interp = (1 - t) * f(r1) + t * f(r3)
        assert np.all(f(r2) <= interp + 1e-9)

    @pytest.mark.parametrize("model", [Shannon(1.0), Monomial(2.3, 0.8)])
    def test_deriv_matches_central_difference(self, model):
        for r in np.linspace(0.2, 8.0, 25):
            fd = central_diff(model.power, r, 1e-6)
            assert model.power_deriv(r) == pytest.approx(fd, rel=1e-6)

    def test_energy_decreasing_in_allotted_time(self):
        # stretching a fixed transfer over more time never costs more
        model = Shannon(1.0)
        rng = np.random.default_rng(43)
        for _ in range(200):
            bits = float(rng.uniform(0.1, 10))
            t1 = float(rng.uniform(0.1, 10))
            t2 = t1 + float(rng.uniform(0.01, 10))
            e1 = t1 * model.power(bits / t1)
            e2 = t2 * model.power(bits / t2)
            assert e2 <= e1 * (1 + 1e-12)


def energy_of(model, entries):
    """`schedule_energy` of (packet id, rate, time) entries, ids 1..N in order."""
    assert [e[0] for e in entries] == list(range(1, len(entries) + 1))
    return schedule_energy(model, [e[1] for e in entries], [e[2] for e in entries])


class TestScheduleEnergy:
    def test_single_packet(self):
        assert energy_of(Shannon(1.0), [(1, 1.0, 1.0)]) == pytest.approx(3.0)

    def test_two_packets(self):
        # two 1-bit packets at rate 2 take half a second each at f(2)=15
        entries = [(1, 2.0, 0.5), (2, 2.0, 0.5)]
        assert energy_of(Shannon(1.0), entries) == pytest.approx(15.0)

    def test_empty(self):
        assert energy_of(Shannon(1.0), []) == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ZeroRate):
            energy_of(Shannon(1.0), [(1, 0.0, 1.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            energy_of(Shannon(1.0), [(1, -1.0, 1.0)])

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            energy_of(Shannon(1.0), [(1, 1.0, 0.0)])

    def test_non_finite_energy_names_the_packet(self):
        # 3000 bits in one second need 2^6000 W under Shannon; the error
        # names packet 2, the first whose term is not finite
        entries = [(1, 1.0, 1.0), (2, 3000.0, 1.0), (3, 4000.0, 1.0)]
        with pytest.raises(NonFiniteEnergy, match="packet 2: energy is not finite"):
            energy_of(Shannon(1.0), entries)
        assert issubclass(NonFiniteEnergy, ValueError)
        # finite terms whose sum overflows name the packet that tips it
        entries = [(1, 1e154, 1.0), (2, 1e154, 1.0)]
        assert math.isfinite(Monomial(2.0, 1.5).power(1e154))
        with pytest.raises(NonFiniteEnergy, match="packet 2:"):
            energy_of(Monomial(2.0, 1.5), entries)


class TestOneCallPerSchedule:
    """The verifier and `schedule_energy` evaluate f and g in one array
    call over the distinct rates, in place of one call per rate; the
    loop references make the scalar calls, so both must agree bitwise."""

    @pytest.mark.parametrize(
        "model", [Shannon(1.0), Shannon(0.3), Monomial(1.5), Monomial(2.0, 0.5)],
        ids=["shannon", "shannon-0.3", "monomial-1.5", "monomial-2"],
    )
    def test_array_calls_match_scalar_calls(self, model):
        rng = np.random.default_rng(5)
        rates = np.concatenate([
            10.0 ** rng.uniform(-13, 2.5, 500), rng.uniform(0.1, 5.0, 500).round(3)
        ])
        for fn in (model.power, model.g):
            got = per_distinct_rate(fn, rates)
            expected = np.array([fn(r) for r in rates.tolist()])
            assert got.tobytes() == expected.tobytes()

    def test_errors_and_sums_match_loop(self):
        # the first bad entry wins, unless the running sum overflows first
        cases = [
            [(1, 2.0, 0.5), (2, 2.0, 0.25), (3, 0.7, 1.5)],
            [(1, 1.0, 1.0), (2, -1.0, 1.0), (3, 3000.0, 1.0)],
            [(1, 3000.0, 1.0), (2, -1.0, 1.0)],
            [(1, 1.0, 1.0), (2, 0.0, 1.0)],
            [(1, 1.0, 1.0), (2, 1.0, -2.0), (3, 0.0, 1.0)],
            [(1, 1.0, 1.0), (2, math.nan, 1.0)],
            [(1, 1.0, math.nan)],
        ]
        rng = np.random.default_rng(8)
        rates = rng.uniform(0.1, 3.0, 40).round(1)
        cases.append([(i + 1, r, t) for i, (r, t) in
                      enumerate(zip(rates.tolist(), rng.uniform(0.1, 2.0, 40).tolist()))])
        for entries in cases:
            for model in (Shannon(1.0), Monomial(2.0, 1.5)):
                try:
                    expected = ("value", ref.schedule_energy(model, entries))
                except Exception as exc:  # noqa: BLE001 - the exception is the outcome
                    expected = ("raised", type(exc), str(exc))
                try:
                    got = ("value", energy_of(model, entries))
                except Exception as exc:  # noqa: BLE001
                    got = ("raised", type(exc), str(exc))
                assert got == expected, entries


class TestModelValidation:
    def test_shannon_noise_positive(self):
        with pytest.raises(ValueError):
            Shannon(0.0)

    @pytest.mark.parametrize("noise", [math.inf, math.nan])
    def test_shannon_noise_finite(self, noise):
        with pytest.raises(ValueError):
            Shannon(noise)

    def test_monomial_exponent_above_one(self):
        with pytest.raises(ValueError):
            Monomial(1.0, 1.0)

    def test_monomial_scale_positive(self):
        with pytest.raises(ValueError):
            Monomial(2.0, -1.0)
