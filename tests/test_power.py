import math

import numpy as np
import pytest

from txsched import (
    BracketOverflow,
    Monomial,
    NegativeInput,
    NegativeRate,
    PowerModel,
    Shannon,
    ZeroRate,
    schedule_energy,
)

LN2 = math.log(2.0)
G_AT_ONE = 8 * LN2 - 3  # rate 1, unit noise: 1 * f'(1) - f(1)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


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

    def test_monotone_on_grid(self):
        for model in (Shannon(0.7), Monomial(2.5, 0.3)):
            grid = np.linspace(0.0, 8.0, 200)
            vals = [model.g(r) for r in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v >= -1e-12 for v in vals)


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
        # the bisection promises |g(result) - y| <= 1e-9 * max(1, y)
        for model in (Shannon(1.0), Shannon(3.0), Monomial(3.0, 0.5)):
            for r in np.linspace(0.01, 12.0, 40):
                y = model.g(r)
                back = model.g_inverse(y)
                assert abs(model.g(back) - y) <= 1e-9 * max(1.0, y)

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


class TestScheduleEnergy:
    def test_single_packet(self):
        assert schedule_energy(Shannon(1.0), [(1, 1.0, 1.0)]) == pytest.approx(3.0)

    def test_two_packets(self):
        # two 1-bit packets at rate 2 take half a second each at f(2)=15
        entries = [(1, 2.0, 0.5), (2, 2.0, 0.5)]
        assert schedule_energy(Shannon(1.0), entries) == pytest.approx(15.0)

    def test_empty(self):
        assert schedule_energy(Shannon(1.0), []) == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ZeroRate):
            schedule_energy(Shannon(1.0), [(1, 0.0, 1.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            schedule_energy(Shannon(1.0), [(1, -1.0, 1.0)])

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            schedule_energy(Shannon(1.0), [(1, 1.0, 0.0)])


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
