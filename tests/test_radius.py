import numpy as np
import pytest

from gevreymhd.radius import (
    RadiusCollapse,
    RadiusModel,
    _rk4_interval,
    estimate_C_tilde,
    radius_lower_bound,
    radius_rhs,
)
from oracles import (
    bernoulli_tau,
    cumulative_integral,
    gronwall_majorant,
    rk4_chain,
)


class TestClosedForms:
    def test_bernoulli_limits(self):
        assert bernoulli_tau(0.0, 0.7, 1.3, 2.0) == pytest.approx(0.7)
        # pure linear decay when b = 0
        assert bernoulli_tau(2.0, 0.7, 1.3, 0.0) == pytest.approx(
            0.7 * np.exp(-2.6), rel=1e-14
        )
        # pure quadratic decay when a = 0: tau0 / (1 + b tau0 t)
        assert bernoulli_tau(3.0, 0.5, 0.0, 2.0) == pytest.approx(
            0.5 / (1.0 + 2.0 * 0.5 * 3.0), rel=1e-14
        )

    def test_rhs_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            radius_rhs(1.0, -0.1, 0.0)

    def test_integrator_matches_bernoulli(self):
        a, b, tau0 = 1.3, 2.0, 0.7
        times = np.linspace(0.0, 2.0, 41)
        taus = rk4_chain(times, np.full(41, a), np.full(41, b), tau0)
        exact = np.array([bernoulli_tau(t, tau0, a, b) for t in times])
        np.testing.assert_allclose(taus, exact, rtol=1e-8)

    def test_integrator_matches_pure_riccati(self):
        # tau' = -tau^2 with tau0 = 1: tau(t) = 1/(1+t)
        times = np.linspace(0.0, 3.0, 61)
        taus = rk4_chain(times, np.zeros(61), np.ones(61), 1.0)
        np.testing.assert_allclose(taus, 1.0 / (1.0 + times), rtol=1e-8)

    def test_integrator_collapse(self):
        times = np.linspace(0.0, 200.0, 401)
        with pytest.raises(RadiusCollapse):
            rk4_chain(times, np.full(401, 5.0), np.zeros(401), 1e-150)

    def test_integrator_input_validation(self):
        with pytest.raises(ValueError):
            _rk4_interval(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _rk4_interval(1.0, 0.0, 1.0, -1.0, 1.0, 1.0, 1.0)


class TestModelAndBounds:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            RadiusModel(C=0.0)
        with pytest.raises(ValueError):
            RadiusModel(tau0=-1.0)

    @pytest.mark.parametrize("name", ["C0", "C1"])
    def test_lower_bound_coefficients_are_not_arguments(self, name):
        # populate_from_initial, which the first track calls, overwrote a
        # passed C0 or C1, so accepting one only hid that it was ignored.
        with pytest.raises(TypeError):
            RadiusModel(C=1.0, tau0=0.1, **{name: 5.0})

    def test_populate_from_initial(self):
        m = RadiusModel(C=2.0, tau0=0.5).populate_from_initial(hr0=3.0, x0=4.0)
        assert m.C0 == pytest.approx(2.0 * 7.0)
        assert m.C1 == pytest.approx(4.0 * 1.5 * 9.0)

    def test_lower_bound_at_zero_is_tau0(self):
        m = RadiusModel(C=1.0, tau0=0.37).populate_from_initial(2.0, 1.0)
        assert radius_lower_bound(0.0, m, 0.0) == 0.37

    def test_lower_bound_below_tracked_tau_constant_coefficients(self):
        # frozen norms: hr(t) = hr0, grad = g; the bound must sit below the
        # integrated radius when C dominates the (here zero) growth constant
        hr0, x0, g = 2.0, 1.0, 0.8
        model = RadiusModel(C=1.0, tau0=0.5).populate_from_initial(hr0, x0)
        times = np.linspace(0.0, 1.0, 101)
        integral = cumulative_integral(times, np.full(101, g))
        maj = gronwall_majorant(times, np.full(101, hr0), integral,
                                model.C, model.tau0, x0)
        a = model.C * np.full(101, g)
        b = model.C * (np.full(101, hr0) + maj)
        taus = rk4_chain(times, a, b, model.tau0)
        for i, t in enumerate(times):
            assert radius_lower_bound(t, model, float(integral[i])) <= (
                taus[i] * (1.0 + 1e-9)
            )


class TestSeriesUtilities:
    def test_cumulative_integral_linear(self):
        times = np.linspace(0.0, 1.0, 11)
        vals = 2.0 * times  # integral t^2
        out = cumulative_integral(times, vals)
        np.testing.assert_allclose(out, times**2, atol=1e-12)

    def test_gronwall_majorant_constant_case(self):
        # constant hr, zero gradient: M(t) = x0 + C (1+tau0) hr^2 t
        times = np.linspace(0.0, 2.0, 21)
        maj = gronwall_majorant(times, np.full(21, 3.0),
                                np.zeros(21), 2.0, 0.5, 1.0)
        expected = 1.0 + 2.0 * 1.5 * 9.0 * times
        np.testing.assert_allclose(maj, expected, rtol=1e-12)

    def test_estimate_C_tilde_recovers_exponent(self):
        times = np.linspace(0.0, 1.0, 21)
        integral = cumulative_integral(times, np.full(21, 2.0))  # I = 2t
        hr = 3.0 * np.exp(0.7 * integral)
        assert estimate_C_tilde(hr, integral) == pytest.approx(
            0.7, rel=1e-12
        )

    def test_estimate_C_tilde_clamped_at_zero_for_decay(self):
        times = np.linspace(0.0, 1.0, 21)
        integral = cumulative_integral(times, np.full(21, 2.0))
        hr = 3.0 * np.exp(-0.2 * integral)
        assert estimate_C_tilde(hr, integral) == 0.0

    def test_estimate_C_tilde_needs_samples(self):
        with pytest.raises(ValueError, match="10 samples"):
            estimate_C_tilde([1, 1], [0, 1])

    def test_estimate_C_tilde_unbounded(self):
        times = np.linspace(0.0, 1.0, 11)
        hr = 1.0 + times  # grows with zero gradient integral
        with pytest.raises(ValueError, match="unbounded"):
            estimate_C_tilde(hr, np.zeros(11))
