import numpy as np
import pytest

from gevreymhd.norms import NormRecord
from gevreymhd.radius import RadiusTracker, _rk4_interval, estimate_C_tilde
from gevreymhd.solver import DiagnosticsRecord
from oracles import (
    bernoulli_tau,
    cumulative_integral,
    gronwall_majorant,
    rk4_chain,
)


def record(t, hr, x_norm, grad_sum=0.0, grad_integral=0.0):
    """A diagnostics record with only what RadiusTracker reads set."""
    return DiagnosticsRecord(
        t=t, energy=0.0, cross_helicity=0.0, bkm_integrand=0.0,
        grad_sum=grad_sum, norms=NormRecord(hr, x_norm, x_norm),
        tau_fit=float("nan"), grad_integral=grad_integral)


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
            _rk4_interval(1.0, 0.0, 1.0, 1.0, 1.0, -0.1, 0.0)

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
        # Each substep here multiplies tau by about exp(-0.2), and the
        # integration stops at the first one that is not above 1e-300.
        tau = _rk4_interval(1e-150, 0.0, 200.0, 5.0, 5.0, 0.0, 0.0)
        assert 0.8e-300 < tau <= 1e-300

    def test_integrator_input_validation(self):
        with pytest.raises(ValueError):
            _rk4_interval(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _rk4_interval(1.0, 0.0, 1.0, -1.0, 1.0, 1.0, 1.0)


class TestModelAndBounds:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            RadiusTracker(C=0.0, tau0=1.0)
        with pytest.raises(ValueError):
            RadiusTracker(C=1.0, tau0=-1.0)

    @pytest.mark.parametrize("name", ["C0", "C1"])
    def test_lower_bound_coefficients_are_not_arguments(self, name):
        # The first track sets C0 and C1 from its norms, so accepting one
        # would only hide that it was ignored.
        with pytest.raises(TypeError):
            RadiusTracker(C=1.0, tau0=0.1, **{name: 5.0})

    def test_populate_from_initial(self):
        tracker = RadiusTracker(C=2.0, tau0=0.5)
        tracker.track(record(0.0, hr=3.0, x_norm=4.0))
        assert tracker.C0 == pytest.approx(2.0 * 7.0)
        assert tracker.C1 == pytest.approx(4.0 * 1.5 * 9.0)

    def test_lower_bound_at_zero_is_tau0(self):
        # The first record takes tau0 itself; a later one at zero elapsed
        # time and zero gradient integral gets 1/(1/tau0) from the formula.
        tracker = RadiusTracker(C=1.0, tau0=0.37)
        for _ in range(2):
            rec = tracker.track(record(0.0, hr=2.0, x_norm=1.0))
            assert rec.tau_lower == rec.tau == 0.37

    def test_lower_bound_below_tracked_tau_constant_coefficients(self):
        # frozen norms: hr(t) = hr0, grad = g; the bound must sit below the
        # integrated radius when C dominates the (here zero) growth constant
        hr0, x0, g, C, tau0 = 2.0, 1.0, 0.8, 1.0, 0.5
        tracker = RadiusTracker(C=C, tau0=tau0)
        times = np.linspace(0.0, 1.0, 101)
        integral = cumulative_integral(times, np.full(101, g))
        maj = gronwall_majorant(times, np.full(101, hr0), integral,
                                C, tau0, x0)
        a = C * np.full(101, g)
        b = C * (np.full(101, hr0) + maj)
        taus = rk4_chain(times, a, b, tau0)
        for i, t in enumerate(times):
            rec = tracker.track(record(float(t), hr0, x0, g,
                                       float(integral[i])))
            assert rec.tau == pytest.approx(taus[i], rel=1e-12)
            assert rec.tau_lower <= taus[i] * (1.0 + 1e-9)


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
