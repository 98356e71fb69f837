import dataclasses

import numpy as np
import pytest

from gevreymhd.norms import (
    GevreyParams,
    NormRecord,
    RadiusFitError,
    field_norms,
    fit_radius,
    mode_amplitude,
    shell_maxima,
    shell_spectrum,
    state_norms,
    sup_gradient,
    weights_overflow,
)
from gevreymhd.operators import (
    MultiplierError,
    MultiplierSpec,
    _axis_weights,
    curl,
    gradient_physical,
)
from gevreymhd.spectral import (
    Grid,
    SpectralField,
    mode_field,
    random_band,
    random_band_field,
    to_physical,
)

from oracles import (
    field_to_modes,
    full_array_directional_sq,
    full_array_sobolev_sq,
    naive_sobolev_sq,
)

TWO_PI_CUBED = (2.0 * np.pi) ** 3


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GevreyParams(r=0.0)
        with pytest.raises(ValueError):
            GevreyParams(r=1.0, s=0.9)
        with pytest.raises(ValueError):
            GevreyParams(r=1.0, tau=-0.1)

    @pytest.mark.parametrize("field", ["r", "s", "tau"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_value_named(self, field, value):
        kwargs = dict(r=4.5, s=1.0, tau=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GevreyParams(**kwargs)

    def test_subcritical_warning(self):
        with pytest.warns(UserWarning, match="threshold"):
            GevreyParams(r=3.0, s=1.0).warn_if_subcritical()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GevreyParams(r=4.1, s=1.0).warn_if_subcritical()


class TestNorms:
    def test_sobolev_single_mode(self):
        g = Grid(8)
        f = mode_field(g, [((1, 2, 0), (0.5, 0.0, 0.0))])
        # two conjugate modes, each |c|^2 = 0.25, weight (1+5)^2 = 36
        expected = np.sqrt(TWO_PI_CUBED * 2 * 0.25 * 36.0)
        hr = field_norms(f, GevreyParams(r=2.0))[0]
        assert hr == pytest.approx(expected, rel=1e-13)

    def test_sobolev_matches_naive_oracle(self):
        g = Grid(8)
        f = random_band(g, seed=21, kmax=2).u
        oracle = np.sqrt(naive_sobolev_sq(field_to_modes(f), 2.5))
        hr = field_norms(f, GevreyParams(r=2.5))[0]
        assert hr == pytest.approx(oracle, rel=1e-12)

    def test_gevrey_single_mode_x_norm(self):
        g = Grid(8)
        f = mode_field(g, [((1, 2, 0), (0.0, 0.0, 0.5))])
        params = GevreyParams(r=1.0, s=1.0, tau=0.3)
        # per conjugate pair: m=1 -> 1^2 e^{0.6}, m=2 -> 2^2 e^{1.2}, m=3 -> 0
        expected = np.sqrt(
            TWO_PI_CUBED * 2 * 0.25 * (np.exp(0.6) + 4.0 * np.exp(1.2))
        )
        assert field_norms(f, params)[1] == pytest.approx(expected, rel=1e-13)

    def test_y_dominates_x(self):
        g = Grid(16)
        f = random_band(g, seed=22, kmax=4).u
        params = GevreyParams(r=1.5, s=2.0, tau=0.2)
        _hr, x, y = field_norms(f, params)
        assert y >= x

    def test_sup_gradient_single_mode(self):
        g = Grid(16)
        f = mode_field(g, [((3, 0, 0), (0.0, 0.5, 0.0))])  # cos(3x) e_2
        # d_x cos(3x) = -3 sin(3x) = curl_3: 3x hits pi/2 mod 2pi at a
        # collocation point of Grid(16), since gcd(3, 16) = 1
        grad_sup, curl_sup = sup_gradient(f)
        assert grad_sup == pytest.approx(3.0, rel=1e-13)
        assert curl_sup == pytest.approx(3.0, rel=1e-13)

    def test_sup_gradient_matches_gradient_and_curl_samples(self):
        v = random_band(Grid(16), seed=25, kmax=4).u
        grad_sup, curl_sup = sup_gradient(v)
        assert grad_sup == np.max(np.abs(gradient_physical(v)))
        curl_samples = to_physical(curl(v))
        assert curl_sup == pytest.approx(
            np.max(np.linalg.norm(curl_samples, axis=0)), rel=1e-13)

    def test_state_norms_quadrature_combination(self):
        g = Grid(16)
        st = random_band(g, seed=23, kmax=3)
        params = GevreyParams(r=2.0, s=1.0, tau=0.1)
        rec = state_norms(st.u, st.h, params)
        assert dataclasses.astuple(rec) == (rec.hr, rec.x_norm, rec.y_norm)
        (hr_u, x_u, y_u), (hr_h, x_h, y_h) = (field_norms(st.u, params),
                                              field_norms(st.h, params))
        assert rec.hr == pytest.approx(np.hypot(hr_u, hr_h))
        assert rec.x_norm == pytest.approx(np.hypot(x_u, x_h))
        assert rec.y_norm == pytest.approx(np.hypot(y_u, y_h))

    def test_norm_record_rejects_nan(self):
        with pytest.raises(ValueError):
            NormRecord(np.nan, 1, 1)


class TestWeightOverflow:
    """weights_overflow, from scalars, agrees with the weight arrays."""

    @pytest.mark.parametrize("n, r, tau, s", [
        (8, 120.0, 0.1, 1.0), (8, 182.37, 0.1, 1.0), (8, 182.39, 0.1, 1.0),
        (8, 4.5, 86.98, 1.0), (8, 4.5, 87.0, 1.0), (8, 4.5, 200.0, 1.0),
        (16, 134.86, 0.1, 1.0), (16, 134.88, 0.1, 1.0),
        (16, 4.5, 86.2, 1.5), (16, 4.5, 86.3, 1.5),
    ])
    def test_agrees_with_the_weight_arrays(self, n, r, tau, s):
        grid = Grid(n)
        try:
            y_weight = _axis_weights(
                grid, MultiplierSpec(m=1, r=r + 0.5 / s, tau=tau, s=s))
        except MultiplierError:  # the weight itself overflows
            finite = False
        else:
            with np.errstate(over="ignore"):
                sobolev = (1.0 + sum(k * k for k in grid.wavevectors())) ** r
                finite = (np.isfinite(sobolev).all()
                          and np.isfinite(y_weight**2).all())
        params = GevreyParams(r=r, s=s, tau=tau)
        assert weights_overflow(n, params) == (not finite)


class TestNormsMatchFullArrayFormulas:
    """The separable and once-summed norms equal the full-array weights."""

    @staticmethod
    def fields():
        g = Grid(16)
        # Not band-limited or solenoidal: every mode and axis carries weight.
        return (random_band_field(g, 51, 5, solenoidal=False),
                random_band_field(g, 52, 5, amplitude=0.3, solenoidal=False))

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @pytest.mark.parametrize("r", [2.5])
    def test_single_field_norms(self, r, s):
        v, _ = self.fields()
        hr, x, y = field_norms(v, GevreyParams(r=r, s=s, tau=0.3))
        assert hr == pytest.approx(
            np.sqrt(full_array_sobolev_sq(v, r)), rel=1e-13)
        assert x == pytest.approx(
            np.sqrt(full_array_directional_sq(v, r, 0.3, s)), rel=1e-13)
        assert y == pytest.approx(
            np.sqrt(full_array_directional_sq(v, r + 0.5 / s, 0.3, s)),
            rel=1e-13)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_state_norms(self, s):
        omega, current = self.fields()
        params = GevreyParams(r=2.5, s=s, tau=0.3)
        rec = state_norms(omega, current, params)
        per_field = []
        for v in (omega, current):
            per_field.append([np.sqrt(sq) for sq in (
                full_array_sobolev_sq(v, 2.5),
                full_array_directional_sq(v, 2.5, 0.3, s),
                full_array_directional_sq(v, 2.5 + 0.5 / s, 0.3, s),
            )])
        (hr_o, x_o, y_o), (hr_j, x_j, y_j) = per_field
        expected = {
            "hr": np.hypot(hr_o, hr_j), "x_norm": np.hypot(x_o, x_j),
            "y_norm": np.hypot(y_o, y_j),
        }
        for name, value in expected.items():
            assert getattr(rec, name) == pytest.approx(value, rel=1e-13), name

    def test_weight_overflow_raises(self):
        omega, current = self.fields()
        params = GevreyParams(r=1.0, s=1.0, tau=800.0)
        with pytest.raises(MultiplierError, match="overflow"):
            field_norms(omega, params)
        with pytest.raises(MultiplierError, match="overflow"):
            state_norms(omega, current, params)


class TestRadiusFit:
    def test_shell_maxima_layout(self):
        g = Grid(8)
        f = mode_field(g, [((1, 1, 0), (0.0, 0.0, 0.3)),
                           ((2, 0, 0), (0.0, 0.1, 0.0))])
        shells = shell_maxima(mode_amplitude(f))
        assert shells[2] == pytest.approx(0.3)
        assert shells[1] == 0.0

    def test_shell_spectrum_matches_mode_loop(self):
        g = Grid(8)
        state = random_band(g, seed=24, kmax=2)
        f = state.u
        f.coeffs[:, 1, 1, 1] = 0.0  # an empty mode must not set k1_abs_max
        # One field, and a pair whose amplitude is the max over all six
        # component magnitudes.
        for fields in ((f,), (f, state.h)):
            k1max, amax, l2 = np.zeros((3, 13))
            for i, j, k in np.ndindex(8, 8, 8):
                k1, k2, k3 = g.modes[i], g.modes[j], g.modes[k]
                p = abs(k1) + abs(k2) + abs(k3)
                amp = max(np.max(np.abs(v.coeffs[:, i, j, k]))
                          for v in fields)
                if amp > 0:
                    k1max[p] = max(k1max[p], abs(k1))
                amax[p] = max(amax[p], amp)
                l2[p] += amp**2
            amplitude = mode_amplitude(*fields)
            got = shell_spectrum(amplitude)
            assert np.array_equal(got[0], k1max)
            assert np.array_equal(got[1], amax)
            assert np.array_equal(got[2], np.sqrt(l2))
            assert np.array_equal(shell_maxima(amplitude), amax)

    def test_fit_recovers_synthetic_decay(self):
        g = Grid(16)
        tau_true = 0.35
        k1, k2, k3 = g.wavevectors()
        l1 = np.abs(k1) + np.abs(k2) + np.abs(k3)
        coeffs = np.exp(-tau_true * l1) * np.ones((3, 16, 16, 16))
        coeffs[:, 0, 0, 0] = 0.0
        f = SpectralField(g, coeffs.astype(np.complex128))
        assert fit_radius(mode_amplitude(f), s=1.0) == pytest.approx(
            tau_true, rel=1e-10)

    def test_fit_with_gevrey_exponent(self):
        g = Grid(16)
        tau_true = 0.8
        k1, k2, k3 = g.wavevectors()
        l1 = (np.abs(k1) + np.abs(k2) + np.abs(k3)).astype(float)
        coeffs = np.exp(-tau_true * np.sqrt(l1)) * np.ones((3, 16, 16, 16))
        coeffs[:, 0, 0, 0] = 0.0
        f = SpectralField(g, coeffs.astype(np.complex128))
        assert fit_radius(mode_amplitude(f), s=2.0) == pytest.approx(
            tau_true, rel=1e-10)

    def test_fit_needs_four_shells(self):
        g = Grid(16)
        f = mode_field(g, [((1, 0, 0), (0.0, 1.0, 0.0)),
                           ((2, 0, 0), (0.0, 0.5, 0.0))])
        with pytest.raises(RadiusFitError, match="shells"):
            fit_radius(mode_amplitude(f), s=1.0)

    def test_noise_floor_excludes_tiny_shells(self):
        g = Grid(16)
        k1, k2, k3 = g.wavevectors()
        l1 = np.abs(k1) + np.abs(k2) + np.abs(k3)
        coeffs = np.exp(-0.5 * l1) * np.ones((3, 16, 16, 16))
        coeffs[:, 0, 0, 0] = 0.0
        f = SpectralField(g, coeffs.astype(np.complex128))
        # raise the floor so high shells drop out but the fit still works
        assert fit_radius(mode_amplitude(f), s=1.0,
                          noise_floor=1e-3) == pytest.approx(
            0.5, rel=1e-8
        )
