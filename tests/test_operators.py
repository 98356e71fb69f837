import numpy as np
import pytest

from gevreymhd.operators import (
    MultiplierError,
    MultiplierSpec,
    advect,
    biot_savart,
    curl,
    gradient_physical,
    inner_l2,
    inner_weighted,
    lambda_apply,
    multiplier_weights,
)
from gevreymhd.spectral import Grid, mode_field, random_band, to_physical

from oracles import quadrature_inner


class TestMultiplierWeights:
    def test_l1_symbol_weight(self):
        g = Grid(8)
        w = multiplier_weights(g, MultiplierSpec(m=0, r=2.0, tau=0.1, s=1.0))
        # mode (1, -2, 3): |k|_1 = 6 -> 6^2 e^{0.6}
        assert w[1, -2 % 8, 3] == pytest.approx(36.0 * np.exp(0.6), rel=1e-14)

    def test_directional_symbol_weight(self):
        g = Grid(8)
        w = multiplier_weights(g, MultiplierSpec(m=2, r=1.5, tau=0.2, s=2.0))
        # mode (3, -2, 1): |k_2| = 2 -> 2^1.5 e^{0.2 sqrt(2)}
        expected = 2.0**1.5 * np.exp(0.2 * np.sqrt(2.0))
        assert w[3, -2 % 8, 1] == pytest.approx(expected, rel=1e-14)

    def test_zero_mode_convention(self):
        g = Grid(8)
        w_pos = multiplier_weights(g, MultiplierSpec(m=1, r=1.0, tau=0.5, s=1.0))
        assert w_pos[0, 1, 2] == 0.0  # k_1 = 0, r > 0
        w_zero = multiplier_weights(g, MultiplierSpec(m=1, r=0.0, tau=0.5, s=1.0))
        assert w_zero[0, 1, 2] == 1.0  # 0^0 = 1, exp factor at |k_1| = 0 is 1

    def test_overflow_raises_naming_mode(self):
        g = Grid(16)
        with pytest.raises(MultiplierError, match=r"k"):
            multiplier_weights(g, MultiplierSpec(m=0, r=0.0, tau=40.0, s=1.0))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            MultiplierSpec(m=4, r=1.0, tau=0.0, s=1.0)
        with pytest.raises(ValueError):
            MultiplierSpec(m=1, r=-1.0, tau=0.0, s=1.0)
        with pytest.raises(ValueError):
            MultiplierSpec(m=1, r=1.0, tau=0.0, s=0.5)


class TestDifferentialOperators:
    def test_curl_of_single_mode(self):
        g = Grid(8)
        # v = c e^{ik.x} + conj, k=(0,0,1), c = (1,0,0)/2 -> curl = ik x c + conj
        f = mode_field(g, [((0, 0, 1), (0.5, 0.0, 0.0))])
        w = curl(f)
        # ik x c = i(0,0,1) x (0.5,0,0) = (0, 0.5i, 0)
        assert w.coeffs[1, 0, 0, 1] == pytest.approx(0.5j)
        assert np.abs(w.coeffs[0, 0, 0, 1]) < 1e-15

    def test_biot_savart_inverts_curl(self):
        g = Grid(16)
        st = random_band(g, seed=11, kmax=4)
        rec = biot_savart(curl(st.u))
        np.testing.assert_allclose(rec.coeffs, st.u.coeffs, atol=1e-12)

    def test_biot_savart_rejects_non_solenoidal(self):
        g = Grid(8)
        f = mode_field(g, [((1, 0, 0), (1.0, 0.0, 0.0))])  # k . v != 0
        with pytest.raises(ValueError, match="divergence"):
            biot_savart(f)

    def test_curl_of_biot_savart_is_identity_on_solenoidal(self):
        g = Grid(16)
        w = curl(random_band(g, seed=12, kmax=4).h)
        np.testing.assert_allclose(
            curl(biot_savart(w)).coeffs, w.coeffs, atol=1e-12
        )

    def test_gradient_single_mode(self):
        g = Grid(8)
        f = mode_field(g, [((2, 0, 0), (0.0, 0.5, 0.0))])  # cos(2x) e_2
        grad = gradient_physical(f)
        x = np.arange(8) * g.spacing
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        np.testing.assert_allclose(grad[0, 1], -2.0 * np.sin(2 * X), atol=1e-13)
        np.testing.assert_allclose(grad[1], 0.0, atol=1e-13)

    def test_lambda_apply_matches_weights(self):
        g = Grid(8)
        st = random_band(g, seed=13, kmax=2)
        spec = MultiplierSpec(m=0, r=1.0, tau=0.1, s=1.0)
        w = multiplier_weights(g, spec)
        np.testing.assert_allclose(
            lambda_apply(st.u, spec).coeffs, st.u.coeffs * w, atol=0.0
        )


class TestInnerProductsAndAdvection:
    def test_inner_l2_matches_collocation_quadrature(self):
        g = Grid(16)
        a = random_band(g, seed=14, kmax=4)
        val = inner_l2(a.u, a.h)
        oracle = quadrature_inner(to_physical(a.u), to_physical(a.h), 16)
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_inner_weighted_unit_weights_is_inner_l2(self):
        g = Grid(8)
        a = random_band(g, seed=15, kmax=2)
        ones = np.ones((8, 8, 8))
        assert inner_weighted(a.u, a.h, ones) == pytest.approx(
            inner_l2(a.u, a.h), rel=1e-13
        )

    def test_advect_single_modes_by_hand(self):
        g = Grid(16)
        # a = cos(x) e_2, b = cos(y) e_3 -> (a.grad)b = cos(x) d_y cos(y) e_3
        #   = -cos(x) sin(y) e_3
        a = mode_field(g, [((1, 0, 0), (0.0, 0.5, 0.0))])
        b = mode_field(g, [((0, 1, 0), (0.0, 0.0, 0.5))])
        prod = advect(a, b)
        phys = to_physical(prod)
        x = np.arange(16) * g.spacing
        X, Y, _ = np.meshgrid(x, x, x, indexing="ij")
        np.testing.assert_allclose(phys[2], -np.cos(X) * np.sin(Y), atol=1e-12)

    def test_advect_band_limited_product_is_alias_free(self):
        # modes up to kmax=4 on n=16: product modes up to 8 alias to >= -8,
        # all outside the dealias band, so retained modes are exact
        g = Grid(16)
        a = random_band(g, seed=16, kmax=4)
        big = Grid(32)
        # same fields embedded on a finer grid: no aliasing at all there
        from gevreymhd.spectral import SpectralField

        def embed(f):
            out = SpectralField.zeros(big)
            idx = g.modes
            src = np.ix_((0, 1, 2), idx % g.n, idx % g.n, idx % g.n)
            dst = np.ix_((0, 1, 2), idx % big.n, idx % big.n, idx % big.n)
            out.coeffs[dst] = f.coeffs[src]
            return out

        coarse = advect(a.u, a.h)
        fine = advect(embed(a.u), embed(a.h))
        mask = np.abs(g.modes) <= 5
        for i1, k1 in enumerate(g.modes):
            if not mask[i1]:
                continue
            for i2, k2 in enumerate(g.modes):
                if not mask[i2]:
                    continue
                for i3, k3 in enumerate(g.modes):
                    if not mask[i3]:
                        continue
                    np.testing.assert_allclose(
                        coarse.coeffs[:, i1, i2, i3],
                        fine.coeffs[:, k1 % 32, k2 % 32, k3 % 32],
                        atol=1e-10,
                    )
