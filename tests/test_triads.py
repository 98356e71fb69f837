import numpy as np
import pytest

from gevreymhd import triads
from gevreymhd.operators import MultiplierSpec, curl
from gevreymhd.spectral import Grid, random_band, random_band_field

from oracles import (
    field_to_modes,
    naive_pair_marginal,
    naive_weighted_trilinear,
    transform_trilinear,
    trilinear_bruteforce,
)


class TestBandExtraction:
    def test_cube_layout(self):
        g = Grid(16)
        st = random_band(g, seed=31, kmax=2)
        cube = triads.extract_band(st.u, 2)
        modes = g.modes
        np.testing.assert_array_equal(
            cube[:, 2 + 1, 2 - 2, 2 + 0],
            st.u.coeffs[:, 1, -2 % 16, 0],
        )

    def test_strict_leak_detection(self):
        g = Grid(16)
        st = random_band(g, seed=31, kmax=4)
        with pytest.raises(triads.BandError, match="outside"):
            triads.extract_band(st.u, 2)

    def test_kmax_cap(self):
        g = Grid(32)
        st = random_band(g, seed=31, kmax=4)
        with pytest.raises(triads.BandError, match="cap"):
            triads.extract_band(st.u, 7)


class TestMarginalKernels:
    def test_invalid_direction_rejected(self):
        g = Grid(16)
        st = random_band(g, seed=32, kmax=2)
        A = triads.extract_band(st.u, 2)
        with pytest.raises(ValueError):
            triads.pair_marginal(A, A, A, 2, 0)

    def test_non_hermitian_cube_rejected(self):
        # The l_m < 0 half of the marginal is mirrored from the l_m > 0
        # half, which holds for real fields only.
        st = random_band(Grid(16), seed=32, kmax=2)
        A = triads.extract_band(st.u, 2)
        B = A.copy()
        B[1, 2 + 1, 2 - 1, 2] += 1e-6 * np.max(np.abs(A))
        triads.pair_marginal(A, A, A, 2, 1)
        for cubes in ((B, A, A), (A, B, A), (A, A, B)):
            with pytest.raises(ValueError, match="Hermitian"):
                triads.pair_marginal(*cubes, 2, 1)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_matches_per_entry_python_oracle(self, m):
        g = Grid(16)
        st = random_band(g, seed=35, kmax=3)
        third = random_band_field(g, 36, 3, solenoidal=False)
        fields = (st.u, st.h, third)
        modes = [field_to_modes(f, tol=0.0) for f in fields]
        cubes = [triads.extract_band(f, 3) for f in fields]
        P = triads.pair_marginal(*cubes, 3, m)
        oracle = naive_pair_marginal(*modes, 3, m)
        assert np.max(np.abs(oracle)) > 0
        np.testing.assert_allclose(P, oracle, rtol=0,
                                   atol=1e-12 * np.max(np.abs(oracle)))


class TestBruteForceValues:
    def test_matches_independent_python_oracle(self):
        g = Grid(16)
        st = random_band(g, seed=33, kmax=2)
        omega = curl(st.u)
        am = field_to_modes(st.u, tol=0.0)
        bm = field_to_modes(st.h, tol=0.0)
        cm = field_to_modes(omega, tol=0.0)
        for m, r, tau, s in ((1, 1.0, 0.2, 1.0), (2, 0.0, 0.1, 2.0),
                             (3, 2.5, 0.0, 1.5)):
            oracle = naive_weighted_trilinear(am, bm, cm, m, r, tau, s)
            value = trilinear_bruteforce(st.u, st.h, omega, m, r, tau, s,
                                         kmax=2)
            assert value == pytest.approx(oracle, rel=1e-12)

    def test_matches_transform_path(self):
        g = Grid(16)
        st = random_band(g, seed=34, kmax=4)
        omega = curl(st.u)
        spec = MultiplierSpec(m=2, r=1.5, tau=0.15, s=2.0)
        bf = trilinear_bruteforce(st.u, st.h, omega, 2, 1.5, 0.15, 2.0,
                                  kmax=4)
        fft = transform_trilinear(st.u, st.h, omega, spec)
        assert bf.real == pytest.approx(fft, rel=1e-10)
        assert abs(bf.imag) < 1e-10 * max(abs(bf.real), 1.0)


class TestWeightTables:
    def test_zero_mode_conventions(self):
        t = triads.weight_tables(2, 1.0, 0.3, 1.0)
        K = 2
        # l_m = 0 modes weigh zero in "full" (0^{2r} with r > 0)
        # l_m = -j_m - k_m = 0 on the anti-diagonal
        assert t["full"][K + 1, K - 1] == 0.0  # j=1, k=-1 -> l=0
        assert t["full"][K + 1, K + 1] == pytest.approx(
            2.0 ** 2 * np.exp(2 * 0.3 * 2.0)
        )

    def test_r_zero_passes_zero_modes(self):
        t = triads.weight_tables(2, 0.0, 0.3, 1.0)
        K = 2
        assert t["full"][K + 1, K - 1] == 1.0  # 0^0 = 1, e^0 = 1

    def test_identity_combinations_per_entry(self):
        # full - cancel = t1 + t2 and tdiff = full - cancel hold entrywise
        t = triads.weight_tables(3, 1.7, 0.25, 1.5)
        atol = 1e-12 * float(np.max(np.abs(t["full"])))
        np.testing.assert_allclose(t["full"] - t["cancel"], t["t1"] + t["t2"],
                                   atol=atol)
        np.testing.assert_allclose(t["tdiff"], t["full"] - t["cancel"],
                                   atol=atol)
        np.testing.assert_allclose(t["full"] - t["wfirst"] - t["cancel"],
                                   t["s1"] + t["s2"] + t["s3"], atol=atol)
