import multiprocessing
import threading

import numpy as np
import pytest

from gevreymhd import spectral
from gevreymhd.operators import gradient_physical
from gevreymhd.solver import rhs_primitive
from gevreymhd.spectral import (
    Grid,
    GridError,
    MHDState,
    SpectralField,
    dealias,
    from_physical,
    init_state,
    leray_project,
    mode_field,
    orszag_tang_3d,
    random_band,
    random_band_field,
    symmetrize,
    taylor_green_mhd,
    to_physical,
)

TWO_PI_CUBED = (2.0 * np.pi) ** 3


class TestGrid:
    def test_modes_are_signed_fft_order(self):
        g = Grid(8)
        assert list(g.modes) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_spacing(self):
        assert Grid(16).spacing == pytest.approx(2.0 * np.pi / 16)

    @pytest.mark.parametrize("n", [4, 7, 9, 0, -8])
    def test_invalid_sizes_rejected(self, n):
        with pytest.raises(GridError):
            Grid(n)

    def test_non_power_of_two_even_size_accepted(self):
        assert Grid(48).n == 48

    def test_dealias_mask_keeps_third(self):
        g = Grid(12)
        mask = g.dealias_mask()
        k = g.modes
        for i, ki in enumerate(k):
            expected = abs(ki) <= 4
            assert mask[i, 0, 0] == expected


class TestFieldRoundTrips:
    def test_physical_round_trip(self):
        g = Grid(16)
        st = random_band(g, seed=1, kmax=4)
        back = from_physical(g, to_physical(st.u))
        np.testing.assert_allclose(back.coeffs, st.u.coeffs, atol=1e-14)

    def test_single_mode_physical_values(self):
        # coefficient c at mode k plus conjugate at -k represents
        # 2 Re(c e^{i k.x}); with c = 1/2 this is cos(k.x)
        g = Grid(16)
        f = mode_field(g, [((1, 2, 0), (0.5, 0.0, 0.0))])
        phys = to_physical(f)
        x = np.arange(16) * g.spacing
        X, Y, _ = np.meshgrid(x, x, x, indexing="ij")
        np.testing.assert_allclose(phys[0], np.cos(X + 2 * Y), atol=1e-13)
        np.testing.assert_allclose(phys[1], 0.0, atol=1e-13)

    def test_symmetrize_produces_real_fields(self):
        g = Grid(8)
        rng = np.random.default_rng(0)
        raw = SpectralField(
            g, rng.normal(size=(3, 8, 8, 8)) + 1j * rng.normal(size=(3, 8, 8, 8))
        )
        sym = symmetrize(raw)
        assert sym.hermitian_defect() < 1e-14
        assert np.max(np.abs(np.imag(np.fft.ifftn(sym.coeffs, axes=(1, 2, 3))))) < 1e-13

    def test_symmetrize_pins_mean(self):
        g = Grid(8)
        raw = SpectralField.zeros(g)
        raw.coeffs[:, 0, 0, 0] = 3.0
        assert symmetrize(raw).coeffs[0, 0, 0, 0] == 0.0

    def test_mode_field_self_conjugate_mode_not_double_counted(self):
        g = Grid(8)
        f = mode_field(g, [((4, 0, 0), (1.0, 0.0, 0.0))])
        # -4 aliases to the same index as +4
        assert f.coeffs[0, 4, 0, 0] == pytest.approx(1.0)


class TestProjections:
    def test_leray_output_divergence_free(self):
        g = Grid(16)
        rng = np.random.default_rng(3)
        raw = symmetrize(SpectralField(
            g, rng.normal(size=(3, 16, 16, 16)) + 1j * rng.normal(size=(3, 16, 16, 16))
        ))
        assert leray_project(raw).divergence_defect() < 1e-12

    def test_leray_idempotent(self):
        g = Grid(16)
        st = random_band(g, seed=2, kmax=4)
        once = leray_project(st.u)
        twice = leray_project(once)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-14)

    def test_leray_fixes_gradient_free_field(self):
        g = Grid(8)
        # curl field is divergence-free: leray leaves it unchanged
        f = mode_field(g, [((1, 1, 0), (0.5, -0.5, 0.25j))])
        f = leray_project(f)
        np.testing.assert_allclose(
            leray_project(f).coeffs, f.coeffs, atol=1e-15
        )

    def test_dealias_zeroes_high_modes(self):
        g = Grid(8)
        f = mode_field(g, [((3, 0, 0), (0.0, 1.0, 0.0)),
                           ((2, 0, 0), (0.0, 0.5, 0.0))])
        d = dealias(f)
        assert np.abs(d.coeffs[1, 3, 0, 0]) == 0.0
        assert d.coeffs[1, 2, 0, 0] == pytest.approx(0.5)


class TestInitialData:
    def test_taylor_green_divergence_and_reality(self):
        st = taylor_green_mhd(Grid(16))
        for f in (st.u, st.h):
            assert f.divergence_defect() < 1e-12
            assert f.hermitian_defect() < 1e-14

    def test_taylor_green_velocity_samples(self):
        g = Grid(16)
        st = taylor_green_mhd(g, amplitude=2.0)
        phys = to_physical(st.u)
        x = np.arange(16) * g.spacing
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        np.testing.assert_allclose(
            phys[0], 2.0 * np.sin(X) * np.cos(Y) * np.cos(Z), atol=1e-12
        )
        np.testing.assert_allclose(phys[2], 0.0, atol=1e-12)

    def test_orszag_tang_energy(self):
        # 0.5 * integral(|u|^2 + |h|^2) = 3.92 * (2 pi)^3 at beta = 0.8
        st = orszag_tang_3d(Grid(16), beta=0.8)
        uu = np.sum(np.abs(st.u.coeffs) ** 2) * TWO_PI_CUBED
        hh = np.sum(np.abs(st.h.coeffs) ** 2) * TWO_PI_CUBED
        assert 0.5 * (uu + hh) == pytest.approx(3.92 * TWO_PI_CUBED, rel=1e-12)

    def test_random_band_is_deterministic_and_banded(self):
        g = Grid(16)
        a = random_band(g, seed=9, kmax=3)
        b = random_band(g, seed=9, kmax=3)
        np.testing.assert_array_equal(a.u.coeffs, b.u.coeffs)
        np.testing.assert_array_equal(a.h.coeffs, b.h.coeffs)
        k1, k2, k3 = g.wavevectors()
        outside = (np.abs(k1) > 3) | (np.abs(k2) > 3) | (np.abs(k3) > 3)
        assert np.max(np.abs(a.u.coeffs[:, outside])) == 0.0

    def test_random_band_rejects_unresolvable_band(self):
        with pytest.raises(ValueError):
            random_band(Grid(8), seed=0, kmax=4)

    def test_random_band_solenoidal_and_real(self):
        st = random_band(Grid(16), seed=4, kmax=4)
        for f in (st.u, st.h):
            assert f.divergence_defect() < 1e-11 * f.max_amplitude()
            assert f.hermitian_defect() < 1e-13 * f.max_amplitude()

    def test_random_band_field_optionally_not_solenoidal(self):
        f = random_band_field(Grid(16), seed=5, kmax=3, solenoidal=False)
        assert f.divergence_defect() > 1e-3 * f.max_amplitude()

    def test_init_state_dispatch(self):
        g = Grid(16)
        assert isinstance(init_state("taylor-green", g), MHDState)
        assert isinstance(init_state("orszag-tang", g), MHDState)
        assert isinstance(init_state("random-band", g, seed=1, kmax=2), MHDState)
        with pytest.raises(ValueError):
            init_state("vortex", g)


class TestPooledTransforms:
    """Grids with n >= 64 transform their components on a thread pool."""

    N = 64

    @staticmethod
    def random_field(n):
        rng = np.random.default_rng(7)
        shape = (3, n, n, n)
        return SpectralField(Grid(n), rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))

    @pytest.fixture
    def field(self):
        return self.random_field(self.N)

    @staticmethod
    def force_cpus(monkeypatch, count):
        # A fresh pool, sized for `count`, replaces any pool made so far.
        monkeypatch.setattr(spectral, "_cpu_count", lambda: count)
        monkeypatch.setattr(spectral, "_pool", None)

    @pytest.mark.parametrize("n, cpus", [(16, None), (64, None), (64, 1),
                                         (64, 2), (64, 4)])
    def test_equal_to_batched_numpy_calls(self, n, cpus, monkeypatch):
        if cpus is not None:
            self.force_cpus(monkeypatch, cpus)
        field = self.random_field(n)
        c = field.coeffs
        samples = np.ascontiguousarray((np.fft.ifftn(c, axes=(1, 2, 3))
                                        * n**3).real)
        assert np.array_equal(to_physical(field), samples)
        coeffs = np.fft.fftn(samples, axes=(1, 2, 3)) / n**3
        coeffs[:, 0, 0, 0] = 0.0
        assert np.array_equal(from_physical(field.grid, samples).coeffs,
                              coeffs)
        grad = gradient_physical(field)
        for m, km in enumerate(field.grid.wavevectors()):
            assert np.array_equal(
                grad[m], (np.fft.ifftn(1j * km * c, axes=(1, 2, 3))
                          * n**3).real)

    def test_tendency_independent_of_thread_count(self, monkeypatch):
        state = taylor_green_mhd(Grid(self.N))
        default = rhs_primitive(state)
        for cpus in (1, 3):
            self.force_cpus(monkeypatch, cpus)
            tend = rhs_primitive(state)
            assert np.array_equal(tend.du.coeffs, default.du.coeffs)
            assert np.array_equal(tend.dh.coeffs, default.dh.coeffs)

    def test_worker_exception_reaches_caller(self, field, monkeypatch):
        self.force_cpus(monkeypatch, 2)
        error = MemoryError("raised in a worker")
        ifftn = np.fft.ifftn

        def failing_off_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return ifftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", failing_off_main_thread)
        with pytest.raises(MemoryError) as caught:
            to_physical(field)
        assert caught.value is error

    def test_workers_take_callers_error_state(self, monkeypatch):
        # With two groups, component 2 is transformed by the worker.
        self.force_cpus(monkeypatch, 2)
        v = SpectralField.zeros(Grid(self.N))
        v.coeffs[2, 1, 1, 1] = np.inf
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                to_physical(v)

    def test_one_cpu_starts_no_thread(self, field, monkeypatch):
        self.force_cpus(monkeypatch, 1)
        before = threading.active_count()
        to_physical(field)
        from_physical(field.grid, to_physical(field))
        gradient_physical(field)
        assert threading.active_count() == before
        assert spectral._pool is None

    def test_forked_child_gets_a_new_pool(self, field, monkeypatch):
        self.force_cpus(monkeypatch, 2)
        to_physical(field)
        assert spectral._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=to_physical, args=(field,))
        child.start()
        child.join(timeout=60)
        try:
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
