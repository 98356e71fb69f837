import multiprocessing
import sys
import threading

import numpy as np
import pytest

from gevreymhd import spectral
from gevreymhd.operators import curl, gradient_physical
from gevreymhd.solver import rhs_primitive
from gevreymhd.spectral import (
    INITIAL_CONDITIONS,
    Grid,
    GridError,
    MHDState,
    SpectralField,
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
from oracles import dealias, from_physical

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
        mask = g.band_mask(g.n / 3)
        k = g.modes
        for i, ki in enumerate(k):
            expected = abs(ki) <= 4
            assert mask[i, 0, 0] == expected


class TestFieldRoundTrips:
    def test_physical_round_trip(self):
        g = Grid(16)
        st = random_band(g, seed=1, kmax=4)  # inside the band, |k_i| <= 5
        back = spectral._from_band(spectral._band_forward(to_physical(st.u)),
                                   g.n)
        np.testing.assert_allclose(back, st.u.coeffs, atol=1e-14)

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

    @pytest.mark.parametrize("n, cpus", [(16, None), (64, 1), (64, 2)])
    @pytest.mark.parametrize("kind", sorted(INITIAL_CONDITIONS))
    def test_initial_states_are_zero_outside_the_band(self, kind, n, cpus,
                                                       monkeypatch):
        # Every mode the 2/3 band drops is +0.0, byte for byte, and the
        # kinds built from collocation samples keep, inside the band,
        # numpy's full transform of the samples, made Hermitian.
        if cpus is not None:
            TestPooledTransforms.force_cpus(monkeypatch, cpus)
        taken, build = [], spectral._from_samples

        def from_samples(grid, samples):
            taken.append(samples)
            return build(grid, samples)

        monkeypatch.setattr(spectral, "_from_samples", from_samples)
        grid = Grid(n)
        params = {"seed": 1, "kmax": n // 3 - 1} if kind == "random-band" else {}
        st = init_state(kind, grid, **params)
        outside = ~grid.band_mask(n / 3)
        for f in (st.u, st.h):
            assert not np.any(
                np.ascontiguousarray(f.coeffs[:, outside]).view(np.uint8))
            assert f.hermitian_defect() == 0.0
        assert len(taken) == (kind != "random-band")
        for samples in taken:
            for f, part in ((st.u, samples[:3]), (st.h, samples[3:])):
                want = symmetrize(dealias(from_physical(grid, part)))
                assert np.array_equal(f.coeffs, want.coeffs)


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

    @staticmethod
    def half_spectrum_inverse(c):
        """Unscaled real inverse over the mode axes of stacked components,
        read from their k_3 >= 0 half: axis 1, axis 2, then axis 3."""
        n = c.shape[-1]
        x = np.fft.ifftn(c[..., :n // 2 + 1], axes=(1,), norm="forward")
        x = np.fft.ifftn(x, axes=(2,), norm="forward")
        return np.fft.irfftn(x, s=(n,), axes=(3,), norm="forward")

    @pytest.mark.parametrize("n, cpus", [(16, None), (32, None), (64, None),
                                         (64, 1), (64, 2), (64, 4)])
    def test_equal_to_batched_numpy_calls(self, n, cpus, monkeypatch):
        if cpus is not None:
            self.force_cpus(monkeypatch, cpus)
        field = self.random_field(n)
        c = field.coeffs
        samples = self.half_spectrum_inverse(c)
        assert np.array_equal(to_physical(field), samples)
        grad = gradient_physical(field)
        for m, km in enumerate(field.grid.wavevectors()):
            km = np.where(km == -n // 2, 0, km)  # no derivative at n/2
            assert np.array_equal(grad[m],
                                  self.half_spectrum_inverse(1j * km * c))

    @pytest.mark.parametrize("transform", [
        to_physical, lambda v: to_physical(v, v), gradient_physical,
    ], ids=["to_physical", "to_physical-two-fields", "gradient_physical"])
    def test_one_numpy_call_per_pass_below_pool_size(self, transform,
                                                     monkeypatch):
        # Each of the three one-axis passes covers every component at once.
        calls = []
        for name in ("fftn", "ifftn", "irfftn"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(args[0].shape)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        out = transform(self.random_field(16))
        assert len(calls) == 3, calls
        assert all(shape[0] == len(out.reshape(-1, 16, 16, 16))
                   for shape in calls)

    @pytest.mark.parametrize("n, cpus", [(16, None), (64, 2), (64, 3)])
    def test_several_fields_equal_one_at_a_time(self, n, cpus, monkeypatch):
        if cpus is not None:
            self.force_cpus(monkeypatch, cpus)
        u, h = self.random_field(n), self.random_field(n)
        h.coeffs *= -0.5
        both = to_physical(u, h)
        assert both.shape == (6, n, n, n)
        assert np.array_equal(both[:3], to_physical(u))
        assert np.array_equal(both[3:], to_physical(h))

    def test_samples_must_come_in_whole_fields(self):
        with pytest.raises(GridError):
            to_physical(SpectralField.zeros(Grid(8)),
                        SpectralField.zeros(Grid(16)))

    def test_tendency_independent_of_thread_count(self, monkeypatch):
        state = taylor_green_mhd(Grid(self.N))
        default = rhs_primitive(state)
        for cpus in (1, 3):
            self.force_cpus(monkeypatch, cpus)
            tend = rhs_primitive(state)
            assert np.array_equal(tend.band, default.band)

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
        spectral._band_forward(to_physical(field))
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


class TestRealInverse:
    """On real fields the half-spectrum inverse is the complex one, scaled."""

    @staticmethod
    def real_field(kind, n):
        grid = Grid(n)
        if kind == "full-spectrum":  # Nyquist modes included
            rng = np.random.default_rng(11)
            shape = (3, n, n, n)
            return symmetrize(SpectralField(
                grid, rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)))
        if kind == "band-limited":
            return random_band_field(grid, 12, (n - 1) // 3)
        return taylor_green_mhd(grid).u

    @staticmethod
    def assert_near_complex_inverse(samples, coeffs):
        n = samples.shape[-1]
        old = (np.fft.ifftn(coeffs, axes=(-3, -2, -1)) * n**3).real
        tol = 16 * np.finfo(np.float64).eps
        assert np.max(np.abs(samples - old)) <= tol * np.max(np.abs(old))

    @pytest.mark.parametrize("kind", ["full-spectrum", "band-limited",
                                      "taylor-green"])
    @pytest.mark.parametrize("n", [8, 16, 20, 64])
    def test_samples_gradient_and_curl_match_complex_inverse(self, kind, n):
        field = self.real_field(kind, n)
        c = field.coeffs
        k1, k2, k3 = field.grid.wavevectors()
        self.assert_near_complex_inverse(to_physical(field), c)
        self.assert_near_complex_inverse(
            gradient_physical(field),
            np.stack([1j * km * c for km in (k1, k2, k3)]))
        # The curl's i k is zero at n/2 too, so its samples are those of
        # the full i k x c, whose part at n/2 the real part drops.
        self.assert_near_complex_inverse(
            to_physical(curl(field)),
            1j * np.stack([k2 * c[2] - k3 * c[1], k3 * c[0] - k1 * c[2],
                           k1 * c[1] - k2 * c[0]]))


class TestSlabs:
    """Elementwise passes split the first mode axis over the pool at n >= 64."""

    force_cpus = staticmethod(TestPooledTransforms.force_cpus)

    @pytest.mark.parametrize("n, cpus, slabs", [
        (16, 3, [(None, None)]),
        (64, 1, [(0, 64)]),
        (64, 2, [(0, 32), (32, 64)]),
        (64, 3, [(0, 21), (21, 42), (42, 64)]),
    ])
    def test_slabs_cover_the_axis_in_order(self, n, cpus, slabs, monkeypatch):
        self.force_cpus(monkeypatch, cpus)
        calls = spectral._over_slabs(n, lambda s, x: (s.start, s.stop, x), 7)
        assert calls == [(lo, hi, 7) for lo, hi in slabs]
        # one slab runs on the calling thread and starts no pool
        assert (spectral._pool is None) == (len(slabs) == 1)

    def test_exception_in_a_worker_slab_reaches_caller(self, monkeypatch):
        self.force_cpus(monkeypatch, 2)
        error = MemoryError("raised in a worker slab")
        finished = []

        def job(s):
            if threading.current_thread() is not threading.main_thread():
                raise error
            finished.append(s.start)

        with pytest.raises(MemoryError) as caught:
            spectral._over_slabs(64, job)
        assert caught.value is error
        assert finished == [0]

    def test_more_slab_threads_than_cores_under_fast_switching(
            self, monkeypatch):
        # Five slabs on two or more cores, the interpreter switching threads
        # every microsecond: each thread still writes only its own slab.
        state = taylor_green_mhd(Grid(64))
        default = rhs_primitive(state)
        self.force_cpus(monkeypatch, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tend = rhs_primitive(state)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(tend.band, default.band)

    def test_worker_slabs_take_callers_error_state(self, monkeypatch):
        # Mode index 40 lies in the second slab, which the worker projects:
        # inf less k_1 (k.v)/|k|^2, inf again, is invalid.
        self.force_cpus(monkeypatch, 2)
        v = SpectralField.zeros(Grid(64))
        v.coeffs[0, 40, 0, 0] = np.inf
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                leray_project(v)


class TestBand:
    """The 2/3-rule band layout and the band forward transform."""

    @pytest.mark.parametrize("n", range(8, 97, 2))
    def test_band_is_what_the_mask_keeps(self, n):
        band = spectral._band(n)
        rows = band.rows
        assert len(rows) == band.width == 2 * (n // 3) + 1
        kept = np.zeros((n, n, n), dtype=bool)
        kept[np.ix_(rows, rows, rows)] = True
        assert np.array_equal(kept, Grid(n).band_mask(n / 3))
        # The blocks put band index j at grid index rows[j] on each axis,
        # and a split of the first axis into slabs covers each index once.
        values = 1.0 + np.arange(band.width**3, dtype=np.complex128)
        values = values.reshape(1, band.width, band.width, band.width)
        full = spectral._from_band(values, n)
        assert np.array_equal(full[0][np.ix_(rows, rows, rows)], values[0])
        assert np.count_nonzero(full) == band.width**3
        cover = np.zeros(values.shape, dtype=int)
        for lo, hi in ((0, 1), (1, band.width // 2), (band.width // 2, None)):
            for b, _ in band.blocks(slice(lo, hi)):
                cover[b] += 1
        assert np.all(cover == 1)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("n", [8, 16, 20, 24, 64])
    def test_band_forward_is_numpy_fftn_at_kept_modes(self, n, cpus,
                                                       monkeypatch):
        TestPooledTransforms.force_cpus(monkeypatch, cpus)
        samples = np.random.default_rng(n).standard_normal((6, n, n, n))
        rows = spectral._band(n).rows
        full = np.fft.fftn(samples, axes=(1, 2, 3)) / n**3
        want = full[:, rows][:, :, rows][:, :, :, rows]
        want[:, 0, 0, 0] = 0.0
        got = spectral._band_forward(samples)
        assert np.array_equal(got.view(np.uint8),
                              np.ascontiguousarray(want).view(np.uint8))
