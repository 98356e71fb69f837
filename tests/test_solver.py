import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from gevreymhd.norms import GevreyParams, SubcriticalWarning
from gevreymhd.operators import (
    advect,
    curl,
    gradient_physical,
)
from gevreymhd import norms, solver, spectral
from gevreymhd.radius import RadiusTracker
from gevreymhd.solver import (
    StepError,
    _sample_diagnostics,
    cfl_timestep,
    cross_helicity,
    energy,
    rhs_primitive,
    run,
    step_rk4,
)
from gevreymhd.spectral import (
    Grid,
    MHDState,
    SpectralField,
    dealias,
    from_physical,
    leray_project,
    random_band,
    taylor_green_mhd,
    to_physical,
)
from oracles import (
    cross_gradient_curl_term,
    cumulative_integral,
    gronwall_majorant,
    lower_bound,
    reference_run,
    rhs_curl,
    rk4_chain,
)


def smooth_params():
    return GevreyParams(r=3.0, s=1.0, tau=0.1)


class TestTendencies:
    def test_primitive_tendency_divergence_free(self):
        st = taylor_green_mhd(Grid(16))
        tend = rhs_primitive(st)
        assert tend.du.divergence_defect() < 1e-12
        assert tend.dh.divergence_defect() < 1e-12

    def test_vorticity_tendency_is_curl_of_primitive(self):
        st = random_band(Grid(16), seed=41, kmax=4, amplitude=0.3)
        tp = rhs_primitive(st)
        tc = rhs_curl(st)
        scale = tc.du.max_amplitude()
        assert np.max(np.abs(curl(tp.du).coeffs - tc.du.coeffs)) < 1e-10 * scale

    def test_current_tendency_needs_cross_gradient_correction(self):
        # the transport-only current tendency differs from the curl of the
        # induction tendency by an O(1) cross-gradient term; with the
        # explicit correction the identity closes to roundoff
        st = random_band(Grid(16), seed=41, kmax=4, amplitude=0.3)
        tp = rhs_primitive(st)
        tc = rhs_curl(st)
        omega = curl(st.u)
        current = curl(st.h)
        dj_true = curl(tp.dh)
        scale = dj_true.max_amplitude()
        # uncorrected defect is large (negative control)
        assert np.max(np.abs(dj_true.coeffs - tc.dh.coeffs)) > 1e-2 * scale
        corrected = (
            tc.dh.coeffs
            - advect(omega, st.h).coeffs
            + advect(current, st.u).coeffs
            - cross_gradient_curl_term(st.u, st.h).coeffs
        )
        assert np.max(np.abs(dj_true.coeffs - corrected)) < 1e-10 * scale

    def test_u_equals_h_is_equilibrium(self):
        st = taylor_green_mhd(Grid(16))
        eq = MHDState(st.u.copy(), st.u.copy(), 0.0)
        tend = rhs_primitive(eq)
        assert tend.du.max_amplitude() < 1e-15
        assert tend.dh.max_amplitude() < 1e-15


class TestStepping:
    def test_single_step_order_four(self):
        st = taylor_green_mhd(Grid(16))
        ref = st
        for _ in range(16):
            ref = step_rk4(ref, 0.04 / 16)
        errors = []
        for nsub in (1, 2, 4):
            cur = st
            for _ in range(nsub):
                cur = step_rk4(cur, 0.04 / nsub)
            errors.append(
                float(np.max(np.abs(cur.u.coeffs - ref.u.coeffs)))
            )
        order1 = np.log2(errors[0] / errors[1])
        order2 = np.log2(errors[1] / errors[2])
        assert order1 >= 3.8
        assert order2 >= 3.8

    def test_step_is_bitwise_the_textbook_combination(self):
        st = taylor_green_mhd(Grid(16))
        dt = 0.01

        def f(u, h, t):
            tend = rhs_primitive(MHDState(SpectralField(st.grid, u),
                                          SpectralField(st.grid, h), t))
            return tend.du.coeffs, tend.dh.coeffs

        u0, h0 = st.u.coeffs, st.h.coeffs
        k1u, k1h = f(u0, h0, 0.0)
        k2u, k2h = f(u0 + 0.5 * dt * k1u, h0 + 0.5 * dt * k1h, 0.5 * dt)
        k3u, k3h = f(u0 + 0.5 * dt * k2u, h0 + 0.5 * dt * k2h, 0.5 * dt)
        k4u, k4h = f(u0 + dt * k3u, h0 + dt * k3h, dt)
        u1 = u0 + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        h1 = h0 + dt / 6.0 * (k1h + 2 * k2h + 2 * k3h + k4h)
        out = step_rk4(st, dt)
        assert np.array_equal(
            out.u.coeffs,
            dealias(leray_project(SpectralField(st.grid, u1))).coeffs)
        assert np.array_equal(
            out.h.coeffs,
            dealias(leray_project(SpectralField(st.grid, h1))).coeffs)

    def test_step_rejects_bad_dt(self):
        st = taylor_green_mhd(Grid(16))
        with pytest.raises(ValueError):
            step_rk4(st, 0.0)

    @pytest.mark.parametrize("call, name", [
        (lambda st: step_rk4(st, np.nan), "dt"),
        (lambda st: step_rk4(st, np.inf), "dt"),
        (lambda st: cfl_timestep(st, -1.0), "cfl"),
        (lambda st: cfl_timestep(st, np.nan), "cfl"),
        (lambda st: rhs_primitive(st, "speeds"), "reduce"),
        (lambda st: rhs_primitive(st, True), "reduce"),
    ], ids=["step-nan", "step-inf", "cfl-negative", "cfl-nan",
            "reduce-unknown", "reduce-bool"])
    def test_bad_controls_raise_before_a_stage(self, call, name, monkeypatch):
        monkeypatch.setattr(solver, "_nonlinear", no_stage)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(taylor_green_mhd(Grid(8)))

    def test_tendency_carries_the_maxima_asked_for(self):
        st = random_band(Grid(16), seed=5, kmax=4)
        plain, speed, maxima = (rhs_primitive(st, reduce)
                                for reduce in (None, "speed", "maxima"))
        for tend in (speed, maxima):
            assert np.array_equal(as_bytes(tend.band), as_bytes(plain.band))
        phys = to_physical(st.u, st.h)
        assert plain.speed is plain.grad_u is plain.grad_h is None
        assert speed.speed == maxima.speed == solver._max_speed(phys)
        assert speed.grad_u is speed.grad_h is None
        assert maxima.grad_u == norms.sup_gradient(st.u)
        assert maxima.grad_h == norms.sup_gradient(st.h)

    def test_step_raises_on_nonfinite(self):
        st = taylor_green_mhd(Grid(16))
        st.u.coeffs[0, 1, 0, 0] = np.nan
        with pytest.raises(StepError):
            step_rk4(st, 0.01)

    def test_equilibrium_preserved(self):
        st = taylor_green_mhd(Grid(16))
        eq = MHDState(st.u.copy(), st.u.copy(), 0.0)
        out = eq
        for _ in range(10):
            out = step_rk4(out, 0.02)
        assert np.max(np.abs(out.u.coeffs - eq.u.coeffs)) < 1e-13
        assert np.max(np.abs(out.h.coeffs - eq.h.coeffs)) < 1e-13

    def test_cfl_timestep(self):
        st = taylor_green_mhd(Grid(16))
        dt = cfl_timestep(st, cfl=0.5)
        assert 0.0 < dt < 1.0
        zero = MHDState(SpectralField.zeros(Grid(16)),
                        SpectralField.zeros(Grid(16)), 0.0)
        assert cfl_timestep(zero) == np.inf

    def test_cfl_timestep_of_both_fields_in_one_transform(self):
        st = taylor_green_mhd(Grid(64))
        speed = np.max(np.linalg.norm(to_physical(st.u), axis=0)
                       + np.linalg.norm(to_physical(st.h), axis=0))
        assert cfl_timestep(st, 0.5) == 0.5 * st.grid.spacing / speed

    def test_curl_tendencies_equal_term_by_term_advection(self):
        st = random_band(Grid(16), seed=42, kmax=4, amplitude=0.3)
        tend, u, h = rhs_curl(st), st.u, st.h
        w, j = curl(u), curl(h)
        dw = (-advect(u, w).coeffs + advect(h, j).coeffs
              + advect(w, u).coeffs - advect(j, h).coeffs)
        dj = (-advect(u, j).coeffs + advect(h, w).coeffs
              + advect(w, h).coeffs - advect(j, u).coeffs)
        for got, want in ((tend.du.coeffs, dw), (tend.dh.coeffs, dj)):
            scale = np.max(np.abs(want))
            assert scale > 0
            assert np.max(np.abs(got - want)) < 1e-12 * scale


def full_spectrum_state(n, seed):
    """A state with every mode set: the kernels' masks and projections bite."""
    rng = np.random.default_rng(seed)
    shape = (3, n, n, n)

    def field():
        return SpectralField(Grid(n), rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))

    return MHDState(field(), field(), 0.0)


def force_cpus(monkeypatch, count):
    """Size the transform pool for `count` CPUs, replacing any pool so far."""
    monkeypatch.setattr(spectral, "_cpu_count", lambda: count)
    monkeypatch.setattr(spectral, "_pool", None)


def as_bytes(a: np.ndarray) -> np.ndarray:
    """The array's bytes, so a zero's sign counts."""
    return np.ascontiguousarray(a).view(np.uint8)


class TestInPlaceContract:
    """The solver's in-place kernels write only arrays the callee owns."""

    @pytest.mark.parametrize("call", [
        lambda st: step_rk4(st, 0.01),
        rhs_primitive,
        lambda st: leray_project(st.u),
        lambda st: dealias(st.h),
    ], ids=["step_rk4", "rhs_primitive", "leray_project", "dealias"])
    def test_inputs_keep_their_bytes(self, call):
        st = full_spectrum_state(16, seed=61)
        before = [st.u.coeffs.copy(), st.h.coeffs.copy()]
        call(st)
        for saved, now in zip(before, (st.u.coeffs, st.h.coeffs)):
            assert np.array_equal(as_bytes(saved), as_bytes(now))

    @staticmethod
    def textbook_rk4(f, y0, dt):
        """The RK4 update of the arrays y0 by f, out of place."""
        k1 = f(y0)
        k2 = f([a + 0.5 * dt * b for a, b in zip(y0, k1)])
        k3 = f([a + 0.5 * dt * b for a, b in zip(y0, k2)])
        k4 = f([a + dt * b for a, b in zip(y0, k3)])
        # The stepper weights every stage derivative, k4's by 1.
        return [a + dt / 6.0 * (((b1 + 2 * b2) + 2 * b3) + 1 * b4)
                for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]

    # n = 64 runs its transforms and its elementwise passes on the thread
    # pool; three CPUs split the 64 planes of a slab pass 21/21/22.
    CPUS = (1, 2, 3)

    def test_pooled_step_is_bytewise_the_textbook_rk4(self, monkeypatch):
        # The reference evaluates every operator out of place through the
        # public functions.
        st = taylor_green_mhd(Grid(64))
        grid, dt = st.grid, 0.01

        def advection(a, grad):
            return np.einsum("mxyz,mcxyz->cxyz", a, grad)

        def f(y):
            u, h = (SpectralField(grid, c) for c in y)
            up, hp = to_physical(u), to_physical(h)
            gu, gh = gradient_physical(u), gradient_physical(h)
            out = []
            for prod in (advection(up, gu) - advection(hp, gh),
                         advection(up, gh) - advection(hp, gu)):
                d = leray_project(dealias(from_physical(grid, prod)))
                d.coeffs *= -1.0
                out.append(d.coeffs)
            return out

        y1 = [dealias(leray_project(SpectralField(grid, c))).coeffs
              for c in self.textbook_rk4(f, (st.u.coeffs, st.h.coeffs), dt)]
        # The step works on the 2/3 band: every coefficient has the
        # reference's value, so every nonzero one its bits, and each one
        # outside the band is +0.0, byte for byte.
        outside = ~grid.band_mask(grid.n / 3.0)
        for cpus in self.CPUS:
            force_cpus(monkeypatch, cpus)
            out = step_rk4(st, dt)
            for got, ref in zip((out.u.coeffs, out.h.coeffs), y1):
                assert np.array_equal(got, ref), cpus
                assert not np.any(as_bytes(got[:, outside])), cpus

    @pytest.mark.parametrize("n, cpus", [(16, None), (64, 2)])
    def test_step_from_every_mode_is_the_textbook_rk4(self, n, cpus,
                                                       monkeypatch):
        # A stage input keeps y0's modes outside the band, which the
        # inverse transforms of a state that is neither band-limited nor
        # Hermitian read.
        if cpus is not None:
            force_cpus(monkeypatch, cpus)
        st = full_spectrum_state(n, seed=67)
        grid, dt = st.grid, 1e-3

        def f(y):
            state = MHDState(*(SpectralField(grid, c) for c in y))
            tend = rhs_primitive(state)
            return [tend.du.coeffs, tend.dh.coeffs]

        y1 = [dealias(leray_project(SpectralField(grid, c))).coeffs
              for c in self.textbook_rk4(f, (st.u.coeffs, st.h.coeffs), dt)]
        out = step_rk4(st, dt)
        assert np.array_equal(out.u.coeffs, y1[0])
        assert np.array_equal(out.h.coeffs, y1[1])


class TestPooledReductions:
    """The sample-side reductions split their slabs over the pool at n = 64
    and equal the one-call numpy expressions bit for bit."""

    N = 64

    @pytest.fixture(scope="class")
    def state(self):
        return random_band(Grid(self.N), seed=71, kmax=12)

    @staticmethod
    def reference_sups(g):
        rot = np.stack((g[1, 2] - g[2, 1], g[2, 0] - g[0, 2],
                        g[0, 1] - g[1, 0]))
        return (max(float(g.max()), -float(g.min())),
                float(np.max(np.linalg.norm(rot, axis=0))))

    @staticmethod
    def reference_curl(v):
        k1, k2, k3 = (1j * np.where(km == -v.grid.n // 2, 0, km)
                      for km in v.grid.wavevectors())
        c = v.coeffs
        return np.stack([k2 * c[2] - k3 * c[1], k3 * c[0] - k1 * c[2],
                         k1 * c[1] - k2 * c[0]])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equal_to_one_call(self, state, cpus, monkeypatch):
        force_cpus(monkeypatch, cpus)
        g = gradient_physical(state.u)
        assert norms.gradient_sups(g) == self.reference_sups(g)
        phys = to_physical(state.u, state.h)
        speed = np.max(np.linalg.norm(phys[:3], axis=0)
                       + np.linalg.norm(phys[3:], axis=0))
        assert solver._max_speed(phys) == float(speed)
        for v in (state.u, state.h):
            assert np.array_equal(as_bytes(curl(v).coeffs),
                                  as_bytes(self.reference_curl(v)))
        amp = np.max([np.abs(v.coeffs).max(axis=0)
                      for v in (state.u, state.h)], axis=0)
        assert np.array_equal(as_bytes(norms.mode_amplitude(state.u, state.h)),
                              as_bytes(amp))

    def test_nan_in_a_worker_slab_is_kept(self, state, monkeypatch):
        # Plane 40 lies in the second of two slabs, which the worker reduces.
        force_cpus(monkeypatch, 2)
        g = gradient_physical(state.u)
        g[0, 1, 40, 3, 5] = np.nan
        assert all(np.isnan(x) for x in norms.gradient_sups(g))
        phys = to_physical(state.u, state.h)
        phys[4, 40, 3, 5] = np.nan
        assert np.isnan(solver._max_speed(phys))
        v = state.u.copy()
        v.coeffs[1, 40, 3, 5] = np.nan
        assert np.isnan(norms.mode_amplitude(v)[40, 3, 5])


def traced_peak_fields(call, n: int) -> float:
    """Peak traced allocation of call(), in (3, n, n, n) complex fields."""
    call()  # per-grid tables and transform plans are built outside the trace
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (3 * n**3 * np.dtype(np.complex128).itemsize)


class TestMemory:
    """numpy reports its buffers to tracemalloc; a per-stage temporary of
    one state field shows as one more field here."""

    def test_step_peak_allocation(self):
        st = taylor_green_mhd(Grid(32))
        assert traced_peak_fields(lambda: step_rk4(st, 0.01), 32) <= 8.0

    def test_pooled_step_peak_allocation(self, monkeypatch):
        # Worker threads' allocations are traced too.
        force_cpus(monkeypatch, 2)
        st = taylor_green_mhd(Grid(64))
        assert traced_peak_fields(lambda: step_rk4(st, 0.01), 64) <= 6.8

    def test_sample_diagnostics_peak_allocation(self):
        st = taylor_green_mhd(Grid(32))
        peak = traced_peak_fields(
            lambda: _sample_diagnostics(st, smooth_params()), 32)
        assert peak <= 6.0

    def test_pooled_run_peak_allocation(self, monkeypatch):
        # The first stage of the next step is held across each sample; the
        # peak stays the one inside a step.
        force_cpus(monkeypatch, 2)
        st = taylor_green_mhd(Grid(64))

        def call():
            run(st, params=GevreyParams(r=4.5, tau=0.1), t_end=0.01,
                dt=0.005, cadence=2)

        assert traced_peak_fields(call, 64) <= 8.8


def tracked(records, **constants) -> list:
    """The records with tau and tau_lower from one RadiusTracker pass."""
    tracker = RadiusTracker(**constants)
    return [tracker.track(rec) for rec in records]


def record_bytes(rec) -> bytes:
    """Every float of a diagnostics record, its norm record flattened."""
    flat = []
    for value in dataclasses.astuple(rec):
        flat.extend(value if isinstance(value, tuple) else (value,))
    return np.array(flat, dtype=np.float64).tobytes()


def counted_calls(fn, count: list):
    """fn, counting its calls in count[0]."""
    def wrapper(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def no_stage(*args):
    raise AssertionError("a stage tendency was evaluated")


def rb16_state():
    """The random-band n=16 state of the dense CFL benchmark, seed 0."""
    return random_band(Grid(16), seed=0, kmax=2, amplitude=0.05)


class TestSharedFirstStage:
    """run evaluates a sampled or CFL-stepped state's first stage once."""

    @pytest.mark.parametrize("make, kwargs, status", [
        (rb16_state, dict(cfl=0.05, cadence=1, t_end=0.1), "completed"),
        (rb16_state, dict(cfl=0.05, cadence=3, t_end=0.1), "completed"),
        (lambda: taylor_green_mhd(Grid(16)),
         dict(dt=0.01, cadence=3, t_end=0.07), "completed"),
        (lambda: random_band(Grid(16), seed=0, kmax=2, amplitude=1e3),
         dict(dt=0.1, cadence=5, t_end=1.0), "non-finite"),
    ], ids=["cfl-cadence-1", "cfl-cadence-3", "dt-off-cadence-end",
            "non-finite"])
    def test_run_is_bitwise_the_reference_loop(self, make, kwargs, status):
        kwargs = dict(params=GevreyParams(r=4.5, tau=0.1), **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, ref = run(make(), **kwargs), reference_run(make(), **kwargs)
        assert got.status == ref.status == status
        assert len(got.records) == len(ref.records) >= 2
        for a, b in zip(got.records, ref.records):
            assert record_bytes(a) == record_bytes(b)
        assert got.state.t == ref.state.t
        for a, b in ((got.state.u, ref.state.u), (got.state.h, ref.state.h)):
            assert np.array_equal(as_bytes(a.coeffs), as_bytes(b.coeffs))

    def test_transforms_per_step(self, monkeypatch):
        # Each step's four stages make 30 transforms each: u and h (6),
        # their gradients (18) and the two products (6).  Only the final
        # sample, with no step after it, takes its two gradients (18) itself.
        # An inverse transform is counted once, by its complex-to-real pass,
        # and a forward one by the band forward transform that makes it.
        # Below n = 64 a call transforms a batch of components, their axis
        # leading, so each call counts its leading extent.
        count = [0]

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                assert a.ndim == 4
                count[0] += a.shape[0]
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "irfftn", counted(np.fft.irfftn))
        monkeypatch.setattr(solver, "_band_forward",
                            counted(solver._band_forward))
        st = rb16_state()
        t_end = 170 * cfl_timestep(st, 0.05)
        count[0] = 0
        res = run(st, params=GevreyParams(r=4.5, tau=0.1), t_end=t_end,
                  cfl=0.05, cadence=1)
        steps = len(res.records) - 1
        assert res.status == "completed" and steps == 170
        assert count[0] == 120 * steps + 18 == 20418

    def test_sup_norms_only_for_sampled_states(self, monkeypatch):
        # Every CFL step reads its state's speed, but only the sampled
        # states reduce their two gradient tensors.
        calls, steps = [0], [0]
        counted = counted_calls(norms.gradient_sups, calls)
        monkeypatch.setattr(norms, "gradient_sups", counted)
        monkeypatch.setattr(solver, "gradient_sups", counted)
        monkeypatch.setattr(solver, "step_rk4",
                            counted_calls(solver.step_rk4, steps))
        res = run(rb16_state(), params=GevreyParams(r=4.5, tau=0.1),
                  t_end=0.1, cfl=0.05, cadence=3)
        assert res.status == "completed"
        assert steps[0] > len(res.records) >= 3
        assert calls[0] == 2 * len(res.records)


class TestConservation:
    def test_energy_and_cross_helicity_drift(self):
        st = taylor_green_mhd(Grid(16))
        e0 = energy(st)
        hc0 = cross_helicity(st)
        cur = st
        for _ in range(50):
            cur = step_rk4(cur, 0.01)
        assert abs(energy(cur) - e0) < 1e-8 * e0
        assert abs(cross_helicity(cur) - hc0) < 1e-8 * e0

    def test_divergence_preserved(self):
        st = taylor_green_mhd(Grid(16))
        cur = st
        for _ in range(20):
            cur = step_rk4(cur, 0.01)
        assert cur.u.divergence_defect() < 1e-12
        assert cur.h.divergence_defect() < 1e-12


class TestRunLoop:
    def test_run_produces_expected_samples(self):
        st = taylor_green_mhd(Grid(16))
        with pytest.warns(SubcriticalWarning):
            res = run(st, params=smooth_params(), t_end=0.1, dt=0.01,
                      cadence=5)
        assert res.status == "completed"
        assert len(res.records) == 3  # t = 0, 0.05, 0.1
        assert res.records[-1].t == pytest.approx(0.1)

    def test_run_requires_exactly_one_step_control(self):
        st = taylor_green_mhd(Grid(16))
        with pytest.raises(ValueError):
            run(st, params=smooth_params(), t_end=0.1)
        with pytest.raises(ValueError):
            run(st, params=smooth_params(), t_end=0.1, dt=0.01, cfl=0.5)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(dt=0.01, cadence=0), "cadence"),
        (dict(dt=0.01, cadence=-1), "cadence"),
        (dict(dt=0.01, cadence=1.5), "cadence"),
        (dict(dt=np.nan), "dt"),
        (dict(dt=-0.01), "dt"),
        (dict(cfl=np.nan), "cfl"),
        (dict(cfl=-0.5), "cfl"),
        (dict(cfl=np.inf), "cfl"),
        (dict(dt=0.01, t_end=np.nan), "t_end"),
        (dict(dt=0.01, t_end=np.inf), "t_end"),
    ])
    def test_run_rejects_bad_step_controls(self, kwargs, name, monkeypatch):
        monkeypatch.setattr(solver, "_nonlinear", no_stage)
        kwargs = {"t_end": 0.1, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run(taylor_green_mhd(Grid(8)), params=GevreyParams(r=4.5, tau=0.1),
                **kwargs)

    def test_tau_decreases_and_dominates_lower_bound(self):
        st = taylor_green_mhd(Grid(16))
        with pytest.warns(SubcriticalWarning):
            res = run(st, params=smooth_params(), t_end=0.1, dt=0.01,
                      cadence=2)
        records = tracked(res.records, C=1.0, tau0=0.1)
        taus = [rec.tau for rec in records]
        assert all(b < a for a, b in zip(taus, taus[1:]))
        for rec in records:
            assert rec.tau >= rec.tau_lower * (1.0 - 1e-9)

    def test_blowup_heuristic_triggers(self, monkeypatch):
        st = taylor_green_mhd(Grid(16))
        # Taylor-Green sup norms decay slightly, so a factor just below the
        # first sampled ratio flags immediately
        monkeypatch.setattr(solver, "BLOWUP_FACTOR", 0.99)
        with pytest.warns(SubcriticalWarning):
            res = run(st, params=smooth_params(), t_end=0.1, dt=0.01,
                      cadence=1)
        assert res.status == "blow-up"
        assert len(res.records) == 2

    def test_retracking_preserves_physics_columns(self):
        st = taylor_green_mhd(Grid(16))
        with pytest.warns(SubcriticalWarning):
            res = run(st, params=smooth_params(), t_end=0.1, dt=0.01,
                      cadence=5)
        first = tracked(res.records, C=1.0, tau0=0.1)
        redone = tracked(first, C=0.5, tau0=0.1)
        assert [r.t for r in redone] == [r.t for r in res.records]
        assert [r.energy for r in redone] == [r.energy for r in res.records]
        assert ([r.grad_integral for r in redone]
                == [r.grad_integral for r in res.records])
        # weaker constants -> slower decay
        assert redone[-1].tau > first[-1].tau

    def test_tracker_equals_whole_history_pipeline(self):
        st = taylor_green_mhd(Grid(16))
        with pytest.warns(SubcriticalWarning):
            res = run(st, params=smooth_params(), t_end=0.1, dt=0.01,
                      cadence=1)
        for C in (1.0, 0.5):
            records = tracked(res.records, C=C, tau0=0.1)
            first = records[0].norms
            times = [rec.t for rec in records]
            grads = [rec.grad_sum for rec in records]
            hrs = [rec.norms.hr for rec in records]
            integral = cumulative_integral(times, grads)
            majorant = gronwall_majorant(times, hrs, integral, C, 0.1,
                                         first.x_norm)
            taus = rk4_chain(times, C * np.asarray(grads),
                             C * (np.asarray(hrs) + majorant), 0.1)
            assert [rec.grad_integral for rec in records] == list(integral)
            assert [rec.tau for rec in records] == list(taus)
            assert [rec.tau_lower for rec in records] == lower_bound(
                times, integral, C, 0.1, first.hr, first.x_norm)

    def test_completed_run_ends_with_a_record_of_its_state(self):
        # t_end > 1: the last step lands within 1e-12 t_end of t_end, but
        # not within 1e-12, which once skipped the final off-cadence sample
        st = taylor_green_mhd(Grid(16))
        st.t = 1e5
        res = run(st, params=GevreyParams(r=4.5, tau=0.1), t_end=1e5 + 0.03,
                  dt=0.01, cadence=2)
        assert res.status == "completed"
        assert res.records[-1].t == res.state.t

    def test_non_finite_step_ends_run_with_last_finite_state(self):
        st = random_band(Grid(16), seed=0, kmax=2, amplitude=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run(st, params=GevreyParams(r=4.5, tau=0.1), t_end=1.0,
                      dt=0.1, cadence=5)
        assert res.status == "non-finite"
        # the step to t=0.2 fails; t=0.1 is off cadence but sampled, so the
        # last record and the returned state agree
        assert [rec.t for rec in res.records] == [0.0, res.state.t]
        assert res.state.t == pytest.approx(0.1)
        assert np.all(np.isfinite(res.state.u.coeffs))
        assert np.all(np.isfinite(res.state.h.coeffs))

    def test_subcritical_warning_names_the_callers_line(self):
        st = taylor_green_mhd(Grid(8))
        with pytest.warns(SubcriticalWarning) as caught:
            run(st, params=smooth_params(), t_end=0.01, dt=0.01)
        assert caught[0].filename == __file__

    def test_overflowing_majorant_is_a_radius_collapse(self):
        # exp(C I(t)) overflows, which turned tau into NaN without a collapse
        # and numpy's overflow warnings reached the user ahead of the status
        st = taylor_green_mhd(Grid(16))
        with pytest.warns(SubcriticalWarning):
            res = run(st, params=smooth_params(), t_end=0.5, dt=0.01,
                      cadence=2)
        tracker = RadiusTracker(C=3e4, tau0=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = [tracker.track(rec) for rec in res.records]
        assert res.status == "completed" and tracker.collapsed
        assert not any(np.isnan(rec.tau) for rec in records)
