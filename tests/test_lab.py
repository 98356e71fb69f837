import numpy as np
import pytest

from gevreymhd import lab, operators, solver
from gevreymhd.operators import MultiplierSpec, curl
from gevreymhd.spectral import (
    Grid,
    SpectralField,
    mode_field,
    random_band,
    random_band_field,
    taylor_green_mhd,
)
from oracles import (
    balance_terms_reference,
    energy_balance_reference,
    estimate_constant_reference,
)
from test_solver import counted_calls, traced_peak_fields


def band_state(seed, kmax=4, amplitude=1.0):
    return random_band(Grid(16), seed=seed, kmax=kmax, amplitude=amplitude)


class TestCancellation:
    def test_divergence_free_transport_cancels(self):
        st = band_state(51)
        spec = MultiplierSpec(m=1, r=3.0, tau=0.2, s=1.0)
        assert lab.cancellation_residual(st.u, curl(st.h), spec) < 1e-12

    def test_non_solenoidal_negative_control(self):
        g = Grid(16)
        u = random_band_field(g, seed=52, kmax=4, solenoidal=False)
        w = curl(band_state(53).h)
        spec = MultiplierSpec(m=1, r=3.0, tau=0.2, s=1.0)
        assert lab.cancellation_residual(u, w, spec) > 1e-6

    def test_zero_fields_are_harmless(self):
        g = Grid(16)
        zero = SpectralField.zeros(g)
        spec = MultiplierSpec(m=1, r=3.0, tau=0.0, s=1.0)
        assert lab.cancellation_residual(zero, zero, spec) == 0.0


class TestDecompositions:
    @pytest.mark.parametrize("tag", lab.KNOWN_IDENTITIES)
    def test_identities_close(self, tag):
        st = band_state(54)
        omega, current = curl(st.u), curl(st.h)
        spec = MultiplierSpec(m=2, r=1.3, tau=0.25, s=1.5)
        rep = lab.triad_decomposition_check(st.u, st.h, omega, current, spec,
                                            tag)
        assert rep.residual < 1e-11

    def test_three_way_split_reports_sign_convention(self):
        st = band_state(55)
        omega, current = curl(st.u), curl(st.h)
        spec = MultiplierSpec(m=1, r=1.0, tau=0.2, s=2.0)
        for tag in ("3.7", "3.25"):
            rep = lab.triad_decomposition_check(st.u, st.h, omega, current,
                                                spec, tag)
            assert "R1+R2-R3" in rep.note

    def test_unknown_tag_rejected(self):
        st = band_state(56)
        spec = MultiplierSpec(m=1, r=1.0, tau=0.0, s=1.0)
        with pytest.raises(ValueError, match="unknown identity"):
            lab.triad_decomposition_check(st.u, st.h, st.u, st.h, spec, "9.9")

    def test_directional_m_required(self):
        st = band_state(56)
        spec = MultiplierSpec(m=0, r=1.0, tau=0.0, s=1.0)
        with pytest.raises(ValueError, match="m in 1..3"):
            lab.triad_decomposition_check(st.u, st.h, st.u, st.h, spec, "3.3")


class TestScalarSuite:
    def test_all_reports_clean(self):
        reports = lab.scalar_inequality_suite(40, (1.0, 2.0, 3.0))
        for name in ("decomposition", "root_diff", "triangle"):
            assert reports[name].passed, name
        assert np.isfinite(reports["root_diff_C"].empirical_C)
        assert np.isfinite(reports["mean_value"].empirical_C)

    def test_specific_decomposition_value(self):
        # j = 3, k = -1: |l|-|k| = |-2|-1 = 1; rhs = 3*sgn(-1)
        #   + 2*(3-1)*sgn(3)*[sgn(2)sgn(-1) = -1] = -3 + 4 = 1
        j, k = 3, -1
        l = -j - k
        flip = np.sign(k + j) * np.sign(k) == -1
        rhs = j * np.sign(k) + 2 * (j + k) * np.sign(j) * flip
        assert abs(l) - abs(k) == rhs == 1

    def test_sweep_cap(self):
        with pytest.raises(ValueError, match="cap"):
            lab.scalar_inequality_suite(500, (1.0,))

    @pytest.mark.parametrize("bound, s_values, match", [
        (0, (1.0,), "bound"),
        (-3, (1.0,), "bound"),
        (1, (), "s values"),
    ])
    def test_empty_sweep_rejected(self, bound, s_values, match):
        # A sweep that checks nothing cannot pass.
        with pytest.raises(ValueError, match=match):
            lab.scalar_inequality_suite(bound, s_values)


class TestOperatorSuite:
    def test_random_fields_no_violations(self):
        g = Grid(8)
        fields = [random_band_field(g, seed=i, kmax=2) for i in range(20)]
        reports = lab.operator_inequality_suite(fields, r=3.0, tau=0.2, s=1.0)
        assert reports["constant_one"].passed
        assert np.isfinite(reports["direct_C"].empirical_C)
        assert reports["biot_savart_C"].empirical_C <= np.sqrt(3.0) + 1e-9

    def test_no_fields_rejected(self):
        # A suite that checks nothing cannot pass.
        with pytest.raises(ValueError, match="no fields"):
            lab.operator_inequality_suite([])
        with pytest.raises(ValueError, match="no fields"):
            lab.operator_inequality_suite(iter(()))

    def test_axis_aligned_single_mode_equality(self):
        # for a mode with k = (k1, 0, 0), |k_1| = |k|_1 so the direct chain
        # is an equality
        g = Grid(8)
        from gevreymhd.operators import lambda_apply
        from gevreymhd.operators import inner_l2

        f = mode_field(g, [((2, 0, 0), (0.0, 0.5, 0.25))])
        lhs = lambda_apply(f, MultiplierSpec(m=1, r=3.0))
        mid = lambda_apply(f, MultiplierSpec(m=1, r=2.0))
        rhs = lambda_apply(mid, MultiplierSpec(m=0, r=1.0))
        lhs_n = np.sqrt(inner_l2(lhs, lhs))
        rhs_n = np.sqrt(inner_l2(rhs, rhs))
        assert lhs_n == pytest.approx(rhs_n, rel=1e-13)

    def test_off_axis_single_mode_strict_inequality(self):
        g = Grid(8)
        from gevreymhd.operators import inner_l2, lambda_apply

        f = mode_field(g, [((1, 1, 0), (0.0, 0.0, 0.5))])
        lhs = lambda_apply(f, MultiplierSpec(m=1, r=3.0))
        mid = lambda_apply(f, MultiplierSpec(m=1, r=2.0))
        rhs = lambda_apply(mid, MultiplierSpec(m=0, r=1.0))
        assert np.sqrt(inner_l2(rhs, rhs)) > 1.9 * np.sqrt(inner_l2(lhs, lhs))


class TestEnergyBalance:
    def test_frozen_radius_second_order(self):
        state = taylor_green_mhd(Grid(16))
        spec = MultiplierSpec(m=3, r=1.0, tau=0.1, s=1.0)
        out = lab.energy_balance_check(state, spec, (1e-2, 5e-3, 2.5e-3))
        assert all(o >= 1.9 for o in out["orders"])

    def test_shrinking_radius_term(self):
        state = taylor_green_mhd(Grid(16))
        spec = MultiplierSpec(m=3, r=1.0, tau=0.1, s=1.0)
        out = lab.energy_balance_check(state, spec, (1e-2, 2.5e-3),
                                       tau_dot=-0.05)
        assert out["defects"][-1] < 1e-3

    def test_zero_magnetic_field_kills_couplings(self):
        st = taylor_green_mhd(Grid(16))
        zero = SpectralField.zeros(Grid(16))
        spec = MultiplierSpec(m=1, r=1.0, tau=0.1, s=1.0)
        _, k2, k3, k4 = lab.balance_terms(st.u, zero, spec)
        assert k2 == 0.0
        assert k3 == 0.0
        assert k4 == 0.0

    def test_equilibrium_balance(self):
        st = taylor_green_mhd(Grid(16))
        spec = MultiplierSpec(m=2, r=1.0, tau=0.1, s=1.0)
        k1, k2, k3, k4 = lab.balance_terms(st.u, st.u.copy(), spec)
        scale = max(abs(k1), abs(k2), 1.0)
        assert abs(k1 + k2 + k3 + k4) < 1e-10 * scale

    def test_groups_pinned(self):
        # Pinned so that a row of CURL_TERMS with a wrong field, sign or
        # lemma tag, or a wrong K4 term, fails here.
        st = random_band(Grid(16), seed=500, kmax=4, amplitude=0.2)
        spec = MultiplierSpec(m=2, r=1.0, tau=0.1, s=1.0)
        groups = lab.balance_terms(st.u, st.h, spec)
        assert groups == pytest.approx(
            (606470.463590405, -770686.2278223587, 138158.0578014917,
             -1240398.2191459516),
            rel=1e-12)

    def test_balance_needs_k4_on_the_primitive_flow(self, monkeypatch):
        # Negative control: the CURL_TERMS rows alone do not balance the
        # flow step_rk4 takes, whose current is the curl of the induction
        # equation; K4 closes the balance at second order.
        state = random_band(Grid(16), seed=3, kmax=4, amplitude=0.3)
        spec = MultiplierSpec(m=2, r=1.5, tau=0.1, s=1.5)
        dts = (1e-2, 5e-3, 2.5e-3)
        out = lab.energy_balance_check(state, spec, dts)
        assert all(o >= 1.9 for o in out["orders"]), out
        terms = lab.balance_terms
        monkeypatch.setattr(lab, "balance_terms",
                            lambda *args: (*terms(*args)[:3], 0.0))
        out = lab.energy_balance_check(state, spec, dts)
        assert len(out["orders"]) == 2
        assert all(o < 1.0 for o in out["orders"]), out

    def test_terms_transform_each_field_once(self, monkeypatch):
        # u, h, omega and J in one to_physical call, and one gradient
        # tensor per field a row differentiates, equal bit for bit to a
        # transform_trilinear per row and the K4 cross term.
        st = random_band(Grid(16), seed=500, kmax=4, amplitude=0.2)
        spec = MultiplierSpec(m=2, r=1.0, tau=0.1, s=1.0)
        expected = balance_terms_reference(st.u, st.h, spec)
        transforms, gradients = [0], [0]
        for module in (lab, operators):
            monkeypatch.setattr(module, "to_physical",
                                counted_calls(module.to_physical, transforms))
            monkeypatch.setattr(
                module, "gradient_physical",
                counted_calls(module.gradient_physical, gradients))
        assert lab.balance_terms(st.u, st.h, spec) == expected
        assert transforms[0] == 1
        assert gradients[0] == 4

    @pytest.mark.parametrize("dts, tau_dot, steps", [
        ((1e-2, 5e-3, 2.5e-3), 0.0, 4),
        ((1e-2, 2.5e-3), -0.05, 4),
        ((1e-2, 1e-2), 0.0, 2),
    ])
    def test_each_step_length_stepped_once(self, dts, tau_dot, steps,
                                           monkeypatch):
        # A half step that is another dt's full step is stepped once, and
        # the steps share the first stage of the state they all start from;
        # the outcome equals bit for bit a half and a full step per dt,
        # each with its own first stage.
        state = random_band(Grid(16), seed=3, kmax=4, amplitude=0.3)
        spec = MultiplierSpec(m=2, r=1.5, tau=0.1, s=1.5)
        expected = energy_balance_reference(state, spec, dts, tau_dot)
        calls, stages = [0], [0]
        monkeypatch.setattr(lab, "step_rk4", counted_calls(lab.step_rk4, calls))
        rhs = counted_calls(solver.rhs_primitive, stages)
        monkeypatch.setattr(lab, "rhs_primitive", rhs)
        monkeypatch.setattr(solver, "rhs_primitive", rhs)
        assert lab.energy_balance_check(state, spec, dts, tau_dot) == expected
        assert calls[0] == steps
        assert stages[0] == 1 + 3 * steps

    def test_peak_allocation(self):
        # Each stepped state is dropped once its curls are taken.
        state = taylor_green_mhd(Grid(32))
        spec = MultiplierSpec(m=3, r=1.0, tau=0.1, s=1.0)
        peak = traced_peak_fields(
            lambda: lab.energy_balance_check(state, spec, (1e-2,)), 32)
        assert peak <= 15.15


class TestConstantEstimation:
    def make_samples(self, count, seed0=500, amplitude=0.2):
        g = Grid(16)
        out = []
        for i in range(count):
            st = random_band(g, seed=seed0 + i, kmax=4, amplitude=amplitude)
            out.append((curl(st.u), curl(st.h)))
        return out

    @pytest.mark.parametrize("lemma", lab.KNOWN_LEMMAS)
    def test_finite_ratio(self, lemma):
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        value = lab.estimate_constant(lemma, self.make_samples(3), spec)
        assert np.isfinite(value)
        assert value >= 0.0

    @pytest.mark.parametrize("lemma, expected", [
        ("3.1", 1.1365077885164073e-06),
        ("3.2", 1.2145143662534418e-06),
        ("3.21", 6.31369480718932e-07),
        ("3.22", 4.140413896269178e-06),
    ])
    def test_value_pinned(self, lemma, expected):
        # Pinned so that a row of CURL_TERMS with a wrong field or lemma tag
        # fails here.
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        value = lab.estimate_constant(lemma, self.make_samples(3), spec)
        assert value == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def mixed_grid_samples():
        # n = 16 and n = 8 samples in turn, so that squared weights kept
        # for the wrong grid size would fail to broadcast or differ.
        out = []
        for i in range(4):
            n, kmax = (16, 4) if i % 2 == 0 else (8, 2)
            st = random_band(Grid(n), seed=600 + i, kmax=kmax, amplitude=0.2)
            out.append((curl(st.u), curl(st.h)))
        return out

    @pytest.mark.parametrize("lemma", lab.KNOWN_LEMMAS)
    def test_equal_to_reference_on_mixed_grids(self, lemma):
        # One to_physical call and one gradient per field and sample, and
        # weights kept per grid size, equal bit for bit an advect per row
        # and a weight array per row and m.
        samples = self.mixed_grid_samples()
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        assert (lab.estimate_constant(lemma, samples, spec)
                == estimate_constant_reference(lemma, samples, spec))

    @pytest.mark.parametrize("lemma, per_sample", [
        ("3.1", 33), ("3.2", 33), ("3.21", 39), ("3.22", 24),
    ])
    def test_transforms_per_sample(self, lemma, per_sample, monkeypatch):
        # The advecting fields of the lemma's rows (3 components each) and
        # the gradients (9) of the fields its rows differentiate, with u and
        # h always: 42 with a transform per row.  Below n = 64 a call
        # transforms a batch of components, their axis leading, so each
        # call counts its leading extent.
        samples = self.make_samples(3)
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        count = [0]

        def counted(a, *args, **kwargs):
            assert a.ndim == 4
            count[0] += a.shape[0]
            return irfftn(a, *args, **kwargs)

        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", counted)
        lab.estimate_constant(lemma, samples, spec)
        assert count[0] == per_sample * len(samples)

    def test_zero_magnetic_samples_contribute_zero_to_coupling(self):
        g = Grid(16)
        st = random_band(g, seed=77, kmax=4)
        zero = SpectralField.zeros(g)
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        value = lab.estimate_constant("3.21", [(curl(st.u), zero)], spec)
        assert value == 0.0

    def test_no_usable_samples_rejected(self):
        g = Grid(16)
        zero = SpectralField.zeros(g)
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        with pytest.raises(ValueError, match="nonzero"):
            lab.estimate_constant("3.1", [(zero, zero)], spec)

    def test_unknown_lemma_rejected(self):
        spec = MultiplierSpec(m=1, r=3.0, tau=0.1, s=1.0)
        with pytest.raises(ValueError, match="unknown lemma"):
            lab.estimate_constant("5.1", [], spec)
