"""Symmetries of ideal MHD that the discrete step keeps.

Each holds for the equations, and the pseudo-spectral RK4 step keeps it
bit for bit or to roundoff, so a rewrite of the transforms or the step that
breaks one shows here before it shows in a reference output:

- h -> -h maps a step to a step, bit for bit (rounding is sign-symmetric);
- swapping x and y, with the first two components, commutes with a step;
- time reversal (t, u, h) -> (-t, -u, h): a step forward from the negated
  result returns to the negated start, up to RK4's local error;
- the ABC flow with h = 0 is a Beltrami steady state;
- Taylor-Green keeps its parity: u odd and h even under x -> -x.

The first two also run at n = 64, where the transforms use the thread pool.
"""

import numpy as np
import pytest

from gevreymhd.solver import rhs_primitive, step_rk4
from gevreymhd.spectral import (Grid, MHDState, SpectralField, from_physical,
                                random_band, symmetrize)


def state(n=16):
    return random_band(Grid(n), seed=3, kmax=4, amplitude=0.3)


def negate(st, u=False, h=False):
    """st with u, h or both negated."""
    return MHDState(SpectralField(st.grid, -st.u.coeffs) if u else st.u,
                    SpectralField(st.grid, -st.h.coeffs) if h else st.h,
                    st.t)


def swap_xy(st):
    """st(y, x, z) with its first two components swapped."""
    u, h = (SpectralField(st.grid, f.coeffs[[1, 0, 2]].transpose(0, 2, 1, 3))
            for f in (st.u, st.h))
    return MHDState(u, h, st.t)


def amplitude(st):
    return max(st.u.max_amplitude(), st.h.max_amplitude())


def distance(a, b):
    return max(np.max(np.abs(a.u.coeffs - b.u.coeffs)),
               np.max(np.abs(a.h.coeffs - b.h.coeffs)))


@pytest.mark.parametrize("n", [16, 64])
def test_magnetic_sign_flip_is_bitwise(n):
    st = state(n)
    flipped = step_rk4(negate(st, h=True), 0.01)
    expected = negate(step_rk4(st, 0.01), h=True)
    assert np.array_equal(flipped.u.coeffs, expected.u.coeffs)
    assert np.array_equal(flipped.h.coeffs, expected.h.coeffs)


@pytest.mark.parametrize("n", [16, 64])
def test_xy_swap_commutes_with_a_step(n):
    st = state(n)
    swapped = step_rk4(swap_xy(st), 0.01)
    expected = swap_xy(step_rk4(st, 0.01))
    assert distance(swapped, expected) <= 1e-15 * amplitude(expected)


def test_time_reversal_to_rk4_order():
    # Measured: 0.23, 1.0e-2 and 2.2e-4 at dt 0.04, 0.02 and 0.01.
    st = state()
    errors = []
    for dt in (0.04, 0.02, 0.01):
        forward = step_rk4(st, dt)
        back = step_rk4(negate(forward, u=True), dt)
        errors.append(distance(back, negate(st, u=True)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] / errors[2] > 2**4
    assert errors[2] < 1e-3


def test_abc_flow_is_steady():
    grid = Grid(16)
    x = np.arange(grid.n) * grid.spacing
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    A, B, C = 1.0, 0.7, 0.4
    u = symmetrize(from_physical(grid, np.stack([
        A * np.sin(Z) + C * np.cos(Y),
        B * np.sin(X) + A * np.cos(Z),
        C * np.sin(Y) + B * np.cos(X),
    ])))
    st = MHDState(u, SpectralField.zeros(grid), 0.0)
    tend = rhs_primitive(st)
    assert np.max(np.abs(tend.du.coeffs)) < 1e-15  # measured 1.0e-16
    assert not np.any(tend.dh.coeffs)
    cur = st
    for _ in range(50):
        cur = step_rk4(cur, 0.05)
    assert distance(cur, st) < 1e-15  # measured 6.0e-17


def test_taylor_green_keeps_parity(evolved):
    # u is odd and h even under x -> -x: u_hat is imaginary, h_hat real.
    for st in evolved:
        assert np.max(np.abs(st.u.coeffs.real)) <= 2e-16
        assert np.max(np.abs(st.h.coeffs.imag)) <= 2e-16
