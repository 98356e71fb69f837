"""Analyticity-radius decay ODE and its a-priori lower bound.

The radius obeys tau' = -(a tau + b tau^2) with a = C * (sup-norm of the two
gradients) and b = C * (Sobolev norm of the vorticity/current pair plus the
Gronwall majorant M(t)).  RadiusTracker is the one place that computes M(t),
tau and its lower bound, from records to which `solver.run` gave the
gradient integral I(t).
"""

from dataclasses import replace

import numpy as np

_SUBSTEPS = 8


def _rk4_interval(tau: float, t0: float, t1: float, a0: float, a1: float,
                  b0: float, b1: float) -> float:
    """RK4 integration of the radius ODE from t0 to t1, starting at tau.

    The coefficients run linearly from (a0, b0) to (a1, b1).  The interval
    is covered by at least _SUBSTEPS RK4 steps; the local step additionally
    adapts to the instantaneous decay rate a + b*tau, so the result stays
    strictly positive however stiff the coefficients are.  A substep whose
    tau is not above 1e-300 (NaN from an overflowing b included) ends the
    integration early: that tau is returned, and the caller reads it as a
    collapse.
    """
    if a0 < 0 or a1 < 0 or b0 < 0 or b1 < 0:
        raise ValueError("coefficient series must be >= 0")
    if tau <= 0:
        raise ValueError(f"tau0 must be > 0, got {tau}")
    # An overflowing majorant makes b infinite and its interpolation NaN
    # (0 * inf); the collapse test below reports that, so numpy's own
    # warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        span = t1 - t0
        da, db = a1 - a0, b1 - b0

        def coeffs_at(t_local):
            frac = t_local / span if span > 0 else 0.0
            return a0 + frac * da, b0 + frac * db

        def rhs(tau, a, b):
            return -(a * tau + b * tau * tau)

        t_local = 0.0
        while t_local < span - 1e-15 * max(span, 1.0):
            a_now, b_now = coeffs_at(t_local)
            rate = a_now + b_now * tau
            h = span / _SUBSTEPS
            if rate > 0.0:
                h = min(h, 0.2 / rate)
            h = min(h, span - t_local)
            am, bm = coeffs_at(t_local + 0.5 * h)
            a_end, b_end = coeffs_at(t_local + h)
            k1 = rhs(tau, a_now, b_now)
            k2 = rhs(tau + 0.5 * h * k1, am, bm)
            k3 = rhs(tau + 0.5 * h * k2, am, bm)
            k4 = rhs(tau + h * k3, a_end, b_end)
            tau = tau + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_local += h
            if not tau > 1e-300:
                break
    return tau


class RadiusTracker:
    """The radius pipeline fed one diagnostics record at a time.

    C > 0 scales the ODE coefficients and tau0 > 0 is the radius at the
    first record.  That record also sets the lower-bound coefficients

        C0 = C * (hr0 + x0)
        C1 = C * C * (1 + tau0) * hr0**2

    so that tau_lower = exp(-C I(t)) / (1/tau0 + C0 t + C1 t^2 / 2) is the
    exact outcome of the Gronwall chain.  The tracker carries the inner
    Gronwall integral, the ODE coefficients and tau at the latest sample.
    inner(t) = int_0^t hr^2 / G is a trapezoidal sum at the sampling
    cadence, G = exp(C I(t)) with I(t) the record's grad_integral, and
    M(t) = G(t) [x0 + C (1 + tau0) inner(t)].  Each record costs the same
    whatever the history length.  Once tau is not above 1e-300, it stays at
    1e-300 and `collapsed` is set.
    """

    def __init__(self, C: float, tau0: float):
        if not (C > 0 and tau0 > 0):
            raise ValueError("C and tau0 must both be positive")
        self.C, self.tau0 = C, tau0
        self.t = None  # no record taken in yet
        self.collapsed = False

    def track(self, rec):
        """The record with tau and tau_lower filled in.

        The first record starts the chain: it sets C0 and C1 from its norms,
        and there tau = tau_lower = tau0.  Each later record's grad_integral
        is I(t) from the first record's time, as `solver.run` fills it.
        """
        C, tau0 = self.C, self.tau0
        t, grad_sum, hr = rec.t, rec.grad_sum, rec.norms.hr
        if self.t is None:
            self.x0 = x0 = rec.norms.x_norm
            self.C0 = C * (hr + x0)
            self.C1 = C * C * (1.0 + tau0) * hr**2
            self.t0 = self.t = t
            self.inner, self.weight = 0.0, hr * hr
            # At t0, G = 1 and the majorant is x0.
            self.a, self.b = C * grad_sum, C * (hr + x0)
            self.tau = tau0
            return replace(rec, tau=tau0, tau_lower=tau0)
        span, integral = t - self.t, rec.grad_integral
        # G and the majorant may overflow to inf; _rk4_interval then returns
        # a collapsed tau.
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.exp(C * integral)
            weight = hr * hr / G
            self.inner += 0.5 * (weight + self.weight) * span
            majorant = G * (self.x0 + C * (1.0 + tau0) * self.inner)
            a, b = C * grad_sum, C * (hr + majorant)
        if not self.collapsed:
            self.tau = float(_rk4_interval(self.tau, self.t, t, self.a, a,
                                           self.b, b))
            if not self.tau > 1e-300:
                self.tau, self.collapsed = 1e-300, True
        self.t, self.weight = t, weight
        self.a, self.b = a, b
        elapsed = t - self.t0
        # At elapsed = 0 this is 1/(1/tau0), which may differ from tau0 in
        # the last bit.
        denom = (1.0 / tau0 + self.C0 * elapsed
                 + 0.5 * self.C1 * elapsed * elapsed)
        return replace(rec, tau=self.tau,
                       tau_lower=float(np.exp(-C * integral) / denom))


def estimate_C_tilde(hr_series, grad_integral) -> float:
    """Smallest C_tilde with hr(t) <= hr(0) exp(C_tilde I(t)) at all samples.

    Requires at least 10 samples and strictly increasing I(t) past t = 0.
    """
    hr = np.asarray(hr_series, dtype=np.float64)
    integral = np.asarray(grad_integral, dtype=np.float64)
    if len(hr) < 10:
        raise ValueError(f"need >= 10 samples, got {len(hr)}")
    hr0 = hr[0]
    ratios = []
    for i in range(1, len(hr)):
        if integral[i] <= 0.0:
            if hr[i] > hr0 * (1.0 + 1e-13):
                raise ValueError(
                    "unbounded constant: norm grows while the gradient "
                    "integral is zero"
                )
            continue
        ratios.append(np.log(hr[i] / hr0) / integral[i])
    if not ratios:
        return 0.0
    return float(max(0.0, max(ratios)))
