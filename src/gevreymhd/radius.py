"""Analyticity-radius decay ODE and its a-priori lower bound.

The radius obeys tau' = -(a tau + b tau^2) with a = C * (sup-norm of the two
gradients) and b = C * (Sobolev norm of the vorticity/current pair plus the
Gronwall majorant M(t)).  RadiusTracker is the one place that computes M(t)
and tau, from records to which `solver.run` gave the gradient integral I(t).
"""

from dataclasses import dataclass, replace

import numpy as np


class RadiusCollapse(RuntimeError):
    """The integrated radius dropped below the representable floor."""


@dataclass
class RadiusModel:
    """Constants of the radius ODE and the explicit lower bound.

    C scales the ODE coefficients.  C0 and C1 are the lower-bound
    coefficients; populate_from_initial derives them from the initial norms:

        C0 = C * (hr0 + x0)
        C1 = C * C * (1 + tau0) * hr0**2

    so that the bound  exp(-C I(t)) / (1/tau0 + C0 t + C1 t^2 / 2)  is the
    exact outcome of the Gronwall chain.
    """

    C: float = 1.0
    tau0: float = 1.0
    C0: float = 0.0
    C1: float = 0.0

    def __post_init__(self):
        if self.C <= 0 or self.tau0 <= 0:
            raise ValueError("C and tau0 must both be positive")
        if self.C0 < 0 or self.C1 < 0:
            raise ValueError("C0 and C1 must be >= 0")

    def populate_from_initial(self, hr0: float, x0: float) -> "RadiusModel":
        self.C0 = self.C * (hr0 + x0)
        self.C1 = self.C * self.C * (1.0 + self.tau0) * hr0**2
        return self


def radius_rhs(tau: float, a: float, b: float) -> float:
    """Right-hand side -(a tau + b tau^2) of the radius decay ODE."""
    if a < 0 or b < 0:
        raise ValueError(f"coefficients must be >= 0, got a={a}, b={b}")
    return -(a * tau + b * tau * tau)


_SUBSTEPS = 8


def _rk4_interval(tau: float, t0: float, t1: float, a0: float, a1: float,
                  b0: float, b1: float) -> float:
    """RK4 integration of the radius ODE from t0 to t1, starting at tau.

    The coefficients run linearly from (a0, b0) to (a1, b1).  The interval
    is covered by at least _SUBSTEPS RK4 steps; the local step additionally
    adapts to the instantaneous decay rate a + b*tau, so the result stays
    strictly positive however stiff the coefficients are.  Hitting 1e-300
    raises RadiusCollapse.
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
            k1 = radius_rhs(tau, a_now, b_now)
            k2 = radius_rhs(tau + 0.5 * h * k1, am, bm)
            k3 = radius_rhs(tau + 0.5 * h * k2, am, bm)
            k4 = radius_rhs(tau + h * k3, a_end, b_end)
            tau = tau + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_local += h
            if not tau > 1e-300:  # also catches NaN from overflowing b
                raise RadiusCollapse(
                    f"radius collapsed at t={t0 + t_local:.6g}"
                )
    return tau


def radius_lower_bound(t: float, model: RadiusModel, integral: float) -> float:
    """exp(-C I(t)) / (1/tau0 + C0 t + C1 t^2 / 2).

    At t = 0 this is 1/(1/tau0), which may differ from tau0 in the last bit.
    """
    denom = 1.0 / model.tau0 + model.C0 * t + 0.5 * model.C1 * t * t
    return float(np.exp(-model.C * integral) / denom)


class RadiusTracker:
    """The radius pipeline fed one diagnostics record at a time.

    Carries the inner Gronwall integral, the ODE coefficients and tau at the
    latest sample.  inner(t) = int_0^t hr^2 / G is a trapezoidal sum at the
    sampling cadence, G = exp(C I(t)) with I(t) the record's grad_integral,
    and M(t) = G(t) [x0 + C (1 + tau0) inner(t)].  Each record costs the
    same whatever the history length.  After a RadiusCollapse, tau stays at
    1e-300 and `collapsed` is set.
    """

    def __init__(self, model: RadiusModel):
        self.model = model
        self.t = None  # no record taken in yet
        self.collapsed = False

    def track(self, rec):
        """The record with tau and tau_lower filled in.

        The first record starts the chain: it sets C0 and C1 from its norms,
        and there tau = tau_lower = tau0.  Each later record's grad_integral
        is I(t) from the first record's time, as `solver.run` fills it.
        """
        model, t, grad_sum, hr = self.model, rec.t, rec.grad_sum, rec.norms.hr
        C = model.C
        if self.t is None:
            self.x0 = x0 = rec.norms.x_norm
            model.populate_from_initial(hr, x0)
            self.t0 = self.t = t
            self.inner, self.weight = 0.0, hr * hr
            # At t0, G = 1 and the majorant is x0.
            self.a, self.b = C * grad_sum, C * (hr + x0)
            self.tau = model.tau0
            return replace(rec, tau=model.tau0, tau_lower=model.tau0)
        span, integral = t - self.t, rec.grad_integral
        # G and the majorant may overflow to inf; _rk4_interval then reports
        # a collapse.
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.exp(C * integral)
            weight = hr * hr / G
            self.inner += 0.5 * (weight + self.weight) * span
            majorant = G * (self.x0 + C * (1.0 + model.tau0) * self.inner)
            a, b = C * grad_sum, C * (hr + majorant)
        if not self.collapsed:
            try:
                self.tau = float(_rk4_interval(self.tau, self.t, t, self.a, a,
                                               self.b, b))
            except RadiusCollapse:
                self.tau, self.collapsed = 1e-300, True
        self.t, self.weight = t, weight
        self.a, self.b = a, b
        return replace(rec, tau=self.tau, tau_lower=radius_lower_bound(
            t - self.t0, model, integral))


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
