"""Analyticity-radius decay ODE, its closed forms, and a-priori bounds.

The radius obeys tau' = -(a tau + b tau^2) with a = C * (sup-norm of the two
gradients) and b = C * (Sobolev norm of the vorticity/current pair plus the
Gronwall majorant M(t)).  For frozen coefficients this is a Bernoulli ODE
with an explicit solution, used to validate the integrator.
"""

from dataclasses import dataclass

import numpy as np


class RadiusCollapse(RuntimeError):
    """The integrated radius dropped below the representable floor."""


@dataclass
class RadiusModel:
    """Constants of the radius ODE and the explicit lower bound.

    C scales the ODE coefficients, C_tilde the Sobolev growth bound.  C0 and
    C1 are the lower-bound coefficients; populate_from_initial derives them
    from the initial norms:

        C0 = C * (hr0 + x0)
        C1 = C * C * (1 + tau0) * hr0**2

    so that the bound  exp(-C I(t)) / (1/tau0 + C0 t + C1 t^2 / 2)  is the
    exact outcome of the Gronwall chain.
    """

    C: float = 1.0
    C_tilde: float = 1.0
    tau0: float = 1.0
    C0: float = 0.0
    C1: float = 0.0

    def __post_init__(self):
        if self.C <= 0 or self.C_tilde <= 0 or self.tau0 <= 0:
            raise ValueError("C, C_tilde and tau0 must all be positive")
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


def bernoulli_tau(t: float, tau0: float, a: float, b: float) -> float:
    """Closed-form solution of tau' = -(a tau + b tau^2), tau(0) = tau0."""
    if a == 0.0:
        return tau0 / (1.0 + b * tau0 * t)
    e = np.exp(-a * t)
    return a * tau0 * e / (a + b * tau0 * (1.0 - e))


_SUBSTEPS = 8


def integrate_radius(times, a_series, b_series, tau0: float) -> np.ndarray:
    """RK4 integration of the radius ODE along sampled coefficients.

    Coefficients are interpolated piecewise-linearly between samples.  Each
    sample interval is covered by at least _SUBSTEPS RK4 steps; the local
    step additionally adapts to the instantaneous decay rate a + b*tau, so
    the output stays strictly positive however stiff the coefficients are.
    Hitting 1e-300 raises RadiusCollapse.
    """
    times = np.asarray(times, dtype=np.float64)
    a_series = np.asarray(a_series, dtype=np.float64)
    b_series = np.asarray(b_series, dtype=np.float64)
    if np.any(a_series < 0) or np.any(b_series < 0):
        raise ValueError("coefficient series must be >= 0")
    if tau0 <= 0:
        raise ValueError(f"tau0 must be > 0, got {tau0}")
    taus = np.empty_like(times)
    taus[0] = tau = tau0
    # An overflowing majorant makes b infinite and its interpolation NaN
    # (0 * inf); the collapse test below reports that, so numpy's own
    # warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(times) - 1):
            t0, t1 = times[i], times[i + 1]
            span = t1 - t0
            da = a_series[i + 1] - a_series[i]
            db = b_series[i + 1] - b_series[i]

            def coeffs_at(t_local):
                frac = t_local / span if span > 0 else 0.0
                return a_series[i] + frac * da, b_series[i] + frac * db

            t_local = 0.0
            while t_local < span - 1e-15 * max(span, 1.0):
                a_now, b_now = coeffs_at(t_local)
                rate = a_now + b_now * tau
                h = span / _SUBSTEPS
                if rate > 0.0:
                    h = min(h, 0.2 / rate)
                h = min(h, span - t_local)
                a0, b0 = a_now, b_now
                am, bm = coeffs_at(t_local + 0.5 * h)
                a1, b1 = coeffs_at(t_local + h)
                k1 = radius_rhs(tau, a0, b0)
                k2 = radius_rhs(tau + 0.5 * h * k1, am, bm)
                k3 = radius_rhs(tau + 0.5 * h * k2, am, bm)
                k4 = radius_rhs(tau + h * k3, a1, b1)
                tau = tau + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t_local += h
                if not tau > 1e-300:  # also catches NaN from overflowing b
                    raise RadiusCollapse(
                        f"radius collapsed at t={t0 + t_local:.6g}"
                    )
            taus[i + 1] = tau
    return taus


def radius_lower_bound(t: float, model: RadiusModel, integral: float) -> float:
    """exp(-C I(t)) / (1/tau0 + C0 t + C1 t^2 / 2); equals tau0 at t = 0."""
    denom = 1.0 / model.tau0 + model.C0 * t + 0.5 * model.C1 * t * t
    return float(np.exp(-model.C * integral) / denom)


def hr_growth_bound(t: float, model: RadiusModel, hr0: float,
                    integral: float) -> float:
    """hr0 * exp(C_tilde * I(t)) — the Sobolev-norm growth envelope."""
    return float(hr0 * np.exp(model.C_tilde * integral))


def cumulative_integral(times, values) -> np.ndarray:
    """Trapezoidal cumulative integral matched to the diagnostic cadence."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(times)
    if len(times) > 1:
        out[1:] = np.cumsum(
            0.5 * (values[1:] + values[:-1]) * np.diff(times)
        )
    return out


def gronwall_majorant(times, hr_series, grad_integral, C: float,
                      tau0: float, x0: float) -> np.ndarray:
    """M(t) = G(t) [x0 + C (1 + tau0) int_0^t hr(sigma)^2 / G(sigma) dsigma].

    G(t) = exp(C * I(t)) with I the accumulated gradient integral; the inner
    integral uses trapezoidal quadrature at the sampling cadence.
    """
    times = np.asarray(times, dtype=np.float64)
    hr = np.asarray(hr_series, dtype=np.float64)
    integral = np.asarray(grad_integral, dtype=np.float64)
    G = np.exp(C * integral)
    inner = cumulative_integral(times, hr**2 / G)
    return G * (x0 + C * (1.0 + tau0) * inner)


class RadiusTracker:
    """The radius pipeline advanced by one sample interval at a time.

    Carries I(t), the inner Gronwall integral, the ODE coefficients and tau
    at the latest sample.  Each advance repeats, in the same order, the
    floating-point operations of cumulative_integral, gronwall_majorant and
    integrate_radius over the whole history, so its values equal theirs
    exactly at a cost independent of the history length.  After a
    RadiusCollapse, tau stays at 1e-300 and `collapsed` is set.
    """

    def __init__(self, model: RadiusModel, t0: float, grad_sum: float,
                 hr: float, x0: float):
        self.model = model.populate_from_initial(hr, x0)
        self.t0 = self.t = t0
        self.x0 = x0
        self.integral = self.inner = 0.0
        self.grad_sum, self.weight = grad_sum, hr * hr
        # At t0, G = 1 and the majorant is x0.
        self.a, self.b = model.C * grad_sum, model.C * (hr + x0)
        self.tau = model.tau0
        self.collapsed = False

    def advance(self, t: float, grad_sum: float, hr: float) -> None:
        """Take in the sample at time t and integrate tau up to it."""
        C, span = self.model.C, t - self.t
        self.integral += 0.5 * (grad_sum + self.grad_sum) * span
        # G and the majorant may overflow to inf; integrate_radius then
        # reports a collapse.
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.exp(C * self.integral)
            weight = hr * hr / G
            self.inner += 0.5 * (weight + self.weight) * span
            majorant = G * (self.x0 + C * (1.0 + self.model.tau0) * self.inner)
            a, b = C * grad_sum, C * (hr + majorant)
        if not self.collapsed:
            try:
                self.tau = float(integrate_radius(
                    (self.t, t), (self.a, a), (self.b, b), self.tau
                )[-1])
            except RadiusCollapse:
                self.tau, self.collapsed = 1e-300, True
        self.t, self.grad_sum, self.weight = t, grad_sum, weight
        self.a, self.b = a, b

    @property
    def tau_lower(self) -> float:
        """The explicit lower bound at the latest sample."""
        return radius_lower_bound(self.t - self.t0, self.model, self.integral)


def estimate_C_tilde(times, hr_series, grad_integral) -> float:
    """Smallest C_tilde with hr(t) <= hr(0) exp(C_tilde I(t)) at all samples.

    Requires at least 10 samples and strictly increasing I(t) past t = 0.
    """
    times = np.asarray(times, dtype=np.float64)
    hr = np.asarray(hr_series, dtype=np.float64)
    integral = np.asarray(grad_integral, dtype=np.float64)
    if len(times) < 10:
        raise ValueError(f"need >= 10 samples, got {len(times)}")
    hr0 = hr[0]
    ratios = []
    for i in range(1, len(times)):
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
